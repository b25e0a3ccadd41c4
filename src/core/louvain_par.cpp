#include "core/louvain_par.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "common/flat_map.hpp"
#include "common/histogram.hpp"
#include "common/sync.hpp"
#include "common/timer.hpp"
#include "core/row_store.hpp"
#include "core/session.hpp"
#include "graph/partition.hpp"
#include "pml/aggregator.hpp"

namespace plv::core {

namespace {

// ---------------------------------------------------------------------------
// Wire records. All 16 bytes, trivially copyable, no padding surprises.
// ---------------------------------------------------------------------------

/// STATE PROPAGATION: tells owner(v) that the in-edge (v,u) now points at
/// community c, i.e. Out_Table[(v,c)] += w (paper Algorithm 3). The same
/// record carries the *incremental* protocol: a set kRetractBit in `c`
/// turns the message into a retraction, Out_Table[(v, c&~bit)] -= w, so a
/// moved vertex ships one (retraction, assertion) pair per in-edge instead
/// of the whole table being rebuilt.
struct PropMsg {
  vid_t v;
  vid_t c;
  weight_t w;
};

/// Retraction flag in PropMsg::c. Community ids are vertex ids and the
/// engine holds vertex counts below 2^31 (common/types.hpp), so the top
/// bit is free; the delta path is disabled for (hypothetical) larger
/// levels anyway — see refine().
inline constexpr vid_t kRetractBit = 0x80000000u;

/// UPDATE: Σtot / member-count delta for community c, applied by owner(c).
/// The same record doubles as the global move tally: each rank closes the
/// streaming delta exchange by sending every
/// rank one record with c == kInvalidVid (never a real community id),
/// dcount = its local move count and dtot = its local delta-record count
/// (exact in a double far beyond any reachable table size). Receivers sum
/// the sentinels instead of running a separate MoveTally allreduce — one
/// collective round gone per iteration.
struct DeltaMsg {
  vid_t c;
  std::int32_t dcount;
  weight_t dtot;
};

/// Σin contribution for community c (Algorithm 4 lines 18-20).
struct SinMsg {
  vid_t c;
  std::int32_t pad{0};
  weight_t w;
};

/// Reply record of the Σtot fetch: community totals plus member count.
/// The member count feeds the singleton-swap guard (see
/// find_best_community); it is a consistent snapshot of the previous
/// iteration's state, like Σtot itself.
struct SigmaRep {
  weight_t sigma_tot;
  std::int64_t members;
};

/// In_Table record: the in-edge (src → dst) of weight w, stored at
/// owner(dst) in dst's row under key src. Level-0 ingestion builds them
/// from the edge list (for_each_in_record); GRAPH RECONSTRUCTION ships
/// coarse ones whose ids are already dense next-level ids (paper
/// Algorithm 5).
struct EdgeMsg {
  vid_t src;
  vid_t dst;
  weight_t w;
};

/// Level-label gather: level vertex v belongs to dense community c.
struct LabelPair {
  vid_t v;
  vid_t c;
};

static_assert(sizeof(PropMsg) == 16 && sizeof(DeltaMsg) == 16 && sizeof(SinMsg) == 16 &&
              sizeof(EdgeMsg) == 16);

// ---------------------------------------------------------------------------
// Refine constants.
// ---------------------------------------------------------------------------

/// Consecutive stagnant iterations that end a level's inner loop: one
/// stagnant low-ε iteration is normal, not convergence, so it takes a
/// window of them (DESIGN.md decision 3).
inline constexpr int kStagnationWindow = 2;

/// Bins of the positive-gain histogram that turns ε into the gain cutoff.
/// Every rank allreduces this many counts per iteration.
inline constexpr std::size_t kGainHistogramBins = 512;

/// Levels smaller than this refine unrestricted even under active
/// scheduling. Restricting moves to the frontier admits fewer movers per
/// round, stretching convergence across more iterations — worth it while
/// the FIND scan dominates, a net loss once the level graph is small
/// enough that per-iteration collective rounds dominate and scanning
/// everything is effectively free.
inline constexpr vid_t kMinPrunedLevel = 1024;

/// Relative tolerance of the per-iteration Σtot conservation check: the
/// Σtot of all communities sums to 2m up to floating-point drift of the
/// move-time adjustments.
inline constexpr double kConservationTolerance = 1e-9;

/// Per-community bookkeeping held by the community's owner.
struct CommInfo {
  weight_t sigma_tot{0};
  weight_t sigma_in{0};
  std::int64_t members{0};
};

/// The In_Table record rule: how one edge becomes level-0 In_Table
/// records. A self-loop is the single record A(u, u) = 2w; any other edge
/// is (u → v) and then (v → u), each stored at owner of its target.
/// In-memory and streamed ingestion both emit through here, in this
/// order: a row sums equal sources in arrival order, so one rule is what
/// keeps a streamed or Session run bit-identical to a one-shot run on
/// duplicate edges with fractional weights.
template <typename Emit>
void for_each_in_record(const Edge& e, Emit&& emit) {
  if (e.u == e.v) {
    emit(EdgeMsg{e.u, e.u, 2 * e.w});
    return;
  }
  emit(EdgeMsg{e.u, e.v, e.w});
  emit(EdgeMsg{e.v, e.u, e.w});
}

// ---------------------------------------------------------------------------
// One rank's view of one level plus the phase machinery.
// ---------------------------------------------------------------------------

class RankEngine {
 public:
  RankEngine(pml::Comm& comm, const ParOptions& opts)
      : comm_(comm),
        opts_(opts),
        part_(0, comm.nranks()),
        in_("In_Table", [this](std::size_t l) { return row_name(l); }),
        out_("Out_Table", [this](std::size_t l) { return row_name(l); }),
        prop_agg_(comm),
        sigma_reqs_(static_cast<std::size_t>(comm.nranks())) {}

  /// Builds level 0 from the (shared, read-only) global edge list: this
  /// rank's In_Table records, in edge-list order. One-shot runs and every
  /// Session apply, cold or incremental, build level 0 here.
  void init_from_edges(const graph::EdgeList& edges, vid_t n) {
    part_ = graph::Partition1D(n, comm_.nranks());
    n_level_ = n;
    level_index_ = 0;
    const int me = comm_.rank();
    std::vector<EdgeMsg> records;
    records.reserve(2 * edges.size() / static_cast<std::size_t>(comm_.nranks()) + 16);
    for (const Edge& e : edges) {
      for_each_in_record(e, [&](const EdgeMsg& m) {
        if (part_.owner(m.dst) == me) records.push_back(m);
      });
    }
    init_level_state(records);
    two_m_ = comm_.allreduce_sum(local_strength_sum());
  }

  /// Restricts refinement to the disturbed-vertex frontier: only vertices
  /// seeded here (the endpoints of changed edges) — plus those a
  /// retraction/assertion patch later touches, which is exactly how a
  /// neighbor learns its community surroundings changed — may move;
  /// everyone else's gain is zeroed before the threshold histogram. Call
  /// after init_from_edges + warm_start. Level 0 only: reconstruction
  /// lifts the restriction, and the run stops after level 0 when the
  /// frontier never produced a move (see frontier_stalled).
  void enable_frontier(const std::vector<vid_t>& seeds) {
    pinned_ = true;
    restricted_ = true;
    active_.assign(label_.size(), 0);
    const int me = comm_.rank();
    for (vid_t v : seeds) {
      if (v < n_level_ && part_.owner(v) == me) active_[part_.to_local(v)] = 1;
    }
  }

  /// True when a pinned frontier's level-0 pass moved nothing: the
  /// partition is exactly as warm-seeded, and the coarser levels were
  /// already converged by the epoch that produced that seed, so the run
  /// ends after level 0 and skips its reconstruction. (pinned_ survives
  /// only until a reconstruction re-inits the level state.)
  [[nodiscard]] bool frontier_stalled() const noexcept {
    return pinned_ && level_moves_ == 0;
  }

  /// Re-seeds the community state from a prior partition (warm start).
  /// Must run after init_from_edges/init_from_slice: ownership arrays are
  /// already in place; only labels and the community store change. The
  /// Σtot request bookkeeping need not be touched here — the level's first
  /// propagation is always a full rebuild, which re-derives it.
  void warm_start(const std::vector<vid_t>& initial_labels) {
    assert(initial_labels.size() >= n_level_);
    const int me = comm_.rank();
    for (vid_t l = 0; l < static_cast<vid_t>(label_.size()); ++l) {
      label_[l] = initial_labels[part_.to_global(me, l)];
      assert(label_[l] < n_level_);
    }
    // Rebuild Σtot / member counts at the community owners.
    comms_.clear();
    std::vector<std::vector<DeltaMsg>> deltas(static_cast<std::size_t>(comm_.nranks()));
    for (vid_t l = 0; l < static_cast<vid_t>(label_.size()); ++l) {
      deltas[static_cast<std::size_t>(part_.owner(label_[l]))].push_back(
          DeltaMsg{label_[l], +1, strength_[l]});
    }
    const auto incoming = comm_.exchange(deltas);
    for (const DeltaMsg& d : incoming) {
      CommInfo& info = comms_.ref(d.c);
      info.sigma_tot += d.dtot;
      info.members += d.dcount;
    }
  }

  /// Builds level 0 from this rank's slice of a distributed edge stream:
  /// every In_Table record is routed to its owner through the aggregators
  /// (records written straight into pooled chunks; the drain blocks on the
  /// mailbox instead of spinning on collectives), so no rank ever
  /// materializes the global edge list.
  void init_from_slice(const graph::EdgeList& slice, vid_t n) {
    require_valid_edges(slice, "louvain");
    part_ = graph::Partition1D(n, comm_.nranks());
    n_level_ = n;
    level_index_ = 0;
    pml::Aggregator<EdgeMsg> agg(comm_);
    for (const Edge& e : slice) {
      for_each_in_record(e, [&](const EdgeMsg& m) { agg.push(part_.owner(m.dst), m); });
    }
    agg.flush_all_final();
    // Ordered streaming drain: arrivals apply in source-rank order, so
    // equal sources sum in the same order on every run and transport.
    init_level_state(drain_records());
    two_m_ = comm_.allreduce_sum(local_strength_sum());
  }

  /// One full level: propagation, refine (inner loop), reconstruction.
  /// Returns the level artifact (identical on every rank). Sets
  /// `compressed` to false when nothing merged.
  LouvainLevel run_level(bool& compressed) {
    WallTimer level_timer;
    LouvainLevel level;
    level.num_vertices = n_level_;

    {
      ScopedPhase sp(timers_, phase::kStatePropagation);
      state_propagation_full();
    }
    // Σin was accumulated by the propagation drain itself; only the
    // owner exchange and the reduction remain.
    exchange_sigma_in();
    double q = comm_.allreduce_sum(local_modularity().q);

    {
      ScopedPhase sp(timers_, phase::kRefine);
      q = refine(level, q);
    }

    level.modularity = q;

    // Dense relabeling must happen before reconstruction so both the
    // reported labels and the next level's In_Table use the same ids.
    const std::vector<vid_t> relabel_keys = gather_surviving_communities();
    FlatMap<vid_t> dense(relabel_keys.size());
    for (std::size_t i = 0; i < relabel_keys.size(); ++i) {
      dense.ref(relabel_keys[i]) = static_cast<vid_t>(i);
    }
    level.num_communities = relabel_keys.size();
    level.labels = gather_level_labels(dense);

    // Every rank reads the same allreduced move count, so all of them skip
    // the reconstruction's all-to-all together.
    if (!frontier_stalled()) {
      ScopedPhase sp(timers_, phase::kGraphReconstruction);
      graph_reconstruction(dense, static_cast<vid_t>(relabel_keys.size()));
    }

    compressed = static_cast<vid_t>(relabel_keys.size()) < level.num_vertices;
    level.seconds = level_timer.seconds();
    return level;
  }

  [[nodiscard]] const PhaseTimers& timers() const noexcept { return timers_; }
  [[nodiscard]] weight_t two_m() const noexcept { return two_m_; }
  [[nodiscard]] vid_t level_vertex_count() const noexcept { return n_level_; }

 private:
  struct Move {
    vid_t l;      // local index of the moved vertex
    vid_t from;
    vid_t to;
  };

  /// Global per-iteration tally, summed over ranks so every rank takes the
  /// same full-vs-delta propagation decision.
  struct MoveTally {
    std::uint64_t moves{0};
    std::uint64_t delta_records{0};  // records a delta propagation would ship
  };

  // -- level state ----------------------------------------------------------

  /// Names owned row l in a RowStore's errors.
  [[nodiscard]] std::string row_name(std::size_t l) const {
    return "row of vertex " +
           std::to_string(part_.to_global(comm_.rank(), static_cast<vid_t>(l))) +
           " at level " + std::to_string(level_index_);
  }

  /// The In_Table records this rank receives, in ordered-drain order.
  [[nodiscard]] std::vector<EdgeMsg> drain_records() {
    std::vector<EdgeMsg> records;
    comm_.drain_streaming_finalized<EdgeMsg>([&](int, std::span<const EdgeMsg> msgs) {
      records.insert(records.end(), msgs.begin(), msgs.end());
    });
    return records;
  }

  /// Builds the level's In_Table from this rank's records (src → dst, w),
  /// in arrival order: each record is appended to its target's row, then
  /// every row is merged by source, equal sources summed in arrival order.
  /// Derives the per-vertex arrays, the Out_Table layout and the
  /// community bookkeeping from the merged rows.
  void init_level_state(const std::vector<EdgeMsg>& records) {
    const int me = comm_.rank();
    const vid_t local_n = part_.local_count(me);
    std::vector<std::size_t> start(static_cast<std::size_t>(local_n) + 1, 0);
    for (const EdgeMsg& m : records) ++start[static_cast<std::size_t>(part_.to_local(m.dst)) + 1];
    std::partial_sum(start.begin(), start.end(), start.begin());
    in_.reset(start);
    for (const EdgeMsg& m : records) in_.append(part_.to_local(m.dst), m.src, m.w);

    strength_.assign(local_n, 0.0);
    self_loop_.assign(local_n, 0.0);
    label_.resize(local_n);
    best_.assign(local_n, kInvalidVid);
    left_.assign(local_n, kInvalidVid);
    gain_.assign(local_n, 0.0);
    stay_score_.assign(local_n, 0.0);
    comms_.reset(static_cast<std::size_t>(local_n) + 1);
    for (vid_t l = 0; l < local_n; ++l) {  // plv-lint: allow(refine-full-scan) -- level setup, runs once per level
      in_.merge_row(l);
      const vid_t u = part_.to_global(me, l);
      label_[l] = u;
      for (const RowStore::Entry& e : in_.row(l)) {
        strength_[l] += e.w;
        if (e.c == u) self_loop_[l] = e.w;
      }
      comms_.ref(u) = CommInfo{strength_[l], 0.0, 1};
      // start turns into the merged layout: in_ keeps its own copy.
      start[static_cast<std::size_t>(l) + 1] = start[l] + in_.row(l).size();
    }
    assert(in_.consistent());
    // The Out_Table's rows take the merged layout: a row holds at most one
    // entry per in-edge (DESIGN.md decision 5).
    out_.reset(start);

    moves_.clear();
    delta_since_full_ = 0;
    // What a full propagation costs, in records: one per In_Table entry,
    // summed over ranks. The per-iteration full-vs-delta decision compares
    // the (allreduced) delta records since the last full propagation
    // against this.
    full_prop_records_ = comm_.allreduce_sum(static_cast<std::uint64_t>(in_.size()));
    // A pinned (Session) frontier applies to the level it was seeded on;
    // coarser levels (and fresh inits) refine unrestricted. Active-vertex
    // scheduling, by contrast, re-arms on every level of at least
    // kMinPrunedLevel vertices: all vertices start schedulable, and the
    // first delta propagation shrinks the set to the disturbed region.
    pinned_ = false;
    restricted_ = false;
    prune_ = opts_.refine.active_scheduling && n_level_ >= kMinPrunedLevel;
    if (prune_) {
      active_.assign(local_n, 1);
    } else {
      active_.clear();
    }
  }

  [[nodiscard]] weight_t local_strength_sum() const noexcept {
    weight_t s = 0;
    for (weight_t k : strength_) s += k;
    return s;
  }

  // -- STATE PROPAGATION (Algorithm 3) --------------------------------------

  /// Full rebuild: empties the Out_Table and re-ships every in-edge under
  /// its current label: the level's opening propagation, and every later
  /// one refine's traffic rule calls for. Each record is appended to its
  /// row, and every row is merged once all have arrived. Re-derives the
  /// Σtot request bookkeeping from scratch and clears the floating-point
  /// dust the patches left in Out_Table entries on non-integer weights
  /// (Σtot itself stays delta-maintained for the whole level). The drain
  /// doubles as the Σin accumulation pass: a record (v, c, w) with
  /// label(v) == c is exactly a Σin contribution, so sin_acc_ is rebuilt
  /// from scratch here — fused into the receive loop instead of a
  /// separate pass over the rows.
  void state_propagation_full() {
    out_.clear();
    sin_acc_.reset(label_.size() + 1);
    const vid_t local_n = static_cast<vid_t>(label_.size());
    for (vid_t l = 0; l < local_n; ++l) {  // plv-lint: allow(refine-full-scan) -- a full propagation ships every in-edge; delta iterations ship only the movers'
      for (const RowStore::Entry& e : in_.row(l)) {
        prop_agg_.push(part_.owner(e.c), PropMsg{e.c, label_[l], e.w});
      }
    }
    prop_agg_.flush_all_final();
    comm_.drain_streaming_finalized<PropMsg>([&](int /*src*/,
                                                 std::span<const PropMsg> msgs) {
      for (const PropMsg& m : msgs) {
        const vid_t lv = part_.to_local(m.v);
        out_.append(lv, m.c, m.w);
        if (label_[lv] == m.c) sin_acc_.ref(m.c) += m.w;
      }
    });
    for (vid_t l = 0; l < local_n; ++l) out_.merge_row(l);  // plv-lint: allow(refine-full-scan) -- once per full propagation, which refills every row
    assert(out_.consistent());
    rebuild_sigma_requests();
    delta_since_full_ = 0;
    // A rebuild re-ships every row, so the pruned frontier's "nothing
    // changed near me" premise is void: reactivate the whole partition.
    // (Pinned Session frontiers are exempt — their restriction is the
    // caller's dirty-region contract, and the level's initial full
    // propagation must not clobber the seeds.)
    if (prune_ && !pinned_) {
      std::fill(active_.begin(), active_.end(), std::uint8_t{1});
      restricted_ = false;
    }
  }

  /// Incremental maintenance: ships one (retraction, assertion) pair per
  /// in-edge of each vertex that moved this iteration; receivers patch
  /// their rows in place (count-based erase-on-zero keeps each row as
  /// short as a rebuild would). Requires every rank to have taken the
  /// same full-vs-delta decision — see refine().
  void state_propagation_delta() {
    if (prune_) {
      // Next iteration's frontier: the vertices that moved this sweep plus
      // — via the patch drain below — everyone whose neighborhood those
      // moves changed. The wakeup deliberately rides the existing PropMsg
      // patch stream instead of a dedicated message kind: a patch to entry
      // (v, c) *is* the statement "a neighbor of v changed community", so
      // a separate wakeup channel would duplicate the same (v, source)
      // pairs byte for byte (DESIGN.md decision 15).
      restricted_ = true;
      std::fill(active_.begin(), active_.end(), std::uint8_t{0});
      for (const Move& mv : moves_) active_[mv.l] = 1;
    }
    for (const Move& mv : moves_) {
      assert(mv.from < kRetractBit && mv.to < kRetractBit);
      for (const RowStore::Entry& e : in_.row(mv.l)) {
        const int dest = part_.owner(e.c);
        prop_agg_.push(dest, PropMsg{e.c, mv.from | kRetractBit, e.w});
        prop_agg_.push(dest, PropMsg{e.c, mv.to, e.w});
      }
    }
    prop_agg_.flush_all_final();
    // Each patch also carries Σin forward: under the receiver's (already
    // post-move) labels, a patch to entry (v, c) shifts the community's
    // internal weight exactly when label(v) == c. Combined with the local
    // adjustments made at move time (update_communities), sin_acc_ lands
    // on the same value a fresh post-propagation scan would compute —
    // exactly, in integer-weight arithmetic; within one iteration's
    // rounding otherwise (FIND re-derives it from every vertex's own entry
    // next iteration, so the drift never compounds).
    comm_.drain_streaming_finalized<PropMsg>([&](int /*src*/,
                                                 std::span<const PropMsg> msgs) {
      for (const PropMsg& m : msgs) {
        const vid_t lv = part_.to_local(m.v);
        // A patched vertex just learned its surroundings changed — that is
        // the disturbed-vertex frontier growing (Lu & Halappanavar's
        // disturbance propagation): it may move from the next sweep on.
        if (restricted_) active_[lv] = 1;
        if ((m.c & kRetractBit) != 0) {
          const vid_t c = m.c & ~kRetractBit;
          if (out_.retract(lv, c, m.w)) ref_sub(c);
          if (label_[lv] == c) sin_acc_.ref(c) -= m.w;
        } else {
          if (out_.add(lv, m.c, m.w)) ref_add(m.c);
          if (label_[lv] == m.c) sin_acc_.ref(m.c) += m.w;
        }
      }
    });
    assert(out_.consistent());
  }

  // -- Σtot request bookkeeping ---------------------------------------------

  /// The FIND phase must fetch Σtot for every community this rank's
  /// Out_Table references plus every owned vertex's own community. Rather
  /// than re-collecting that set each iteration (a full table scan plus a
  /// sort), the engine keeps it persistent: comm_refs_ counts, per
  /// community id of the level (a dense array: every rank already holds
  /// O(n_level) labels at the level's end), the Out_Table entries naming
  /// it plus the owned vertices labeled with it; sigma_reqs_ holds the
  /// per-owner sorted request lists; refs_dirty_ logs communities whose
  /// count touched zero or left it, and apply_sigma_request_changes()
  /// folds the log in with one linear merge per affected owner.
  void ref_add(vid_t c) {
    if (++comm_refs_[c] == 1) refs_dirty_.push_back(c);
  }

  void ref_sub(vid_t c) {
    assert(comm_refs_[c] > 0);
    if (--comm_refs_[c] == 0) refs_dirty_.push_back(c);
  }

  /// Re-derives comm_refs_ and sigma_reqs_ from the freshly rebuilt
  /// Out_Table and current labels, and sizes the Σtot reply cache for
  /// the rebuilt request set. One ascending pass over the community ids
  /// fills the request lists already sorted. The request count mostly
  /// falls between rebuilds as communities merge, so that size is the
  /// cache's slack: the sweeps up to the next rebuild clear it in place
  /// instead of reallocating it each time the count crosses a power of
  /// two.
  void rebuild_sigma_requests() {
    comm_refs_.assign(n_level_, 0);
    const vid_t local_n = static_cast<vid_t>(label_.size());
    for (vid_t l = 0; l < local_n; ++l) {  // plv-lint: allow(refine-full-scan) -- runs once per full propagation, not per iteration
      for (const RowStore::Entry& e : out_.row(l)) ++comm_refs_[e.c];
    }
    for (vid_t c : label_) ++comm_refs_[c];
    for (auto& reqs : sigma_reqs_) reqs.clear();
    std::size_t requested = 0;
    for (vid_t c = 0; c < n_level_; ++c) {
      if (comm_refs_[c] == 0) continue;
      sigma_reqs_[static_cast<std::size_t>(part_.owner(c))].push_back(c);
      ++requested;
    }
    refs_dirty_.clear();
    sigma_cache_.reset(requested);
  }

  /// Folds the dirty log into the sorted request lists. A community is
  /// requested iff its reference count is positive *now* — entries that
  /// bounced through zero and back within one iteration net out here.
  void apply_sigma_request_changes() {
    if (refs_dirty_.empty()) return;
    std::sort(refs_dirty_.begin(), refs_dirty_.end());
    refs_dirty_.erase(std::unique(refs_dirty_.begin(), refs_dirty_.end()),
                      refs_dirty_.end());
    const std::size_t nranks = sigma_reqs_.size();
    std::vector<std::vector<vid_t>> add(nranks);
    std::vector<std::vector<vid_t>> del(nranks);
    for (vid_t c : refs_dirty_) {
      const bool needed = comm_refs_[c] > 0;
      const auto owner = static_cast<std::size_t>(part_.owner(c));
      const auto& reqs = sigma_reqs_[owner];
      const bool listed = std::binary_search(reqs.begin(), reqs.end(), c);
      if (needed && !listed) {
        add[owner].push_back(c);
      } else if (!needed && listed) {
        del[owner].push_back(c);
      }
    }
    refs_dirty_.clear();
    for (std::size_t r = 0; r < nranks; ++r) {
      if (add[r].empty() && del[r].empty()) continue;
      std::vector<vid_t> merged;  // add/del inherit the dirty log's order
      merged.reserve(sigma_reqs_[r].size() + add[r].size());
      std::size_t ai = 0;
      std::size_t di = 0;
      for (vid_t c : sigma_reqs_[r]) {
        while (ai < add[r].size() && add[r][ai] < c) merged.push_back(add[r][ai++]);
        if (di < del[r].size() && del[r][di] == c) {
          ++di;
          continue;
        }
        merged.push_back(c);
      }
      while (ai < add[r].size()) merged.push_back(add[r][ai++]);
      sigma_reqs_[r] = std::move(merged);
    }
  }

  // -- FIND BEST COMMUNITY (Algorithm 4 lines 6-9) --------------------------

  /// Fetches Σtot for every community referenced by this rank's Out_Table
  /// (request/reply to the owners, request lists maintained incrementally),
  /// then walks the rows ONCE to fill best_/gain_ per owned vertex.
  ///
  /// The request/reply rides the streaming plane: the Σtot requests are on
  /// the wire while this rank runs init_stay_scores (each vertex's own
  /// entry: the σ-independent half of the stay score, and the Σin
  /// pre-aggregation), and no collective rendezvous happens at all.
  ///
  /// Ties between equal-score candidates resolve to the smallest community
  /// id under exact comparison (Lu & Halappanavar's minimum-label rule),
  /// so the chosen target never depends on candidate enumeration order.
  void find_best_community() {
    apply_sigma_request_changes();
    const auto nranks = static_cast<std::size_t>(comm_.nranks());
    const vid_t local_n = static_cast<vid_t>(label_.size());

    // How many vertices this sweep actually considers for a move (the
    // scanned-vertices telemetry).
    if (restricted_) {
      std::uint64_t count = 0;
      for (std::uint8_t a : active_) count += a;
      scanned_ = count;
    } else {
      scanned_ = static_cast<std::uint64_t>(local_n);
    }

    if (req_in_.size() != nranks) req_in_.resize(nranks);
    for (auto& reqs : req_in_) reqs.clear();
    if (replies_.size() != nranks) replies_.resize(nranks);
    // Requests stream to the owners while we run the stay-score loop.
    comm_.exchange_streaming<vid_t>(
        sigma_reqs_,
        [&](int src, std::span<const vid_t> reqs) {
          auto& dst = req_in_[static_cast<std::size_t>(src)];
          dst.insert(dst.end(), reqs.begin(), reqs.end());
        },
        [this] { init_stay_scores(); });
    for (std::size_t r = 0; r < nranks; ++r) {
      auto& rep = replies_[r];
      rep.clear();
      rep.reserve(req_in_[r].size());
      for (vid_t c : req_in_[r]) {
        const CommInfo* info = comms_.find(c);
        rep.push_back(info == nullptr ? SigmaRep{0, 0}
                                      : SigmaRep{info->sigma_tot, info->members});
      }
    }
    sigma_cache_.clear();  // sized by rebuild_sigma_requests
    // Replies from owner r answer sigma_reqs_[r] in order; a per-source
    // cursor keeps the pairing correct across chunk boundaries.
    reply_cursor_.assign(nranks, 0);
    comm_.exchange_streaming<SigmaRep>(replies_, [&](int src,
                                                     std::span<const SigmaRep> vals) {
      const auto& reqs = sigma_reqs_[static_cast<std::size_t>(src)];
      auto& cur = reply_cursor_[static_cast<std::size_t>(src)];
      for (const SigmaRep& v : vals) {
        assert(cur < reqs.size());
        sigma_cache_.ref(reqs[cur++]) = v;
      }
    });

    // The join search. Comparing joins by (w_uc − γ·Σtot_c·k_u/2m) is
    // equivalent to comparing ΔQ (metrics/modularity.hpp); the stay score
    // (w_stay) − γ(σ − k)k/2m is the baseline, and the final gain is the
    // join-vs-stay difference rescaled to true ΔQ units.
    const double gamma = opts_.refine.resolution;
    for (vid_t l = 0; l < local_n; ++l) {  // plv-lint: allow(refine-full-scan) -- sequential bitmap sweep; the σ lookups and the row walk run for active vertices only
      // Frontier pruning (Sahu's unchanged-vertex idea): an undisturbed
      // vertex may not move this iteration, so its join search is skipped;
      // init_stay_scores left it best_ == label_ and gain 0.
      if (restricted_ && active_[l] == 0) continue;
      const vid_t cu = label_[l];
      const SigmaRep* own = sigma_cache_.find(cu);
      assert(own != nullptr);
      const double stay =
          stay_score_[l] - gamma * (own->sigma_tot - strength_[l]) * strength_[l] / two_m_;
      double best_score = stay;
      vid_t best = cu;
      for (const RowStore::Entry& e : out_.row(l)) {
        // No move straight back: the community this vertex left in the
        // previous iteration is not a candidate (DESIGN.md decision 3).
        if (e.c == cu || e.c == left_[l]) continue;
        const SigmaRep* target = sigma_cache_.find(e.c);
        assert(target != nullptr);
        // Singleton-swap guard (Lu et al. [11], cited by the paper): when a
        // lone vertex considers joining another singleton community, only
        // the smaller-labeled side may move. Without it, synchronous
        // updates let pairs of singletons swap communities within one
        // iteration — the oscillation Section III warns about. The left_
        // skip above covers the rest: it stops any vertex's return trip.
        if (target->members == 1 && own->members == 1 && e.c > cu) continue;
        const double score = e.w - gamma * target->sigma_tot * strength_[l] / two_m_;
        // Most candidates lose: [[unlikely]] keeps the losing path a
        // fall-through (about 5% of a whole LFR n=20000 solve, x86-64 GCC).
        if (score > best_score || (score == best_score && e.c < best)) [[unlikely]] {
          best_score = score;
          best = e.c;
        }
      }
      best_[l] = best;
      gain_[l] = best == cu ? 0.0 : 2.0 * (best_score - stay) / two_m_;
    }
  }

  /// Each vertex's own entry w_stay = Out[(u, cu)], read while the Σtot
  /// requests are on the wire: it re-derives the Σin pre-aggregation for
  /// every vertex, active or not, and gives the σ-independent half of the
  /// stay score (w_stay − self loop). Also resets best_/gain_, so a vertex
  /// the join search skips stays put.
  /// Kept out of line on purpose: inlined into its one caller, the
  /// exchange_streaming instantiation, the loop made a whole LFR n=20000
  /// solve about 4% slower (x86-64, GCC, Release).
  [[gnu::noinline]] void init_stay_scores() {
    sin_acc_.reset(label_.size() + 1);
    const vid_t local_n = static_cast<vid_t>(label_.size());
    for (vid_t l = 0; l < local_n; ++l) {  // plv-lint: allow(refine-full-scan) -- Σin needs every vertex's own entry; best_/gain_ reset must cover every vertex
      const vid_t cu = label_[l];
      best_[l] = cu;
      gain_[l] = 0.0;
      const RowStore::Entry* own = out_.find(l, cu);
      if (own != nullptr) sin_acc_.ref(cu) += own->w;
      stay_score_[l] = (own == nullptr ? 0.0 : own->w) - self_loop_[l];
    }
  }

  // -- threshold selection (Section IV-B) -----------------------------------

  /// Translates ε(iter) into the global gain cutoff ΔQ̂ via an allreduced
  /// histogram of positive gains. A single pass over gain_ collects the
  /// positive values (into a persistent buffer) together with the local
  /// max, so the histogram fill re-reads a compact array instead of
  /// walking the full gain vector a second time; the histogram and the
  /// reduction scratch are persistent too — no steady-state allocation.
  [[nodiscard]] double gain_cutoff(int iter, double& eps_out) {
    const RefinePlan& plan = opts_.refine;
    const double eps = epsilon_of(plan.threshold, plan.p1, plan.p2, iter);
    eps_out = eps;
    double local_max = 0.0;
    pos_gains_.clear();
    for (double g : gain_) {
      if (g > 0.0) {
        local_max = std::max(local_max, g);
        pos_gains_.push_back(g);
      }
    }
    struct MaxCount {
      double max;
      std::uint64_t count;
    };
    const auto agg = comm_.allreduce(
        MaxCount{local_max, pos_gains_.size()}, [](const MaxCount& a, const MaxCount& b) {
          return MaxCount{a.max < b.max ? b.max : a.max, a.count + b.count};
        });
    if (agg.count == 0 || agg.max <= 0.0) return -1.0;  // signals "no mover"
    if (eps >= 1.0) return 0.0;                         // all positive gains move

    hist_.reset(0.0, agg.max, kGainHistogramBins);
    for (double g : pos_gains_) hist_.add(g);
    comm_.allreduce_vec_sum(hist_.counts(), hist_scratch_);

    // ε is a fraction of *all* level vertices (the paper sorts ΔQ_u over
    // V); convert to a fraction of the positive-gain population.
    const double budget = eps * static_cast<double>(n_level_);
    const double frac = std::min(1.0, budget / static_cast<double>(agg.count));
    return hist_.top_fraction_cutoff(frac);
  }

  // -- UPDATE COMMUNITY INFORMATION (Algorithm 4 lines 13-15) ---------------

  /// Moves every owned vertex whose gain clears the cutoff; ships Σtot and
  /// member-count deltas to the community owners; records the move list
  /// the delta propagation would replay. Returns the global tally, which
  /// piggybacks on the delta exchange itself: every rank appends one
  /// sentinel (c == kInvalidVid) per peer with its local counts, and the
  /// ordered drain sums them — no separate allreduce round. Both counts
  /// are integers, exact in a double far beyond any reachable size.
  ///
  /// Each move also carries the local Σin pre-aggregation forward: entry
  /// (u, from) stops counting toward Σin(from) and entry (u, to) starts
  /// counting toward Σin(to) — both against the *pre-propagation* rows
  /// FIND just read; the propagation drain patches in the edge
  /// re-pointing afterwards (see state_propagation_delta).
  [[nodiscard]] MoveTally update_communities(double cutoff) {
    delta_out_.resize(static_cast<std::size_t>(comm_.nranks()));
    for (auto& dest : delta_out_) dest.clear();
    auto& deltas = delta_out_;
    MoveTally local;
    moves_.clear();
    if (cutoff >= 0.0) {
      const vid_t local_n = static_cast<vid_t>(label_.size());
      for (vid_t l = 0; l < local_n; ++l) {  // plv-lint: allow(refine-full-scan) -- gain_ is dense; pruned vertices hold gain 0 and fall to the first branch
        const vid_t from = label_[l];
        const vid_t to = best_[l];
        // left_ names the community each vertex left in *this* iteration,
        // which the next FIND may not offer it.
        if (gain_[l] <= 0.0 || gain_[l] < cutoff || from == to) {
          left_[l] = kInvalidVid;
          continue;
        }
        left_[l] = from;
        label_[l] = to;
        moves_.push_back(Move{l, from, to});
        ref_sub(from);
        ref_add(to);
        const RowStore::Entry* from_entry = out_.find(l, from);
        const RowStore::Entry* to_entry = out_.find(l, to);
        sin_acc_.ref(from) -= from_entry == nullptr ? 0.0 : from_entry->w;
        sin_acc_.ref(to) += to_entry == nullptr ? 0.0 : to_entry->w;
        deltas[static_cast<std::size_t>(part_.owner(from))].push_back(
            DeltaMsg{from, -1, -strength_[l]});
        deltas[static_cast<std::size_t>(part_.owner(to))].push_back(
            DeltaMsg{to, +1, strength_[l]});
        ++local.moves;
        local.delta_records += 2 * in_.row(l).size();
      }
    }
    for (auto& dest : deltas) {
      dest.push_back(DeltaMsg{kInvalidVid, static_cast<std::int32_t>(local.moves),
                              static_cast<weight_t>(local.delta_records)});
    }
    MoveTally global;
    comm_.exchange_streaming<DeltaMsg>(
        deltas, [&](int /*src*/, std::span<const DeltaMsg> msgs) {
          for (const DeltaMsg& d : msgs) {
            if (d.c == kInvalidVid) {
              global.moves += static_cast<std::uint64_t>(d.dcount);
              global.delta_records += static_cast<std::uint64_t>(d.dtot);
              continue;
            }
            CommInfo& info = comms_.ref(d.c);
            info.sigma_tot += d.dtot;
            info.members += d.dcount;
          }
        });
    return global;
  }

  // -- Σin + modularity (Algorithm 4 lines 18-25) ----------------------------

  /// Ships the local Σin pre-aggregation (sin_acc_, re-derived by FIND's
  /// init_stay_scores and carried forward by the move-time adjustments
  /// and propagation-drain patches) to the community owners. Local
  /// pre-aggregation keeps message volume at one record per (rank,
  /// community) pair.
  void exchange_sigma_in() {
    comms_.for_each([](vid_t, CommInfo& info) { info.sigma_in = 0.0; });
    sin_out_.resize(static_cast<std::size_t>(comm_.nranks()));
    for (auto& dest : sin_out_) dest.clear();
    sin_acc_.for_each([&](vid_t c, weight_t& w) {
      sin_out_[static_cast<std::size_t>(part_.owner(c))].push_back(SinMsg{c, 0, w});
    });
    comm_.exchange_streaming<SinMsg>(
        sin_out_, [&](int /*src*/, std::span<const SinMsg> msgs) {
          for (const SinMsg& m : msgs) comms_.ref(m.c).sigma_in += m.w;
        });
  }

  /// One rank's sums over its owned communities: the modularity
  /// contribution, and the Σtot and member totals of the conservation
  /// check.
  struct CommunitySums {
    double q{0.0};
    double sigma_tot{0.0};
    std::int64_t members{0};
  };

  /// This rank's CommunitySums, in one pass over the owned communities;
  /// the caller reduces them — standalone or merged with other
  /// per-iteration scalars into one combined allreduce (see refine).
  [[nodiscard]] CommunitySums local_modularity() const {
    CommunitySums sums;
    comms_.for_each([&](vid_t, const CommInfo& info) {
      sums.sigma_tot += info.sigma_tot;
      sums.members += info.members;
      if (info.members <= 0) return;
      const double tot = info.sigma_tot / two_m_;
      sums.q += info.sigma_in / two_m_ - opts_.refine.resolution * tot * tot;
    });
    return sums;
  }

  /// Conservation check, every iteration in every build: the Σtot of all
  /// communities must sum to 2m, and their member counts to n_level
  /// exactly. A move or propagation that loses or duplicates a vertex's
  /// weight fails the run here instead of skewing Q.
  void check_conservation(int iter, const CommunitySums& global) const {
    const auto n = static_cast<std::int64_t>(n_level_);
    if (std::abs(global.sigma_tot - two_m_) <= kConservationTolerance * two_m_ &&
        global.members == n) {
      return;
    }
    char text[320];
    std::snprintf(text, sizeof(text),
                  "louvain: conservation broken at level %d, iteration %d: sigma_tot sums "
                  "to %.17g against 2m = %.17g, members sum to %lld against n_level = "
                  "%lld",
                  level_index_, iter, global.sigma_tot, two_m_,
                  static_cast<long long>(global.members), static_cast<long long>(n));
    throw std::logic_error(text);
  }

  // -- REFINE (Algorithm 4) ---------------------------------------------------

  /// Per-level convergence tolerance under threshold scaling: level L
  /// refines against max(q_tolerance, initial_tolerance / decay^L), so the
  /// coarse early levels converge in fewer sweeps and the cascade tightens
  /// geometrically toward the final tolerance (Sahu's threshold scaling).
  /// With initial_tolerance = 0 (default) this is exactly q_tolerance.
  [[nodiscard]] double level_tolerance() const {
    const RefinePlan& plan = opts_.refine;
    if (!(plan.initial_tolerance > 0.0)) return plan.q_tolerance;
    const double scaled = plan.initial_tolerance /
                          std::pow(plan.tolerance_decay, static_cast<double>(level_index_));
    return std::max(plan.q_tolerance, scaled);
  }

  /// Runs the level's inner loop and returns the Q of the labels it ends
  /// on. Two rules keep synchronous moves from settling into period-2
  /// limit cycles (DESIGN.md decision 3): FIND never offers a vertex the
  /// community it left the iteration before (left_), and an iteration
  /// counts as stagnant unless it beats the level's best Q so far by the
  /// tolerance — a cycle's alternating Q never fills a window measured
  /// against the previous iteration.
  double refine(LouvainLevel& level, double q_initial) {
    double prev_q = q_initial;
    double best_q = q_initial;
    int stagnant = 0;
    level_moves_ = 0;
    const double level_tol = level_tolerance();
    // The same scaled tolerance also floors the histogram cutoff: a move
    // must clear its per-vertex share of the level tolerance, so
    // sub-tolerance shuffling can't keep coarse levels iterating. 0 when
    // scaling is off — the cutoff is then exactly the histogram's.
    const double gain_floor =
        opts_.refine.initial_tolerance > 0.0 && n_level_ > 0
            ? level_tol / static_cast<double>(n_level_)
            : 0.0;
    // The retraction encoding borrows PropMsg::c's top bit, so the delta
    // path needs community ids below 2^31 — always true for vid_t levels
    // in practice, but guard anyway so correctness never hinges on it.
    const bool delta_possible = n_level_ < kRetractBit;
    for (int iter = 1; iter <= opts_.refine.max_inner_iterations; ++iter) {
      WallTimer t;
      find_best_community();
      const std::uint64_t scanned_local = scanned_;
      const double find_s = t.seconds();
      timers_.add(phase::kFindBestCommunity, find_s);

      double eps = 1.0;
      double cutoff = gain_cutoff(iter, eps);
      // Same allreduced inputs on every rank, so the floored cutoff is
      // globally consistent; -1 (no mover anywhere) passes through.
      if (cutoff >= 0.0 && gain_floor > cutoff) cutoff = gain_floor;

      t.reset();
      const MoveTally moved = update_communities(cutoff);
      level_moves_ += moved.moves;
      const double update_s = t.seconds();
      timers_.add(phase::kUpdateCommunity, update_s);

      // Full-vs-delta is a *global* decision (receivers must know whether
      // to refill the Out_Table), taken from allreduced counts so every rank
      // picks the same branch. One rule: rebuild once the delta records
      // shipped since the level's last full propagation, plus this
      // iteration's, would reach what a full propagation ships. A single
      // delta as large as a rebuild therefore rebuilds, and at most one
      // full propagation's worth of patches (with their floating-point
      // drift on fractional weights) piles up between rebuilds (DESIGN.md
      // decision 8). A pinned (Session) frontier always ships deltas: a
      // rebuild costs O(|In_Table|) — the cold-start term the dirty-region
      // re-refine exists to avoid — and only the patches grow the
      // disturbed set. The flag is command-driven, identical on every rank.
      const bool full =
          !delta_possible ||
          (!pinned_ && delta_since_full_ + moved.delta_records >= full_prop_records_);
      t.reset();
      const std::uint64_t sent_before = comm_.stats().records_sent;
      if (full) {
        state_propagation_full();  // resets delta_since_full_
      } else {
        delta_since_full_ += moved.delta_records;
        state_propagation_delta();
      }
      const std::uint64_t prop_sent = comm_.stats().records_sent - sent_before;
      const double prop_s = t.seconds();
      timers_.add(phase::kStatePropagation, prop_s);

      exchange_sigma_in();
      // One combined reduction closes the iteration: modularity, the
      // conservation sums and the trace's propagation + scan volumes
      // share a single collective round. The q sum visits ranks in
      // ascending order, exactly like allreduce_sum.
      struct IterStats {
        CommunitySums sums;
        std::uint64_t prop_sent;
        std::uint64_t scanned;
      };
      const auto stats = comm_.allreduce(
          IterStats{local_modularity(), prop_sent, scanned_local},
          [](const IterStats& a, const IterStats& b) {
            return IterStats{{a.sums.q + b.sums.q, a.sums.sigma_tot + b.sums.sigma_tot,
                              a.sums.members + b.sums.members},
                             a.prop_sent + b.prop_sent,
                             a.scanned + b.scanned};
          });
      check_conservation(iter, stats.sums);
      const double q = stats.sums.q;
      level.trace.iterations = iter;
      level.trace.moved_fraction.push_back(static_cast<double>(moved.moves) /
                                           static_cast<double>(n_level_));
      level.trace.modularity.push_back(q);
      level.trace.epsilon.push_back(eps);
      level.trace.gain_cutoff.push_back(cutoff);
      level.trace.find_seconds.push_back(find_s);
      level.trace.update_seconds.push_back(update_s);
      level.trace.prop_seconds.push_back(prop_s);
      level.trace.prop_records.push_back(stats.prop_sent);
      level.trace.scanned_vertices.push_back(stats.scanned);

      // One stagnant iteration can just mean a low-ε round; require a
      // window of them (all ranks see the same global q/moves, so the
      // decision is uniform). Under threshold scaling the window tests the
      // level's scaled tolerance instead of the final one.
      stagnant = q - best_q < level_tol ? stagnant + 1 : 0;
      best_q = std::max(best_q, q);
      prev_q = q;  // report the Q of the labels we actually hold
      if (moved.moves == 0) {
        level.trace.stop = cutoff < 0.0 ? LevelStop::kNoPositiveGain : LevelStop::kNoMoves;
        break;
      }
      if (stagnant >= kStagnationWindow) {
        level.trace.stop = LevelStop::kStagnation;
        break;
      }
    }
    return prev_q;
  }

  // -- GRAPH RECONSTRUCTION (Algorithm 5) -------------------------------------

  /// Sorted global list of communities that still have members.
  [[nodiscard]] std::vector<vid_t> gather_surviving_communities() {
    std::vector<vid_t> mine;
    comms_.for_each([&](vid_t c, const CommInfo& info) {
      if (info.members > 0) mine.push_back(c);
    });
    std::sort(mine.begin(), mine.end());
    std::vector<vid_t> all = comm_.allgatherv(mine);
    std::sort(all.begin(), all.end());
    return all;
  }

  /// Full label vector of this level (dense community ids), identical on
  /// every rank.
  [[nodiscard]] std::vector<vid_t> gather_level_labels(const FlatMap<vid_t>& dense) {
    std::vector<LabelPair> mine;
    mine.reserve(label_.size());
    for (vid_t l = 0; l < static_cast<vid_t>(label_.size()); ++l) {
      const vid_t* c = dense.find(label_[l]);
      assert(c != nullptr);
      mine.push_back(LabelPair{part_.to_global(comm_.rank(), l), *c});
    }
    const std::vector<LabelPair> all = comm_.allgatherv(mine);
    std::vector<vid_t> labels(n_level_, 0);
    for (const LabelPair& p : all) labels[p.v] = p.c;
    return labels;
  }

  /// Rewrites the Out_Table into the next level's In_Table (all-to-all) and
  /// re-derives the level state: equal (source, target) community pairs
  /// merge into one entry of the target's row.
  void graph_reconstruction(const FlatMap<vid_t>& dense, vid_t next_n) {
    graph::Partition1D next_part(next_n, comm_.nranks());

    pml::Aggregator<EdgeMsg> agg(comm_);
    const vid_t local_n = static_cast<vid_t>(label_.size());
    for (vid_t l = 0; l < local_n; ++l) {  // plv-lint: allow(refine-full-scan) -- reconstruction, runs once per level
      const vid_t* src = dense.find(label_[l]);
      assert(src != nullptr);
      for (const RowStore::Entry& e : out_.row(l)) {
        const vid_t* dst = dense.find(e.c);
        assert(dst != nullptr);
        agg.push(next_part.owner(*dst), EdgeMsg{*src, *dst, e.w});
      }
    }
    agg.flush_all_final();
    // Ordered streaming drain: chunks are consumed as they arrive but
    // applied in ascending source-rank order, so equal pairs sum in an
    // order independent of arrival timing (and identical across
    // transports).
    const std::vector<EdgeMsg> records = drain_records();
    part_ = next_part;
    n_level_ = next_n;
    ++level_index_;  // the next refine round runs one tolerance step tighter
    init_level_state(records);
  }

  // -- members ---------------------------------------------------------------

  pml::Comm& comm_;
  const ParOptions& opts_;
  graph::Partition1D part_;
  vid_t n_level_{0};
  weight_t two_m_{0};

  RowStore in_;   // the In_Table: row l holds the in-edges (source, w) of l
  RowStore out_;  // the Out_Table: row l holds l's weight into each community

  // Per owned vertex (local index):
  std::vector<weight_t> strength_;
  std::vector<weight_t> self_loop_;
  std::vector<vid_t> label_;
  std::vector<vid_t> best_;
  std::vector<vid_t> left_;  // community left in the previous iteration, or kInvalidVid
  std::vector<double> gain_;
  std::vector<double> stay_score_;

  // Moves of the current iteration, replayed by the delta propagation.
  std::vector<Move> moves_;
  // Records a full propagation ships, and the delta records shipped since
  // the level's last one; both global, so identical on every rank.
  std::uint64_t full_prop_records_{0};
  std::uint64_t delta_since_full_{0};

  // Shared frontier infrastructure. While restricted_ is on, only vertices
  // with a set active_ bit may move, and the delta-propagation drain sets
  // the bit of every patched vertex (the neighbor wakeup). Two producers
  // feed it: the pinned Session frontier (pinned_; seeded from changed
  // edges, forces the delta path, level 0 only) and active-vertex
  // scheduling (prune_; every level, the set re-derives each delta
  // iteration as movers ∪ patched and a full rebuild reactivates all).
  // level_moves_ is the current level's global move count;
  // scanned_ counts the vertices whose join search the last FIND actually
  // ran.
  bool pinned_{false};
  bool restricted_{false};
  bool prune_{false};
  std::vector<std::uint8_t> active_;
  std::uint64_t level_moves_{0};
  std::uint64_t scanned_{0};
  // Level counter for threshold scaling: 0 on every fresh ingestion,
  // incremented by each reconstruction.
  int level_index_{0};

  // Persistent propagation aggregator: its per-destination chunks are
  // reacquired from the pool across iterations and levels instead of
  // being re-set-up per phase.
  pml::Aggregator<PropMsg> prop_agg_;

  FlatMap<CommInfo> comms_;        // owned communities
  FlatMap<SigmaRep> sigma_cache_;  // fetched Σtot + members
  FlatMap<weight_t> sin_acc_;      // Σin pre-aggregation, carried forward

  // Σtot request bookkeeping (see the comment block above ref_add).
  std::vector<std::uint32_t> comm_refs_;
  std::vector<std::vector<vid_t>> sigma_reqs_;
  std::vector<vid_t> refs_dirty_;

  // Persistent per-iteration scratch (steady state allocates nothing):
  // the positive-gain compaction, the gain histogram + its reduction
  // scratch, and the streaming Σtot request/reply staging.
  std::vector<double> pos_gains_;
  Histogram hist_{0.0, 0.0, 1};
  std::vector<std::uint64_t> hist_scratch_;
  std::vector<std::vector<vid_t>> req_in_;
  std::vector<std::vector<SigmaRep>> replies_;
  std::vector<std::size_t> reply_cursor_;
  std::vector<std::vector<SinMsg>> sin_out_;
  std::vector<std::vector<DeltaMsg>> delta_out_;

  PhaseTimers timers_;
};

// ---------------------------------------------------------------------------
// Vertex-following (RefinePlan::vertex_following): fold every vertex with
// exactly one distinct neighbor onto that neighbor before the fleet runs,
// then hand it the anchor's final community afterwards. A degree-1 vertex
// always sits in its unique neighbor's community in an optimal partition
// (detaching it can only lose its edge's internal weight), so the refine
// sweeps need never consider it.
// ---------------------------------------------------------------------------

struct FoldPlan {
  /// anchor[v] == kInvalidVid when v keeps its place; otherwise v was
  /// folded and follows anchor[v]'s final community.
  std::vector<vid_t> anchor;
  graph::EdgeList edges;  // the folded list the fleet actually runs on
  bool any{false};
};

/// Decides the fold in ONE pass over the original degrees — folding is
/// deliberately not iterated: peeling a path end-to-end would glue whole
/// chains into one community (a 4-chain's optimum is two pairs, not one
/// quad). A leaf's edge turns into an anchor self-loop of the same weight,
/// which preserves every vertex strength, Σin, and 2m, so the folded
/// graph's modularity equals the original's under the unfolded labels; the
/// leaf itself survives as an isolated zero-strength singleton no sweep
/// revisits. Mutual leaf pairs fold the larger id onto the smaller, and an
/// anchor is never itself folded (a vertex with a folded-away neighbor has
/// either only that neighbor — the mutual case — or at least two distinct
/// neighbors), so the unfold is single-step.
///
/// A leaf carrying a self-loop is NOT folded. The always-join guarantee
/// is ΔQ = (w/m)·(1 − Σtot(u)/2m) > 0 for a leaf whose strength is its
/// one edge; a self-loop inflates the leaf's strength (the Σtot penalty
/// of joining) while the attachment gain stays w, so staying singleton
/// can be optimal — e.g. a self-looped pendant on a tight cycle.
FoldPlan plan_vertex_following(const graph::EdgeList& edges, vid_t n) {
  FoldPlan plan;
  plan.anchor.assign(n, kInvalidVid);
  std::vector<vid_t> nbr(n, kInvalidVid);
  std::vector<std::uint8_t> multi(n, 0);
  std::vector<std::uint8_t> loop(n, 0);
  for (const Edge& e : edges) {
    if (e.u == e.v) {  // a self-loop is not a neighbor, but bars folding
      loop[e.u] = 1;
      continue;
    }
    const auto touch = [&](vid_t a, vid_t b) {
      if (nbr[a] == kInvalidVid) {
        nbr[a] = b;
      } else if (nbr[a] != b) {
        multi[a] = 1;
      }
    };
    touch(e.u, e.v);
    touch(e.v, e.u);
  }
  for (vid_t v = 0; v < n; ++v) {
    if (nbr[v] == kInvalidVid || multi[v] != 0 || loop[v] != 0) continue;
    const vid_t u = nbr[v];
    const bool mutual = nbr[u] == v && multi[u] == 0 && loop[u] == 0;
    if (mutual && v < u) continue;  // the smaller id of a leaf pair anchors
    plan.anchor[v] = u;
    plan.any = true;
  }
  if (!plan.any) return plan;
  for (const Edge& e : edges) {
    const vid_t u = plan.anchor[e.u] != kInvalidVid ? plan.anchor[e.u] : e.u;
    const vid_t v = plan.anchor[e.v] != kInvalidVid ? plan.anchor[e.v] : e.v;
    plan.edges.add(u, v, e.w);
  }
  return plan;
}

/// Rewrites the fleet's result for the original graph: every folded vertex
/// takes its anchor's community in the final labels and in the level-0
/// label vector. The folded singletons' ghost communities become empty;
/// their dense ids stay in the id space (num_communities is the id-space
/// size, so the labels < num_communities invariant holds) and
/// Hierarchy::tree drops the now-empty nodes. The reported modularity
/// needs no correction — the fold preserves it exactly (see
/// plan_vertex_following).
void unfold_vertex_following(const FoldPlan& plan, ParResult& result) {
  if (!plan.any || result.levels.empty()) return;
  auto& l0 = result.levels.front();
  for (vid_t v = 0; v < static_cast<vid_t>(plan.anchor.size()); ++v) {
    const vid_t a = plan.anchor[v];
    if (a == kInvalidVid) continue;
    result.final_labels[v] = result.final_labels[a];
    l0.labels[v] = l0.labels[a];
  }
}

/// Shared post-ingestion driver: runs the level loop on an initialized
/// engine and assembles the (rank-identical) result.
ParResult run_levels(pml::Comm& comm, RankEngine& engine, vid_t n, const ParOptions& opts,
                     WallTimer& busy) {
  ParResult result;
  result.transport = comm.transport_name();
  result.final_labels.resize(n);
  if (engine.two_m() <= 0) {
    // Weightless graph: every vertex is its own community, Q = 0 by
    // convention (Eq. 3 is undefined at m = 0). Avoids NaNs downstream.
    std::iota(result.final_labels.begin(), result.final_labels.end(), vid_t{0});
    result.rank_seconds = comm.allgather(busy.seconds());
    return result;
  }
  std::iota(result.final_labels.begin(), result.final_labels.end(), vid_t{0});

  // All TrafficStats fields reduce together in one collective round
  // (they used to be five separate allreduces of skew per level).
  const auto sum_traffic = [&comm](const TrafficStats& local) {
    return comm.allreduce(local, [](const TrafficStats& a, const TrafficStats& b) {
      TrafficStats sum = a;
      sum += b;
      return sum;
    });
  };

  double prev_q = -2.0;  // below any attainable modularity
  for (int level_idx = 0; level_idx < opts.refine.max_levels; ++level_idx) {
    bool compressed = false;
    const TrafficStats level_start = comm.stats();
    LouvainLevel level = engine.run_level(compressed);
    // Per-level communication volume: this rank's delta over the level,
    // summed across ranks. (The reduction below counts toward the *next*
    // level's delta — one rank-identical collective of skew.)
    level.traffic = sum_traffic(traffic_delta(comm.stats(), level_start));

    const bool improved = level.modularity - prev_q >= opts.refine.q_tolerance;
    if (!improved && level_idx > 0) break;

    for (vid_t v = 0; v < n; ++v) {
      result.final_labels[v] = level.labels[result.final_labels[v]];
    }
    prev_q = level.modularity;
    result.final_modularity = level.modularity;
    result.levels.push_back(std::move(level));
    if (!compressed) break;
    // A frontier run whose disturbed region never produced a move stops
    // after level 0 instead of re-walking the whole hierarchy; run_level
    // already skipped the reconstruction nothing would read.
    if (engine.frontier_stalled()) break;
  }

  // Aggregate telemetry. Phase timers reduce by max over ranks (the
  // critical path); traffic sums; wall time gathers per rank.
  PhaseTimers reduced;
  for (const auto& [name, secs] : engine.timers().items()) {
    reduced.add(name, comm.allreduce_max(secs));
  }
  result.timers = reduced;

  result.traffic = sum_traffic(comm.stats());
  result.rank_seconds = comm.allgather(busy.seconds());
  return result;
}

}  // namespace

// ---------------------------------------------------------------------------
// One-shot launch bodies behind the plv::louvain front door.
// ---------------------------------------------------------------------------

/// The one launch body of a one-shot run, for validated options: resolves
/// the transport, builds each rank's level 0 with `ingest`, runs the level
/// loop, and returns rank 0's result (every rank's is the same). n = 0
/// returns an empty result named for the resolved transport without
/// starting a fleet.
static ParResult launch_one_shot(
    vid_t n, const ParOptions& opts,
    const std::function<void(pml::Comm&, RankEngine&)>& ingest) {
  const pml::TransportKind kind = pml::resolve_transport(opts.transport);
  // Rank 0 (a fleet thread under every transport) hands its result across
  // to the launching thread; the guarded slot names that edge even
  // though Runtime::run's join already orders it.
  struct {
    plv::Mutex mu;
    ParResult value PLV_GUARDED_BY(mu);
  } result;
  {
    plv::MutexLock lock(result.mu);
    result.value.transport = pml::transport_kind_name(kind);
    if (n == 0) return std::move(result.value);
  }
  pml::Runtime::run(
      opts.nranks,
      [&](pml::Comm& comm) {
        WallTimer busy;
        RankEngine engine(comm, opts);
        ingest(comm, engine);
        ParResult local = run_levels(comm, engine, n, opts, busy);
        if (comm.rank() == 0) {
          plv::MutexLock lock(result.mu);
          result.value = std::move(local);
        }
      },
      kind, pml::resolve_validate(opts.validate_transport), opts.tcp_options(),
      opts.hybrid_options());
  plv::MutexLock lock(result.mu);
  return std::move(result.value);
}

/// A one-shot run over an in-memory edge list, cold or (with `warm`)
/// warm-started. Vertex-following is a whole-graph preprocessing pass, so
/// it lives on the launch side: the fleet runs the folded list (against
/// the original vertex count — folded vertices stay as isolated
/// singletons, keeping ids and ownership stable) and the unfold rewrites
/// the result after the ranks have joined.
static ParResult edges_impl(const graph::EdgeList& edges, vid_t n_vertices,
                            const std::vector<vid_t>* warm, const ParOptions& opts) {
  const vid_t n = std::max(n_vertices, edges.vertex_count());
  // Seeds taken before an EdgeDelta stay usable after it: vertices the
  // seed does not cover and labels referencing vanished vertices become
  // singletons instead of rejecting the whole seed.
  std::vector<vid_t> labels;
  if (warm != nullptr) labels = normalize_warm_labels(*warm, n);
  FoldPlan fold;
  const graph::EdgeList* run_edges = &edges;
  if (opts.refine.vertex_following && n > 0) {
    fold = plan_vertex_following(edges, n);
    if (fold.any) {
      run_edges = &fold.edges;
      // A folded vertex is an isolated ghost inside the fleet; seeding it
      // into a real community would inflate that community's member count
      // (which the singleton-swap guard consults), so its warm label
      // resets to self. The unfold reattaches it regardless of the seed.
      for (vid_t v = 0; v < static_cast<vid_t>(labels.size()); ++v) {
        if (fold.anchor[v] != kInvalidVid) labels[v] = v;
      }
    }
  }
  ParResult result = launch_one_shot(n, opts, [&](pml::Comm&, RankEngine& engine) {
    engine.init_from_edges(*run_edges, n);
    if (warm != nullptr) engine.warm_start(labels);
  });
  unfold_vertex_following(fold, result);
  return result;
}

// ---------------------------------------------------------------------------
// The resident fleet body behind plv::Session (core/session.hpp). Every
// rank holds a patchable replica of the evolving edge list and builds
// level 0 from it on each apply; rank 0 — which every transport runs
// inside the calling process — doubles as the command pump.
// ---------------------------------------------------------------------------

namespace detail {

namespace {

/// Fixed-size header of one broadcast fleet command.
struct WireCmd {
  std::uint32_t kind{0};
  vid_t n_floor{0};
  std::uint64_t seq{0};
};

/// Rank-0-sourced broadcast built from the one collective every transport
/// shares: peers contribute nothing, so the allgatherv concatenation *is*
/// rank 0's payload. Peers park here between batches — the fleet stays
/// warm with no polling on any transport.
template <typename T>
std::vector<T> bcast_from_root(pml::Comm& comm, std::vector<T> payload) {
  if (comm.rank() != 0) payload.clear();
  return comm.allgatherv(payload);
}

}  // namespace

void session_rank_body(pml::Comm& comm, SessionShared& shared) {
  const ParOptions& opts = shared.opts;
  const int me = comm.rank();
  const int nranks = comm.nranks();

  // ---- Resident per-rank state. ----
  graph::EdgeList edges;
  if (shared.init_stream != nullptr) {
    // Gather the stream's slices once: unlike one-shot streamed ingestion,
    // a Session patches its replica in place across batches, so every rank
    // must hold the materialized list.
    const graph::EdgeList slice = (*shared.init_stream)(me, nranks);
    require_valid_edges(slice, "Session");
    const std::vector<Edge> mine(slice.begin(), slice.end());
    for (const Edge& e : comm.allgatherv(mine)) edges.add(e.u, e.v, e.w);
  } else {
    edges = shared.init_edges;
  }
  vid_t n = std::max(shared.init_n, edges.vertex_count());
  std::vector<vid_t> labels;  // latest full label vector (every rank)
  int batches_since_cold = 0;

  // One detection pass: a fresh engine builds level 0 from the replica
  // through the same init_from_edges a one-shot run uses, so a cold apply
  // is bit-identical to plv::louvain on the updated list, and an
  // incremental one differs only in its warm seed and frontier.
  const auto detect = [&](const std::vector<vid_t>* warm,
                          const std::vector<vid_t>* frontier_seeds) {
    WallTimer busy;
    RankEngine engine(comm, opts);
    engine.init_from_edges(edges, n);
    if (warm != nullptr) engine.warm_start(*warm);
    if (frontier_seeds != nullptr) engine.enable_frontier(*frontier_seeds);
    return run_levels(comm, engine, n, opts, busy);
  };

  const auto publish = [&](std::uint64_t seq, const ParResult& r, bool incremental) {
    labels = r.final_labels;
    if (me != 0) return;
    auto snap = std::make_shared<LabelSnapshot>();
    snap->epoch = seq;
    snap->n_vertices = n;
    snap->num_communities =
        r.levels.empty() ? static_cast<std::size_t>(n) : r.levels.back().num_communities;
    snap->modularity = r.final_modularity;
    snap->incremental = incremental;
    snap->labels = r.final_labels;
    {
      // Publish side of the snapshot contract (see SessionShared::snap):
      // the fully built snapshot is swapped in and the epoch bumped under
      // `mu`; the unlock is the release edge readers pair with.
      plv::MutexLock lock(shared.mu);
      shared.snap = std::move(snap);
      shared.completed = seq;
    }
    shared.cv.notify_all();
  };

  // ---- Epoch 0: the initial full run. ----
  {
    std::vector<vid_t> warm;
    const std::vector<vid_t>* seed = nullptr;
    if (!shared.init_labels.empty()) {
      warm = normalize_warm_labels(shared.init_labels, n);
      seed = &warm;
    }
    publish(0, detect(seed, nullptr), false);
  }

  // ---- The command pump. Only rank 0 (same process as the Session
  // handle on every transport) touches the shared queue; peers learn each
  // command through the broadcast. ----
  for (;;) {
    WireCmd cmd{};
    std::vector<Edge> ins;
    std::vector<Edge> del;
    if (me == 0) {
      plv::MutexLock lock(shared.mu);
      while (!shared.has_command) shared.cv.wait(shared.mu);
      shared.has_command = false;
      cmd = WireCmd{static_cast<std::uint32_t>(shared.command.kind),
                    shared.command.delta.n_vertices, shared.command.seq};
      ins.assign(shared.command.delta.inserts.begin(), shared.command.delta.inserts.end());
      del.assign(shared.command.delta.removals.begin(), shared.command.delta.removals.end());
    }
    cmd = bcast_from_root(comm, std::vector<WireCmd>{cmd}).front();
    ins = bcast_from_root(comm, std::move(ins));
    del = bcast_from_root(comm, std::move(del));
    if (cmd.kind == static_cast<std::uint32_t>(SessionCommand::Kind::kShutdown)) return;

    EdgeDelta delta;
    delta.n_vertices = cmd.n_floor;
    for (const Edge& e : ins) delta.inserts.add(e.u, e.v, e.w);
    for (const Edge& e : del) delta.removals.add(e.u, e.v, e.w);

    // A removal that names no record rejects the whole batch and leaves
    // the replica untouched. Every rank holds the same replica and batch,
    // so every rank rejects it the same way and skips it with no extra
    // collective; rank 0 hands the reason to Session::apply.
    const std::size_t edges_before = edges.size();
    vid_t new_n = n;
    try {
      new_n = std::max(n, apply_edge_delta(edges, delta));
    } catch (const std::invalid_argument& e) {
      if (me == 0) {
        {
          plv::MutexLock lock(shared.mu);
          shared.rejection = e.what();
        }
        shared.cv.notify_all();
      }
      continue;
    }
    ++batches_since_cold;

    const bool cadence_due = opts.streaming.rebuild_every_batches > 0 &&
                             batches_since_cold >= opts.streaming.rebuild_every_batches;
    const bool too_big =
        edges_before == 0 ||
        static_cast<double>(delta.size()) >
            opts.streaming.max_delta_fraction * static_cast<double>(edges_before);
    // The incremental path needs the PropMsg retraction encoding (ids
    // below the bit). Cyclic ownership already survives vertex growth.
    const bool incremental_capable = new_n < kRetractBit;
    n = new_n;

    if (cadence_due || too_big || !incremental_capable) {
      // Cold rebuild inside the resident fleet: run from singletons.
      batches_since_cold = 0;
      publish(cmd.seq, detect(nullptr, nullptr), false);
      continue;
    }

    // Incremental apply: re-refine from the previous epoch's labels,
    // restricted to the disturbed frontier.
    const std::vector<vid_t> warm = normalize_warm_labels(std::move(labels), n);
    std::vector<vid_t> seeds;
    seeds.reserve(2 * delta.size());
    for (const Edge& e : delta.removals) {
      seeds.push_back(e.u);
      seeds.push_back(e.v);
    }
    for (const Edge& e : delta.inserts) {
      seeds.push_back(e.u);
      seeds.push_back(e.v);
    }
    publish(cmd.seq, detect(&warm, &seeds), true);
  }
}

}  // namespace detail

}  // namespace plv::core

namespace plv {

Result louvain(const GraphSource& graph, const core::ParOptions& opts) {
  graph.require_live("louvain");
  opts.validate();
  if (const EdgeSliceFn* slice_of = graph.stream()) {
    // Streamed runs never fold: no rank holds the whole graph.
    const vid_t n = graph.n_vertices();
    return core::launch_one_shot(n, opts, [&](pml::Comm& comm, core::RankEngine& engine) {
      engine.init_from_slice((*slice_of)(comm.rank(), comm.nranks()), n);
    });
  }
  if (graph.edges() == nullptr) {
    throw std::invalid_argument("louvain: GraphSource carries no edges and no stream");
  }
  require_valid_edges(*graph.edges(), "louvain");
  if (graph.delta() != nullptr) {
    require_valid_edges(graph.delta()->inserts, "louvain");
    // The cold-baseline view of a streamed update: materialize the updated
    // list, then run cold on it — what Session::apply must match under the
    // deterministic streaming plan.
    graph::EdgeList updated = *graph.edges();
    const vid_t n =
        std::max(graph.n_vertices(), apply_edge_delta(updated, *graph.delta()));
    return core::edges_impl(updated, n, nullptr, opts);
  }
  return core::edges_impl(*graph.edges(), graph.n_vertices(), graph.initial_labels(),
                          opts);
}

}  // namespace plv
