#include "core/louvain_par.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "common/flat_map.hpp"
#include "common/histogram.hpp"
#include "common/sync.hpp"
#include "common/timer.hpp"
#include "core/session.hpp"
#include "hashing/edge_table.hpp"
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

/// GRAPH RECONSTRUCTION: coarse in-edge (src → dst) of weight w, delivered
/// to owner(dst) (paper Algorithm 5). Ids are already dense next-level ids.
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

/// Per-community bookkeeping held by the community's owner.
struct CommInfo {
  weight_t sigma_tot{0};
  weight_t sigma_in{0};
  std::int64_t members{0};
};

/// One (community, weight) entry of a vertex's Out_Table row, mirrored by
/// the active-scheduling row index (RankEngine::rows_): the frontier scan
/// walks these instead of the full table, so the weight is carried here —
/// maintained by the same insert/retract sequence as the table slot, hence
/// bitwise the same value.
struct RowEntry {
  vid_t c;
  weight_t w;
};

/// Fills `table` with rank `me`'s slice of the level-0 In_Table: one
/// ((v, u), w) record per in-edge of an owned u, self-loops stored as
/// A(u, u) = 2w. Shared by one-shot ingestion (RankEngine::init_from_edges)
/// and the Session's resident-table cold rebuilds: the table layout — and
/// with it every downstream scan order — depends on the insertion
/// sequence and the starting capacity, so running the *same* fill — reset
/// to the same size — over the same list is what makes a cold rebuild
/// inside a fleet bit-identical to a one-shot run.
void fill_in_table(hashing::EdgeTable& table, const graph::EdgeList& edges,
                   const graph::Partition1D& part, int me, int nranks) {
  table.reset(2 * edges.size() / static_cast<std::size_t>(nranks) + 16);
  for (const Edge& e : edges) {
    if (e.u == e.v) {
      if (part.owner(e.u) == me) {
        table.insert_or_add(pack_key(e.u, e.u), 2 * e.w);  // A(u,u) = 2w
      }
      continue;
    }
    if (part.owner(e.v) == me) table.insert_or_add(pack_key(e.u, e.v), e.w);
    if (part.owner(e.u) == me) table.insert_or_add(pack_key(e.v, e.u), e.w);
  }
}

// ---------------------------------------------------------------------------
// One rank's view of one level plus the phase machinery.
// ---------------------------------------------------------------------------

class RankEngine {
 public:
  RankEngine(pml::Comm& comm, const ParOptions& opts)
      : comm_(comm),
        opts_(opts),
        part_(opts.partition, 0, comm.nranks()),
        in_table_(0, opts.table_max_load, opts.hash),
        out_table_(0, opts.table_max_load, opts.hash),
        prop_agg_(comm, opts.aggregator_capacity),
        sigma_reqs_(static_cast<std::size_t>(comm.nranks())) {
    comm_.set_chunk_pool_watermark(opts.chunk_pool_watermark);
  }

  /// Builds level 0 from the (shared, read-only) global edge list.
  void init_from_edges(const graph::EdgeList& edges, vid_t n) {
    part_ = graph::Partition1D(opts_.partition, n, comm_.nranks());
    n_level_ = n;
    level_index_ = 0;
    fill_in_table(in_table_, edges, part_, comm_.rank(), comm_.nranks());
    init_level_state();
    two_m_ = comm_.allreduce_sum(local_strength_sum());
  }

  /// Builds level 0 from an already-filled In_Table slice — the Session's
  /// resident table, moved in for the run and handed back afterwards by
  /// return_level0_table. A move preserves the exact array layout, so a
  /// table filled by fill_in_table drives the same run a cold
  /// init_from_edges on the same list would (bit for bit), while a
  /// delta-patched table drives the incremental re-refine. Level 0 only
  /// reads the table, and graph_reconstruction parks it instead of
  /// dropping it.
  void init_from_table(hashing::EdgeTable&& in0, vid_t n) {
    part_ = graph::Partition1D(opts_.partition, n, comm_.nranks());
    n_level_ = n;
    level_index_ = 0;
    in_table_ = std::move(in0);
    lent_level0_ = true;
    init_level_state();
    two_m_ = comm_.allreduce_sum(local_strength_sum());
  }

  /// Gives the table init_from_table took back to `in0`, unchanged.
  void return_level0_table(hashing::EdgeTable& in0) {
    assert(lent_level0_);
    lent_level0_ = false;
    in0 = std::move(level_index_ == 0 ? in_table_ : parked_level0_);
  }

  /// Restricts refinement to the disturbed-vertex frontier: only vertices
  /// seeded here (the endpoints of changed edges) — plus those a
  /// retraction/assertion patch later touches, which is exactly how a
  /// neighbor learns its community surroundings changed — may move;
  /// everyone else's gain is zeroed before the threshold histogram. Call
  /// after init_from_table + warm_start. Level 0 only: reconstruction
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
  /// every In_Table entry is routed to its owner through the aggregators
  /// (records written straight into pooled chunks; the drain blocks on the
  /// mailbox instead of spinning on collectives), so no rank ever
  /// materializes the global edge list.
  void init_from_slice(const graph::EdgeList& slice, vid_t n) {
    part_ = graph::Partition1D(opts_.partition, n, comm_.nranks());
    n_level_ = n;
    level_index_ = 0;
    in_table_.reset(2 * slice.size() / static_cast<std::size_t>(comm_.nranks()) + 16);
    pml::Aggregator<EdgeMsg> agg(comm_, opts_.aggregator_capacity);
    for (const Edge& e : slice) {
      if (e.u == e.v) {
        agg.push(part_.owner(e.u), EdgeMsg{e.u, e.u, 2 * e.w});
        continue;
      }
      agg.push(part_.owner(e.v), EdgeMsg{e.u, e.v, e.w});
      agg.push(part_.owner(e.u), EdgeMsg{e.v, e.u, e.w});
    }
    agg.flush_all_final();
    // Ordered streaming drain: arrivals apply in source-rank order, so the
    // table layout (and every scan over it) is deterministic across runs
    // and transports instead of arrival-timing dependent.
    comm_.drain_streaming_finalized<EdgeMsg>([&](int, std::span<const EdgeMsg> msgs) {
      for (const EdgeMsg& m : msgs) {
        in_table_.insert_or_add(pack_key(m.src, m.dst), m.w);
      }
    });
    init_level_state();
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
      state_propagation_full(in_table_.size() + 16);
    }
    // Σin was accumulated by the propagation drain itself; only the
    // owner exchange and the reduction remain.
    exchange_sigma_in();
    double q = comm_.allreduce_sum(local_modularity());

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
  struct InEdge {
    vid_t v;      // non-owned endpoint of the in-edge (v, u)
    weight_t w;
  };

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

  /// Derives per-vertex arrays, the in-edge adjacency, and community
  /// bookkeeping from In_Table.
  void init_level_state() {
    const vid_t local_n = part_.local_count(comm_.rank());
    strength_.assign(local_n, 0.0);
    self_loop_.assign(local_n, 0.0);
    label_.resize(local_n);
    best_.assign(local_n, kInvalidVid);
    left_.assign(local_n, kInvalidVid);
    gain_.assign(local_n, 0.0);
    stay_score_.assign(local_n, 0.0);
    for (vid_t l = 0; l < local_n; ++l) {  // plv-lint: allow(refine-full-scan) -- level setup, runs once per level
      label_[l] = part_.to_global(comm_.rank(), l);
    }
    // CSR-style in-edge adjacency per owned vertex: the delta propagation
    // walks exactly the moved vertices' rows instead of scanning In_Table.
    adj_start_.assign(static_cast<std::size_t>(local_n) + 1, 0);
    in_table_.for_each([&](std::uint64_t key, weight_t w) {
      const vid_t u = key_lo(key);
      const vid_t v = key_hi(key);
      const vid_t l = part_.to_local(u);
      strength_[l] += w;
      if (v == u) self_loop_[l] = w;
      ++adj_start_[static_cast<std::size_t>(l) + 1];
    });
    for (std::size_t i = 1; i < adj_start_.size(); ++i) adj_start_[i] += adj_start_[i - 1];
    adj_.resize(in_table_.size());
    std::vector<std::size_t> cursor(adj_start_.begin(), adj_start_.end() - 1);
    in_table_.for_each([&](std::uint64_t key, weight_t w) {
      const std::size_t l = part_.to_local(key_lo(key));
      adj_[cursor[l]++] = InEdge{key_hi(key), w};
    });

    comms_.reset(static_cast<std::size_t>(local_n) + 1);
    for (vid_t l = 0; l < local_n; ++l) {  // plv-lint: allow(refine-full-scan) -- level setup, runs once per level
      const vid_t u = part_.to_global(comm_.rank(), l);
      comms_.ref(u) = CommInfo{strength_[l], 0.0, 1};
    }
    moves_.clear();
    iters_since_rebuild_ = 0;
    // What a full propagation costs, in records: one per In_Table entry,
    // summed over ranks. The per-iteration full-vs-delta decision compares
    // the (allreduced) delta cost against this.
    full_prop_records_ = comm_.allreduce_sum(static_cast<std::uint64_t>(in_table_.size()));
    // A pinned (Session) frontier applies to the level it was seeded on;
    // coarser levels (and fresh inits) refine unrestricted. Active-vertex
    // scheduling, by contrast, re-arms on every level: all vertices start
    // schedulable, and the first delta propagation shrinks the set to the
    // disturbed region. Small levels opt out entirely: restricting moves
    // admits fewer movers per round, so convergence stretches across more
    // iterations — a fine trade while FIND dominates, a loss once the
    // level is collective-bound (scanning a few hundred vertices is free,
    // but every extra iteration pays the full reduction rounds).
    pinned_ = false;
    restricted_ = false;
    prune_ = opts_.refine.active_scheduling &&
             n_level_ >= opts_.refine.min_frontier_vertices;
    use_rows_ = prune_;
    if (prune_) {
      active_.assign(local_n, 1);
    } else {
      active_.clear();
    }
    if (use_rows_) {
      rows_.assign(local_n, {});
    } else {
      rows_.clear();
    }
  }

  [[nodiscard]] weight_t local_strength_sum() const noexcept {
    weight_t s = 0;
    for (weight_t k : strength_) s += k;
    return s;
  }

  // -- STATE PROPAGATION (Algorithm 3) --------------------------------------

  /// Full rebuild: empties Out_Table and re-ships every In_Table entry
  /// under its current label. Re-derives the Σtot request bookkeeping from
  /// scratch, which also resets any floating-point drift the incremental
  /// path accumulated on non-integer weights. The drain doubles as the Σin
  /// accumulation pass: a record (v, c, w) with label(v) == c is exactly a
  /// Σin contribution, so sin_acc_ is rebuilt from scratch here — fused
  /// into the receive loop instead of a separate full table scan.
  ///
  /// `expected` sizes the emptied Out_Table (DESIGN.md decision 8): the
  /// In_Table's count at a level's opening, and the live count at a later
  /// rebuild, which re-creates exactly the live key set. Capacity — and
  /// with it every scan order over the table — thus follows this level's
  /// sizes alone: a coarse level never sweeps level 0's slots, and the
  /// table shrinks as communities form.
  void state_propagation_full(std::size_t expected) {
    out_table_.reset(expected);
    sin_acc_.reset(label_.size() + 1);
    if (use_rows_) {
      for (auto& row : rows_) row.clear();
    }
    in_table_.for_each([&](std::uint64_t key, weight_t w) {
      const vid_t v = key_hi(key);
      const vid_t u = key_lo(key);  // owned
      prop_agg_.push(part_.owner(v), PropMsg{v, label_[part_.to_local(u)], w});
    });
    prop_agg_.flush_all_final();
    comm_.drain_streaming_finalized<PropMsg>([&](int /*src*/,
                                                 std::span<const PropMsg> msgs) {
      for (const PropMsg& m : msgs) {
        const vid_t lv = part_.to_local(m.v);
        const bool fresh = out_table_.insert_or_add(pack_key(m.v, m.c), m.w);
        if (use_rows_) row_insert(lv, m.c, m.w, fresh);
        if (label_[lv] == m.c) sin_acc_.ref(m.c) += m.w;
      }
    });
    rebuild_sigma_requests();
    iters_since_rebuild_ = 0;
    drift_accum_ = 0.0;
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
  /// Out_Table in place (count-based erase-on-zero keeps the table as
  /// dense as a rebuild would). Requires every rank to have taken the
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
      const std::size_t begin = adj_start_[mv.l];
      const std::size_t end = adj_start_[static_cast<std::size_t>(mv.l) + 1];
      for (std::size_t i = begin; i < end; ++i) {
        const InEdge& e = adj_[i];
        const int dest = part_.owner(e.v);
        prop_agg_.push(dest, PropMsg{e.v, mv.from | kRetractBit, e.w});
        prop_agg_.push(dest, PropMsg{e.v, mv.to, e.w});
      }
    }
    prop_agg_.flush_all_final();
    // Each patch also carries Σin forward: under the receiver's (already
    // post-move) labels, a patch to entry (v, c) shifts the community's
    // internal weight exactly when label(v) == c. Combined with the local
    // adjustments made at move time (update_communities), sin_acc_ lands
    // on the same value a fresh post-propagation scan would compute —
    // exactly, in integer-weight arithmetic; within one iteration's
    // rounding otherwise (the fused FIND scan re-derives it next
    // iteration, so the drift never compounds).
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
          const bool erased = out_table_.retract(pack_key(m.v, c), m.w);
          if (erased) ref_sub(c);
          if (use_rows_) row_retract(lv, c, m.w, erased);
          if (label_[lv] == c) sin_acc_.ref(c) -= m.w;
        } else {
          const bool fresh = out_table_.insert_or_add(pack_key(m.v, m.c), m.w);
          if (fresh) ref_add(m.c);
          if (use_rows_) row_insert(lv, m.c, m.w, fresh);
          if (label_[lv] == m.c) sin_acc_.ref(m.c) += m.w;
        }
      }
    });
    ++iters_since_rebuild_;
  }

  // -- Σtot request bookkeeping ---------------------------------------------

  /// The FIND phase must fetch Σtot for every community this rank's
  /// Out_Table references plus every owned vertex's own community. Rather
  /// than re-collecting that set each iteration (a full table scan plus a
  /// sort), the engine keeps it persistent: comm_refs_ counts, per
  /// community, the Out_Table entries naming it plus the owned vertices
  /// labeled with it; sigma_reqs_ holds the per-owner sorted request
  /// lists; refs_dirty_ logs communities whose count touched zero or left
  /// it, and apply_sigma_request_changes() folds the log in with one
  /// linear merge per affected owner.
  void ref_add(vid_t c) {
    if (++comm_refs_.ref(c) == 1) refs_dirty_.push_back(c);
  }

  void ref_sub(vid_t c) {
    std::uint32_t* r = comm_refs_.find(c);
    assert(r != nullptr && *r > 0);
    if (--*r == 0) refs_dirty_.push_back(c);
  }

  // -- active-scheduling row index ------------------------------------------

  /// Mirrors one Out_Table insert into vertex lv's sorted community row.
  /// `fresh` is the table's own "new slot" verdict, so row membership can
  /// never disagree with table membership (the table's contribution count,
  /// not a weight comparison, decides emptiness).
  void row_insert(vid_t l, vid_t c, weight_t w, bool fresh) {
    auto& row = rows_[l];
    const auto it = std::lower_bound(
        row.begin(), row.end(), c,
        [](const RowEntry& e, vid_t key) { return e.c < key; });
    if (fresh) {
      assert(it == row.end() || it->c != c);
      row.insert(it, RowEntry{c, w});
    } else {
      assert(it != row.end() && it->c == c);
      it->w += w;
    }
  }

  /// Mirrors one Out_Table retraction; `erased` is the table's
  /// slot-went-empty verdict.
  void row_retract(vid_t l, vid_t c, weight_t w, bool erased) {
    auto& row = rows_[l];
    const auto it = std::lower_bound(
        row.begin(), row.end(), c,
        [](const RowEntry& e, vid_t key) { return e.c < key; });
    assert(it != row.end() && it->c == c);
    if (erased) {
      row.erase(it);
    } else {
      it->w -= w;
    }
  }

  /// Re-derives comm_refs_ and sigma_reqs_ from the freshly rebuilt
  /// Out_Table and current labels, and sizes the Σtot reply cache for
  /// the rebuilt request set. The request count mostly falls between
  /// rebuilds as communities merge, so that size is the cache's slack: the
  /// sweeps up to the next rebuild clear it in place instead of
  /// reallocating it each time the count crosses a power of two.
  void rebuild_sigma_requests() {
    comm_refs_.reset(out_table_.size() / 2 + label_.size() + 1);
    out_table_.for_each(
        [&](std::uint64_t key, weight_t) { ++comm_refs_.ref(key_lo(key)); });
    for (vid_t c : label_) ++comm_refs_.ref(c);
    for (auto& reqs : sigma_reqs_) reqs.clear();
    comm_refs_.for_each([&](vid_t c, std::uint32_t&) {
      sigma_reqs_[static_cast<std::size_t>(part_.owner(c))].push_back(c);
    });
    for (auto& reqs : sigma_reqs_) std::sort(reqs.begin(), reqs.end());
    refs_dirty_.clear();
    sigma_cache_.reset(comm_refs_.size());
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
      const std::uint32_t* r = comm_refs_.find(c);
      const bool needed = r != nullptr && *r > 0;
      const auto owner = static_cast<std::size_t>(part_.owner(c));
      const auto& reqs = sigma_reqs_[owner];
      const bool listed = std::binary_search(reqs.begin(), reqs.end(), c);
      if (needed && !listed) {
        add[owner].push_back(c);
      } else if (!needed && listed) {
        del[owner].push_back(c);
      }
      if (!needed && r != nullptr) comm_refs_.erase(c);  // no zombie zeros
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
  /// then scans the table ONCE to fill best_/gain_ per owned vertex AND
  /// re-derive the Σin pre-aggregation: an entry (u, c) with c == label(u)
  /// is a Σin contribution and never a join candidate, so the branch that
  /// used to skip it now accumulates it — compute_sigma_in's second full
  /// scan is gone.
  ///
  /// The request/reply rides the streaming plane: the Σtot requests are on
  /// the wire while this rank runs the stay-score initialization (the
  /// Out_Table lookups, the σ-independent half), and no collective
  /// rendezvous happens at all.
  ///
  /// Ties between equal-score candidates resolve to the smallest community
  /// id under exact comparison (Lu & Halappanavar's minimum-label rule),
  /// so the chosen target never depends on candidate enumeration order —
  /// which is what lets the row walk and the fused scan below agree.
  void find_best_community() {
    apply_sigma_request_changes();
    const auto nranks = static_cast<std::size_t>(comm_.nranks());
    const vid_t local_n = static_cast<vid_t>(label_.size());

    // How many vertices this sweep actually considers for a move — the
    // scanned-vertices telemetry and the scan-strategy input alike.
    if (restricted_) {
      std::uint64_t count = 0;
      for (std::uint8_t a : active_) count += a;
      scanned_ = count;
    } else {
      scanned_ = static_cast<std::uint64_t>(local_n);
    }
    // Scan-strategy choice (active scheduling): when the live frontier is
    // small enough, walk only the active vertices' community rows; above
    // the threshold the fused full-table scan (inactive rows skipped) wins
    // on sequential locality. Both strategies compute identical labels —
    // the exact tie rule makes the winner independent of candidate
    // enumeration order — so this is a per-rank-local performance choice.
    const bool row_scan =
        use_rows_ && restricted_ &&
        static_cast<double>(scanned_) <=
            opts_.refine.frontier_scan_threshold * static_cast<double>(local_n);

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

    // Fold the σ term into the stay score: (w_stay) − γ(σ − k)k/2m,
    // left-associated. γ is hoisted once for the two hot loops below.
    const double gamma = opts_.refine.resolution;
    for (vid_t l = 0; l < local_n; ++l) {  // plv-lint: allow(refine-full-scan) -- O(1)/vertex σ fold; the skip below prunes the lookups
      if (restricted_ && active_[l] == 0) continue;  // stay score unused
      const SigmaRep* own = sigma_cache_.find(label_[l]);
      assert(own != nullptr);
      stay_score_[l] -= gamma * (own->sigma_tot - strength_[l]) *
                        strength_[l] / two_m_;
    }
    // best_score starts equal to stay_score; track it in gain_ scaled later.
    best_score_ = stay_score_;

    if (row_scan) {
      // Frontier row walk: only the active vertices are visited — the
      // whole point of active scheduling — so Σin is NOT re-derived here;
      // the incremental carry (move-time adjustment + patch-drain deltas)
      // stays authoritative until the next fused scan or full rebuild.
      // That is exact in integer/dyadic-weight arithmetic; otherwise the
      // rebuild cadence bounds the drift, exactly as it does for the
      // Out_Table weights themselves (DESIGN.md decision 8).
      for (vid_t l = 0; l < local_n; ++l) {  // plv-lint: allow(refine-full-scan) -- sequential bitmap sweep; the join search runs for active vertices only
        if (active_[l] == 0) continue;
        const vid_t cu = label_[l];
        for (const RowEntry& row : rows_[l]) {
          const vid_t c = row.c;
          if (c == cu || c == left_[l]) continue;
          const SigmaRep* target = sigma_cache_.find(c);
          assert(target != nullptr);
          if (target->members == 1 && sigma_cache_.find(cu)->members == 1 && c > cu) {
            continue;
          }
          const double score =
              row.w - gamma * target->sigma_tot * strength_[l] / two_m_;
          if (score > best_score_[l] || (score == best_score_[l] && c < best_[l])) {
            best_score_[l] = score;
            best_[l] = c;
          }
        }
        gain_[l] = best_[l] == cu ? 0.0
                                  : 2.0 * (best_score_[l] - stay_score_[l]) / two_m_;
      }
      return;
    }

    // The single fused scan: Σin accumulation (c == cu) + join search
    // (c != cu). Comparing joins by (w_uc − Σtot_c·k_u/2m) is equivalent
    // to comparing ΔQ (metrics/modularity.hpp); the final gain is the
    // join-vs-stay difference rescaled to true ΔQ units.
    sin_acc_.reset(label_.size() + 1);
    out_table_.for_each([&](std::uint64_t key, weight_t w) {
      const vid_t u = key_hi(key);
      const vid_t c = key_lo(key);
      const vid_t l = part_.to_local(u);
      const vid_t cu = label_[l];
      if (c == cu) {
        sin_acc_.ref(c) += w;  // Σin accounting: every row counts, active or not
        return;
      }
      // Frontier pruning (Sahu's unchanged-vertex idea): an undisturbed
      // vertex may not move this iteration, so its join search — the σ
      // lookup and score compare, the scan's dominant cost — is skipped.
      // best_[l] stays at label_[l] from init_stay_scores, so its gain is 0.
      if (restricted_ && active_[l] == 0) return;
      // No move straight back: the community this vertex left in the
      // previous iteration is not a candidate (DESIGN.md decision 3).
      if (c == left_[l]) return;
      const SigmaRep* target = sigma_cache_.find(c);
      assert(target != nullptr);
      // Singleton-swap guard (Lu et al. [11], cited by the paper): when a
      // lone vertex considers joining another singleton community, only
      // the smaller-labeled side may move. Without it, synchronous
      // updates let pairs of singletons swap communities within one
      // iteration — the oscillation Section III warns about. The left_
      // skip above covers the rest: it stops any vertex's return trip.
      if (target->members == 1 && sigma_cache_.find(cu)->members == 1 && c > cu) return;
      const double score =
          w - gamma * target->sigma_tot * strength_[l] / two_m_;
      // Most candidates lose: [[unlikely]] keeps the losing path a
      // fall-through (about 5% of a whole LFR n=20000 solve, x86-64 GCC).
      if (score > best_score_[l] || (score == best_score_[l] && c < best_[l])) [[unlikely]] {
        best_score_[l] = score;
        best_[l] = c;
      }
    });
    // Inactive vertices kept best_[l] == label_[l] through the scan, so
    // this leaves their gain at 0 — out of the threshold histogram and
    // the move sweep alike — with no separate masking pass.
    for (vid_t l = 0; l < local_n; ++l) {  // plv-lint: allow(refine-full-scan) -- gain finalize is O(1)/vertex with no table access
      gain_[l] =
          best_[l] == label_[l] ? 0.0 : 2.0 * (best_score_[l] - stay_score_[l]) / two_m_;
    }
  }

  /// σ-independent half of the stay score: w_stay = Out[(u, cu)] − self
  /// loop, computed while the Σtot requests are on the wire. The σ term is
  /// folded in after the replies arrive. Kept out of line on purpose:
  /// inlined into its one caller, the exchange_streaming instantiation,
  /// the loop made a whole LFR n=20000 solve about 4% slower (x86-64, GCC,
  /// Release).
  [[gnu::noinline]] void init_stay_scores() {
    const vid_t local_n = static_cast<vid_t>(label_.size());
    for (vid_t l = 0; l < local_n; ++l) {  // plv-lint: allow(refine-full-scan) -- best_/gain_ reset must cover every vertex; the frontier skip below prunes the table lookups
      const vid_t cu = label_[l];
      best_[l] = cu;
      gain_[l] = 0.0;
      // Frontier pruning: vertices outside the disturbed region cannot
      // move this iteration (their gain stays 0 and update_communities
      // never reads best_score_), so their stay score is never consumed
      // — skip the table lookup.
      if (restricted_ && active_[l] == 0) {
        stay_score_[l] = 0.0;
        continue;
      }
      const vid_t u = part_.to_global(comm_.rank(), l);
      stay_score_[l] = out_table_.find(pack_key(u, cu)).value_or(0.0) - self_loop_[l];
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

    hist_.reset(0.0, agg.max, plan.gain_histogram_bins);
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
  /// Each move also carries the local Σin pre-aggregation forward: row
  /// (u, from) stops counting toward Σin(from) and row (u, to) starts
  /// counting toward Σin(to) — both against the *pre-propagation* table
  /// the fused scan just read; the propagation drain patches in the edge
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
        const vid_t u = part_.to_global(comm_.rank(), l);
        sin_acc_.ref(from) -= out_table_.find(pack_key(u, from)).value_or(0.0);
        sin_acc_.ref(to) += out_table_.find(pack_key(u, to)).value_or(0.0);
        deltas[static_cast<std::size_t>(part_.owner(from))].push_back(
            DeltaMsg{from, -1, -strength_[l]});
        deltas[static_cast<std::size_t>(part_.owner(to))].push_back(
            DeltaMsg{to, +1, strength_[l]});
        ++local.moves;
        local.delta_records +=
            2 * (adj_start_[static_cast<std::size_t>(l) + 1] - adj_start_[l]);
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

  /// Ships the local Σin pre-aggregation (sin_acc_, maintained by the
  /// fused find scan + move-time carry + propagation-drain patches — the
  /// second full Out_Table scan the old compute_sigma_in ran is gone) to
  /// the community owners. Local pre-aggregation keeps message volume at
  /// one record per (rank, community) pair.
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

  /// This rank's modularity contribution (sum over owned communities);
  /// the caller reduces it — standalone or merged with other per-iteration
  /// scalars into one combined allreduce (see refine).
  [[nodiscard]] double local_modularity() const {
    double q_local = 0.0;
    comms_.for_each([&](vid_t, const CommInfo& info) {
      if (info.members <= 0) return;
      const double tot = info.sigma_tot / two_m_;
      q_local += info.sigma_in / two_m_ - opts_.refine.resolution * tot * tot;
    });
    return q_local;
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
      // to clear Out_Table), taken from allreduced inputs so every rank
      // picks the same branch: rebuild when the cadence says so, when the
      // accumulated churn since the last rebuild crosses the adaptive
      // drift threshold (reacting to actual table turnover rather than a
      // blind counter — the counter stays as the hard upper bound), or
      // when the delta would ship at least as many records as a rebuild —
      // the delta path never loses on traffic.
      const double churn =
          full_prop_records_ > 0
              ? static_cast<double>(moved.delta_records) /
                    static_cast<double>(full_prop_records_)
              : 0.0;
      // In pinned (Session) frontier mode the propagation is forced onto
      // the delta path: a full rebuild costs O(|In_Table|) — the
      // cold-start term the dirty-region re-refine exists to avoid — and
      // only the patches grow the disturbed set. The flag is
      // command-driven (identical on every rank), so the decision stays
      // globally consistent. Active scheduling deliberately keeps cadence
      // rebuilds live: a rebuild reactivates the whole partition, which is
      // what bounds both the FP drift and the pruning approximation.
      const RefinePlan& plan = opts_.refine;
      const bool rebuild_due =
          !pinned_ &&
          ((plan.full_rebuild_every > 0 &&
            iters_since_rebuild_ + 1 >= plan.full_rebuild_every) ||
           (plan.adaptive_rebuild_drift > kAdaptiveRebuildOff &&
            drift_accum_ + churn >= plan.adaptive_rebuild_drift));
      const bool delta_wins =
          delta_possible &&
          (pinned_ || moved.delta_records < full_prop_records_);
      t.reset();
      const std::uint64_t sent_before = comm_.stats().records_sent;
      if (rebuild_due || !delta_wins) {
        state_propagation_full(out_table_.size());  // resets drift_accum_
      } else {
        drift_accum_ += churn;
        state_propagation_delta();
      }
      const std::uint64_t prop_sent = comm_.stats().records_sent - sent_before;
      const double prop_s = t.seconds();
      timers_.add(phase::kStatePropagation, prop_s);

      exchange_sigma_in();
      // One combined reduction closes the iteration: modularity and the
      // trace's propagation + scan volumes share a single collective
      // round. The q sum visits ranks in ascending order, exactly like
      // allreduce_sum.
      struct IterStats {
        double q;
        std::uint64_t prop_sent;
        std::uint64_t scanned;
      };
      const auto stats = comm_.allreduce(
          IterStats{local_modularity(), prop_sent, scanned_local},
          [](const IterStats& a, const IterStats& b) {
            return IterStats{a.q + b.q, a.prop_sent + b.prop_sent, a.scanned + b.scanned};
          });
      const double q = stats.q;
      level.trace.iterations = iter;

      if (opts_.record_trace) {
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
      }

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
      if (stagnant >= opts_.refine.stagnation_window) {
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
  /// re-derives the level state.
  void graph_reconstruction(const FlatMap<vid_t>& dense, vid_t next_n) {
    graph::Partition1D next_part(opts_.partition, next_n, comm_.nranks());

    hashing::EdgeTable next_in(out_table_.size() / 2 + 16, opts_.table_max_load,
                               opts_.hash);
    // Swap the receive target in place so the handler can hash directly.
    pml::Aggregator<EdgeMsg> agg(comm_, opts_.aggregator_capacity);
    out_table_.for_each([&](std::uint64_t key, weight_t w) {
      const vid_t u = key_hi(key);
      const vid_t c = key_lo(key);
      const vid_t* src = dense.find(label_[part_.to_local(u)]);
      const vid_t* dst = dense.find(c);
      assert(src != nullptr && dst != nullptr);
      agg.push(next_part.owner(*dst), EdgeMsg{*src, *dst, w});
    });
    agg.flush_all_final();
    // Ordered streaming drain: chunks are consumed as they arrive but
    // applied in ascending source-rank order, so the next level's In_Table
    // layout is arrival-timing independent (and identical across
    // transports).
    comm_.drain_streaming_finalized<EdgeMsg>([&](int /*src*/,
                                                 std::span<const EdgeMsg> msgs) {
      for (const EdgeMsg& m : msgs) {
        next_in.insert_or_add(pack_key(m.src, m.dst), m.w);
      }
    });

    if (lent_level0_ && level_index_ == 0) parked_level0_ = std::move(in_table_);
    in_table_ = std::move(next_in);
    part_ = next_part;
    n_level_ = next_n;
    init_level_state();
    ++level_index_;  // the next refine round runs one tolerance step tighter
  }

  // -- members ---------------------------------------------------------------

  pml::Comm& comm_;
  const ParOptions& opts_;
  graph::Partition1D part_;
  vid_t n_level_{0};
  weight_t two_m_{0};

  hashing::EdgeTable in_table_;
  hashing::EdgeTable out_table_;
  // A level-0 In_Table lent by init_from_table goes back to its owner
  // after the run; once a reconstruction replaces it, it waits here.
  bool lent_level0_{false};
  hashing::EdgeTable parked_level0_;

  // Per owned vertex (local index):
  std::vector<weight_t> strength_;
  std::vector<weight_t> self_loop_;
  std::vector<vid_t> label_;
  std::vector<vid_t> best_;
  std::vector<vid_t> left_;  // community left in the previous iteration, or kInvalidVid
  std::vector<double> gain_;
  std::vector<double> stay_score_;

  // In-edge adjacency (CSR over local indices), derived from In_Table once
  // per level; row l holds the (v, w) of every in-edge (v, u_l).
  std::vector<std::size_t> adj_start_;
  std::vector<InEdge> adj_;

  // Moves of the current iteration, replayed by the delta propagation.
  std::vector<Move> moves_;
  int iters_since_rebuild_{0};
  std::uint64_t full_prop_records_{0};

  // Shared frontier infrastructure. While restricted_ is on, only vertices
  // with a set active_ bit may move, and the delta-propagation drain sets
  // the bit of every patched vertex (the neighbor wakeup). Two producers
  // feed it: the pinned Session frontier (pinned_; seeded from changed
  // edges, forces the delta path, level 0 only) and active-vertex
  // scheduling (prune_; every level, the set re-derives each delta
  // iteration as movers ∪ patched and a full rebuild reactivates all).
  // use_rows_ keeps the per-vertex sorted community rows (rows_) mirrored
  // off the Out_Table so a small frontier can scan rows instead of the
  // table. level_moves_ is the current level's global move count;
  // scanned_ counts the vertices whose join search the last FIND actually
  // ran.
  bool pinned_{false};
  bool restricted_{false};
  bool prune_{false};
  bool use_rows_{false};
  std::vector<std::uint8_t> active_;
  std::vector<std::vector<RowEntry>> rows_;
  std::uint64_t level_moves_{0};
  std::uint64_t scanned_{0};
  // Level counter for threshold scaling: 0 on every fresh ingestion,
  // incremented by each reconstruction.
  int level_index_{0};
  // Accumulated fractional Out_Table turnover since the last full rebuild
  // (Σ delta_records / full_prop_records); drives the adaptive rebuild
  // trigger. Built from allreduced tallies only, so it is identical on
  // every rank.
  double drift_accum_{0.0};

  // Persistent propagation aggregator: its per-destination chunks are
  // reacquired from the pool across iterations and levels instead of
  // being re-set-up per phase.
  pml::Aggregator<PropMsg> prop_agg_;

  FlatMap<CommInfo> comms_;        // owned communities
  FlatMap<SigmaRep> sigma_cache_;  // fetched Σtot + members
  FlatMap<weight_t> sin_acc_;      // Σin pre-aggregation, carried forward

  // Σtot request bookkeeping (see the comment block above ref_add).
  FlatMap<std::uint32_t> comm_refs_;
  std::vector<std::vector<vid_t>> sigma_reqs_;
  std::vector<vid_t> refs_dirty_;

  // Persistent per-iteration scratch (steady state allocates nothing):
  // the σ-augmented best score, the positive-gain compaction, the gain
  // histogram + its reduction scratch, and the streaming Σtot
  // request/reply staging.
  std::vector<double> best_score_;
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

ParResult louvain_rank(pml::Comm& comm, const graph::EdgeList& edges, vid_t n_vertices,
                       const ParOptions& opts) {
  opts.validate();
  const vid_t n = std::max(n_vertices, edges.vertex_count());
  if (n == 0) {
    ParResult empty;
    empty.transport = comm.transport_name();
    return empty;
  }
  WallTimer busy;
  RankEngine engine(comm, opts);
  engine.init_from_edges(edges, n);
  return run_levels(comm, engine, n, opts, busy);
}

// ---------------------------------------------------------------------------
// One-shot launch bodies behind the plv::louvain front door.
// ---------------------------------------------------------------------------

static ParResult parallel_impl(const graph::EdgeList& edges, vid_t n_vertices,
                               const ParOptions& opts) {
  opts.validate();
  const pml::TransportKind kind = pml::resolve_transport(opts.transport);
  // Rank 0 (a fleet thread under the thread transport) hands its result
  // across to the launching thread; the guarded slot names that edge even
  // though Runtime::run's join already orders it.
  struct {
    plv::Mutex mu;
    ParResult value PLV_GUARDED_BY(mu);
  } result;
  {
    plv::MutexLock lock(result.mu);
    result.value.transport = pml::transport_kind_name(kind);
  }
  // Vertex-following is a whole-graph preprocessing pass, so it lives on
  // the launch side: the fleet runs the folded list (against the original
  // vertex count — folded vertices stay as isolated singletons, keeping
  // ids and ownership stable) and the unfold rewrites the result after
  // the ranks have joined.
  const vid_t n = std::max(n_vertices, edges.vertex_count());
  FoldPlan fold;
  const graph::EdgeList* run_edges = &edges;
  if (opts.refine.vertex_following && n > 0) {
    fold = plan_vertex_following(edges, n);
    if (fold.any) run_edges = &fold.edges;
  }
  pml::Runtime::run(
      opts.nranks,
      [&](pml::Comm& comm) {
        ParResult local = louvain_rank(comm, *run_edges, n, opts);
        if (comm.rank() == 0) {
          plv::MutexLock lock(result.mu);
          result.value = std::move(local);
        }
      },
      kind, pml::resolve_validate(opts.validate_transport), opts.tcp_options(),
      opts.hybrid_options());
  plv::MutexLock lock(result.mu);
  unfold_vertex_following(fold, result.value);
  return std::move(result.value);
}

static ParResult warm_impl(const graph::EdgeList& edges, vid_t n_vertices,
                           const std::vector<vid_t>& initial_labels,
                           const ParOptions& opts) {
  opts.validate();
  const pml::TransportKind kind = pml::resolve_transport(opts.transport);
  const vid_t n = std::max(n_vertices, edges.vertex_count());
  struct {
    plv::Mutex mu;
    ParResult value PLV_GUARDED_BY(mu);
  } result;
  {
    plv::MutexLock lock(result.mu);
    result.value.transport = pml::transport_kind_name(kind);
    if (n == 0) return std::move(result.value);
  }
  // Seeds taken before an EdgeDelta stay usable after it: vertices the
  // seed does not cover and labels referencing vanished vertices become
  // singletons instead of rejecting the whole seed.
  std::vector<vid_t> labels = normalize_warm_labels(initial_labels, n);
  FoldPlan fold;
  const graph::EdgeList* run_edges = &edges;
  if (opts.refine.vertex_following) {
    fold = plan_vertex_following(edges, n);
    if (fold.any) {
      run_edges = &fold.edges;
      // A folded vertex is an isolated ghost inside the fleet; seeding it
      // into a real community would inflate that community's member count
      // (which the singleton-swap guard consults), so its warm label
      // resets to self. The unfold reattaches it regardless of the seed.
      for (vid_t v = 0; v < n; ++v) {
        if (fold.anchor[v] != kInvalidVid) labels[v] = v;
      }
    }
  }
  pml::Runtime::run(
      opts.nranks,
      [&](pml::Comm& comm) {
        WallTimer busy;
        RankEngine engine(comm, opts);
        engine.init_from_edges(*run_edges, n);
        engine.warm_start(labels);
        ParResult local = run_levels(comm, engine, n, opts, busy);
        if (comm.rank() == 0) {
          plv::MutexLock lock(result.mu);
          result.value = std::move(local);
        }
      },
      kind, pml::resolve_validate(opts.validate_transport), opts.tcp_options(),
      opts.hybrid_options());
  plv::MutexLock lock(result.mu);
  unfold_vertex_following(fold, result.value);
  return std::move(result.value);
}

static ParResult streamed_impl(const EdgeSliceFn& slice_of, vid_t n_vertices,
                               const ParOptions& opts) {
  opts.validate();
  const pml::TransportKind kind = pml::resolve_transport(opts.transport);
  struct {
    plv::Mutex mu;
    ParResult value PLV_GUARDED_BY(mu);
  } result;
  {
    plv::MutexLock lock(result.mu);
    result.value.transport = pml::transport_kind_name(kind);
    if (n_vertices == 0) return std::move(result.value);
  }
  pml::Runtime::run(
      opts.nranks,
      [&](pml::Comm& comm) {
        WallTimer busy;
        RankEngine engine(comm, opts);
        const graph::EdgeList slice = slice_of(comm.rank(), comm.nranks());
        engine.init_from_slice(slice, n_vertices);
        ParResult local = run_levels(comm, engine, n_vertices, opts, busy);
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

// ---------------------------------------------------------------------------
// The resident fleet body behind plv::Session (core/session.hpp). Every
// rank holds a patchable replica of the evolving edge list plus its slice
// of the level-0 In_Table; rank 0 — which every transport runs inside the
// calling process — doubles as the command pump.
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
    const std::vector<Edge> mine(slice.begin(), slice.end());
    for (const Edge& e : comm.allgatherv(mine)) edges.add(e.u, e.v, e.w);
  } else {
    edges = shared.init_edges;
  }
  vid_t n = std::max(shared.init_n, edges.vertex_count());

  hashing::EdgeTable in0(0, opts.table_max_load, opts.hash);
  {
    const graph::Partition1D part(opts.partition, n, nranks);
    fill_in_table(in0, edges, part, me, nranks);
  }
  std::vector<vid_t> labels;  // latest full label vector (every rank)
  int batches_since_cold = 0;

  // One detection pass over the resident table, which the engine borrows
  // by move instead of copying it, and hands back whichever way run_levels
  // returns. (A throw ends the fleet, and the table with it.) Each pass
  // gets a fresh engine, and every table the engine sizes takes its
  // capacity from its own level's counts, so a cold rebuild here scans in
  // the same order a one-shot run does.
  const auto detect = [&](const std::vector<vid_t>* warm,
                          const std::vector<vid_t>* frontier_seeds) {
    WallTimer busy;
    RankEngine engine(comm, opts);
    engine.init_from_table(std::move(in0), n);
    if (warm != nullptr) engine.warm_start(*warm);
    if (frontier_seeds != nullptr) engine.enable_frontier(*frontier_seeds);
    ParResult result = run_levels(comm, engine, n, opts, busy);
    engine.return_level0_table(in0);
    return result;
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
    // The incremental path needs ownership that survives vertex growth
    // (cyclic) and the PropMsg retraction encoding (ids below the bit).
    const bool incremental_capable =
        opts.partition == graph::PartitionKind::kCyclic && new_n < kRetractBit;

    if (cadence_due || too_big || !incremental_capable) {
      // Cold rebuild inside the resident fleet: refill the In_Table from
      // scratch — a fresh fill_in_table layout, hence bit-identical to a
      // one-shot run on the updated list — and run from singletons.
      const graph::Partition1D part(opts.partition, new_n, nranks);
      fill_in_table(in0, edges, part, me, nranks);
      n = new_n;
      batches_since_cold = 0;
      publish(cmd.seq, detect(nullptr, nullptr), false);
      continue;
    }

    // Incremental apply: patch the resident In_Table in place — the same
    // retraction/assertion idea the Out_Table runs per iteration, applied
    // to the level-0 topology — then re-refine from the previous epoch's
    // labels, restricted to the disturbed frontier when configured.
    const graph::Partition1D part(opts.partition, new_n, nranks);
    const auto patch = [&](const graph::EdgeList& batch, bool insert) {
      for (const Edge& e : batch) {
        if (e.u == e.v) {
          if (part.owner(e.u) == me) {
            if (insert) {
              in0.insert_or_add(pack_key(e.u, e.u), 2 * e.w);
            } else {
              in0.retract(pack_key(e.u, e.u), 2 * e.w);
            }
          }
          continue;
        }
        if (part.owner(e.v) == me) {
          if (insert) {
            in0.insert_or_add(pack_key(e.u, e.v), e.w);
          } else {
            in0.retract(pack_key(e.u, e.v), e.w);
          }
        }
        if (part.owner(e.u) == me) {
          if (insert) {
            in0.insert_or_add(pack_key(e.v, e.u), e.w);
          } else {
            in0.retract(pack_key(e.v, e.u), e.w);
          }
        }
      }
    };
    patch(delta.removals, /*insert=*/false);
    patch(delta.inserts, /*insert=*/true);
    n = new_n;

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
    publish(cmd.seq, detect(&warm, opts.streaming.frontier ? &seeds : nullptr), true);
  }
}

}  // namespace detail

}  // namespace plv::core

namespace plv {

Result louvain(const GraphSource& graph, const core::ParOptions& opts) {
  graph.require_live("louvain");
  if (graph.stream() != nullptr) {
    return core::streamed_impl(*graph.stream(), graph.n_vertices(), opts);
  }
  if (graph.edges() == nullptr) {
    throw std::invalid_argument("louvain: GraphSource carries no edges and no stream");
  }
  require_valid_weights(*graph.edges(), "louvain");
  if (graph.delta() != nullptr) {
    require_valid_weights(graph.delta()->inserts, "louvain");
    // The cold-baseline view of a streamed update: materialize the updated
    // list, then run cold on it — what Session::apply must match under the
    // deterministic streaming plan.
    graph::EdgeList updated = *graph.edges();
    const vid_t n =
        std::max(graph.n_vertices(), apply_edge_delta(updated, *graph.delta()));
    return core::parallel_impl(updated, n, opts);
  }
  if (graph.initial_labels() != nullptr) {
    return core::warm_impl(*graph.edges(), graph.n_vertices(), *graph.initial_labels(),
                           opts);
  }
  return core::parallel_impl(*graph.edges(), graph.n_vertices(), opts);
}

}  // namespace plv
