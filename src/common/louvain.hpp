// Result types shared by the sequential baseline and the parallel engine,
// plus the library front door plv::louvain().
//
// Both engines produce the same artifact shape — a hierarchy of levels,
// each with its partition, modularity and inner-loop traces — so the
// quality benches (Fig. 4/5, Table III) can compare them row by row.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/timer.hpp"
#include "common/traffic.hpp"
#include "common/types.hpp"
#include "graph/edge_list.hpp"

namespace plv {

namespace core {
struct ParOptions;  // core/options.hpp
}

/// Why a level's inner refine loop ended.
enum class LevelStop {
  kNoPositiveGain,  // no vertex on any rank had a positive join gain
  kNoMoves,         // some gain was positive, but no vertex moved
  kStagnation,      // the stagnation window filled
  kIterationCap,    // max_inner_iterations ran out
};

[[nodiscard]] constexpr const char* level_stop_name(LevelStop stop) noexcept {
  switch (stop) {
    case LevelStop::kNoPositiveGain:
      return "no-positive-gain";
    case LevelStop::kNoMoves:
      return "no-moves";
    case LevelStop::kStagnation:
      return "stagnation";
    case LevelStop::kIterationCap:
      return "iteration-cap";
  }
  return "?";
}

/// Per-inner-iteration telemetry of one hierarchy level. `moved_fraction`
/// is the fraction of the level's vertices that changed community in that
/// iteration — the quantity the paper's Fig. 2 plots against iteration
/// number to motivate the exponential threshold. `stop` is always set;
/// the parallel engine always fills the per-iteration vectors, the
/// sequential one only when its options ask for a trace.
struct LevelTrace {
  LevelStop stop{LevelStop::kIterationCap};
  int iterations{0};  // inner iterations the level ran
  std::vector<double> moved_fraction;
  std::vector<double> modularity;  // after each inner iteration
  // Sequential-engine extra (only filled when SeqOptions::prune is on):
  std::vector<double> evaluated_fraction;  // vertices examined per sweep
  // Parallel engine extras (empty for the sequential baseline):
  std::vector<double> epsilon;         // ε(iter) used by the heuristic
  std::vector<double> gain_cutoff;     // the ΔQ̂ the histogram selected
  std::vector<double> find_seconds;    // FIND BEST COMMUNITY, per iteration
  std::vector<double> update_seconds;  // UPDATE COMMUNITY INFORMATION
  std::vector<double> prop_seconds;    // STATE PROPAGATION
  // Propagation records shipped per iteration, summed over ranks — the
  // delta-vs-full traffic evidence (full rebuild ships Σ|In_Table|).
  std::vector<std::uint64_t> prop_records;
  // Vertices whose join search FIND actually ran per iteration, summed
  // over ranks: the whole level, except at level 0 of an incremental
  // Session apply, where it is the live frontier.
  std::vector<std::uint64_t> scanned_vertices;
};

/// One hierarchy level (one outer-loop round).
struct LouvainLevel {
  vid_t num_vertices{0};           // vertex count of this level's graph
  std::size_t num_communities{0};  // communities found at this level
  std::vector<vid_t> labels;       // community per level-vertex, dense 0..k-1
  double modularity{0.0};
  double seconds{0.0};             // wall time of this level (refine + rebuild)
  // Communication volume of this level, summed over ranks (parallel engine
  // only; zero for the sequential baseline).
  TrafficStats traffic;
  LevelTrace trace;
};

/// Full run output. `final_labels[v]` is the top-level community of
/// original vertex v (the composition of all level partitions).
struct LouvainResult {
  std::vector<LouvainLevel> levels;
  std::vector<vid_t> final_labels;
  double final_modularity{0.0};
  PhaseTimers timers;

  [[nodiscard]] std::size_t num_levels() const noexcept { return levels.size(); }

  /// Labels of original vertices after `level + 1` coarsening rounds.
  [[nodiscard]] std::vector<vid_t> labels_at_level(std::size_t level) const {
    std::vector<vid_t> out(levels.empty() ? 0 : levels.front().labels.size());
    for (std::size_t v = 0; v < out.size(); ++v) {
      vid_t c = static_cast<vid_t>(v);
      for (std::size_t l = 0; l <= level && l < levels.size(); ++l) {
        c = levels[l].labels[c];
      }
      out[v] = c;
    }
    return out;
  }
};

/// Artifact of a parallel run (and the return type of plv::louvain): the
/// common hierarchy plus communication volume and runtime telemetry.
struct Result : LouvainResult {
  TrafficStats traffic;              // whole-run volume, summed over ranks
  std::vector<double> rank_seconds;  // per-rank wall time (incl. waits)
  std::string transport;             // pml backend that carried the run
};

/// Produces the edge-list slice a given rank contributes to the input
/// graph. Slices must partition the edge multiset (each undirected edge
/// in exactly one slice); vertex ids may reference any vertex.
using EdgeSliceFn = std::function<graph::EdgeList(int rank, int nranks)>;

/// One batch of edge updates against an evolving graph: removals are
/// processed first, then inserts are appended (so a batch may legally
/// re-insert an edge it removes, e.g. to change its weight). A removal
/// must name an existing record exactly — same unordered endpoints, same
/// weight — because edge lists carry parallel edges as separate records
/// and a removal retracts exactly one of them. `n_vertices` is an
/// optional floor on the resulting vertex count, the way isolated new
/// vertices (no incident edge yet) enter the graph.
struct EdgeDelta {
  graph::EdgeList inserts;
  graph::EdgeList removals;
  vid_t n_vertices{0};

  [[nodiscard]] bool empty() const noexcept {
    return inserts.empty() && removals.empty();
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return inserts.size() + removals.size();
  }
};

/// Rejects the edges the engine cannot carry: a vertex id at or above
/// kInvalidVid (the engine's "no vertex" sentinel, and 1 + that id
/// wraps to 0), and a weight modularity cannot carry — negative, NaN or
/// infinite (zero stays legal). Throws std::invalid_argument naming `who`
/// and the first such edge. The front doors call it on the caller's
/// thread before any rank starts; streamed slices, built inside the
/// ranks, are checked there and fail the fleet with the same message.
inline void require_valid_edges(const graph::EdgeList& edges, const char* who) {
  for (const Edge& e : edges) {
    const bool bad_id = e.u == kInvalidVid || e.v == kInvalidVid;
    if (!bad_id && std::isfinite(e.w) && e.w >= 0.0) continue;
    const std::string edge = std::string(who) + ": edge (" + std::to_string(e.u) + ", " +
                             std::to_string(e.v) + ")";
    throw std::invalid_argument(
        bad_id ? edge + " names vertex " + std::to_string(kInvalidVid) +
                     "; vertex ids must be below it"
               : edge + " has weight " + std::to_string(e.w) +
                     "; weights must be finite and non-negative");
  }
}

/// Applies `delta` to `edges` in place (removals first, then inserts,
/// both in batch order — deterministic, so every rank of a fleet that
/// applies the same batch holds byte-identical replicas). Returns the
/// resulting vertex count: max(list's own count, delta.n_vertices).
/// A removal matches a record with the same unordered endpoints and an
/// equal weight (`==`: +0.0 matches -0.0, NaN matches nothing), and takes
/// the first matching record, in list order, that no earlier removal of
/// the batch took. All or nothing: when a removal finds no record it
/// throws std::invalid_argument and leaves `edges` byte-identical to the
/// input.
inline vid_t apply_edge_delta(graph::EdgeList& edges, const EdgeDelta& delta) {
  auto& recs = edges.edges();
  const auto& removals = delta.removals.edges();
  if (!removals.empty()) {
    // One pass instead of one list scan per removal: the removals, sorted
    // by key and stably (batch order within a key), meet the records in
    // list order, so the k-th record with a key goes to the k-th removal
    // of that key in batch order — exactly what removing them one at a
    // time would pick.
    struct Want {
      vid_t lo;
      vid_t hi;
      std::uint64_t w;  // bit image of the weight, -0.0 folded into +0.0
      std::size_t order;
    };
    const auto want_of = [](const Edge& e, std::size_t order) {
      return Want{std::min(e.u, e.v), std::max(e.u, e.v),
                  std::bit_cast<std::uint64_t>(e.w == 0.0 ? 0.0 : e.w), order};
    };
    const auto key_less = [](const Want& a, const Want& b) {
      return std::tie(a.lo, a.hi, a.w) < std::tie(b.lo, b.hi, b.w);
    };
    std::vector<Want> want;
    want.reserve(removals.size());
    for (std::size_t i = 0; i < removals.size(); ++i) want.push_back(want_of(removals[i], i));
    std::stable_sort(want.begin(), want.end(), key_less);
    std::vector<std::size_t> taken(want.size(), 0);  // per key group, at its first slot
    std::vector<std::size_t> hits;                   // matched record positions, ascending
    hits.reserve(want.size());
    for (std::size_t p = 0; p < recs.size() && hits.size() < want.size(); ++p) {
      if (std::isnan(recs[p].w)) continue;
      const Want key = want_of(recs[p], 0);
      const auto it = std::lower_bound(want.begin(), want.end(), key, key_less);
      if (it == want.end() || key_less(key, *it)) continue;
      const auto group = static_cast<std::size_t>(it - want.begin());
      const std::size_t slot = group + taken[group];
      if (slot < want.size() && !key_less(*it, want[slot])) {
        ++taken[group];
        hits.push_back(p);
      }
    }
    if (hits.size() < want.size()) {
      // The removal that fails first in batch order: the earliest
      // unmatched one of any key group.
      std::size_t first = removals.size();
      for (std::size_t g = 0; g < want.size();) {
        std::size_t end = g + 1;
        while (end < want.size() && !key_less(want[g], want[end])) ++end;
        if (g + taken[g] < end) first = std::min(first, want[g + taken[g]].order);
        g = end;
      }
      const Edge& r = removals[first];
      throw std::invalid_argument(
          "apply_edge_delta: removal (" + std::to_string(r.u) + ", " +
          std::to_string(r.v) + ", w=" + std::to_string(r.w) +
          ") names no existing edge record");
    }
    // Order-preserving compaction around the matched records.
    std::size_t out = hits.front();
    std::size_t h = 0;
    for (std::size_t p = hits.front(); p < recs.size(); ++p) {
      if (h < hits.size() && hits[h] == p) {
        ++h;
        continue;
      }
      recs[out++] = recs[p];
    }
    recs.resize(out);
  }
  for (const Edge& e : delta.inserts) edges.add(e.u, e.v, e.w);
  return std::max(edges.vertex_count(), delta.n_vertices);
}

/// Normalizes a warm-start seed against the *current* vertex count:
/// vertices beyond the seed's length (new since the seed was taken) and
/// labels referencing vanished vertices (>= n, e.g. after the graph
/// shrank) become singletons. This is what lets a partition taken before
/// an EdgeDelta keep seeding refinement after it.
[[nodiscard]] inline std::vector<vid_t> normalize_warm_labels(std::vector<vid_t> labels,
                                                              vid_t n) {
  const auto old = labels.size();
  labels.resize(n);
  for (std::size_t v = old; v < labels.size(); ++v) labels[v] = static_cast<vid_t>(v);
  for (std::size_t v = 0; v < labels.size(); ++v) {
    if (labels[v] >= n) labels[v] = static_cast<vid_t>(v);
  }
  return labels;
}

/// Immutable, epoch-stamped view of a community partition — what
/// Session::snapshot() returns. Snapshots are versioned (epoch 0 is the
/// initial full run; each Session::apply publishes the next) and shared
/// by pointer: readers hold a consistent partition for as long as they
/// keep the shared_ptr, while the refine pipeline publishes newer epochs
/// without ever touching published ones.
struct LabelSnapshot {
  std::uint64_t epoch{0};
  vid_t n_vertices{0};
  std::size_t num_communities{0};
  double modularity{0.0};
  bool incremental{false};  // produced by dirty-region re-refine, not a cold rebuild
  std::vector<vid_t> labels;

  /// Community of vertex v; throws std::out_of_range for unknown ids.
  [[nodiscard]] vid_t community_of(vid_t v) const {
    if (v >= labels.size()) {
      throw std::out_of_range("LabelSnapshot: vertex " + std::to_string(v) +
                              " out of range (n = " + std::to_string(labels.size()) + ")");
    }
    return labels[v];
  }

  /// All vertices labeled `c`, ascending (empty for unknown communities).
  [[nodiscard]] std::vector<vid_t> community_members(vid_t c) const {
    std::vector<vid_t> members;
    for (std::size_t v = 0; v < labels.size(); ++v) {
      if (labels[v] == c) members.push_back(static_cast<vid_t>(v));
    }
    return members;
  }
};

/// What plv::louvain (and plv::Session) should run on — one of four
/// ingestion modes behind a single entry point:
///
///   from_edges       cold start on a materialized edge list;
///   from_edges_warm  same, but refinement starts from a previous run's
///                    partition instead of singletons (dynamic graphs);
///   from_deltas      a materialized base list plus one EdgeDelta batch,
///                    evaluated as if apply_edge_delta had already run —
///                    the cold-baseline view of a streamed update;
///   from_stream      distributed ingestion — no rank ever materializes
///                    the whole edge list; each generates its own slice.
///
/// Ownership: every factory returns a NON-OWNING VIEW. Each referenced
/// object must stay alive — and unmodified — until the louvain() call
/// returns or the Session constructor finishes (Session copies what it
/// needs at construction; louvain() reads the referents concurrently from
/// all ranks for the whole run). Per factory:
///
///   from_edges        borrows `edges`;
///   from_edges_warm   borrows `edges` and `initial_labels`;
///   from_deltas       borrows `base` and `delta`;
///   from_stream       borrows `slice_of` — beware binding a temporary
///                     lambda: EdgeSliceFn is a std::function, so
///                     `from_stream([](int, int){...}, n)` dangles the
///                     moment the full expression ends. Name it first.
///
/// A moved-from GraphSource is expired: using it throws std::logic_error
/// (see require_live) instead of dereferencing stale pointers — the
/// sentinel that turns the lifetime footgun into a clear error.
class GraphSource {
 public:
  [[nodiscard]] static GraphSource from_edges(const graph::EdgeList& edges,
                                              vid_t n_vertices = 0) {
    GraphSource s;
    s.edges_ = &edges;
    s.n_vertices_ = n_vertices;
    s.live_ = true;
    return s;
  }

  [[nodiscard]] static GraphSource from_edges_warm(const graph::EdgeList& edges,
                                                   const std::vector<vid_t>& initial_labels,
                                                   vid_t n_vertices = 0) {
    GraphSource s;
    s.edges_ = &edges;
    s.initial_labels_ = &initial_labels;
    s.n_vertices_ = n_vertices;
    s.live_ = true;
    return s;
  }

  [[nodiscard]] static GraphSource from_deltas(const graph::EdgeList& base,
                                               const EdgeDelta& delta,
                                               vid_t n_vertices = 0) {
    GraphSource s;
    s.edges_ = &base;
    s.delta_ = &delta;
    s.n_vertices_ = n_vertices;
    s.live_ = true;
    return s;
  }

  [[nodiscard]] static GraphSource from_stream(const EdgeSliceFn& slice_of,
                                               vid_t n_vertices) {
    GraphSource s;
    s.slice_of_ = &slice_of;
    s.n_vertices_ = n_vertices;
    s.live_ = true;
    return s;
  }

  // Copying a view is fine (both copies borrow the same referents); a
  // *move* expires the source so stale uses fail loudly instead of
  // reading dangling pointers.
  GraphSource(const GraphSource&) = default;
  GraphSource& operator=(const GraphSource&) = default;
  GraphSource(GraphSource&& other) noexcept { steal(other); }
  GraphSource& operator=(GraphSource&& other) noexcept {
    if (this != &other) steal(other);
    return *this;
  }

  /// True once this source has been moved from (or was never built by a
  /// factory). Expired sources throw on use.
  [[nodiscard]] bool expired() const noexcept { return !live_; }

  /// The sentinel every consumer calls before touching the referents:
  /// throws std::logic_error naming the calling entry point when the
  /// source is expired. Cheap enough to stay on in release builds.
  void require_live(const char* caller) const {
    if (!live_) {
      throw std::logic_error(std::string(caller) +
                             ": GraphSource is expired (moved-from). The factories "
                             "return non-owning views; build a fresh source from the "
                             "live edge list / labels instead of reusing a moved one.");
    }
  }

  [[nodiscard]] const graph::EdgeList* edges() const noexcept { return edges_; }
  [[nodiscard]] const std::vector<vid_t>* initial_labels() const noexcept {
    return initial_labels_;
  }
  [[nodiscard]] const EdgeDelta* delta() const noexcept { return delta_; }
  [[nodiscard]] const EdgeSliceFn* stream() const noexcept { return slice_of_; }
  [[nodiscard]] vid_t n_vertices() const noexcept { return n_vertices_; }

 private:
  GraphSource() = default;

  void steal(GraphSource& other) noexcept {
    edges_ = other.edges_;
    initial_labels_ = other.initial_labels_;
    delta_ = other.delta_;
    slice_of_ = other.slice_of_;
    n_vertices_ = other.n_vertices_;
    live_ = other.live_;
    other.edges_ = nullptr;
    other.initial_labels_ = nullptr;
    other.delta_ = nullptr;
    other.slice_of_ = nullptr;
    other.live_ = false;
  }

  const graph::EdgeList* edges_{nullptr};
  const std::vector<vid_t>* initial_labels_{nullptr};
  const EdgeDelta* delta_{nullptr};
  const EdgeSliceFn* slice_of_{nullptr};
  vid_t n_vertices_{0};
  bool live_{false};
};

/// The library front door: one call for cold, warm, and streamed parallel
/// community detection. Validates `opts` and the edge ids and weights of
/// a materialized input (require_valid_edges), resolves the transport
/// (ParOptions::transport, overridable via PLV_TRANSPORT), runs the
/// engine on opts.nranks ranks, and returns the full artifact — labels,
/// per-level modularity/traffic, phase timers, and the transport that
/// carried the run. Deterministic for fixed options and input, on every
/// transport. Defined in core/louvain_par.cpp.
[[nodiscard]] Result louvain(const GraphSource& graph, const core::ParOptions& opts);

/// Phase names matching the paper's Fig. 8 legend; both engines report
/// timings under these keys.
namespace phase {
inline constexpr const char* kStatePropagation = "STATE PROPAGATION";
inline constexpr const char* kFindBestCommunity = "FIND BEST COMMUNITY";
inline constexpr const char* kUpdateCommunity = "UPDATE COMMUNITY INFORMATION";
inline constexpr const char* kRefine = "REFINE";
inline constexpr const char* kGraphReconstruction = "GRAPH RECONSTRUCTION";
}  // namespace phase

}  // namespace plv
