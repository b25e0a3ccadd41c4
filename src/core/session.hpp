// plv::Session — the long-lived streaming front door.
//
// A Session keeps a whole fleet resident: the ranks spawned at
// construction stay alive (threads, forked processes, TCP mesh peers, or
// hybrid groups — whatever ParOptions::transport selects), each holding
// its replica of the edge list, its slice of the level-0 In_Table, and
// the current composed partition. apply(EdgeDelta) patches the In_Table
// in place and re-refines only the disturbed region (StreamingPlan
// controls the cold-rebuild cadence); snapshot() hands out immutable
// epoch-stamped partitions that readers keep for as long as they like,
// without ever blocking an in-flight apply. A batch that removes an edge
// the graph does not hold, or inserts a negative, NaN or infinite weight
// or the vertex id kInvalidVid, is rejected whole: apply() throws
// std::invalid_argument, the fleet stays up, and the next valid batch
// publishes the next epoch with no gap.
//
// How the fleet stays warm: every pml transport runs rank 0 inside the
// calling process (threads trivially; proc/tcp/hybrid fork only ranks
// 1..n-1), so rank 0's body doubles as the command pump — it blocks on
// the Session's queue, then broadcasts each command to the peers through
// ordinary Comm collectives. Peers spend idle time parked in that
// broadcast; no transport is torn down between batches.
//
// Threading contract: apply()/close() serialize against each other;
// snapshot()/query()/community_members()/epoch() may be called from any
// thread at any time (they take the queue mutex only for a pointer copy,
// never for the duration of a refine).
#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/louvain.hpp"
#include "common/sync.hpp"
#include "core/options.hpp"

namespace plv {

namespace pml {
class Comm;
}  // namespace pml

namespace core::detail {

/// One queued fleet command. kApply carries the delta; kShutdown ends the
/// rank bodies (and thereby the fleet).
struct SessionCommand {
  enum class Kind : std::uint32_t { kApply = 1, kShutdown = 2 };
  Kind kind{Kind::kApply};
  EdgeDelta delta;
  std::uint64_t seq{0};
};

/// State shared between the Session handle (user threads) and rank 0 of
/// the resident fleet. Only the rank-0 process ever touches the mutex /
/// condition variable / snapshot slot; forked peers see a copy-on-write
/// image of the init fields and learn everything else through Comm
/// broadcasts.
struct SessionShared {
  // Immutable after construction (read by every rank, including forked
  // children via the pre-fork memory image).
  graph::EdgeList init_edges;
  std::vector<vid_t> init_labels;  // empty = cold initial run
  const EdgeSliceFn* init_stream{nullptr};
  vid_t init_n{0};
  core::ParOptions opts;

  // Command queue + completion signalling (rank-0 process only). `mu`
  // guards everything below it; the fields above are frozen before the
  // fleet spawns and need no capability.
  plv::Mutex mu;
  plv::CondVar cv;
  bool has_command PLV_GUARDED_BY(mu){false};
  SessionCommand command PLV_GUARDED_BY(mu);
  std::uint64_t completed PLV_GUARDED_BY(mu){0};  // epoch of the latest published snapshot
  // Why the fleet rejected the in-flight batch (set instead of publishing
  // an epoch; Session::apply consumes it).
  std::optional<std::string> rejection PLV_GUARDED_BY(mu);
  bool dead PLV_GUARDED_BY(mu){false};
  std::exception_ptr error PLV_GUARDED_BY(mu);

  // Latest published snapshot. Publication contract: the rank-0 pump
  // builds the LabelSnapshot outside any lock, then swaps this
  // shared_ptr and bumps `completed` under `mu` (release side); readers
  // copy the pointer under the same `mu` (acquire side) and use the
  // immutable snapshot lock-free from then on. The mutex hand-off is the
  // only release/acquire edge a reader needs — everything reachable from
  // `snap` was written before the publish-side unlock.
  std::shared_ptr<const LabelSnapshot> snap PLV_GUARDED_BY(mu);
};

/// The SPMD body every rank of the resident fleet runs; defined in
/// louvain_par.cpp next to the engine it drives.
void session_rank_body(::plv::pml::Comm& comm, SessionShared& shared);

}  // namespace core::detail

class Session {
 public:
  /// Spawns the fleet, runs the initial full detection on `source`
  /// (cold, warm-seeded, delta-composed, or streamed — any GraphSource
  /// mode), and publishes epoch 0 before returning. The source's
  /// referents are only borrowed for the duration of the constructor:
  /// the Session copies the edge list (or gathers the stream's slices)
  /// into fleet-resident state.
  ///
  /// Requirements checked here: a multi-host TCP fleet can only be driven
  /// from its rank-0 process, edge weights must be finite and
  /// non-negative, and vertex ids must be below kInvalidVid (a streamed
  /// source's slices are checked inside the fleet).
  Session(const GraphSource& source, const core::ParOptions& opts);

  /// Shuts the fleet down (close()) if still running.
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Applies one batch of edge updates and blocks until the new epoch is
  /// published, returning its snapshot. A batch with a removal that names
  /// no existing edge record, or an insert whose weight is negative, NaN
  /// or infinite or that names vertex kInvalidVid, is rejected whole:
  /// apply throws std::invalid_argument,
  /// the graph and the served snapshot stay as they were, and the next
  /// valid batch publishes the previous epoch + 1.
  /// Any other failure kills the fleet: apply rethrows it, and after that
  /// only close() remains useful.
  std::shared_ptr<const LabelSnapshot> apply(const EdgeDelta& batch);

  /// Latest published snapshot (never null after construction). Readers
  /// keep the returned pointer as long as they like; in-flight applies
  /// publish new epochs without touching it.
  [[nodiscard]] std::shared_ptr<const LabelSnapshot> snapshot() const;

  /// Epoch of the latest published snapshot (0 = initial run).
  [[nodiscard]] std::uint64_t epoch() const;

  /// Community of vertex v in the latest snapshot.
  [[nodiscard]] vid_t query(vid_t v) const;

  /// Members of community c in the latest snapshot, ascending.
  [[nodiscard]] std::vector<vid_t> community_members(vid_t c) const;

  /// Stops the fleet and joins it. Idempotent; called by the destructor.
  void close();

 private:
  std::shared_ptr<const LabelSnapshot> wait_for_epoch(std::uint64_t seq);

  std::unique_ptr<core::detail::SessionShared> shared_;
  std::thread fleet_;
  plv::Mutex apply_mu_;  // serializes apply()/close() callers
  // seq of the last batch the fleet accepted (a rejected batch reuses its seq)
  std::uint64_t submitted_ PLV_GUARDED_BY(apply_mu_){0};
  bool closed_ PLV_GUARDED_BY(apply_mu_){false};
};

}  // namespace plv
