// The transport seam of the messaging layer.
//
// Comm (comm.hpp) implements the whole public pml API — collectives,
// fine-grained sends, counted-termination quiescence, fail-fast abort —
// once, over the small primitive set below. A Transport binds those
// primitives to a concrete rank substrate:
//
//   ThreadTransport (transport_thread.hpp) — rank = thread. The default.
//     Collectives publish span pointers through shared slots (zero
//     serialization), fine-grained sends hand pooled chunk pointers to the
//     destination's mailbox (zero copy).
//   HybridTransport (transport_hybrid.cpp) — rank = thread of a forked
//     process; the proc backend runs it at one rank per process.
//     Everything crosses Unix-domain stream sockets as length-prefixed
//     frames; collectives are serialized and recombined in rank order so
//     results stay bit-identical with the thread backend.
//
// Contract highlights every backend must honor:
//   * alltoallv() is synchronizing and delivers peer payloads to the sink
//     in ascending source-rank order — the determinism guarantee all
//     rank-order reductions build on.
//   * send() preserves per-(source, destination) FIFO order, and a chunk
//     handed to send() is owned by the transport afterwards. The
//     quiescence protocol depends on data preceding its end-of-phase
//     marker on each lane. A control chunk may carry a payload (the
//     streaming exchange fuses each lane's marker into its last data
//     chunk): backends must ship the control flag, control_records, and
//     the payload bytes of one chunk together.
//   * barrier()/alltoallv()/wait_incoming() are abort points: once any
//     rank raises the abort flag they wake and (the collectives) throw
//     AbortedError instead of waiting on a dead peer.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace plv::pml {

class Chunk;  // mailbox.hpp

/// Locality description of a rank fleet: ranks are partitioned into
/// groups of consecutive global ranks, one group per locality tier
/// instance (thread ranks inside a process, processes on a host). Each
/// group's *leader* is its lowest global rank — leader election is
/// deterministic and needs no communication. Because groups are
/// consecutive-rank blocks, ordering by (group, rank_in_group) IS global
/// rank order: hierarchical combines that walk groups ascending and
/// members ascending reproduce the flat rank-order combine bit for bit.
struct Topology {
  int nranks{1};
  int ngroups{1};
  int group{0};          ///< this rank's group index
  int rank_in_group{0};  ///< this rank's position inside its group
  int group_size{1};     ///< size of this rank's own group
  int leader{0};         ///< global rank of this rank's group leader
  /// Global rank of each group's leader, ascending (leaders[g] is also
  /// the first rank of group g, since groups are consecutive blocks).
  std::vector<int> leaders{0};

  [[nodiscard]] bool is_leader() const noexcept { return rank_in_group == 0; }
  /// Every rank its own group: the flat fallback where hierarchical
  /// collectives degenerate to the plain ones.
  [[nodiscard]] bool trivial() const noexcept { return ngroups == nranks; }

  [[nodiscard]] int group_of(int r) const {
    assert(r >= 0 && r < nranks);
    const auto it = std::upper_bound(leaders.begin(), leaders.end(), r);
    return static_cast<int>(it - leaders.begin()) - 1;
  }
  [[nodiscard]] int group_begin(int g) const { return leaders[static_cast<std::size_t>(g)]; }
  [[nodiscard]] int group_count(int g) const {
    const int end = g + 1 < ngroups ? leaders[static_cast<std::size_t>(g) + 1] : nranks;
    return end - leaders[static_cast<std::size_t>(g)];
  }

  /// The trivial topology over n ranks (singleton groups).
  [[nodiscard]] static Topology flat(int n) {
    Topology t;
    t.nranks = n;
    t.ngroups = n;
    t.leaders.resize(static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) t.leaders[static_cast<std::size_t>(r)] = r;
    return t;
  }

  /// Consecutive blocks of `ranks_per_group` (the last group may be
  /// ragged), described from rank `self`'s point of view.
  [[nodiscard]] static Topology blocks(int n, int ranks_per_group, int self) {
    assert(ranks_per_group >= 1 && self >= 0 && self < n);
    Topology t;
    t.nranks = n;
    t.ngroups = (n + ranks_per_group - 1) / ranks_per_group;
    t.leaders.clear();
    for (int g = 0; g < t.ngroups; ++g) t.leaders.push_back(g * ranks_per_group);
    t.group = self / ranks_per_group;
    t.rank_in_group = self % ranks_per_group;
    t.leader = t.group * ranks_per_group;
    t.group_size = t.group_count(t.group);
    return t;
  }
};

/// Thrown out of collectives and blocking polls on every surviving rank
/// once a peer has failed. Rank bodies normally let it propagate; the
/// Runtime swallows it and rethrows the originating rank's exception.
struct AbortedError : std::runtime_error {
  AbortedError() : std::runtime_error("pml: peer rank failed; run aborted") {}
};

/// Failure of a rank running in another process (or on another host).
/// Exception *types* cannot cross a process boundary, so the socket
/// backends re-raise non-local failures as this wrapper carrying the
/// originating rank, its endpoint when the mesh knows one (TCP host:port;
/// empty for anonymous socketpair lanes), and the original what() text.
/// (Rank 0 runs in the calling process and keeps its type.)
struct RemoteRankError : std::runtime_error {
  RemoteRankError(int failed_rank, const std::string& message)
      : RemoteRankError(failed_rank, message, std::string()) {}
  RemoteRankError(int failed_rank, const std::string& message,
                  const std::string& failed_endpoint)
      : std::runtime_error(
            "pml: rank " + std::to_string(failed_rank) +
            (failed_endpoint.empty() ? std::string() : " (" + failed_endpoint + ")") +
            " failed: " + message),
        rank(failed_rank),
        endpoint(failed_endpoint) {}
  int rank;
  std::string endpoint;
};

/// Receiver side of a collective: the transport calls deliver() exactly
/// once per source rank, in ascending rank order, with that rank's payload
/// for this rank. total_hint() (optional to act on) arrives first with the
/// summed payload size, so sinks can reserve exactly.
class CollectiveSink {
 public:
  virtual ~CollectiveSink() = default;
  virtual void total_hint(std::size_t /*bytes*/) {}
  virtual void deliver(int source, std::span<const std::byte> bytes) = 0;
};

/// The primitive set Comm is written against. All methods are called from
/// the owning rank only; thread-safety across ranks is the backend's
/// problem (mailbox CAS for threads, sockets for processes).
class Transport {
 public:
  Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;
  virtual ~Transport() = default;

  [[nodiscard]] virtual const char* name() const noexcept = 0;
  [[nodiscard]] virtual int rank() const noexcept = 0;
  [[nodiscard]] virtual int nranks() const noexcept = 0;

  // -- Collective plane ---------------------------------------------------
  /// Synchronizing rendezvous; throws AbortedError if the run is aborted.
  virtual void barrier() = 0;

  /// `outgoing` has nranks() entries; outgoing[d] is this rank's payload
  /// for rank d (spans must stay valid and unmodified until return).
  /// Delivers every peer's payload for this rank via `sink`, ascending by
  /// source rank. Synchronizing; throws AbortedError on abort.
  virtual void alltoallv(std::span<const std::span<const std::byte>> outgoing,
                         CollectiveSink& sink) = 0;

  // -- Fine-grained plane -------------------------------------------------
  /// Chunk nodes come from this rank's pool; see mailbox.hpp for the
  /// zero-copy recycling discipline.
  [[nodiscard]] virtual Chunk* acquire_chunk(std::size_t reserve_bytes) = 0;
  /// Not noexcept at the seam: concrete backends never throw (and declare
  /// their overrides noexcept), but the ValidatingTransport decorator
  /// throws ProtocolError on a double release.
  virtual void release_chunk(Chunk* chunk) = 0;

  /// Queues `chunk` for delivery to rank `dest` (FIFO per source-dest
  /// pair; self-sends allowed). Ownership transfers to the transport at
  /// the call — including when the send throws (an aborted send disposes
  /// of the chunk); callers must drop their pointer first.
  virtual void send(int dest, Chunk* chunk) = 0;

  /// Takes every chunk currently deliverable to this rank, appending to
  /// `out` (ownership transfers to the caller). Non-blocking.
  virtual std::size_t drain(std::vector<Chunk*>& out) = 0;

  /// Blocks until drain() would return something or the run is aborted.
  virtual void wait_incoming() = 0;

  // -- Hierarchical plane (topology-aware backends override) --------------
  /// The fleet's locality description. The default is the trivial
  /// (flat) topology — every rank its own group — under which Comm keeps
  /// using the flat collectives and quiescence protocol unchanged.
  [[nodiscard]] virtual const Topology& topology() const {
    if (static_cast<int>(flat_topology_.nranks) != nranks()) {
      flat_topology_ = Topology::flat(nranks());
    }
    return flat_topology_;
  }

  /// Intra-group alltoallv over the shared-memory tier. `outgoing` has
  /// topology().group_size entries indexed by rank-in-group; delivery is
  /// ascending by *global* source rank, group members only. Synchronizes
  /// the group. The flat default (singleton groups) is a self-delivery.
  virtual void group_alltoallv(std::span<const std::span<const std::byte>> outgoing,
                               CollectiveSink& sink) {
    assert(outgoing.size() == 1);
    sink.total_hint(outgoing[0].size());
    sink.deliver(rank(), outgoing[0]);
  }

  /// Inter-group alltoallv among group leaders only. `outgoing` has
  /// topology().ngroups entries indexed by group; delivery is ascending
  /// by source *group index* (sink's `source` is a group index, not a
  /// rank). Callable from leaders only. With the trivial topology the
  /// group index IS the rank, so the flat default forwards to alltoallv.
  virtual void leader_alltoallv(std::span<const std::span<const std::byte>> outgoing,
                                CollectiveSink& sink) {
    alltoallv(outgoing, sink);
  }

  /// Phase-boundary hook: Comm's hierarchical quiescence protocol closes
  /// exchange epochs by counting (no per-lane markers), so it tells the
  /// transport here when epoch `next_epoch` begins. Backends that track
  /// per-lane epoch state (the ValidatingTransport checker) advance it;
  /// everyone else ignores the call.
  virtual void epoch_advance(std::uint64_t next_epoch) { (void)next_epoch; }

  // -- Abort plane --------------------------------------------------------
  virtual void raise_abort() noexcept = 0;
  [[nodiscard]] virtual bool aborted() const noexcept = 0;

  // -- Chunk-pool controls (phase-boundary hygiene) -----------------------
  virtual void set_pool_watermark(std::size_t nodes) noexcept = 0;
  /// Called by Comm at fine-grained phase boundaries. Backends are
  /// noexcept; the ValidatingTransport decorator additionally audits
  /// chunk ownership here and throws ProtocolError on a leak.
  virtual void trim_pool() = 0;
  [[nodiscard]] virtual std::size_t pool_free_count() const noexcept = 0;

 private:
  /// Lazily-built cache backing the flat topology() default (mutable so
  /// the const accessor can size it on first use; per-rank object, no
  /// cross-thread access).
  mutable Topology flat_topology_{};
};

/// Backend selector, settable per run (core::ParOptions::transport, CLI
/// --transport) and overridable globally via the PLV_TRANSPORT environment
/// variable (resolve_transport).
enum class TransportKind {
  kThread,  ///< thread-per-rank, shared memory (default)
  kProc,    ///< process-per-rank over Unix-domain sockets (hybrid, 1 rank/proc)
  kTcp,     ///< process-per-rank over a TCP mesh (multi-host capable)
  kHybrid,  ///< thread groups nested inside forked socket processes
};

[[nodiscard]] inline const char* transport_kind_name(TransportKind kind) noexcept {
  switch (kind) {
    case TransportKind::kProc:
      return "proc";
    case TransportKind::kTcp:
      return "tcp";
    case TransportKind::kHybrid:
      return "hybrid";
    case TransportKind::kThread:
      break;
  }
  return "thread";
}

[[nodiscard]] inline TransportKind parse_transport_kind(std::string_view text) {
  if (text == "thread" || text == "threads") return TransportKind::kThread;
  if (text == "proc" || text == "process" || text == "processes") {
    return TransportKind::kProc;
  }
  if (text == "tcp") return TransportKind::kTcp;
  if (text == "hybrid") return TransportKind::kHybrid;
  throw std::invalid_argument("pml: unknown transport '" + std::string(text) +
                              "' (valid: thread, proc, tcp, hybrid)");
}

/// Applies the PLV_TRANSPORT environment override (if set and non-empty)
/// on top of the configured `requested` backend. The env wins so a whole
/// test binary or bench can be re-run over another transport without
/// touching every call site (the CI proc leg does exactly that).
[[nodiscard]] inline TransportKind resolve_transport(TransportKind requested) {
  // Read during single-threaded setup, before the fleet spawns.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* env = std::getenv("PLV_TRANSPORT");
  if (env != nullptr && *env != '\0') return parse_transport_kind(env);
  return requested;
}

}  // namespace plv::pml
