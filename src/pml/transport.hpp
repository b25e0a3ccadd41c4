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
//   SocketFrameTransport (transport_socket.hpp) — rank = thread of a
//     forked process (hybrid; the proc backend at one rank per process)
//     or a process on a TCP mesh across hosts (tcp). Everything crosses
//     stream sockets as length-prefixed frames; collectives are
//     serialized and recombined in rank order so results stay
//     bit-identical with the thread backend.
//
// Every backend carries the same flat protocol: each collective is one
// rank-order alltoallv over all ranks, and each fine-grained phase ends
// with one marker per (source, destination) lane. Thread ranks sharing a
// process still talk to each other through the seam like any two ranks.
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

#include <cstddef>
#include <cstdlib>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace plv::pml {

class Chunk;  // mailbox.hpp

/// Thrown out of collectives and blocking waits on every surviving rank
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

  // -- Abort plane --------------------------------------------------------
  virtual void raise_abort() noexcept = 0;
  [[nodiscard]] virtual bool aborted() const noexcept = 0;

  // -- Chunk-pool controls (phase-boundary hygiene) -----------------------
  /// Trims the free list to kChunkPoolWatermark. Called by Comm at
  /// fine-grained phase boundaries. Backends are noexcept; the
  /// ValidatingTransport decorator additionally audits chunk ownership
  /// here and throws ProtocolError on a leak.
  virtual void trim_pool() = 0;
  [[nodiscard]] virtual std::size_t pool_free_count() const noexcept = 0;
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
