// Socket-process launcher (implementation in transport_hybrid.cpp).
//
// Declared separately so comm.hpp can dispatch Runtime::run to the hybrid
// and proc backends without pulling the POSIX machinery into every
// translation unit. The substrate nests the thread tier inside the socket
// tier: the fleet is split into groups of `ranks_per_proc` consecutive
// ranks, each group is one forked process hosting its ranks as threads,
// and every rank owns a SocketFrameTransport over a pre-fork socketpair
// mesh for the fine-grained plane. The group tier adds a shared-memory
// collective plane (span slots + a pump-aware group barrier), and the
// transport publishes the non-trivial Topology that switches Comm onto
// the two-level hierarchical collectives. The proc backend is this
// launcher at one rank per process, whose singleton groups publish the
// flat topology.
#pragma once

#include <functional>
#include <string>
#include <vector>

namespace plv::pml {

class Comm;

/// Shape of a hybrid run. `ranks_per_proc` consecutive ranks share one
/// forked process (the last group may be ragged when it does not divide
/// nranks); 0 = auto (PLV_RANKS_PER_PROC, else 2). `flat_collectives`
/// keeps the composed substrate but reports the trivial topology, so Comm
/// stays on the flat collectives/quiescence protocol — the A/B baseline
/// the hierarchical path is benchmarked against (PLV_FLAT_COLLECTIVES=1
/// forces it).
struct HybridOptions {
  int ranks_per_proc{0};        ///< thread ranks per forked process; 0 = auto
  bool flat_collectives{false}; ///< report a trivial topology (A/B baseline)
};

/// Applies the PLV_RANKS_PER_PROC / PLV_FLAT_COLLECTIVES environment
/// overrides (if set and non-empty) on top of the configured options, and
/// resolves ranks_per_proc 0 to its default of 2 — same precedence rule
/// as resolve_transport, so one environment re-targets a whole binary.
[[nodiscard]] HybridOptions resolve_hybrid_options(HybridOptions requested);

namespace detail {

/// Runs `body` on every rank of a socket-process fleet: forked group
/// processes (group 0's ranks run as threads of the caller, so rank-0
/// result capture into caller-scope variables keeps working) with
/// `shape.ranks_per_proc` rank threads each, wired by a full socketpair
/// mesh. `shape` is taken as given (callers apply resolve_hybrid_options
/// where the environment should count) and `name` is the backend name the
/// ranks report. Fail-fast: the first failing rank aborts the fleet; its
/// error text (and, for a rank of the calling process, its exception
/// type) is re-raised on the caller — as RemoteRankError naming the
/// failed rank when the failure happened in a child. With `validate`,
/// each rank's transport is wrapped in a ValidatingTransport.
void run_hybrid_ranks(int nranks, const std::function<void(Comm&)>& body, bool validate,
                      const HybridOptions& shape, const char* name);

}  // namespace detail
}  // namespace plv::pml
