// Socket-process backends (implementation in transport_hybrid.cpp).
//
// Declared separately so comm.hpp can dispatch Runtime::run to the hybrid
// and proc backends without pulling the POSIX machinery into every
// translation unit. The substrate nests the thread tier inside the socket
// tier: the fleet is split into groups of `ranks_per_proc` consecutive
// ranks, each group is one forked process hosting its ranks as threads,
// and every rank owns a SocketFrameTransport over a pre-fork socketpair
// mesh that carries both planes — siblings in one process talk over it
// like any two ranks, so Comm runs the same flat collectives and
// quiescence protocol as on every other backend. The proc backend is this
// shape at one rank per process. Both run on detail::run_fleet, the one
// socket-process launcher, which the tcp loopback fleet shares.
#pragma once

#include <functional>
#include <string>
#include <vector>

namespace plv::pml {

class Comm;

/// Shape of a hybrid run. `ranks_per_proc` consecutive ranks share one
/// forked process (the last group may be ragged when it does not divide
/// nranks); 0 = auto (PLV_RANKS_PER_PROC, else 2).
struct HybridOptions {
  int ranks_per_proc{0};  ///< thread ranks per forked process; 0 = auto
};

/// Applies the PLV_RANKS_PER_PROC environment override (if set and
/// non-empty) on top of the configured options, and resolves
/// ranks_per_proc 0 to its default of 2 — same precedence rule as
/// resolve_transport, so one environment re-targets a whole binary.
[[nodiscard]] HybridOptions resolve_hybrid_options(HybridOptions requested);

namespace detail {

/// Runs `body` on every rank of a socketpair fleet: run_fleet (see
/// transport_socket.hpp) over a full socketpair mesh, with
/// `shape.ranks_per_proc` rank threads per process. `shape` is taken as
/// given (callers apply resolve_hybrid_options where the environment
/// should count) and `name` is the backend name the ranks report.
void run_hybrid_ranks(int nranks, const std::function<void(Comm&)>& body, bool validate,
                      const HybridOptions& shape, const char* name);

}  // namespace detail
}  // namespace plv::pml
