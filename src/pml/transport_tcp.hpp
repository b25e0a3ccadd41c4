// TCP multi-host launcher (implementation in transport_tcp.cpp).
//
// Declared separately so comm.hpp can dispatch Runtime::run to the TCP
// backend without pulling the POSIX/socket machinery into every
// translation unit. The frame protocol itself is the shared
// SocketFrameTransport (transport_socket.hpp); this layer owns the mesh
// establishment: endpoint mapping, listen/connect split, handshake, and
// the two launch modes.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace plv::pml {

class Comm;

/// How a TCP run finds its peers. Two modes:
///
///   Loopback self-test fleet (self_rank < 0, hosts empty): the caller
///     binds nranks ephemeral listeners on 127.0.0.1 and runs the proc
///     backend's launcher over them — rank 0 as a thread of the calling
///     process, ranks 1..n-1 as forked children, one rank per process. No
///     configuration needed; this is what CI and `PLV_TRANSPORT=tcp` use
///     on one machine.
///
///   Multi-host single rank (self_rank >= 0): this process IS one rank of
///     a fleet whose endpoints are `hosts` (one "host:port" per rank, the
///     same list on every host — index = rank). Rank r binds hosts[r]'s
///     port, accepts connections from ranks > r, connects to ranks < r,
///     and verifies every lane with a handshake frame. The caller (e.g.
///     `plouvain detect --transport tcp --rank R --hosts ...`) launches
///     one such process per host.
struct TcpOptions {
  std::vector<std::string> hosts;  ///< "host:port" per rank; empty = loopback fleet
  int self_rank{-1};               ///< this process's rank, or -1 = loopback fleet
  int connect_timeout_ms{5000};    ///< mesh-establishment deadline (and fail-fast bound)
};

/// Splits a "host:port,host:port,..." list (as taken by --hosts and
/// PLV_HOSTS). Validates shape only — each entry must be non-empty and
/// contain a ':' with a numeric port in [1, 65535]; name resolution
/// happens at connect time. Throws std::invalid_argument on a malformed
/// entry, naming it.
[[nodiscard]] std::vector<std::string> parse_host_list(const std::string& text);

/// Applies the PLV_HOSTS / PLV_RANK environment overrides (if set and
/// non-empty) on top of the configured options — same precedence rule as
/// resolve_transport, so one environment re-targets a whole binary.
[[nodiscard]] TcpOptions resolve_tcp_options(TcpOptions requested);

namespace detail {

/// The TCP handshake: the first 32 bytes on every fresh lane, both
/// directions. The magic is byte-order-asymmetric, so a mixed-endian (or
/// non-plv) peer fails the handshake loudly instead of desyncing the
/// frame stream; the acceptor validates rank/world/version before
/// replying — a rejected connector sees the lane close, never a reply.
/// Public (in detail) so the fault-injection tests can forge frames.
struct TcpHandshake {
  std::uint32_t magic;
  std::uint32_t version;
  std::uint32_t rank;
  std::uint32_t world;
  std::uint8_t reserved[16];
};
static_assert(sizeof(TcpHandshake) == 32);

inline constexpr std::uint32_t kTcpHandshakeMagic = 0x706C5631;  // 'p''L''V''1'
inline constexpr std::uint32_t kTcpProtocolVersion = 1;

/// Runs `body` on every rank of a TCP mesh per `tcp` (see TcpOptions for
/// the two modes). Fail-fast is the proc backend's: the first failing
/// rank aborts the fleet, and the loopback fleet re-raises a child's
/// failure as RemoteRankError carrying its endpoint. With `validate`,
/// each rank's transport is wrapped in a ValidatingTransport. In
/// single-rank mode `nranks` must equal hosts.size(); only this process's
/// rank runs here, and the body's exceptions propagate directly.
void run_tcp_ranks(int nranks, const std::function<void(Comm&)>& body, bool validate,
                   const TcpOptions& tcp);

}  // namespace detail
}  // namespace plv::pml
