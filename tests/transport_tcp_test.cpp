// TCP backend fault injection and option plumbing.
//
// Three layers under test:
//
//  - parse_host_list / resolve_tcp_options / run_tcp_ranks shape checks:
//    every malformed host list or rank/hosts combination must be rejected
//    with an actionable message before any socket is opened.
//
//  - The frame pump's torn-stream handling, driven directly over a raw
//    socketpair (transport_socket.hpp documents this use): a frame
//    truncated mid-header or mid-payload must surface as a recorded
//    PeerFailure naming the peer, its endpoint, and the exact truncation
//    point — never a silent retry into a desynced stream. A goodbye
//    followed by EOF is the one clean shutdown.
//
//  - Whole-fleet fault injection on real loopback TCP: a rank SIGKILLed
//    mid-exchange, a listener that never comes up, and a forged handshake
//    (bad version / bad magic) must each unwind the survivors within the
//    fail-fast deadline with RemoteRankError naming the dead endpoint.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstring>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "pml/comm.hpp"
#include "pml/transport_socket.hpp"
#include "pml/transport_tcp.hpp"
#include "transport_param.hpp"

namespace plv::pml {
namespace {

using namespace std::chrono_literals;

/// See pml_failfast_test.cpp: on timeout the future is leaked on purpose —
/// its destructor would join the hung run and wedge the test binary.
[[nodiscard]] bool finished_in_time(std::future<void>& fut,
                                    std::chrono::seconds deadline) {
  if (fut.wait_for(deadline) == std::future_status::ready) return true;
  new std::future<void>(std::move(fut));
  return false;
}

/// A free loopback port, reserved while the object lives. The socket
/// stays bound with SO_REUSEADDR and never listens, so no other process's
/// bind(:0) or connect() is handed the port before the transport listens
/// on it; the transport's listener also sets SO_REUSEADDR and shares the
/// port. (A port released right after it was read back could be handed
/// to a concurrent test process in that window.)
class ReservedPort {
 public:
  ReservedPort() : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    EXPECT_GE(fd_, 0);
    const int one = 1;
    EXPECT_EQ(::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)), 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    port_ = ntohs(addr.sin_port);
  }
  ~ReservedPort() { ::close(fd_); }
  ReservedPort(const ReservedPort&) = delete;
  ReservedPort& operator=(const ReservedPort&) = delete;

  [[nodiscard]] std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(port_);
  }

 private:
  int fd_;
  std::uint16_t port_{0};
};

// ---------------------------------------------------------------------------
// Host list and option plumbing.

TEST(TcpHostList, ParsesAndTrimsEntries) {
  const auto hosts = parse_host_list(" a:1 , b.example.com:65535,127.0.0.1:7000");
  ASSERT_EQ(hosts.size(), 3u);
  EXPECT_EQ(hosts[0], "a:1");
  EXPECT_EQ(hosts[1], "b.example.com:65535");
  EXPECT_EQ(hosts[2], "127.0.0.1:7000");
}

TEST(TcpHostList, RejectsMalformedEntries) {
  EXPECT_THROW((void)parse_host_list(""), std::invalid_argument);
  EXPECT_THROW((void)parse_host_list("a:1,,b:2"), std::invalid_argument);
  EXPECT_THROW((void)parse_host_list("no-port"), std::invalid_argument);
  EXPECT_THROW((void)parse_host_list(":7000"), std::invalid_argument);
  EXPECT_THROW((void)parse_host_list("a:port"), std::invalid_argument);
  EXPECT_THROW((void)parse_host_list("a:0"), std::invalid_argument);
  EXPECT_THROW((void)parse_host_list("a:70000"), std::invalid_argument);
}

TEST(TcpHostList, ErrorNamesTheOffendingEntry) {
  try {
    (void)parse_host_list("good:1,bad");
    FAIL() << "expected rejection";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("entry 1"), std::string::npos) << what;
    EXPECT_NE(what.find("'bad'"), std::string::npos) << what;
    EXPECT_NE(what.find("host:port"), std::string::npos) << what;
  }
}

TEST(TcpOptionsEnv, HostsAndRankOverrideConfiguredValues) {
  setenv("PLV_HOSTS", "10.0.0.1:7000, 10.0.0.2:7000", 1);
  setenv("PLV_RANK", "1", 1);
  TcpOptions configured;
  configured.hosts = {"stale:1"};
  configured.self_rank = 0;
  const TcpOptions resolved = resolve_tcp_options(configured);
  unsetenv("PLV_HOSTS");
  unsetenv("PLV_RANK");
  ASSERT_EQ(resolved.hosts.size(), 2u);
  EXPECT_EQ(resolved.hosts[0], "10.0.0.1:7000");
  EXPECT_EQ(resolved.hosts[1], "10.0.0.2:7000");
  EXPECT_EQ(resolved.self_rank, 1);
}

TEST(TcpOptionsEnv, NonNumericRankIsRejected) {
  setenv("PLV_RANK", "banana", 1);
  EXPECT_THROW((void)resolve_tcp_options({}), std::invalid_argument);
  unsetenv("PLV_RANK");
}

TEST(TcpRunShape, RankWithoutHostListIsRejected) {
  TcpOptions opt;
  opt.self_rank = 0;
  try {
    detail::run_tcp_ranks(2, [](Comm&) {}, false, opt);
    FAIL() << "expected rejection";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("no host list"), std::string::npos)
        << e.what();
  }
}

TEST(TcpRunShape, HostCountMustMatchRankCount) {
  TcpOptions opt;
  opt.hosts = {"a:1", "b:2"};
  opt.self_rank = 0;
  EXPECT_THROW(detail::run_tcp_ranks(3, [](Comm&) {}, false, opt),
               std::invalid_argument);
}

TEST(TcpRunShape, SelfRankMustIndexTheHostList) {
  TcpOptions opt;
  opt.hosts = {"a:1", "b:2"};
  opt.self_rank = 5;
  EXPECT_THROW(detail::run_tcp_ranks(2, [](Comm&) {}, false, opt),
               std::invalid_argument);
}

TEST(TcpRunShape, ConnectTimeoutMustBePositive) {
  TcpOptions opt;
  opt.connect_timeout_ms = 0;
  EXPECT_THROW(detail::run_tcp_ranks(2, [](Comm&) {}, false, opt),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Torn-stream regression tests: the pump over a raw socketpair, with the
// test playing a peer that dies mid-frame. A truncated frame must be
// recorded (and the lane closed), never silently retried.

/// One transport lane (this side plays rank 0, the test socket plays rank
/// 1 at a labeled endpoint) plus the test's raw end of the pair.
struct SeveredLane {
  detail::SocketFrameTransport transport;
  int peer_fd;
};

[[nodiscard]] SeveredLane make_lane() {
  int sv[2] = {-1, -1};
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  return {detail::SocketFrameTransport("tcp", 0, 2, {-1, sv[1]},
                                       {"", "10.0.0.9:7001"}),
          sv[0]};
}

TEST(TcpTornStream, SeveredMidHeaderRecordsTruncationPoint) {
  auto lane = make_lane();
  detail::FrameHeader h{};
  h.kind = detail::kFrameData;
  h.payload_bytes = 100;
  ASSERT_EQ(::send(lane.peer_fd, &h, 16, 0), 16);  // half a header, then death
  ::close(lane.peer_fd);
  lane.transport.wait_incoming();
  EXPECT_TRUE(lane.transport.aborted());
  const auto* failure = lane.transport.peer_failure();
  ASSERT_NE(failure, nullptr);
  EXPECT_EQ(failure->rank, 1);
  EXPECT_EQ(failure->endpoint, "10.0.0.9:7001");
  EXPECT_NE(failure->detail.find("16 of 32 header bytes"), std::string::npos)
      << failure->detail;
}

TEST(TcpTornStream, SeveredMidPayloadRecordsTruncationPoint) {
  auto lane = make_lane();
  detail::FrameHeader h{};
  h.kind = detail::kFrameData;
  h.payload_bytes = 100;
  h.epoch = 7;
  ASSERT_EQ(::send(lane.peer_fd, &h, sizeof(h), 0),
            static_cast<ssize_t>(sizeof(h)));
  const std::vector<char> partial(40, 'x');
  ASSERT_EQ(::send(lane.peer_fd, partial.data(), partial.size(), 0), 40);
  ::close(lane.peer_fd);
  lane.transport.wait_incoming();
  EXPECT_TRUE(lane.transport.aborted());
  const auto* failure = lane.transport.peer_failure();
  ASSERT_NE(failure, nullptr);
  EXPECT_EQ(failure->rank, 1);
  EXPECT_NE(failure->detail.find("40 of 100 payload bytes"), std::string::npos)
      << failure->detail;
  EXPECT_NE(failure->detail.find("epoch 7"), std::string::npos) << failure->detail;
}

TEST(TcpTornStream, OversizedLengthPrefixIsDesyncNotAllocation) {
  auto lane = make_lane();
  detail::FrameHeader h{};
  h.kind = detail::kFrameData;
  h.payload_bytes = detail::kMaxFramePayload + 1;
  ASSERT_EQ(::send(lane.peer_fd, &h, sizeof(h), 0),
            static_cast<ssize_t>(sizeof(h)));
  lane.transport.wait_incoming();
  EXPECT_TRUE(lane.transport.aborted());
  const auto* failure = lane.transport.peer_failure();
  ASSERT_NE(failure, nullptr);
  EXPECT_NE(failure->detail.find("desynced stream"), std::string::npos)
      << failure->detail;
  ::close(lane.peer_fd);
}

TEST(TcpTornStream, UnknownFrameKindIsDesync) {
  auto lane = make_lane();
  detail::FrameHeader h{};
  h.kind = 99;
  ASSERT_EQ(::send(lane.peer_fd, &h, sizeof(h), 0),
            static_cast<ssize_t>(sizeof(h)));
  lane.transport.wait_incoming();
  EXPECT_TRUE(lane.transport.aborted());
  const auto* failure = lane.transport.peer_failure();
  ASSERT_NE(failure, nullptr);
  EXPECT_NE(failure->detail.find("unknown frame kind 99"), std::string::npos)
      << failure->detail;
  ::close(lane.peer_fd);
}

TEST(TcpTornStream, EofWithoutGoodbyeIsAFailure) {
  auto lane = make_lane();
  ::close(lane.peer_fd);  // peer vanishes between frames
  lane.transport.wait_incoming();
  EXPECT_TRUE(lane.transport.aborted());
  const auto* failure = lane.transport.peer_failure();
  ASSERT_NE(failure, nullptr);
  EXPECT_NE(failure->detail.find("between frames, without goodbye"),
            std::string::npos)
      << failure->detail;
}

TEST(TcpTornStream, ResetWithoutGoodbyeIsAClosedConnection) {
  // A peer that dies with unread bytes in its socket resets the stream:
  // the survivor's recv fails with ECONNRESET instead of returning EOF.
  // Both are the same dead peer and must get the same diagnosis.
  int sv[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const char byte = 0;
  ASSERT_EQ(::send(sv[1], &byte, 1, 0), 1);  // queued at the peer, never read
  ::close(sv[0]);
  detail::SocketFrameTransport transport("tcp", 0, 2, {-1, sv[1]}, {"", "10.0.0.9:7001"});
  transport.wait_incoming();
  EXPECT_TRUE(transport.aborted());
  const auto* failure = transport.peer_failure();
  ASSERT_NE(failure, nullptr);
  EXPECT_EQ(failure->rank, 1);
  EXPECT_NE(failure->detail.find("connection closed"), std::string::npos) << failure->detail;
  EXPECT_NE(failure->detail.find("between frames, without goodbye"), std::string::npos)
      << failure->detail;
}

TEST(TcpTornStream, GoodbyeThenEofIsCleanShutdown) {
  auto lane = make_lane();
  detail::FrameHeader h{};
  h.kind = detail::kFrameGoodbye;
  ASSERT_EQ(::send(lane.peer_fd, &h, sizeof(h), 0),
            static_cast<ssize_t>(sizeof(h)));
  ::close(lane.peer_fd);
  // drain(), not wait_incoming(): with every lane retired and nothing
  // queued, a *blocking* wait can never make progress and aborts by
  // design; the non-blocking pump observes the goodbye + EOF as-is.
  std::vector<Chunk*> out;
  EXPECT_EQ(lane.transport.drain(out), 0u);
  EXPECT_FALSE(lane.transport.aborted());
  EXPECT_EQ(lane.transport.peer_failure(), nullptr);
}

// ---------------------------------------------------------------------------
// Whole-fleet fault injection on real loopback TCP.

TEST(TcpFaultInjection, KilledRankUnwindsFleetNamingItsEndpoint) {
  PLV_SKIP_IF_UNSUPPORTED(TransportKind::kTcp);
  auto fut = std::async(std::launch::async, [] {
    Runtime::run(
        4,
        [](Comm& comm) {
          comm.barrier();  // mesh is up and exchanging before the kill
          if (comm.rank() == 2) std::raise(SIGKILL);
          for (int i = 0; i < 1'000'000; ++i) comm.barrier();
        },
        TransportKind::kTcp, /*validate=*/false);
  });
  // The ISSUE's fail-fast bound: survivors unwind within 5 seconds.
  ASSERT_TRUE(finished_in_time(fut, 5s)) << "fleet hung after SIGKILL";
  try {
    fut.get();
    FAIL() << "expected RemoteRankError";
  } catch (const RemoteRankError& e) {
    EXPECT_EQ(e.rank, 2);
    EXPECT_NE(e.endpoint.find("127.0.0.1:"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("killed by signal 9"), std::string::npos)
        << e.what();
  }
}

TEST(TcpFaultInjection, SingleRankModeReportsDeadPeerEndpoint) {
  PLV_SKIP_IF_UNSUPPORTED(TransportKind::kTcp);
  const ReservedPort port0;
  const ReservedPort port1;
  const std::vector<std::string> hosts = {port0.endpoint(), port1.endpoint()};
  // Rank 1 lives in a forked process (fork *before* the async thread) and
  // kills itself after the first barrier.
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    ::signal(SIGPIPE, SIG_IGN);
    TcpOptions opt;
    opt.hosts = hosts;
    opt.self_rank = 1;
    try {
      detail::run_tcp_ranks(
          2,
          [](Comm& comm) {
            comm.barrier();
            std::raise(SIGKILL);
          },
          false, opt);
    } catch (...) {
    }
    ::_exit(0);
  }
  auto fut = std::async(std::launch::async, [&hosts] {
    TcpOptions opt;
    opt.hosts = hosts;
    opt.self_rank = 0;
    detail::run_tcp_ranks(
        2,
        [](Comm& comm) {
          for (int i = 0; i < 1'000'000; ++i) comm.barrier();
        },
        false, opt);
  });
  const bool done = finished_in_time(fut, 10s);
  int st = 0;
  ::waitpid(pid, &st, 0);
  ASSERT_TRUE(done) << "survivor hung after peer SIGKILL";
  try {
    fut.get();
    FAIL() << "expected RemoteRankError";
  } catch (const RemoteRankError& e) {
    // Single-rank mode has only the wire: the survivor upgrades the
    // observed EOF to a report naming rank 1's configured endpoint.
    EXPECT_EQ(e.rank, 1);
    EXPECT_EQ(e.endpoint, hosts[1]) << e.what();
    EXPECT_NE(std::string(e.what()).find("connection closed"), std::string::npos)
        << e.what();
  }
}

TEST(TcpFaultInjection, ListenerNeverComesUpTimesOutPromptly) {
  const ReservedPort port0;  // reserved, but nothing ever listens on it
  const ReservedPort port1;
  const std::vector<std::string> hosts = {port0.endpoint(), port1.endpoint()};
  auto fut = std::async(std::launch::async, [&hosts] {
    TcpOptions opt;
    opt.hosts = hosts;
    opt.self_rank = 1;
    opt.connect_timeout_ms = 800;
    detail::run_tcp_ranks(2, [](Comm&) {}, false, opt);
  });
  ASSERT_TRUE(finished_in_time(fut, 10s)) << "connect retry never timed out";
  try {
    fut.get();
    FAIL() << "expected RemoteRankError";
  } catch (const RemoteRankError& e) {
    EXPECT_EQ(e.rank, 0);
    EXPECT_EQ(e.endpoint, hosts[0]) << e.what();
    EXPECT_NE(std::string(e.what()).find("connect timed out"), std::string::npos)
        << e.what();
  }
}

/// Starts rank 0 of a would-be 2-rank fleet, connects a raw socket to its
/// listener, sends the forged handshake, and returns what rank 0 threw.
void expect_handshake_rejection(const detail::TcpHandshake& forged,
                                const std::string& expected_text) {
  const ReservedPort port0;
  const ReservedPort port1;
  const std::vector<std::string> hosts = {port0.endpoint(), port1.endpoint()};
  auto fut = std::async(std::launch::async, [&hosts] {
    TcpOptions opt;
    opt.hosts = hosts;
    opt.self_rank = 0;
    detail::run_tcp_ranks(2, [](Comm&) {}, false, opt);
  });
  // Rank 0's listener comes up asynchronously; retry the connect briefly.
  int fd = -1;
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port =
      htons(static_cast<std::uint16_t>(std::stoi(hosts[0].substr(10))));
  while (std::chrono::steady_clock::now() < deadline) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      break;
    }
    ::close(fd);
    fd = -1;
    std::this_thread::sleep_for(50ms);
  }
  ASSERT_GE(fd, 0) << "rank 0's listener never accepted";
  ASSERT_EQ(::send(fd, &forged, sizeof(forged), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(forged)));
  ASSERT_TRUE(finished_in_time(fut, 10s)) << "rank 0 hung on a bad handshake";
  ::close(fd);
  try {
    fut.get();
    FAIL() << "expected handshake rejection";
  } catch (const RemoteRankError& e) {
    EXPECT_NE(std::string(e.what()).find(expected_text), std::string::npos)
        << e.what();
  }
}

TEST(TcpFaultInjection, HandshakeVersionMismatchIsRejected) {
  detail::TcpHandshake forged{};
  forged.magic = detail::kTcpHandshakeMagic;
  forged.version = detail::kTcpProtocolVersion + 7;
  forged.rank = 1;
  forged.world = 2;
  expect_handshake_rejection(forged, "protocol version mismatch");
}

TEST(TcpFaultInjection, HandshakeBadMagicIsRejected) {
  detail::TcpHandshake forged{};
  forged.magic = 0xDEADBEEF;
  forged.version = detail::kTcpProtocolVersion;
  forged.rank = 1;
  forged.world = 2;
  expect_handshake_rejection(forged, "bad magic");
}

}  // namespace
}  // namespace plv::pml
