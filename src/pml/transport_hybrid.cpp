// HybridTransport: thread-rank groups nested inside forked socket
// processes, and (at one rank per process) the proc backend.
//
// Shape: the fleet is cut into consecutive blocks of `ranks_per_proc`
// ranks. Each block is one OS process (group 0 is the calling process,
// so rank-0 result capture into caller-scope variables keeps working;
// groups 1..G-1 are forked children), and each rank inside a block is
// one thread of that process. Every rank owns a SocketFrameTransport by
// value over a pre-fork socketpair mesh — the full mesh, siblings
// included, so the collective plane, the fine-grained chunk plane, the
// abort plane, and the EOF failure detector are exactly the proc
// backend's, uniform across tiers. What the process adds is a shared
// group-local abort flag, checked beside the mesh's Abort frames.
#include "pml/transport_hybrid.hpp"

#include <stdio_ext.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/errno_util.hpp"
#include "common/sync.hpp"
#include "pml/comm.hpp"
#include "pml/transport.hpp"
#include "pml/transport_check.hpp"
#include "pml/transport_socket.hpp"

namespace plv::pml {

HybridOptions resolve_hybrid_options(HybridOptions requested) {
  // The env knob is read during single-threaded setup, before any worker
  // threads or forked children exist.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* rpp = std::getenv("PLV_RANKS_PER_PROC");
  if (rpp != nullptr && *rpp != '\0') {
    char* end = nullptr;
    const long v = std::strtol(rpp, &end, 10);
    if (end == rpp || *end != '\0' || v < 1 || v > 1 << 20) {
      throw std::invalid_argument(
          std::string("pml: PLV_RANKS_PER_PROC must be a positive integer, got '") +
          rpp + "'");
    }
    requested.ranks_per_proc = static_cast<int>(v);
  }
  if (requested.ranks_per_proc == 0) requested.ranks_per_proc = 2;
  return requested;
}

namespace detail {
namespace {

/// The group-local kill flag shared by the rank threads of one process.
/// A failing rank raises it beside its Abort frames; a rank whose
/// transport never came up has no frames to send, and this flag is how
/// its siblings learn of the failure.
struct HybridShared {
  std::atomic<bool> aborted{false};
};

class HybridTransport final : public Transport {
 public:
  /// `name` is the backend name the rank reports. `fds` is this rank's
  /// row of the global socketpair mesh (self -1; sibling lanes are real
  /// socketpairs too).
  HybridTransport(const char* name, int rank, int nranks, std::vector<int> fds,
                  HybridShared* shared)
      : socket_(name, rank, nranks, std::move(fds)), shared_(shared) {}

  [[nodiscard]] const char* name() const noexcept override { return socket_.name(); }
  [[nodiscard]] int rank() const noexcept override { return socket_.rank(); }
  [[nodiscard]] int nranks() const noexcept override { return socket_.nranks(); }

  // Both planes are pure delegation: every lane exists in the mesh
  // (siblings included), so the socket implementation is complete as-is.
  // Chunk pools stay per-rank and single-owner because even sibling sends
  // cross a socketpair.
  void barrier() override { socket_.barrier(); }
  void alltoallv(std::span<const std::span<const std::byte>> outgoing,
                 CollectiveSink& sink) override {
    socket_.alltoallv(outgoing, sink);
  }
  [[nodiscard]] Chunk* acquire_chunk(std::size_t reserve_bytes) override {
    return socket_.acquire_chunk(reserve_bytes);
  }
  void release_chunk(Chunk* chunk) noexcept override { socket_.release_chunk(chunk); }
  void send(int dest, Chunk* chunk) override { socket_.send(dest, chunk); }
  std::size_t drain(std::vector<Chunk*>& out) override { return socket_.drain(out); }
  void wait_incoming() override { socket_.wait_incoming(); }

  void raise_abort() noexcept override {
    // Siblings see the shared flag at their next abort point; every peer
    // gets the best-effort Abort frames (and, failing those, the EOF when
    // this transport destructs).
    shared_->aborted.store(true, std::memory_order_release);
    socket_.raise_abort();
  }
  [[nodiscard]] bool aborted() const noexcept override {
    return socket_.aborted() || shared_->aborted.load(std::memory_order_acquire);
  }

  void set_pool_watermark(std::size_t nodes) noexcept override {
    socket_.set_pool_watermark(nodes);
  }
  void trim_pool() noexcept override { socket_.trim_pool(); }
  [[nodiscard]] std::size_t pool_free_count() const noexcept override {
    return socket_.pool_free_count();
  }

  void finish() noexcept { socket_.finish(); }
  [[nodiscard]] const PeerFailure* peer_failure() const noexcept {
    return socket_.peer_failure();
  }

 private:
  SocketFrameTransport socket_;
  HybridShared* shared_;
};

/// One process's share of the run, parent and child sides alike.
struct GroupOutcome {
  int code{kExitClean};
  int failed_rank{-1};
  std::string error_text;
  std::exception_ptr exception;  // meaningful in the calling process only
};

GroupOutcome run_group(int group, int nranks, const std::function<void(Comm&)>& body,
                       bool validate, const HybridOptions& shape, const char* name,
                       const std::vector<std::vector<int>>& mesh) {
  const int base = group * shape.ranks_per_proc;
  const int count = std::min(shape.ranks_per_proc, nranks - base);
  HybridShared shared;
  // Loser ranks race to record the group's outcome; lowest failed rank
  // wins, see the merge below.
  struct {
    plv::Mutex mu;
    GroupOutcome out PLV_GUARDED_BY(mu);
  } outcome;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(count));
  for (int j = 0; j < count; ++j) {
    const int r = base + j;
    threads.emplace_back([&, r] {
      std::string error_text;
      std::exception_ptr exception;
      int code = kExitFailed;
      try {
        HybridTransport transport(name, r, nranks, mesh[static_cast<std::size_t>(r)],
                                  &shared);
        code = run_rank_body(transport, body, validate, error_text, &exception);
      } catch (const std::exception& e) {
        error_text = std::string("transport setup failed: ") + e.what();
        exception = std::current_exception();
        shared.aborted.store(true, std::memory_order_release);
      } catch (...) {
        error_text = "transport setup failed";
        exception = std::current_exception();
        shared.aborted.store(true, std::memory_order_release);
      }
      // Transport destructed above: this rank's lanes are closed, so
      // remote peers see Goodbye-then-EOF (clean) or bare EOF (failure).
      if (code == kExitClean) return;
      plv::MutexLock lock(outcome.mu);
      GroupOutcome& out = outcome.out;
      if (code == kExitFailed &&
          (out.code != kExitFailed || r < out.failed_rank)) {
        out.code = kExitFailed;
        out.failed_rank = r;
        out.error_text = error_text;
        out.exception = exception;
      } else if (out.code == kExitClean) {
        out.code = kExitAborted;
      }
    });
  }
  for (auto& t : threads) t.join();
  plv::MutexLock lock(outcome.mu);
  return std::move(outcome.out);
}

[[noreturn]] void hybrid_child_main(int group, int nranks,
                                    const std::function<void(Comm&)>& body, bool validate,
                                    const HybridOptions& shape, const char* name,
                                    const std::vector<std::vector<int>>& mesh,
                                    const std::vector<std::array<int, 2>>& status_pipes) {
  // Fork hygiene: drop stdio buffers copied from the parent so they are
  // never flushed twice, neuter SIGPIPE (socket writes use MSG_NOSIGNAL;
  // this covers the status pipe), keep only this group's mesh rows and
  // status write end.
  __fpurge(stdout);
  __fpurge(stderr);
  ::signal(SIGPIPE, SIG_IGN);
  const int base = group * shape.ranks_per_proc;
  const int end = std::min(base + shape.ranks_per_proc, nranks);
  for (int a = 0; a < nranks; ++a) {
    if (a >= base && a < end) continue;
    for (int b = 0; b < nranks; ++b) {
      const int fd = mesh[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)];
      if (fd >= 0) ::close(fd);
    }
  }
  for (std::size_t g = 0; g < status_pipes.size(); ++g) {
    const auto& sp = status_pipes[g];
    if (sp[0] >= 0) ::close(sp[0]);
    if (static_cast<int>(g) != group && sp[1] >= 0) ::close(sp[1]);
  }
  const int status_fd = status_pipes[static_cast<std::size_t>(group)][1];
  const GroupOutcome out = run_group(group, nranks, body, validate, shape, name, mesh);
  if (out.code == kExitFailed) {
    // "<failed rank>\n<error text>": the parent parses the rank back out
    // so RemoteRankError names the actual thread rank, not just the
    // group.
    const std::string payload =
        std::to_string(out.failed_rank) + "\n" +
        (out.error_text.empty() ? std::string("unknown failure") : out.error_text);
    write_all(status_fd, payload.data(), payload.size());
  }
  ::close(status_fd);
  // _exit, not exit: no atexit handlers, no stdio flush — the parent owns
  // those. The transports already closed their lanes (EOF).
  ::_exit(out.code);
}

}  // namespace

void run_hybrid_ranks(int nranks, const std::function<void(Comm&)>& body, bool validate,
                      const HybridOptions& shape_in, const char* name) {
  HybridOptions shape = shape_in;
  if (shape.ranks_per_proc > nranks) shape.ranks_per_proc = nranks;
  const int ngroups = (nranks + shape.ranks_per_proc - 1) / shape.ranks_per_proc;
  const auto n = static_cast<std::size_t>(nranks);

  // Full mesh of stream socketpairs, sibling lanes included: mesh[a][b]
  // is rank a's endpoint of the (a, b) lane. Created before the first
  // fork; every process closes the rows that are not its own.
  std::vector<std::vector<int>> mesh(n, std::vector<int>(n, -1));
  std::vector<std::array<int, 2>> status_pipes(static_cast<std::size_t>(ngroups),
                                               {-1, -1});
  auto close_all = [&]() noexcept {
    for (auto& row : mesh) {
      for (int& fd : row) {
        if (fd >= 0) ::close(fd);
        fd = -1;
      }
    }
    for (auto& sp : status_pipes) {
      for (int& fd : sp) {
        if (fd >= 0) ::close(fd);
        fd = -1;
      }
    }
  };
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      int sv[2];
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
        const int err = errno;
        close_all();
        throw std::runtime_error(std::string("pml: socketpair failed: ") +
                                 plv::errno_str(err));
      }
      mesh[i][j] = sv[0];
      mesh[j][i] = sv[1];
    }
  }
  for (int g = 1; g < ngroups; ++g) {
    if (::pipe(status_pipes[static_cast<std::size_t>(g)].data()) != 0) {
      const int err = errno;
      close_all();
      throw std::runtime_error(std::string("pml: pipe failed: ") + plv::errno_str(err));
    }
  }

  std::fflush(nullptr);
  std::vector<pid_t> pids(static_cast<std::size_t>(ngroups), -1);
  for (int g = 1; g < ngroups; ++g) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      hybrid_child_main(g, nranks, body, validate, shape, name, mesh, status_pipes);
    }
    if (pid < 0) {
      const int err = errno;
      close_all();
      for (int q = 1; q < g; ++q) {
        int st = 0;
        ::waitpid(pids[static_cast<std::size_t>(q)], &st, 0);
      }
      throw std::runtime_error(std::string("pml: fork failed: ") + plv::errno_str(err));
    }
    pids[static_cast<std::size_t>(g)] = pid;
  }

  // Parent keeps group 0's rows and the status read ends.
  const std::size_t parent_end =
      static_cast<std::size_t>(std::min(shape.ranks_per_proc, nranks));
  for (std::size_t a = parent_end; a < n; ++a) {
    for (int& fd : mesh[a]) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
  }
  for (int g = 1; g < ngroups; ++g) {
    ::close(status_pipes[static_cast<std::size_t>(g)][1]);
    status_pipes[static_cast<std::size_t>(g)][1] = -1;
  }

  // Run group 0's ranks as threads of this process.
  const GroupOutcome parent = run_group(0, nranks, body, validate, shape, name, mesh);
  // All parent-group transports are destructed: children see our EOFs.

  // Harvest children: error text first (EOF-delimited), then exit status.
  std::vector<int> group_code(static_cast<std::size_t>(ngroups), kExitClean);
  std::vector<int> group_rank(static_cast<std::size_t>(ngroups), -1);
  std::vector<std::string> group_error(static_cast<std::size_t>(ngroups));
  for (int g = 1; g < ngroups; ++g) {
    const auto gi = static_cast<std::size_t>(g);
    std::string text;
    char buf[4096];
    for (;;) {
      const ssize_t k = ::read(status_pipes[gi][0], buf, sizeof(buf));
      if (k > 0) {
        text.append(buf, static_cast<std::size_t>(k));
        continue;
      }
      if (k < 0 && errno == EINTR) continue;
      break;
    }
    ::close(status_pipes[gi][0]);
    status_pipes[gi][0] = -1;
    int st = 0;
    pid_t rc = 0;
    do {
      rc = ::waitpid(pids[gi], &st, 0);
    } while (rc < 0 && errno == EINTR);
    const int leader = g * shape.ranks_per_proc;
    if (rc < 0) {
      group_code[gi] = kExitFailed;
      group_rank[gi] = leader;
      group_error[gi] = std::string("waitpid failed: ") + plv::errno_str(errno);
    } else if (WIFEXITED(st)) {
      group_code[gi] = WEXITSTATUS(st);
      group_rank[gi] = leader;
      if (group_code[gi] == kExitFailed) {
        // Parse "<failed rank>\n<error text>" back apart; a payload
        // without the separator (e.g. a pre-pipe crash) keeps the text
        // and attributes the failure to the group leader.
        const std::size_t cut = text.find('\n');
        if (cut != std::string::npos) {
          const std::string head = text.substr(0, cut);
          char* endp = nullptr;
          const long r = std::strtol(head.c_str(), &endp, 10);
          if (endp != head.c_str() && *endp == '\0' && r >= 0 && r < nranks) {
            group_rank[gi] = static_cast<int>(r);
            text.erase(0, cut + 1);
          }
        }
        group_error[gi] = text.empty() ? "unknown failure" : text;
      }
    } else {
      // Signal death takes the whole group of thread ranks with it; the
      // leader rank stands in for the group in the report.
      group_code[gi] = kExitFailed;
      group_rank[gi] = leader;
      group_error[gi] = describe_wait_status(st);
    }
  }

  // The calling process's own failing rank wins (exception type
  // preserved); otherwise the lowest failing remote group reports.
  if (parent.code == kExitFailed && parent.exception) {
    std::rethrow_exception(parent.exception);
  }
  for (int g = 1; g < ngroups; ++g) {
    const auto gi = static_cast<std::size_t>(g);
    if (group_code[gi] == kExitFailed) {
      throw RemoteRankError(group_rank[gi], group_error[gi].empty() ? "unknown failure"
                                                                    : group_error[gi]);
    }
  }
  for (int g = 1; g < ngroups; ++g) {
    const auto gi = static_cast<std::size_t>(g);
    if (group_code[gi] != kExitClean && group_code[gi] != kExitAborted) {
      throw RemoteRankError(group_rank[gi], "group exited with unexpected status " +
                                                std::to_string(group_code[gi]));
    }
  }
  if (parent.code == kExitAborted ||
      std::any_of(group_code.begin(), group_code.end(),
                  [](int c) { return c == kExitAborted; })) {
    throw AbortedError();
  }
}

}  // namespace detail
}  // namespace plv::pml
