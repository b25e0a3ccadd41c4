// run_fleet: the one socket-process launcher. The proc and hybrid
// backends and the tcp loopback fleet all fork through it.
//
// Shape: the fleet is cut into consecutive blocks of `ranks_per_proc`
// ranks. Each block is one OS process (group 0 is the calling process,
// so rank-0 result capture into caller-scope variables keeps working;
// groups 1..G-1 are forked children), and each rank inside a block is
// one thread of that process. Every rank owns a SocketFrameTransport
// over a full mesh, siblings included, so the collective plane, the
// fine-grained chunk plane, the abort plane, and the EOF failure detector
// are the same on every shape. What a process adds is a group-local
// abort flag, checked beside the mesh's Abort frames.
//
// Lanes are data (FleetLanes): proc and hybrid hand over a pre-fork
// socketpair mesh (run_hybrid_ranks below); the tcp loopback fleet hands
// over one listener per rank and wires each rank's row after the fork.
//
// Failure report: each rank's outcome is a kExit* code, each process
// reports its first cause, and the caller raises the first cause of the
// whole fleet (transport_socket.hpp orders the codes). Children ship
// "<rank>\n<what()>" over a status pipe; a signal death names the
// group's leader rank.
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
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/errno_util.hpp"
#include "pml/comm.hpp"
#include "pml/transport.hpp"
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

void close_fds(std::vector<int>& fds) noexcept {
  for (int& fd : fds) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
}

/// Writes the whole buffer, best effort (status-pipe path).
void write_all(int fd, const char* data, std::size_t len) noexcept {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t k = ::write(fd, data + off, len - off);
    if (k > 0) {
      off += static_cast<std::size_t>(k);
      continue;
    }
    if (k < 0 && errno == EINTR) continue;
    return;
  }
}

/// Decodes a waitpid() status into diagnosable text: exit codes stay
/// numeric, signals are named (WTERMSIG + strsignal), and a core dump is
/// noted — so a fault-injection failure reads "killed by signal 9
/// (Killed)" instead of a raw wait status.
[[nodiscard]] std::string describe_wait_status(int status) {
  if (WIFEXITED(status)) {
    return "exited with status " + std::to_string(WEXITSTATUS(status));
  }
  if (WIFSIGNALED(status)) {
    const int sig = WTERMSIG(status);
    const char* name = ::strsignal(sig);
    std::string text = "killed by signal " + std::to_string(sig);
    if (name != nullptr) {
      text += " (";
      text += name;
      text += ")";
    }
#ifdef WCOREDUMP
    if (WCOREDUMP(status)) text += ", core dumped";
#endif
    return text;
  }
  return "unrecognized wait status " + std::to_string(status);
}

/// One rank's share of the run, or the first cause of one process.
struct Outcome {
  int code{kExitClean};
  int rank{-1};
  std::string error_text;
  std::exception_ptr exception;  // meaningful in the calling process only
};

/// Position of an exit code in a failure report (see the kExit* codes).
[[nodiscard]] int report_order(int code) {
  switch (code) {
    case kExitFailed:
      return 0;
    case kExitFailedAfterAbort:
      return 1;
    case kExitAborted:
      return 2;
    default:
      return 3;
  }
}

/// The outcome that reports for `outcomes`: the first in report order,
/// ties to the earliest entry (callers list the calling process first,
/// then ascending ranks).
[[nodiscard]] const Outcome& first_cause(const std::vector<Outcome>& outcomes) {
  return *std::min_element(outcomes.begin(), outcomes.end(),
                           [](const Outcome& a, const Outcome& b) {
                             return report_order(a.code) < report_order(b.code);
                           });
}

/// Runs one process's ranks as threads and returns its first cause. Each
/// rank thread takes its own held row and writes its own outcome slot.
Outcome run_group(int group, int nranks, const std::function<void(Comm&)>& body,
                  bool validate, int ranks_per_proc, const char* name, FleetLanes& lanes) {
  const int base = group * ranks_per_proc;
  const int count = std::min(ranks_per_proc, nranks - base);
  std::atomic<bool> group_abort{false};
  std::vector<Outcome> slots(static_cast<std::size_t>(count));
  std::vector<std::thread> threads;
  threads.reserve(slots.size());
  for (int j = 0; j < count; ++j) {
    threads.emplace_back([&, j] {
      const int r = base + j;
      Outcome& out = slots[static_cast<std::size_t>(j)];
      out.rank = r;
      try {
        std::vector<int> held = std::move(lanes.held[static_cast<std::size_t>(r)]);
        std::vector<int> fds =
            lanes.wire ? lanes.wire(r, std::move(held)) : std::move(held);
        SocketFrameTransport transport(name, r, nranks, std::move(fds), lanes.endpoints,
                                       &group_abort);
        out.code = run_rank_body(transport, body, validate, out.error_text, &out.exception);
      } catch (const std::exception& e) {
        out.code = kExitFailed;
        out.error_text = std::string("transport setup failed: ") + e.what();
        out.exception = std::current_exception();
        group_abort.store(true, std::memory_order_release);
      } catch (...) {
        out.code = kExitFailed;
        out.error_text = "transport setup failed";
        out.exception = std::current_exception();
        group_abort.store(true, std::memory_order_release);
      }
      // Transport destructed above: this rank's lanes are closed, so
      // remote peers see Goodbye-then-EOF (clean) or bare EOF (failure).
    });
  }
  for (auto& t : threads) t.join();
  return first_cause(slots);
}

[[noreturn]] void child_main(int group, int nranks, const std::function<void(Comm&)>& body,
                             bool validate, int ranks_per_proc, const char* name,
                             FleetLanes& lanes,
                             const std::vector<std::array<int, 2>>& status_pipes) {
  // Fork hygiene: drop stdio buffers copied from the parent so they are
  // never flushed twice, neuter SIGPIPE (socket writes use MSG_NOSIGNAL;
  // this covers the status pipe), keep only this group's held rows and
  // status write end.
  __fpurge(stdout);
  __fpurge(stderr);
  ::signal(SIGPIPE, SIG_IGN);
  const int base = group * ranks_per_proc;
  const int end = std::min(base + ranks_per_proc, nranks);
  for (int a = 0; a < nranks; ++a) {
    if (a < base || a >= end) close_fds(lanes.held[static_cast<std::size_t>(a)]);
  }
  for (std::size_t g = 0; g < status_pipes.size(); ++g) {
    const auto& sp = status_pipes[g];
    if (sp[0] >= 0) ::close(sp[0]);
    if (static_cast<int>(g) != group && sp[1] >= 0) ::close(sp[1]);
  }
  const int status_fd = status_pipes[static_cast<std::size_t>(group)][1];
  const Outcome out = run_group(group, nranks, body, validate, ranks_per_proc, name, lanes);
  if (out.code == kExitFailed || out.code == kExitFailedAfterAbort) {
    // "<failed rank>\n<error text>": the parent parses the rank back out
    // so RemoteRankError names the actual thread rank, not just the
    // group.
    const std::string payload =
        std::to_string(out.rank) + "\n" +
        (out.error_text.empty() ? std::string("unknown failure") : out.error_text);
    write_all(status_fd, payload.data(), payload.size());
  }
  ::close(status_fd);
  // _exit, not exit: no atexit handlers, no stdio flush — the parent owns
  // those. The transports already closed their lanes (EOF).
  ::_exit(out.code);
}

/// Reads a child group's status pipe to EOF (closing it), reaps the
/// child, and returns its first cause. `leader` is the group's lowest
/// rank.
Outcome harvest_group(pid_t pid, int status_fd, int leader, int nranks) {
  Outcome out;
  out.rank = leader;
  std::string text;
  char buf[4096];
  for (;;) {
    const ssize_t k = ::read(status_fd, buf, sizeof(buf));
    if (k > 0) {
      text.append(buf, static_cast<std::size_t>(k));
      continue;
    }
    if (k < 0 && errno == EINTR) continue;
    break;
  }
  ::close(status_fd);
  int st = 0;
  pid_t rc = 0;
  do {
    rc = ::waitpid(pid, &st, 0);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    out.code = kExitFailed;
    out.error_text = std::string("waitpid failed: ") + plv::errno_str(errno);
    return out;
  }
  const int code = WIFEXITED(st) ? WEXITSTATUS(st) : -1;
  if (code == kExitClean || code == kExitAborted) {
    out.code = code;
    return out;
  }
  if (code == kExitFailed || code == kExitFailedAfterAbort) {
    // Parse "<failed rank>\n<error text>" back apart; a payload without a
    // valid rank keeps its text and the leader.
    out.code = code;
    const std::size_t cut = text.find('\n');
    if (cut != std::string::npos) {
      char* endp = nullptr;
      const long r = std::strtol(text.c_str(), &endp, 10);
      if (endp == text.c_str() + cut && r >= leader && r < nranks) {
        out.rank = static_cast<int>(r);
        text.erase(0, cut + 1);
      }
    }
    out.error_text = text.empty() ? "unknown failure" : text;
    return out;
  }
  // A signal death (or an exit status no rank body returns) takes the
  // whole group of thread ranks with it; the leader rank stands in for
  // the group in the report.
  out.code = kExitFailed;
  out.error_text = describe_wait_status(st);
  return out;
}

}  // namespace

void run_fleet(int nranks, const std::function<void(Comm&)>& body, bool validate,
               int ranks_per_proc, const char* name, FleetLanes lanes) {
  ranks_per_proc = std::min(ranks_per_proc, nranks);
  const int ngroups = (nranks + ranks_per_proc - 1) / ranks_per_proc;
  std::vector<std::array<int, 2>> status_pipes(static_cast<std::size_t>(ngroups),
                                               {-1, -1});
  auto close_all = [&]() noexcept {
    for (auto& row : lanes.held) close_fds(row);
    for (auto& sp : status_pipes) {
      for (int& fd : sp) {
        if (fd >= 0) ::close(fd);
        fd = -1;
      }
    }
  };
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
      child_main(g, nranks, body, validate, ranks_per_proc, name, lanes, status_pipes);
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

  // The calling process keeps group 0's rows and the status read ends.
  for (std::size_t a = static_cast<std::size_t>(ranks_per_proc); a < lanes.held.size();
       ++a) {
    close_fds(lanes.held[a]);
  }
  for (int g = 1; g < ngroups; ++g) {
    ::close(status_pipes[static_cast<std::size_t>(g)][1]);
  }

  std::vector<Outcome> outcomes(static_cast<std::size_t>(ngroups));
  outcomes[0] = run_group(0, nranks, body, validate, ranks_per_proc, name, lanes);
  // All of group 0's transports are destructed: children see our EOFs.
  for (int g = 1; g < ngroups; ++g) {
    const auto gi = static_cast<std::size_t>(g);
    outcomes[gi] = harvest_group(pids[gi], status_pipes[gi][0], g * ranks_per_proc, nranks);
  }

  const Outcome& report = first_cause(outcomes);
  if (report.code == kExitClean) return;
  if (report.code == kExitAborted) throw AbortedError();
  if (report.exception) std::rethrow_exception(report.exception);
  const auto ri = static_cast<std::size_t>(report.rank);
  throw RemoteRankError(report.rank, report.error_text,
                        ri < lanes.endpoints.size() ? lanes.endpoints[ri] : std::string());
}

void run_hybrid_ranks(int nranks, const std::function<void(Comm&)>& body, bool validate,
                      const HybridOptions& shape, const char* name) {
  // Full mesh of stream socketpairs, sibling lanes included: held[a][b]
  // is rank a's endpoint of the (a, b) lane.
  const auto n = static_cast<std::size_t>(nranks);
  FleetLanes lanes;
  lanes.held.assign(n, std::vector<int>(n, -1));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      int sv[2];
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
        const int err = errno;
        for (auto& row : lanes.held) close_fds(row);
        throw std::runtime_error(std::string("pml: socketpair failed: ") +
                                 plv::errno_str(err));
      }
      lanes.held[i][j] = sv[0];
      lanes.held[j][i] = sv[1];
    }
  }
  run_fleet(nranks, body, validate, shape.ranks_per_proc, name, std::move(lanes));
}

}  // namespace detail
}  // namespace plv::pml
