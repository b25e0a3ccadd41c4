// Shared socket-frame transport core: the 32-byte frame protocol, the
// per-peer receive pump, the deadlock-free writer, and the goodbye/abort
// discipline — everything about moving pml frames over stream-socket file
// descriptors that does NOT depend on how those descriptors were created.
//
// One launcher forks the processes that host this machinery: run_fleet
// (transport_hybrid.cpp) runs one or more thread ranks per forked process
// over lanes its caller hands it — a pre-fork full mesh of AF_UNIX
// socketpairs (proc, hybrid), or one 127.0.0.1 listener per rank that
// establish_mesh wires into a TCP mesh after the fork (the tcp loopback
// fleet). The multi-host tcp mode (transport_tcp.cpp) runs one rank in
// the calling process over a TCP mesh established from a host list with
// a handshake frame.
//
// Wire format: length-prefixed frames, one FrameHeader (fixed 32 bytes,
// host byte order — every rank of a run must be built for the same
// architecture; the TCP handshake magic is byte-order-asymmetric so a
// mixed-endian mesh fails the handshake instead of desyncing) optionally
// followed by a payload.
//
//   Data       payload = chunk bytes; epoch from the header
//   Marker     no payload; end-of-phase control marker (epoch + count)
//   Collective payload = this rank's alltoallv slice for the receiver
//   Abort      no payload; fail-fast broadcast
//   Goodbye    no payload; clean body completion, always the last frame
//
// Demultiplexing: both planes share one socket per peer, and the one-epoch
// phase skew means collective frames can arrive while this rank still
// drains fine-grained traffic (and vice versa). The receive loop therefore
// sorts frames into two queues — chunks (Data/Marker, handed to Comm's
// drain) and per-source collective payload FIFOs — and alltoallv consumes
// the latter *in ascending source order*, which is exactly the rank-order
// combine that makes reductions bit-identical with ThreadTransport.
//
// Deadlock freedom: sockets are non-blocking; a writer that fills a
// kernel buffer parks in poll() watching the destination for POLLOUT and
// *every* peer for POLLIN, draining whatever arrives — so two ranks
// flooding each other always make progress. Abort/EOF wake these waits.
//
// Failure detection: a failing rank broadcasts Abort (best effort) and
// exits without Goodbye; peers treat EOF-without-Goodbye as a failure and
// raise the local abort flag. EOF *after* Goodbye is a clean shutdown and
// ignored — per-lane FIFO guarantees every frame the peer owed us was
// already received before its Goodbye. A frame truncated mid-stream (a
// peer dying inside a header or payload) closes the lane and records a
// PeerFailure naming the peer, its endpoint, and exactly where the stream
// tore — it is never retried into a desynced stream; the runtime surfaces
// the record as RemoteRankError on the survivors.
//
// This header lives in plv::pml::detail and is included by the backend
// .cpp files and the transport test suites (which drive the pump directly
// over raw socketpairs for fault injection).
#pragma once

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cassert>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/errno_util.hpp"
#include "pml/comm.hpp"
#include "pml/mailbox.hpp"
#include "pml/transport.hpp"
#include "pml/transport_check.hpp"

namespace plv::pml::detail {

enum FrameKind : std::uint32_t {
  kFrameData = 1,
  kFrameMarker = 2,
  kFrameCollective = 3,
  kFrameAbort = 4,
  kFrameGoodbye = 5,
};

struct FrameHeader {
  std::uint32_t kind{0};
  std::uint32_t reserved{0};
  std::uint64_t payload_bytes{0};
  std::uint64_t epoch{0};
  std::uint64_t control_records{0};
};
static_assert(sizeof(FrameHeader) == 32);

/// Anything larger than this in a length prefix means a desynced stream
/// (a torn frame from a dying peer); abort instead of allocating.
constexpr std::uint64_t kMaxFramePayload = 1ULL << 40;

/// Per-rank outcomes of run_rank_body, and the exit codes of run_fleet's
/// forked processes. A failure report names the first cause: kExitFailed
/// (the rank threw before it saw the run abort) ahead of
/// kExitFailedAfterAbort (it threw while the abort flag was already up,
/// so its error is most likely a consequence), ahead of kExitAborted (a
/// peer-induced unwind), ahead of kExitClean.
constexpr int kExitClean = 0;
constexpr int kExitFailed = 1;
constexpr int kExitAborted = 2;
constexpr int kExitFailedAfterAbort = 3;

/// First peer failure this rank observed on the wire: which peer, which
/// endpoint (empty for anonymous socketpair lanes), and what exactly went
/// wrong — including where a torn frame was truncated. The runtime maps
/// this to RemoteRankError so survivors report the dead peer, not just a
/// generic abort.
struct PeerFailure {
  int rank{-1};
  std::string endpoint;
  std::string detail;
};

/// Names the cause of a failed recv (`err` is its errno). A peer that
/// dies with unread bytes in its socket makes the kernel send RST instead
/// of FIN, so ECONNRESET is the same dead-peer event as EOF and gets the
/// same "connection closed" diagnosis, with the errno text as detail.
[[nodiscard]] inline std::string recv_failure_cause(int err) {
  if (err == ECONNRESET) return "connection closed (" + plv::errno_str(err) + ")";
  return "recv failed: " + plv::errno_str(err);
}

/// A Transport over an already-wired mesh of stream-socket fds: `fds[r]`
/// is this rank's socket to rank r (-1 for self). `endpoints[r]`, when
/// provided, labels peer r in failure reports (e.g. "10.0.0.2:7001");
/// socketpair backends leave it empty. `group_abort`, when provided, is
/// the abort flag the rank threads of one process share: raise_abort sets
/// it beside the Abort frames and aborted() reads it, so a sibling whose
/// transport never came up (and has no frames to send) still fails its
/// group. Single-threaded: one instance per rank, touched only by that
/// rank.
class SocketFrameTransport final : public Transport {
 public:
  SocketFrameTransport(const char* name, int rank, int nranks, std::vector<int> fds,
                       std::vector<std::string> endpoints = {},
                       std::atomic<bool>* group_abort = nullptr)
      : name_(name),
        rank_(rank),
        nranks_(nranks),
        fds_(std::move(fds)),
        endpoints_(std::move(endpoints)),
        group_abort_(group_abort),
        rx_(static_cast<std::size_t>(nranks)),
        pending_collective_(static_cast<std::size_t>(nranks)) {
    assert(static_cast<int>(fds_.size()) == nranks_);
    for (int r = 0; r < nranks_; ++r) {
      if (r == rank_ || fds_[static_cast<std::size_t>(r)] < 0) {
        rx_[static_cast<std::size_t>(r)].open = false;
        continue;
      }
      const int fd = fds_[static_cast<std::size_t>(r)];
      const int flags = ::fcntl(fd, F_GETFL, 0);
      ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
      // Best effort: widen the kernel buffers so whole coalesced chunks
      // usually queue in one sendmsg.
      const int kBufBytes = 1 << 20;
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &kBufBytes, sizeof(kBufBytes));
      ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &kBufBytes, sizeof(kBufBytes));
    }
  }

  ~SocketFrameTransport() override {
    // Chunks stranded by an aborted run go back to the pool, whose
    // destructor frees the whole list (keeps every node death on the
    // pool API; the repo lint flags raw deletes of chunk nodes).
    for (Chunk* c : incoming_) pool_.release(c);
    for (auto& rx : rx_) {
      if (rx.chunk != nullptr) pool_.release(rx.chunk);
    }
    for (int r = 0; r < nranks_; ++r) {
      const int fd = fds_[static_cast<std::size_t>(r)];
      if (r != rank_ && fd >= 0) ::close(fd);
    }
  }

  [[nodiscard]] const char* name() const noexcept override { return name_; }
  [[nodiscard]] int rank() const noexcept override { return rank_; }
  [[nodiscard]] int nranks() const noexcept override { return nranks_; }

  void barrier() override {
    struct NullSink final : CollectiveSink {
      void deliver(int, std::span<const std::byte>) override {}
    } sink;
    empty_spans_.assign(static_cast<std::size_t>(nranks_), {});
    alltoallv(empty_spans_, sink);
  }

  void alltoallv(std::span<const std::span<const std::byte>> outgoing,
                 CollectiveSink& sink) override {
    assert(static_cast<int>(outgoing.size()) == nranks_);
    check_abort();
    for (int d = 0; d < nranks_; ++d) {
      if (d == rank_) continue;
      FrameHeader h;
      h.kind = kFrameCollective;
      h.payload_bytes = outgoing[static_cast<std::size_t>(d)].size();
      write_frame(d, h, outgoing[static_cast<std::size_t>(d)]);
    }
    // Wait for every peer's slice. Frames already buffered (a peer racing
    // one collective ahead) satisfy the wait immediately; per-source FIFO
    // keeps successive collectives matched up.
    for (int src = 0; src < nranks_; ++src) {
      if (src == rank_) continue;
      auto& queue = pending_collective_[static_cast<std::size_t>(src)];
      while (queue.empty()) {
        check_abort();
        const PeerRx& rx = rx_[static_cast<std::size_t>(src)];
        if (!rx.open || rx.goodbye) {
          // The peer can never send the slice we need.
          aborted_ = true;
          throw AbortedError();
        }
        pump(true);
      }
    }
    check_abort();
    std::size_t total = outgoing[static_cast<std::size_t>(rank_)].size();
    for (int src = 0; src < nranks_; ++src) {
      if (src == rank_) continue;
      total += pending_collective_[static_cast<std::size_t>(src)].front().size();
    }
    sink.total_hint(total);
    for (int src = 0; src < nranks_; ++src) {
      if (src == rank_) {
        sink.deliver(src, outgoing[static_cast<std::size_t>(rank_)]);
        continue;
      }
      auto& queue = pending_collective_[static_cast<std::size_t>(src)];
      const std::vector<std::byte>& payload = queue.front();
      sink.deliver(src, {payload.data(), payload.size()});
      queue.pop_front();
    }
  }

  [[nodiscard]] Chunk* acquire_chunk(std::size_t reserve_bytes) override {
    return pool_.acquire(reserve_bytes);
  }
  void release_chunk(Chunk* chunk) noexcept override { pool_.release(chunk); }

  void send(int dest, Chunk* chunk) override {
    if (dest == rank_) {
      incoming_.push_back(chunk);  // self lane: stays in-process, stays FIFO
      return;
    }
    FrameHeader h;
    h.kind = chunk->control ? kFrameMarker : kFrameData;
    h.payload_bytes = chunk->size();
    h.epoch = chunk->epoch;
    h.control_records = chunk->control_records;
    try {
      write_frame(dest, h, {chunk->data(), chunk->size()});
    } catch (...) {
      pool_.release(chunk);
      throw;
    }
    pool_.release(chunk);  // bytes are on the wire; recycle the node
  }

  std::size_t drain(std::vector<Chunk*>& out) override {
    pump(false);
    const std::size_t n = incoming_.size();
    out.insert(out.end(), incoming_.begin(), incoming_.end());
    incoming_.clear();
    return n;
  }

  void wait_incoming() override {
    while (incoming_.empty() && !aborted_) pump(true);
  }

  void raise_abort() noexcept override {
    aborted_ = true;
    if (group_abort_ != nullptr) group_abort_->store(true, std::memory_order_release);
    FrameHeader h;
    h.kind = kFrameAbort;
    for (int d = 0; d < nranks_; ++d) {
      if (d == rank_ || !rx_[static_cast<std::size_t>(d)].open) continue;
      // Single best-effort push: if the buffer is full or the peer is
      // gone, our EOF (we exit without Goodbye) aborts it instead.
      (void)::send(fds_[static_cast<std::size_t>(d)], &h, sizeof(h),
                   MSG_NOSIGNAL | MSG_DONTWAIT);
    }
  }

  [[nodiscard]] bool aborted() const noexcept override {
    return aborted_ ||
           (group_abort_ != nullptr && group_abort_->load(std::memory_order_acquire));
  }

  void trim_pool() noexcept override { pool_.trim(); }
  [[nodiscard]] std::size_t pool_free_count() const noexcept override {
    return pool_.free_count();
  }

  /// First wire-level peer failure this rank observed, or nullptr on a
  /// clean (or not-yet-failed) run. The runtime converts this into the
  /// RemoteRankError survivors throw.
  [[nodiscard]] const PeerFailure* peer_failure() const noexcept {
    return has_failure_ ? &failure_ : nullptr;
  }

  /// Announces clean completion to every peer (the frame after which this
  /// rank's EOF is not a failure). Deliberately NOT write_frame: a peer
  /// that finished first may already have exited, and its EPIPE must
  /// neither raise the abort flag nor stop the goodbyes still owed to the
  /// remaining peers — otherwise a slow third rank sees an unexplained
  /// EOF and aborts a run that succeeded everywhere.
  void finish() noexcept {
    FrameHeader h;
    h.kind = kFrameGoodbye;
    for (int d = 0; d < nranks_; ++d) {
      if (d == rank_ || !rx_[static_cast<std::size_t>(d)].open) continue;
      const int fd = fds_[static_cast<std::size_t>(d)];
      const auto* p = reinterpret_cast<const std::byte*>(&h);
      std::size_t off = 0;
      while (off < sizeof(FrameHeader)) {
        const ssize_t k =
            ::send(fd, p + off, sizeof(FrameHeader) - off, MSG_NOSIGNAL);
        if (k > 0) {
          off += static_cast<std::size_t>(k);
          continue;
        }
        if (k < 0 && errno == EINTR) continue;
        if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          pollfd pf{fd, POLLOUT, 0};
          int rc = 0;
          do {
            rc = ::poll(&pf, 1, -1);
          } while (rc < 0 && errno == EINTR);
          if (rc < 0) break;
          continue;  // writable, or an error send() will surface
        }
        break;  // peer already gone; its own shutdown state decides the run
      }
    }
  }

 private:
  /// Per-peer receive state: a frame header being assembled, then its
  /// payload streamed into either a pooled chunk (Data/Marker) or a byte
  /// buffer (Collective).
  struct PeerRx {
    std::array<std::byte, sizeof(FrameHeader)> hdr_buf;
    std::size_t hdr_got{0};
    FrameHeader hdr{};
    bool in_payload{false};
    std::size_t payload_got{0};
    Chunk* chunk{nullptr};
    std::vector<std::byte> collective;
    bool open{true};
    bool goodbye{false};
  };

  void check_abort() const {
    if (aborted_) throw AbortedError();
  }

  [[nodiscard]] std::string endpoint_of(int r) const {
    if (static_cast<std::size_t>(r) < endpoints_.size()) {
      return endpoints_[static_cast<std::size_t>(r)];
    }
    return {};
  }

  /// Records the first wire-level failure (later ones are consequences of
  /// the unwind, not causes).
  void record_peer_failure(int r, std::string detail) {
    if (has_failure_) return;
    has_failure_ = true;
    failure_.rank = r;
    failure_.endpoint = endpoint_of(r);
    failure_.detail = std::move(detail);
  }

  /// Describes exactly where peer r's stream tore, so a truncated frame
  /// is diagnosable instead of a bare "peer failed". `cause` is the
  /// transport-level event ("connection closed", "recv failed: ...", see
  /// recv_failure_cause).
  [[nodiscard]] std::string truncation_detail(int r, const std::string& cause) const {
    const PeerRx& rx = rx_[static_cast<std::size_t>(r)];
    std::string detail = cause;
    if (rx.in_payload) {
      detail += " mid-frame: " + std::to_string(rx.payload_got) + " of " +
                std::to_string(rx.hdr.payload_bytes) + " payload bytes (frame kind " +
                std::to_string(rx.hdr.kind) + ", epoch " + std::to_string(rx.hdr.epoch) +
                ")";
    } else if (rx.hdr_got > 0) {
      detail += " mid-frame: " + std::to_string(rx.hdr_got) + " of " +
                std::to_string(sizeof(FrameHeader)) + " header bytes";
    } else {
      detail += " between frames, without goodbye";
    }
    return detail;
  }

  /// Closes the lane to `r`. EOF without a preceding Goodbye means the
  /// peer died mid-protocol: raise the abort flag and record the failure
  /// (a torn frame is closed here, never resumed — resuming would feed a
  /// desynced stream into the pump).
  void close_peer(int r, const std::string& cause) noexcept {
    PeerRx& rx = rx_[static_cast<std::size_t>(r)];
    if (!rx.open) return;
    if (!rx.goodbye) {
      try {
        record_peer_failure(r, truncation_detail(r, cause));
      } catch (...) {
        // Allocation failure while reporting: the abort flag below still
        // fails the run, just with less detail.
      }
    }
    rx.open = false;
    if (rx.chunk != nullptr) pool_.release(rx.chunk);  // half-received frame
    rx.chunk = nullptr;
    ::close(fds_[static_cast<std::size_t>(r)]);
    fds_[static_cast<std::size_t>(r)] = -1;
    if (!rx.goodbye) aborted_ = true;
  }

  /// Non-blocking read pump for one peer: consume whatever the socket
  /// holds, completing as many frames as arrive.
  void pump_peer(int r) {
    PeerRx& rx = rx_[static_cast<std::size_t>(r)];
    const auto fd = [&] { return fds_[static_cast<std::size_t>(r)]; };
    while (rx.open) {
      if (!rx.in_payload) {
        const ssize_t k = ::recv(fd(), rx.hdr_buf.data() + rx.hdr_got,
                                 sizeof(FrameHeader) - rx.hdr_got, 0);
        if (k > 0) {
          rx.hdr_got += static_cast<std::size_t>(k);
          if (rx.hdr_got == sizeof(FrameHeader)) begin_frame(r);
          continue;
        }
        if (k == 0) return close_peer(r, "connection closed");
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        return close_peer(r, recv_failure_cause(errno));
      }
      // Payload streaming.
      std::byte* dst = rx.chunk != nullptr ? rx.chunk->raw() : rx.collective.data();
      const std::size_t want =
          static_cast<std::size_t>(rx.hdr.payload_bytes) - rx.payload_got;
      const ssize_t k = ::recv(fd(), dst + rx.payload_got, want, 0);
      if (k > 0) {
        rx.payload_got += static_cast<std::size_t>(k);
        if (rx.payload_got == rx.hdr.payload_bytes) finish_frame(r);
        continue;
      }
      if (k == 0) return close_peer(r, "connection closed");
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return close_peer(r, recv_failure_cause(errno));
    }
  }

  /// Header complete: route by kind, set up the payload destination.
  void begin_frame(int r) {
    PeerRx& rx = rx_[static_cast<std::size_t>(r)];
    std::memcpy(&rx.hdr, rx.hdr_buf.data(), sizeof(FrameHeader));
    rx.hdr_got = 0;
    if (rx.hdr.payload_bytes > kMaxFramePayload) {
      // Desynced stream; unrecoverable. Record before close_peer so the
      // report names the protocol violation, not a generic close.
      record_peer_failure(r, "desynced stream: frame announces " +
                                 std::to_string(rx.hdr.payload_bytes) +
                                 " payload bytes (kind " + std::to_string(rx.hdr.kind) +
                                 "), over the " + std::to_string(kMaxFramePayload) +
                                 "-byte limit");
      aborted_ = true;
      close_peer(r, "desynced stream");
      return;
    }
    switch (rx.hdr.kind) {
      case kFrameAbort:
        aborted_ = true;
        return;
      case kFrameGoodbye:
        rx.goodbye = true;
        return;
      case kFrameCollective:
        rx.collective.resize(static_cast<std::size_t>(rx.hdr.payload_bytes));
        break;
      case kFrameData:
      case kFrameMarker:
        rx.chunk = pool_.acquire(static_cast<std::size_t>(rx.hdr.payload_bytes));
        break;
      default:
        record_peer_failure(r, "desynced stream: unknown frame kind " +
                                   std::to_string(rx.hdr.kind));
        aborted_ = true;
        close_peer(r, "desynced stream");
        return;
    }
    rx.payload_got = 0;
    rx.in_payload = true;
    if (rx.hdr.payload_bytes == 0) finish_frame(r);
  }

  /// Payload complete: enqueue the frame for its consumer.
  void finish_frame(int r) {
    PeerRx& rx = rx_[static_cast<std::size_t>(r)];
    if (rx.hdr.kind == kFrameCollective) {
      pending_collective_[static_cast<std::size_t>(r)].push_back(
          std::move(rx.collective));
      rx.collective = {};
    } else {
      Chunk* c = rx.chunk;
      rx.chunk = nullptr;
      c->set_size(static_cast<std::size_t>(rx.hdr.payload_bytes));
      c->source = r;
      c->epoch = rx.hdr.epoch;
      c->control = rx.hdr.kind == kFrameMarker;
      c->control_records = rx.hdr.control_records;
      incoming_.push_back(c);
    }
    rx.in_payload = false;
  }

  /// Polls every open lane and pumps the readable ones. With block=true
  /// parks until something arrives (or a peer hangs up). If no lane is
  /// open and nothing is queued, the run can never progress: abort.
  void pump(bool block) {
    pfds_.clear();
    pfd_ranks_.clear();
    for (int r = 0; r < nranks_; ++r) {
      if (r == rank_ || !rx_[static_cast<std::size_t>(r)].open) continue;
      pfds_.push_back({fds_[static_cast<std::size_t>(r)], POLLIN, 0});
      pfd_ranks_.push_back(r);
    }
    if (pfds_.empty()) {
      if (block && incoming_.empty()) aborted_ = true;
      return;
    }
    int rc = 0;
    do {
      rc = ::poll(pfds_.data(), pfds_.size(), block ? -1 : 0);
    } while (rc < 0 && errno == EINTR);
    if (rc <= 0) return;
    for (std::size_t i = 0; i < pfds_.size(); ++i) {
      if ((pfds_[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        pump_peer(pfd_ranks_[i]);
      }
    }
  }

  /// Blocking frame write with a read-draining progress loop (see the
  /// deadlock-freedom note in the file header). Throws AbortedError if
  /// the run aborts or the peer disappears mid-write.
  void write_frame(int dest, const FrameHeader& h, std::span<const std::byte> payload) {
    if (!rx_[static_cast<std::size_t>(dest)].open) {
      aborted_ = true;
      throw AbortedError();
    }
    const auto* hdr_bytes = reinterpret_cast<const std::byte*>(&h);
    const std::size_t total = sizeof(FrameHeader) + payload.size();
    std::size_t off = 0;
    while (off < total) {
      check_abort();
      if (!rx_[static_cast<std::size_t>(dest)].open) {
        aborted_ = true;
        throw AbortedError();
      }
      struct iovec iov[2];
      int iovcnt = 0;
      if (off < sizeof(FrameHeader)) {
        iov[iovcnt].iov_base = const_cast<std::byte*>(hdr_bytes) + off;
        iov[iovcnt].iov_len = sizeof(FrameHeader) - off;
        ++iovcnt;
        if (!payload.empty()) {
          iov[iovcnt].iov_base = const_cast<std::byte*>(payload.data());
          iov[iovcnt].iov_len = payload.size();
          ++iovcnt;
        }
      } else {
        const std::size_t poff = off - sizeof(FrameHeader);
        iov[iovcnt].iov_base = const_cast<std::byte*>(payload.data()) + poff;
        iov[iovcnt].iov_len = payload.size() - poff;
        ++iovcnt;
      }
      msghdr mh{};
      mh.msg_iov = iov;
      mh.msg_iovlen = static_cast<std::size_t>(iovcnt);
      const ssize_t k = ::sendmsg(fds_[static_cast<std::size_t>(dest)], &mh,
                                  MSG_NOSIGNAL);
      if (k > 0) {
        off += static_cast<std::size_t>(k);
        continue;
      }
      if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        wait_writable(dest);
        continue;
      }
      if (k < 0 && errno == EINTR) continue;
      // EPIPE / ECONNRESET / ETIMEDOUT (TCP user-timeout on a vanished
      // host): the peer is gone mid-protocol.
      close_peer(dest, std::string("send failed: ") + plv::errno_str(errno));
      aborted_ = true;
      throw AbortedError();
    }
  }

  /// Parks until `dest` accepts bytes again, draining every readable peer
  /// meanwhile (including `dest` itself) so opposing floods drain.
  void wait_writable(int dest) {
    pfds_.clear();
    pfd_ranks_.clear();
    pfds_.push_back({fds_[static_cast<std::size_t>(dest)],
                     static_cast<short>(POLLOUT | POLLIN), 0});
    pfd_ranks_.push_back(dest);
    for (int r = 0; r < nranks_; ++r) {
      if (r == rank_ || r == dest || !rx_[static_cast<std::size_t>(r)].open) continue;
      pfds_.push_back({fds_[static_cast<std::size_t>(r)], POLLIN, 0});
      pfd_ranks_.push_back(r);
    }
    int rc = 0;
    do {
      rc = ::poll(pfds_.data(), pfds_.size(), -1);
    } while (rc < 0 && errno == EINTR);
    if (rc <= 0) return;
    for (std::size_t i = 0; i < pfds_.size(); ++i) {
      if ((pfds_[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        pump_peer(pfd_ranks_[i]);
      }
    }
  }

  const char* name_;
  int rank_;
  int nranks_;
  std::vector<int> fds_;
  std::vector<std::string> endpoints_;
  std::atomic<bool>* group_abort_;
  ChunkPool pool_;  // single-threaded: one process = one rank
  std::vector<PeerRx> rx_;
  std::vector<Chunk*> incoming_;  // completed Data/Marker frames, FIFO per src
  std::vector<std::deque<std::vector<std::byte>>> pending_collective_;
  std::vector<std::span<const std::byte>> empty_spans_;
  std::vector<pollfd> pfds_;      // poll scratch, reused
  std::vector<int> pfd_ranks_;
  PeerFailure failure_;
  bool has_failure_{false};
  bool aborted_{false};
};

/// Runs `body` as one rank against an already-wired transport and maps
/// the outcome to an exit code + error text. The one rank-body runner of
/// every socket rank: run_fleet's (proc, hybrid and the tcp loopback
/// fleet) and the multi-host tcp rank's. A rank that throws reads the
/// abort flag before it raises its own abort: already up means the
/// failure most likely follows from a peer's, and it reports as
/// kExitFailedAfterAbort.
///
/// With `report_peer_failure`, a peer failure recorded on the wire
/// upgrades the generic AbortedError unwind into a RemoteRankError naming
/// the dead peer and its endpoint. run_fleet leaves it off — it harvests
/// every rank's exit status and status pipe, which attributes the
/// originating failure more precisely than a survivor's view of a closed
/// socket; the single-rank multi-host TCP mode turns it on because the
/// wire is all it has.
inline int run_rank_body(SocketFrameTransport& transport,
                         const std::function<void(Comm&)>& body, bool validate,
                         std::string& error_text, std::exception_ptr* keep_exception,
                         bool report_peer_failure = false) {
  try {
    if (validate) {
      ValidatingTransport checked(transport);
      {
        Comm comm(checked);
        body(comm);
      }
      // Goodbye checks (chunk leaks, post-goodbye traffic) run before the
      // wire-level Goodbye frame goes out; a ProtocolError here fails the
      // rank exactly like a body exception.
      checked.finalize();
    } else {
      Comm comm(transport);
      body(comm);
    }
    transport.finish();
    return kExitClean;
  } catch (const AbortedError&) {
    transport.raise_abort();  // rebroadcast; the originator reports the cause
    if (report_peer_failure) {
      if (const PeerFailure* dead = transport.peer_failure()) {
        // The peer vanished from under us (EOF / reset / torn frame), so
        // no Abort broadcast carries the cause — this rank's own
        // observation is the report. Survivors of an orderly abort (Abort
        // frame seen, no wire failure) stay kExitAborted.
        error_text = RemoteRankError(dead->rank, dead->detail, dead->endpoint).what();
        if (keep_exception != nullptr) {
          *keep_exception = std::make_exception_ptr(
              RemoteRankError(dead->rank, dead->detail, dead->endpoint));
        }
        return kExitFailed;
      }
    }
    return kExitAborted;
  } catch (const std::exception& e) {
    error_text = e.what();
    if (keep_exception != nullptr) *keep_exception = std::current_exception();
  } catch (...) {
    error_text = "unknown exception";
    if (keep_exception != nullptr) *keep_exception = std::current_exception();
  }
  const bool after_abort = transport.aborted();
  transport.raise_abort();
  return after_abort ? kExitFailedAfterAbort : kExitFailed;
}

/// The lanes of a socket-process fleet, as data. `held[r]` lists the
/// descriptors rank r holds across the fork (its socketpair row, or its
/// listener); each process closes the rows of the ranks it does not
/// host. `wire`, when set, turns rank r's held descriptors into its mesh
/// row after the fork and owns them from the call on; unset, the held
/// row is the mesh row. `endpoints[r]`, when given, names rank r in
/// failure reports.
struct FleetLanes {
  std::vector<std::vector<int>> held;
  std::function<std::vector<int>(int rank, std::vector<int> held)> wire;
  std::vector<std::string> endpoints;
};

/// The one socket-process launcher (transport_hybrid.cpp): runs `body` on
/// every rank, `ranks_per_proc` consecutive ranks per process. Group 0's
/// ranks run as threads of the calling process, so rank-0 result capture
/// into caller-scope variables keeps working; the other groups are forked
/// children. Takes ownership of every descriptor in `lanes.held`.
/// Fail-fast: the first failing rank aborts the fleet. The report goes to
/// the first failure in kExit* order, ties to the calling process and
/// then the lowest rank: a failure in the calling process is rethrown
/// with its type, and one in a child as RemoteRankError naming the rank
/// and its endpoint. With `validate`, each rank's transport is wrapped in
/// a ValidatingTransport; `name` is the backend name the ranks report.
void run_fleet(int nranks, const std::function<void(Comm&)>& body, bool validate,
               int ranks_per_proc, const char* name, FleetLanes lanes);

}  // namespace plv::pml::detail
