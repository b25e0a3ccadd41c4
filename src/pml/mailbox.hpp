// Per-rank mailbox: a lock-free multi-producer single-consumer queue of
// pooled byte chunks, plus the chunk pool that feeds it.
//
// Models the receive side of the paper's fine-grained messaging layer
// (refs [27]-[29]): senders deposit coalesced chunks of fixed-size records,
// the owning rank drains them and hashes the records in place.
//
// Zero-copy discipline: a Chunk is a reusable heap node owned by the
// runtime's ChunkPool. Senders acquire a chunk, write records into it once
// (the only copy on the whole path), and hand the *pointer* to the
// destination mailbox; the receiver processes the bytes in place and
// releases the node back to the pool. Steady state performs no allocation
// and no memcpy beyond the initial record coalescing.
//
//   sender:   pool.acquire() -> append()* -> mailbox.push(chunk)
//   receiver: mailbox.drain() -> handler(bytes) -> pool.release(chunk)
//
// The mailbox itself is a Treiber stack: push is a CAS loop (multi-
// producer safe, no ABA hazard because only push contends on the head; the
// consumer takes the whole list with a single exchange). drain() reverses
// the popped list, so per-producer FIFO order is preserved — the quiescence
// protocol in comm.hpp relies on a sender's data chunks being delivered
// before its end-of-phase marker.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "common/sync.hpp"

namespace plv::pml {

/// One delivered chunk: raw bytes from a single sender plus the routing
/// header the quiescence protocol needs. The record type is a per-phase
/// SPMD convention (every rank sends/receives the same T). Nodes are
/// recycled through ChunkPool; `next` links them both in the mailbox stack
/// and in the pool free list.
///
/// Storage is a raw byte array allocated without value-initialization
/// (make_unique_for_overwrite): senders overwrite exactly the bytes they
/// use, so a chunk never pays a memset — at paper-scale coalescing sizes
/// the zero-fill of a std::vector resize costs more than the payload copy.
class Chunk {
 public:
  int source{-1};
  std::uint64_t epoch{0};           ///< fine-grained phase the bytes belong to
  bool control{false};              ///< end-of-phase marker, no payload
  std::uint64_t control_records{0}; ///< marker only: records sent to the dest
  Chunk* next{nullptr};

  /// Grows the backing storage to at least `bytes` capacity (never
  /// shrinks); preserves current contents.
  void reserve(std::size_t bytes) {
    if (capacity_ < bytes) {
      auto grown = std::make_unique_for_overwrite<std::byte[]>(bytes);
      if (used_ > 0) std::memcpy(grown.get(), storage_.get(), used_);
      storage_ = std::move(grown);
      capacity_ = bytes;
    }
  }

  /// Appends raw bytes; grows geometrically if the reservation was short.
  void append(const void* data, std::size_t bytes) {
    if (bytes == 0) return;  // empty source may be a null pointer (UB in memcpy)
    if (used_ + bytes > capacity_) {
      std::size_t grown = capacity_ == 0 ? 64 : capacity_ * 2;
      if (grown < used_ + bytes) grown = used_ + bytes;
      reserve(grown);
    }
    std::memcpy(storage_.get() + used_, data, bytes);
    used_ += bytes;
  }

  [[nodiscard]] const std::byte* data() const noexcept { return storage_.get(); }
  [[nodiscard]] std::size_t size() const noexcept { return used_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Direct write access for cursor-style producers (see Aggregator):
  /// write into raw(), then record the final payload length.
  [[nodiscard]] std::byte* raw() noexcept { return storage_.get(); }
  void set_size(std::size_t bytes) noexcept {
    assert(bytes <= capacity_);
    used_ = bytes;
  }

  /// Resets the header and payload for reuse; keeps the storage capacity.
  void recycle() noexcept {
    source = -1;
    epoch = 0;
    control = false;
    control_records = 0;
    next = nullptr;
    used_ = 0;
  }

 private:
  std::size_t used_{0};
  std::size_t capacity_{0};
  std::unique_ptr<std::byte[]> storage_;
};

/// Nodes a ChunkPool keeps on its free list across a phase boundary.
inline constexpr std::size_t kChunkPoolWatermark = 256;

/// Free list of Chunk nodes. One pool belongs to one rank and is only ever
/// touched by that rank's thread, so acquire() and release() are plain
/// pointer swaps — no lock, no atomics. Nodes migrate between ranks
/// through the mailboxes: a sender acquires from *its* pool, the receiver
/// releases the drained node into *its own* pool, and since every rank is
/// both sender and receiver the lists stay balanced in steady state. The
/// pool owns whatever is on its free list at destruction; nodes still in
/// flight at teardown are deleted by their current holder (mailbox or
/// Comm destructor).
///
/// A receive-heavy rank (one that drains far more chunks than it sends)
/// would otherwise retain its peak in-flight footprint forever, so the
/// pool carries a high-water mark: trim() — called by the Comm at
/// fine-grained phase boundaries — frees nodes beyond
/// kChunkPoolWatermark.
class ChunkPool {
 public:
  ChunkPool() = default;
  ChunkPool(const ChunkPool&) = delete;
  ChunkPool& operator=(const ChunkPool&) = delete;

  ~ChunkPool() {
    Chunk* c = free_;
    while (c != nullptr) {
      Chunk* next = c->next;
      delete c;
      c = next;
    }
  }

  /// Returns a recycled node (with whatever capacity it grew to) or a new
  /// one, with at least `reserve_bytes` of capacity.
  [[nodiscard]] Chunk* acquire(std::size_t reserve_bytes) {
    Chunk* c = free_;
    if (c != nullptr) {
      free_ = c->next;
      --free_count_;
      c->recycle();
    } else {
      c = new Chunk();
    }
    c->reserve(reserve_bytes);
    return c;
  }

  void release(Chunk* c) {
    assert(c != nullptr);
    c->next = free_;
    free_ = c;
    ++free_count_;
  }

  [[nodiscard]] std::size_t free_count() const noexcept { return free_count_; }

  /// Frees list nodes beyond kChunkPoolWatermark. Cheap when already
  /// under it (one compare); meant for phase boundaries, not the
  /// per-chunk path.
  void trim() noexcept {
    while (free_count_ > kChunkPoolWatermark) {
      Chunk* c = free_;
      free_ = c->next;
      delete c;
      --free_count_;
    }
  }

 private:
  Chunk* free_{nullptr};
  std::size_t free_count_{0};
};

/// Lock-free MPSC mailbox with a blocking consumer wait. Producers push
/// chunk pointers; the owning rank drains them all at once. The condition
/// variable backs wait_nonempty(); producers only touch the mutex when a
/// consumer has announced itself via `waiters_`, so the push fast path
/// stays lock-free.
class Mailbox {
 public:
  Mailbox() = default;
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  ~Mailbox() {
    // Chunks still queued at teardown (aborted runs) die with the mailbox.
    Chunk* c = head_.load(std::memory_order_acquire);
    while (c != nullptr) {
      Chunk* next = c->next;
      delete c;
      c = next;
    }
  }

  /// Deposits a filled chunk (thread-safe, called by any sender). The
  /// mailbox takes ownership until the consumer drains it.
  void push(Chunk* chunk) PLV_EXCLUDES(wait_mutex_) {
    assert(chunk != nullptr);
    Chunk* expected = head_.load(std::memory_order_relaxed);
    do {
      chunk->next = expected;
    } while (!head_.compare_exchange_weak(expected, chunk, std::memory_order_seq_cst,
                                          std::memory_order_relaxed));
    // Wake a parked consumer only on the empty -> non-empty transition: a
    // push onto a non-empty stack means an earlier push already signalled
    // (or the consumer is awake and will drain everything anyway), so the
    // send burst pays at most one futex wake instead of one per chunk.
    // seq_cst push + seq_cst waiter check pair with the consumer's
    // register-then-recheck in wait_nonempty: either we see the waiter and
    // notify, or the waiter's predicate sees our push.
    if (expected == nullptr && waiters_.load(std::memory_order_seq_cst) > 0) {
      { plv::MutexLock lock(wait_mutex_); }  // close the check-then-sleep race
      cv_.notify_all();
    }
  }

  /// Takes every queued chunk, appending them to `out` in delivery order
  /// (per-producer FIFO). Consumer-only. Returns the number taken.
  std::size_t drain(std::vector<Chunk*>& out) {
    Chunk* c = head_.exchange(nullptr, std::memory_order_seq_cst);
    if (c == nullptr) return 0;
    // The stack yields newest-first; reverse in place to restore FIFO.
    Chunk* reversed = nullptr;
    std::size_t n = 0;
    while (c != nullptr) {
      Chunk* next = c->next;
      c->next = reversed;
      reversed = c;
      c = next;
      ++n;
    }
    for (c = reversed; c != nullptr; c = c->next) out.push_back(c);
    return n;
  }

  /// Blocks until the mailbox is non-empty or `stop()` returns true.
  /// Returns true when a chunk is available. Consumer-only; this is the
  /// wait the quiescence protocol uses instead of a collective spin.
  ///
  /// Hybrid wait: yields the core a bounded number of times first — on an
  /// oversubscribed machine that directly runs the senders we are waiting
  /// on, and while yielding `waiters_` stays 0 so producers skip the
  /// notify path entirely. Only a genuinely idle consumer parks in the
  /// condition variable.
  template <typename StopFn>
  bool wait_nonempty(StopFn&& stop, int spin_yields = 64) PLV_EXCLUDES(wait_mutex_) {
    for (int i = 0; i < spin_yields; ++i) {
      if (!empty() || stop()) return !empty();
      std::this_thread::yield();
    }
    plv::MutexLock lock(wait_mutex_);
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    // Explicit predicate loop (not a lambda) so the wait discipline stays
    // visible to the thread-safety analysis; see common/sync.hpp.
    while (empty() && !stop()) cv_.wait(wait_mutex_);
    waiters_.fetch_sub(1, std::memory_order_relaxed);
    return !empty();
  }

  /// Wakes any consumer blocked in wait_nonempty (used by the runtime's
  /// abort path so a failed peer can never strand a waiter).
  void interrupt() PLV_EXCLUDES(wait_mutex_) {
    { plv::MutexLock lock(wait_mutex_); }
    cv_.notify_all();
  }

  [[nodiscard]] bool empty() const noexcept {
    return head_.load(std::memory_order_seq_cst) == nullptr;
  }

 private:
  std::atomic<Chunk*> head_{nullptr};
  std::atomic<int> waiters_{0};
  // wait_mutex_ guards no data — it exists purely for the cv_ sleep/wake
  // handshake (queue state lives in the lock-free head_); producers brush
  // it only on the empty -> non-empty transition, see push().
  plv::Mutex wait_mutex_;
  plv::CondVar cv_;
};

}  // namespace plv::pml
