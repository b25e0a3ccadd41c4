// Per-destination message coalescing.
//
// The paper's runtime achieves scalability on fine-grained graph workloads
// by aggregating tiny messages into network-sized chunks before injection
// (Section IV, refs [27]-[29]). Aggregator reproduces that: callers push
// individual records addressed to a rank, and the records are written
// straight into a pooled Chunk owned by the runtime. A full buffer is
// *handed* (pointer transfer, no copy, no allocation in steady state) to
// the destination mailbox; the receiver releases the chunk back to the
// shared pool, where the next flush picks it up again.
#pragma once

#include <cassert>
#include <cstddef>
#include <type_traits>
#include <vector>

#include "pml/comm.hpp"
#include "pml/mailbox.hpp"

namespace plv::pml {

/// Default per-destination coalescing capacity (in records) for a given
/// fleet size and record width. Targets 64 KiB chunks — large enough to
/// amortize per-chunk overhead, small enough to stay cache- and
/// latency-friendly — then caps the rank's total buffered footprint
/// (nranks × chunk) at 4 MiB so wide fleets don't balloon, with a floor of
/// 64 records so coalescing never degenerates to per-record sends. For
/// 16-byte records at small rank counts this yields 4096, the historical
/// default the benches sweep around.
[[nodiscard]] constexpr std::size_t auto_chunk_capacity(
    int nranks, std::size_t record_size) noexcept {
  constexpr std::size_t kTargetChunkBytes = 64ULL * 1024;
  constexpr std::size_t kMaxTotalBytes = 4ULL * 1024 * 1024;
  constexpr std::size_t kMinRecords = 64;
  if (record_size == 0) return kMinRecords;
  const std::size_t ranks = nranks > 0 ? static_cast<std::size_t>(nranks) : 1;
  std::size_t cap = kTargetChunkBytes / record_size;
  const std::size_t total_cap = kMaxTotalBytes / (ranks * record_size);
  if (cap > total_cap) cap = total_cap;
  return cap < kMinRecords ? kMinRecords : cap;
}

template <typename T>
class Aggregator {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  /// `capacity` is the per-destination coalescing buffer size in records;
  /// 0 (the default) auto-sizes from the fleet size and record width via
  /// auto_chunk_capacity(). Benches sweep explicit values.
  explicit Aggregator(Comm& comm, std::size_t capacity = 0)
      : comm_(comm),
        capacity_(capacity == 0 ? auto_chunk_capacity(comm.nranks(), sizeof(T))
                                : capacity),
        chunk_bytes_(capacity_ * sizeof(T)),
        slots_(static_cast<std::size_t>(comm.nranks())) {}

  Aggregator(const Aggregator&) = delete;
  Aggregator& operator=(const Aggregator&) = delete;

  ~Aggregator() {
    for (Slot& s : slots_) {
      if (s.chunk != nullptr) comm_.release_chunk(s.chunk);
    }
  }

  /// Queues one record for `dest`, flushing that destination's buffer if
  /// full. Hot path is a bounds-checked memcpy plus a cursor bump into the
  /// destination's pooled chunk.
  void push(int dest, const T& record) {
    assert(dest >= 0 && dest < comm_.nranks());
    Slot& s = slots_[static_cast<std::size_t>(dest)];
    if (s.cur == s.end) refill(s);  // cold: first use, or buffer just shipped
    std::memcpy(s.cur, &record, sizeof(T));
    s.cur += sizeof(T);
    if (s.cur == s.end) flush(dest);
  }

  /// Sends whatever is queued for `dest`.
  void flush(int dest) {
    assert(dest >= 0 && dest < comm_.nranks());
    Slot& s = slots_[static_cast<std::size_t>(dest)];
    if (s.chunk == nullptr) return;
    const auto bytes = static_cast<std::size_t>(s.cur - s.chunk->raw());
    if (bytes == 0) return;
    Chunk* chunk = s.chunk;
    // Clear the slot before handing the chunk over: ownership transfers to
    // the transport at the send_filled call whether or not it throws (a
    // send interrupted by an abort still disposes of the chunk), so the
    // destructor must never see this pointer again.
    s = Slot{};
    chunk->set_size(bytes);
    comm_.send_filled(dest, chunk, bytes / sizeof(T));
  }

  /// Ends the phase toward every destination in a single message each:
  /// the last buffered chunk ships as a fused data+marker
  /// (send_filled_final), and destinations with nothing buffered get a
  /// pure marker. Must be called before the phase's
  /// drain_streaming_finalized; nothing may be pushed after this until
  /// the phase completes.
  void flush_all_final() {
    for (int d = 0; d < comm_.nranks(); ++d) {
      Slot& s = slots_[static_cast<std::size_t>(d)];
      const std::size_t bytes =
          s.chunk != nullptr ? static_cast<std::size_t>(s.cur - s.chunk->raw()) : 0;
      if (bytes == 0) {
        if (s.chunk != nullptr) {
          comm_.release_chunk(s.chunk);
          s = Slot{};
        }
        comm_.send_marker(d);
        continue;
      }
      Chunk* chunk = s.chunk;
      s = Slot{};  // ownership transfers below, even on throw
      chunk->set_size(bytes);
      comm_.send_filled_final(d, chunk, bytes / sizeof(T));
    }
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  /// Per-destination write cursor into the chunk being filled.
  struct Slot {
    Chunk* chunk{nullptr};
    std::byte* cur{nullptr};
    std::byte* end{nullptr};
  };

  void refill(Slot& s) {
    s.chunk = comm_.acquire_chunk(chunk_bytes_);
    s.cur = s.chunk->raw();
    s.end = s.cur + chunk_bytes_;
  }

  Comm& comm_;
  std::size_t capacity_;
  std::size_t chunk_bytes_;
  std::vector<Slot> slots_;
};

}  // namespace plv::pml
