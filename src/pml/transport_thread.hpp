// ThreadTransport: the default thread-per-rank backend.
//
// This is the original pml substrate factored behind the Transport seam,
// with its two performance properties intact:
//
//   * collectives are zero-serialization — each rank publishes a pointer
//     to its span array through the shared `slots` vector and reads peer
//     payloads in place between two barrier phases;
//   * fine-grained sends are zero-copy — pooled Chunk pointers move
//     between per-rank mailboxes, never the bytes.
//
// The only cost added by the seam is one virtual dispatch per chunk /
// collective, amortized over thousands of records (bench/micro_pml guards
// the steady-state throughput).
#pragma once

#include <atomic>
#include <barrier>
#include <cstddef>
#include <vector>

#include "pml/mailbox.hpp"
#include "pml/transport.hpp"

namespace plv::pml {

namespace detail {

/// State shared by all rank threads of one run.
///
/// Synchronization map (why nothing here carries a PLV_GUARDED_BY): the
/// `slots` entries are published between two barrier phases — a rank
/// writes only its own slot before the first arrive_and_wait and peers
/// read it only after, so the barrier itself is the release/acquire edge
/// and no lock exists for the analysis to name. `mailboxes` are
/// internally synchronized (lock-free MPSC + annotated wait path, see
/// mailbox.hpp); `pools` are strictly single-owner (only the rank's own
/// thread touches its pool); `aborted` is a plain seq_cst flag.
struct ThreadShared {
  explicit ThreadShared(int nranks)
      : nranks(nranks),
        barrier(nranks),
        slots(static_cast<std::size_t>(nranks), nullptr),
        mailboxes(static_cast<std::size_t>(nranks)),
        pools(static_cast<std::size_t>(nranks)) {}

  int nranks;
  std::barrier<> barrier;
  std::vector<const void*> slots;  // per-rank span-array pointer for collectives
  std::vector<Mailbox> mailboxes;  // fine-grained receive queues
  std::vector<ChunkPool> pools;    // per-rank free lists; touched only by owner
  std::atomic<bool> aborted{false};

  /// Raises the abort flag and wakes every rank parked in a mailbox wait.
  void abort() noexcept {
    aborted.store(true, std::memory_order_seq_cst);
    for (auto& mb : mailboxes) mb.interrupt();
  }
};

}  // namespace detail

class ThreadTransport final : public Transport {
 public:
  ThreadTransport(detail::ThreadShared* shared, int rank) noexcept
      : shared_(shared), rank_(rank) {}

  [[nodiscard]] const char* name() const noexcept override { return "thread"; }
  [[nodiscard]] int rank() const noexcept override { return rank_; }
  [[nodiscard]] int nranks() const noexcept override { return shared_->nranks; }

  void barrier() override { sync(); }

  void alltoallv(std::span<const std::span<const std::byte>> outgoing,
                 CollectiveSink& sink) override {
    assert(static_cast<int>(outgoing.size()) == nranks());
    shared_->slots[me()] = outgoing.data();
    sync();  // all span arrays visible
    std::size_t total = 0;
    for (int r = 0; r < nranks(); ++r) total += peer_payload(r).size();
    sink.total_hint(total);
    for (int r = 0; r < nranks(); ++r) sink.deliver(r, peer_payload(r));
    sync();  // all ranks done reading; spans may be reused after return
  }

  [[nodiscard]] Chunk* acquire_chunk(std::size_t reserve_bytes) override {
    return pool().acquire(reserve_bytes);
  }
  void release_chunk(Chunk* chunk) noexcept override { pool().release(chunk); }

  void send(int dest, Chunk* chunk) override {
    shared_->mailboxes[static_cast<std::size_t>(dest)].push(chunk);
  }

  std::size_t drain(std::vector<Chunk*>& out) override {
    return shared_->mailboxes[me()].drain(out);
  }

  void wait_incoming() override {
    shared_->mailboxes[me()].wait_nonempty([this] { return aborted(); });
  }

  void raise_abort() noexcept override { shared_->abort(); }
  [[nodiscard]] bool aborted() const noexcept override {
    return shared_->aborted.load(std::memory_order_seq_cst);
  }

  void trim_pool() noexcept override { pool().trim(); }
  [[nodiscard]] std::size_t pool_free_count() const noexcept override {
    return shared_->pools[me()].free_count();
  }

 private:
  [[nodiscard]] std::size_t me() const noexcept {
    return static_cast<std::size_t>(rank_);
  }
  [[nodiscard]] ChunkPool& pool() noexcept { return shared_->pools[me()]; }

  /// Rank r's payload addressed to this rank, read in place from the
  /// peer's published span array.
  [[nodiscard]] std::span<const std::byte> peer_payload(int r) const noexcept {
    const auto* spans = static_cast<const std::span<const std::byte>*>(
        shared_->slots[static_cast<std::size_t>(r)]);
    return spans[me()];
  }

  void check_abort() const {
    if (aborted()) throw AbortedError();
  }

  /// One barrier phase with abort checks on both sides: never arrive when
  /// the run is already dead, and never touch peer state after waking
  /// without confirming every peer made it here too.
  void sync() {
    check_abort();
    shared_->barrier.arrive_and_wait();
    check_abort();
  }

  detail::ThreadShared* shared_;
  int rank_;
};

}  // namespace plv::pml
