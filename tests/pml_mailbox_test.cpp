// Unit tests for the chunk pool and the lock-free MPSC mailbox, including
// the blocking wait the quiescence protocol and abort path depend on.
#include "pml/mailbox.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

namespace plv::pml {
namespace {

TEST(Chunk, AppendGrowsAndPreservesContents) {
  Chunk c;
  std::vector<std::uint32_t> values(1000);
  for (std::uint32_t i = 0; i < 1000; ++i) {
    values[i] = i * 7;
    c.append(&values[i], sizeof(std::uint32_t));
  }
  ASSERT_EQ(c.size(), 1000 * sizeof(std::uint32_t));
  EXPECT_EQ(std::memcmp(c.data(), values.data(), c.size()), 0);
}

TEST(Chunk, RecycleKeepsStorageCapacity) {
  Chunk c;
  c.reserve(4096);
  const std::byte* storage = c.data();
  c.source = 3;
  c.control = true;
  c.recycle();
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.source, -1);
  EXPECT_FALSE(c.control);
  EXPECT_GE(c.capacity(), 4096u);
  EXPECT_EQ(c.data(), storage);  // no reallocation
}

TEST(Chunk, CursorWriteMatchesAppend) {
  Chunk c;
  c.reserve(64);
  const std::uint64_t value = 0xDEADBEEFCAFEF00DULL;
  std::memcpy(c.raw(), &value, sizeof value);
  c.set_size(sizeof value);
  ASSERT_EQ(c.size(), sizeof value);
  std::uint64_t back = 0;
  std::memcpy(&back, c.data(), sizeof back);
  EXPECT_EQ(back, value);
}

TEST(ChunkPool, ReusesReleasedNodes) {
  ChunkPool pool;
  Chunk* a = pool.acquire(128);
  pool.release(a);
  Chunk* b = pool.acquire(64);  // smaller request must still reuse
  EXPECT_EQ(b, a);
  EXPECT_GE(b->capacity(), 128u);
  pool.release(b);
}

TEST(ChunkPool, TracksFreeCount) {
  ChunkPool pool;
  EXPECT_EQ(pool.free_count(), 0u);
  Chunk* a = pool.acquire(32);
  Chunk* b = pool.acquire(32);
  EXPECT_EQ(pool.free_count(), 0u);
  pool.release(a);
  pool.release(b);
  EXPECT_EQ(pool.free_count(), 2u);
  Chunk* c = pool.acquire(32);
  EXPECT_EQ(pool.free_count(), 1u);
  pool.release(c);
}

TEST(ChunkPool, DefaultWatermarkKeepsKChunkPoolWatermarkNodes) {
  ChunkPool pool;
  std::vector<Chunk*> held;
  for (std::size_t i = 0; i < kChunkPoolWatermark + 8; ++i) held.push_back(pool.acquire(16));
  for (Chunk* c : held) pool.release(c);
  pool.trim();
  EXPECT_EQ(pool.free_count(), kChunkPoolWatermark);
  // Survivors are still usable after the trim.
  held.clear();
  for (std::size_t i = 0; i < kChunkPoolWatermark; ++i) held.push_back(pool.acquire(16));
  EXPECT_EQ(pool.free_count(), 0u);
  for (Chunk* c : held) pool.release(c);
}

TEST(ChunkPool, TrimUnderWatermarkIsANoOp) {
  ChunkPool pool;
  Chunk* a = pool.acquire(16);
  pool.release(a);
  pool.trim();
  EXPECT_EQ(pool.free_count(), 1u);
  EXPECT_EQ(pool.acquire(16), a);  // the survivor is the same node
  pool.release(a);
}

TEST(Mailbox, DrainPreservesPerProducerFifoOrder) {
  // The quiescence protocol requires a sender's data chunks to be
  // delivered before its end-of-phase marker.
  ChunkPool pool;
  Mailbox mb;
  constexpr int kChunks = 100;
  for (int i = 0; i < kChunks; ++i) {
    Chunk* c = pool.acquire(sizeof(int));
    c->append(&i, sizeof i);
    mb.push(c);
  }
  std::vector<Chunk*> out;
  EXPECT_EQ(mb.drain(out), static_cast<std::size_t>(kChunks));
  ASSERT_EQ(out.size(), static_cast<std::size_t>(kChunks));
  for (int i = 0; i < kChunks; ++i) {
    int v = -1;
    std::memcpy(&v, out[i]->data(), sizeof v);
    EXPECT_EQ(v, i);
    pool.release(out[i]);
  }
  EXPECT_TRUE(mb.empty());
}

TEST(Mailbox, ConcurrentProducersLoseNothing) {
  Mailbox mb;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&mb, p] {
      ChunkPool local;  // pools are single-owner; one per producer thread
      for (int i = 0; i < kPerProducer; ++i) {
        Chunk* c = local.acquire(sizeof(int));
        const int v = p * kPerProducer + i;
        c->append(&v, sizeof v);
        c->source = p;
        mb.push(c);
      }
      // Nodes were handed to the mailbox; the consumer deletes them.
    });
  }
  for (auto& t : producers) t.join();
  std::vector<Chunk*> out;
  mb.drain(out);
  ASSERT_EQ(out.size(), static_cast<std::size_t>(kProducers) * kPerProducer);
  std::vector<int> last_seen(kProducers, -1);
  std::uint64_t sum = 0;
  for (Chunk* c : out) {
    int v = -1;
    std::memcpy(&v, c->data(), sizeof v);
    // FIFO per producer: values from one source arrive in push order.
    EXPECT_GT(v, last_seen[static_cast<std::size_t>(c->source)]);
    last_seen[static_cast<std::size_t>(c->source)] = v;
    sum += static_cast<std::uint64_t>(v);
    delete c;
  }
  const std::uint64_t n = kProducers * kPerProducer;
  EXPECT_EQ(sum, n * (n - 1) / 2);
}

TEST(Mailbox, WaitNonemptyWakesOnPush) {
  ChunkPool pool;
  Mailbox mb;
  std::atomic<bool> woke{false};
  std::thread consumer([&] {
    const bool nonempty = mb.wait_nonempty([] { return false; });
    EXPECT_TRUE(nonempty);
    woke.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Chunk* c = pool.acquire(8);
  const std::uint64_t v = 1;
  c->append(&v, sizeof v);
  mb.push(c);
  consumer.join();
  EXPECT_TRUE(woke.load());
  std::vector<Chunk*> out;
  mb.drain(out);
  for (Chunk* drained : out) pool.release(drained);
}

TEST(Mailbox, WaitNonemptyReturnsOnStopSignal) {
  Mailbox mb;
  std::atomic<bool> stop{false};
  std::thread consumer([&] {
    const bool nonempty = mb.wait_nonempty([&] { return stop.load(); });
    EXPECT_FALSE(nonempty);  // nothing was ever pushed
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true);
  mb.interrupt();
  consumer.join();
}

TEST(Mailbox, WaitNonemptyReturnsImmediatelyWhenChunksQueued) {
  ChunkPool pool;
  Mailbox mb;
  mb.push(pool.acquire(8));
  EXPECT_TRUE(mb.wait_nonempty([] { return false; }));
  std::vector<Chunk*> out;
  mb.drain(out);
  for (Chunk* c : out) pool.release(c);
}

}  // namespace
}  // namespace plv::pml
