#include "pml/aggregator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "transport_param.hpp"

namespace plv::pml {
namespace {

struct Record {
  int source;
  int payload;
};

class AggregatorTest : public ::testing::TestWithParam<TransportKind> {
 protected:
  void SetUp() override { PLV_SKIP_IF_UNSUPPORTED(GetParam()); }
  void run(int nranks, const std::function<void(Comm&)>& body) const {
    Runtime::run(nranks, body, GetParam());
  }
};

TEST_P(AggregatorTest, DeliversEverythingAfterFlush) {
  run(4, [&](Comm& comm) {
    Aggregator<Record> agg(comm, 8);
    // Each rank sends 100 records round-robin across destinations.
    for (int i = 0; i < 100; ++i) {
      agg.push(i % comm.nranks(), Record{comm.rank(), i});
    }
    agg.flush_all_final();
    int received = 0;
    comm.drain_streaming_finalized<Record>([&](int, std::span<const Record> recs) {
      received += static_cast<int>(recs.size());
    });
    PLV_RANK_CHECK_EQ(received, 100);  // 4 ranks * 25 records each to me
  });
}

TEST_P(AggregatorTest, CoalescesIntoCapacitySizedChunks) {
  run(2, [&](Comm& comm) {
    Aggregator<Record> agg(comm, 10);
    for (int i = 0; i < 95; ++i) agg.push(1 - comm.rank(), Record{comm.rank(), i});
    agg.flush_all_final();
    // 95 records with capacity 10 → 9 full + 1 partial = 10 chunks.
    PLV_RANK_CHECK_EQ(comm.stats().chunks_sent, 10u);
    comm.drain_streaming_finalized<Record>([](int, std::span<const Record>) {});
  });
}

TEST_P(AggregatorTest, PreservesRecordContents) {
  run(3, [&](Comm& comm) {
    Aggregator<Record> agg(comm, 4);
    for (int i = 0; i < 30; ++i) {
      agg.push((comm.rank() + 1) % comm.nranks(), Record{comm.rank(), i * 7});
    }
    agg.flush_all_final();
    std::map<int, std::vector<int>> by_source;
    comm.drain_streaming_finalized<Record>([&](int, std::span<const Record> recs) {
      for (const Record& r : recs) by_source[r.source].push_back(r.payload);
    });
    const int expected_source = (comm.rank() + comm.nranks() - 1) % comm.nranks();
    PLV_RANK_CHECK_EQ(by_source.size(), 1u);
    PLV_RANK_CHECK(by_source.contains(expected_source));
    auto& payloads = by_source[expected_source];
    std::sort(payloads.begin(), payloads.end());
    for (int i = 0; i < 30; ++i) {
      PLV_RANK_CHECK_EQ(payloads[static_cast<std::size_t>(i)], i * 7);
    }
  });
}

TEST_P(AggregatorTest, ZeroCapacityAutoSizes) {
  run(1, [&](Comm& comm) {
    Aggregator<Record> agg(comm, 0);
    PLV_RANK_CHECK_EQ(agg.capacity(), auto_chunk_capacity(1, sizeof(Record)));
    // 8-byte records, 1 rank: 64 KiB target chunk → 8192 records.
    PLV_RANK_CHECK_EQ(agg.capacity(), 8192u);
    agg.push(0, Record{0, 1});
    agg.flush_all_final();
    int n = 0;
    comm.drain_streaming_finalized<Record>(
        [&](int, std::span<const Record> recs) { n += static_cast<int>(recs.size()); });
    PLV_RANK_CHECK_EQ(n, 1);
  });
}

TEST_P(AggregatorTest, SelfSendsWork) {
  run(2, [&](Comm& comm) {
    Aggregator<Record> agg(comm, 16);
    agg.push(comm.rank(), Record{comm.rank(), 42});
    agg.flush_all_final();
    int payload = -1;
    comm.drain_streaming_finalized<Record>([&](int src, std::span<const Record> recs) {
      PLV_RANK_CHECK_EQ(src, comm.rank());
      payload = recs[0].payload;
    });
    PLV_RANK_CHECK_EQ(payload, 42);
  });
}

INSTANTIATE_TEST_SUITE_P(Transports, AggregatorTest,
                         ::testing::ValuesIn(kAllTransports),
                         [](const auto& info) {
                           return transport_test_name(info.param);
                         });

TEST(Aggregator, AutoCapacityScalesWithFleetAndRecordSize) {
  // Small fleets get the 64 KiB target chunk.
  EXPECT_EQ(auto_chunk_capacity(4, 16), 4096u);   // the historical default
  EXPECT_EQ(auto_chunk_capacity(1, 8), 8192u);
  // Wide fleets hit the 4 MiB total-footprint cap: nranks * cap * size ≤ 4 MiB.
  EXPECT_EQ(auto_chunk_capacity(1024, 16), 256u);
  EXPECT_LE(1024u * auto_chunk_capacity(1024, 16) * 16, 4u * 1024 * 1024);
  // But never below the 64-record coalescing floor.
  EXPECT_EQ(auto_chunk_capacity(100000, 16), 64u);
  // Degenerate inputs stay sane.
  EXPECT_EQ(auto_chunk_capacity(0, 16), auto_chunk_capacity(1, 16));
  EXPECT_EQ(auto_chunk_capacity(4, 0), 64u);
}

}  // namespace
}  // namespace plv::pml
