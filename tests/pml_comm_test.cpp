#include "pml/comm.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <numeric>
#include <span>
#include <tuple>

#include "pml/aggregator.hpp"
#include "transport_param.hpp"

namespace plv::pml {
namespace {

// Every Comm contract test runs on both transports and several fleet
// sizes. Rank bodies report failures by throwing (PLV_RANK_CHECK) so the
// proc backend — where ranks > 0 are forked children — surfaces them too.
class CommTest
    : public ::testing::TestWithParam<std::tuple<TransportKind, int>> {
 protected:
  void SetUp() override { PLV_SKIP_IF_UNSUPPORTED(kind()); }
  [[nodiscard]] TransportKind kind() const { return std::get<0>(GetParam()); }
  [[nodiscard]] int nranks() const { return std::get<1>(GetParam()); }
  void run(const std::function<void(Comm&)>& body) const {
    Runtime::run(nranks(), body, kind());
  }
};

TEST_P(CommTest, RankAndSizeAreConsistent) {
  const int n = nranks();
  run([&](Comm& comm) {
    PLV_RANK_CHECK_EQ(comm.nranks(), n);
    PLV_RANK_CHECK(comm.rank() >= 0);
    PLV_RANK_CHECK(comm.rank() < n);
    // Rank ids are a permutation of 0..n-1: their sum is fixed, and the
    // reduction reaches every rank (shared-memory counters would not
    // cross the proc backend's process boundary).
    PLV_RANK_CHECK_EQ(comm.allreduce_sum(comm.rank()), n * (n - 1) / 2);
  });
}

TEST_P(CommTest, AllreduceSum) {
  const int n = nranks();
  run([&](Comm& comm) {
    const std::uint64_t total = comm.allreduce_sum<std::uint64_t>(comm.rank() + 1);
    PLV_RANK_CHECK_EQ(total, static_cast<std::uint64_t>(n) * (n + 1) / 2);
  });
}

TEST_P(CommTest, AllreduceMinMax) {
  const int n = nranks();
  run([&](Comm& comm) {
    PLV_RANK_CHECK_EQ(comm.allreduce_max(comm.rank()), n - 1);
    PLV_RANK_CHECK_EQ(comm.allreduce_min(comm.rank()), 0);
  });
}

TEST_P(CommTest, AllreduceDoubleIsDeterministicAcrossRuns) {
  std::vector<double> results(2, 0.0);
  for (int run_idx = 0; run_idx < 2; ++run_idx) {
    double out = 0.0;  // written by rank 0 only: the calling process on
                       // both backends, so the capture is safe.
    run([&](Comm& comm) {
      // Values chosen so naive reassociation would give different bits.
      const double mine = 1.0 / (comm.rank() + 3.7);
      const double total = comm.allreduce_sum(mine);
      if (comm.rank() == 0) out = total;
    });
    results[static_cast<std::size_t>(run_idx)] = out;
  }
  EXPECT_EQ(results[0], results[1]);  // bitwise equal: rank-order combine
}

TEST_P(CommTest, AllreduceVecSum) {
  const int n = nranks();
  run([&](Comm& comm) {
    std::vector<std::uint64_t> counts(8, 0);
    counts[static_cast<std::size_t>(comm.rank()) % 8] = 1;
    comm.allreduce_vec_sum(counts);
    const std::uint64_t total = std::accumulate(counts.begin(), counts.end(), 0ULL);
    PLV_RANK_CHECK_EQ(total, static_cast<std::uint64_t>(n));
  });
}

TEST_P(CommTest, AllgatherIsRankIndexed) {
  const int n = nranks();
  run([&](Comm& comm) {
    const auto all = comm.allgather(comm.rank() * 10);
    PLV_RANK_CHECK_EQ(all.size(), static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) {
      PLV_RANK_CHECK_EQ(all[static_cast<std::size_t>(r)], r * 10);
    }
  });
}

TEST_P(CommTest, AllgathervConcatenatesInRankOrder) {
  const int n = nranks();
  run([&](Comm& comm) {
    std::vector<int> mine(static_cast<std::size_t>(comm.rank()) + 1, comm.rank());
    const auto all = comm.allgatherv(mine);
    std::size_t expected = 0;
    for (int r = 0; r < n; ++r) expected += static_cast<std::size_t>(r) + 1;
    PLV_RANK_CHECK_EQ(all.size(), expected);
    // Check grouping: values must be non-decreasing.
    for (std::size_t i = 1; i < all.size(); ++i) {
      PLV_RANK_CHECK(all[i - 1] <= all[i]);
    }
  });
}

TEST_P(CommTest, ExchangeRoutesByDestination) {
  const int n = nranks();
  run([&](Comm& comm) {
    // Rank r sends value r*100+d to each destination d.
    std::vector<std::vector<int>> outgoing(static_cast<std::size_t>(n));
    for (int d = 0; d < n; ++d) {
      outgoing[static_cast<std::size_t>(d)].push_back(comm.rank() * 100 + d);
    }
    const auto incoming = comm.exchange(outgoing);
    PLV_RANK_CHECK_EQ(incoming.size(), static_cast<std::size_t>(n));
    for (int s = 0; s < n; ++s) {
      // rank order, source s
      PLV_RANK_CHECK_EQ(incoming[static_cast<std::size_t>(s)],
                        s * 100 + comm.rank());
    }
  });
}

// Request/reply over the streaming plane, arrivals grouped by source —
// the shape of the engine's Σtot fetch: each rank answers what source s
// asked, and the reply to s comes back matched with s's own requests.
TEST_P(CommTest, ExchangeGroupedMatchesRequestReply) {
  const int n = nranks();
  run([&](Comm& comm) {
    const auto grouped = [&](const std::vector<std::vector<int>>& outgoing) {
      std::vector<std::vector<int>> incoming(static_cast<std::size_t>(n));
      comm.exchange_streaming<int>(outgoing, [&](int src, std::span<const int> vals) {
        auto& dst = incoming[static_cast<std::size_t>(src)];
        dst.insert(dst.end(), vals.begin(), vals.end());
      });
      return incoming;
    };
    std::vector<std::vector<int>> requests(static_cast<std::size_t>(n));
    for (int d = 0; d < n; ++d) {
      for (int i = 0; i <= comm.rank(); ++i) {
        requests[static_cast<std::size_t>(d)].push_back(i);
      }
    }
    const auto incoming = grouped(requests);
    // Reply with value*2, grouped per source.
    std::vector<std::vector<int>> replies(static_cast<std::size_t>(n));
    for (int s = 0; s < n; ++s) {
      for (int v : incoming[static_cast<std::size_t>(s)]) {
        replies[static_cast<std::size_t>(s)].push_back(v * 2);
      }
    }
    const auto answers = grouped(replies);
    for (int s = 0; s < n; ++s) {
      PLV_RANK_CHECK_EQ(answers[static_cast<std::size_t>(s)].size(),
                        static_cast<std::size_t>(comm.rank()) + 1);
      for (int i = 0; i <= comm.rank(); ++i) {
        PLV_RANK_CHECK_EQ(answers[static_cast<std::size_t>(s)]
                                 [static_cast<std::size_t>(i)],
                          i * 2);
      }
    }
  });
}

TEST_P(CommTest, FineGrainedSendAndQuiescence) {
  const int n = nranks();
  run([&](Comm& comm) {
    // Every rank sends its rank id to every rank, one record per chunk.
    Aggregator<int> agg(comm, 1);
    for (int d = 0; d < n; ++d) agg.push(d, comm.rank());
    agg.flush_all_final();
    std::uint64_t received_sum = 0;
    std::size_t records = 0;
    comm.drain_streaming_finalized<int>([&](int /*src*/, std::span<const int> vals) {
      for (int v : vals) {
        received_sum += static_cast<std::uint64_t>(v);
        ++records;
      }
    });
    PLV_RANK_CHECK_EQ(records, static_cast<std::size_t>(n));
    PLV_RANK_CHECK_EQ(received_sum, static_cast<std::uint64_t>(n) * (n - 1) / 2);
  });
}

TEST_P(CommTest, ExchangeStreamingMatchesExchange) {
  const int n = nranks();
  run([&](Comm& comm) {
    // Same routing contract as exchange(): rank r sends r*100+d to each
    // destination d; records arrive grouped per source, sources applied
    // in ascending rank order.
    std::vector<std::vector<int>> outgoing(static_cast<std::size_t>(n));
    for (int d = 0; d < n; ++d) {
      outgoing[static_cast<std::size_t>(d)].push_back(comm.rank() * 100 + d);
    }
    std::vector<int> sources;
    std::vector<int> values;
    comm.exchange_streaming<int>(outgoing, [&](int src, std::span<const int> vals) {
      for (int v : vals) {
        sources.push_back(src);
        values.push_back(v);
      }
    });
    PLV_RANK_CHECK_EQ(values.size(), static_cast<std::size_t>(n));
    for (int s = 0; s < n; ++s) {
      PLV_RANK_CHECK_EQ(sources[static_cast<std::size_t>(s)], s);
      PLV_RANK_CHECK_EQ(values[static_cast<std::size_t>(s)], s * 100 + comm.rank());
    }
  });
}

TEST_P(CommTest, ExchangeStreamingRunsOverlapWorkBeforeDrain) {
  const int n = nranks();
  run([&](Comm& comm) {
    std::vector<std::vector<int>> outgoing(static_cast<std::size_t>(n));
    for (int d = 0; d < n; ++d) outgoing[static_cast<std::size_t>(d)] = {comm.rank()};
    bool overlap_ran = false;
    bool record_seen_before_overlap = false;
    comm.exchange_streaming<int>(
        outgoing,
        [&](int /*src*/, std::span<const int> /*vals*/) {
          if (!overlap_ran) record_seen_before_overlap = true;
        },
        [&] { overlap_ran = true; });
    PLV_RANK_CHECK(overlap_ran);
    PLV_RANK_CHECK(!record_seen_before_overlap);
  });
}

TEST_P(CommTest, ExchangeStreamingHandlesEmptyAndSkewedLoads) {
  const int n = nranks();
  run([&](Comm& comm) {
    // Only rank 0 sends, and only to the highest rank — every other
    // (source, dest) lane is empty, exercising the no-data marker path.
    std::vector<std::vector<std::uint64_t>> outgoing(static_cast<std::size_t>(n));
    if (comm.rank() == 0) {
      outgoing[static_cast<std::size_t>(n - 1)] = {7, 8, 9};
    }
    std::uint64_t sum = 0;
    comm.exchange_streaming<std::uint64_t>(
        outgoing, [&](int src, std::span<const std::uint64_t> vals) {
          PLV_RANK_CHECK_EQ(src, 0);
          for (auto v : vals) sum += v;
        });
    PLV_RANK_CHECK_EQ(sum, comm.rank() == n - 1 ? 24u : 0u);
  });
}

TEST_P(CommTest, StreamingDrainAppliesSourcesInRankOrderAcrossChunks) {
  const int n = nranks();
  run([&](Comm& comm) {
    // Several chunks per (source, dest) lane: the drain must preserve
    // FIFO within a source and ascending order across sources even when
    // chunks from a later source arrive first.
    Aggregator<int> agg(comm, 1);  // one record per chunk
    for (int round = 0; round < 3; ++round) {
      for (int d = 0; d < n; ++d) agg.push(d, comm.rank() * 10 + round);
    }
    agg.flush_all_final();
    std::vector<int> seen;
    comm.drain_streaming_finalized<int>([&](int /*src*/, std::span<const int> vals) {
      seen.insert(seen.end(), vals.begin(), vals.end());
    });
    PLV_RANK_CHECK_EQ(seen.size(), static_cast<std::size_t>(n) * 3);
    for (int s = 0; s < n; ++s) {
      for (int round = 0; round < 3; ++round) {
        PLV_RANK_CHECK_EQ(seen[static_cast<std::size_t>(s * 3 + round)],
                          s * 10 + round);
      }
    }
  });
}

TEST_P(CommTest, TrafficCountersTrackExchange) {
  const int n = nranks();
  run([&](Comm& comm) {
    std::vector<std::vector<std::uint64_t>> outgoing(static_cast<std::size_t>(n));
    for (int d = 0; d < n; ++d) outgoing[static_cast<std::size_t>(d)] = {1, 2, 3};
    (void)comm.exchange(outgoing);
    PLV_RANK_CHECK_EQ(comm.stats().records_sent, static_cast<std::uint64_t>(n) * 3);
    PLV_RANK_CHECK_EQ(comm.stats().records_received,
                      static_cast<std::uint64_t>(n) * 3);
    PLV_RANK_CHECK_EQ(comm.stats().bytes_sent, static_cast<std::uint64_t>(n) * 3 * 8);
  });
}

TEST_P(CommTest, RemoteMessageCounterCountsEveryPeerOnEveryRank) {
  const int n = nranks();
  run([&](Comm& comm) {
    const auto peers = static_cast<std::uint64_t>(n - 1);
    // A streaming exchange ships one fused chunk to every peer; the self
    // lane never leaves the rank.
    const std::vector<std::vector<int>> outgoing(static_cast<std::size_t>(n),
                                                 std::vector<int>{1});
    comm.exchange_streaming<int>(outgoing, [](int, std::span<const int>) {});
    PLV_RANK_CHECK_EQ(comm.stats().inter_group_messages, peers);
    // A collective is one frame to every peer.
    (void)comm.allreduce_sum(1);
    PLV_RANK_CHECK_EQ(comm.stats().inter_group_messages, 2 * peers);
    // An aggregated phase ends with one fused final chunk per destination;
    // the one to this rank itself is not a remote message.
    Aggregator<int> agg(comm);
    for (int d = 0; d < n; ++d) agg.push(d, d);
    agg.flush_all_final();
    comm.drain_streaming_finalized<int>([](int, std::span<const int>) {});
    PLV_RANK_CHECK_EQ(comm.stats().inter_group_messages, 3 * peers);
  });
}

TEST_P(CommTest, ChunkPoolTrimmedAtPhaseBoundary) {
  const int n = nranks();
  run([&](Comm& comm) {
    // Flood every destination with one-record chunks, more of them than
    // the watermark, so each rank's pool accumulates more released nodes
    // than it may keep...
    constexpr int kChunksPerDest = 2 * static_cast<int>(kChunkPoolWatermark);
    for (int round = 0; round < 4; ++round) {
      Aggregator<int> agg(comm, 1);  // one record per chunk
      for (int d = 0; d < n; ++d) {
        for (int i = 0; i < kChunksPerDest; ++i) agg.push(d, comm.rank());
      }
      agg.flush_all_final();
      comm.drain_streaming_finalized<int>([](int, std::span<const int>) {});
      // ...and verify the phase boundary clamped the free list back down.
      PLV_RANK_CHECK(comm.chunk_pool_free_count() <= kChunkPoolWatermark);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    TransportsByRankCounts, CommTest,
    ::testing::Combine(::testing::ValuesIn(kAllTransports),
                       ::testing::Values(1, 2, 3, 4, 8)),
    [](const auto& info) {
      return transport_test_name(std::get<0>(info.param)) + "_nranks" +
             std::to_string(std::get<1>(info.param));
    });

class RuntimeTest : public ::testing::TestWithParam<TransportKind> {
 protected:
  void SetUp() override { PLV_SKIP_IF_UNSUPPORTED(GetParam()); }
};

TEST_P(RuntimeTest, RejectsNonPositiveRankCount) {
  EXPECT_THROW(Runtime::run(0, [](Comm&) {}, GetParam()), std::invalid_argument);
  EXPECT_THROW(Runtime::run(-3, [](Comm&) {}, GetParam()), std::invalid_argument);
}

TEST_P(RuntimeTest, PropagatesRankException) {
  EXPECT_THROW(
      Runtime::run(
          1, [](Comm&) { throw std::runtime_error("rank failure"); }, GetParam()),
      std::runtime_error);
}

INSTANTIATE_TEST_SUITE_P(Transports, RuntimeTest,
                         ::testing::ValuesIn(kAllTransports),
                         [](const auto& info) {
                           return transport_test_name(info.param);
                         });

TEST(Transport, ParseAndResolve) {
  EXPECT_EQ(parse_transport_kind("thread"), TransportKind::kThread);
  EXPECT_EQ(parse_transport_kind("threads"), TransportKind::kThread);
  EXPECT_EQ(parse_transport_kind("proc"), TransportKind::kProc);
  EXPECT_EQ(parse_transport_kind("process"), TransportKind::kProc);
  EXPECT_EQ(parse_transport_kind("processes"), TransportKind::kProc);
  EXPECT_THROW((void)parse_transport_kind("smoke-signals"), std::invalid_argument);

  // resolve_transport: a non-empty PLV_TRANSPORT wins over the requested
  // default; unset or empty leaves the default untouched. Restore the
  // caller's value afterwards (CI legs set it binary-wide).
  const char* saved = std::getenv("PLV_TRANSPORT");
  const std::string saved_value = saved != nullptr ? saved : "";
  unsetenv("PLV_TRANSPORT");
  EXPECT_EQ(resolve_transport(TransportKind::kProc), TransportKind::kProc);
  setenv("PLV_TRANSPORT", "proc", 1);
  EXPECT_EQ(resolve_transport(TransportKind::kThread), TransportKind::kProc);
  setenv("PLV_TRANSPORT", "", 1);
  EXPECT_EQ(resolve_transport(TransportKind::kThread), TransportKind::kThread);
  if (saved != nullptr) {
    setenv("PLV_TRANSPORT", saved_value.c_str(), 1);
  } else {
    unsetenv("PLV_TRANSPORT");
  }
}

}  // namespace
}  // namespace plv::pml
