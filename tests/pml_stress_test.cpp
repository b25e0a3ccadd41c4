// Randomized stress tests of the messaging layer: many rounds of mixed
// collectives and fine-grained traffic, validated against locally
// computable ground truth. These are the failure-injection-style tests
// for the substrate every higher layer depends on.
//
// Parameterized over both transports; rank bodies report failures by
// throwing (PLV_RANK_CHECK) so forked proc-backend children surface them.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <numeric>
#include <thread>

#include "common/random.hpp"
#include "pml/aggregator.hpp"
#include "pml/comm.hpp"
#include "transport_param.hpp"

namespace plv::pml {
namespace {

class PmlStress : public ::testing::TestWithParam<TransportKind> {
 protected:
  void SetUp() override { PLV_SKIP_IF_UNSUPPORTED(GetParam()); }
  void run(int nranks, const std::function<void(Comm&)>& body) const {
    Runtime::run(nranks, body, GetParam());
  }
};

TEST_P(PmlStress, RepeatedMixedCollectivesStayConsistent) {
  constexpr int kRounds = 200;
  run(4, [&](Comm& comm) {
    Xoshiro256 rng(1000 + static_cast<std::uint64_t>(comm.rank()));
    for (int round = 0; round < kRounds; ++round) {
      // Values derived from (round, rank) so every rank can predict the
      // global result independently.
      const std::uint64_t mine = mix64(static_cast<std::uint64_t>(round) * 31 +
                                       static_cast<std::uint64_t>(comm.rank())) %
                                 1000;
      std::uint64_t expected_sum = 0, expected_max = 0;
      for (int r = 0; r < comm.nranks(); ++r) {
        const std::uint64_t v =
            mix64(static_cast<std::uint64_t>(round) * 31 + static_cast<std::uint64_t>(r)) %
            1000;
        expected_sum += v;
        expected_max = std::max(expected_max, v);
      }
      PLV_RANK_CHECK_EQ(comm.allreduce_sum(mine), expected_sum);
      PLV_RANK_CHECK_EQ(comm.allreduce_max(mine), expected_max);
      const auto gathered = comm.allgather(mine);
      for (int r = 0; r < comm.nranks(); ++r) {
        PLV_RANK_CHECK_EQ(gathered[static_cast<std::size_t>(r)],
                          mix64(static_cast<std::uint64_t>(round) * 31 +
                                static_cast<std::uint64_t>(r)) %
                              1000);
      }
      (void)rng();
    }
  });
}

TEST_P(PmlStress, RandomizedExchangeConservesRecords) {
  constexpr int kRounds = 50;
  run(5, [&](Comm& comm) {
    Xoshiro256 rng(77 + static_cast<std::uint64_t>(comm.rank()));
    for (int round = 0; round < kRounds; ++round) {
      std::vector<std::vector<std::uint64_t>> outgoing(5);
      std::uint64_t sent_checksum = 0;
      for (int d = 0; d < 5; ++d) {
        const std::uint64_t count = rng.next_below(20);
        for (std::uint64_t i = 0; i < count; ++i) {
          const std::uint64_t value = rng();
          outgoing[static_cast<std::size_t>(d)].push_back(value);
          sent_checksum += value;
        }
      }
      const auto incoming = comm.exchange(outgoing);
      std::uint64_t recv_checksum = 0;
      for (std::uint64_t v : incoming) recv_checksum += v;
      // Globally, everything sent is received exactly once.
      PLV_RANK_CHECK_EQ(comm.allreduce_sum(sent_checksum),
                        comm.allreduce_sum(recv_checksum));
    }
  });
}

TEST_P(PmlStress, FineGrainedFloodDeliversEverything) {
  // Every rank floods every rank with small chunks through an
  // aggregator with a tiny capacity (maximum chunking overhead).
  run(6, [&](Comm& comm) {
    struct Rec {
      std::uint32_t src;
      std::uint32_t seq;
    };
    constexpr std::uint32_t kPerDest = 500;
    Aggregator<Rec> agg(comm, 3);
    for (std::uint32_t seq = 0; seq < kPerDest; ++seq) {
      for (int d = 0; d < comm.nranks(); ++d) {
        agg.push(d, Rec{static_cast<std::uint32_t>(comm.rank()), seq});
      }
    }
    agg.flush_all_final();
    std::map<std::uint32_t, std::uint64_t> per_source;
    std::map<std::uint32_t, std::uint64_t> seq_sums;
    comm.drain_streaming_finalized<Rec>([&](int, std::span<const Rec> recs) {
      for (const Rec& r : recs) {
        ++per_source[r.src];
        seq_sums[r.src] += r.seq;
      }
    });
    PLV_RANK_CHECK_EQ(per_source.size(), 6u);
    const std::uint64_t expected_seq_sum =
        static_cast<std::uint64_t>(kPerDest) * (kPerDest - 1) / 2;
    for (const auto& [src, count] : per_source) {
      PLV_RANK_CHECK_EQ(count, kPerDest);
      PLV_RANK_CHECK_EQ(seq_sums[src], expected_seq_sum);
    }
  });
}

TEST_P(PmlStress, InterleavedPhasesDoNotLeakRecords) {
  // Two consecutive fine-grained phases with different record types: the
  // quiescence protocol must fence them perfectly.
  run(3, [&](Comm& comm) {
    struct A {
      std::uint64_t tag;
    };
    struct B {
      std::uint64_t tag;
    };
    for (int phase = 0; phase < 10; ++phase) {
      Aggregator<A> agg_a(comm, 4);
      for (int d = 0; d < comm.nranks(); ++d) agg_a.push(d, A{0xAAAA});
      agg_a.flush_all_final();
      std::size_t got_a = 0;
      comm.drain_streaming_finalized<A>([&](int, std::span<const A> recs) {
        for (const A& a : recs) {
          PLV_RANK_CHECK_EQ(a.tag, 0xAAAAu);
          ++got_a;
        }
      });
      PLV_RANK_CHECK_EQ(got_a, 3u);

      Aggregator<B> agg_b(comm, 4);
      for (int d = 0; d < comm.nranks(); ++d) agg_b.push(d, B{0xBBBB});
      agg_b.flush_all_final();
      std::size_t got_b = 0;
      comm.drain_streaming_finalized<B>([&](int, std::span<const B> recs) {
        for (const B& b : recs) {
          PLV_RANK_CHECK_EQ(b.tag, 0xBBBBu);
          ++got_b;
        }
      });
      PLV_RANK_CHECK_EQ(got_b, 3u);
    }
  });
}

TEST_P(PmlStress, QuiescenceTerminatesWithInterleavedSendPoll) {
  // The counted-termination protocol must converge whatever the send
  // pattern: random bursts to random destinations through a tiny
  // aggregator, so chunks ship mid-phase while peers are still sending,
  // and every record sent before the drain is counted by exactly one
  // marker across 8 ranks.
  constexpr int kRounds = 20;
  run(8, [&](Comm& comm) {
    struct Rec {
      std::uint32_t src;
      std::uint32_t round;
    };
    Xoshiro256 rng(42 + static_cast<std::uint64_t>(comm.rank()));
    for (int round = 0; round < kRounds; ++round) {
      Aggregator<Rec> agg(comm, 2);
      std::uint64_t got = 0;
      auto handler = [&](int, std::span<const Rec> recs) {
        for (const Rec& r : recs) {
          PLV_RANK_CHECK_EQ(r.round, static_cast<std::uint32_t>(round));
          ++got;
        }
      };
      // Each rank sends a random number of records to random destinations
      // in bursts; arrivals queue at the receivers while sends continue.
      const std::uint64_t bursts = 1 + rng.next_below(8);
      std::uint64_t sent = 0;
      for (std::uint64_t b = 0; b < bursts; ++b) {
        const std::uint64_t records = rng.next_below(40);
        for (std::uint64_t i = 0; i < records; ++i) {
          const int dest = static_cast<int>(rng.next_below(8));
          agg.push(dest, Rec{static_cast<std::uint32_t>(comm.rank()),
                             static_cast<std::uint32_t>(round)});
          ++sent;
        }
      }
      agg.flush_all_final();
      comm.drain_streaming_finalized<Rec>(handler);
      // Globally nothing is lost or duplicated.
      PLV_RANK_CHECK_EQ(comm.allreduce_sum(sent), comm.allreduce_sum(got));
    }
  });
}

TEST_P(PmlStress, PhaseSkewDeferralKeepsEpochsSeparate) {
  // Ranks deliberately race ahead: a fast rank finishes its drain and
  // immediately starts sending epoch-(E+1) traffic while slow ranks are
  // still polling epoch E. Epoch tags must defer early chunks, never
  // deliver them into the wrong phase.
  constexpr int kPhases = 50;
  run(6, [&](Comm& comm) {
    for (int phase = 0; phase < kPhases; ++phase) {
      // Odd ranks stall before sending so even ranks run a phase ahead.
      if (comm.rank() % 2 == 1 && phase % 5 == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      Aggregator<std::uint64_t> agg(comm, 1);  // one record per chunk
      const auto tag = static_cast<std::uint64_t>(phase);
      for (int d = 0; d < comm.nranks(); ++d) agg.push(d, tag);
      agg.flush_all_final();
      std::uint64_t got = 0;
      comm.drain_streaming_finalized<std::uint64_t>(
          [&](int, std::span<const std::uint64_t> recs) {
            for (std::uint64_t v : recs) {
              // A mismatch here means a record leaked across phases.
              PLV_RANK_CHECK_EQ(v, tag);
              ++got;
            }
          });
      PLV_RANK_CHECK_EQ(got, static_cast<std::uint64_t>(comm.nranks()));
    }
  });
}

TEST_P(PmlStress, ManyRanksOnOneCore) {
  // Oversubscription: 16 ranks on this 1-core container must still
  // complete a full collective + fine-grained workout.
  run(16, [&](Comm& comm) {
    const int total = comm.allreduce_sum(1);
    PLV_RANK_CHECK_EQ(total, 16);
    Aggregator<int> agg(comm, 8);
    agg.push((comm.rank() + 1) % 16, comm.rank());
    agg.flush_all_final();
    int received = -1;
    comm.drain_streaming_finalized<int>([&](int, std::span<const int> recs) {
      received = recs[0];
    });
    PLV_RANK_CHECK_EQ(received, (comm.rank() + 15) % 16);
  });
}

INSTANTIATE_TEST_SUITE_P(Transports, PmlStress,
                         ::testing::ValuesIn(kAllTransports),
                         [](const auto& info) {
                           return transport_test_name(info.param);
                         });

}  // namespace
}  // namespace plv::pml
