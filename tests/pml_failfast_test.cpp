// Failure-injection tests for the runtime's fail-fast guarantee: a rank
// that throws must terminate the whole run promptly — peers blocked in
// collectives or in the quiescence wait are woken and unwound instead of
// deadlocking — and the original exception must surface on the caller.
//
// Parameterized over both transports. Exception *identity* differs by
// backend: the thread backend rethrows the original exception object, so
// type and text survive exactly; the proc backend can only ship the text
// of a child-rank failure across the process boundary, so it surfaces a
// RemoteRankError whose message embeds the original text (rank 0 runs in
// the calling process on both backends, so its exceptions keep their
// type everywhere).
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <stdexcept>
#include <string>
#include <tuple>

#include "pml/aggregator.hpp"
#include "pml/comm.hpp"
#include "transport_param.hpp"

namespace plv::pml {
namespace {

using namespace std::chrono_literals;

class FailFast : public ::testing::TestWithParam<TransportKind> {
 protected:
  void SetUp() override { PLV_SKIP_IF_UNSUPPORTED(GetParam()); }

  /// Runs `body` through the Runtime on a helper thread and requires it
  /// to finish (by completing or throwing) within the deadline. Returns
  /// the future so the caller can assert on the propagated exception.
  [[nodiscard]] std::future<void> run_async(int nranks,
                                            std::function<void(Comm&)> body) const {
    return std::async(std::launch::async,
                      [nranks, kind = GetParam(), body = std::move(body)] {
                        Runtime::run(nranks, body, kind);
                      });
  }
};

/// True when the run finished in time. On timeout the future is leaked on
/// purpose: its destructor would otherwise join the hung run and wedge the
/// whole test binary.
[[nodiscard]] bool finished_in_time(std::future<void>& fut,
                                    std::chrono::seconds deadline = std::chrono::seconds(10)) {
  if (fut.wait_for(deadline) == std::future_status::ready) return true;
  new std::future<void>(std::move(fut));
  return false;
}

TEST_P(FailFast, ThrowingRankUnblocksPeersInBarrier) {
  auto fut = run_async(4, [](Comm& comm) {
    if (comm.rank() == 2) throw std::runtime_error("rank 2 exploded");
    // Peers head straight into a collective and would wait forever on
    // rank 2 if the abort did not drop it from the barrier.
    for (int i = 0; i < 1'000'000; ++i) comm.barrier();
  });
  ASSERT_TRUE(finished_in_time(fut)) << "run hung";
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST_P(FailFast, ThrowingRankUnblocksPeersInAllreduce) {
  auto fut = run_async(4, [](Comm& comm) {
    if (comm.rank() == 0) throw std::runtime_error("rank 0 exploded");
    std::uint64_t acc = 0;
    for (int i = 0; i < 1'000'000; ++i) {
      acc += comm.allreduce_sum<std::uint64_t>(1);
    }
  });
  ASSERT_TRUE(finished_in_time(fut)) << "run hung";
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST_P(FailFast, ThrowingRankWakesQuiescenceWaiters) {
  // Surviving ranks park in the counted-termination wait for a marker
  // that the dead rank will never send; the abort must wake them.
  auto fut = run_async(4, [](Comm& comm) {
    if (comm.rank() == 3) throw std::runtime_error("rank 3 exploded");
    Aggregator<int> agg(comm);
    agg.flush_all_final();  // pure end-of-phase markers to every rank
    comm.drain_streaming_finalized<int>([](int, std::span<const int>) {});
  });
  ASSERT_TRUE(finished_in_time(fut)) << "run hung";
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST_P(FailFast, ThrowAfterTrafficStillUnblocksDrain) {
  auto fut = run_async(4, [](Comm& comm) {
    Aggregator<int> agg(comm, 4);
    for (int d = 0; d < comm.nranks(); ++d) agg.push(d, comm.rank());
    agg.flush_all_final();
    if (comm.rank() == 1) throw std::runtime_error("rank 1 exploded");
    comm.drain_streaming_finalized<int>([](int, std::span<const int>) {});
    for (int i = 0; i < 1'000'000; ++i) comm.barrier();
  });
  ASSERT_TRUE(finished_in_time(fut)) << "run hung";
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST_P(FailFast, OriginalExceptionTextIsPreserved) {
  auto fut = run_async(8, [](Comm& comm) {
    if (comm.rank() == 5) throw std::runtime_error("the real cause");
    for (int i = 0; i < 1'000'000; ++i) comm.barrier();
  });
  ASSERT_TRUE(finished_in_time(fut)) << "run hung";
  try {
    fut.get();
    FAIL() << "expected an exception";
  } catch (const AbortedError&) {
    FAIL() << "peer-induced AbortedError masked the original exception";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("the real cause"), std::string::npos) << what;
    if (GetParam() == TransportKind::kThread) {
      EXPECT_EQ(what, "the real cause");  // the exception object itself
    }
  }
}

TEST_P(FailFast, DistinctExceptionTypePropagates) {
  // Rank 0 runs in the calling process on both backends, so even the
  // proc transport preserves the exception's dynamic type here.
  auto fut = run_async(4, [](Comm& comm) {
    if (comm.rank() == 0) throw std::logic_error("typed failure");
    for (int i = 0; i < 1'000'000; ++i) comm.barrier();
  });
  ASSERT_TRUE(finished_in_time(fut)) << "run hung";
  EXPECT_THROW(fut.get(), std::logic_error);
}

TEST_P(FailFast, AllRanksThrowingReportsOne) {
  auto fut = run_async(4, [](Comm&) { throw std::runtime_error("everyone dies"); });
  ASSERT_TRUE(finished_in_time(fut)) << "run hung";
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST_P(FailFast, CleanRunIsUnaffectedByAbortMachinery) {
  // Sanity: the abort plumbing must not fire on a healthy run.
  auto fut = run_async(4, [](Comm& comm) {
    Aggregator<int> agg(comm, 8);
    for (int d = 0; d < comm.nranks(); ++d) agg.push(d, 1);
    agg.flush_all_final();
    int total = 0;
    comm.drain_streaming_finalized<int>([&](int, std::span<const int> recs) {
      for (int v : recs) total += v;
    });
    if (total != comm.nranks()) throw std::runtime_error("lost records");
    if (comm.allreduce_sum(1) != comm.nranks()) throw std::runtime_error("bad sum");
  });
  ASSERT_TRUE(finished_in_time(fut)) << "run hung";
  EXPECT_NO_THROW(fut.get());
}

TEST_P(FailFast, RemoteRankErrorNamesTheFailedRank) {
  if (GetParam() == TransportKind::kThread) {
    GTEST_SKIP() << "RemoteRankError is the socket backends' child-failure report";
  }
  auto fut = run_async(4, [](Comm& comm) {
    if (comm.rank() == 2) throw std::runtime_error("child went down");
    for (int i = 0; i < 1'000'000; ++i) comm.barrier();
  });
  ASSERT_TRUE(finished_in_time(fut)) << "run hung";
  try {
    fut.get();
    FAIL() << "expected an exception";
  } catch (const RemoteRankError& e) {
    EXPECT_EQ(e.rank, 2);
    EXPECT_NE(std::string(e.what()).find("child went down"), std::string::npos);
    if (GetParam() == TransportKind::kTcp) {
      // The tcp fleet knows where the rank lived; the report names it.
      EXPECT_NE(e.endpoint.find("127.0.0.1:"), std::string::npos) << e.what();
    }
  }
}

TEST_P(FailFast, FirstFailureIsReportedNotTheLowestRank) {
  // Rank 3 fails first; rank 1 fails only because the abort unwound it.
  // The report must name the cause, not the lower-numbered consequence.
  auto fut = run_async(4, [](Comm& comm) {
    if (comm.rank() == 3) throw std::runtime_error("first cause");
    try {
      for (int i = 0; i < 1'000'000; ++i) comm.barrier();
    } catch (const AbortedError&) {
      if (comm.rank() == 1) throw std::runtime_error("consequence");
      throw;
    }
  });
  ASSERT_TRUE(finished_in_time(fut)) << "run hung";
  try {
    fut.get();
    FAIL() << "expected an exception";
  } catch (const AbortedError&) {
    FAIL() << "peer-induced AbortedError masked the original exception";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("first cause"), std::string::npos) << what;
    EXPECT_EQ(what.find("consequence"), std::string::npos) << what;
    if (const auto* remote = dynamic_cast<const RemoteRankError*>(&e)) {
      EXPECT_EQ(remote->rank, 3) << what;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Transports, FailFast,
                         ::testing::ValuesIn(kAllTransports),
                         [](const auto& info) {
                           return transport_test_name(info.param);
                         });

}  // namespace
}  // namespace plv::pml
