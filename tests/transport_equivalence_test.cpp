// Cross-transport determinism: the thread, proc, and tcp backends must
// produce bit-identical artifacts for the same options and input. The
// engine's determinism argument (rank-order collective combining,
// deterministic tie-breaks) is transport-independent — this test pins
// that claim. The tcp legs run the loopback self-test fleet (forked
// ranks over 127.0.0.1 ephemeral ports).
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <future>
#include <string>
#include <utility>

#include "common/louvain.hpp"
#include "core/louvain_par.hpp"
#include "gen/lfr.hpp"
#include "pml/comm.hpp"
#include "transport_param.hpp"

namespace plv {
namespace {

// These tests pass explicit transports through ParOptions, so a
// PLV_TRANSPORT value inherited from the environment (CI proc/tcp legs
// set it binary-wide) must be parked for the duration of each test.
class TransportEquivalence : public ::testing::Test {
 protected:
  void SetUp() override { PLV_SKIP_IF_UNSUPPORTED(pml::TransportKind::kProc); }

 private:
  pml::ScopedTransportEnv park_env_;
};

const graph::EdgeList& lfr_input() {
  static const auto g = gen::lfr({.n = 2000, .mu = 0.3, .seed = 23});
  return g.edges;
}

core::ParOptions opts_for(pml::TransportKind kind) {
  core::ParOptions opts;
  opts.nranks = 4;
  opts.transport = kind;
  return opts;
}

/// A 4-rank hybrid fleet, two thread ranks per forked process (2x2).
core::ParOptions hybrid_opts() {
  core::ParOptions opts = opts_for(pml::TransportKind::kHybrid);
  opts.ranks_per_proc = 2;
  return opts;
}

/// Asserts `r` matches the thread-backend reference bit for bit: labels,
/// modularity, level artifacts, and communication volume.
void expect_identical(const Result& thread_r, const Result& r,
                      const std::string& transport) {
  EXPECT_EQ(thread_r.transport, "thread");
  EXPECT_EQ(r.transport, transport);
  // Bitwise-equal modularity, not nearly-equal: both backends must
  // combine partial sums in the same (rank) order.
  EXPECT_EQ(thread_r.final_modularity, r.final_modularity) << transport;
  EXPECT_EQ(thread_r.final_labels, r.final_labels) << transport;
  ASSERT_EQ(thread_r.num_levels(), r.num_levels()) << transport;
  for (std::size_t l = 0; l < thread_r.num_levels(); ++l) {
    EXPECT_EQ(thread_r.levels[l].labels, r.levels[l].labels)
        << transport << " level " << l;
    EXPECT_EQ(thread_r.levels[l].modularity, r.levels[l].modularity)
        << transport << " level " << l;
    // Communication volume is part of the deterministic artifact too.
    EXPECT_EQ(thread_r.levels[l].traffic.records_sent,
              r.levels[l].traffic.records_sent)
        << transport << " level " << l;
  }
  EXPECT_EQ(thread_r.traffic.records_sent, r.traffic.records_sent) << transport;
}

TEST_F(TransportEquivalence, ColdStartIsBitIdentical) {
  const auto thread_r = louvain(GraphSource::from_edges(lfr_input()),
                                opts_for(pml::TransportKind::kThread));
  const auto proc_r = louvain(GraphSource::from_edges(lfr_input()),
                              opts_for(pml::TransportKind::kProc));
  expect_identical(thread_r, proc_r, "proc");
  const auto tcp_r = louvain(GraphSource::from_edges(lfr_input()),
                             opts_for(pml::TransportKind::kTcp));
  expect_identical(thread_r, tcp_r, "tcp");
}

TEST_F(TransportEquivalence, WarmStartIsBitIdentical) {
  // Seed the warm start from a run's own output so the initial partition
  // is realistic rather than synthetic.
  const auto seed_run = louvain(GraphSource::from_edges(lfr_input()),
                                opts_for(pml::TransportKind::kThread));
  const auto thread_r =
      louvain(GraphSource::from_edges_warm(lfr_input(), seed_run.final_labels),
              opts_for(pml::TransportKind::kThread));
  const auto proc_r =
      louvain(GraphSource::from_edges_warm(lfr_input(), seed_run.final_labels),
              opts_for(pml::TransportKind::kProc));
  expect_identical(thread_r, proc_r, "proc");
  const auto tcp_r =
      louvain(GraphSource::from_edges_warm(lfr_input(), seed_run.final_labels),
              opts_for(pml::TransportKind::kTcp));
  expect_identical(thread_r, tcp_r, "tcp");
}

TEST_F(TransportEquivalence, StreamedIngestIsBitIdentical) {
  // Each rank contributes a deterministic stripe of the edge list.
  const EdgeSliceFn slice = [](int rank, int nranks) {
    const auto& all = lfr_input().edges();
    graph::EdgeList mine;
    for (std::size_t i = static_cast<std::size_t>(rank); i < all.size();
         i += static_cast<std::size_t>(nranks)) {
      mine.add(all[i].u, all[i].v, all[i].w);
    }
    return mine;
  };
  const vid_t n = lfr_input().vertex_count();
  const auto thread_r = louvain(GraphSource::from_stream(slice, n),
                                opts_for(pml::TransportKind::kThread));
  const auto proc_r =
      louvain(GraphSource::from_stream(slice, n), opts_for(pml::TransportKind::kProc));
  expect_identical(thread_r, proc_r, "proc");
  const auto tcp_r =
      louvain(GraphSource::from_stream(slice, n), opts_for(pml::TransportKind::kTcp));
  expect_identical(thread_r, tcp_r, "tcp");
}

TEST_F(TransportEquivalence, HybridColdStartIsBitIdentical) {
  // Thread ranks sharing forked processes run the same flat collectives
  // and marker quiescence as every other backend, over the socketpair
  // mesh, and must reproduce the thread reference bit for bit.
  const auto thread_r = louvain(GraphSource::from_edges(lfr_input()),
                                opts_for(pml::TransportKind::kThread));
  const auto hybrid_r = louvain(GraphSource::from_edges(lfr_input()), hybrid_opts());
  expect_identical(thread_r, hybrid_r, "hybrid");
}

TEST_F(TransportEquivalence, SigkilledGroupMemberUnwindsFleetPromptly) {
  // Fault injection at the process level: a non-leader member of a
  // forked group dies without unwinding (SIGKILL, no Goodbye, no abort
  // frame). Survivors must see the EOF, abort, and the caller must get a
  // RemoteRankError naming a rank of the dead group — promptly, not
  // after a timeout.
  using pml::Comm;
  auto fut = std::async(std::launch::async, [] {
    pml::Runtime::run(
        4,
        [](Comm& comm) {
          if (comm.rank() == 3) {
            (void)::raise(SIGKILL);  // takes down the whole group process
          }
          for (int i = 0; i < 1'000'000; ++i) comm.barrier();
        },
        pml::TransportKind::kHybrid, /*validate=*/false, {},
        pml::HybridOptions{.ranks_per_proc = 2});
  });
  if (fut.wait_for(std::chrono::seconds(5)) != std::future_status::ready) {
    // Leak the future on purpose: joining a hung run would wedge the
    // whole test binary.
    new std::future<void>(std::move(fut));
    FAIL() << "hybrid fleet did not unwind within 5s of a SIGKILLed member";
  }
  try {
    fut.get();
    FAIL() << "expected a RemoteRankError";
  } catch (const pml::RemoteRankError& e) {
    // Rank 3 dies mid-signal, taking sibling rank 2 with it; the parent
    // decodes the wait status against the group, whose report names its
    // leader (rank 2).
    EXPECT_TRUE(e.rank == 2 || e.rank == 3) << e.what();
    EXPECT_NE(std::string(e.what()).find("killed by signal"), std::string::npos)
        << e.what();
  }
}

TEST_F(TransportEquivalence, EnvOverrideWinsOverOptions) {
  setenv("PLV_TRANSPORT", "proc", 1);
  const auto r = louvain(GraphSource::from_edges(lfr_input()),
                         opts_for(pml::TransportKind::kThread));
  unsetenv("PLV_TRANSPORT");
  EXPECT_EQ(r.transport, "proc");
}

TEST_F(TransportEquivalence, EnvOverrideSelectsTcp) {
  setenv("PLV_TRANSPORT", "tcp", 1);
  const auto r = louvain(GraphSource::from_edges(lfr_input()),
                         opts_for(pml::TransportKind::kThread));
  unsetenv("PLV_TRANSPORT");
  EXPECT_EQ(r.transport, "tcp");
}

TEST_F(TransportEquivalence, EnvOverrideSelectsHybrid) {
  setenv("PLV_TRANSPORT", "hybrid", 1);
  const auto r = louvain(GraphSource::from_edges(lfr_input()),
                         opts_for(pml::TransportKind::kThread));
  unsetenv("PLV_TRANSPORT");
  EXPECT_EQ(r.transport, "hybrid");
  // The env-selected hybrid run is still the same deterministic artifact.
  const auto thread_r = louvain(GraphSource::from_edges(lfr_input()),
                                opts_for(pml::TransportKind::kThread));
  EXPECT_EQ(thread_r.final_labels, r.final_labels);
}

}  // namespace
}  // namespace plv
