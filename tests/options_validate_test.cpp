// ParOptions::validate() — every core entry point calls it before any
// rank is spawned, so inconsistent knob combinations must fail on the
// caller with a message naming the offending field.
#include "core/options.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>

#include "core/louvain_par.hpp"
#include "graph/edge_list.hpp"

namespace plv::core {
namespace {

/// Expects validate() to throw std::invalid_argument mentioning `field`.
void expect_rejected(const ParOptions& opts, const std::string& field) {
  try {
    opts.validate();
    FAIL() << "expected rejection mentioning \"" << field << "\"";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("ParOptions"), std::string::npos) << what;
    EXPECT_NE(what.find(field), std::string::npos) << what;
  }
}

TEST(OptionsValidate, DefaultsAreValid) {
  EXPECT_NO_THROW(ParOptions{}.validate());
}

TEST(OptionsValidate, RejectsNonPositiveRankCount) {
  ParOptions opts;
  opts.nranks = 0;
  expect_rejected(opts, "nranks");
  opts.nranks = -4;
  expect_rejected(opts, "nranks");
}

TEST(OptionsValidate, RejectsNegativeOrNanTolerance) {
  ParOptions opts;
  opts.refine.q_tolerance = -1e-9;
  expect_rejected(opts, "q_tolerance");
  opts.refine.q_tolerance = std::nan("");
  expect_rejected(opts, "q_tolerance");
}

TEST(OptionsValidate, RejectsDegenerateIterationLimits) {
  ParOptions opts;
  opts.refine.max_inner_iterations = 0;
  expect_rejected(opts, "max_inner_iterations");
  opts = ParOptions{};
  opts.refine.max_levels = 0;
  expect_rejected(opts, "max_levels");
}

TEST(OptionsValidate, RejectsNonPositiveHeuristicParams) {
  ParOptions opts;
  opts.refine.p1 = 0.0;
  expect_rejected(opts, "p1");
  opts = ParOptions{};
  opts.refine.p2 = -0.3;
  expect_rejected(opts, "p2");
  // ...but with the heuristic off, p1/p2 are unused and unchecked.
  opts = ParOptions{};
  opts.refine.threshold = ThresholdModel::kNone;
  opts.refine.p1 = 0.0;
  opts.refine.p2 = 0.0;
  EXPECT_NO_THROW(opts.validate());
}

TEST(OptionsValidate, RejectsNonFiniteResolution) {
  ParOptions opts;
  opts.refine.resolution = 0.0;
  expect_rejected(opts, "resolution");
  opts.refine.resolution = std::numeric_limits<double>::infinity();
  expect_rejected(opts, "resolution");
  opts.refine.resolution = std::nan("");
  expect_rejected(opts, "resolution");
}

TEST(OptionsValidate, RejectsBadThresholdScaling) {
  ParOptions opts;
  opts.refine.initial_tolerance = -1e-3;
  expect_rejected(opts, "initial_tolerance");
  opts.refine.initial_tolerance = std::numeric_limits<double>::infinity();
  expect_rejected(opts, "initial_tolerance");
  opts.refine.initial_tolerance = std::nan("");
  expect_rejected(opts, "initial_tolerance");
  // Scaling on requires a genuinely tightening cascade: decay must
  // exceed 1 or every level would see the same (or a looser) tolerance.
  opts.refine.initial_tolerance = 1e-2;
  opts.refine.tolerance_decay = 1.0;
  expect_rejected(opts, "tolerance_decay");
  opts.refine.tolerance_decay = std::nan("");
  expect_rejected(opts, "tolerance_decay");
  opts.refine.tolerance_decay = 10.0;
  EXPECT_NO_THROW(opts.validate());
  // Scaling off (0) ignores the decay entirely.
  opts.refine.initial_tolerance = 0.0;
  opts.refine.tolerance_decay = 0.5;
  EXPECT_NO_THROW(opts.validate());
}

TEST(OptionsPlans, HeuristicsPresetValidatesAndPinsItsContract) {
  ParOptions opts;
  opts.refine = RefinePlan::heuristics();
  EXPECT_NO_THROW(opts.validate());
  EXPECT_TRUE(opts.refine.active_scheduling);
  EXPECT_TRUE(opts.refine.vertex_following);
  EXPECT_GT(opts.refine.initial_tolerance, 0.0);
  EXPECT_GT(opts.refine.tolerance_decay, 1.0);
  // The stock default keeps every heuristic off — the PR 8 behavior.
  const RefinePlan stock;
  EXPECT_FALSE(stock.active_scheduling);
  EXPECT_FALSE(stock.vertex_following);
  EXPECT_EQ(stock.initial_tolerance, 0.0);
}

TEST(OptionsValidate, RejectsCorruptedTransportEnum) {
  ParOptions opts;
  opts.transport = static_cast<pml::TransportKind>(42);
  expect_rejected(opts, "transport");
}

TEST(OptionsValidate, TcpDefaultsSelectTheLoopbackSelfTest) {
  // kTcp with no hosts and tcp_rank -1 is the loopback self-test fleet —
  // what CI's PLV_TRANSPORT=tcp leg runs — and needs no configuration.
  ParOptions opts;
  opts.transport = pml::TransportKind::kTcp;
  EXPECT_NO_THROW(opts.validate());
}

TEST(OptionsValidate, TcpMultiHostCombinationIsValid) {
  ParOptions opts;
  opts.transport = pml::TransportKind::kTcp;
  opts.nranks = 2;
  opts.hosts = {"10.0.0.1:7000", "10.0.0.2:7000"};
  opts.tcp_rank = 1;
  EXPECT_NO_THROW(opts.validate());
}

TEST(OptionsValidate, RejectsHostsOnNonTcpTransports) {
  ParOptions opts;
  opts.nranks = 2;
  opts.hosts = {"a:1", "b:2"};
  opts.tcp_rank = 0;
  opts.transport = pml::TransportKind::kThread;
  expect_rejected(opts, "hosts");
  opts.transport = pml::TransportKind::kProc;
  expect_rejected(opts, "hosts");
}

TEST(OptionsValidate, RejectsTcpRankOnNonTcpTransports) {
  ParOptions opts;
  opts.tcp_rank = 0;
  expect_rejected(opts, "tcp_rank");
}

TEST(OptionsValidate, RejectsTcpRankWithoutHosts) {
  ParOptions opts;
  opts.transport = pml::TransportKind::kTcp;
  opts.tcp_rank = 0;
  expect_rejected(opts, "hosts");
}

TEST(OptionsValidate, RejectsHostCountMismatchingRankCount) {
  ParOptions opts;
  opts.transport = pml::TransportKind::kTcp;
  opts.nranks = 3;
  opts.hosts = {"a:1", "b:2"};
  opts.tcp_rank = 0;
  expect_rejected(opts, "hosts");
}

TEST(OptionsValidate, RejectsHostsWithoutTcpRank) {
  ParOptions opts;
  opts.transport = pml::TransportKind::kTcp;
  opts.nranks = 2;
  opts.hosts = {"a:1", "b:2"};
  expect_rejected(opts, "tcp_rank");
}

TEST(OptionsValidate, RejectsTcpRankOutOfRange) {
  ParOptions opts;
  opts.transport = pml::TransportKind::kTcp;
  opts.nranks = 2;
  opts.hosts = {"a:1", "b:2"};
  opts.tcp_rank = 2;
  expect_rejected(opts, "tcp_rank");
  opts.tcp_rank = -7;
  expect_rejected(opts, "tcp_rank");
}

TEST(OptionsValidate, RejectsMalformedHostEntries) {
  ParOptions opts;
  opts.transport = pml::TransportKind::kTcp;
  opts.nranks = 2;
  opts.hosts = {"a:1", "b:no-such-port"};
  opts.tcp_rank = 0;
  expect_rejected(opts, "hosts");
}

TEST(OptionsValidate, HybridDefaultsAreValid) {
  // kHybrid with ranks_per_proc 0 defers the group shape to
  // PLV_RANKS_PER_PROC / the built-in default — what CI's hybrid leg runs.
  ParOptions opts;
  opts.transport = pml::TransportKind::kHybrid;
  EXPECT_NO_THROW(opts.validate());
  opts.nranks = 8;
  opts.ranks_per_proc = 2;
  EXPECT_NO_THROW(opts.validate());
}

TEST(OptionsValidate, RejectsRanksPerProcOnNonHybridTransports) {
  ParOptions opts;
  opts.ranks_per_proc = 2;
  opts.transport = pml::TransportKind::kThread;
  expect_rejected(opts, "ranks_per_proc");
  opts.transport = pml::TransportKind::kProc;
  expect_rejected(opts, "ranks_per_proc");
  opts.transport = pml::TransportKind::kTcp;
  expect_rejected(opts, "ranks_per_proc");
}

TEST(OptionsValidate, RejectsNegativeRanksPerProc) {
  ParOptions opts;
  opts.transport = pml::TransportKind::kHybrid;
  opts.ranks_per_proc = -2;
  expect_rejected(opts, "ranks_per_proc");
}

TEST(OptionsValidate, RejectsNonDividingRanksPerProc) {
  // Hybrid groups are equal consecutive blocks; a ragged shape would make
  // the leader set ambiguous across the documentation and benches.
  ParOptions opts;
  opts.transport = pml::TransportKind::kHybrid;
  opts.nranks = 8;
  opts.ranks_per_proc = 3;
  expect_rejected(opts, "ranks_per_proc");
  opts.ranks_per_proc = 8;  // one group holding the whole fleet is fine
  EXPECT_NO_THROW(opts.validate());
}

TEST(OptionsValidate, RejectsHostsOnHybridTransport) {
  // The hybrid backend forks its process groups locally; a host list
  // (the multi-host tcp launcher's knob) cannot apply to it.
  ParOptions opts;
  opts.transport = pml::TransportKind::kHybrid;
  opts.nranks = 2;
  opts.hosts = {"a:1", "b:2"};
  opts.tcp_rank = 0;
  expect_rejected(opts, "hosts");
}

TEST(OptionsValidate, RejectsNegativeStreamingCadence) {
  ParOptions opts;
  opts.streaming.rebuild_every_batches = -3;
  expect_rejected(opts, "rebuild_every_batches");
  opts.streaming.rebuild_every_batches = kNeverColdRebuild;
  EXPECT_NO_THROW(opts.validate());
  opts.streaming.rebuild_every_batches = kColdRebuildEveryBatch;
  EXPECT_NO_THROW(opts.validate());
}

TEST(OptionsValidate, RejectsOutOfRangeMaxDeltaFraction) {
  ParOptions opts;
  opts.streaming.max_delta_fraction = -0.1;
  expect_rejected(opts, "max_delta_fraction");
  opts.streaming.max_delta_fraction = 1.5;
  expect_rejected(opts, "max_delta_fraction");
  opts.streaming.max_delta_fraction = std::nan("");
  expect_rejected(opts, "max_delta_fraction");
  opts.streaming.max_delta_fraction = 0.0;  // boundary: never incremental
  EXPECT_NO_THROW(opts.validate());
  opts.streaming.max_delta_fraction = 1.0;  // boundary: any batch size
  EXPECT_NO_THROW(opts.validate());
}

TEST(OptionsPlans, PresetsValidateAndPinTheirContracts) {
  // StreamingPlan::deterministic(): every batch is a cold rebuild —
  // bit-identical to one-shot runs. fast(): never rebuild cold — lowest
  // latency.
  for (const StreamingPlan& plan : {StreamingPlan::deterministic(), StreamingPlan::fast()}) {
    ParOptions opts;
    opts.streaming = plan;
    EXPECT_NO_THROW(opts.validate());
  }
  EXPECT_EQ(StreamingPlan::deterministic().rebuild_every_batches,
            kColdRebuildEveryBatch);
  EXPECT_EQ(StreamingPlan::fast().rebuild_every_batches, kNeverColdRebuild);
}

TEST(OptionsPlans, CopiesAreIndependentValues) {
  // ParOptions is a plain aggregate with defaulted copy and move
  // operations: a copy owns its plans, so writes never reach the source.
  static_assert(std::is_nothrow_move_constructible_v<ParOptions>);
  ParOptions a;
  a.refine.resolution = 3.0;
  ParOptions b = a;
  EXPECT_EQ(b.refine.resolution, 3.0);
  b.refine.resolution = 0.5;
  EXPECT_EQ(a.refine.resolution, 3.0) << "copy shares the source's plan";
  a = b;
  a.refine.max_levels = 9;
  EXPECT_NE(b.refine.max_levels, 9);
  ParOptions c = std::move(a);
  EXPECT_EQ(c.refine.max_levels, 9);
}

TEST(OptionsValidate, EntryPointsRejectBeforeSpawningRanks) {
  // The front door must surface the validation error directly (no rank
  // fleet, no wrapped exception).
  graph::EdgeList edges;
  edges.add(0, 1);
  ParOptions opts;
  opts.refine.max_levels = 0;
  EXPECT_THROW((void)louvain(GraphSource::from_edges(edges), opts),
               std::invalid_argument);
}

}  // namespace
}  // namespace plv::core
