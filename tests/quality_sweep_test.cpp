// Property-style quality sweeps over the LFR mixing parameter — the
// detectability ladder both engines must climb the same way: ground-truth
// recovery degrades monotonically-ish with μ, at every μ the parallel
// engine's modularity matches the sequential baseline's (the paper's
// Fig. 4 claim expressed as a parameterized test), and at every
// detectable μ each parallel level converges before the iteration cap.
#include <gtest/gtest.h>

#include "common/louvain.hpp"
#include "core/options.hpp"
#include "gen/lfr.hpp"
#include "graph/csr.hpp"
#include "metrics/modularity.hpp"
#include "metrics/similarity.hpp"
#include "seq/louvain_seq.hpp"

namespace plv {
namespace {

class MuSweep : public ::testing::TestWithParam<double> {};

gen::LfrGraph make(double mu) {
  return gen::lfr({.n = 1500,
                   .k_min = 8,
                   .k_max = 40,
                   .c_min = 24,
                   .c_max = 128,
                   .mu = mu,
                   .seed = 500 + static_cast<std::uint64_t>(mu * 100)});
}

TEST_P(MuSweep, SequentialRecoversDetectableStructure) {
  const double mu = GetParam();
  const auto g = make(mu);
  const auto csr = graph::Csr::from_edges(g.edges, 1500);
  const auto r = seq::louvain(csr);
  const double nmi = metrics::nmi(r.final_labels, g.ground_truth);
  if (mu <= 0.3) {
    EXPECT_GT(nmi, 0.85) << "mu=" << mu;
  } else if (mu <= 0.45) {
    EXPECT_GT(nmi, 0.6) << "mu=" << mu;
  }  // above ~0.5 the structure is near the detectability limit at n=1500
}

TEST_P(MuSweep, ParallelWithinConstantFactorOfSequential) {
  const double mu = GetParam();
  const auto g = make(mu);
  const auto csr = graph::Csr::from_edges(g.edges, 1500);
  const auto s = seq::louvain(csr);
  core::ParOptions opts;
  opts.nranks = 4;
  const auto p = louvain(GraphSource::from_edges(g.edges, 1500), opts);
  EXPECT_GE(p.final_modularity, s.final_modularity - 0.005) << "mu=" << mu;
  EXPECT_NEAR(p.final_modularity, metrics::modularity(csr, p.final_labels), 1e-9);
}

// The detectable part of the ladder, μ ≤ 0.5. At μ = 0.6 level 0 still
// reaches the cap while its Q climbs: Eq. 7's ε never drops below p1.
class MuSweepConvergence : public ::testing::TestWithParam<double> {};

TEST_P(MuSweepConvergence, ParallelLevelsConvergeBeforeTheCap) {
  // Synchronous moves can settle into period-2 limit cycles that run a
  // level to max_inner_iterations; the rules of DESIGN.md decision 3 must
  // break them.
  const double mu = GetParam();
  const auto g = make(mu);
  core::ParOptions opts;
  opts.nranks = 4;
  const auto p = louvain(GraphSource::from_edges(g.edges, 1500), opts);
  ASSERT_FALSE(p.levels.empty());
  for (std::size_t l = 0; l < p.levels.size(); ++l) {
    EXPECT_NE(p.levels[l].trace.stop, LevelStop::kIterationCap)
        << "mu=" << mu << " level " << l << " ran " << p.levels[l].trace.iterations
        << " iterations";
  }
}

TEST_P(MuSweep, GroundTruthModularityBoundsHold) {
  const double mu = GetParam();
  const auto g = make(mu);
  const auto csr = graph::Csr::from_edges(g.edges, 1500);
  const double q_truth = metrics::modularity(csr, g.ground_truth);
  // Planted partitions obey Q ≈ (1-μ) − Σ(vol_c/2m)² > (1-μ) − 0.2 roughly;
  // assert the loose, always-true envelope.
  EXPECT_LE(q_truth, 1.0);
  EXPECT_GT(q_truth, 0.5 - mu);
}

std::string mu_name(const ::testing::TestParamInfo<double>& info) {
  return "mu" + std::to_string(static_cast<int>(info.param * 100 + 0.5));
}

INSTANTIATE_TEST_SUITE_P(Mixing, MuSweep,
                         ::testing::Values(0.1, 0.2, 0.3, 0.4, 0.5, 0.6), mu_name);
INSTANTIATE_TEST_SUITE_P(Mixing, MuSweepConvergence,
                         ::testing::Values(0.1, 0.2, 0.3, 0.4, 0.5), mu_name);

}  // namespace
}  // namespace plv
