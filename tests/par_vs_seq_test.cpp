// Cross-engine comparisons: the paper's central quality claim is that the
// parallel algorithm with the convergence heuristic matches the sequential
// baseline (Fig. 4, Fig. 5, Table III). These tests pin that property at
// test scale.
#include <gtest/gtest.h>

#include "core/louvain_par.hpp"
#include "gen/bter.hpp"
#include "gen/lfr.hpp"
#include "gen/planted.hpp"
#include "graph/csr.hpp"
#include "metrics/modularity.hpp"
#include "metrics/partition_utils.hpp"
#include "metrics/similarity.hpp"
#include "seq/louvain_seq.hpp"

namespace plv {
namespace {

struct EngineOutputs {
  LouvainResult seq;
  core::ParResult par;
  graph::Csr csr;
};

EngineOutputs run_both(const graph::EdgeList& edges, vid_t n, int nranks = 4) {
  EngineOutputs out;
  out.csr = graph::Csr::from_edges(edges, n);
  out.seq = seq::louvain(out.csr);
  core::ParOptions popts;
  popts.nranks = nranks;
  out.par = plv::louvain(GraphSource::from_edges(edges, n), popts);
  return out;
}

TEST(ParVsSeq, ModularityOnParWithSeqForLfr) {
  const auto g = gen::lfr({.n = 2000, .mu = 0.3, .seed = 41});
  const auto out = run_both(g.edges, 2000);
  // Paper: "on par with the original sequential algorithm".
  EXPECT_GE(out.par.final_modularity, out.seq.final_modularity - 0.01);
}

TEST(ParVsSeq, ModularityOnParWithSeqForHarderMixing) {
  const auto g = gen::lfr({.n = 2000, .mu = 0.5, .seed = 42});
  const auto out = run_both(g.edges, 2000);
  EXPECT_GE(out.par.final_modularity, out.seq.final_modularity - 0.01);
}

TEST(ParVsSeq, SimilarityMetricsHighOnLfr) {
  // Table III shape: NMI / F / RI / ARI / JI high, NVD low, comparing
  // parallel vs sequential partitions.
  const auto g = gen::lfr({.n = 2000, .mu = 0.4, .seed = 43});
  const auto out = run_both(g.edges, 2000);
  const auto s = metrics::similarity(out.par.final_labels, out.seq.final_labels);
  EXPECT_GT(s.nmi, 0.75);
  EXPECT_GT(s.rand_index, 0.9);
  EXPECT_LT(s.nvd, 0.35);
}

TEST(ParVsSeq, CommunityCountsSameOrderOfMagnitude) {
  const auto g = gen::lfr({.n = 2000, .mu = 0.3, .seed = 44});
  const auto out = run_both(g.edges, 2000);
  const auto k_seq = metrics::count_communities(out.seq.final_labels);
  const auto k_par = metrics::count_communities(out.par.final_labels);
  EXPECT_LT(k_par, k_seq * 4 + 8);
  EXPECT_GT(k_par * 4 + 8, k_seq);
}

TEST(ParVsSeq, SizeDistributionsOverlap) {
  // Fig. 5 shape: similar community size distributions.
  const auto g = gen::lfr({.n = 2000, .mu = 0.3, .seed = 45});
  const auto out = run_both(g.edges, 2000);
  auto d_seq = metrics::size_distribution_log2(out.seq.final_labels);
  auto d_par = metrics::size_distribution_log2(out.par.final_labels);
  const std::size_t bins = std::max(d_seq.size(), d_par.size());
  d_seq.resize(bins, 0);
  d_par.resize(bins, 0);
  // L1 distance between normalized distributions below 0.8 (of max 2.0).
  double l1 = 0;
  const double n_seq = static_cast<double>(metrics::count_communities(out.seq.final_labels));
  const double n_par = static_cast<double>(metrics::count_communities(out.par.final_labels));
  for (std::size_t b = 0; b < bins; ++b) {
    l1 += std::abs(d_seq[b] / n_seq - d_par[b] / n_par);
  }
  EXPECT_LT(l1, 0.8);
}

TEST(ParVsSeq, BothRecoverPlantedStructure) {
  const auto g = gen::planted_partition(
      {.communities = 10, .community_size = 20, .p_intra = 0.6, .p_inter = 0.01, .seed = 46});
  const auto out = run_both(g.edges, 200);
  EXPECT_GT(metrics::nmi(out.seq.final_labels, g.ground_truth), 0.95);
  EXPECT_GT(metrics::nmi(out.par.final_labels, g.ground_truth), 0.95);
}

TEST(ParVsSeq, BterCommunityQualityComparable) {
  const auto g = gen::bter({.n = 2000, .gcc_target = 0.5, .seed = 47});
  const auto out = run_both(g.edges, 2000);
  EXPECT_GE(out.par.final_modularity, out.seq.final_modularity - 0.01);
}

TEST(ParVsSeq, HeuristicBeatsNaiveOnModularityPerRound) {
  // Fig. 4a shape: at equal outer-round budget the heuristic dominates.
  const auto g = gen::lfr({.n = 2000, .mu = 0.4, .seed = 48});
  core::ParOptions with;
  with.nranks = 4;
  with.refine.max_levels = 1;  // one outer round only
  core::ParOptions without = with;
  without.refine.threshold = core::ThresholdModel::kNone;
  const auto a = plv::louvain(GraphSource::from_edges(g.edges, 2000), with);
  const auto b = plv::louvain(GraphSource::from_edges(g.edges, 2000), without);
  ASSERT_FALSE(a.levels.empty());
  ASSERT_FALSE(b.levels.empty());
  EXPECT_GE(a.levels[0].modularity, b.levels[0].modularity - 0.02);
}

TEST(ParVsSeq, EvolutionRatioComparable) {
  // Fig. 4b: evolution ratio (communities/vertices) after level 0 is
  // similar between engines.
  const auto g = gen::lfr({.n = 2000, .mu = 0.3, .seed = 49});
  const auto out = run_both(g.edges, 2000);
  const double r_seq = static_cast<double>(out.seq.levels[0].num_communities) / 2000.0;
  const double r_par = static_cast<double>(out.par.levels[0].num_communities) / 2000.0;
  EXPECT_LT(std::abs(r_seq - r_par), 0.3);
}

}  // namespace
}  // namespace plv
