#include "seq/louvain_seq.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "gen/er.hpp"
#include "gen/lfr.hpp"
#include "gen/planted.hpp"
#include "metrics/modularity.hpp"
#include "metrics/partition_utils.hpp"
#include "metrics/similarity.hpp"

namespace plv::seq {
namespace {

TEST(SeqLouvain, RecoversRingOfCliques) {
  const auto graph = gen::ring_of_cliques(8, 5);
  const auto g = graph::Csr::from_edges(graph.edges, 40);
  const LouvainResult result = louvain(g);
  EXPECT_EQ(metrics::count_communities(result.final_labels), 8u);
  // Exact recovery: each clique is one community.
  EXPECT_NEAR(metrics::nmi(result.final_labels, graph.ground_truth), 1.0, 1e-9);
  EXPECT_NEAR(result.final_modularity, metrics::modularity(g, result.final_labels), 1e-9);
}

TEST(SeqLouvain, RecoversPlantedPartition) {
  const auto graph = gen::planted_partition(
      {.communities = 6, .community_size = 20, .p_intra = 0.7, .p_inter = 0.01, .seed = 3});
  const auto g = graph::Csr::from_edges(graph.edges, 120);
  const LouvainResult result = louvain(g);
  EXPECT_GT(metrics::nmi(result.final_labels, graph.ground_truth), 0.95);
  EXPECT_GT(result.final_modularity, 0.6);
}

TEST(SeqLouvain, ReportedModularityMatchesRecomputation) {
  const auto lfr_graph = gen::lfr({.n = 1000, .mu = 0.3, .seed = 4});
  const auto g = graph::Csr::from_edges(lfr_graph.edges, 1000);
  const LouvainResult result = louvain(g);
  EXPECT_NEAR(result.final_modularity, metrics::modularity(g, result.final_labels), 1e-9);
}

TEST(SeqLouvain, ModularityIsMonotoneAcrossLevels) {
  const auto lfr_graph = gen::lfr({.n = 1500, .mu = 0.4, .seed = 5});
  const auto g = graph::Csr::from_edges(lfr_graph.edges, 1500);
  const LouvainResult result = louvain(g);
  for (std::size_t l = 1; l < result.levels.size(); ++l) {
    EXPECT_GE(result.levels[l].modularity, result.levels[l - 1].modularity - 1e-9);
  }
}

TEST(SeqLouvain, InnerLoopModularityIsMonotone) {
  // The sequential greedy sweep never decreases Q.
  const auto lfr_graph = gen::lfr({.n = 1000, .mu = 0.3, .seed = 6});
  const auto g = graph::Csr::from_edges(lfr_graph.edges, 1000);
  const LouvainResult result = louvain(g);
  for (const auto& level : result.levels) {
    for (std::size_t i = 1; i < level.trace.modularity.size(); ++i) {
      EXPECT_GE(level.trace.modularity[i], level.trace.modularity[i - 1] - 1e-9);
    }
  }
}

TEST(SeqLouvain, MoveFractionDecaysOverIterations) {
  // The empirical basis of the paper's heuristic (Fig. 2): most movement
  // happens in the first sweep.
  const auto lfr_graph = gen::lfr({.n = 3000, .mu = 0.4, .seed = 7});
  const auto g = graph::Csr::from_edges(lfr_graph.edges, 3000);
  const LouvainResult result = louvain(g);
  const auto& frac = result.levels.front().trace.moved_fraction;
  ASSERT_GE(frac.size(), 2u);
  EXPECT_GT(frac[0], 0.5);
  EXPECT_LT(frac.back(), frac[0]);
}

TEST(SeqLouvain, HierarchyShrinksMonotonically) {
  const auto lfr_graph = gen::lfr({.n = 2000, .mu = 0.3, .seed = 8});
  const auto g = graph::Csr::from_edges(lfr_graph.edges, 2000);
  const LouvainResult result = louvain(g);
  EXPECT_GE(result.num_levels(), 2u);
  for (const auto& level : result.levels) {
    EXPECT_LE(level.num_communities, level.num_vertices);
  }
  for (std::size_t l = 1; l < result.levels.size(); ++l) {
    EXPECT_EQ(result.levels[l].num_vertices, result.levels[l - 1].num_communities);
  }
}

TEST(SeqLouvain, FinalLabelsEqualComposedLevelLabels) {
  const auto graph = gen::planted_partition(
      {.communities = 5, .community_size = 12, .p_intra = 0.8, .p_inter = 0.02, .seed = 9});
  const auto g = graph::Csr::from_edges(graph.edges, 60);
  const LouvainResult result = louvain(g);
  ASSERT_GE(result.num_levels(), 1u);
  const auto composed = result.labels_at_level(result.num_levels() - 1);
  EXPECT_EQ(composed, result.final_labels);
}

TEST(SeqLouvain, EmptyAndTrivialGraphs) {
  const graph::Csr empty;
  const LouvainResult r1 = louvain(empty);
  EXPECT_TRUE(r1.final_labels.empty());

  graph::EdgeList one_edge;
  one_edge.add(0, 1);
  const auto g = graph::Csr::from_edges(one_edge);
  const LouvainResult r2 = louvain(g);
  EXPECT_EQ(r2.final_labels[0], r2.final_labels[1]);
}

TEST(SeqLouvain, DisjointTrianglesStopWithNoMoves) {
  graph::EdgeList e;
  e.add(0, 1);
  e.add(1, 2);
  e.add(0, 2);
  e.add(3, 4);
  e.add(4, 5);
  e.add(3, 5);
  const LouvainResult result = louvain(graph::Csr::from_edges(e, 6));
  ASSERT_FALSE(result.levels.empty());
  EXPECT_EQ(result.levels.front().trace.stop, LevelStop::kNoMoves);
  EXPECT_EQ(result.levels.front().trace.iterations, 2);  // one sweep moves, one confirms
}

TEST(SeqLouvain, OneSweepBudgetStopsAtTheCap) {
  const auto lfr_graph = gen::lfr({.n = 500, .mu = 0.3, .seed = 31});
  SeqOptions opts;
  opts.max_inner_iterations = 1;
  const LouvainResult result = louvain(graph::Csr::from_edges(lfr_graph.edges, 500), opts);
  ASSERT_FALSE(result.levels.empty());
  EXPECT_EQ(result.levels.front().trace.stop, LevelStop::kIterationCap);
  EXPECT_EQ(result.levels.front().trace.iterations, 1);
}

TEST(SeqLouvain, TinyImprovementStopsOnStagnation) {
  const auto lfr_graph = gen::lfr({.n = 500, .mu = 0.3, .seed = 31});
  SeqOptions opts;
  opts.q_tolerance = 1.0;  // no sweep can gain a whole unit of Q
  const LouvainResult result = louvain(graph::Csr::from_edges(lfr_graph.edges, 500), opts);
  ASSERT_FALSE(result.levels.empty());
  EXPECT_EQ(result.levels.front().trace.stop, LevelStop::kStagnation);
  EXPECT_EQ(result.levels.front().trace.iterations, 1);
}

TEST(SeqLouvain, IsolatedVerticesStaySingletons) {
  graph::EdgeList e;
  e.add(0, 1);
  e.add(1, 2);
  e.add(0, 2);
  const auto g = graph::Csr::from_edges(e, 6);  // vertices 3,4,5 isolated
  const LouvainResult result = louvain(g);
  EXPECT_EQ(result.final_labels[0], result.final_labels[1]);
  EXPECT_NE(result.final_labels[3], result.final_labels[4]);
  EXPECT_NE(result.final_labels[3], result.final_labels[0]);
}

TEST(SeqLouvain, DeterministicInNaturalOrder) {
  const auto lfr_graph = gen::lfr({.n = 800, .mu = 0.3, .seed = 10});
  const auto g = graph::Csr::from_edges(lfr_graph.edges, 800);
  const LouvainResult a = louvain(g);
  const LouvainResult b = louvain(g);
  EXPECT_EQ(a.final_labels, b.final_labels);
  EXPECT_DOUBLE_EQ(a.final_modularity, b.final_modularity);
}

TEST(SeqLouvain, ShuffledOrderStillFindsGoodCommunities) {
  const auto graph = gen::planted_partition(
      {.communities = 6, .community_size = 15, .p_intra = 0.8, .p_inter = 0.02, .seed = 11});
  const auto g = graph::Csr::from_edges(graph.edges, 90);
  SeqOptions opts;
  opts.shuffle_seed = 1234;
  const LouvainResult result = louvain(g, opts);
  EXPECT_GT(metrics::nmi(result.final_labels, graph.ground_truth), 0.9);
}

TEST(Coarsen, PreservesTotalWeight) {
  const auto lfr_graph = gen::lfr({.n = 500, .mu = 0.3, .seed = 12});
  const auto g = graph::Csr::from_edges(lfr_graph.edges, 500);
  SeqOptions opts;
  const LouvainLevel level = refine_level(g, opts);
  const auto coarse = coarsen(g, level.labels, level.num_communities);
  EXPECT_NEAR(coarse.two_m(), g.two_m(), 1e-6);
}

TEST(Coarsen, SingletonModularityEqualsFinePartitionModularity) {
  // The exactness property the weight convention is designed for.
  const auto lfr_graph = gen::lfr({.n = 500, .mu = 0.3, .seed = 13});
  const auto g = graph::Csr::from_edges(lfr_graph.edges, 500);
  SeqOptions opts;
  const LouvainLevel level = refine_level(g, opts);
  const auto coarse = coarsen(g, level.labels, level.num_communities);
  std::vector<vid_t> coarse_singletons(coarse.num_vertices());
  std::iota(coarse_singletons.begin(), coarse_singletons.end(), vid_t{0});
  EXPECT_NEAR(metrics::modularity(coarse, coarse_singletons),
              metrics::modularity(g, level.labels), 1e-9);
}

TEST(Coarsen, EdgeCountNeverGrows) {
  const auto er_edges = gen::erdos_renyi({.n = 300, .m = 1200, .seed = 14});
  const auto g = graph::Csr::from_edges(er_edges, 300);
  SeqOptions opts;
  const LouvainLevel level = refine_level(g, opts);
  const auto coarse = coarsen(g, level.labels, level.num_communities);
  EXPECT_LE(coarse.num_undirected_edges(), g.num_undirected_edges());
}

TEST(SeqLouvain, PruningPreservesQualityWhileSkippingWork) {
  const auto lfr_graph = gen::lfr({.n = 3000, .mu = 0.35, .seed = 16});
  const auto g = graph::Csr::from_edges(lfr_graph.edges, 3000);
  SeqOptions pruned;
  pruned.prune = true;
  const LouvainResult with = louvain(g, pruned);
  const LouvainResult without = louvain(g);
  // Quality within a few percent (pruning is the approximation of the
  // paper's ref [11], not an exact transformation)...
  EXPECT_GT(with.final_modularity, 0.95 * without.final_modularity);
  // ...while later sweeps examine only a fraction of the vertices.
  const auto& evaluated = with.levels.front().trace.evaluated_fraction;
  ASSERT_GE(evaluated.size(), 2u);
  EXPECT_DOUBLE_EQ(evaluated.front(), 1.0);  // first sweep sees everyone
  EXPECT_LT(evaluated.back(), 0.6);
}

TEST(SeqLouvain, PruningIsDeterministic) {
  const auto lfr_graph = gen::lfr({.n = 800, .mu = 0.3, .seed = 17});
  const auto g = graph::Csr::from_edges(lfr_graph.edges, 800);
  SeqOptions opts;
  opts.prune = true;
  const LouvainResult a = louvain(g, opts);
  const LouvainResult b = louvain(g, opts);
  EXPECT_EQ(a.final_labels, b.final_labels);
}

TEST(SeqLouvain, PruningOffLeavesTraceEmpty) {
  const auto lfr_graph = gen::lfr({.n = 400, .mu = 0.3, .seed = 18});
  const auto g = graph::Csr::from_edges(lfr_graph.edges, 400);
  const LouvainResult r = louvain(g);
  EXPECT_TRUE(r.levels.front().trace.evaluated_fraction.empty());
}

TEST(SeqLouvain, LevelZeroDoesMostOfTheWork) {
  // Paper Section V-B: >94% of vertices merge in the first iteration for
  // the social graphs; our LFR stand-ins show the same first-level
  // dominance (evolution ratio well below 0.5 after level 0).
  const auto lfr_graph = gen::lfr({.n = 3000, .mu = 0.3, .seed = 15});
  const auto g = graph::Csr::from_edges(lfr_graph.edges, 3000);
  const LouvainResult result = louvain(g);
  const double ratio = static_cast<double>(result.levels[0].num_communities) / 3000.0;
  EXPECT_LT(ratio, 0.5);
}

}  // namespace
}  // namespace plv::seq
