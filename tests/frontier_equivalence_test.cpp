// Frontier-pruned refine: equivalence and edge-case pins.
//
// The row-indexed frontier scan and the fused full scan are two
// strategies for the same FIND — the row index mirrors Out_Table rows
// through the table's own fresh/erased verdicts with weights maintained
// in the same arithmetic order, and both strategies use the exact
// min-label comparator (the engine's only tie rule). So forcing the
// strategy choice to either extreme (frontier_scan_threshold 1 = row
// scan whenever the frontier is restricted, 0 = always fused) must give
// bit-identical labels, modularity, and per-iteration trace on every
// transport, across cold, warm, and streamed ingestion.
//
// With the heuristics off (the default), the engine must scan the full
// partition every iteration — pinned here through the scanned-vertices
// trace so a future change can't silently turn pruning on by default —
// and the heuristics bundle must hold quality parity while scanning
// strictly less.
//
// Vertex-following folds degree-1 vertices onto their anchors before
// level 0 and unfolds at the end; the edge cases live here: chains (a
// single pass on ORIGINAL degrees must not glue a 4-chain into one
// community), mutual leaf pairs (a lone edge: exactly one side folds),
// self-loops on leaves, isolated vertices (no neighbor, never folded),
// and stars (every leaf folds onto the hub).
#include <gtest/gtest.h>

#include <cstdint>

#include "common/louvain.hpp"
#include "core/louvain_par.hpp"
#include "gen/lfr.hpp"
#include "transport_param.hpp"

namespace plv {
namespace {

constexpr int kRanks = 4;

class FrontierEquivalence : public ::testing::TestWithParam<pml::TransportKind> {
 protected:
  void SetUp() override { PLV_SKIP_IF_UNSUPPORTED(GetParam()); }

 private:
  pml::ScopedTransportEnv park_env_;
};

const graph::EdgeList& lfr_input() {
  static const auto g = gen::lfr({.n = 2000, .mu = 0.3, .seed = 23});
  return g.edges;
}

/// Round-robin slicing of a fixed edge list (streamed-ingestion input).
EdgeSliceFn round_robin(const graph::EdgeList& edges) {
  return [&edges](int rank, int nranks) {
    graph::EdgeList slice;
    for (std::size_t i = static_cast<std::size_t>(rank); i < edges.size();
         i += static_cast<std::size_t>(nranks)) {
      slice.add(edges.edges()[i].u, edges.edges()[i].v, edges.edges()[i].w);
    }
    return slice;
  };
}

/// Active scheduling on, with the row-vs-fused strategy switch forced to
/// one extreme. threshold 1: every restricted FIND takes the row scan;
/// threshold 0: the fused scan always runs (the row index is still
/// maintained, exercising its mirroring).
core::ParOptions scheduling_opts(pml::TransportKind kind, double threshold) {
  core::ParOptions opts;
  opts.nranks = kRanks;
  opts.transport = kind;
  opts.refine.active_scheduling = true;
  opts.refine.frontier_scan_threshold = threshold;
  return opts;
}

void expect_bit_identical(const Result& row, const Result& fused) {
  EXPECT_EQ(row.final_modularity, fused.final_modularity);
  EXPECT_EQ(row.final_labels, fused.final_labels);
  ASSERT_EQ(row.num_levels(), fused.num_levels());
  for (std::size_t l = 0; l < row.num_levels(); ++l) {
    EXPECT_EQ(row.levels[l].labels, fused.levels[l].labels) << "level " << l;
    EXPECT_EQ(row.levels[l].modularity, fused.levels[l].modularity) << "level " << l;
    // The per-iteration trace is a bitwise artifact of the trajectory:
    // same moves, same propagation volume, same frontier population.
    EXPECT_EQ(row.levels[l].trace.modularity, fused.levels[l].trace.modularity)
        << "level " << l;
    EXPECT_EQ(row.levels[l].trace.scanned_vertices,
              fused.levels[l].trace.scanned_vertices)
        << "level " << l;
    EXPECT_EQ(row.levels[l].trace.prop_records, fused.levels[l].trace.prop_records)
        << "level " << l;
  }
}

TEST_P(FrontierEquivalence, RowScanMatchesFusedScanCold) {
  const auto row = louvain(GraphSource::from_edges(lfr_input()),
                           scheduling_opts(GetParam(), 1.0));
  const auto fused = louvain(GraphSource::from_edges(lfr_input()),
                             scheduling_opts(GetParam(), 0.0));
  expect_bit_identical(row, fused);
}

TEST_P(FrontierEquivalence, RowScanMatchesFusedScanWarm) {
  core::ParOptions seed_opts;
  seed_opts.nranks = kRanks;
  seed_opts.transport = GetParam();
  const auto seed = louvain(GraphSource::from_edges(lfr_input()), seed_opts);
  const auto row =
      louvain(GraphSource::from_edges_warm(lfr_input(), seed.final_labels),
              scheduling_opts(GetParam(), 1.0));
  const auto fused =
      louvain(GraphSource::from_edges_warm(lfr_input(), seed.final_labels),
              scheduling_opts(GetParam(), 0.0));
  expect_bit_identical(row, fused);
}

TEST_P(FrontierEquivalence, RowScanMatchesFusedScanStreamed) {
  const EdgeSliceFn slice = round_robin(lfr_input());
  const auto row = louvain(GraphSource::from_stream(slice, 2000),
                           scheduling_opts(GetParam(), 1.0));
  const auto fused = louvain(GraphSource::from_stream(slice, 2000),
                             scheduling_opts(GetParam(), 0.0));
  expect_bit_identical(row, fused);
}

// With the heuristics at their defaults (all off) every FIND must scan
// the whole level graph: scanned_vertices[i] == num_vertices for every
// iteration of every level. This is the "default-off is the PR 8 full
// scan" pin — pruning may never switch itself on.
TEST_P(FrontierEquivalence, DefaultOffScansFullPartition) {
  core::ParOptions opts;
  opts.nranks = kRanks;
  opts.transport = GetParam();
  const auto r = louvain(GraphSource::from_edges(lfr_input()), opts);
  for (std::size_t l = 0; l < r.num_levels(); ++l) {
    ASSERT_FALSE(r.levels[l].trace.scanned_vertices.empty()) << "level " << l;
    for (const std::uint64_t scanned : r.levels[l].trace.scanned_vertices) {
      EXPECT_EQ(scanned, static_cast<std::uint64_t>(r.levels[l].num_vertices))
          << "level " << l;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Transports, FrontierEquivalence,
                         ::testing::ValuesIn(pml::kAllTransports),
                         [](const auto& info) {
                           return pml::transport_test_name(info.param);
                         });

// The full bundle must hold quality parity on the LFR input while doing
// strictly less FIND work than the stock full scan. The trajectory is
// different by design, so the comparison is quality + work, not bits.
TEST(FrontierHeuristics, BundleHoldsQualityParityWithFewerScans) {
  pml::ScopedTransportEnv park_env;
  core::ParOptions stock;
  stock.nranks = kRanks;
  core::ParOptions bundle = stock;
  bundle.refine = core::RefinePlan::heuristics();

  const auto base = louvain(GraphSource::from_edges(lfr_input()), stock);
  const auto heur = louvain(GraphSource::from_edges(lfr_input()), bundle);

  EXPECT_NEAR(heur.final_modularity, base.final_modularity, 0.02);

  std::uint64_t base_scanned = 0;
  std::uint64_t heur_scanned = 0;
  for (const auto& level : base.levels) {
    for (std::uint64_t s : level.trace.scanned_vertices) base_scanned += s;
  }
  for (const auto& level : heur.levels) {
    for (std::uint64_t s : level.trace.scanned_vertices) heur_scanned += s;
  }
  EXPECT_LT(heur_scanned, base_scanned);
}

// --- Vertex-following edge cases (thread transport, tiny graphs). ---

core::ParOptions vf_opts(bool follow) {
  core::ParOptions opts;
  opts.nranks = 2;
  opts.refine.vertex_following = follow;
  return opts;
}

// A 4-chain's optimum is two pairs; folding must run ONE pass on the
// original degrees (an iterated fold would glue the whole chain: after
// 0->1 and 3->2, vertices 1 and 2 look degree-1 again).
TEST(VertexFollowing, FourChainKeepsTwoPairs) {
  pml::ScopedTransportEnv park_env;
  graph::EdgeList chain;
  chain.add(0, 1);
  chain.add(1, 2);
  chain.add(2, 3);
  const auto r = louvain(GraphSource::from_edges(chain), vf_opts(true));
  ASSERT_EQ(r.final_labels.size(), 4u);
  EXPECT_EQ(r.final_labels[0], r.final_labels[1]);
  EXPECT_EQ(r.final_labels[2], r.final_labels[3]);
  EXPECT_NE(r.final_labels[1], r.final_labels[2]);
  const auto plain = louvain(GraphSource::from_edges(chain), vf_opts(false));
  EXPECT_NEAR(r.final_modularity, plain.final_modularity, 1e-12);
}

// A 5-chain has interior anchors of degree 2: only the end leaves fold,
// and each ends up co-membered with its anchor.
TEST(VertexFollowing, FiveChainLeavesJoinAnchors) {
  pml::ScopedTransportEnv park_env;
  graph::EdgeList chain;
  for (vid_t v = 0; v < 4; ++v) chain.add(v, v + 1);
  const auto r = louvain(GraphSource::from_edges(chain), vf_opts(true));
  ASSERT_EQ(r.final_labels.size(), 5u);
  EXPECT_EQ(r.final_labels[0], r.final_labels[1]);
  EXPECT_EQ(r.final_labels[4], r.final_labels[3]);
}

// A lone edge is a mutual leaf pair: exactly one side folds (larger id
// onto smaller), the other is its anchor — never both, which would
// orphan the pair.
TEST(VertexFollowing, MutualLeafPairFoldsOneSide) {
  pml::ScopedTransportEnv park_env;
  graph::EdgeList pair;
  pair.add(0, 1);
  const auto r = louvain(GraphSource::from_edges(pair), vf_opts(true));
  ASSERT_EQ(r.final_labels.size(), 2u);
  EXPECT_EQ(r.final_labels[0], r.final_labels[1]);
}

// A leaf carrying a self-loop must NOT fold: the always-join guarantee
// ΔQ = (w/m)(1 − Σtot(u)/2m) > 0 assumes the leaf's strength is its one
// edge, and the loop inflates the strength while the attachment gain
// stays w. On this graph (self-looped pendant on a triangle) the optimum
// keeps the pendant as its own singleton — folding would pin it to the
// triangle and lose modularity. With no other foldable vertex, the
// vertex-following run must be bit-identical to the plain one.
TEST(VertexFollowing, SelfLoopedLeafIsNotFolded) {
  pml::ScopedTransportEnv park_env;
  graph::EdgeList g;
  g.add(0, 0);  // self-loop on the pendant
  g.add(0, 1);
  g.add(1, 2);
  g.add(2, 3);
  g.add(3, 1);
  const auto r = louvain(GraphSource::from_edges(g), vf_opts(true));
  const auto plain = louvain(GraphSource::from_edges(g), vf_opts(false));
  ASSERT_EQ(r.final_labels.size(), 4u);
  EXPECT_EQ(r.final_modularity, plain.final_modularity);
  EXPECT_EQ(r.final_labels, plain.final_labels);
  // The singleton pendant is the optimum here, not a co-membership.
  EXPECT_NE(r.final_labels[0], r.final_labels[1]);
}

// An isolated vertex has no neighbor, so it is not a leaf: it must
// survive the fold/unfold round trip as its own singleton.
TEST(VertexFollowing, IsolatedVertexStaysSingleton) {
  pml::ScopedTransportEnv park_env;
  graph::EdgeList g;
  g.add(0, 1);
  g.add(1, 2);
  // Vertex 3 exists only through the explicit vertex count.
  const auto r = louvain(GraphSource::from_edges(g, 4), vf_opts(true));
  ASSERT_EQ(r.final_labels.size(), 4u);
  EXPECT_NE(r.final_labels[3], r.final_labels[0]);
  EXPECT_NE(r.final_labels[3], r.final_labels[1]);
  EXPECT_NE(r.final_labels[3], r.final_labels[2]);
}

// Every spoke of a star folds onto the hub; the whole star is one
// community (the K_{1,n} modularity optimum).
TEST(VertexFollowing, StarCollapsesOntoHub) {
  pml::ScopedTransportEnv park_env;
  graph::EdgeList star;
  for (vid_t leaf = 1; leaf <= 5; ++leaf) star.add(0, leaf);
  const auto r = louvain(GraphSource::from_edges(star), vf_opts(true));
  ASSERT_EQ(r.final_labels.size(), 6u);
  for (vid_t v = 1; v <= 5; ++v) {
    EXPECT_EQ(r.final_labels[v], r.final_labels[0]) << "leaf " << v;
  }
}

// Warm start composes with vertex-following: the fold must not corrupt a
// seeded partition's quality on a structured input.
TEST(VertexFollowing, WarmStartHoldsQuality) {
  pml::ScopedTransportEnv park_env;
  const auto& edges = lfr_input();
  core::ParOptions seed_opts;
  seed_opts.nranks = kRanks;
  const auto seed = louvain(GraphSource::from_edges(edges), seed_opts);
  core::ParOptions warm_opts = seed_opts;
  warm_opts.refine.vertex_following = true;
  const auto warm =
      louvain(GraphSource::from_edges_warm(edges, seed.final_labels), warm_opts);
  EXPECT_GE(warm.final_modularity, seed.final_modularity - 0.02);
}

}  // namespace
}  // namespace plv
