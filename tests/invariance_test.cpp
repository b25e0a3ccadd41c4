// Invariance properties of the parallel engine: what only changes *data
// layout* or *transport* must not change the answer.
//
//   * rank count — ownership only: every global decision (gain histogram,
//     cutoff, tie breaks) is rank-independent;
//   * edge-list order — the In_Table's rows are the same: each row is
//     sorted by source, so record order reaches only the summation order
//     of duplicate edges.
//
// Chunk boundaries are pml's concern: the ordered drain applies every
// source's records in rank order whatever the coalescing capacity
// (CommTest.StreamingDrainAppliesSourcesInRankOrderAcrossChunks).
//
// These pin down the determinism contract of DESIGN.md (decision 5).
//
// Caveat on floating point: the tests use unit-weight graphs, where every
// Σtot/w_uc accumulation is an exact integer sum, so reorderings (which
// rank counts and record orders do cause) cannot perturb gains. For graphs
// with irrational weight mixes, per-vertex gains are still exact functions
// of the table *contents*, but the global Q reduction's partial-sum
// grouping varies with the rank count, so stopping decisions within
// ~1e-12 of the tolerance could in principle flip.
#include <gtest/gtest.h>

#include "common/louvain.hpp"
#include "core/options.hpp"
#include "gen/lfr.hpp"
#include "gen/rmat.hpp"

namespace plv::core {
namespace {

graph::EdgeList test_graph() {
  return gen::lfr({.n = 1200, .mu = 0.35, .seed = 91}).edges;
}

Result run(const graph::EdgeList& edges, const ParOptions& opts) {
  return plv::louvain(GraphSource::from_edges(edges, 1200), opts);
}

TEST(Invariance, RankCountDoesNotChangeResult) {
  // Stronger than quality parity: the algorithm's global decisions are a
  // pure function of the input, so even the rank count must not matter.
  const auto edges = test_graph();
  ParOptions base;
  base.nranks = 1;
  const auto reference = run(edges, base);
  for (int nranks : {2, 3, 5, 8}) {
    ParOptions opts = base;
    opts.nranks = nranks;
    const auto r = run(edges, opts);
    EXPECT_EQ(r.final_labels, reference.final_labels) << "nranks " << nranks;
    EXPECT_DOUBLE_EQ(r.final_modularity, reference.final_modularity);
  }
}

TEST(Invariance, EdgeListOrderDoesNotChangeResult) {
  auto edges = test_graph();
  ParOptions opts;
  opts.nranks = 4;
  const auto reference = run(edges, opts);
  // Reverse the record order: In_Table contents are identical.
  std::reverse(edges.edges().begin(), edges.edges().end());
  const auto r = run(edges, opts);
  EXPECT_EQ(r.final_labels, reference.final_labels);
}

TEST(Invariance, RmatSkewDoesNotBreakAnyCombination) {
  // Cross product over a skewed graph: everything must agree pairwise.
  gen::RmatParams p;
  p.scale = 10;
  p.edge_factor = 8;
  p.seed = 92;
  const auto edges = gen::rmat(p);
  std::vector<std::vector<vid_t>> results;
  for (int nranks : {1, 4}) {
    ParOptions opts;
    opts.nranks = nranks;
    results.push_back(
        plv::louvain(GraphSource::from_edges(edges, 1u << p.scale), opts).final_labels);
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i], results[0]) << "combination " << i;
  }
}

}  // namespace
}  // namespace plv::core
