// Classic graph families with analytically known community behavior —
// cheap, sharp checks on both engines.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/louvain_par.hpp"
#include "graph/csr.hpp"
#include "metrics/modularity.hpp"
#include "metrics/partition_utils.hpp"
#include "seq/louvain_seq.hpp"

namespace plv {
namespace {

graph::EdgeList complete_graph(vid_t n) {
  graph::EdgeList e;
  for (vid_t u = 0; u < n; ++u) {
    for (vid_t v = u + 1; v < n; ++v) e.add(u, v);
  }
  return e;
}

graph::EdgeList star_graph(vid_t leaves) {
  graph::EdgeList e;
  for (vid_t v = 1; v <= leaves; ++v) e.add(0, v);
  return e;
}

graph::EdgeList complete_bipartite(vid_t a, vid_t b) {
  graph::EdgeList e;
  for (vid_t u = 0; u < a; ++u) {
    for (vid_t v = 0; v < b; ++v) e.add(u, a + v);
  }
  return e;
}

core::ParOptions par2() {
  core::ParOptions o;
  o.nranks = 2;
  return o;
}

TEST(EdgeCases, CompleteGraphCollapsesToOneCommunity) {
  const auto e = complete_graph(12);
  const auto g = graph::Csr::from_edges(e);
  const auto s = seq::louvain(g);
  EXPECT_EQ(metrics::count_communities(s.final_labels), 1u);
  EXPECT_NEAR(s.final_modularity, 0.0, 1e-12);  // Q of the whole graph is 0

  const auto p = plv::louvain(GraphSource::from_edges(e, 12), par2());
  EXPECT_EQ(metrics::count_communities(p.final_labels), 1u);
}

TEST(EdgeCases, StarGraphIsOneCommunity) {
  // Any split of a star cuts hub-leaf edges for no internal gain.
  const auto e = star_graph(10);
  const auto s = seq::louvain(graph::Csr::from_edges(e));
  EXPECT_EQ(metrics::count_communities(s.final_labels), 1u);
  const auto p = plv::louvain(GraphSource::from_edges(e, 11), par2());
  EXPECT_EQ(metrics::count_communities(p.final_labels), 1u);
}

TEST(EdgeCases, CompleteBipartiteStaysTogetherOrBalanced) {
  // K(6,6): the modularity optimum is weak; whatever the engines do must
  // be a valid non-negative-Q partition and both must agree on Q within
  // a wide band.
  const auto e = complete_bipartite(6, 6);
  const auto g = graph::Csr::from_edges(e);
  const auto s = seq::louvain(g);
  const auto p = plv::louvain(GraphSource::from_edges(e, 12), par2());
  EXPECT_GE(s.final_modularity, -1e-12);   // greedy sequential never goes below 0
  EXPECT_GE(p.final_modularity, -0.05);    // parallel reports its true final state
  EXPECT_NEAR(s.final_modularity, p.final_modularity, 0.3);
}

TEST(EdgeCases, TwoDisconnectedCliquesSplitExactly) {
  graph::EdgeList e = complete_graph(5);
  for (vid_t u = 0; u < 5; ++u) {
    for (vid_t v = u + 1; v < 5; ++v) e.add(5 + u, 5 + v);
  }
  const auto s = seq::louvain(graph::Csr::from_edges(e, 10));
  EXPECT_EQ(metrics::count_communities(s.final_labels), 2u);
  EXPECT_NEAR(s.final_modularity, 0.5, 1e-12);  // two equal halves: Q = 1/2

  const auto p = plv::louvain(GraphSource::from_edges(e, 10), par2());
  EXPECT_EQ(metrics::count_communities(p.final_labels), 2u);
  EXPECT_NEAR(p.final_modularity, 0.5, 1e-12);
}

TEST(EdgeCases, PathGraphProducesContiguousSegments) {
  graph::EdgeList e;
  constexpr vid_t n = 24;
  for (vid_t v = 1; v < n; ++v) e.add(v - 1, v);
  const auto s = seq::louvain(graph::Csr::from_edges(e, n));
  // Louvain on a path yields contiguous runs: neighbors-of-neighbors in
  // the same community must form intervals.
  for (vid_t v = 2; v < n; ++v) {
    if (s.final_labels[v] == s.final_labels[v - 2]) {
      EXPECT_EQ(s.final_labels[v - 1], s.final_labels[v]);
    }
  }
  EXPECT_GT(s.final_modularity, 0.5);
}

TEST(EdgeCases, SingleVertexSelfLoopOnly) {
  graph::EdgeList e;
  e.add(0, 0, 4.0);
  const auto s = seq::louvain(graph::Csr::from_edges(e));
  EXPECT_EQ(metrics::count_communities(s.final_labels), 1u);
  EXPECT_NEAR(s.final_modularity, 0.0, 1e-12);  // Σin = 2m, Σtot = 2m
  const auto p = plv::louvain(GraphSource::from_edges(e, 1), par2());
  EXPECT_NEAR(p.final_modularity, 0.0, 1e-12);
}

TEST(EdgeCases, HeavySelfLoopsAnchorVertices) {
  // Self loops add internal weight wherever the vertex goes — they must
  // not bias it toward any neighbor.
  graph::EdgeList e;
  e.add(0, 0, 100.0);
  e.add(1, 1, 100.0);
  e.add(0, 1, 1.0);
  const auto g = graph::Csr::from_edges(e);
  const auto s = seq::louvain(g);
  EXPECT_NEAR(s.final_modularity, metrics::modularity(g, s.final_labels), 1e-12);
  const auto p = plv::louvain(GraphSource::from_edges(e, 2), par2());
  EXPECT_NEAR(p.final_modularity, metrics::modularity(g, p.final_labels), 1e-12);
}

/// Two triangles joined by one bridge; edge (0, 1) carries weight `w`.
graph::EdgeList two_triangles_with(double w) {
  graph::EdgeList e;
  e.add(0, 1, w);
  e.add(1, 2);
  e.add(0, 2);
  e.add(3, 4);
  e.add(4, 5);
  e.add(3, 5);
  e.add(2, 3);
  return e;
}

/// Runs `fn`, expecting an exception of type E whose message names `edge`.
template <typename E, typename Fn>
void expect_rejected_naming(Fn&& fn, const std::string& edge) {
  try {
    fn();
    ADD_FAILURE() << edge << " was accepted";
  } catch (const E& e) {
    EXPECT_NE(std::string(e.what()).find(edge), std::string::npos) << e.what();
  }
}

TEST(EdgeCases, NegativeNanAndInfiniteWeightsAreRejectedBeforeAnyRankStarts) {
  const double inf = std::numeric_limits<double>::infinity();
  const graph::EdgeList good = two_triangles_with(1.0);
  const std::vector<vid_t> seed = {0, 0, 0, 1, 1, 1};
  for (const double w : {std::nan(""), inf, -inf, -1.0}) {
    SCOPED_TRACE(w);
    const graph::EdgeList bad = two_triangles_with(w);
    const auto expect_rejected = [](auto&& fn) {
      expect_rejected_naming<std::invalid_argument>(fn, "(0, 1)");
    };
    expect_rejected([&] { (void)plv::louvain(GraphSource::from_edges(bad), par2()); });
    expect_rejected([&] { (void)plv::louvain(GraphSource::from_edges_warm(bad, seed), par2()); });
    const EdgeDelta none;
    expect_rejected([&] { (void)plv::louvain(GraphSource::from_deltas(bad, none), par2()); });
    EdgeDelta bad_insert;
    bad_insert.inserts.add(0, 1, w);
    expect_rejected(
        [&] { (void)plv::louvain(GraphSource::from_deltas(good, bad_insert), par2()); });
  }
}

TEST(EdgeCases, InvalidVertexIdIsRejectedBeforeAnyRankStarts) {
  // kInvalidVid is the engine's "no vertex" sentinel, and one past it
  // wraps the vertex count to 0. A materialized list or a delta's inserts
  // naming it are refused on the caller's thread; a streamed slice is
  // refused inside the fleet, which fails with the same message (from a
  // forked rank it arrives as a RemoteRankError).
  const graph::EdgeList good = two_triangles_with(1.0);
  graph::EdgeList bad = good;
  bad.add(2, kInvalidVid);
  const std::string edge = "(2, " + std::to_string(kInvalidVid) + ")";
  const auto expect_rejected = [&](auto&& fn) {
    expect_rejected_naming<std::invalid_argument>(fn, edge);
  };
  expect_rejected([&] { (void)plv::louvain(GraphSource::from_edges(bad), par2()); });
  expect_rejected([&] { (void)plv::louvain(GraphSource::from_edges(bad, 8), par2()); });
  const std::vector<vid_t> seed = {0, 0, 0, 1, 1, 1};
  expect_rejected([&] { (void)plv::louvain(GraphSource::from_edges_warm(bad, seed), par2()); });
  EdgeDelta bad_insert;
  bad_insert.inserts.add(2, kInvalidVid, 1.0);
  expect_rejected(
      [&] { (void)plv::louvain(GraphSource::from_deltas(good, bad_insert), par2()); });
  const EdgeSliceFn bad_slices = [&](int rank, int nranks) {
    return rank == nranks - 1 ? bad : graph::EdgeList{};
  };
  expect_rejected_naming<std::exception>(
      [&] { (void)plv::louvain(GraphSource::from_stream(bad_slices, 6), par2()); }, edge);
}

TEST(EdgeCases, ZeroWeightsStayLegal) {
  const auto r = plv::louvain(GraphSource::from_edges(two_triangles_with(0.0)), par2());
  EXPECT_TRUE(std::isfinite(r.final_modularity));
  EXPECT_EQ(r.final_labels.size(), 6u);
}

}  // namespace
}  // namespace plv
