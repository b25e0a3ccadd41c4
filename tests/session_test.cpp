// plv::Session — the streaming front door. The contract under test:
//
//  * deterministic plan (rebuild_every_batches = 1): every apply() is
//    bit-identical to a cold plv::louvain() of the patched edge list — on
//    every transport backend, and over a seeded fuzz of batch shapes;
//  * fast plan (pure incremental): applies are flagged incremental, stay
//    close to the cold partition in quality, and the reported Q always
//    matches a recomputation on the true current graph; the frontier
//    refine behind them is pinned bit for bit, on every transport;
//  * snapshots are immutable versioned values: epoch-monotone, readable
//    concurrently with applies, and an old snapshot never changes;
//  * a batch that removes an absent edge, or inserts a negative, NaN or
//    infinite weight or the vertex id kInvalidVid, is rejected whole:
//    apply() throws std::invalid_argument, the fleet and the served
//    snapshot stay as they were, and the next valid batch publishes the
//    next epoch; apply_edge_delta itself is all or nothing.
#include "core/session.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/louvain.hpp"
#include "common/random.hpp"
#include "core/options.hpp"
#include "gen/lfr.hpp"
#include "gen/planted.hpp"
#include "graph/csr.hpp"
#include "metrics/modularity.hpp"
#include "golden_hash.hpp"
#include "metrics/similarity.hpp"
#include "transport_param.hpp"

namespace plv {
namespace {

core::ParOptions session_opts(int nranks, core::StreamingPlan plan,
                              pml::TransportKind kind = pml::TransportKind::kThread) {
  core::ParOptions opts;
  opts.nranks = nranks;
  opts.transport = kind;
  opts.streaming = plan;
  return opts;
}

/// Deterministic churn batch: remove what the previous batch inserted,
/// insert `k` fresh random edges (mirrors bench/micro_streaming).
EdgeDelta make_batch(Xoshiro256& rng, std::vector<Edge>& pending, vid_t n,
                     std::size_t k) {
  EdgeDelta delta;
  for (const Edge& e : pending) delta.removals.add(e.u, e.v, e.w);
  pending.clear();
  for (std::size_t i = 0; i < k; ++i) {
    const auto u = static_cast<vid_t>(rng.next_below(n));
    auto v = static_cast<vid_t>(rng.next_below(n));
    while (v == u) v = static_cast<vid_t>(rng.next_below(n));
    delta.inserts.add(u, v, 1.0);
    pending.push_back(Edge{u, v, 1.0});
  }
  return delta;
}

class SessionTransports : public ::testing::TestWithParam<pml::TransportKind> {
 protected:
  void SetUp() override { PLV_SKIP_IF_UNSUPPORTED(GetParam()); }

 private:
  pml::ScopedTransportEnv park_env_;
};

TEST_P(SessionTransports, DeterministicPlanMatchesColdRunEveryEpoch) {
  // The acceptance bar: with every batch a full rebuild, the session's
  // labels must be indistinguishable from throwing the patched edge list
  // at the cold front door — bitwise, on every backend.
  const auto g = gen::lfr({.n = 600, .mu = 0.3, .seed = 101});
  const vid_t n = 600;
  const auto opts =
      session_opts(4, core::StreamingPlan::deterministic(), GetParam());

  Session session(GraphSource::from_edges(g.edges, n), opts);
  graph::EdgeList mirror = g.edges;
  {
    const auto cold = louvain(GraphSource::from_edges(mirror, n), opts);
    const auto snap = session.snapshot();
    EXPECT_EQ(snap->epoch, 0u);
    EXPECT_EQ(snap->labels, cold.final_labels);
    EXPECT_EQ(snap->modularity, cold.final_modularity);
  }

  Xoshiro256 rng(102);
  std::vector<Edge> pending;
  for (std::uint64_t b = 1; b <= 3; ++b) {
    const EdgeDelta delta = make_batch(rng, pending, n, 40);
    apply_edge_delta(mirror, delta);
    const auto snap = session.apply(delta);
    const auto cold = louvain(GraphSource::from_edges(mirror, n), opts);
    EXPECT_EQ(snap->epoch, b);
    EXPECT_FALSE(snap->incremental);
    EXPECT_EQ(snap->labels, cold.final_labels) << "epoch " << b;
    EXPECT_EQ(snap->modularity, cold.final_modularity) << "epoch " << b;
  }
  session.close();
}

/// Rewires one seeded vertex v into a community it was not planted in:
/// the batch removes every edge at v (as `edges` holds them) and connects
/// v to as many distinct members of another planted community.
EdgeDelta rewire_one_vertex(Xoshiro256& rng, const graph::EdgeList& edges,
                            const std::vector<vid_t>& planted) {
  const auto n = static_cast<vid_t>(planted.size());
  const auto v = static_cast<vid_t>(rng.next_below(n));
  EdgeDelta delta;
  for (const Edge& e : edges) {
    if (e.u == v || e.v == v) delta.removals.add(e.u, e.v, e.w);
  }
  vid_t target = planted[v];
  while (target == planted[v]) target = planted[rng.next_below(n)];
  std::vector<vid_t> members;
  for (vid_t u = 0; u < n; ++u) {
    if (planted[u] == target) members.push_back(u);
  }
  const std::size_t k = std::min(delta.removals.size(), members.size());
  for (std::size_t i = 0; i < k; ++i) {  // partial Fisher-Yates: k distinct members
    std::swap(members[i], members[i + rng.next_below(members.size() - i)]);
    delta.inserts.add(v, members[i], 1.0);
  }
  return delta;
}

/// One incremental epoch, pinned: its final labels' hash and its Q.
struct EpochGolden {
  std::uint64_t labels;
  double modularity;
  bool operator==(const EpochGolden&) const = default;
};

std::string to_source(const std::vector<EpochGolden>& epochs) {
  std::string out = "{";
  char buf[64];
  for (const EpochGolden& e : epochs) {
    std::snprintf(buf, sizeof(buf), "\n    {0x%016llxULL, %a},",
                  static_cast<unsigned long long>(e.labels), e.modularity);
    out += buf;
  }
  return out + "}";
}

// Each batch rewires one vertex; the fast plan takes every one
// incrementally, so level 0 of every epoch refines only the frontier (the
// changed edges' endpoints, grown by the vertices their moves' patches
// wake). This pins the restricted join search and the wakeup bit for bit:
// a build that scans every vertex, or drops the wakeup, publishes other
// labels. Recorded on the thread transport; every backend must publish the
// same labels and Q bits.
const std::vector<EpochGolden> kFastPlanGolden = {
    {0x1ade46f5713760aaULL, 0x1.112188ad001fp-1},
    {0x952caf1c395fd94bULL, 0x1.1156ab72e3d3p-1},
    {0x47f72461d11b69c5ULL, 0x1.1267d6b462323p-1},
    {0x6075a03652641541ULL, 0x1.127eb5826cb77p-1},
    {0xea9ef25a286ec1cdULL, 0x1.12a2a11b9168ep-1},
    {0xa46341e834d19aebULL, 0x1.13d3201c55734p-1}};

TEST_P(SessionTransports, FastPlanFrontierMatchesGoldenEveryEpoch) {
  const auto g = gen::lfr({.n = 2000, .mu = 0.3, .seed = 23});
  const vid_t n = 2000;
  Session session(GraphSource::from_edges(g.edges, n),
                  session_opts(4, core::StreamingPlan::fast(), GetParam()));
  graph::EdgeList mirror = g.edges;
  std::vector<vid_t> prev = session.snapshot()->labels;
  Xoshiro256 rng(24);
  std::vector<EpochGolden> observed;
  for (std::uint64_t b = 1; b <= 6; ++b) {
    const EdgeDelta delta = rewire_one_vertex(rng, mirror, g.ground_truth);
    apply_edge_delta(mirror, delta);
    const auto snap = session.apply(delta);
    EXPECT_EQ(snap->epoch, b);
    EXPECT_TRUE(snap->incremental) << "epoch " << b;
    EXPECT_NE(snap->labels, prev) << "epoch " << b << " moved no label";
    prev = snap->labels;
    observed.push_back(EpochGolden{fnv1a(snap->labels), snap->modularity});
  }
  session.close();
  EXPECT_EQ(observed, kFastPlanGolden) << "observed " << to_source(observed);
}

INSTANTIATE_TEST_SUITE_P(AllTransports, SessionTransports,
                         ::testing::ValuesIn(pml::kAllTransports),
                         [](const auto& info) {
                           return pml::transport_test_name(info.param);
                         });

TEST(Session, InitialSnapshotMatchesFromDeltasColdRun) {
  // A delta-composed source seeds the session exactly like the front door.
  pml::ScopedTransportEnv park;
  const auto g = gen::lfr({.n = 400, .mu = 0.3, .seed = 103});
  EdgeDelta d0;
  d0.inserts.add(0, 399, 1.0);
  d0.inserts.add(1, 398, 1.0);
  const auto opts = session_opts(2, core::StreamingPlan::deterministic());
  const auto cold = louvain(GraphSource::from_deltas(g.edges, d0, 400), opts);
  Session session(GraphSource::from_deltas(g.edges, d0, 400), opts);
  const auto snap = session.snapshot();
  EXPECT_EQ(snap->labels, cold.final_labels);
  EXPECT_EQ(snap->modularity, cold.final_modularity);
}

TEST(Session, IncrementalApplyKeepsQualityAndExactModularity) {
  pml::ScopedTransportEnv park;
  const auto g = gen::planted_partition(
      {.communities = 8, .community_size = 32, .p_intra = 0.4, .p_inter = 0.005, .seed = 104});
  const vid_t n = 8 * 32;
  const auto opts = session_opts(4, core::StreamingPlan::fast());
  Session session(GraphSource::from_edges(g.edges, n), opts);

  graph::EdgeList mirror = g.edges;
  Xoshiro256 rng(105);
  std::vector<Edge> pending;
  for (int b = 0; b < 3; ++b) {
    const EdgeDelta delta = make_batch(rng, pending, n, 20);
    apply_edge_delta(mirror, delta);
    const auto snap = session.apply(delta);
    EXPECT_TRUE(snap->incremental);
    // Reported Q is computed on the In_Table built from the patched
    // replica — it must agree with an independent recomputation on the
    // mirror graph.
    const auto csr = graph::Csr::from_edges(mirror, n);
    EXPECT_NEAR(snap->modularity, metrics::modularity(csr, snap->labels), 1e-9);
    // Dirty-region re-refine keeps the partition close to a cold one.
    const auto cold = louvain(GraphSource::from_edges(mirror, n),
                              session_opts(4, core::StreamingPlan::deterministic()));
    EXPECT_GT(metrics::nmi(snap->labels, cold.final_labels), 0.8) << "batch " << b;
    EXPECT_GT(snap->modularity, 0.9 * cold.final_modularity) << "batch " << b;
  }
}

TEST(Session, SnapshotsAreImmutableVersionedValues) {
  pml::ScopedTransportEnv park;
  const auto g = gen::lfr({.n = 300, .mu = 0.3, .seed = 106});
  const auto opts = session_opts(2, core::StreamingPlan::fast());
  Session session(GraphSource::from_edges(g.edges, 300), opts);

  const auto epoch0 = session.snapshot();
  const auto labels0 = epoch0->labels;  // deep copy to compare against later

  EdgeDelta delta;
  for (vid_t v = 0; v < 40; ++v) delta.inserts.add(v, 299 - v, 1.0);
  const auto epoch1 = session.apply(delta);

  // The old snapshot is untouched by the newer epoch...
  EXPECT_EQ(epoch0->epoch, 0u);
  EXPECT_EQ(epoch0->labels, labels0);
  // ...and the session now serves the new one.
  EXPECT_EQ(epoch1->epoch, 1u);
  EXPECT_EQ(session.epoch(), 1u);
  EXPECT_EQ(session.snapshot()->epoch, 1u);
}

TEST(Session, EmptyDeltaAdvancesEpochAndKeepsLabels) {
  pml::ScopedTransportEnv park;
  const auto g = gen::lfr({.n = 300, .mu = 0.3, .seed = 107});
  const auto opts = session_opts(2, core::StreamingPlan::deterministic());
  Session session(GraphSource::from_edges(g.edges, 300), opts);
  const auto before = session.snapshot();
  const auto after = session.apply(EdgeDelta{});
  EXPECT_EQ(after->epoch, before->epoch + 1);
  EXPECT_EQ(after->labels, before->labels);
  EXPECT_EQ(after->modularity, before->modularity);
}

TEST(Session, VertexAdditionsJoinAndIsolatesStaySingletons) {
  pml::ScopedTransportEnv park;
  const auto g = gen::planted_partition(
      {.communities = 4, .community_size = 16, .p_intra = 0.6, .p_inter = 0.01, .seed = 108});
  const vid_t n = 64;
  const auto opts = session_opts(2, core::StreamingPlan::fast());
  Session session(GraphSource::from_edges(g.edges, n), opts);

  // Grow the vertex set: 64..66 appear, 64 wired into community 0's
  // anchor, 65 and 66 isolated.
  EdgeDelta delta;
  delta.n_vertices = 67;
  delta.inserts.add(64, 0, 4.0);
  delta.inserts.add(64, 1, 4.0);
  const auto snap = session.apply(delta);
  ASSERT_EQ(snap->n_vertices, 67u);
  ASSERT_EQ(snap->labels.size(), 67u);
  EXPECT_EQ(snap->community_of(64), snap->community_of(0));
  // Labels are compacted community ids: the isolated newcomers each sit
  // in their own singleton community, distinct from each other.
  EXPECT_NE(snap->community_of(65), snap->community_of(66));
  EXPECT_EQ(session.community_members(snap->community_of(65)),
            std::vector<vid_t>{65u});
  EXPECT_EQ(session.community_members(snap->community_of(66)),
            std::vector<vid_t>{66u});

  // community_members and query agree with the label vector.
  const auto members = session.community_members(snap->community_of(0));
  EXPECT_NE(std::find(members.begin(), members.end(), 64u), members.end());
  EXPECT_EQ(session.query(65), snap->community_of(65));
}

TEST(Session, EdgeDeletionsShrinkCommunities) {
  pml::ScopedTransportEnv park;
  // Two triangles joined by a bridge; delete the bridge and the halves
  // must fall apart into two communities.
  graph::EdgeList e;
  e.add(0, 1);
  e.add(1, 2);
  e.add(0, 2);
  e.add(3, 4);
  e.add(4, 5);
  e.add(3, 5);
  e.add(2, 3, 0.5);
  const auto opts = session_opts(2, core::StreamingPlan::fast());
  Session session(GraphSource::from_edges(e, 6), opts);

  EdgeDelta delta;
  delta.removals.add(2, 3, 0.5);
  const auto snap = session.apply(delta);
  EXPECT_EQ(snap->community_of(0), snap->community_of(2));
  EXPECT_EQ(snap->community_of(3), snap->community_of(5));
  EXPECT_NE(snap->community_of(0), snap->community_of(3));
}

// Every apply rebuilds level 0 from the resident edge-list replica. An
// incremental apply that leaves only zero-weight edges takes run_levels'
// weightless exit; the next apply must still find the replica and the
// published labels intact and build its level 0 from them. (The name is
// from when each pass borrowed a resident level-0 In_Table by move and had
// to hand it back on every return path.)
TEST(Session, WeightlessApplyHandsTheResidentTableBack) {
  pml::ScopedTransportEnv park;
  graph::EdgeList triangles;
  triangles.add(0, 1);
  triangles.add(1, 2);
  triangles.add(0, 2);
  triangles.add(3, 4);
  triangles.add(4, 5);
  triangles.add(3, 5);
  graph::EdgeList e = triangles;
  // Zero-weight bridges, 4 copies of 6: both 6-record batches below stay
  // within the quarter of the edge list an incremental apply may touch.
  for (int copy = 0; copy < 4; ++copy) {
    for (vid_t v = 0; v < 3; ++v) {
      e.add(v, v + 3, 0.0);
      e.add(v, (v + 1) % 3 + 3, 0.0);
    }
  }
  const auto opts = session_opts(2, core::StreamingPlan::fast());
  Session session(GraphSource::from_edges(e, 6), opts);

  EdgeDelta strip;
  strip.removals = triangles;
  const auto weightless = session.apply(strip);
  EXPECT_TRUE(weightless->incremental);
  EXPECT_EQ(weightless->modularity, 0.0);

  EdgeDelta restore;
  restore.inserts = triangles;
  const auto snap = session.apply(restore);
  EXPECT_TRUE(snap->incremental);
  EXPECT_EQ(snap->community_of(0), snap->community_of(2));
  EXPECT_EQ(snap->community_of(3), snap->community_of(5));
  EXPECT_NE(snap->community_of(0), snap->community_of(3));
  graph::EdgeList mirror = e;
  apply_edge_delta(mirror, strip);
  apply_edge_delta(mirror, restore);
  EXPECT_NEAR(snap->modularity, metrics::modularity(graph::Csr::from_edges(mirror, 6),
                                                    snap->labels),
              1e-9);
}

TEST(Session, ConcurrentReadersSeeMonotoneEpochsDuringApplies) {
  pml::ScopedTransportEnv park;
  const auto g = gen::lfr({.n = 400, .mu = 0.3, .seed = 109});
  const vid_t n = 400;
  const auto opts = session_opts(2, core::StreamingPlan::fast());
  Session session(GraphSource::from_edges(g.edges, n), opts);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<bool> violation{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      std::uint64_t last = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snap = session.snapshot();
        if (snap->epoch < last || snap->labels.size() != snap->n_vertices) {
          violation.store(true);
        }
        last = snap->epoch;
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  Xoshiro256 rng(110);
  std::vector<Edge> pending;
  for (int b = 0; b < 4; ++b) {
    (void)session.apply(make_batch(rng, pending, n, 30));
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_FALSE(violation.load());
  // Reads proceed while applies are in flight — a blocked reader would
  // have managed only a handful.
  EXPECT_GT(reads.load(), 4u);
}

TEST(Session, ExpiredGraphSourceIsRejected) {
  pml::ScopedTransportEnv park;
  graph::EdgeList e;
  e.add(0, 1);
  GraphSource src = GraphSource::from_edges(e, 2);
  GraphSource moved = std::move(src);
  const auto opts = session_opts(1, core::StreamingPlan::fast());
  EXPECT_THROW(Session(src, opts), std::logic_error);
  EXPECT_NO_THROW({
    Session ok(moved, opts);
    ok.close();
  });
}

TEST(Session, BadRemovalFailsTheApplyButKeepsServingSnapshots) {
  pml::ScopedTransportEnv park;
  const auto g = gen::lfr({.n = 200, .mu = 0.3, .seed = 111});
  for (const auto kind : {pml::TransportKind::kThread, pml::TransportKind::kProc}) {
    if (!pml::transport_supported_in_this_build(kind)) continue;
    SCOPED_TRACE(pml::transport_kind_name(kind));
    const auto opts = session_opts(2, core::StreamingPlan::deterministic(), kind);
    Session session(GraphSource::from_edges(g.edges, 200), opts);
    const auto good = session.snapshot();

    // The first removal names a real record, the second none: the batch
    // is rejected whole, on every rank alike.
    const Edge present = g.edges.edges().front();
    EdgeDelta bogus;
    bogus.removals.add(present.u, present.v, present.w);
    bogus.removals.add(0, 1, 123.456);  // no such record
    bogus.inserts.add(5, 6, 1.0);
    EXPECT_THROW((void)session.apply(bogus), std::invalid_argument);
    EXPECT_EQ(session.snapshot(), good);
    EXPECT_EQ(session.epoch(), good->epoch);

    // The fleet keeps applying, and the next epoch has no gap. Under the
    // deterministic plan it is a cold run of the graph the rejected batch
    // never touched.
    EdgeDelta valid;
    valid.inserts.add(0, 199, 1.0);
    const auto next = session.apply(valid);
    EXPECT_EQ(next->epoch, good->epoch + 1);
    graph::EdgeList mirror = g.edges;
    apply_edge_delta(mirror, valid);
    const auto cold = louvain(GraphSource::from_edges(mirror, 200), opts);
    EXPECT_EQ(next->labels, cold.final_labels);
    EXPECT_EQ(next->modularity, cold.final_modularity);
    session.close();
  }
}

TEST(Session, BadWeightsAreRejectedAtConstruction) {
  const auto g = gen::lfr({.n = 200, .mu = 0.3, .seed = 111});
  const auto opts = session_opts(2, core::StreamingPlan::deterministic());
  graph::EdgeList bad = g.edges;
  bad.edges()[7].w = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW({ Session s(GraphSource::from_edges(bad, 200), opts); },
               std::invalid_argument);
  EdgeDelta negative;
  negative.inserts.add(0, 1, -1.0);
  EXPECT_THROW({ Session s(GraphSource::from_deltas(g.edges, negative, 200), opts); },
               std::invalid_argument);
}

TEST(Session, BadInsertWeightFailsTheApplyButKeepsServingSnapshots) {
  const auto g = gen::lfr({.n = 200, .mu = 0.3, .seed = 111});
  const auto opts = session_opts(2, core::StreamingPlan::deterministic());
  Session session(GraphSource::from_edges(g.edges, 200), opts);
  const auto good = session.snapshot();
  for (const double w : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(), -1.0}) {
    EdgeDelta bad;
    bad.inserts.add(5, 6, 1.0);
    bad.inserts.add(0, 1, w);
    try {
      (void)session.apply(bad);
      ADD_FAILURE() << "weight " << w << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("(0, 1)"), std::string::npos) << e.what();
    }
    EXPECT_EQ(session.snapshot(), good);
    EXPECT_EQ(session.epoch(), good->epoch);
  }
  // The next valid batch publishes the next epoch: a cold run of the
  // graph the rejected batches never touched.
  EdgeDelta valid;
  valid.inserts.add(0, 199, 0.0);  // zero weights stay legal
  const auto next = session.apply(valid);
  EXPECT_EQ(next->epoch, good->epoch + 1);
  graph::EdgeList mirror = g.edges;
  apply_edge_delta(mirror, valid);
  const auto cold = louvain(GraphSource::from_edges(mirror, 200), opts);
  EXPECT_EQ(next->labels, cold.final_labels);
  EXPECT_EQ(next->modularity, cold.final_modularity);
  session.close();
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

TEST(Session, InvalidVertexIdIsRejectedAndTheSessionStaysUsable) {
  // kInvalidVid is the engine's "no vertex" sentinel, and one past it
  // wraps the vertex count to 0: an edge naming it is refused before the
  // fleet sees it, and a streamed slice carrying it fails the fleet with
  // the same message.
  pml::ScopedTransportEnv park;
  const auto opts = session_opts(2, core::StreamingPlan::fast());
  graph::EdgeList triangle;
  triangle.add(0, 1);
  triangle.add(1, 2);
  triangle.add(0, 2);
  graph::EdgeList bad = triangle;
  bad.add(2, kInvalidVid);
  const std::string bad_edge = "(2, " + std::to_string(kInvalidVid) + ")";
  expect_rejected_naming<std::invalid_argument>(
      [&] { Session s(GraphSource::from_edges(bad), opts); }, bad_edge);
  EdgeDelta bad_insert;
  bad_insert.inserts.add(2, kInvalidVid, 1.0);
  expect_rejected_naming<std::invalid_argument>(
      [&] { Session s(GraphSource::from_deltas(triangle, bad_insert), opts); }, bad_edge);
  const EdgeSliceFn bad_slices = [&](int rank, int nranks) {
    return rank == nranks - 1 ? bad : graph::EdgeList{};
  };
  expect_rejected_naming<std::exception>(
      [&] { Session s(GraphSource::from_stream(bad_slices, 3), opts); }, bad_edge);

  graph::EdgeList path = triangle;
  path.add(2, 3);
  Session session(GraphSource::from_edges(path), opts);
  const auto good = session.snapshot();
  EdgeDelta bad_batch;
  bad_batch.inserts.add(3, kInvalidVid, 1.0);
  expect_rejected_naming<std::invalid_argument>([&] { (void)session.apply(bad_batch); },
                                                "(3, " + std::to_string(kInvalidVid) + ")");
  EXPECT_EQ(session.snapshot(), good);
  EdgeDelta valid;
  valid.inserts.add(3, 4, 1.0);
  const auto next = session.apply(valid);
  EXPECT_EQ(next->epoch, good->epoch + 1);
  EXPECT_EQ(next->n_vertices, 5u);
  session.close();
}

TEST(ApplyEdgeDelta, MissingRemovalRollsBackEarlierRemovals) {
  graph::EdgeList edges;
  edges.add(0, 1, 1.0);
  edges.add(1, 2, 2.0);
  edges.add(2, 3, 3.0);
  edges.add(1, 2, 2.0);  // parallel record: the removal takes the first
  const std::vector<Edge> before = edges.edges();

  EdgeDelta delta;
  delta.removals.add(2, 1, 2.0);  // present
  delta.removals.add(7, 8, 1.0);  // missing
  delta.inserts.add(5, 6, 1.0);
  EXPECT_THROW((void)apply_edge_delta(edges, delta), std::invalid_argument);
  ASSERT_EQ(edges.size(), before.size());
  EXPECT_EQ(std::memcmp(edges.edges().data(), before.data(), before.size() * sizeof(Edge)), 0);
}

/// Reference for apply_edge_delta's removal semantics: one list scan per
/// removal, erasing the first match, with an undo log that restores the
/// list when a removal finds no record.
vid_t apply_edge_delta_sequential(graph::EdgeList& edges, const EdgeDelta& delta) {
  auto& recs = edges.edges();
  std::vector<std::pair<std::size_t, Edge>> erased;
  for (const Edge& r : delta.removals) {
    const auto hit = std::find_if(recs.begin(), recs.end(), [&](const Edge& e) {
      const bool same_pair = (e.u == r.u && e.v == r.v) || (e.u == r.v && e.v == r.u);
      return same_pair && e.w == r.w;
    });
    if (hit == recs.end()) {
      for (auto it = erased.rbegin(); it != erased.rend(); ++it) {
        recs.insert(recs.begin() + static_cast<std::ptrdiff_t>(it->first), it->second);
      }
      throw std::invalid_argument(
          "apply_edge_delta: removal (" + std::to_string(r.u) + ", " +
          std::to_string(r.v) + ", w=" + std::to_string(r.w) +
          ") names no existing edge record");
    }
    erased.emplace_back(static_cast<std::size_t>(hit - recs.begin()), *hit);
    recs.erase(hit);
  }
  for (const Edge& e : delta.inserts) edges.add(e.u, e.v, e.w);
  return std::max(edges.vertex_count(), delta.n_vertices);
}

bool same_bytes(const graph::EdgeList& a, const graph::EdgeList& b) {
  // memcmp must not see the null data() of an empty list, even for 0 bytes.
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.edges().data(), b.edges().data(), a.size() * sizeof(Edge)) == 0);
}

// Random small lists over few vertices and weights, so parallel records,
// reversed records, repeated removals and missing removals all occur;
// +0.0/-0.0 and NaN weights pin the `==` match. The one-pass matcher must
// reproduce the reference byte for byte: list, vertex count, and the
// error message of the first failing removal.
TEST(ApplyEdgeDelta, OnePassMatchesSequentialReferenceOnRandomBatches) {
  Xoshiro256 rng(20261017);
  const std::vector<weight_t> weights = {1.0, 2.0, 0.5, 0.0, -0.0,
                                         std::numeric_limits<double>::quiet_NaN()};
  const auto pick_weight = [&] {
    // NaN is rare: a batch naming it always fails.
    const std::uint64_t r = rng.next_below(100);
    return r == 0 ? weights[5] : weights[r % 5];
  };
  int applied = 0;
  int rejected = 0;
  for (int round = 0; round < 2000; ++round) {
    const auto n = static_cast<vid_t>(2 + rng.next_below(6));
    graph::EdgeList base;
    const std::size_t m = rng.next_below(30);
    for (std::size_t i = 0; i < m; ++i) {
      base.add(static_cast<vid_t>(rng.next_below(n)), static_cast<vid_t>(rng.next_below(n)),
               pick_weight());
    }
    EdgeDelta delta;
    const std::size_t k = rng.next_below(12);
    for (std::size_t i = 0; i < k; ++i) {
      if (!base.empty() && rng.next_below(8) != 0) {
        // An existing record, often reversed, sometimes named twice.
        const Edge e = base.edges()[rng.next_below(base.size())];
        const int copies = rng.next_below(4) == 0 ? 2 : 1;
        for (int c = 0; c < copies; ++c) {
          if (rng.next_below(2) == 0) {
            delta.removals.add(e.v, e.u, e.w);
          } else {
            delta.removals.add(e.u, e.v, e.w);
          }
        }
      } else {
        // Probably missing: a fresh pair over a wider id range.
        delta.removals.add(static_cast<vid_t>(rng.next_below(n + 2)),
                           static_cast<vid_t>(rng.next_below(n + 2)), pick_weight());
      }
    }
    if (rng.next_below(2) == 0) delta.inserts.add(0, n, 1.0);
    delta.n_vertices = static_cast<vid_t>(rng.next_below(n + 4));

    graph::EdgeList expected = base;
    graph::EdgeList actual = base;
    std::string expected_error;
    std::string actual_error;
    vid_t expected_n = 0;
    vid_t actual_n = 0;
    try {
      expected_n = apply_edge_delta_sequential(expected, delta);
    } catch (const std::invalid_argument& e) {
      expected_error = e.what();
    }
    try {
      actual_n = apply_edge_delta(actual, delta);
    } catch (const std::invalid_argument& e) {
      actual_error = e.what();
    }
    ASSERT_EQ(actual_error, expected_error) << "round " << round;
    ASSERT_TRUE(same_bytes(actual, expected)) << "round " << round;
    ASSERT_EQ(actual_n, expected_n) << "round " << round;
    if (expected_error.empty()) {
      ++applied;
    } else {
      ASSERT_TRUE(same_bytes(actual, base)) << "round " << round;
      ++rejected;
    }
  }
  // Both outcomes must be well represented for the comparison to mean much.
  EXPECT_GT(applied, 400);
  EXPECT_GT(rejected, 400);
}

// Seeded EdgeDelta fuzz for the Session's exactness contract. One stream
// of 12 batches mixes removals of original and of inserted records,
// parallel edges, self-loops, inserts that add vertices, an n_vertices
// floor, an empty batch, and integer and tenths weights. A
// deterministic-plan Session must publish, every epoch, exactly
// plv::louvain of a mirror list kept with apply_edge_delta; a fast-plan
// Session fed the same stream must report the mirror's modularity of its
// own labels (within 1e-9), valid labels and consecutive epochs.
TEST(SessionFuzz, EveryEpochMatchesTheMirrorOnThreadAndProc) {
  pml::ScopedTransportEnv park;
  const vid_t n0 = 300;
  const auto g = gen::lfr({.n = n0, .mu = 0.3, .seed = 113});
  for (const auto kind : {pml::TransportKind::kThread, pml::TransportKind::kProc}) {
    if (!pml::transport_supported_in_this_build(kind)) continue;
    SCOPED_TRACE(pml::transport_kind_name(kind));
    const auto exact_opts = session_opts(2, core::StreamingPlan::deterministic(), kind);
    Session exact(GraphSource::from_edges(g.edges, n0), exact_opts);
    Session fast(GraphSource::from_edges(g.edges, n0),
                 session_opts(2, core::StreamingPlan::fast(), kind));
    graph::EdgeList mirror = g.edges;
    vid_t n = n0;
    std::vector<Edge> originals(g.edges.begin(), g.edges.end());
    std::vector<Edge> inserted;  // live inserted records
    Xoshiro256 rng(114);
    for (std::uint64_t b = 1; b <= 12; ++b) {
      SCOPED_TRACE("batch " + std::to_string(b));
      EdgeDelta delta;
      if (b != 6) {  // batch 6 stays empty
        const auto remove_from = [&](std::vector<Edge>& pool) {
          const std::size_t i = rng.next_below(pool.size());
          delta.removals.add(pool[i].u, pool[i].v, pool[i].w);
          pool[i] = pool.back();
          pool.pop_back();
        };
        const auto insert = [&](vid_t u, vid_t v) {
          const auto step = static_cast<weight_t>(1 + rng.next_below(4));
          const Edge e{u, v, b % 2 == 0 ? step / 10.0 : step};  // tenths on even batches
          delta.inserts.add(e.u, e.v, e.w);
          inserted.push_back(e);
        };
        for (int i = 0; i < 4; ++i) remove_from(originals);
        for (int i = 0; i < 2 && !inserted.empty(); ++i) remove_from(inserted);
        for (int i = 0; i < 6; ++i) {
          insert(static_cast<vid_t>(rng.next_below(n)), static_cast<vid_t>(rng.next_below(n)));
        }
        const Edge twin = originals[rng.next_below(originals.size())];
        insert(twin.u, twin.v);  // a parallel edge
        const auto loop = static_cast<vid_t>(rng.next_below(n));
        insert(loop, loop);  // a self-loop
        if (b % 3 == 0) insert(static_cast<vid_t>(rng.next_below(n)), n + 1);  // two new vertices
        if (b == 8) delta.n_vertices = n + 5;  // isolated newcomers
      }
      n = std::max(n, apply_edge_delta(mirror, delta));

      const auto cold = louvain(GraphSource::from_edges(mirror, n), exact_opts);
      const auto snap = exact.apply(delta);
      EXPECT_EQ(snap->epoch, b);
      EXPECT_EQ(snap->labels, cold.final_labels);
      EXPECT_EQ(snap->modularity, cold.final_modularity);

      const auto inc = fast.apply(delta);
      EXPECT_EQ(inc->epoch, b);
      ASSERT_EQ(inc->labels.size(), static_cast<std::size_t>(n));
      for (vid_t c : inc->labels) ASSERT_LT(c, inc->num_communities);
      EXPECT_NEAR(inc->modularity,
                  metrics::modularity(graph::Csr::from_edges(mirror, n), inc->labels), 1e-9);
    }
    exact.close();
    fast.close();
  }
}

TEST(Session, ApplyAfterCloseThrows) {
  pml::ScopedTransportEnv park;
  graph::EdgeList e;
  e.add(0, 1);
  const auto opts = session_opts(1, core::StreamingPlan::fast());
  Session session(GraphSource::from_edges(e, 2), opts);
  session.close();
  session.close();  // idempotent
  EXPECT_THROW((void)session.apply(EdgeDelta{}), std::logic_error);
}

}  // namespace
}  // namespace plv
