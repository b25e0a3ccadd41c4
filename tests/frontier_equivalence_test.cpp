// One-shot runs never restrict FIND.
//
// The engine's one restricted refine is a Session's frontier
// (RankEngine::enable_frontier, level 0 of an incremental apply). Cold,
// warm and streamed plv::louvain runs must run the join search for every
// vertex, in every iteration of every level, on every transport. This is
// pinned through trace.scanned_vertices, so a change that restricts FIND
// outside a Session cannot pass unnoticed. The Session frontier's own
// bit-level pin is SessionTransports.FastPlanFrontierMatchesGoldenEveryEpoch
// (session_test.cpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

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

/// scanned_vertices[i] == num_vertices for every iteration of every level.
void expect_full_scans(const Result& r, const char* what) {
  ASSERT_FALSE(r.levels.empty()) << what;
  for (std::size_t l = 0; l < r.num_levels(); ++l) {
    ASSERT_FALSE(r.levels[l].trace.scanned_vertices.empty()) << what << " level " << l;
    for (const std::uint64_t scanned : r.levels[l].trace.scanned_vertices) {
      EXPECT_EQ(scanned, static_cast<std::uint64_t>(r.levels[l].num_vertices))
          << what << " level " << l;
    }
  }
}

TEST_P(FrontierEquivalence, OneShotRunsNeverRestrictFind) {
  core::ParOptions opts;
  opts.nranks = kRanks;
  opts.transport = GetParam();
  const auto cold = louvain(GraphSource::from_edges(lfr_input()), opts);
  expect_full_scans(cold, "cold");
  expect_full_scans(
      louvain(GraphSource::from_edges_warm(lfr_input(), cold.final_labels), opts), "warm");
  expect_full_scans(louvain(GraphSource::from_stream(round_robin(lfr_input()), 2000), opts),
                    "streamed");
}

INSTANTIATE_TEST_SUITE_P(Transports, FrontierEquivalence,
                         ::testing::ValuesIn(pml::kAllTransports),
                         [](const auto& info) {
                           return pml::transport_test_name(info.param);
                         });

}  // namespace
}  // namespace plv
