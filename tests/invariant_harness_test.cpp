// Invariant harness: properties every parallel run must satisfy, checked
// over seeded small graphs rather than pinned outputs. Inputs are LFR and
// R-MAT graphs (R-MAT keeps its self-loops) reweighted three ways —
// integer weights, tenths, and multiples of √2 — so both exact and
// rounding arithmetic are covered. Each runs on every transport under
// the default plan, RefinePlan::heuristics() and
// RefinePlan::deterministic(), and must satisfy:
//
//   * the reported modularity equals metrics::modularity recomputed from
//     the final labels on the input graph (within 1e-9);
//   * every label of every level, and every final label, is below the
//     community count of its level;
//   * composing the level partitions (labels_at_level of the last level)
//     gives exactly the final labels.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/louvain.hpp"
#include "common/random.hpp"
#include "core/options.hpp"
#include "gen/lfr.hpp"
#include "gen/rmat.hpp"
#include "graph/csr.hpp"
#include "metrics/modularity.hpp"
#include "transport_param.hpp"

namespace plv {
namespace {

enum class Weights { kInteger, kTenths, kSqrt2 };

struct Input {
  std::string name;
  graph::EdgeList edges;
  vid_t n;
};

graph::EdgeList reweighted(const graph::EdgeList& base, Weights kind, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  graph::EdgeList out;
  out.reserve(base.size());
  for (const Edge& e : base) {
    const auto step = static_cast<double>(1 + rng.next_below(5));
    const double w = kind == Weights::kInteger  ? step
                     : kind == Weights::kTenths ? step / 10.0
                                                : step * std::sqrt(2.0);
    out.add(e.u, e.v, w);
  }
  return out;
}

const std::vector<Input>& inputs() {
  static const std::vector<Input> all = [] {
    const graph::EdgeList lfr =
        gen::lfr({.n = 400, .k_min = 6, .k_max = 30, .c_min = 20, .c_max = 80, .mu = 0.3,
                  .seed = 41})
            .edges;
    const graph::EdgeList rmat = gen::rmat({.scale = 8, .edge_factor = 8, .seed = 43});
    std::vector<Input> v;
    const std::pair<Weights, const char*> kinds[] = {
        {Weights::kInteger, "integer"}, {Weights::kTenths, "tenths"}, {Weights::kSqrt2, "sqrt2"}};
    for (const auto& [kind, label] : kinds) {
      v.push_back({std::string("lfr400/") + label, reweighted(lfr, kind, 44), 400});
      v.push_back({std::string("rmat8/") + label, reweighted(rmat, kind, 45), 256});
    }
    return v;
  }();
  return all;
}

class InvariantHarness : public ::testing::TestWithParam<pml::TransportKind> {
 protected:
  void SetUp() override { PLV_SKIP_IF_UNSUPPORTED(GetParam()); }

 private:
  pml::ScopedTransportEnv park_env_;
};

void expect_invariants(const Result& r, const Input& in) {
  const auto csr = graph::Csr::from_edges(in.edges, in.n);
  EXPECT_NEAR(r.final_modularity, metrics::modularity(csr, r.final_labels), 1e-9);
  ASSERT_FALSE(r.levels.empty());
  ASSERT_EQ(r.final_labels.size(), static_cast<std::size_t>(in.n));
  for (std::size_t l = 0; l < r.num_levels(); ++l) {
    const LouvainLevel& level = r.levels[l];
    for (vid_t c : level.labels) ASSERT_LT(c, level.num_communities) << "level " << l;
  }
  const std::size_t top = r.levels.back().num_communities;
  for (vid_t c : r.final_labels) ASSERT_LT(c, top);
  EXPECT_EQ(r.labels_at_level(r.num_levels() - 1), r.final_labels);
}

TEST_P(InvariantHarness, ReportedModularityAndLabelsAreConsistent) {
  const std::pair<const char*, core::RefinePlan> plans[] = {
      {"default", core::RefinePlan{}},
      {"heuristics", core::RefinePlan::heuristics()},
      {"deterministic", core::RefinePlan::deterministic()}};
  for (const Input& in : inputs()) {
    for (const auto& [plan_name, plan] : plans) {
      SCOPED_TRACE(in.name + " " + plan_name);
      core::ParOptions opts;
      opts.nranks = 3;
      opts.transport = GetParam();
      opts.refine = plan;
      expect_invariants(louvain(GraphSource::from_edges(in.edges, in.n), opts), in);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Transports, InvariantHarness, ::testing::ValuesIn(pml::kAllTransports),
                         [](const auto& info) { return pml::transport_test_name(info.param); });

}  // namespace
}  // namespace plv
