// Refine-pipeline goldens. The overlapped refine pipeline (streaming
// exchanges, fused Σin scan, piggybacked move tally, merged reductions)
// used to be checked against a phased twin — blocking collectives,
// separate reductions — that executed the same arithmetic in the same
// order. The goldens below were recorded while both pipelines still
// existed, and both produced them bit for bit; the phased path is gone,
// so its answer survives here as data. Any change to the labels, the
// modularity, the per-iteration trace or the communication volume of
// these runs is a change to the engine's arithmetic or its wire
// protocol, on whichever transport carries it.
//
// Input: LFR n=2000 mu=0.3 seed 23 on 4 ranks. Cases: a cold start, a
// warm start seeded from the cold run's labels, and the two rebuild
// cadence extremes (always rebuild / deltas only), each on every
// transport. Label and trace vectors are pinned by FNV-1a hashes of their
// bit patterns; a mismatch prints the observed golden in source form.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include "common/louvain.hpp"
#include "core/louvain_par.hpp"
#include "gen/lfr.hpp"
#include "transport_param.hpp"

namespace plv {
namespace {

class OverlapEquivalence : public ::testing::TestWithParam<pml::TransportKind> {
 protected:
  void SetUp() override { PLV_SKIP_IF_UNSUPPORTED(GetParam()); }

 private:
  pml::ScopedTransportEnv park_env_;
};

const graph::EdgeList& lfr_input() {
  static const auto g = gen::lfr({.n = 2000, .mu = 0.3, .seed = 23});
  return g.edges;
}

core::ParOptions opts_for(pml::TransportKind kind) {
  core::ParOptions opts;
  opts.nranks = 4;
  opts.transport = kind;
  return opts;
}

/// FNV-1a over the 64-bit images of `values`.
template <typename T>
std::uint64_t fnv1a(const std::vector<T>& values) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const T& v : values) {
    std::uint64_t bits = 0;
    if constexpr (std::is_same_v<T, double>) {
      bits = std::bit_cast<std::uint64_t>(v);
    } else {
      bits = static_cast<std::uint64_t>(v);
    }
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

struct LevelGolden {
  std::uint64_t labels;
  std::size_t iterations;
  std::uint64_t trace_modularity;
  std::uint64_t trace_gain_cutoff;
  std::uint64_t trace_prop_records;
  bool operator==(const LevelGolden&) const = default;
};

struct Golden {
  double final_modularity;
  std::uint64_t final_labels;
  std::vector<LevelGolden> levels;
  std::uint64_t records_sent;
  std::uint64_t collectives;
  bool operator==(const Golden&) const = default;
};

Golden observe(const Result& r) {
  Golden g{r.final_modularity, fnv1a(r.final_labels), {}, r.traffic.records_sent,
           r.traffic.collectives};
  for (const LouvainLevel& level : r.levels) {
    g.levels.push_back(LevelGolden{fnv1a(level.labels), level.trace.modularity.size(),
                                   fnv1a(level.trace.modularity),
                                   fnv1a(level.trace.gain_cutoff),
                                   fnv1a(level.trace.prop_records)});
  }
  return g;
}

std::string to_source(const Golden& g) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "{%a, 0x%016llxULL, {", g.final_modularity,
                static_cast<unsigned long long>(g.final_labels));
  std::string out = buf;
  for (const LevelGolden& l : g.levels) {
    std::snprintf(buf, sizeof(buf), "\n  {0x%016llxULL, %zu, 0x%016llxULL, ",
                  static_cast<unsigned long long>(l.labels), l.iterations,
                  static_cast<unsigned long long>(l.trace_modularity));
    out += buf;
    std::snprintf(buf, sizeof(buf), "0x%016llxULL, 0x%016llxULL},",
                  static_cast<unsigned long long>(l.trace_gain_cutoff),
                  static_cast<unsigned long long>(l.trace_prop_records));
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "}, %llu, %llu}",
                static_cast<unsigned long long>(g.records_sent),
                static_cast<unsigned long long>(g.collectives));
  return out + buf;
}

void expect_golden(const Result& r, const Golden& expected, const char* what) {
  const Golden actual = observe(r);
  EXPECT_EQ(actual.final_modularity, expected.final_modularity) << what;
  EXPECT_EQ(actual.final_labels, expected.final_labels) << what;
  EXPECT_EQ(actual.levels, expected.levels) << what;
  EXPECT_EQ(actual.records_sent, expected.records_sent) << what;
  EXPECT_EQ(actual.collectives, expected.collectives) << what;
  if (actual != expected) ADD_FAILURE() << what << " observed " << to_source(actual);
}

// Level entries: {labels, iterations, trace.modularity, trace.gain_cutoff,
// trace.prop_records}. The cadence changes only the propagation volume.
const Golden kCold{0x1.1151fa41668eep-1, 0x06bc4175b5fe7183ULL, {
  {0x117797b4f63f7073ULL, 64, 0xb42874f7e47b5275ULL, 0xbd6bfcc8329e321eULL, 0x55f4b1a7aa094597ULL},
  {0x29d208e470549f08ULL, 14, 0x010c9e0867100758ULL, 0x11bedeecc8792472ULL, 0x9bc627b5352221d5ULL}},
  466878, 1032};
const Golden kWarm{0x1.126d38ec12cdep-1, 0x4ed3d38afbd8aba2ULL, {
  {0x4ed3d38afbd8aba2ULL, 2, 0x47b45efbd14dd725ULL, 0x85ca50b95f03c1d8ULL, 0x31b8b7ed6772821bULL}},
  40397, 104};
const Golden kRebuildEveryIteration{0x1.1151fa41668eep-1, 0x06bc4175b5fe7183ULL, {
  {0x117797b4f63f7073ULL, 64, 0xb42874f7e47b5275ULL, 0xbd6bfcc8329e321eULL, 0xc862f84df76847a5ULL},
  {0x29d208e470549f08ULL, 14, 0x010c9e0867100758ULL, 0x11bedeecc8792472ULL, 0x6dcc638c3aa8c315ULL}},
  2163308, 1032};
const Golden kNeverRebuild{0x1.1151fa41668eep-1, 0x06bc4175b5fe7183ULL, {
  {0x117797b4f63f7073ULL, 64, 0xb42874f7e47b5275ULL, 0xbd6bfcc8329e321eULL, 0x3bb4965847b0adcfULL},
  {0x29d208e470549f08ULL, 14, 0x010c9e0867100758ULL, 0x11bedeecc8792472ULL, 0x9bc627b5352221d5ULL}},
  438307, 1032};

TEST_P(OverlapEquivalence, ColdStartIsBitIdentical) {
  const auto r = louvain(GraphSource::from_edges(lfr_input()), opts_for(GetParam()));
  expect_golden(r, kCold, "cold");
}

TEST_P(OverlapEquivalence, WarmStartIsBitIdentical) {
  const auto opts = opts_for(GetParam());
  const auto seed_run = louvain(GraphSource::from_edges(lfr_input()), opts);
  const auto r =
      louvain(GraphSource::from_edges_warm(lfr_input(), seed_run.final_labels), opts);
  expect_golden(r, kWarm, "warm");
}

// The carried Σin and the piggybacked move tally interact with both the
// always-rebuild and the never-rebuild Out_Table cadence.
TEST_P(OverlapEquivalence, RebuildCadenceExtremesAreBitIdentical) {
  auto opts = opts_for(GetParam());
  opts.refine.full_rebuild_every = core::kRebuildEveryIteration;
  expect_golden(louvain(GraphSource::from_edges(lfr_input()), opts),
                kRebuildEveryIteration, "kRebuildEveryIteration");
  opts.refine.full_rebuild_every = core::kNeverRebuild;
  expect_golden(louvain(GraphSource::from_edges(lfr_input()), opts), kNeverRebuild,
                "kNeverRebuild");
}

INSTANTIATE_TEST_SUITE_P(Transports, OverlapEquivalence,
                         ::testing::ValuesIn(pml::kAllTransports),
                         [](const auto& info) {
                           return pml::transport_test_name(info.param);
                         });

}  // namespace
}  // namespace plv
