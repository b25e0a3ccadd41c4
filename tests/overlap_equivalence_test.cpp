// Refine-pipeline goldens. The overlapped refine pipeline (streaming
// exchanges, fused stay-score scan, piggybacked move tally, merged
// reductions) used to be checked against a phased twin — blocking
// collectives, separate reductions — that executed the same arithmetic in
// the same order. The goldens below were recorded while both pipelines
// still existed, and both produced them bit for bit; the phased path is
// gone, so its answer survives here as data. Any change to the labels, the
// modularity, the per-iteration trace or the communication volume of
// these runs is a change to the engine's arithmetic or its wire
// protocol, on whichever transport carries it.
//
// Re-recorded since: each level's trace.modularity hash in kCold, and
// records_sent in both cases (437973 → 406582 cold, 40591 → 40429 warm).
// Q is now S/2m − γ·T/(2m)² from two global sums, so its last bits moved,
// and the per-iteration Σin exchange is gone with its records. Labels,
// iterations, gain cutoffs, propagation records and collectives did not
// move.
//
// Input: LFR n=2000 mu=0.3 seed 23 on 4 ranks. Cases: a cold start and a
// warm start seeded from the cold run's labels, each on every transport.
// Label and trace vectors are pinned by FNV-1a hashes of their bit
// patterns; a mismatch prints the observed golden in source form.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/louvain.hpp"
#include "core/louvain_par.hpp"
#include "gen/lfr.hpp"
#include "golden_hash.hpp"
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
// trace.prop_records}. Where the Out_Table rebuilds fall changes only the
// propagation volume (trace.prop_records and records_sent).
const Golden kCold{0x1.111d6ffb5f1fcp-1, 0x835473f2500c8cefULL, {
  {0x71af80c3f0d2d667ULL, 59, 0x10636894d49180e4ULL, 0x5a3ce1e89355b802ULL, 0xb6682d761e10b678ULL},
  {0x14817b52eddd1d8cULL, 16, 0x4d32bb0987e23edbULL, 0x03bd9a3956dbd121ULL, 0x0513e29b050be57cULL}},
  406582, 992};
const Golden kWarm{0x1.126d38ec12cdep-1, 0x0d920ca36c448549ULL, {
  {0x0d920ca36c448549ULL, 3, 0x126faf72be91a464ULL, 0x820830d7006998f8ULL, 0xd5238384793e82bdULL}},
  40429, 116};

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

INSTANTIATE_TEST_SUITE_P(Transports, OverlapEquivalence,
                         ::testing::ValuesIn(pml::kAllTransports),
                         [](const auto& info) {
                           return pml::transport_test_name(info.param);
                         });

}  // namespace
}  // namespace plv
