#include "graph/partition.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace plv::graph {
namespace {

struct Case {
  vid_t grown_from;  // vertex count the partition grew from; 0 = none
  vid_t n;
  int nranks;
};

class PartitionTest : public ::testing::TestWithParam<Case> {};

TEST_P(PartitionTest, OwnersAreInRange) {
  const auto [grown_from, n, nranks] = GetParam();
  Partition1D part(n, nranks);
  for (vid_t v = 0; v < n; ++v) {
    const int owner = part.owner(v);
    EXPECT_GE(owner, 0);
    EXPECT_LT(owner, nranks);
  }
}

TEST_P(PartitionTest, LocalCountsSumToN) {
  const auto [grown_from, n, nranks] = GetParam();
  Partition1D part(n, nranks);
  vid_t total = 0;
  for (int r = 0; r < nranks; ++r) total += part.local_count(r);
  EXPECT_EQ(total, n);
}

TEST_P(PartitionTest, LocalCountsMatchOwnership) {
  const auto [grown_from, n, nranks] = GetParam();
  Partition1D part(n, nranks);
  std::vector<vid_t> counts(static_cast<std::size_t>(nranks), 0);
  for (vid_t v = 0; v < n; ++v) ++counts[static_cast<std::size_t>(part.owner(v))];
  for (int r = 0; r < nranks; ++r) EXPECT_EQ(counts[static_cast<std::size_t>(r)],
                                             part.local_count(r));
}

TEST_P(PartitionTest, GlobalLocalRoundTrip) {
  const auto [grown_from, n, nranks] = GetParam();
  Partition1D part(n, nranks);
  for (vid_t v = 0; v < n; ++v) {
    const int owner = part.owner(v);
    const vid_t local = part.to_local(v);
    EXPECT_LT(local, part.local_count(owner));
    EXPECT_EQ(part.to_global(owner, local), v);
  }
}

TEST_P(PartitionTest, LoadIsBalancedWithinOne) {
  const auto [grown_from, n, nranks] = GetParam();
  Partition1D part(n, nranks);
  vid_t lo = n, hi = 0;
  for (int r = 0; r < nranks; ++r) {
    lo = std::min(lo, part.local_count(r));
    hi = std::max(hi, part.local_count(r));
  }
  EXPECT_LE(hi - lo, 1u);
}

// A Session's incremental apply keeps every rank's level-0 state across a
// batch that adds vertices, so growth must not move an existing vertex.
TEST_P(PartitionTest, GrowthKeepsEveryVertexInPlace) {
  const auto [grown_from, n, nranks] = GetParam();
  Partition1D before(grown_from, nranks);
  Partition1D after(n, nranks);
  for (vid_t v = 0; v < grown_from; ++v) {
    EXPECT_EQ(after.owner(v), before.owner(v));
    EXPECT_EQ(after.to_local(v), before.to_local(v));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PartitionTest,
    ::testing::Values(Case{0, 100, 1}, Case{0, 100, 4}, Case{0, 101, 4}, Case{0, 7, 8},
                      Case{50, 101, 4}, Case{3, 1024, 3}),
    [](const auto& info) {
      const auto& c = info.param;
      std::string name = "cyclic_n" + std::to_string(c.n) + "_r" + std::to_string(c.nranks);
      if (c.grown_from != 0) name += "_from" + std::to_string(c.grown_from);
      return name;
    });

TEST(Partition, CyclicIsModulo) {
  Partition1D part(100, 4);
  for (vid_t v = 0; v < 100; ++v) EXPECT_EQ(part.owner(v), static_cast<int>(v % 4));
}

}  // namespace
}  // namespace plv::graph
