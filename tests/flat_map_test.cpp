// Unit tests for FlatMap, the open-addressing scratch map behind the
// inner loop's hot-path state (Σtot cache, Σin pre-aggregation, community
// bookkeeping, reference counts).
#include "common/flat_map.hpp"

#include <gtest/gtest.h>

#include <unordered_map>

#include "common/random.hpp"

namespace plv {
namespace {

TEST(FlatMap, RefDefaultConstructsOnFirstAccess) {
  FlatMap<double> m;
  EXPECT_TRUE(m.empty());
  EXPECT_DOUBLE_EQ(m.ref(7), 0.0);
  m.ref(7) += 2.5;
  EXPECT_EQ(m.size(), 1u);
  ASSERT_NE(m.find(7), nullptr);
  EXPECT_DOUBLE_EQ(*m.find(7), 2.5);
  EXPECT_EQ(m.find(8), nullptr);
}

TEST(FlatMap, FindOnEmptyMapIsNull) {
  FlatMap<int> m;
  EXPECT_EQ(m.find(0), nullptr);
  EXPECT_FALSE(m.contains(123));
}

TEST(FlatMap, ClearKeepsCapacity) {
  FlatMap<int> m(100);
  const std::size_t cap = m.capacity();
  for (vid_t k = 1; k <= 100; ++k) m.ref(k) = 1;
  m.clear();
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.capacity(), cap);
  EXPECT_FALSE(m.contains(50));
}

// reset(expected): empty, capacity exactly what `expected` needs whatever
// the map held before, cleared in place when it already has that size.
TEST(FlatMapReset, ShrinksToWhatExpectedNeeds) {
  FlatMap<int> m(50000);
  for (vid_t k = 1; k <= 40000; ++k) m.ref(k) = 1;
  const std::size_t big = m.capacity();
  m.reset(100);
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.capacity(), FlatMap<int>(100).capacity());
  EXPECT_LT(m.capacity(), big);
  EXPECT_FALSE(m.contains(7));
  m.reset(0);
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.capacity(), 0u);
  EXPECT_EQ(m.find(7), nullptr);
}

TEST(FlatMapReset, GrowsAndReusesAFittingCapacityInPlace) {
  FlatMap<int> m(10);
  m.reset(3000);
  EXPECT_EQ(m.capacity(), FlatMap<int>(3000).capacity());
  for (vid_t k = 1; k <= 3000; ++k) m.ref(k) = 1;
  const std::size_t cap = m.capacity();
  m.reset(3000);
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.capacity(), cap);
  for (vid_t k = 1; k <= 3000; ++k) ASSERT_FALSE(m.contains(k)) << k;
}

TEST(FlatMapReset, InsertEraseAndGrowStillWork) {
  FlatMap<int> m(1 << 15);
  for (vid_t k = 1; k <= 1000; ++k) m.ref(k) = 1;
  const std::size_t expected = 200;
  m.reset(expected);
  const std::size_t cap = m.capacity();
  std::unordered_map<vid_t, int> ref;
  Xoshiro256 rng(77);
  // Up to `expected` distinct keys: no growth, load within 1/2.
  for (int i = 0; i < 3000; ++i) {
    const auto key = static_cast<vid_t>(1 + rng.next_below(expected));
    m.ref(key) += 1;
    ref[key] += 1;
  }
  EXPECT_EQ(m.capacity(), cap);
  EXPECT_LE(2 * m.size(), m.capacity());
  // Past `expected`: the map grows and keeps the load bound.
  for (vid_t key = 5000; key < 6000; ++key) {
    m.ref(key) = 9;
    ref[key] = 9;
    ASSERT_LE(2 * m.size(), m.capacity()) << key;
  }
  EXPECT_GT(m.capacity(), cap);
  EXPECT_EQ(m.size(), ref.size());
  for (const auto& [key, v] : ref) {
    ASSERT_NE(m.find(key), nullptr) << key;
    EXPECT_EQ(*m.find(key), v);
  }
}

TEST(FlatMap, ForEachVisitsEveryEntryOnce) {
  FlatMap<int> m;
  int expected_sum = 0;
  for (vid_t k = 10; k < 200; k += 7) {
    m.ref(k) = static_cast<int>(k);
    expected_sum += static_cast<int>(k);
  }
  int sum = 0;
  std::size_t visits = 0;
  m.for_each([&](vid_t k, int& v) {
    EXPECT_EQ(static_cast<int>(k), v);
    sum += v;
    ++visits;
  });
  EXPECT_EQ(visits, m.size());
  EXPECT_EQ(sum, expected_sum);
}

TEST(FlatMap, GrowsFromEmptyAndPreservesContents) {
  FlatMap<vid_t> m;  // no reserve: every growth path exercised
  for (vid_t k = 0; k < 10000; ++k) m.ref(k * 7 + 1) = k;
  EXPECT_EQ(m.size(), 10000u);
  for (vid_t k = 0; k < 10000; ++k) {
    ASSERT_NE(m.find(k * 7 + 1), nullptr) << k;
    EXPECT_EQ(*m.find(k * 7 + 1), k);
  }
}

TEST(FlatMap, MatchesReferenceMapUnderRandomChurn) {
  FlatMap<int> m;
  std::unordered_map<vid_t, int> ref;
  Xoshiro256 rng(99);
  for (int i = 0; i < 50000; ++i) {
    const vid_t key = static_cast<vid_t>(rng.next_below(500));
    if (rng.next_below(2) == 0) {
      m.ref(key) += 1;
      ref[key] += 1;
    } else {
      const int* found = m.find(key);
      const auto it = ref.find(key);
      if (it == ref.end()) {
        EXPECT_EQ(found, nullptr);
      } else {
        ASSERT_NE(found, nullptr);
        EXPECT_EQ(*found, it->second);
      }
    }
  }
  EXPECT_EQ(m.size(), ref.size());
  m.for_each([&](vid_t k, int& v) {
    auto it = ref.find(k);
    ASSERT_NE(it, ref.end()) << k;
    EXPECT_EQ(it->second, v);
  });
}

}  // namespace
}  // namespace plv
