#include "hashing/edge_table.hpp"

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "common/random.hpp"

namespace plv::hashing {
namespace {

TEST(EdgeTable, InsertAndFind) {
  EdgeTable t;
  EXPECT_TRUE(t.insert_or_add(pack_key(1, 2), 3.0));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_DOUBLE_EQ(t.find(pack_key(1, 2)).value(), 3.0);
  EXPECT_FALSE(t.find(pack_key(2, 1)).has_value());
}

TEST(EdgeTable, InsertOrAddAccumulates) {
  EdgeTable t;
  EXPECT_TRUE(t.insert_or_add(pack_key(7, 9), 1.5));
  EXPECT_FALSE(t.insert_or_add(pack_key(7, 9), 2.5));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_DOUBLE_EQ(t.find(pack_key(7, 9)).value(), 4.0);
}

TEST(EdgeTable, EmptyTableFindsNothing) {
  EdgeTable t;
  EXPECT_TRUE(t.empty());
  EXPECT_FALSE(t.find(42).has_value());
  EXPECT_FALSE(t.contains(42));
}

TEST(EdgeTable, ClearKeepsCapacity) {
  EdgeTable t(100);
  const auto cap = t.capacity();
  for (std::uint64_t i = 0; i < 100; ++i) t.insert_or_add(i, 1.0);
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.capacity(), cap);
  EXPECT_FALSE(t.contains(5));
}

TEST(EdgeTable, GrowsBeyondInitialReserve) {
  EdgeTable t(4);
  for (std::uint64_t i = 0; i < 10000; ++i) t.insert_or_add(i * 7 + 1, 1.0);
  EXPECT_EQ(t.size(), 10000u);
  for (std::uint64_t i = 0; i < 10000; ++i) {
    ASSERT_TRUE(t.contains(i * 7 + 1)) << i;
  }
}

TEST(EdgeTable, RespectsConfiguredLoadFactor) {
  EdgeTable t(0, 0.125);
  for (std::uint64_t i = 1; i <= 1000; ++i) t.insert_or_add(i, 1.0);
  EXPECT_LE(t.load_factor(), 0.125 + 1e-9);
}

TEST(EdgeTable, TotalWeightSumsEverything) {
  EdgeTable t;
  t.insert_or_add(1, 1.0);
  t.insert_or_add(2, 2.0);
  t.insert_or_add(1, 3.0);
  EXPECT_DOUBLE_EQ(t.total_weight(), 6.0);
}

TEST(EdgeTable, ForEachVisitsAllEntriesOnce) {
  EdgeTable t;
  std::map<std::uint64_t, weight_t> expected;
  Xoshiro256 rng(17);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t key = rng.next_below(2000);  // force duplicates
    expected[key] += 1.0;
    t.insert_or_add(key, 1.0);
  }
  std::map<std::uint64_t, weight_t> seen;
  t.for_each([&](std::uint64_t key, weight_t w) { seen[key] += w; });
  EXPECT_EQ(seen, expected);
}

TEST(EdgeTable, MatchesReferenceMapUnderRandomWorkload) {
  EdgeTable t;
  std::map<std::uint64_t, weight_t> ref;
  Xoshiro256 rng(23);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t key = pack_key(static_cast<vid_t>(rng.next_below(300)),
                                       static_cast<vid_t>(rng.next_below(300)));
    const weight_t w = static_cast<weight_t>(rng.next_below(10)) + 0.5;
    t.insert_or_add(key, w);
    ref[key] += w;
  }
  EXPECT_EQ(t.size(), ref.size());
  for (const auto& [key, w] : ref) {
    ASSERT_TRUE(t.find(key).has_value());
    EXPECT_DOUBLE_EQ(t.find(key).value(), w);
  }
}

// reset(expected): empty, capacity exactly what `expected` needs whatever
// the table held before, cleared in place when it already has that size.
TEST(EdgeTableReset, ShrinksToWhatExpectedNeeds) {
  EdgeTable t(100000);
  for (std::uint64_t i = 1; i <= 50000; ++i) t.insert_or_add(i, 1.0);
  const std::size_t big = t.capacity();
  t.reset(100);
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.capacity(), EdgeTable(100).capacity());
  EXPECT_LT(t.capacity(), big);
  EXPECT_FALSE(t.contains(7));
  t.reset(0);
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.capacity(), 0u);
  EXPECT_FALSE(t.contains(7));
}

TEST(EdgeTableReset, GrowsAndReusesAFittingCapacityInPlace) {
  EdgeTable t(10);
  t.reset(5000);
  EXPECT_EQ(t.capacity(), EdgeTable(5000).capacity());
  for (std::uint64_t i = 1; i <= 5000; ++i) t.insert_or_add(i, 1.0);
  const std::size_t cap = t.capacity();
  t.reset(5000);
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.capacity(), cap);
  for (std::uint64_t i = 1; i <= 5000; ++i) ASSERT_FALSE(t.contains(i)) << i;
}

// Capacity, hence layout and scan order, depends on `expected` alone: two
// tables with different histories scan the same inserts identically.
TEST(EdgeTableReset, ScanOrderIgnoresHistory) {
  EdgeTable grown(0, 0.25);
  for (std::uint64_t i = 1; i <= 40000; ++i) grown.insert_or_add(i * 3, 1.0);
  EdgeTable fresh(0, 0.25);
  grown.reset(700);
  fresh.reset(700);
  ASSERT_EQ(grown.capacity(), fresh.capacity());
  Xoshiro256 rng(5);
  for (int i = 0; i < 700; ++i) {
    const std::uint64_t key = pack_key(static_cast<vid_t>(rng.next_below(90)),
                                       static_cast<vid_t>(rng.next_below(90)));
    grown.insert_or_add(key, 1.0);
    fresh.insert_or_add(key, 1.0);
  }
  std::vector<std::uint64_t> a;
  std::vector<std::uint64_t> b;
  grown.for_each([&](std::uint64_t key, weight_t) { a.push_back(key); });
  fresh.for_each([&](std::uint64_t key, weight_t) { b.push_back(key); });
  EXPECT_EQ(a, b);
}

TEST(EdgeTableReset, InsertRetractAndGrowStillWork) {
  for (const double max_load : {0.25, 0.5}) {
    EdgeTable t(1 << 16, max_load);
    for (std::uint64_t i = 1; i <= 1000; ++i) t.insert_or_add(i, 1.0);
    const std::size_t expected = 300;
    t.reset(expected);
    const std::size_t cap = t.capacity();
    std::map<std::uint64_t, std::pair<weight_t, int>> ref;  // weight, contributions
    Xoshiro256 rng(41);
    // Up to `expected` distinct keys: no growth, load within max_load.
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t key = 1 + rng.next_below(expected);
      t.insert_or_add(key, 2.0);
      ref[key].first += 2.0;
      ++ref[key].second;
    }
    EXPECT_EQ(t.capacity(), cap);
    EXPECT_LE(t.load_factor(), max_load);
    // Retract every contribution of every third key: backward-shift erase.
    for (auto& [key, wc] : ref) {
      if (key % 3 != 0) continue;
      while (wc.second > 0) {
        t.retract(key, 2.0);
        wc.first -= 2.0;
        --wc.second;
      }
    }
    // Past `expected`: the table grows and keeps the load bound.
    for (std::uint64_t key = 10000; key < 12000; ++key) {
      t.insert_or_add(key, 1.0);
      ref[key] = {1.0, 1};
      ASSERT_LE(t.load_factor(), max_load) << key;
    }
    EXPECT_GT(t.capacity(), cap);
    std::size_t live = 0;
    for (const auto& [key, wc] : ref) {
      if (wc.second == 0) {
        EXPECT_FALSE(t.contains(key)) << key;
        continue;
      }
      ++live;
      ASSERT_TRUE(t.find(key).has_value()) << key;
      EXPECT_DOUBLE_EQ(t.find(key).value(), wc.first);
      EXPECT_EQ(t.contributions(key), static_cast<std::uint32_t>(wc.second));
    }
    EXPECT_EQ(t.size(), live);
  }
}

TEST(EdgeTableRetract, RoundTripsOneContribution) {
  EdgeTable t;
  t.insert_or_add(pack_key(3, 4), 2.5);
  EXPECT_EQ(t.contributions(pack_key(3, 4)), 1u);
  EXPECT_TRUE(t.retract(pack_key(3, 4), 2.5));  // last contribution ⇒ erased
  EXPECT_EQ(t.size(), 0u);
  EXPECT_FALSE(t.contains(pack_key(3, 4)));
  EXPECT_EQ(t.contributions(pack_key(3, 4)), 0u);
}

TEST(EdgeTableRetract, ErasesOnZeroContributionsNotZeroWeight) {
  EdgeTable t;
  // Irrational-ish weights that leave floating-point dust when subtracted.
  t.insert_or_add(pack_key(1, 2), 0.1);
  t.insert_or_add(pack_key(1, 2), 0.2);
  EXPECT_EQ(t.contributions(pack_key(1, 2)), 2u);
  EXPECT_FALSE(t.retract(pack_key(1, 2), 0.2));  // one contribution left
  EXPECT_TRUE(t.contains(pack_key(1, 2)));
  // 0.1 + 0.2 - 0.2 != 0.1 exactly, but the entry survives on count alone.
  EXPECT_NEAR(t.find(pack_key(1, 2)).value(), 0.1, 1e-15);
  EXPECT_TRUE(t.retract(pack_key(1, 2), 0.1));  // count 0 ⇒ erased despite dust
  EXPECT_TRUE(t.empty());
}

TEST(EdgeTableRetract, BackwardShiftKeepsProbeChainsReachable) {
  // kConcatenated hashes key → key & mask, so keys ≡ mod 16 collide and
  // chains near slot 15 wrap to slot 0 — the hardest case for
  // tombstone-free deletion. The first insert grows the table to 16 slots.
  EdgeTable t(0, 0.9, HashKind::kConcatenated);
  const std::uint64_t keys[] = {14, 30, 46, 15, 31, 47};  // homes 14,14,14,15,15,15
  for (std::uint64_t k : keys) t.insert_or_add(k, static_cast<weight_t>(k));
  ASSERT_EQ(t.capacity(), 16u);
  // Deleting from the middle of the wrapped chain must backward-shift the
  // displaced tail (46, 15, 31, 47 sit in slots 0..3) into the hole.
  EXPECT_TRUE(t.retract(30, 30.0));
  for (std::uint64_t k : keys) {
    if (k == 30) {
      EXPECT_FALSE(t.contains(k));
    } else {
      ASSERT_TRUE(t.contains(k)) << k;
      EXPECT_DOUBLE_EQ(t.find(k).value(), static_cast<weight_t>(k));
    }
  }
  // Head deletion plus re-insertion reuses the compacted chain correctly.
  EXPECT_TRUE(t.retract(14, 14.0));
  EXPECT_TRUE(t.insert_or_add(62, 62.0));  // home 14 again
  for (std::uint64_t k : {46u, 15u, 31u, 47u, 62u}) {
    ASSERT_TRUE(t.contains(k)) << k;
  }
  EXPECT_EQ(t.size(), 5u);
}

TEST(EdgeTableRetract, RehashPreservesContributionCounts) {
  EdgeTable t(2);  // tiny: inserting below forces at least one grow/rehash
  for (int rep = 0; rep < 3; ++rep) {
    for (std::uint64_t k = 1; k <= 500; ++k) t.insert_or_add(k, 1.0);
  }
  EXPECT_EQ(t.contributions(250), 3u);
  // Two retracts must leave the entry; the third erases it.
  EXPECT_FALSE(t.retract(250, 1.0));
  EXPECT_FALSE(t.retract(250, 1.0));
  EXPECT_TRUE(t.retract(250, 1.0));
  EXPECT_FALSE(t.contains(250));
}

TEST(EdgeTableRetract, MatchesReferenceModelUnderRandomChurn) {
  EdgeTable t;
  struct Ref {
    weight_t w{0};
    std::uint32_t count{0};
  };
  std::map<std::uint64_t, Ref> ref;
  Xoshiro256 rng(41);
  for (int i = 0; i < 40000; ++i) {
    const std::uint64_t key = rng.next_below(400) + 1;
    const weight_t w = static_cast<weight_t>(rng.next_below(8)) + 1.0;
    auto it = ref.find(key);
    const bool do_retract = it != ref.end() && it->second.count > 0 && rng.next_below(2) == 0;
    if (do_retract) {
      const bool erased = t.retract(key, w);
      it->second.w -= w;
      if (--it->second.count == 0) {
        EXPECT_TRUE(erased);
        ref.erase(it);
      } else {
        EXPECT_FALSE(erased);
      }
    } else {
      t.insert_or_add(key, w);
      Ref& r = ref[key];
      r.w += w;
      ++r.count;
    }
  }
  EXPECT_EQ(t.size(), ref.size());
  for (const auto& [key, r] : ref) {
    ASSERT_TRUE(t.contains(key)) << key;
    EXPECT_EQ(t.contributions(key), r.count);
    EXPECT_NEAR(t.find(key).value(), r.w, 1e-9);
  }
}

class EdgeTableHashParam : public ::testing::TestWithParam<HashKind> {};

TEST_P(EdgeTableHashParam, CorrectUnderEveryHashFunction) {
  EdgeTable t(0, 0.25, GetParam());
  for (std::uint64_t i = 0; i < 4096; ++i) t.insert_or_add(i, 2.0);
  EXPECT_EQ(t.size(), 4096u);
  for (std::uint64_t i = 0; i < 4096; ++i) ASSERT_TRUE(t.contains(i));
  EXPECT_DOUBLE_EQ(t.total_weight(), 8192.0);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, EdgeTableHashParam,
                         ::testing::Values(HashKind::kFibonacci,
                                           HashKind::kLinearCongruential,
                                           HashKind::kBitwise,
                                           HashKind::kConcatenated),
                         [](const auto& info) {
                           return std::string(hash_kind_name(info.param));
                         });

TEST(EdgeTableStats, ProbeLengthsReflectOccupancy) {
  EdgeTable t(1000, 0.25);
  for (std::uint64_t i = 0; i < 1000; ++i) t.insert_or_add(mix64(i), 1.0);
  const TableStats st = t.stats();
  EXPECT_EQ(st.entries, 1000u);
  EXPECT_GE(st.avg_probe_length, 1.0);
  EXPECT_GE(st.max_probe_length, 1u);
  EXPECT_LT(st.avg_probe_length, 2.0);  // 1/4 load ⇒ short chains
}

TEST(EdgeTableStats, EmptyTableStats) {
  EdgeTable t;
  const TableStats st = t.stats();
  EXPECT_EQ(st.entries, 0u);
  EXPECT_DOUBLE_EQ(st.avg_probe_length, 0.0);
}

TEST(EdgeTableStats, LowerLoadFactorShortensProbes) {
  EdgeTable dense(1 << 12, 0.9);
  EdgeTable sparse(1 << 12, 0.125);
  for (std::uint64_t i = 0; i < (1 << 12); ++i) {
    dense.insert_or_add(mix64(i) | 1, 1.0);
    sparse.insert_or_add(mix64(i) | 1, 1.0);
  }
  EXPECT_LE(sparse.stats().avg_probe_length, dense.stats().avg_probe_length);
}

}  // namespace
}  // namespace plv::hashing
