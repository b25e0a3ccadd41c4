// RowStore, the engine's Out_Table, against hashing::EdgeTable, the hash
// Out_Table it replaced. Seeded random sequences of full fills (rows with
// repeated communities, records arriving interleaved across rows), fresh
// and accumulating inserts, and retractions, on tenths and on multiples
// of √2: after every operation each row must hold exactly the table's
// (community, weight, count) entries with weights bit for bit, both must
// give the same fresh/erased verdicts, and every row must be strictly
// ascending in community.
#include "core/row_store.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/random.hpp"
#include "hashing/edge_table.hpp"

namespace plv::core {
namespace {

constexpr vid_t kCommunities = 9;  // few, so rows repeat communities

weight_t draw_weight(Xoshiro256& rng, bool root2) {
  const auto k = static_cast<double>(1 + rng.next_below(30));
  return root2 ? k * std::sqrt(2.0) : k / 10.0;
}

/// Every row holds exactly the table's entries for its key prefix,
/// strictly ascending in community.
void expect_same(const RowStore& rows, const hashing::EdgeTable& table, std::size_t nrows) {
  std::size_t live = 0;
  for (std::size_t r = 0; r < nrows; ++r) {
    const auto row = rows.row(r);
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i > 0) {
        ASSERT_LT(row[i - 1].c, row[i].c) << "row " << r;
      }
      const std::uint64_t key = pack_key(static_cast<vid_t>(r), row[i].c);
      const auto w = table.find(key);
      ASSERT_TRUE(w.has_value()) << "row " << r << " community " << row[i].c;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(row[i].w), std::bit_cast<std::uint64_t>(*w))
          << "row " << r << " community " << row[i].c;
      EXPECT_EQ(row[i].count, table.contributions(key)) << "row " << r;
    }
    live += row.size();
  }
  EXPECT_EQ(live, table.size());
  EXPECT_EQ(rows.size(), table.size());
}

struct Contribution {
  vid_t c;
  weight_t w;
};

void run_sequence(std::uint64_t seed, bool root2) {
  SCOPED_TRACE("seed " + std::to_string(seed) + (root2 ? " sqrt2" : " tenths"));
  Xoshiro256 rng(seed);
  const std::size_t nrows = 4 + rng.next_below(20);
  std::vector<std::size_t> start{0};
  // Mostly short rows, and some long enough (past 16 entries) that an
  // unstable sort would reorder equal communities.
  for (std::size_t r = 0; r < nrows; ++r) {
    start.push_back(start.back() + 1 + rng.next_below(rng.next_below(4) == 0 ? 48 : 8));
  }
  RowStore rows;
  rows.reset(start);
  hashing::EdgeTable table(0, 0.25);
  // The contributions each row holds; the engine's invariant keeps their
  // number at or below the row's capacity.
  std::vector<std::vector<Contribution>> live(nrows);

  for (int op = 0; op < 600; ++op) {
    const std::size_t r = rng.next_below(nrows);
    const std::size_t cap = start[r + 1] - start[r];
    const auto kind = rng.next_below(20);
    if (kind == 0) {
      // Full fill: every row gets exactly its capacity, arriving in one
      // interleaved stream the way a propagation drain delivers it.
      std::vector<std::pair<std::size_t, Contribution>> records;
      for (std::size_t row = 0; row < nrows; ++row) {
        live[row].clear();
        for (std::size_t i = start[row]; i < start[row + 1]; ++i) {
          const Contribution c{static_cast<vid_t>(rng.next_below(kCommunities)),
                               draw_weight(rng, root2)};
          records.emplace_back(row, c);
          live[row].push_back(c);
        }
      }
      for (std::size_t i = records.size(); i > 1; --i) {
        std::swap(records[i - 1], records[rng.next_below(i)]);
      }
      rows.clear();
      table.clear();
      for (const auto& [row, c] : records) {
        rows.append(row, c.c, c.w);
        table.insert_or_add(pack_key(static_cast<vid_t>(row), c.c), c.w);
      }
      for (std::size_t row = 0; row < nrows; ++row) rows.merge_row(row);
      EXPECT_TRUE(rows.consistent());
    } else if (live[r].size() < cap && (kind < 11 || live[r].empty())) {
      const Contribution c{static_cast<vid_t>(rng.next_below(kCommunities)),
                           draw_weight(rng, root2)};
      const bool fresh = rows.add(r, c.c, c.w);
      EXPECT_EQ(fresh, table.insert_or_add(pack_key(static_cast<vid_t>(r), c.c), c.w));
      live[r].push_back(c);
    } else if (!live[r].empty()) {
      const std::size_t pick = rng.next_below(live[r].size());
      const Contribution c = live[r][pick];
      live[r].erase(live[r].begin() + static_cast<std::ptrdiff_t>(pick));
      const bool erased = rows.retract(r, c.c, c.w);
      EXPECT_EQ(erased, table.retract(pack_key(static_cast<vid_t>(r), c.c), c.w));
    }
    expect_same(rows, table, nrows);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(RowStore, MatchesEdgeTableOnTenths) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) run_sequence(seed, false);
}

TEST(RowStore, MatchesEdgeTableOnRootTwoMultiples) {
  for (std::uint64_t seed = 101; seed <= 120; ++seed) run_sequence(seed, true);
}

TEST(RowStore, FindReportsLiveEntriesOnly) {
  RowStore rows;
  rows.reset(std::vector<std::size_t>{0, 3, 5});
  rows.append(0, 4, 1.0);
  rows.append(0, 2, 0.5);
  rows.append(0, 4, 2.0);
  rows.merge_row(0);
  ASSERT_NE(rows.find(0, 4), nullptr);
  EXPECT_EQ(rows.find(0, 4)->w, 3.0);
  EXPECT_EQ(rows.find(0, 4)->count, 2U);
  EXPECT_EQ(rows.find(0, 3), nullptr);
  EXPECT_EQ(rows.find(1, 4), nullptr);
  EXPECT_FALSE(rows.retract(0, 4, 1.0));
  EXPECT_TRUE(rows.retract(0, 4, 2.0));
  EXPECT_EQ(rows.find(0, 4), nullptr);
  EXPECT_EQ(rows.size(), 1U);
}

// A row's capacity is its vertex's in-degree; only a broken In_Table
// symmetry can push past it, and that must throw instead of overwriting
// the next row.
TEST(RowStore, OverrunThrowsNamingTheRow) {
  RowStore rows([](std::size_t r) { return "vertex " + std::to_string(10 + r) + " at level 3"; });
  rows.reset(std::vector<std::size_t>{0, 2, 4});
  rows.append(0, 1, 1.0);
  rows.append(0, 2, 1.0);
  try {
    rows.append(0, 3, 1.0);
    FAIL() << "append past the row's capacity must throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("vertex 10 at level 3"), std::string::npos) << e.what();
  }
  rows.merge_row(0);
  EXPECT_FALSE(rows.add(0, 2, 1.0));  // accumulating into a full row is fine
  EXPECT_THROW(static_cast<void>(rows.add(0, 5, 1.0)), std::logic_error);
  EXPECT_EQ(rows.row(1).size(), 0U);  // the neighbor row is untouched
  EXPECT_THROW(static_cast<void>(rows.retract(1, 7, 1.0)), std::logic_error);
}

TEST(RowStore, ConsistentOnlyWhenEveryInEdgeContributes) {
  RowStore rows;
  rows.reset(std::vector<std::size_t>{0, 2, 3});
  rows.append(0, 5, 1.0);
  rows.append(1, 5, 1.0);
  EXPECT_FALSE(rows.consistent());  // row 0 is one contribution short
  rows.append(0, 5, 1.0);
  rows.merge_row(0);
  rows.merge_row(1);
  EXPECT_TRUE(rows.consistent());
}

}  // namespace
}  // namespace plv::core
