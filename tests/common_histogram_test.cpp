#include "common/histogram.hpp"

#include <gtest/gtest.h>

namespace plv {
namespace {

TEST(Histogram, TotalCountsAllSamplesIncludingOutOfRange) {
  Histogram h(0.0, 1.0, 10);
  h.add(-5.0);
  h.add(0.5);
  h.add(99.0);
  EXPECT_EQ(h.total(), 3u);
}

TEST(Histogram, BinOfClampsEnds) {
  Histogram h(0.0, 1.0, 10);
  EXPECT_EQ(h.bin_of(-1.0), 0u);
  EXPECT_EQ(h.bin_of(2.0), 9u);
  EXPECT_EQ(h.bin_of(0.95), 9u);
  EXPECT_EQ(h.bin_of(0.05), 0u);
}

TEST(Histogram, BinEdgesAreEquallySpaced) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(4), 8.0);
}

TEST(Histogram, TopFractionCutoffSelectsUpperTail) {
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i) + 0.5);
  // Keeping the top 10% should cut around 90.
  const double cutoff = h.top_fraction_cutoff(0.10);
  EXPECT_NEAR(cutoff, 90.0, 2.0);
}

TEST(Histogram, TopFractionOneKeepsEverything) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 50; ++i) h.add(5.0);
  EXPECT_DOUBLE_EQ(h.top_fraction_cutoff(1.0), 0.0);
  EXPECT_DOUBLE_EQ(h.top_fraction_cutoff(2.0), 0.0);
}

TEST(Histogram, TopFractionOnEmptyHistogramIsLo) {
  Histogram h(0.0, 10.0, 10);
  EXPECT_DOUBLE_EQ(h.top_fraction_cutoff(0.5), 0.0);
}

TEST(Histogram, CutoffNeverExceedsRange) {
  Histogram h(0.0, 1.0, 16);
  for (int i = 0; i < 1000; ++i) h.add(0.999);
  const double cutoff = h.top_fraction_cutoff(0.001);
  EXPECT_LE(cutoff, 1.0);
  EXPECT_GE(cutoff, 0.0);
}

// -- edge-bin regressions for top_fraction_cutoff ---------------------------
// The gain-cutoff selection hits these shapes in practice: late-iteration
// gain distributions collapse into the top bin (every remaining mover has
// ~the max gain), ε ≥ 1 asks for everything, and tiny configured bin
// counts degenerate to a single bin.

TEST(Histogram, AllMassInTopBinCutsAtThatBinsLowerEdge) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 100; ++i) h.add(9.99);
  // The top bin overshoots any fractional budget; the cutoff must clamp
  // to the top bin's own lower edge (keep-bins-above would be empty and
  // bin index size() would be out of range).
  EXPECT_DOUBLE_EQ(h.top_fraction_cutoff(0.10), h.bin_lo(9));
  EXPECT_LE(h.top_fraction_cutoff(0.10), h.hi());
  // An exact-budget hit in the top bin also cuts at its lower edge.
  EXPECT_DOUBLE_EQ(h.top_fraction_cutoff(1.0 - 1e-12), h.bin_lo(9));
}

TEST(Histogram, FractionOneAndAboveAlwaysReturnsLoEvenWithTopHeavyMass) {
  Histogram h(-2.0, 3.0, 8);
  for (int i = 0; i < 17; ++i) h.add(2.9);
  EXPECT_DOUBLE_EQ(h.top_fraction_cutoff(1.0), -2.0);
  EXPECT_DOUBLE_EQ(h.top_fraction_cutoff(1.5), -2.0);
}

TEST(Histogram, SingleBinHistogramCutsAtLo) {
  Histogram h(0.0, 4.0, 1);
  for (int i = 0; i < 10; ++i) h.add(static_cast<double>(i % 5));
  // One bin holds all mass, so every fraction keeps everything: the only
  // representable cutoff is lo.
  EXPECT_DOUBLE_EQ(h.top_fraction_cutoff(0.01), 0.0);
  EXPECT_DOUBLE_EQ(h.top_fraction_cutoff(0.99), 0.0);
}

TEST(Histogram, ZeroBinRequestDegeneratesToOneBin) {
  Histogram h(0.0, 1.0, 0);
  EXPECT_EQ(h.bins(), 1u);
  h.add(0.7);
  EXPECT_DOUBLE_EQ(h.top_fraction_cutoff(0.5), 0.0);
}

TEST(Histogram, ResetRerangesAndZeroesInPlace) {
  Histogram h(0.0, 1.0, 4);
  h.add(0.4);
  h.add(0.9);
  h.reset(2.0, 6.0, 4);
  EXPECT_EQ(h.total(), 0u);
  EXPECT_DOUBLE_EQ(h.lo(), 2.0);
  EXPECT_DOUBLE_EQ(h.hi(), 6.0);
  h.add(5.9);
  EXPECT_EQ(h.bin_of(5.9), 3u);
  EXPECT_EQ(h.total(), 1u);
  // Degenerate re-range mirrors the constructor's zero-bin handling.
  h.reset(0.0, 0.0, 0);
  EXPECT_EQ(h.bins(), 1u);
  EXPECT_EQ(h.total(), 0u);
}

TEST(Summary, TracksMinMaxMean) {
  Summary s;
  s.add(2.0);
  s.add(4.0);
  s.add(9.0);
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
}

TEST(Summary, EmptyMeanIsZero) {
  Summary s;
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

}  // namespace
}  // namespace plv
