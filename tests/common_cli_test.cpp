#include "common/cli.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace plv {
namespace {

Cli make(std::vector<std::string> args) { return Cli(std::move(args)); }

TEST(Cli, ParsesSpaceSeparatedValues) {
  auto cli = make({"--nodes", "8", "--name", "zeus"});
  EXPECT_EQ(cli.get_int("nodes", 0), 8);
  EXPECT_EQ(cli.get_string("name", ""), "zeus");
}

TEST(Cli, ParsesEqualsForm) {
  auto cli = make({"--scale=20", "--mu=0.4"});
  EXPECT_EQ(cli.get_int("scale", 0), 20);
  EXPECT_DOUBLE_EQ(cli.get_double("mu", 0.0), 0.4);
}

TEST(Cli, BooleanFlagWithoutValue) {
  auto cli = make({"--verbose", "--fast"});
  EXPECT_TRUE(cli.get_bool("verbose"));
  EXPECT_TRUE(cli.get_bool("fast"));
  EXPECT_FALSE(cli.get_bool("slow"));
}

TEST(Cli, BooleanExplicitFalse) {
  auto cli = make({"--heuristic=false", "--trace=0"});
  EXPECT_FALSE(cli.get_bool("heuristic", true));
  EXPECT_FALSE(cli.get_bool("trace", true));
}

TEST(Cli, DefaultsWhenMissing) {
  auto cli = make({});
  EXPECT_EQ(cli.get_int("x", 42), 42);
  EXPECT_DOUBLE_EQ(cli.get_double("y", 2.5), 2.5);
  EXPECT_EQ(cli.get_string("z", "dflt"), "dflt");
}

TEST(Cli, PositionalArgumentsPreserved) {
  auto cli = make({"input.txt", "--scale", "4", "output.txt"});
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "input.txt");
  EXPECT_EQ(cli.positional()[1], "output.txt");
}

TEST(Cli, RejectsTrailingJunkInNumbers) {
  auto cli = make({"--ranks", "3x", "--mu", "0.3abc"});
  EXPECT_THROW((void)cli.get_int("ranks", 4), std::invalid_argument);
  EXPECT_THROW((void)cli.get_int<int>("ranks", 4), std::invalid_argument);
  EXPECT_THROW((void)cli.get_double("mu", 0.0), std::invalid_argument);
}

TEST(Cli, RejectsNonNumbersNamingOptionAndToken) {
  auto cli = make({"--ranks", "abc", "--mu=x"});
  try {
    (void)cli.get_int("ranks", 4);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--ranks"), std::string::npos) << what;
    EXPECT_NE(what.find("'abc'"), std::string::npos) << what;
  }
  EXPECT_THROW((void)cli.get_double("mu", 0.0), std::invalid_argument);
}

TEST(Cli, TypedReadsRejectWhatTheTypeCannotHold) {
  auto cli = make({"--n", "-1", "--ranks", "4294967298", "--rank", "-1", "--seed",
                   "18446744073709551615"});
  EXPECT_THROW((void)cli.get_int<vid_t>("n", 10), std::invalid_argument);
  EXPECT_THROW((void)cli.get_int<int>("ranks", 4), std::invalid_argument);
  EXPECT_EQ(cli.get_int<int>("rank", 0), -1);
  EXPECT_EQ(cli.get_int<std::uint64_t>("seed", 1), 18446744073709551615ULL);
  EXPECT_EQ(cli.get_int("ranks", 0), 4294967298LL);  // fits the default int64 read
}

TEST(Cli, HasDetectsPresence) {
  auto cli = make({"--present"});
  EXPECT_TRUE(cli.has("present"));
  EXPECT_FALSE(cli.has("absent"));
}

}  // namespace
}  // namespace plv
