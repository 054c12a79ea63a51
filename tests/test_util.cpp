#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace bpm {
namespace {

// ---------------------------------------------------------------- stats ----

TEST(Stats, GeometricMeanOfEqualValuesIsThatValue) {
  const std::vector<double> v{2.0, 2.0, 2.0};
  EXPECT_NEAR(geometric_mean(v), 2.0, 1e-12);
}

TEST(Stats, GeometricMeanMatchesHandComputation) {
  const std::vector<double> v{1.0, 8.0};  // sqrt(8) = 2.828…
  EXPECT_NEAR(geometric_mean(v), std::sqrt(8.0), 1e-12);
}

TEST(Stats, GeometricMeanEmptyIsZero) {
  EXPECT_EQ(geometric_mean(std::vector<double>{}), 0.0);
}

TEST(Stats, GeometricMeanClampsNonPositive) {
  const std::vector<double> v{0.0, 1.0};
  EXPECT_GT(geometric_mean(v, 1e-9), 0.0);
}

TEST(Stats, ArithmeticMean) {
  const std::vector<double> v{1.0, 2.0, 3.0};
  EXPECT_NEAR(arithmetic_mean(v), 2.0, 1e-12);
}

TEST(Stats, SpeedupProfileCountsAtLeast) {
  // Speedups {1, 2, 4}: P(>=1)=1, P(>=2)=2/3, P(>=3)=1/3, P(>=5)=0.
  const std::vector<double> speedups{1.0, 2.0, 4.0};
  const std::vector<double> xs{1.0, 2.0, 3.0, 5.0};
  const auto profile = speedup_profile(speedups, xs);
  ASSERT_EQ(profile.size(), 4u);
  EXPECT_NEAR(profile[0].fraction, 1.0, 1e-12);
  EXPECT_NEAR(profile[1].fraction, 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(profile[2].fraction, 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(profile[3].fraction, 0.0, 1e-12);
}

TEST(Stats, PerformanceProfileBestAlgorithmReachesOneAtXEqualsOne) {
  const std::vector<std::string> names{"fast", "slow"};
  const std::vector<std::vector<double>> times{{1.0, 2.0}, {2.0, 2.0}};
  const std::vector<double> xs{1.0, 2.0};
  const auto profiles = performance_profiles(names, times, xs);
  ASSERT_EQ(profiles.size(), 2u);
  // "fast" is best or tied on both instances.
  EXPECT_NEAR(profiles[0].points[0].fraction, 1.0, 1e-12);
  // "slow" is within 1x of best on instance 2 only.
  EXPECT_NEAR(profiles[1].points[0].fraction, 0.5, 1e-12);
  // Everything is within 2x.
  EXPECT_NEAR(profiles[1].points[1].fraction, 1.0, 1e-12);
}

TEST(Stats, PerformanceProfileRejectsRaggedInput) {
  const std::vector<std::string> names{"a", "b"};
  const std::vector<std::vector<double>> times{{1.0, 2.0}, {2.0}};
  const std::vector<double> xs{1.0};
  EXPECT_THROW(performance_profiles(names, times, xs), std::invalid_argument);
}

TEST(Stats, SummarizeBasics) {
  const std::vector<double> v{4.0, 1.0, 2.0};
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 4.0);
  EXPECT_NEAR(s.mean, 7.0 / 3.0, 1e-12);
  EXPECT_NEAR(s.geomean, std::cbrt(8.0), 1e-12);
}

// ------------------------------------------------------------------ rng ----

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a(), b());
  Rng a2(42);
  bool all_equal = true;
  Rng c2(43);
  for (int i = 0; i < 16; ++i)
    if (a2() != c2()) all_equal = false;
  EXPECT_FALSE(all_equal);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.below(13), 13u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, RangeInclusiveBounds) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 20000; ++i) {
    const auto x = rng.range(-2, 2);
    EXPECT_GE(x, -2);
    EXPECT_LE(x, 2);
    saw_lo |= x == -2;
    saw_hi |= x == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(123);
  std::vector<int> buckets(10, 0);
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++buckets[rng.below(10)];
  for (int count : buckets) {
    EXPECT_GT(count, kDraws / 10 - kDraws / 50);
    EXPECT_LT(count, kDraws / 10 + kDraws / 50);
  }
}

// ------------------------------------------------------------------ cli ----

TEST(Cli, ParsesOptionsAndFlags) {
  CliParser cli("prog", "test");
  cli.add_option("scale", "scale", "1.0");
  cli.add_flag("verbose", "verbose");
  const char* argv[] = {"prog", "--scale", "2.5", "--verbose"};
  cli.parse(4, argv);
  EXPECT_DOUBLE_EQ(cli.get_double("scale"), 2.5);
  EXPECT_TRUE(cli.get_flag("verbose"));
}

TEST(Cli, EqualsSyntaxAndDefaults) {
  CliParser cli("prog", "test");
  cli.add_option("k", "k", "0.7");
  cli.add_option("name", "n", "x");
  const char* argv[] = {"prog", "--k=1.5"};
  cli.parse(2, argv);
  EXPECT_DOUBLE_EQ(cli.get_double("k"), 1.5);
  EXPECT_EQ(cli.get_string("name"), "x");
}

TEST(Cli, UnknownFlagThrows) {
  CliParser cli("prog", "test");
  const char* argv[] = {"prog", "--nope"};
  EXPECT_THROW(cli.parse(2, argv), std::invalid_argument);
}

TEST(Cli, MissingValueThrows) {
  CliParser cli("prog", "test");
  cli.add_option("k", "k", "1");
  const char* argv[] = {"prog", "--k"};
  EXPECT_THROW(cli.parse(2, argv), std::invalid_argument);
}

TEST(Cli, NonNumericValueThrows) {
  CliParser cli("prog", "test");
  cli.add_option("k", "k", "1");
  const char* argv[] = {"prog", "--k", "abc"};
  cli.parse(3, argv);
  EXPECT_THROW((void)cli.get_int("k"), std::invalid_argument);
  EXPECT_THROW((void)cli.get_double("k"), std::invalid_argument);
  EXPECT_THROW((void)cli.get_int("k", 0, 65535), std::invalid_argument);

  // Out-of-range integers: below the minimum and above the maximum both
  // throw, and the message names the flag.
  for (const char* value : {"-1", "70000"}) {
    CliParser ranged("prog", "test");
    ranged.add_option("port", "port", "0");
    const char* args[] = {"prog", "--port", value};
    ranged.parse(3, args);
    EXPECT_NO_THROW((void)ranged.get_int("port"));
    try {
      (void)ranged.get_int("port", 0, 65535);
      ADD_FAILURE() << value << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--port"), std::string::npos)
          << e.what();
    }
  }
  CliParser ok("prog", "test");
  ok.add_option("port", "port", "65535");
  ok.parse(1, argv);
  EXPECT_EQ(ok.get_int("port", 0, 65535), 65535);
}

TEST(Cli, PositionalArguments) {
  CliParser cli("prog", "test");
  const char* argv[] = {"prog", "input.mtx", "out.txt"};
  cli.parse(3, argv);
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "input.mtx");
}

// ---------------------------------------------------------------- table ----

TEST(Table, AlignedPrintContainsHeadersAndValues) {
  Table t({"name", "time"});
  t.add_row({std::string("amazon"), 0.257});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("amazon"), std::string::npos);
  EXPECT_NE(s.find("0.26"), std::string::npos);  // precision 2 rounding
}

TEST(Table, CsvRoundTripBasics) {
  Table t({"a", "b"});
  t.add_row({std::int64_t{1}, std::string("x,y")});
  const std::string csv = t.to_csv();
  EXPECT_EQ(csv, "a,b\n1,\"x,y\"\n");
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({std::int64_t{1}}), std::invalid_argument);
}

// ---------------------------------------------------------------- timer ----

TEST(Timer, MonotoneNonNegative) {
  Timer t;
  const double a = t.elapsed_s();
  const double b = t.elapsed_s();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
  t.restart();
  EXPECT_LT(t.elapsed_s(), 1.0);
}

}  // namespace
}  // namespace bpm
