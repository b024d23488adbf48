// Exit-code contract of the shared bench flag parsers (bench/common):
// --help exits 0, an unknown flag exits 2, and — the regression this file
// pins — a KNOWN flag missing its trailing value exits 2 with a message
// naming the flag ("flag X requires a value"), instead of falling through
// to the unknown-flag branch as every parser did when the `i + 1 < argc`
// guard lived in the match condition. The double parsers take only whole
// finite tokens, and the rate/fraction forms exit 2 outside their range.
#include "bench/common.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace simdx::bench {
namespace {

// argv builder for the parser helpers (they take char**, not const char**).
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : strings_(std::move(args)) {
    for (std::string& s : strings_) {
      ptrs_.push_back(s.data());
    }
  }
  int argc() const { return static_cast<int>(ptrs_.size()); }
  char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> strings_;
  std::vector<char*> ptrs_;
};

TEST(RequireFlagValueTest, ReturnsValueAndAdvances) {
  Argv a({"bin", "--seed", "42"});
  int i = 1;
  const char* value = RequireFlagValue(a.argc(), a.argv(), i, "--seed");
  EXPECT_STREQ(value, "42");
  EXPECT_EQ(i, 2);  // advanced past the value, loop ++ lands on argc
}

TEST(RequireFlagValueDeathTest, TrailingFlagExits2NamingTheFlag) {
  Argv a({"bin", "--seed"});
  int i = 1;
  EXPECT_EXIT(RequireFlagValue(a.argc(), a.argv(), i, "--seed"),
              ::testing::ExitedWithCode(2), "flag --seed requires a value");
}

TEST(ParseU64FlagDeathTest, NonNumericExits2) {
  EXPECT_EXIT(ParseU64Flag("12x", "--seed"), ::testing::ExitedWithCode(2),
              "--seed expects a number");
}

TEST(ParseU64FlagDeathTest, NegativeNeverWraps) {
  EXPECT_EXIT(ParseU64Flag("-1", "--seed"), ::testing::ExitedWithCode(2),
              "--seed expects a number");
}

TEST(ParseU32FlagDeathTest, OutOfRangeExits2) {
  EXPECT_EXIT(ParseU32Flag("4294967296", "--scale"),
              ::testing::ExitedWithCode(2), "--scale out of uint32 range");
}

TEST(ParseDoubleFlagTest, AcceptsWholeFiniteTokens) {
  EXPECT_DOUBLE_EQ(ParseDoubleFlag("2.5", "--deadline-ms"), 2.5);
  EXPECT_DOUBLE_EQ(ParseDoubleFlag("-1e3", "--deadline-ms"), -1000.0);
  EXPECT_DOUBLE_EQ(ParsePositiveFlag("500", "--qps"), 500.0);
  EXPECT_DOUBLE_EQ(ParseFractionFlag("0", "--fault-rate"), 0.0);
  EXPECT_DOUBLE_EQ(ParseFractionFlag("1", "--fault-rate"), 1.0);
}

TEST(ParseDoubleFlagDeathTest, TrailingJunkIsNotDropped) {
  // The suffix is an error, never silently dropped.
  EXPECT_EXIT(ParseDoubleFlag("5x", "--qps"), ::testing::ExitedWithCode(2),
              "--qps expects a finite number, got '5x'");
}

TEST(ParseDoubleFlagDeathTest, NanAndInfAreNotFinite) {
  EXPECT_EXIT(ParseDoubleFlag("nan", "--qps"), ::testing::ExitedWithCode(2),
              "--qps expects a finite number");
  EXPECT_EXIT(ParseDoubleFlag("inf", "--qps"), ::testing::ExitedWithCode(2),
              "--qps expects a finite number");
  EXPECT_EXIT(ParseDoubleFlag("1e999", "--qps"), ::testing::ExitedWithCode(2),
              "--qps expects a finite number");
}

TEST(ParseDoubleFlagDeathTest, EmptyAndPaddedTokensFail) {
  EXPECT_EXIT(ParseDoubleFlag("", "--deadline-ms"),
              ::testing::ExitedWithCode(2), "--deadline-ms expects");
  EXPECT_EXIT(ParseDoubleFlag(" 5", "--deadline-ms"),
              ::testing::ExitedWithCode(2), "--deadline-ms expects");
}

TEST(ParsePositiveFlagDeathTest, ZeroAndNegativeRatesExit2) {
  // A rate <= 0 violates std::exponential_distribution's precondition.
  EXPECT_EXIT(ParsePositiveFlag("0", "--qps"), ::testing::ExitedWithCode(2),
              "--qps must be > 0, got '0'");
  EXPECT_EXIT(ParsePositiveFlag("-1", "--qps"), ::testing::ExitedWithCode(2),
              "--qps must be > 0, got '-1'");
  EXPECT_EXIT(ParsePositiveFlag("nan", "--qps"), ::testing::ExitedWithCode(2),
              "--qps expects a finite number");
}

TEST(ParseFractionFlagDeathTest, OutsideUnitIntervalExits2) {
  EXPECT_EXIT(ParseFractionFlag("1.5", "--fault-rate"),
              ::testing::ExitedWithCode(2),
              "--fault-rate must be in \\[0, 1\\], got '1.5'");
  EXPECT_EXIT(ParseFractionFlag("-0.1", "--hot-fraction"),
              ::testing::ExitedWithCode(2),
              "--hot-fraction must be in \\[0, 1\\], got '-0.1'");
}

TEST(ParseArgsDeathTest, UnknownFlagExits2WithUsage) {
  Argv a({"bin", "--bogus"});
  EXPECT_EXIT(ParseArgs(a.argc(), a.argv()), ::testing::ExitedWithCode(2),
              "unknown flag: --bogus");
}

TEST(ParseArgsDeathTest, TrailingCsvFlagExits2NamingTheFlag) {
  Argv a({"bin", "--csv"});
  EXPECT_EXIT(ParseArgs(a.argc(), a.argv()), ::testing::ExitedWithCode(2),
              "flag --csv requires a value");
}

TEST(ParseArgsDeathTest, HelpExits0) {
  // (usage text goes to stdout; the death-test regex only sees stderr, so
  // the assertion here is purely the exit code.)
  Argv a({"bin", "--help"});
  EXPECT_EXIT(ParseArgs(a.argc(), a.argv()), ::testing::ExitedWithCode(0), "");
}

TEST(ParseArgsTest, ParsesGraphListAndQuick) {
  Argv a({"bin", "--graphs", "FB,ER", "--quick"});
  const BenchArgs parsed = ParseArgs(a.argc(), a.argv());
  ASSERT_EQ(parsed.graphs.size(), 2u);
  EXPECT_EQ(parsed.graphs[0], "FB");
  EXPECT_EQ(parsed.graphs[1], "ER");
  EXPECT_TRUE(parsed.quick);
}

}  // namespace
}  // namespace simdx::bench
