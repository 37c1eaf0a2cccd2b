#include "util/args.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

namespace imobif::util {
namespace {

Args parse(std::initializer_list<const char*> argv) {
  std::vector<const char*> v(argv);
  return Args(static_cast<int>(v.size()), v.data());
}

TEST(Args, EqualsForm) {
  const Args a = parse({"prog", "--k=0.5", "--name=test"});
  EXPECT_DOUBLE_EQ(a.get_double("k", 0.0), 0.5);
  EXPECT_EQ(a.get_string("name"), "test");
  EXPECT_EQ(a.program(), "prog");
}

TEST(Args, SpaceForm) {
  const Args a = parse({"prog", "--flows", "50", "--strategy", "lifetime"});
  EXPECT_EQ(a.get_int("flows", 0), 50);
  EXPECT_EQ(a.get_string("strategy"), "lifetime");
}

TEST(Args, BareFlagIsTrue) {
  const Args a = parse({"prog", "--verbose", "--dry-run"});
  EXPECT_TRUE(a.get_bool("verbose"));
  EXPECT_TRUE(a.get_bool("dry-run"));
  EXPECT_FALSE(a.get_bool("absent"));
}

TEST(Args, BareFlagBeforeAnotherFlag) {
  const Args a = parse({"prog", "--lifetime", "--flows", "10"});
  EXPECT_TRUE(a.get_bool("lifetime"));
  EXPECT_EQ(a.get_int("flows", 0), 10);
}

TEST(Args, ExplicitBooleanValues) {
  const Args a = parse({"prog", "--x=false", "--y=1", "--z", "no"});
  EXPECT_FALSE(a.get_bool("x", true));
  EXPECT_TRUE(a.get_bool("y", false));
  EXPECT_FALSE(a.get_bool("z", true));
}

TEST(Args, Positionals) {
  const Args a = parse({"prog", "input.txt", "--k=1", "output.txt"});
  EXPECT_EQ(a.positional(),
            (std::vector<std::string>{"input.txt", "output.txt"}));
}

TEST(Args, DoubleDashEndsFlagParsing) {
  const Args a = parse({"prog", "--k=1", "--", "--not-a-flag"});
  EXPECT_EQ(a.positional(), (std::vector<std::string>{"--not-a-flag"}));
  EXPECT_FALSE(a.has("not-a-flag"));
}

TEST(Args, TypeErrorsThrow) {
  const Args a = parse({"prog", "--k=abc", "--n=xyz", "--b=maybe"});
  EXPECT_THROW(a.get_double("k", 0.0), std::invalid_argument);
  EXPECT_THROW(a.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW(a.get_bool("b"), std::invalid_argument);

  // Trailing junk is an error, not a silently truncated value.
  const Args junk =
      parse({"prog", "--jobs", "4x", "--loss", "0.2abc", "--seed", "12.9"});
  EXPECT_THROW(junk.get_int("jobs", 0), std::invalid_argument);
  EXPECT_THROW(junk.get_double("loss", 0.0), std::invalid_argument);
  EXPECT_THROW(junk.get_int("seed", 0), std::invalid_argument);
}

TEST(Args, FallbacksForAbsentKeys) {
  const Args a = parse({"prog"});
  EXPECT_DOUBLE_EQ(a.get_double("k", 2.5), 2.5);
  EXPECT_EQ(a.get_int("n", 7), 7);
  EXPECT_EQ(a.get_string("s", "dflt"), "dflt");
}

TEST(Args, KeysListsAllFlags) {
  const Args a = parse({"prog", "--x=1", "--y", "2"});
  auto keys = a.keys();
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(keys, (std::vector<std::string>{"x", "y"}));
}

TEST(Args, EmptyArgvSafe) {
  const Args a(0, nullptr);
  EXPECT_TRUE(a.positional().empty());
  EXPECT_TRUE(a.program().empty());
}

// Flag values read with util::Config's grammar, exactly like the same key
// in a .conf file.
TEST(Args, ValuesParseLikeConfigKeys) {
  const Args a = parse({"prog", "--loss", "+0.25", "--jobs=+3", "--x=TRUE",
                        "--y", "Off"});
  EXPECT_DOUBLE_EQ(a.get_double("loss", 0.0), 0.25);
  EXPECT_EQ(a.get_int("jobs", 0), 3);
  EXPECT_TRUE(a.get_bool("x"));
  EXPECT_FALSE(a.get_bool("y", true));
}

TEST(Args, UnsignedFlagsTakeTheFullRangeAndNoSign) {
  const Args a = parse({"prog", "--seed", "18446744073709551615", "--neg",
                        "-1", "--big", "18446744073709551616"});
  EXPECT_EQ(a.get_unsigned<std::uint64_t>("seed", 0),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(a.get_unsigned<std::uint64_t>("absent", 9), 9u);
  EXPECT_THROW(a.get_unsigned<std::uint64_t>("neg", 0),
               std::invalid_argument);
  EXPECT_THROW(a.get_unsigned<std::uint64_t>("big", 0),
               std::invalid_argument);
}

TEST(Args, ErrorsNameTheFlag) {
  const Args a = parse({"prog", "--seed", "-1", "--loss", "x"});
  const auto message = [](const auto& read) -> std::string {
    try {
      (void)read();
    } catch (const std::invalid_argument& err) {
      return err.what();
    }
    return "accepted";
  };
  const std::string seed =
      message([&] { return a.get_unsigned<std::uint64_t>("seed", 0); });
  EXPECT_NE(seed.find("'--seed'"), std::string::npos) << seed;
  const std::string loss = message([&] { return a.get_double("loss", 0.0); });
  EXPECT_NE(loss.find("'--loss'"), std::string::npos) << loss;
}

}  // namespace
}  // namespace imobif::util
