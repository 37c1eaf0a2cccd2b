#include "util/config.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>

namespace imobif::util {
namespace {

TEST(Config, ParsesKeyValuePairs) {
  const Config c = Config::from_string("a = 1\nb=hello\n  c  =  2.5  \n");
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.get_string("a"), "1");
  EXPECT_EQ(c.get_string("b"), "hello");
  EXPECT_DOUBLE_EQ(c.get_double("c", 0.0), 2.5);
}

TEST(Config, CommentsAndBlanksIgnored) {
  const Config c = Config::from_string(
      "# full-line comment\n"
      "\n"
      "key = value  # trailing comment\n"
      "other = 3 ; semicolon comment\n");
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.get_string("key"), "value");
  EXPECT_EQ(c.get_int("other", 0), 3);
}

TEST(Config, LaterDuplicateWins) {
  const Config c = Config::from_string("x = 1\nx = 2\n");
  EXPECT_EQ(c.get_int("x", 0), 2);
}

TEST(Config, MalformedLineThrowsWithLineNumber) {
  try {
    Config::from_string("good = 1\nno-equals-here\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& err) {
    EXPECT_NE(std::string(err.what()).find("line 2"), std::string::npos);
  }
}

TEST(Config, EmptyKeyThrows) {
  EXPECT_THROW(Config::from_string(" = 5\n"), std::invalid_argument);
}

TEST(Config, AbsentKeysUseFallbacks) {
  const Config c = Config::from_string("");
  EXPECT_EQ(c.get_string("missing", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(c.get_double("missing", 1.5), 1.5);
  EXPECT_EQ(c.get_int("missing", -3), -3);
  EXPECT_TRUE(c.get_bool("missing", true));
  EXPECT_FALSE(c.has("missing"));
}

TEST(Config, TypedParseErrors) {
  const Config c = Config::from_string("d = notanumber\ni = 5x\nb = maybe\n");
  EXPECT_THROW(c.get_double("d", 0.0), std::invalid_argument);
  EXPECT_THROW(c.get_int("i", 0), std::invalid_argument);
  EXPECT_THROW(c.get_bool("b", false), std::invalid_argument);
}

TEST(Config, BooleanSpellings) {
  const Config c = Config::from_string(
      "a = true\nb = FALSE\nc = Yes\nd = off\ne = 1\nf = 0\n");
  EXPECT_TRUE(c.get_bool("a", false));
  EXPECT_FALSE(c.get_bool("b", true));
  EXPECT_TRUE(c.get_bool("c", false));
  EXPECT_FALSE(c.get_bool("d", true));
  EXPECT_TRUE(c.get_bool("e", false));
  EXPECT_FALSE(c.get_bool("f", true));
}

TEST(Config, ScientificNotationDoubles) {
  const Config c = Config::from_string("b = 5e-10\n");
  EXPECT_DOUBLE_EQ(c.get_double("b", 0.0), 5e-10);
}

TEST(Config, SetOverridesProgrammatically) {
  Config c = Config::from_string("a = 1\n");
  c.set("a", "9");
  c.set("new", "x");
  EXPECT_EQ(c.get_int("a", 0), 9);
  EXPECT_EQ(c.get_string("new"), "x");
}

TEST(Config, FromFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/imobif_config_test.conf";
  {
    std::ofstream out(path);
    out << "k = 0.5\nstrategy = max-lifetime\n";
  }
  const Config c = Config::from_file(path);
  EXPECT_DOUBLE_EQ(c.get_double("k", 0.0), 0.5);
  EXPECT_EQ(c.get_string("strategy"), "max-lifetime");
  std::remove(path.c_str());
}

TEST(Config, FromMissingFileThrows) {
  EXPECT_THROW(Config::from_file("/no/such/file.conf"), std::runtime_error);
}

TEST(Config, LeadingPlusOnSignedNumbersOnly) {
  const Config c = Config::from_string(
      "d = +2.5\ni = +7\nu = +7\nbad_d = +-2.5\nbad_i = +-7\n");
  EXPECT_DOUBLE_EQ(c.get_double("d", 0.0), 2.5);
  EXPECT_EQ(c.get_int("i", 0), 7);
  EXPECT_THROW(c.get_unsigned<unsigned>("u", 0), std::invalid_argument);
  EXPECT_THROW(c.get_double("bad_d", 0.0), std::invalid_argument);
  EXPECT_THROW(c.get_int("bad_i", 0), std::invalid_argument);
}

// The one unsigned grammar: bare digits that fit the type, or nothing.
TEST(ParseUnsigned, RejectsSignsJunkAndOverflow) {
  EXPECT_EQ(parse_unsigned<std::uint64_t>("0"), 0u);
  EXPECT_EQ(parse_unsigned<std::uint64_t>("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_unsigned<std::uint32_t>("4294967295"), 4294967295u);
  for (const char* bad : {"", "-1", "+1", "-0", " 1", "1 ", "4x", "0x10",
                          "1.0", "1e3", "18446744073709551616"}) {
    SCOPED_TRACE(bad);
    EXPECT_FALSE(parse_unsigned<std::uint64_t>(bad).has_value());
  }
  EXPECT_FALSE(parse_unsigned<std::uint32_t>("4294967296").has_value());
}

TEST(Config, GetUnsignedNamesTheKey) {
  const Config c = Config::from_string("n = 12\nbad = -1\n");
  EXPECT_EQ(c.get_unsigned<std::size_t>("n", 0), 12u);
  EXPECT_EQ(c.get_unsigned<std::size_t>("absent", 5), 5u);
  try {
    (void)c.get_unsigned<std::uint64_t>("bad", 0);
    FAIL() << "accepted";
  } catch (const std::invalid_argument& err) {
    EXPECT_NE(std::string(err.what()).find("'bad' expects an unsigned "
                                           "integer, got '-1'"),
              std::string::npos)
        << err.what();
  }
}

}  // namespace
}  // namespace imobif::util
