// snap codec: typed round trips, layout-mismatch errors, version and magic
// rejection, and the generic JSON debug dump.
#include "snap/codec.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "snap_known_answer.hpp"

namespace imobif::snap {
namespace {

TEST(SnapCodec, RoundTripsEveryType) {
  StateWriter w;
  w.begin_section("outer");
  w.u8(0xab);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefull);
  w.i64(-42);
  w.f64(3.141592653589793);
  w.f64(-0.0);
  w.boolean(true);
  w.boolean(false);
  w.str("hello \0 world");  // NOLINT: embedded NUL truncates at the literal
  w.begin_section("inner");
  w.u64(7);
  w.end_section();
  w.end_section();

  StateReader r(w.data());
  EXPECT_EQ(r.version(), kCodecVersion);
  r.begin_section("outer");
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), 3.141592653589793);
  const double negzero = r.f64();
  EXPECT_EQ(negzero, 0.0);
  EXPECT_TRUE(std::signbit(negzero));  // bit-exact, not just value-equal
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_EQ(r.str(), std::string("hello "));
  r.begin_section("inner");
  EXPECT_EQ(r.u64(), 7u);
  r.end_section();
  r.end_section();
  EXPECT_TRUE(r.at_end());
}

std::string to_hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const char c : bytes) {
    const auto b = static_cast<std::uint8_t>(c);
    hex.push_back(kDigits[b >> 4]);
    hex.push_back(kDigits[b & 0xf]);
  }
  return hex;
}

// Pins codec v2 byte for byte, independently of the simulator: a change
// here breaks every existing .ckpt file.
TEST(SnapCodec, KnownAnswerBytes) {
  StateWriter w;
  test::known_answer_sequence(w);
  const std::string expected =
      "494d534e" "02000000"               // magic, version 2
      "08" "03000000" "6b6174"            // begin "kat"
      "01" "ab"                           // u8
      "02" "efbeadde"                     // u32
      "03" "ffffffffffffffff"             // u64 max
      "04" "0000000000000080"             // i64 min
      "05" "0000000000000080"             // f64 -0.0
      "05" "efbe00000000f87f"             // f64 NaN payload
      "06" "01"                           // true
      "06" "00"                           // false
      "07" "00000000"                     // ""
      "07" "05000000" "00ff7f6162"        // binary string
      "08" "05000000" "696e6e6572"        // begin "inner"
      "03" "0100000000000000"             // u64 1
      "09"                                // end "inner"
      "09";                               // end "kat"
  EXPECT_EQ(to_hex(w.data()), expected);
  EXPECT_EQ(to_hex(std::move(w).take()), expected);
}

TEST(SnapCodec, CountIsBoundedByTheBytesLeft) {
  StateWriter w;
  w.u64(3);
  for (int i = 0; i < 3; ++i) w.f64(1.0);
  {
    StateReader r(w.data());
    EXPECT_EQ(r.count(kEncodedWord), 3u);  // exactly fits
  }
  {
    StateReader r(w.data());
    EXPECT_THROW((void)r.count(kEncodedWord + 1), std::runtime_error);
  }
}

TEST(SnapCodec, BinaryStringsSurviveRoundTrip) {
  std::string blob;
  for (int i = 0; i < 256; ++i) blob.push_back(static_cast<char>(i));
  StateWriter w;
  w.str(blob);
  StateReader r(w.data());
  EXPECT_EQ(r.str(), blob);
}

TEST(SnapCodec, TagMismatchThrowsWithOffsetAndTypes) {
  StateWriter w;
  w.u64(5);
  StateReader r(w.data());
  try {
    (void)r.f64();
    FAIL() << "expected a tag mismatch";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("expected f64"), std::string::npos) << what;
    EXPECT_NE(what.find("found u64"), std::string::npos) << what;
    EXPECT_NE(what.find("offset"), std::string::npos) << what;
  }
}

TEST(SnapCodec, SectionNameMismatchThrows) {
  StateWriter w;
  w.begin_section("alpha");
  w.end_section();
  StateReader r(w.data());
  EXPECT_THROW(r.begin_section("beta"), std::runtime_error);
}

TEST(SnapCodec, TruncatedStreamThrows) {
  StateWriter w;
  w.u64(12345);
  const std::string_view truncated = w.data().substr(0, w.data().size() - 3);
  StateReader r(truncated);
  EXPECT_THROW((void)r.u64(), std::runtime_error);
}

TEST(SnapCodec, BadMagicRejected) {
  EXPECT_THROW(StateReader("not a snapshot at all"), std::runtime_error);
  EXPECT_THROW(StateReader(""), std::runtime_error);
}

TEST(SnapCodec, UnknownVersionRejectedWithClearError) {
  StateWriter w;
  w.u64(1);
  std::string bytes(w.data());
  bytes[4] = '\x63';  // version 99
  try {
    StateReader r(bytes);
    FAIL() << "expected a version rejection";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unsupported codec version 99"), std::string::npos)
        << what;
    EXPECT_NE(what.find("reads version " + std::to_string(kCodecVersion)),
              std::string::npos)
        << what;
  }
}

TEST(SnapCodec, UnbalancedSectionsRejectedAtWrite) {
  StateWriter w;
  w.begin_section("open");
  EXPECT_THROW(w.write_file("/tmp/snap_codec_test_unbalanced.bin"),
               std::logic_error);
  StateWriter w2;
  EXPECT_THROW(w2.end_section(), std::logic_error);
}

TEST(SnapCodec, DebugDumpRendersSectionsAndScalars) {
  StateWriter w;
  w.begin_section("sim");
  w.i64(-5);
  w.f64(1.5);
  w.boolean(true);
  w.str("abc");
  w.end_section();
  const std::string json = debug_dump(w.data());
  EXPECT_NE(json.find("\"codec_version\": " + std::to_string(kCodecVersion)),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"section\": \"sim\""), std::string::npos) << json;
  EXPECT_NE(json.find("-5"), std::string::npos) << json;
  EXPECT_NE(json.find("1.5"), std::string::npos) << json;
  EXPECT_NE(json.find("true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"abc\""), std::string::npos) << json;
}

TEST(SnapCodec, DebugDumpRejectsUnterminatedSection) {
  StateWriter w;
  w.begin_section("open");
  EXPECT_THROW(debug_dump(w.data()), std::runtime_error);
}

TEST(SnapCodec, AtomicFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "snap_codec_rt.bin";
  StateWriter w;
  w.begin_section("s");
  w.u64(99);
  w.end_section();
  w.write_file(path);
  const std::string bytes = read_file(path);
  StateReader r(bytes);
  r.begin_section("s");
  EXPECT_EQ(r.u64(), 99u);
  r.end_section();
  std::remove(path.c_str());
}

TEST(SnapCodec, MissingFileThrows) {
  EXPECT_THROW(read_file("/nonexistent/snap.bin"), std::runtime_error);
}

}  // namespace
}  // namespace imobif::snap
