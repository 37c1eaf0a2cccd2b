// snap::restore on corrupted snapshots (DESIGN.md §9): a real mid-flight
// snapshot with one field overwritten must be rejected with a
// std::runtime_error naming the byte offset — never an allocation failure
// sized by an untrusted count, and never a run that restores cleanly and
// then fails mid-advance.
#include "snap/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "exp/instance.hpp"
#include "sim/event_tag.hpp"
#include "snap/codec.hpp"
#include "snap/result_io.hpp"
#include "util/rng.hpp"

namespace imobif::snap {
namespace {

/// A lossy scenario stepped until a delivery is in flight, so the events
/// section carries a packet.
std::string midflight_snapshot() {
  exp::ScenarioParams params;
  params.node_count = 60;
  params.area_m = util::Meters{800.0};
  params.mean_flow_bits = util::Bits{60.0 * 1024.0 * 8.0};
  params.seed = 97;
  params.fault.loss_rate = 0.2;
  params.fault.seed = 777;
  params.notify_retry_cap = 4;
  util::Rng rng(params.seed);
  const exp::FlowInstance instance = exp::sample_instance(params, rng);
  auto run = exp::InstanceRun::create(instance, params,
                                      core::MobilityMode::kInformed, {});
  run->advance(3000);
  const auto in_flight = [&] {
    for (const sim::Event& ev : run->network().simulator().pending()) {
      if (ev.tag.kind == sim::EventTag::Kind::kDeliver) return true;
    }
    return false;
  };
  while (!in_flight()) {
    if (run->advance(1)) {
      ADD_FAILURE() << "run ended with nothing in flight";
      break;
    }
  }
  return encode(*run);
}

std::uint64_t read_le(const std::string& bytes, std::size_t at,
                      std::size_t width) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < width; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(bytes[at + i]))
         << (8 * i);
  }
  return v;
}

void write_u64(std::string& bytes, std::size_t at, std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[at + i] = static_cast<char>(v >> (8 * i));
  }
}

/// Offset just past the begin marker of section `name`.
std::size_t after_section(const std::string& bytes, std::string_view name) {
  std::string marker(1, static_cast<char>(Tag::kSectionBegin));
  for (std::size_t i = 0; i < 4; ++i) {
    marker.push_back(static_cast<char>(name.size() >> (8 * i)));
  }
  marker.append(name);
  const std::size_t at = bytes.find(marker);
  EXPECT_NE(at, std::string::npos) << "no section " << name;
  return at + marker.size();
}

/// Offset of the tag byte of the extra_flows count in "meta": it follows
/// the config string, the mode, and four run options.
std::size_t extra_flows_count_at(const std::string& bytes) {
  const std::size_t config = after_section(bytes, "meta");
  const std::size_t config_len = read_le(bytes, config + 1, 4);
  return config + kEncodedU32 + config_len + kEncodedU8 + kEncodedBool +
         2 * kEncodedWord + kEncodedBool;
}

void expect_rejected(const std::string& bytes, const std::string& needle) {
  try {
    (void)restore(bytes);
    FAIL() << "restore accepted a corrupted snapshot";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(needle), std::string::npos) << what;
    EXPECT_NE(what.find("byte offset"), std::string::npos) << what;
  }
}

TEST(SnapRestoreReject, SnapshotRestoresUncorrupted) {
  const std::string bytes = midflight_snapshot();
  EXPECT_EQ(encode(*restore(bytes)), bytes);
}

TEST(SnapRestoreReject, HugeCountsThrowRuntimeErrorNotAllocate) {
  const std::string bytes = midflight_snapshot();
  const std::size_t extra = extra_flows_count_at(bytes);
  ASSERT_EQ(bytes[extra], static_cast<char>(Tag::kU64));
  ASSERT_EQ(read_le(bytes, extra + 1, 8), 0u);
  // Trusted, 2^62 would overflow vector::reserve (std::length_error) and
  // 2^34 exhaust memory (std::bad_alloc).
  for (const std::uint64_t count : {std::uint64_t{1} << 62,
                                    std::uint64_t{1} << 34}) {
    std::string corrupt = bytes;
    write_u64(corrupt, extra + 1, count);
    expect_rejected(corrupt, "count " + std::to_string(count));
  }

  std::string corrupt = bytes;
  const std::size_t events = after_section(bytes, "events");
  ASSERT_EQ(bytes[events], static_cast<char>(Tag::kU64));
  write_u64(corrupt, events + 1, std::uint64_t{1} << 40);
  expect_rejected(corrupt, "bytes left");
}

/// Offset of the first in-flight packet's type value (its tag byte).
std::size_t first_packet_type_at(const std::string& bytes) {
  std::size_t at = after_section(bytes, "events") + kEncodedWord;
  // Each event: when (i64), kind (u8), two u64 operands, then a packet
  // only for a delivery.
  constexpr std::size_t kRecord = 3 * kEncodedWord + kEncodedU8;
  const auto deliver =
      static_cast<std::uint8_t>(sim::EventTag::Kind::kDeliver);
  while (static_cast<std::uint8_t>(bytes[at + kEncodedWord + 1]) != deliver) {
    at += kRecord;
  }
  return at + kRecord;
}

TEST(SnapRestoreReject, PacketTypeMustMatchBody) {
  const std::string bytes = midflight_snapshot();
  const std::size_t type = first_packet_type_at(bytes);
  ASSERT_EQ(bytes[type], static_cast<char>(Tag::kU8));
  // type, sender id, x, y, residual energy, link dest, size, body index.
  const std::size_t body = type + kEncodedU8 + 6 * kEncodedWord;
  ASSERT_EQ(bytes[body], static_cast<char>(Tag::kU8));
  ASSERT_EQ(bytes[type + 1], bytes[body + 1]);

  // A data type over the body actually stored (or a hello type over a
  // data body) would restore cleanly and then throw
  // std::bad_variant_access from the receiver's std::get once delivered.
  std::string mismatched = bytes;
  mismatched[type + 1] = static_cast<char>(bytes[body + 1] == 1 ? 0 : 1);
  expect_rejected(mismatched, "does not match its body index");

  // A type past the last PacketType matches no body either.
  std::string unknown = bytes;
  unknown[type + 1] = 6;
  expect_rejected(unknown, "packet type 6");
}

TEST(SnapRestoreReject, NeighborIdsMustAscend) {
  const std::string bytes = midflight_snapshot();
  // Node 0: position (2 f64), faulted, total moved, five battery f64s,
  // then its neighbor count and entries (id first, 5 words each).
  const std::size_t count = after_section(bytes, "nodes") + kEncodedWord +
                            8 * kEncodedWord + kEncodedBool;
  ASSERT_EQ(bytes[count], static_cast<char>(Tag::kU64));
  ASSERT_GE(read_le(bytes, count + 1, 8), 2u);
  const std::size_t first_id = count + kEncodedWord;
  const std::size_t second_id = first_id + 5 * kEncodedWord;

  std::string duplicate = bytes;
  write_u64(duplicate, second_id + 1, read_le(bytes, first_id + 1, 8));
  expect_rejected(duplicate, "not strictly ascending");
}

/// A copy of `bytes` with the u8 value whose tag sits at `at` set to `v`.
std::string with_u8(const std::string& bytes, std::size_t at, std::uint8_t v) {
  EXPECT_EQ(bytes[at], static_cast<char>(Tag::kU8));
  std::string corrupt = bytes;
  corrupt[at + 1] = static_cast<char>(v);
  return corrupt;
}

TEST(SnapRestoreReject, MobilityModeOutOfRange) {
  const std::string bytes = midflight_snapshot();
  const std::size_t config = after_section(bytes, "meta");
  const std::size_t mode = config + kEncodedU32 + read_le(bytes, config + 1, 4);
  expect_rejected(with_u8(bytes, mode, 3), "invalid mobility mode 3");
}

TEST(SnapRestoreReject, StrategyIdOutOfRange) {
  const std::string bytes = midflight_snapshot();
  // "network": last progress, first death (flag and maybe a time), dead
  // nodes, data drops, the flow count, then the first flow's spec: id,
  // source, destination and three doubles before its strategy.
  std::size_t at = after_section(bytes, "network") + kEncodedWord;
  ASSERT_EQ(bytes[at], static_cast<char>(Tag::kBool));
  at += kEncodedBool + (bytes[at + 1] != 0 ? kEncodedWord : 0);
  ASSERT_GE(read_le(bytes, at + 2 * kEncodedWord + 1, 8), 1u);
  at += 3 * kEncodedWord + 6 * kEncodedWord;
  expect_rejected(with_u8(bytes, at, 9), "invalid strategy id 9");
}

TEST(SnapRestoreReject, EventKindOutOfRangeOrNotRunnable) {
  const std::string bytes = midflight_snapshot();
  // The first event record: when (i64), then its kind.
  const std::size_t kind = after_section(bytes, "events") + 2 * kEncodedWord;
  expect_rejected(with_u8(bytes, kind, 9), "invalid event kind 9");
  // A test callback is a kind no snapshot can carry.
  expect_rejected(with_u8(bytes, kind, 0), "cannot execute event kind 0");
}

TEST(SnapRestoreReject, UnknownPacketBody) {
  const std::string bytes = midflight_snapshot();
  const std::size_t type = first_packet_type_at(bytes);
  const std::size_t body = type + kEncodedU8 + 6 * kEncodedWord;
  // Type and body index agree, but no body has index 6.
  expect_rejected(with_u8(with_u8(bytes, type, 6), body, 6),
                  "unknown packet body index 6");
}

TEST(SnapRestoreReject, NodeCountMismatch) {
  const std::string bytes = midflight_snapshot();
  const std::size_t count = after_section(bytes, "nodes");
  ASSERT_EQ(bytes[count], static_cast<char>(Tag::kU64));
  std::string corrupt = bytes;
  write_u64(corrupt, count + 1, read_le(bytes, count + 1, 8) - 1);
  expect_rejected(corrupt, "node count mismatch");
}

TEST(SnapRestoreReject, MotionStateWithoutMobilityModel) {
  const std::string bytes = midflight_snapshot();
  const std::size_t flag = after_section(bytes, "mob");
  ASSERT_EQ(bytes[flag], static_cast<char>(Tag::kBool));
  ASSERT_EQ(bytes[flag + 1], 0);
  std::string corrupt = bytes;
  corrupt[flag + 1] = 1;
  expect_rejected(corrupt, "no mobility model");
}

TEST(SnapRestoreReject, TrailingValue) {
  std::string bytes = midflight_snapshot();
  bytes.push_back(static_cast<char>(Tag::kU8));
  bytes.push_back(0);
  expect_rejected(bytes, "trailing bytes");
}

TEST(SnapRestoreReject, ResultModeOutOfRange) {
  exp::RunResult result;
  result.mode = core::MobilityMode::kInformed;
  StateWriter w;
  encode_run_result(w, result);
  const std::string bytes(w.data());
  // The mode is the first value of the "result" section.
  const std::string corrupt = with_u8(bytes, after_section(bytes, "result"), 7);
  StateReader r(corrupt);
  try {
    (void)decode_run_result(r);
    FAIL() << "decode_run_result accepted a corrupted result";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("invalid mobility mode 7"), std::string::npos) << what;
    EXPECT_NE(what.find("byte offset"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace imobif::snap
