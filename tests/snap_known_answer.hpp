// The fixed value sequence the snapshot known-answer tests feed to a sink
// (snap::StateWriter or snap::StateHash): every tag, the edge values of
// each type, an empty and a binary string, and nested sections.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <string>

namespace imobif::snap::test {

template <class Sink>
void known_answer_sequence(Sink& s) {
  s.begin_section("kat");
  s.u8(0xab);
  s.u32(0xdeadbeefu);
  s.u64(std::numeric_limits<std::uint64_t>::max());
  s.i64(std::numeric_limits<std::int64_t>::min());
  s.f64(-0.0);
  s.f64(std::bit_cast<double>(0x7ff800000000beefull));  // NaN with payload
  s.boolean(true);
  s.boolean(false);
  s.str("");
  s.str(std::string("\x00\xff\x7f" "ab", 5));
  s.begin_section("inner");
  s.u64(1);
  s.end_section();
  s.end_section();
}

}  // namespace imobif::snap::test
