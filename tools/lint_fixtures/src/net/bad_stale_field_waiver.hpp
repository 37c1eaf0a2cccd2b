// Fixture: linted together with ../snap/encode.cpp it MUST fire
// stale-waiver twice — an allow() whose field the codec now persists
// (so it suppresses nothing) and an allow() naming a misspelled rule.
#pragma once

#include <cstdint>

namespace fixture {

class TidyState {
 public:
  std::uint64_t count() const { return count_; }

 private:
  // lint:allow(unpersisted-field): finding: the codec persists this
  std::uint64_t count_ = 0;
  // lint:allow(unpersisted-fields): finding: misspelled rule name
  // snap:transient(scratch recomputed per tick)
  double scratch_ = 0.0;
};

}  // namespace fixture
