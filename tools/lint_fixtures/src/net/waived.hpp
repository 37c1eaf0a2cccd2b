// Fixture: MUST be clean when linted together with ../snap/encode.cpp —
// the unpersisted legacy_ field is covered by a justified waiver, and a
// waiver that suppresses a live finding must NOT be reported stale.
#pragma once

#include <cstdint>

namespace fixture {

class WaivedState {
 public:
  std::uint64_t seen() const { return seen_; }

 private:
  std::uint64_t seen_ = 0;
  // lint:allow(unpersisted-field): migration shim until codec v3
  std::uint64_t legacy_ = 0;
};

}  // namespace fixture
