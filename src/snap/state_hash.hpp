// StateHash: a 64-bit incremental digest over the snapshot value stream.
//
// Shares snap::StateWriter's archive operations (Archive), so every field
// list in src/snap can feed either one: hashing a run walks exactly the
// values an encode would write, without materializing the bytes.
//
// Each value costs one mixing step: its payload (zero-extended to 64 bits)
// is xored into the state, multiplied by an odd constant and folded with
// an xor-shift, and then the value's tag is xored in. Strings and section
// names mix their length that way and then their bytes eight at a time
// (the last block zero-padded). Every step is a bijection of the state for
// fixed input, so two streams that differ in one value's tag or payload and
// agree afterwards always end with different digests; the tags and lengths
// in the stream keep a u64 apart from an f64 with the same bits and "ab","c"
// apart from "a","bc". digest() applies a final avalanche.
//
// This is a divergence detector for replay bisection, not a cryptographic
// commitment; 64 bits is ample for comparing two runs event-by-event. The
// only stored digests are the checkpoint unit-file prefixes of
// runtime/sweep.cpp (config_digest in snapshot.hpp); a build whose digest
// differs just recomputes those units instead of resuming them.
#pragma once

#include <cstdint>
#include <string_view>

#include "snap/codec.hpp"

namespace imobif::snap {

// snap:transient(hash accumulator, not simulated run state)
class StateHash : public Archive<StateHash, false> {
 public:
  void begin_section(std::string_view name) {
    text(Tag::kSectionBegin, name);
  }
  void end_section() { put(Tag::kSectionEnd, 0); }

  std::uint64_t digest() const {
    std::uint64_t h = hash_;
    h = (h ^ (h >> 33)) * 0xff51afd7ed558ccdull;
    h = (h ^ (h >> 33)) * 0xc4ceb9fe1a85ec53ull;
    return h ^ (h >> 33);
  }

 private:
  friend class Archive<StateHash, false>;

  void word(std::uint64_t w) {
    hash_ = (hash_ ^ w) * kMul;
    hash_ ^= hash_ >> 32;
  }
  /// One value: its payload zero-extended to 64 bits, then its tag.
  void put(Tag tag, std::uint64_t payload) {
    word(payload);
    hash_ ^= static_cast<std::uint64_t>(tag);
  }
  void text(Tag tag, std::string_view v) {
    put(tag, v.size());
    std::size_t i = 0;
    for (; i + 8 <= v.size(); i += 8) {
      word(detail::load_le<std::uint64_t>(v.data() + i));
    }
    if (i < v.size()) {
      char tail[8] = {};
      for (std::size_t k = 0; i + k < v.size(); ++k) tail[k] = v[i + k];
      word(detail::load_le<std::uint64_t>(tail));
    }
  }

  static constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ull;  // odd

  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

}  // namespace imobif::snap
