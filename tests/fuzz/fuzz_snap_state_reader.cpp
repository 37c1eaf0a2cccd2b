// Fuzz target for the snapshot codec and restore: arbitrary untrusted
// bytes fed to snap::StateReader / snap::debug_dump must be rejected with a
// typed std::runtime_error, and snap::restore must either rebuild a run or
// throw std::runtime_error / std::invalid_argument (the scenario text is
// validated like a config file) — never a crash, hang, other exception or
// undefined behavior. A checkpoint file is the one input the simulator
// reads that it did not produce in the same process, so this is the trust
// boundary. The corpus holds a real mid-flight snapshot, so mutations reach
// every section restore decodes.
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "snap/codec.hpp"
#include "snap/snapshot.hpp"

namespace {

// Runs one typed-accessor walk on a fresh reader; every structured
// rejection path throws std::runtime_error, which is the contract.
template <typename Fn>
void probe(const std::string& bytes, Fn&& fn) {
  try {
    imobif::snap::StateReader reader(bytes);
    fn(reader);
  } catch (const std::runtime_error&) {
    // Expected for malformed input.
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string bytes(reinterpret_cast<const char*>(data), size);

  // debug_dump walks the entire tagged stream generically, exercising
  // every decoder branch (tag dispatch, length prefixes, section nesting).
  try {
    (void)imobif::snap::debug_dump(bytes);
  } catch (const std::runtime_error&) {
  }

  // The typed API takes a different path through take_tag(): each accessor
  // demands a specific tag, so drive every accessor until first rejection.
  probe(bytes, [](auto& r) { while (!r.at_end()) (void)r.u8(); });
  probe(bytes, [](auto& r) { while (!r.at_end()) (void)r.u32(); });
  probe(bytes, [](auto& r) { while (!r.at_end()) (void)r.u64(); });
  probe(bytes, [](auto& r) { while (!r.at_end()) (void)r.i64(); });
  probe(bytes, [](auto& r) { while (!r.at_end()) (void)r.f64(); });
  probe(bytes, [](auto& r) { while (!r.at_end()) (void)r.boolean(); });
  probe(bytes, [](auto& r) { while (!r.at_end()) (void)r.str(); });
  probe(bytes, [](auto& r) {
    r.begin_section("nodes");
    while (!r.at_end()) (void)r.f64();
    r.end_section();
  });

  try {
    (void)imobif::snap::restore(bytes);
  } catch (const std::runtime_error&) {
  } catch (const std::invalid_argument&) {
  }
  return 0;
}
