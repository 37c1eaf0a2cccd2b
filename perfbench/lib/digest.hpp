// Behaviour-level output digests for the benchmark's correctness gate.
//
// Only outcomes a user of the simulator sees go in: RunResult fields, final
// node positions and residual energies, Medium drop counters and per-flow
// delivered bits. Event and executed counts never do, so a change that
// executes fewer events for the same behaviour (batched deliveries, say)
// keeps every reference digest.
#pragma once

#include <cstdint>
#include <string>

#include "exp/runner.hpp"
#include "net/network.hpp"

namespace perfbench {

/// FNV-1a over the little-endian bytes of each value fed in.
class Digest {
 public:
  void u64(std::uint64_t v);
  void f64(double v);
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::string to_hex(std::uint64_t v);

void hash_result(Digest& d, const imobif::exp::RunResult& r);
/// Node positions and residual energies, drop counters, and per-flow
/// delivered bits and notification counts, in node/flow id order.
void hash_network(Digest& d, const imobif::net::Network& network);

}  // namespace perfbench
