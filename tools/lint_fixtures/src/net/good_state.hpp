// Fixture: MUST be clean when linted together with ../snap/encode.cpp.
// Exercises every way a field can satisfy the exhaustiveness check:
// typed-persisted (accessor and raw-member encode), restore_-prefixed
// setter, a valid snap:derived rebuilder, a per-field snap:transient,
// a class-level snap:transient covering a config struct, and a field
// reached only through a call result (untyped evidence).
#pragma once

#include <cstdint>

#include "util/sink.hpp"

namespace fixture {

// snap:transient(config value type, rebuilt from scenario text)
struct RelayConfig {
  double gain = 1.0;
  int retries = 3;
};

// Persisted through relay.stamp().hop alone: the report's untyped_only
// list names HopStamp::hop.
struct HopStamp {
  std::uint64_t hop = 0;
};

class RelayState {
 public:
  const HopStamp& stamp() const { return stamp_; }
  std::uint64_t packets_sent() const { return packets_sent_; }
  void restore_queue_depth(std::uint64_t depth) { queue_depth_ = depth; }
  void rebuild_cache();

 private:
  std::uint64_t packets_sent_ = 0;
  double residual_j_ = 0.0;
  std::uint64_t queue_depth_ = 0;
  HopStamp stamp_;
  // snap:derived(rebuild_cache)
  double cache_ = 0.0;
  // snap:transient(scratch, never outlives one tick)
  double scratch_ = 0.0;
};

}  // namespace fixture
