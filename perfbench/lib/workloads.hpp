// The benchmark's four workloads (see ../README.md for why each exists).
//
// Every workload is a closed-loop batch over a fixed input set: the
// constructor does the set-up (timed as setup_s), run_batch() does one unit
// of measured work. `paper_suite` and `checkpoint_roundtrip` replay the same
// inputs in every batch; `beacon_scale` and `dataplane_flows` advance one
// network by a fixed simulated duration per batch, so their state evolves.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lib/trace.hpp"

namespace perfbench {

/// Inputs are generated from `seed % kVariants`; the committed reference
/// digests cover every variant.
inline constexpr std::uint64_t kVariants = 16;

struct WorkloadConfig {
  std::uint64_t variant = 0;
  /// Thread-pool size for paper_suite (the machine's core count).
  std::size_t workers = 1;
  /// Checkout root; paper_suite reads bench/traces/demo.trace from it.
  std::string repo_root = ".";
  /// checkpoint_roundtrip without the round trips: the uninterrupted runs
  /// its reference digests are made from.
  bool uninterrupted = false;
};

struct BatchResult {
  double sim_s = 0.0;   ///< simulated seconds advanced, summed over runs
  double events = 0.0;  ///< executed events (paper_suite: medium deliveries)
  double runs = 0.0;    ///< InstanceRun runs, or fixed-duration windows
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Digest of this batch's outputs (repeating workloads) or of the network
  /// state after the batch (evolving workloads).
  std::uint64_t digest = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One batch. With a tracer the batch runs with the decorators installed
  /// and merges its spans and call statistics into it.
  virtual BatchResult run_batch(Tracer* tracer) = 0;
  /// True when every batch replays the same inputs, so every batch must
  /// reproduce the reference digest; false when batches continue one
  /// network and only the first batch is checked.
  virtual bool repeats() const = 0;
  /// Batches one measured part runs when batches differ (an evolving
  /// network's later windows do more or less work than its first), so that
  /// every part measures the same simulated span whatever the host's speed;
  /// 0 when every batch does the same work and a part runs batches until
  /// its window is used up.
  virtual std::size_t batches_per_part() const = 0;
};

const std::vector<std::string>& workload_names();

/// Builds the workload (its set-up). Throws std::invalid_argument for an
/// unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadConfig& config);

}  // namespace perfbench
