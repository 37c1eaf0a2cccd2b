// Checkpointer: periodic snapshot writer for a running InstanceRun.
//
// Hooks into InstanceRun's chunk-boundary callback (the only points where
// a run can be suspended with no loop bookkeeping in flight) and saves a
// snapshot whenever enough simulated time has passed since the last
// write. Writes are atomic (tmp + rename), so a process killed
// mid-checkpoint leaves the previous snapshot intact — the crash-resume
// contract of the sweep driver.
#pragma once

#include <cstdint>
#include <string>

#include "exp/instance_run.hpp"
#include "sim/time.hpp"

namespace imobif::snap {

// snap:transient(checkpoint driver machinery, not simulated run state)
class Checkpointer {
 public:
  /// Snapshots to `path` once `every_sim_s` simulated seconds have passed
  /// since the last write; zero never snapshots.
  Checkpointer(std::string path, double every_sim_s);

  /// Installs the chunk-boundary hook on `run`. The first hook call only
  /// baselines the clock; writes start once `every_sim_s` has passed
  /// relative to that baseline. A zero cadence installs nothing.
  void install(exp::InstanceRun& run);

  std::uint64_t checkpoints_written() const { return written_; }
  const std::string& path() const { return path_; }

 private:
  void on_chunk_boundary(exp::InstanceRun& run);
  void write_now(exp::InstanceRun& run);

  std::string path_;
  double every_sim_s_;
  bool armed_ = false;
  sim::Time last_time_ = sim::Time::zero();
  std::uint64_t written_ = 0;
};

}  // namespace imobif::snap
