// Crash-resumable sweep units (DESIGN.md §9).
//
// A checkpointed sweep maps every unit of work to two files in the
// checkpoint directory:
//
//   <unit>.result  — the finished unit's RunResult (snap codec); written
//                    atomically when the unit completes, after which its
//                    checkpoint is deleted.
//   <unit>.ckpt    — a periodic mid-flight snapshot (snap::Checkpointer),
//                    refreshed at chunk boundaries while the unit runs.
//
// A unit's name starts with a digest of the sweep's scenario text and run
// options, so sweeps with different inputs never read each other's files,
// however many of them share a directory.
//
// Resuming (--resume) walks the same unit names: a .result short-circuits
// the unit entirely, a .ckpt restores the paused run and finishes it, and
// neither means the unit starts fresh. Because instance i is always
// sampled from the i-th fork of Rng(seed) and a restored run replays the
// exact event stream of the original, a killed-and-resumed sweep produces
// a byte-identical report (wall_ms aside) at any worker count.
#pragma once

#include <string>

namespace imobif::runtime {

struct CheckpointOptions {
  /// Directory for <unit>.result / <unit>.ckpt files; empty disables
  /// checkpointing entirely (units run in memory only).
  std::string dir;

  /// Reuse files found in `dir` instead of recomputing their units.
  bool resume = false;

  /// Simulated seconds between mid-flight snapshots (snap::Checkpointer).
  /// Zero writes only the .result files (checkpoint-on-completion only).
  double every_sim_s = 30.0;

  bool enabled() const { return !dir.empty(); }
};

}  // namespace imobif::runtime
