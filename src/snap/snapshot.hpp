// Snapshot: serialize a live InstanceRun and reconstruct it mid-flight
// (DESIGN.md §9).
//
// encode() walks the full run through the canonical codec: the scenario
// parameters / options / sampled instance (the "meta" section, everything
// needed to rebuild the object graph), then the dynamic state — simulator
// clock, per-flow progress, medium counters and channel-loss state, every
// node's position/battery/neighbor-table/flow-table, policy counters, and
// the pending event records (with each in-flight packet inline).
// restore() inverts it: InstanceRun::create_shell() rebuilds the wiring,
// the restore accessors on each layer re-seat the state, and the event
// records are re-inserted through Network::restore_event in their original
// (time, sequence) order — so a restored run executes the exact event
// stream the original would have, bit for bit, even in a fresh process.
//
// state_hash() digests only the dynamic sections (not "meta"): it answers
// "are these two runs in the same state?", which is exactly what replay
// bisection compares across runs that intentionally differ in a meta
// parameter (e.g. the fault seed).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "exp/instance_run.hpp"

namespace imobif::snap {

/// Serializes the run (meta + dynamic state + pending events) as a codec
/// byte string. Throws std::invalid_argument when the run holds state a
/// snapshot cannot reconstruct (a pending test-callback event).
std::string encode(exp::InstanceRun& run);

/// encode() + atomic file write (see StateWriter::write_file).
void save(exp::InstanceRun& run, const std::string& path);

/// Rebuilds a run from encode() output in any process. The returned run
/// continues exactly where the original stood; advance()ing both yields
/// identical results. Throws std::runtime_error, naming the byte offset,
/// on codec errors (bad magic, unsupported version, layout mismatch) and
/// on corrupt contents (a count larger than the bytes left, a packet type
/// that disagrees with its body, an out-of-range time or position), and
/// std::invalid_argument when the embedded scenario or state is one the
/// simulator rejects; the snapshot fuzz target checks that nothing else
/// escapes.
std::unique_ptr<exp::InstanceRun> restore(const std::string& data);

/// read_file() + restore().
std::unique_ptr<exp::InstanceRun> restore_file(const std::string& path);

/// Builds a *fresh* run from a snapshot's meta section alone: same params,
/// options, mode, and sampled instance, but freshly constructed (warmup
/// re-executed, flow restarted at t=0) with the dynamic sections ignored.
/// This is the "checkpoint + seed" replay path: advance the twin to the
/// checkpoint's executed-event count and any hash mismatch pinpoints
/// nondeterminism or a behaviour change since the snapshot was taken.
std::unique_ptr<exp::InstanceRun> restore_fresh(const std::string& data);

/// 64-bit digest of the run's dynamic state (everything but "meta").
/// Equal hashes after equal event counts mean the runs have not diverged.
std::uint64_t state_hash(exp::InstanceRun& run);

/// 64-bit digest of a sweep's inputs: the scenario's config text, then
/// `options` through the same field list the "meta" section writes. Sweeps
/// that differ in any scenario key or run option get different digests;
/// it names checkpointed sweep units (runtime/sweep.hpp).
std::uint64_t config_digest(const exp::ScenarioParams& params,
                            const exp::RunOptions& options);

/// Human-readable JSON rendering of encode() (codec debug-dump mode).
std::string debug_json(exp::InstanceRun& run);

}  // namespace imobif::snap
