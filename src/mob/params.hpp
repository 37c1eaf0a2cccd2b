// Background-mobility model parameters (src/mob — DESIGN.md §14).
//
// kNone preserves the paper's static topology byte-for-byte: no motion
// events are scheduled, no RNG is drawn, and every committed figure keeps
// its exact bytes. The enabled models drive ambient node motion through
// the simulator's event queue, interleaved with (and independent of) the
// strategy-driven relay motion in core/.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/units.hpp"

namespace imobif::mob {

enum class ModelId : std::uint8_t {
  kNone = 0,            ///< static background topology (the paper's default)
  kRandomWaypoint = 1,  ///< waypoint + speed + pause per node
  kGaussMarkov = 2,     ///< memory-alpha speed/heading random walk
  kGroup = 3,           ///< reference-point group mobility (RPGM)
  kTrace = 4,           ///< waypoint schedules parsed from a trace file
};

const char* to_string(ModelId id);
ModelId model_from_string(const std::string& name);

// snap:transient(config struct, persisted wholesale as scenario text in the meta section)
struct ModelParams {
  ModelId model = ModelId::kNone;
  /// Background-motion tick: every enabled model advances all nodes once
  /// per tick through a kMobTick simulator event.
  util::Seconds update_s{1.0};
  /// Node speed range (random waypoint / group draws; the Gauss–Markov
  /// clamp, whose mean speed is the midpoint of the range).
  util::MetersPerSecond speed_min{0.5};
  util::MetersPerSecond speed_max{1.5};
  /// Pause at each waypoint (random waypoint and group reference points).
  util::Seconds pause_s{10.0};
  /// Gauss–Markov memory (0 = white noise, 1 = frozen) and per-tick noise.
  double gm_alpha = 0.75;
  util::MetersPerSecond gm_speed_sigma{0.25};
  double gm_dir_sigma_rad = 0.5;
  /// Reference-point group mobility: nodes join groups round-robin; each
  /// group's reference point walks like a random-waypoint node and members
  /// jitter within group_radius_m of their formation offset.
  std::size_t group_count = 4;
  util::Meters group_radius_m{50.0};
  /// Trace file path (kTrace); format in DESIGN.md §14. The path is
  /// embedded in scenario text, so a replay must see the same file.
  std::string trace_file;
  /// Charge background motion at k J/m against the battery. Off by
  /// default: ambient motion models the environment, not actuation the
  /// strategy pays for.
  bool charge_energy = false;

  bool enabled() const { return model != ModelId::kNone; }
  void validate() const;
};

}  // namespace imobif::mob
