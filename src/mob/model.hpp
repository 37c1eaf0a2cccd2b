// MobilityModel: the background-motion model zoo (DESIGN.md §14).
//
// A model owns per-node kinematic state plus one RNG stream and advances
// every node one tick per step() call, writing the new positions in place.
// Determinism contract: the position sequence is a pure function of
// (params, seed, initial positions). The seed rides in the FlowInstance —
// drawn exactly once per instance from the sampler's fork chain — so the
// three comparison modes replay identical ambient motion and results stay
// bit-identical across worker counts.
//
// Checkpointing mirrors traffic::Generator: a model is (rng state, scalar
// state vector) with a model-private layout; src/snap encodes both and
// re-seats them through rng() and restore_state().
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "geom/vec2.hpp"
#include "mob/params.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace imobif::mob {

class MobilityModel {
 public:
  MobilityModel(const ModelParams& params, std::uint64_t seed,
                util::Meters area)
      : params_(params), rng_(seed), area_(area) {}
  virtual ~MobilityModel();
  MobilityModel(const MobilityModel&) = delete;
  MobilityModel& operator=(const MobilityModel&) = delete;

  virtual ModelId id() const = 0;

  /// Advances one tick ending at absolute simulated time `now_s`;
  /// `positions` holds every node's current position and receives the new
  /// ones. Synthetic models keep positions inside [0, area]^2; the trace
  /// model reproduces its file verbatim.
  virtual void step(util::Seconds now_s, util::Seconds dt,
                    std::vector<geom::Vec2>& positions) = 0;

  /// Model-specific scalar state beyond the RNG (checkpoints); the layout
  /// is private to each model, and restore_state consumes exactly what
  /// state() produced (std::invalid_argument on a mismatch).
  virtual std::vector<double> state() const { return {}; }
  virtual void restore_state(const std::vector<double>& state);

  const ModelParams& params() const { return params_; }
  util::Rng& rng() { return rng_; }
  const util::Rng& rng() const { return rng_; }

 protected:
  util::Meters area() const { return area_; }
  /// Clamps a coordinate into the arena.
  double clamp_coord(double v) const;

 private:
  ModelParams params_;
  util::Rng rng_;
  // snap:transient(immutable area config; models are rebuilt by make_model before state restore)
  util::Meters area_;
};

/// Builds the model for `params` (which must be enabled), seeding its RNG
/// stream with `seed` and initializing per-node state from the instance's
/// sampled placement. The kTrace model reads params.trace_file here.
std::unique_ptr<MobilityModel> make_model(
    const ModelParams& params, std::uint64_t seed, util::Meters area,
    const std::vector<geom::Vec2>& initial_positions);

}  // namespace imobif::mob
