// TrafficGenerator: a flow's inter-packet interval process.
//
// Network::start_flow historically scheduled every emission at the constant
// interval packet_bits / rate_bps. A generator replaces that constant with a
// stochastic process whose long-run mean equals the same base interval, so
// every model carries the flow's nominal rate and figures stay comparable
// across the traffic grid. The network only installs a generator for a
// non-CBR model; the legacy inline computation otherwise runs untouched and
// committed artifacts keep their exact bytes.
//
// Determinism: each generator owns one RNG stream seeded from the
// instance's traffic seed and the flow id (DESIGN.md §14), so the draw
// sequence is a pure function of (params, seed) — bit-identical replays for
// any worker count. Checkpointing: a generator is (rng state, scalar state
// vector); src/snap encodes both and re-seats them through rng() and
// restore_state().
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "traffic/params.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace imobif::traffic {

class Generator {
 public:
  explicit Generator(std::uint64_t seed) : rng_(seed) {}
  virtual ~Generator();
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  virtual ModelId id() const = 0;

  /// Interval from now until the next packet emission. `base` is the
  /// flow's nominal CBR interval (packet_bits / rate_bps); every model is
  /// mean-preserving around it.
  virtual util::Seconds next_interval(util::Seconds base) = 0;

  /// Model-specific scalar state beyond the RNG (checkpoints). The layout
  /// is private to each model; restore_state consumes exactly what state()
  /// produced and throws std::invalid_argument on a mismatch.
  virtual std::vector<double> state() const { return {}; }
  virtual void restore_state(const std::vector<double>& state);

  util::Rng& rng() { return rng_; }
  const util::Rng& rng() const { return rng_; }

 private:
  util::Rng rng_;
};

/// Builds the generator for `params`. CBR has none (Params::enabled() is
/// false and the network keeps its inline constant interval), so kCbr
/// throws std::invalid_argument.
std::unique_ptr<Generator> make_generator(const Params& params,
                                          std::uint64_t seed);

}  // namespace imobif::traffic
