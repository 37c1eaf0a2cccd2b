#include "traffic/generator.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace imobif::traffic {

using util::Seconds;

Generator::~Generator() = default;

void Generator::restore_state(const std::vector<double>& state) {
  if (!state.empty()) {
    throw std::invalid_argument("traffic: unexpected generator state");
  }
}

namespace {

/// Exponential ON/OFF bursts. During an ON period packets leave at the
/// boosted peak interval base * duty (duty = on / (on + off)), so the
/// long-run mean interval stays the nominal `base`; when the ON budget
/// runs out, an exponential OFF gap precedes the next burst.
class OnOffGenerator final : public Generator {
 public:
  OnOffGenerator(const Params& params, std::uint64_t seed)
      : Generator(seed), params_(params) {}
  ModelId id() const override { return ModelId::kOnOff; }

  Seconds next_interval(Seconds base) override {
    const double duty =
        params_.on_mean_s.value() /
        (params_.on_mean_s.value() + params_.off_mean_s.value());
    const Seconds peak = base * duty;
    if (remaining_on_ >= peak) {
      remaining_on_ -= peak;
      return peak;
    }
    const Seconds gap{rng().exponential(params_.off_mean_s.value())};
    remaining_on_ = Seconds{rng().exponential(params_.on_mean_s.value())};
    return peak + gap;
  }

  std::vector<double> state() const override {
    return {remaining_on_.value()};
  }
  void restore_state(const std::vector<double>& state) override {
    if (state.size() != 1) {
      throw std::invalid_argument("traffic: bad on/off generator state");
    }
    remaining_on_ = Seconds{state[0]};
  }

 private:
  Params params_;
  /// Unspent ON-period budget; the first call draws the first burst.
  Seconds remaining_on_{0.0};
};

/// Heavy-tailed Pareto gaps, mean-normalized to `base`:
/// X = base * (shape - 1) / shape * (1 - U)^(-1 / shape).
class ParetoGenerator final : public Generator {
 public:
  ParetoGenerator(const Params& params, std::uint64_t seed)
      : Generator(seed), shape_(params.pareto_shape) {}
  ModelId id() const override { return ModelId::kPareto; }

  Seconds next_interval(Seconds base) override {
    const double u = rng().uniform01();
    const double sample = std::pow(1.0 - u, -1.0 / shape_);
    return base * ((shape_ - 1.0) / shape_ * sample);
  }

 private:
  double shape_;
};

}  // namespace

std::unique_ptr<Generator> make_generator(const Params& params,
                                          std::uint64_t seed) {
  params.validate();
  switch (params.model) {
    case ModelId::kCbr:
      throw std::invalid_argument("traffic: CBR has no generator");
    case ModelId::kOnOff:
      return std::make_unique<OnOffGenerator>(params, seed);
    case ModelId::kPareto:
      return std::make_unique<ParetoGenerator>(params, seed);
  }
  throw std::invalid_argument("traffic: unknown model id");
}

}  // namespace imobif::traffic
