// Traffic-generator unit tests: CBR has no generator, mean preservation of
// the stochastic models, the (rng, state) checkpoint contract, and
// parameter validation (DESIGN.md §14).
#include <memory>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "traffic/generator.hpp"
#include "traffic/params.hpp"

namespace imobif::traffic {
namespace {

using util::Seconds;

Params params_for(ModelId id) {
  Params p;
  p.model = id;
  p.on_mean_s = Seconds{5.0};
  p.off_mean_s = Seconds{5.0};
  p.pareto_shape = 1.5;
  return p;
}

constexpr Seconds kBase{1.0};

// The legacy packet train is the network's inline constant interval; the
// factory refuses to build a generator for it.
TEST(TrafficGenerator, CbrHasNoGenerator) {
  EXPECT_THROW(make_generator(params_for(ModelId::kCbr), 11),
               std::invalid_argument);
}

TEST(TrafficGenerator, StochasticModelsApproximatelyPreserveTheMean) {
  for (const ModelId id : {ModelId::kOnOff, ModelId::kPareto}) {
    const auto gen = make_generator(params_for(id), 2024);
    double total = 0.0;
    constexpr int kDraws = 200000;
    for (int i = 0; i < kDraws; ++i) {
      const Seconds interval = gen->next_interval(kBase);
      EXPECT_GT(interval, Seconds{0.0});
      total += interval.value();
    }
    // Long-run mean interval ~ base, so every model carries the flow's
    // nominal rate (10% tolerance: pareto at shape 1.5 converges slowly).
    EXPECT_NEAR(total / kDraws, kBase.value(), 0.1)
        << "model " << to_string(id);
  }
}

TEST(TrafficGenerator, OnOffAlternatesBurstsAndGaps) {
  const auto gen = make_generator(params_for(ModelId::kOnOff), 5);
  const Seconds peak = kBase * 0.5;  // duty = 5 / (5 + 5)
  std::size_t peaks = 0;
  std::size_t gaps = 0;
  for (int i = 0; i < 1000; ++i) {
    const Seconds interval = gen->next_interval(kBase);
    if (interval == peak) {
      ++peaks;
    } else {
      EXPECT_GT(interval, peak);
      ++gaps;
    }
  }
  EXPECT_GT(peaks, 0u);
  EXPECT_GT(gaps, 0u);
  EXPECT_GT(peaks, gaps);  // bursts hold several packets on average
}

TEST(TrafficGenerator, SameSeedSameSequence) {
  for (const ModelId id : {ModelId::kOnOff, ModelId::kPareto}) {
    const auto a = make_generator(params_for(id), 77);
    const auto b = make_generator(params_for(id), 77);
    for (int i = 0; i < 500; ++i) {
      ASSERT_EQ(a->next_interval(kBase), b->next_interval(kBase))
          << "model " << to_string(id) << " draw " << i;
    }
  }
}

// The checkpoint contract: (rng state, state()) restored into a fresh
// generator reproduces the original's future draws exactly.
TEST(TrafficGenerator, RngPlusStateRestoresMidStream) {
  for (const ModelId id : {ModelId::kOnOff, ModelId::kPareto}) {
    const Params p = params_for(id);
    const auto original = make_generator(p, 31);
    for (int i = 0; i < 137; ++i) original->next_interval(kBase);

    const auto restored = make_generator(p, 1);
    restored->rng().set_state(original->rng().state());
    restored->restore_state(original->state());
    for (int i = 0; i < 500; ++i) {
      ASSERT_EQ(original->next_interval(kBase),
                restored->next_interval(kBase))
          << "model " << to_string(id) << " draw " << i;
    }
  }
}

TEST(TrafficGenerator, RestoreStateRejectsWrongSize) {
  const auto onoff = make_generator(params_for(ModelId::kOnOff), 1);
  EXPECT_THROW(onoff->restore_state({}), std::invalid_argument);
  EXPECT_THROW(onoff->restore_state({1.0, 2.0}), std::invalid_argument);
  const auto pareto = make_generator(params_for(ModelId::kPareto), 1);
  EXPECT_THROW(pareto->restore_state({1.0}), std::invalid_argument);
}

TEST(TrafficParams, StringRoundTrip) {
  for (const ModelId id :
       {ModelId::kCbr, ModelId::kOnOff, ModelId::kPareto}) {
    EXPECT_EQ(model_from_string(to_string(id)), id);
  }
  EXPECT_EQ(model_from_string("on-off"), ModelId::kOnOff);
  EXPECT_THROW(model_from_string("firehose"), std::invalid_argument);
}

TEST(TrafficParams, ValidateCatchesBadKnobs) {
  Params p = params_for(ModelId::kOnOff);
  p.on_mean_s = Seconds{0.0};
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = params_for(ModelId::kOnOff);
  p.off_mean_s = Seconds{-1.0};
  EXPECT_THROW(p.validate(), std::invalid_argument);

  p = params_for(ModelId::kPareto);
  p.pareto_shape = 1.0;  // infinite mean below/at 1
  EXPECT_THROW(p.validate(), std::invalid_argument);

  // CBR (disabled) never validates the stochastic knobs.
  Params off;
  off.pareto_shape = 0.0;
  EXPECT_NO_THROW(off.validate());
  EXPECT_FALSE(off.enabled());
}

}  // namespace
}  // namespace imobif::traffic
