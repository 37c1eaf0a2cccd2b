#include "energy/radio_model.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace imobif::energy {
namespace {

using util::Bits;
using util::Joules;
using util::JoulesPerBit;
using util::Meters;

RadioParams params(double a, double b, double alpha) {
  RadioParams p;
  p.a = a;
  p.b = b;
  p.alpha = alpha;
  return p;
}

TEST(RadioParams, ValidationRejectsBadValues) {
  EXPECT_THROW(params(-1e-7, 1e-10, 2.0).validate(), std::invalid_argument);
  EXPECT_THROW(params(1e-7, 0.0, 2.0).validate(), std::invalid_argument);
  EXPECT_THROW(params(1e-7, -1e-10, 2.0).validate(), std::invalid_argument);
  EXPECT_THROW(params(1e-7, 1e-10, 0.5).validate(), std::invalid_argument);
  EXPECT_NO_THROW(params(0.0, 1e-10, 1.0).validate());
}

TEST(RadioModel, PowerPerBitMatchesFormula) {
  const RadioEnergyModel m(params(1e-7, 1e-10, 2.0));
  EXPECT_DOUBLE_EQ(m.power_per_bit(Meters{0.0}).value(), 1e-7);
  EXPECT_DOUBLE_EQ(m.power_per_bit(Meters{100.0}).value(),
                   1e-7 + 1e-10 * 1e4);
}

TEST(RadioModel, NegativeDistanceThrows) {
  const RadioEnergyModel m(params(1e-7, 1e-10, 2.0));
  EXPECT_THROW(m.power_per_bit(Meters{-1.0}), std::invalid_argument);
}

TEST(RadioModel, TransmitEnergyLinearInBits) {
  const RadioEnergyModel m(params(1e-7, 1e-10, 2.0));
  const Joules one = m.transmit_energy(Meters{100.0}, Bits{1.0});
  EXPECT_DOUBLE_EQ(m.transmit_energy(Meters{100.0}, Bits{1000.0}).value(),
                   (1000.0 * one).value());
  EXPECT_DOUBLE_EQ(m.transmit_energy(Meters{100.0}, Bits{0.0}).value(), 0.0);
  EXPECT_THROW(m.transmit_energy(Meters{100.0}, Bits{-1.0}),
               std::invalid_argument);
}

TEST(RadioModel, SustainableBitsInvertsTransmit) {
  const RadioEnergyModel m(params(1e-7, 1e-10, 2.0));
  const Bits bits = m.sustainable_bits(Meters{150.0}, Joules{10.0});
  EXPECT_NEAR(m.transmit_energy(Meters{150.0}, bits).value(), 10.0, 1e-9);
  EXPECT_DOUBLE_EQ(m.sustainable_bits(Meters{150.0}, Joules{0.0}).value(),
                   0.0);
  EXPECT_DOUBLE_EQ(m.sustainable_bits(Meters{150.0}, Joules{-5.0}).value(),
                   0.0);
}

// Parameterized over path-loss exponents: monotonicity and convexity of P.
class RadioAlpha : public ::testing::TestWithParam<double> {};

TEST_P(RadioAlpha, PowerMonotoneIncreasing) {
  const RadioEnergyModel m(params(1e-7, 1e-10, GetParam()));
  JoulesPerBit prev = m.power_per_bit(Meters{0.0});
  for (double d = 10.0; d <= 300.0; d += 10.0) {
    const JoulesPerBit cur = m.power_per_bit(Meters{d});
    EXPECT_GT(cur, prev);
    prev = cur;
  }
}

TEST_P(RadioAlpha, EvenSplitNeverWorseThanDirect) {
  // Relaying at the midpoint halves the per-hop distance; with alpha >= 1
  // and two transmissions, total amplifier energy never exceeds the direct
  // transmission's amplifier energy (this is what makes relay placement on
  // the line optimal).
  const RadioEnergyModel m(params(0.0, 1e-10, GetParam()));
  for (double d = 20.0; d <= 300.0; d += 20.0) {
    const Joules direct = m.transmit_energy(Meters{d}, Bits{1000.0});
    const Joules two_hop =
        2.0 * m.transmit_energy(Meters{d / 2.0}, Bits{1000.0});
    EXPECT_LE(two_hop, direct + Joules{1e-12});
  }
}

INSTANTIATE_TEST_SUITE_P(Alphas, RadioAlpha,
                         ::testing::Values(1.0, 2.0, 3.0, 4.0));

}  // namespace
}  // namespace imobif::energy
