#include "energy/mobility_model.hpp"

#include <gtest/gtest.h>

namespace imobif::energy {
namespace {

using util::Meters;

MobilityParams params(double k, double max_step) {
  MobilityParams p;
  p.k = k;
  p.max_step_m = max_step;
  return p;
}

TEST(MobilityParams, Validation) {
  EXPECT_THROW(params(-0.1, 1.0).validate(), std::invalid_argument);
  EXPECT_THROW(params(0.5, 0.0).validate(), std::invalid_argument);
  EXPECT_THROW(params(0.5, -1.0).validate(), std::invalid_argument);
  EXPECT_NO_THROW(params(0.0, 1.0).validate());  // free movement allowed
}

TEST(MobilityModel, MoveEnergyLinear) {
  const MobilityEnergyModel m(params(0.5, 1.0));
  EXPECT_DOUBLE_EQ(m.move_energy(Meters{0.0}).value(), 0.0);
  EXPECT_DOUBLE_EQ(m.move_energy(Meters{10.0}).value(), 5.0);
  EXPECT_DOUBLE_EQ(m.move_energy(Meters{100.0}).value(), 50.0);
}

TEST(MobilityModel, NegativeDistanceThrows) {
  const MobilityEnergyModel m(params(0.5, 1.0));
  EXPECT_THROW(m.move_energy(Meters{-1.0}), std::invalid_argument);
}

TEST(MobilityModel, FreeMovementCostsNothing) {
  const MobilityEnergyModel m(params(0.0, 1.0));
  EXPECT_DOUBLE_EQ(m.move_energy(Meters{100.0}).value(), 0.0);
}

TEST(MobilityModel, MaxStepExposed) {
  const MobilityEnergyModel m(params(0.5, 2.5));
  EXPECT_DOUBLE_EQ(m.max_step().value(), 2.5);
}

// Parameterized over the paper's k values.
class MobilityK : public ::testing::TestWithParam<double> {};

TEST_P(MobilityK, EnergyProportionalToK) {
  const MobilityEnergyModel m(params(GetParam(), 1.0));
  EXPECT_DOUBLE_EQ(m.move_energy(Meters{42.0}).value(),
                   GetParam() * 42.0);
}

INSTANTIATE_TEST_SUITE_P(PaperKs, MobilityK,
                         ::testing::Values(0.1, 0.5, 1.0));

}  // namespace
}  // namespace imobif::energy
