#include "energy/battery.hpp"

#include <gtest/gtest.h>

namespace imobif::energy {
namespace {

using util::Joules;

TEST(Battery, InitialState) {
  Battery b(Joules{10.0});
  EXPECT_DOUBLE_EQ(b.residual().value(), 10.0);
  EXPECT_DOUBLE_EQ(b.initial().value(), 10.0);
  EXPECT_FALSE(b.depleted());
  EXPECT_DOUBLE_EQ(b.consumed_total().value(), 0.0);
}

TEST(Battery, NegativeInitialThrows) {
  EXPECT_THROW(Battery(Joules{-1.0}), std::invalid_argument);
}

TEST(Battery, DrawReducesResidual) {
  Battery b(Joules{10.0});
  EXPECT_DOUBLE_EQ(b.draw(Joules{3.0}, DrawKind::kTransmit).value(), 3.0);
  EXPECT_DOUBLE_EQ(b.residual().value(), 7.0);
  EXPECT_DOUBLE_EQ(b.consumed_transmit().value(), 3.0);
  EXPECT_DOUBLE_EQ(b.consumed_total().value(), 3.0);
}

TEST(Battery, DrawByCategory) {
  Battery b(Joules{10.0});
  b.draw(Joules{1.0}, DrawKind::kTransmit);
  b.draw(Joules{2.0}, DrawKind::kMove);
  b.draw(Joules{3.0}, DrawKind::kOther);
  EXPECT_DOUBLE_EQ(b.consumed_transmit().value(), 1.0);
  EXPECT_DOUBLE_EQ(b.consumed_move().value(), 2.0);
  EXPECT_DOUBLE_EQ(b.consumed_other().value(), 3.0);
  EXPECT_DOUBLE_EQ(b.consumed_total().value(), 6.0);
}

TEST(Battery, OverdrawClampsToResidual) {
  Battery b(Joules{5.0});
  EXPECT_DOUBLE_EQ(b.draw(Joules{8.0}, DrawKind::kMove).value(), 5.0);
  EXPECT_DOUBLE_EQ(b.residual().value(), 0.0);
  EXPECT_TRUE(b.depleted());
}

TEST(Battery, NegativeDrawThrows) {
  Battery b(Joules{5.0});
  EXPECT_THROW(b.draw(Joules{-1.0}, DrawKind::kOther), std::invalid_argument);
}

TEST(Battery, DepletionCallbackFiresExactlyOnce) {
  Battery b(Joules{5.0});
  int calls = 0;
  b.set_depletion_callback([&] { ++calls; });
  b.draw(Joules{4.0}, DrawKind::kTransmit);
  EXPECT_EQ(calls, 0);
  b.draw(Joules{2.0}, DrawKind::kTransmit);
  EXPECT_EQ(calls, 1);
  b.draw(Joules{1.0}, DrawKind::kTransmit);  // already dead; no second call
  EXPECT_EQ(calls, 1);
}

TEST(Battery, DrawZeroIsNoOp) {
  Battery b(Joules{5.0});
  EXPECT_DOUBLE_EQ(b.draw(Joules{0.0}, DrawKind::kOther).value(), 0.0);
  EXPECT_DOUBLE_EQ(b.residual().value(), 5.0);
}

TEST(Battery, ZeroInitialIsBornDepleted) {
  Battery b(Joules{0.0});
  EXPECT_TRUE(b.depleted());
}

TEST(Battery, ConservationInvariant) {
  Battery b(Joules{100.0});
  for (int i = 0; i < 50; ++i) {
    b.draw(Joules{1.3}, DrawKind::kTransmit);
    b.draw(Joules{0.4}, DrawKind::kMove);
  }
  EXPECT_NEAR((b.residual() + b.consumed_total()).value(), 100.0, 1e-9);
  EXPECT_NEAR((b.consumed_transmit() + b.consumed_move() +
               b.consumed_other()).value(),
              b.consumed_total().value(), 1e-9);
}

}  // namespace
}  // namespace imobif::energy
