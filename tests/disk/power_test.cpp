#include "disk/power.h"

#include <gtest/gtest.h>

namespace spindown::disk {
namespace {

TEST(PowerStates, PowerOfMatchesFigure1) {
  const auto p = DiskParams::st3500630as();
  EXPECT_DOUBLE_EQ(power_of(PowerState::kIdle, p), 9.3);
  EXPECT_DOUBLE_EQ(power_of(PowerState::kStandby, p), 0.8);
  EXPECT_DOUBLE_EQ(power_of(PowerState::kTransfer, p), 13.0);
  EXPECT_DOUBLE_EQ(power_of(PowerState::kPositioning, p), 12.6);
  EXPECT_DOUBLE_EQ(power_of(PowerState::kSpinningUp, p), 24.0);
  EXPECT_DOUBLE_EQ(power_of(PowerState::kSpinningDown, p), 9.3);
}

TEST(PowerStates, StateNames) {
  EXPECT_EQ(to_string(PowerState::kIdle), "idle");
  EXPECT_EQ(to_string(PowerState::kStandby), "standby");
  EXPECT_EQ(to_string(PowerState::kSpinningUp), "spinning_up");
}

TEST(PowerStates, LegalTransitionsOfFigure1) {
  using S = PowerState;
  // The service path.
  EXPECT_TRUE(can_transition(S::kIdle, S::kPositioning));
  EXPECT_TRUE(can_transition(S::kPositioning, S::kTransfer));
  EXPECT_TRUE(can_transition(S::kTransfer, S::kPositioning)); // back-to-back
  EXPECT_TRUE(can_transition(S::kTransfer, S::kIdle));
  // The power-saving path.
  EXPECT_TRUE(can_transition(S::kIdle, S::kSpinningDown));
  EXPECT_TRUE(can_transition(S::kSpinningDown, S::kStandby));
  EXPECT_TRUE(can_transition(S::kStandby, S::kSpinningUp));
  EXPECT_TRUE(can_transition(S::kSpinningUp, S::kPositioning));
  EXPECT_TRUE(can_transition(S::kSpinningUp, S::kIdle));
}

TEST(PowerStates, IllegalTransitionsRejected) {
  using S = PowerState;
  // Standby cannot serve or idle directly — it must spin up.
  EXPECT_FALSE(can_transition(S::kStandby, S::kPositioning));
  EXPECT_FALSE(can_transition(S::kStandby, S::kIdle));
  // A spin-down cannot be aborted.
  EXPECT_FALSE(can_transition(S::kSpinningDown, S::kIdle));
  EXPECT_FALSE(can_transition(S::kSpinningDown, S::kSpinningUp));
  // Positioning always proceeds to transfer.
  EXPECT_FALSE(can_transition(S::kPositioning, S::kIdle));
  EXPECT_FALSE(can_transition(S::kPositioning, S::kSpinningDown));
  // Busy states cannot power down mid-service.
  EXPECT_FALSE(can_transition(S::kTransfer, S::kSpinningDown));
  EXPECT_FALSE(can_transition(S::kTransfer, S::kStandby));
}

TEST(PowerStates, EveryStateHasAtLeastOneExit) {
  for (std::size_t i = 0; i < kPowerStateCount; ++i) {
    const auto from = static_cast<PowerState>(i);
    bool any = false;
    for (std::size_t j = 0; j < kPowerStateCount; ++j) {
      if (can_transition(from, static_cast<PowerState>(j))) any = true;
    }
    EXPECT_TRUE(any) << "state " << to_string(from) << " is a dead end";
  }
}

} // namespace
} // namespace spindown::disk
