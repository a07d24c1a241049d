// power.h — the disk power-state machine of Figure 1.
//
// States and per-state draw:
//
//        Standby (0.8 W)
//          ^   |
//  spin-   |   |  spin-up 15 s @ 24 W
//  down    |   v
//  10 s @  |  Idle (9.3 W) <---> Positioning (seek 12.6 W)
//  9.3 W   |                ---> Transfer (active 13 W)
//
// Legal transitions are encoded in `can_transition`; the Disk actor only
// moves along them, and tests enforce it.
#pragma once

#include <cstdint>
#include <string_view>

#include "disk/params.h"

namespace spindown::disk {

enum class PowerState : std::uint8_t {
  kIdle = 0,        ///< spinning, no request in service
  kPositioning = 1, ///< seek + rotational latency phase of a service
  kTransfer = 2,    ///< data transfer phase of a service
  kSpinningDown = 3,
  kStandby = 4,
  kSpinningUp = 5,
};
inline constexpr std::size_t kPowerStateCount = 6;

constexpr std::string_view to_string(PowerState s) {
  switch (s) {
    case PowerState::kIdle: return "idle";
    case PowerState::kPositioning: return "positioning";
    case PowerState::kTransfer: return "transfer";
    case PowerState::kSpinningDown: return "spinning_down";
    case PowerState::kStandby: return "standby";
    case PowerState::kSpinningUp: return "spinning_up";
  }
  return "?";
}

/// Electrical draw of a state under the given device parameters.
constexpr util::Watts power_of(PowerState s, const DiskParams& p) {
  switch (s) {
    case PowerState::kIdle: return p.idle_w;
    case PowerState::kPositioning: return p.seek_w;
    case PowerState::kTransfer: return p.active_w;
    case PowerState::kSpinningDown: return p.spindown_w;
    case PowerState::kStandby: return p.standby_w;
    case PowerState::kSpinningUp: return p.spinup_w;
  }
  return 0.0;
}

/// Figure 1's legal transitions.
constexpr bool can_transition(PowerState from, PowerState to) {
  switch (from) {
    case PowerState::kIdle:
      return to == PowerState::kPositioning || to == PowerState::kSpinningDown;
    case PowerState::kPositioning:
      return to == PowerState::kTransfer;
    case PowerState::kTransfer:
      // Next request (back-to-back service) or drained queue.
      return to == PowerState::kPositioning || to == PowerState::kIdle;
    case PowerState::kSpinningDown:
      return to == PowerState::kStandby;
    case PowerState::kStandby:
      return to == PowerState::kSpinningUp;
    case PowerState::kSpinningUp:
      // Serve the queue, or (policy quirk) nothing left to serve.
      return to == PowerState::kPositioning || to == PowerState::kIdle;
  }
  return false;
}

} // namespace spindown::disk
