// params.h — physical disk characteristics (Table 2 of the paper).
//
// The reference device is the Seagate Barracuda ST3500630AS the authors
// simulated: 500 GB SATA, 7200 rpm, 72 MB/s sustained transfer, with the
// power figures of Figure 1 / Table 2.  All values are plain data so other
// devices can be described too; the paper's disk is
// `DiskParams::st3500630as()`.
#pragma once

#include <string>

#include "util/units.h"

namespace spindown::disk {

struct DiskParams {
  std::string model = "generic";
  util::Bytes capacity = util::gb(500.0);

  // Mechanics.
  double avg_seek_s = 0.0085;      ///< average seek time
  double avg_rotation_s = 0.00416; ///< average rotational latency
  double transfer_bps = 72.0e6;    ///< sustained transfer rate, bytes/second

  // Power by mode (Figure 1).
  util::Watts idle_w = 9.3;
  util::Watts standby_w = 0.8;
  util::Watts active_w = 13.0; ///< read/write transfer
  util::Watts seek_w = 12.6;
  util::Watts spinup_w = 24.0;
  util::Watts spindown_w = 9.3;

  // Transition latencies (Figure 1).
  double spinup_s = 15.0;
  double spindown_s = 10.0;

  /// Service time for a whole-file read of `bytes`:
  /// seek + rotational latency + transfer.  This is the paper's µ_i = f(s_i);
  /// the model is pluggable at the allocation layer, but the simulator uses
  /// this definition.
  double service_time(util::Bytes bytes) const {
    return avg_seek_s + avg_rotation_s +
           static_cast<double>(bytes) / transfer_bps;
  }

  /// Positioning part of a service (seek + rotation), billed at seek power.
  double position_time() const { return avg_seek_s + avg_rotation_s; }

  /// Geometry-aware seek time for a head travel of `distance_fraction` of
  /// the full stroke (0 = already on track, 1 = full sweep).  Linear curve
  ///   seek(d) = s_min + (s_max - s_min) * d
  /// with s_min = avg_seek_s / 3 (the settle floor: even a re-hit of the
  /// current track pays head settling) and s_max = (7/3) * avg_seek_s,
  /// calibrated so the mean over uniform independent head/target positions
  /// (E[|x - y|] = 1/3) is exactly avg_seek_s — Table 1/2's avg_seek_s
  /// keeps its meaning and FCFS under random placement matches the legacy
  /// constant-cost model in expectation.  Used only by the geometry-aware
  /// queue disciplines (io_scheduler.h); FCFS bills position_time()
  /// unchanged.
  double seek_time(double distance_fraction) const {
    const double s_min = avg_seek_s / 3.0;
    const double s_max = 3.0 * avg_seek_s - 2.0 * s_min;
    return s_min + (s_max - s_min) * distance_fraction;
  }

  /// Transfer part of a service, billed at active power.
  double transfer_time(util::Bytes bytes) const {
    return static_cast<double>(bytes) / transfer_bps;
  }

  /// Energy cost of one full standby round trip (down then up).
  util::Joules transition_energy() const {
    return spindown_w * spindown_s + spinup_w * spinup_s;
  }

  /// Break-even idleness threshold: the time a disk must remain in standby
  /// for the power saved (idle minus standby draw) to repay one spin-down +
  /// spin-up.  The paper sets its default idleness threshold to exactly this
  /// (Table 2: 53.3 s):
  ///   (9.3*10 + 24*15) / (9.3 - 0.8) = 453 / 8.5 = 53.29 s.
  double break_even_threshold() const {
    return transition_energy() / (idle_w - standby_w);
  }

  /// The paper's simulated device (Table 2).
  static DiskParams st3500630as();

  /// A representative low-power 2.5-inch 5400 rpm drive (typical datasheet
  /// values, not a specific product).  The paper's introduction points at
  /// "new energy efficient disks" as the device-level answer; this profile
  /// lets the benches quantify how the trade-off shifts with the hardware
  /// (much cheaper transitions, much lower idle draw).
  static DiskParams laptop_2_5in();
};

} // namespace spindown::disk
