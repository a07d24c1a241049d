// fig1_disk_model.cpp — Figure 1 + Table 2: the disk power model.
//
// Prints the power-state diagram parameters of the simulated Seagate
// ST3500630AS and the derived break-even idleness threshold, and verifies
// the transition energetics by simulating one idle->standby->active round
// trip and comparing integrated energy against the closed form.
#include <iostream>

#include "bench_common.h"
#include "disk/disk.h"
#include "disk/params.h"
#include "disk/power.h"
#include "sys/system.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace spindown;
  const auto opts = bench::BenchOptions::parse(argc, argv);
  bench::print_header("Disk power model (Seagate ST3500630AS)",
                      "Figure 1 and Table 2 of Otoo/Rotem/Tsao, IPPS 2009");

  const auto p = disk::DiskParams::st3500630as();

  util::TablePrinter table{{"parameter", "value", "paper (Table 2)"}};
  table.row("model", p.model, "Seagate ST3500630AS");
  table.row("capacity", util::format_bytes(p.capacity), "500 GB");
  table.row("avg seek", util::format_seconds(p.avg_seek_s), "8.5 ms");
  table.row("avg rotation", util::format_seconds(p.avg_rotation_s), "4.16 ms");
  table.row("transfer rate",
            util::format_double(p.transfer_bps / 1e6, 1) + " MB/s", "72 MB/s");
  table.row("idle power", util::format_double(p.idle_w, 2) + " W", "9.3 W");
  table.row("standby power", util::format_double(p.standby_w, 2) + " W",
            "0.8 W");
  table.row("active power", util::format_double(p.active_w, 2) + " W", "13 W");
  table.row("seek power", util::format_double(p.seek_w, 2) + " W", "12.6 W");
  table.row("spin-up", util::format_seconds(p.spinup_s) + " @ " +
                           util::format_double(p.spinup_w, 1) + " W",
            "15 s @ 24 W");
  table.row("spin-down", util::format_seconds(p.spindown_s) + " @ " +
                             util::format_double(p.spindown_w, 1) + " W",
            "10 s @ 9.3 W");
  table.row("derived break-even threshold",
            util::format_seconds(p.break_even_threshold()), "53.3 s");
  table.print(std::cout);

  // Validate the state machine energetics with a micro-simulation: one
  // request, long idle gap, spin-down, second request (spin-up + service).
  disk::Disk d{0, p, sys::PolicySpec::break_even().make(p),
               util::Rng{opts.seed}};
  const util::Bytes file = util::mb(100.0);
  d.submit(0.0, 0, file);
  const double t2 = 400.0; // well past threshold + spin-down
  d.submit(t2, 1, file);
  const double end = d.settle_all(); // after the final spin-down
  const auto m = d.metrics(end);

  // Full episode: service, idle-out, spin-down, standby until t2, spin-up,
  // service, idle-out again, final spin-down (the simulation ends there).
  const double service = p.service_time(file);
  const double standby =
      t2 - (service + p.break_even_threshold() + p.spindown_s);
  const double expected_energy =
      2 * (p.position_time() * p.seek_w + p.transfer_time(file) * p.active_w) +
      2 * p.break_even_threshold() * p.idle_w +
      2 * p.spindown_s * p.spindown_w + standby * p.standby_w +
      p.spinup_s * p.spinup_w;

  std::cout << "\nround-trip validation:\n";
  std::cout << "  simulated energy : " << util::format_double(m.energy(p), 3)
            << " J\n";
  std::cout << "  closed-form      : "
            << util::format_double(expected_energy, 3) << " J\n";
  std::cout << "  spin-downs/ups   : " << m.spin_downs << "/" << m.spin_ups
            << " (expected 2/1)\n";

  if (auto csv = opts.csv()) {
    csv->write_row({"quantity", "value"});
    csv->row("break_even_s", p.break_even_threshold());
    csv->row("transition_energy_j", p.transition_energy());
    csv->row("roundtrip_sim_j", m.energy(p));
    csv->row("roundtrip_closed_form_j", expected_energy);
  }

  const bool ok = std::abs(m.energy(p) - expected_energy) < 1e-6 &&
                  m.spin_downs == 2 && m.spin_ups == 1;
  std::cout << (ok ? "\nPASS" : "\nFAIL")
            << ": state machine matches Figure 1\n";
  return ok ? 0 : 1;
}
