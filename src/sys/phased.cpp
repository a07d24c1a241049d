#include "sys/phased.h"

#include <cmath>
#include <stdexcept>

#include "core/pack_disks.h"

namespace spindown::sys {

workload::FileCatalog drifted_catalog(const workload::FileCatalog& base,
                                      std::uint32_t window,
                                      double drift_per_window) {
  const std::size_t n = base.size();
  if (n == 0) return base;
  const auto shift = static_cast<std::size_t>(
      std::fmod(static_cast<double>(window) * drift_per_window, 1.0) *
      static_cast<double>(n));
  std::vector<workload::FileInfo> files = base.files();
  for (std::size_t i = 0; i < n; ++i) {
    files[i].popularity = base[(i + shift) % n].popularity;
  }
  return workload::FileCatalog{std::move(files)};
}

PhasedResult run_phased(const PhasedConfig& config) {
  if (config.catalog == nullptr) {
    throw std::invalid_argument{"run_phased: catalog is required"};
  }
  if (config.windows == 0) {
    throw std::invalid_argument{"run_phased: need at least one window"};
  }
  const auto& base = *config.catalog;

  // Initial placement from the window-0 popularity.
  core::PackDisks pack;
  auto current = pack.allocate(
      core::normalize(drifted_catalog(base, 0, 0.0), config.model));

  PhasedResult out;
  core::Reorganizer reorganizer{config.model};
  // Decayed count state: sampling noise in one window is damped by the
  // memory of previous windows (see PhasedConfig::count_decay).
  std::vector<double> count_state(base.size(), 0.0);

  for (std::uint32_t w = 0; w < config.windows; ++w) {
    const auto window_catalog =
        drifted_catalog(base, w, config.drift_per_window);

    WindowReport report;
    report.disks_used = current.disk_count;

    // Simulate this window on the current placement.
    ExperimentConfig run;
    run.catalog = &window_catalog;
    run.mapping = current.disk_of;
    run.num_disks = current.disk_count;
    run.params = config.model.disk;
    run.policy = config.policy;
    run.scheduler = config.scheduler;
    run.workload = WorkloadSpec::poisson(config.model.rate, config.window_s);
    run.seed = config.seed + w;
    report.run = run_experiment(run);
    // The "access statistics accumulated over periodic intervals" the
    // reorganizer feeds on: a second, draw-identical drain of the stream.
    std::vector<std::uint64_t> counts(base.size(), 0);
    const auto stream = run.workload.make_stream(window_catalog, run.seed);
    while (const auto r = stream->next()) counts.at(r->file) += 1;
    out.total_energy += report.run.power.energy;
    out.response.merge(report.run.response);

    // Fold this window into the decayed count state.
    for (std::size_t i = 0; i < counts.size(); ++i) {
      count_state[i] = config.count_decay * count_state[i] +
                       static_cast<double>(counts[i]);
    }

    // Plan (and pay for) the reorganization ahead of the next window.
    if (config.reorganize && w + 1 < config.windows) {
      // Scale the fractional state into integer counts for the planner
      // (x1024 keeps the decayed precision).
      std::vector<std::uint64_t> smoothed(count_state.size(), 0);
      std::uint64_t total = 0;
      for (std::size_t i = 0; i < count_state.size(); ++i) {
        smoothed[i] = static_cast<std::uint64_t>(count_state[i] * 1024.0);
        total += smoothed[i];
      }
      // The window length backing the state grows with the memory:
      // sum_{j<=w} decay^j converges to 1/(1-decay).
      double effective_windows = 0.0;
      double weight = 1.0;
      for (std::uint32_t j = 0; j <= w; ++j) {
        effective_windows += weight;
        weight *= config.count_decay;
      }
      if (total > 0) {
        const auto plan = reorganizer.plan(
            base, smoothed, config.window_s * effective_windows * 1024.0,
            current);
        const auto& p = config.model.disk;
        const double migration_energy =
            2.0 * static_cast<double>(plan.bytes_moved) / p.transfer_bps *
            p.active_w;
        out.migrated_bytes += plan.bytes_moved;
        out.migration_energy += migration_energy;
        out.total_energy += migration_energy;
        current = plan.next;
        // The next window's report records what this migration cost.
        report.migrated_bytes = plan.bytes_moved;
        report.migration_energy = migration_energy;
      }
    }
    out.windows.push_back(std::move(report));
  }
  return out;
}

} // namespace spindown::sys
