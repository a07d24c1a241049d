#include "orch/controller.h"

#include <stdexcept>

namespace spindown::orch {

FleetController::FleetController(
    const Config& config, const ServiceModel& model,
    const std::vector<std::uint32_t>& primary_mapping,
    const std::vector<workload::FileExtent>& primary_extents,
    obs::TraceBuffer* trace)
    : cfg_(config),
      model_(config.data_disks + config.log_disks, config.data_disks, model),
      mapping_(primary_mapping), extents_(primary_extents), trace_(trace) {
  if (cfg_.data_disks == 0) {
    throw std::invalid_argument{"FleetController: need at least 1 data disk"};
  }
  if (mapping_.size() < extents_.size()) {
    throw std::invalid_argument{
        "FleetController: mapping smaller than the extent table"};
  }
  if (cfg_.offload) {
    if (cfg_.log_disks == 0) {
      throw std::invalid_argument{
          "FleetController: offload needs at least 1 log disk"};
    }
    offload_ = std::make_unique<WriteOffload>(
        cfg_.data_disks, cfg_.log_disks, cfg_.disk_capacity,
        cfg_.destage_deadline_s, cfg_.horizon_s);
  }
  // Replica layout (copies r >= 1): each disk's LBA cursor continues where
  // the replica-0 layout ended, so the primary extents — and with them
  // every orchestration-off result — are byte-for-byte unchanged.
  if (cfg_.replicas > 1) {
    const std::uint32_t disks = cfg_.data_disks;
    const std::uint32_t stride =
        std::max<std::uint32_t>(1, disks / cfg_.replicas);
    std::vector<std::uint64_t> cursor(disks, 0);
    const std::size_t n = extents_.size();
    for (std::size_t f = 0; f < n; ++f) {
      auto& c = cursor[mapping_[f]];
      c = std::max(c, extents_[f].lba + extents_[f].blocks);
    }
    offset_.resize(n + 1, 0);
    for (std::size_t f = 0; f < n; ++f) {
      offset_[f] = static_cast<std::uint32_t>(replica_disk_.size());
      const std::uint32_t primary = mapping_[f];
      for (std::uint32_t r = 1; r < cfg_.replicas; ++r) {
        const std::uint32_t d = (primary + r * stride) % disks;
        bool dup = d == primary; // copies that wrap onto an existing
                                 // replica are dropped (k > distinct disks)
        for (std::size_t i = offset_[f]; !dup && i < replica_disk_.size();
             ++i) {
          dup = replica_disk_[i] == d;
        }
        if (dup) continue;
        replica_disk_.push_back(d);
        replica_lba_.push_back(cursor[d]);
        cursor[d] += extents_[f].blocks;
      }
    }
    offset_[n] = static_cast<std::uint32_t>(replica_disk_.size());
  }
}

bool FleetController::classify_write(std::uint64_t id, double fraction) {
  if (fraction <= 0.0) return false;
  // splitmix64 finalizer: a high-quality deterministic hash of the request
  // id — the workload generators' RNG streams are never touched.
  std::uint64_t x = id + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<double>(x >> 11) * 0x1.0p-53 < fraction;
}

std::vector<std::uint32_t> FleetController::replica_disks(
    workload::FileId file) const {
  std::vector<std::uint32_t> disks{mapping_[file]};
  if (!offset_.empty()) {
    for (std::uint32_t i = offset_[file]; i < offset_[file + 1]; ++i) {
      disks.push_back(replica_disk_[i]);
    }
  }
  return disks;
}

// route()'s helpers are inline so the per-miss path is one function.
inline FleetController::Choice FleetController::pick_read_target(
    double t, const workload::FileInfo& file, const Choice& primary) {
  if (offload_ != nullptr) {
    if (const auto copy = offload_->log_copy(file.id)) {
      // The freshest bytes live on the log tier until the destage lands.
      return Choice{copy->log_disk, copy->log_lba};
    }
  }
  if (!cfg_.redirect || offset_.empty()) return primary;
  // Replica preference, ties broken by lowest disk id: a replica the model
  // predicts awake (no spin-up at all), else the lowest-id replica.
  Choice awake_best, id_best = primary;
  bool have_awake = model_.awake(primary.disk, t);
  if (have_awake) awake_best = id_best;
  for (std::uint32_t i = offset_[file.id]; i < offset_[file.id + 1]; ++i) {
    const Choice c{replica_disk_[i], replica_lba_[i]};
    if (c.disk < id_best.disk) id_best = c;
    if ((!have_awake || c.disk < awake_best.disk) && model_.awake(c.disk, t)) {
      awake_best = c;
      have_awake = true;
    }
  }
  return have_awake ? awake_best : id_best;
}

inline void FleetController::submit_foreground(double t, std::uint64_t id,
                                               util::Bytes bytes,
                                               const Choice& c,
                                               std::vector<Submission>& out) {
  model_.on_submit(c.disk, t, bytes);
  out.push_back(Submission{t, id, bytes, c.lba, c.disk, false});
}

inline void FleetController::trigger_destage(double t, std::uint64_t id,
                                             std::uint32_t disk,
                                             std::vector<Submission>& out) {
  if (offload_ == nullptr || !offload_->has_pending(disk)) return;
  drained_.clear();
  offload_->drain_disk(disk, drained_);
  if (drained_.empty()) return; // every entry had already been settled
  if (trace_ != nullptr && trace_->wants(obs::Kind::kPolicy)) {
    trace_->emit(obs::Kind::kPolicy, obs::kPolicyDestage, t,
                 obs::kRouterTrack, id, static_cast<double>(disk),
                 static_cast<double>(drained_.size()));
  }
  emit_destage_subs(t, drained_, out);
}

void FleetController::route(double t, std::uint64_t id,
                            const workload::FileInfo& file,
                            std::vector<Submission>& out, std::uint64_t lba) {
  const std::uint32_t primary = mapping_[file.id];
  const auto& extent = extents_[file.id];
  const Choice home{primary, lba != workload::kNoLba ? lba : extent.lba};

  if (offload_ != nullptr && classify_write(id, cfg_.write_fraction)) {
    // Writes target the primary copy only (the replicas are read-time
    // copies; keeping them in sync is the next reorganization's job).
    if (!model_.awake(primary, t)) {
      const auto copy = offload_->absorb(t, id, file.id, file.size,
                                         extent.blocks, home.lba, primary);
      if (copy.has_value()) {
        ++offloads_;
        if (trace_ != nullptr && trace_->wants(obs::Kind::kPolicy)) {
          trace_->emit(obs::Kind::kPolicy, obs::kPolicyOffload, t,
                       obs::kRouterTrack, id,
                       static_cast<double>(copy->log_disk),
                       static_cast<double>(primary));
        }
        submit_foreground(t, id, file.size,
                          Choice{copy->log_disk, copy->log_lba}, out);
        return;
      }
    }
    // Awake primary (or a full log tier): write through — and since the
    // primary is spinning for this request anyway, settle its debt now.
    submit_foreground(t, id, file.size, home, out);
    trigger_destage(t, id, primary, out);
    return;
  }

  const Choice c = pick_read_target(t, file, home);
  if (c.disk != primary) {
    ++redirects_;
    if (trace_ != nullptr && trace_->wants(obs::Kind::kSpan)) {
      trace_->emit(obs::Kind::kSpan, obs::kSpanRedirect, t,
                   obs::kRouterTrack, id, static_cast<double>(c.disk),
                   static_cast<double>(primary));
    }
  }
  submit_foreground(t, id, file.size, c, out);
  if (c.disk < cfg_.data_disks) trigger_destage(t, id, c.disk, out);
}

void FleetController::emit_destage_subs(double t,
                                        const std::vector<PendingWrite>& batch,
                                        std::vector<Submission>& out) {
  for (const PendingWrite& p : batch) {
    model_.on_submit(p.target, t, p.bytes);
    out.push_back(Submission{t, p.request_id | kBackgroundIdBit, p.bytes,
                             p.target_lba, p.target, true});
    ++destages_;
  }
}

void FleetController::flush_deadlines(double t,
                                      std::vector<Submission>& out) {
  if (offload_ == nullptr) return;
  drained_.clear();
  offload_->drain_due(t, drained_);
  for (const PendingWrite& p : drained_) {
    if (trace_ != nullptr && trace_->wants(obs::Kind::kPolicy)) {
      trace_->emit(obs::Kind::kPolicy, obs::kPolicyDestage, p.deadline,
                   obs::kRouterTrack, p.request_id,
                   static_cast<double>(p.target), 1.0);
    }
    model_.on_submit(p.target, p.deadline, p.bytes);
    out.push_back(Submission{p.deadline, p.request_id | kBackgroundIdBit,
                             p.bytes, p.target_lba, p.target, true});
    ++destages_;
  }
}

} // namespace spindown::orch
