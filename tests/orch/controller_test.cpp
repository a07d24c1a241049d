// controller_test.cpp — FleetController unit behaviour: replica layout,
// deterministic write classification, redirect preferences, and the
// foreground/background submission contract.
#include "orch/controller.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"
#include "util/units.h"
#include "workload/catalog.h"

namespace spindown::orch {
namespace {

/// A tiny fleet the controller can rewrite against: four 1 MB files, file f
/// on disk f, each at LBA 0 of its own disk.  The harness owns the mapping
/// and extent vectors because the controller holds references to them.
struct Harness {
  explicit Harness(Config config) {
    const util::Bytes size = util::mb(1.0);
    for (std::uint32_t f = 0; f < 4; ++f) {
      mapping.push_back(f % config.data_disks);
      files.push_back(workload::FileInfo{f, size, 0.25});
    }
    // Pack per-disk in file-id order, mirroring workload::layout_extents.
    std::vector<std::uint64_t> cursor(config.data_disks, 0);
    for (std::uint32_t f = 0; f < 4; ++f) {
      const std::uint64_t blocks = util::blocks_of(size);
      extents.push_back(workload::FileExtent{cursor[mapping[f]], blocks});
      cursor[mapping[f]] += blocks;
    }
    controller = std::make_unique<FleetController>(config, service(), mapping,
                                                   extents, nullptr);
  }

  static ServiceModel service() {
    // 1 MB at 100 MB/s ~ 10 ms + 5 ms positioning; spin-up 5 s; the policy
    // sleeps a disk after 10 s idle.
    return ServiceModel{0.005, 100e6, 5.0, 10.0};
  }

  std::vector<std::uint32_t> mapping;
  std::vector<workload::FileExtent> extents;
  std::vector<workload::FileInfo> files;
  std::unique_ptr<FleetController> controller;
};

Config redirect_config() {
  Config c;
  c.redirect = true;
  c.data_disks = 4;
  c.replicas = 2;
  return c;
}

Config offload_config() {
  Config c;
  c.offload = true;
  c.data_disks = 2;
  c.log_disks = 1;
  c.destage_deadline_s = 50.0;
  c.write_fraction = 0.5;
  c.horizon_s = 10'000.0;
  c.disk_capacity = util::gb(1.0);
  return c;
}

std::uint64_t find_id(bool want_write, double fraction,
                      std::uint64_t start = 1) {
  for (std::uint64_t id = start;; ++id) {
    if (FleetController::classify_write(id, fraction) == want_write) {
      return id;
    }
  }
}

TEST(OrchController, NoMechanismRoutesEveryMissToItsPrimaryCopy) {
  // orch=off: every cache miss still routes through the controller, which
  // sends it to its primary copy at the record's explicit LBA, or at the
  // file's layout extent when the record has none.
  Config config;
  config.data_disks = 4;
  Harness h{config};
  std::vector<Submission> out;
  h.controller->route(1.0, 7, h.files[2], out);
  h.controller->route(2.0, 8, h.files[3], out, 12'345);
  h.controller->flush_deadlines(1e9, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].disk, 2u);
  EXPECT_EQ(out[0].lba, h.extents[2].lba);
  EXPECT_EQ(util::blocks_of(out[0].bytes), h.extents[2].blocks);
  EXPECT_EQ(out[1].disk, 3u);
  EXPECT_EQ(out[1].lba, 12'345u);
  EXPECT_EQ(out[1].request_id, 8u);
  EXPECT_FALSE(out[1].background);
  EXPECT_EQ(h.controller->redirects() + h.controller->offloads() +
                h.controller->destages(),
            0u);
}

TEST(RedirectController, ReplicaPlacementStridesAcrossTheFleet) {
  Harness h{redirect_config()};
  // k = 2 over 4 disks: stride max(1, 4/2) = 2, so file f's second copy
  // lands on disk (f + 2) % 4.
  EXPECT_EQ(h.controller->replica_disks(0),
            (std::vector<std::uint32_t>{0, 2}));
  EXPECT_EQ(h.controller->replica_disks(1),
            (std::vector<std::uint32_t>{1, 3}));
  EXPECT_EQ(h.controller->replica_disks(2),
            (std::vector<std::uint32_t>{2, 0}));
  EXPECT_EQ(h.controller->replica_disks(3),
            (std::vector<std::uint32_t>{3, 1}));
}

TEST(RedirectController, ReplicaCopiesThatWrapOntoTheSameDiskDeduplicate) {
  auto config = redirect_config();
  config.data_disks = 2;
  config.replicas = 4; // more copies than disks: stride 1, wraps twice
  Harness h{config};
  EXPECT_EQ(h.controller->replica_disks(0),
            (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(h.controller->replica_disks(1),
            (std::vector<std::uint32_t>{1, 0}));
}

TEST(RedirectController, ClassifyWriteIsDeterministicAndCalibrated) {
  // Degenerate fractions never / always classify as a write.
  for (std::uint64_t id = 0; id < 64; ++id) {
    EXPECT_FALSE(FleetController::classify_write(id, 0.0));
    EXPECT_TRUE(FleetController::classify_write(id, 1.0));
  }
  // Pure function of the id: repeated calls agree.
  for (std::uint64_t id = 0; id < 64; ++id) {
    EXPECT_EQ(FleetController::classify_write(id, 0.2),
              FleetController::classify_write(id, 0.2));
  }
  // Frequency matches the requested fraction over sequential ids.
  std::uint64_t writes = 0;
  const std::uint64_t n = 200'000;
  for (std::uint64_t id = 0; id < n; ++id) {
    writes += FleetController::classify_write(id, 0.2) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(writes) / static_cast<double>(n), 0.2,
              0.01);
}

TEST(RedirectController, ReadPrefersThePredictedAwakeReplica) {
  Harness h{redirect_config()};
  std::vector<Submission> out;

  // Park a request on disk 1 late enough that every other disk's predicted
  // idle time exceeds sleep_after_s.  Both of file 1's replicas (1, 3) are
  // asleep, so the read stays home on the lowest-id replica = the primary.
  h.controller->route(995.0, 1, h.files[1], out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].disk, 1u);
  EXPECT_EQ(h.controller->redirects(), 0u);

  // File 3's primary (disk 3) is asleep but its replica lives on disk 1,
  // which the model now predicts spinning: the read redirects there.
  out.clear();
  h.controller->route(1000.0, 2, h.files[3], out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].disk, 1u);
  EXPECT_EQ(h.controller->redirects(), 1u);
  // The replica extent continues after disk 1's primary layout (file 1's
  // extent), so replica bytes never alias primary bytes.
  EXPECT_EQ(out[0].lba, h.extents[1].lba + h.extents[1].blocks);
  EXPECT_EQ(util::blocks_of(out[0].bytes), h.extents[3].blocks);

  // Much later every disk is asleep again.  File 3's primary (disk 3) is
  // not its lowest-id replica, so the tie-break sends the read to disk 1.
  out.clear();
  h.controller->route(2000.0, 3, h.files[3], out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].disk, 1u);
  EXPECT_EQ(h.controller->redirects(), 2u);
}

TEST(OrchController, SleepingPrimarySendsWritesToTheLogTier) {
  Harness h{offload_config()};
  const std::uint64_t wid = find_id(true, 0.5);
  std::vector<Submission> out;
  // t = 1000: disk 0 has been idle since t = 0 and is predicted asleep.
  h.controller->route(1000.0, wid, h.files[0], out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].disk, 2u); // the one log disk, global id data_disks + 0
  EXPECT_FALSE(out[0].background);
  EXPECT_EQ(h.controller->offloads(), 1u);

  // Until the destage lands, reads of the file follow the freshest copy.
  const std::uint64_t rid = find_id(false, 0.5);
  out.clear();
  h.controller->route(1001.0, rid, h.files[0], out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].disk, 2u);
  EXPECT_EQ(out[0].lba, 0u); // log-structured cursor starts at 0
}

TEST(OrchController, ForegroundServiceTriggersDestageBehindIt) {
  Harness h{offload_config()};
  const std::uint64_t wid = find_id(true, 0.5);
  std::vector<Submission> out;
  h.controller->route(1000.0, wid, h.files[0], out);
  ASSERT_EQ(out.size(), 1u);

  // A read of file 2 (also homed on disk 0, no log copy) spins disk 0 up;
  // the buffered write destages behind it in the same rewrite: foreground
  // first, then the background submission at the same t, tagged with the
  // high id bit and aimed at the home extent.
  const std::uint64_t rid = find_id(false, 0.5);
  out.clear();
  h.controller->route(1002.0, rid, h.files[2], out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].request_id, rid);
  EXPECT_EQ(out[0].disk, 0u);
  EXPECT_FALSE(out[0].background);
  EXPECT_EQ(out[1].request_id, wid | kBackgroundIdBit);
  EXPECT_EQ(out[1].disk, 0u);
  EXPECT_EQ(out[1].lba, h.extents[0].lba);
  EXPECT_TRUE(out[1].background);
  EXPECT_DOUBLE_EQ(out[1].t, 1002.0);
  EXPECT_EQ(h.controller->destages(), 1u);
}

TEST(OrchController, DeadlineFlushDestagesAtTheDeadlineInstant) {
  Harness h{offload_config()};
  const std::uint64_t wid = find_id(true, 0.5);
  std::vector<Submission> out;
  h.controller->route(1000.0, wid, h.files[0], out);
  out.clear();

  h.controller->flush_deadlines(1049.0, out);
  EXPECT_TRUE(out.empty());
  h.controller->flush_deadlines(1050.0, out); // deadline_s = 50
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].t, 1050.0);
  EXPECT_EQ(out[0].request_id, wid | kBackgroundIdBit);
  EXPECT_EQ(out[0].disk, 0u);
  EXPECT_TRUE(out[0].background);
  EXPECT_EQ(h.controller->destages(), 1u);

  // Nothing left: the flush is idempotent.
  out.clear();
  h.controller->flush_deadlines(10'000.0, out);
  EXPECT_TRUE(out.empty());
}

TEST(OrchController, AwakePrimaryWritesThroughWithoutOffload) {
  Harness h{offload_config()};
  const std::uint64_t wid = find_id(true, 0.5);
  std::vector<Submission> out;
  // t = 1: every disk still inside its sleep_after window, so the write
  // goes straight home and nothing is buffered.
  h.controller->route(1.0, wid, h.files[0], out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].disk, 0u);
  EXPECT_EQ(h.controller->offloads(), 0u);
}

TEST(OrchController, EverySubmissionCarriesItsWholeFileExtent) {
  // The fleet router ships each submission's bytes and lets the disk derive
  // the extent length as util::blocks_of(bytes).  That is only right if
  // every kind of submission moves exactly one whole file: foreground
  // reads on the primary or a replica, off-loaded writes and reads of the
  // log copy, write-through (awake primary, or a full log tier), and
  // destages triggered by a foreground service or due at their deadline.
  // 24 files of uneven sizes (never a whole number of blocks) on 6 data
  // disks + 1 log disk holding about three files; arrivals ~2 s apart keep
  // most disks asleep (10 s spin-down), so half the requests, the writes,
  // keep filling and draining the tier.
  std::vector<workload::FileInfo> files;
  for (std::uint32_t f = 0; f < 24; ++f) {
    files.push_back(workload::FileInfo{f, 300'001 + 7'919ULL * f, 1.0 / 24});
  }
  const workload::FileCatalog catalog{files};
  std::vector<std::uint32_t> mapping;
  for (std::uint32_t f = 0; f < 24; ++f) mapping.push_back(f % 6);
  const auto extents = workload::layout_extents(catalog, mapping, 7);

  for (const std::uint32_t replicas : {2u, 3u}) {
    SCOPED_TRACE("replicas " + std::to_string(replicas));
    Config config;
    config.redirect = true;
    config.offload = true;
    config.data_disks = 6;
    config.log_disks = 1;
    config.replicas = replicas;
    config.destage_deadline_s = 30.0;
    config.write_fraction = 0.5;
    config.horizon_s = 1e9;
    config.disk_capacity = 1'000'000;
    FleetController controller{config, Harness::service(), mapping, extents,
                               nullptr};
    // Mirrors the controller's busy-horizon model submission by submission,
    // so a write-through can be told apart by its primary's predicted state.
    DiskModel mirror{7, 6, Harness::service()};
    std::vector<workload::FileId> file_of;
    enum Kind {
      kPrimaryRead, kReplicaRead, kLogWrite, kLogRead, kWriteThroughAwake,
      kWriteThroughTierFull, kTriggeredDestage, kDeadlineDestage, kKinds
    };
    std::vector<std::uint64_t> seen(kKinds, 0);
    const auto check = [&](const Submission& sub) {
      const workload::FileId file =
          file_of[sub.request_id & ~kBackgroundIdBit];
      EXPECT_EQ(sub.bytes, files[file].size);
      EXPECT_EQ(util::blocks_of(sub.bytes), extents[file].blocks);
      mirror.on_submit(sub.disk, sub.t, sub.bytes);
    };

    util::Rng rng{41};
    double t = 0.0;
    std::vector<Submission> out;
    for (std::uint64_t id = 0; id < 4'000; ++id) {
      t += rng.uniform(0.5, 3.5);
      const auto file = static_cast<workload::FileId>(rng.uniform_int(0, 23));
      file_of.push_back(file);
      out.clear();
      controller.flush_deadlines(t, out);
      for (const Submission& sub : out) {
        EXPECT_TRUE(sub.background);
        ++seen[kDeadlineDestage];
        check(sub);
      }
      out.clear();
      controller.route(t, id, files[file], out);
      ASSERT_FALSE(out.empty());
      const Submission& fg = out[0];
      EXPECT_FALSE(fg.background);
      const bool write = FleetController::classify_write(id, 0.5);
      if (fg.disk >= config.data_disks) {
        ++seen[write ? kLogWrite : kLogRead];
      } else if (write) {
        ++seen[mirror.awake(fg.disk, t) ? kWriteThroughAwake
                                        : kWriteThroughTierFull];
      } else {
        ++seen[fg.disk == mapping[file] ? kPrimaryRead : kReplicaRead];
      }
      for (std::size_t i = 1; i < out.size(); ++i) {
        EXPECT_TRUE(out[i].background);
        ++seen[kTriggeredDestage];
      }
      for (const Submission& sub : out) check(sub);
    }
    out.clear();
    controller.flush_deadlines(config.horizon_s, out);
    for (const Submission& sub : out) {
      ++seen[kDeadlineDestage];
      check(sub);
    }
    for (int k = 0; k < kKinds; ++k) {
      SCOPED_TRACE("kind " + std::to_string(k));
      EXPECT_GT(seen[k], 0u);
    }
  }
}

} // namespace
} // namespace spindown::orch
