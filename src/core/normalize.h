// normalize.h — from files to 2DVPP items (the paper's §3 load model).
//
// The load of file i is  l_i = R * p_i * µ(s_i):  the fraction of one disk's
// service time spent on that file, where R is the system request rate, p_i
// the file's access probability and µ the service-time function.  The paper
// notes "any function f(s_i) can be used"; the default is the full
// positioning + transfer model of DiskParams, and `include_positioning =
// false` gives the paper's simpler l_i = r_i * s_i / B form.
//
// Normalization: sizes are divided by the disk capacity — the whole disk is
// the "total storage capacity of a disk that we are allowed to use" — and
// loads by the load constraint L, expressed as a fraction of the maximum
// transfer rate (§5: "the value of L is expressed as a fraction of the
// maximum transfer rate of the disk (72 MB/s)").
#pragma once

#include <span>
#include <vector>

#include "core/item.h"
#include "disk/params.h"
#include "workload/catalog.h"

namespace spindown::core {

struct LoadModel {
  double rate = 6.0;             ///< R, requests per second (system-wide)
  double load_fraction = 0.8;    ///< L, fraction of max service rate per disk
  bool include_positioning = true; ///< add seek+rotation to µ
  disk::DiskParams disk = disk::DiskParams::st3500630as();

  /// µ(s_i) under this model.
  double mu(util::Bytes bytes) const;
};

/// Build the normalized instance; item index == file id.
/// Throws if any file exceeds a disk's space or load capacity.
std::vector<Item> normalize(const workload::FileCatalog& catalog,
                            const LoadModel& model);

/// Expected aggregate utilization of the instance in "disks of load" and
/// "disks of space" — the lower-bound terms of Theorem 1, pre-ceiling.
struct Utilization {
  double space_disks = 0.0;
  double load_disks = 0.0;
};
Utilization utilization(std::span<const Item> items);

} // namespace spindown::core
