// Full-system checkpoint/restore over the snap container format.
//
// SystemSnapshot walks every stateful component of a core::VapresSystem
// (and optionally its sched::ApplicationScheduler and an in-flight
// core::ModuleSwitcher) and serializes the raw register/counter/FIFO
// state into the versioned section format of snap/format.hpp. Three ways
// back:
//
//   * cold restore (restore_system / restore_scheduler): reconstruct a
//     brand-new system from the blob that continues bit-for-bit where
//     the checkpointed one left off — a second snapshot taken after the
//     same number of cycles is byte-identical to one from an
//     uninterrupted run;
//   * warm restart (warm_restart): the fabric survived, the controller
//     software did not. A fresh scheduler reconciles the journaled app
//     records against the still-live fabric — adopting every app whose
//     PRRs and channels still match the journal, resuming (or rolling
//     back) an in-flight 9-step module switch from its journaled step,
//     and never resetting a healthy stream;
//   * fleet failover (fleet/controlplane.cpp): a crashed fabric's
//     snapshot seeds replay-admission of its apps onto a spare fabric.
//
// Cold snapshots require a quiescent controller: no reconfiguration in
// flight, no prefetch staging, no software task other than a journaled
// switcher. The soak harness reaches that barrier by draining the
// transfer path before checkpointing (load/soak.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/params.hpp"
#include "core/switching.hpp"
#include "core/system.hpp"
#include "hwmodule/library.hpp"
#include "sched/scheduler.hpp"

namespace vapres::snap {

/// What warm_restart() found when reconciling the journal against the
/// still-live fabric.
struct ReconcileReport {
  int adopted_apps = 0;      ///< running apps re-adopted intact
  int adopted_channels = 0;  ///< streaming channels verified live
  int mismatches = 0;        ///< journal entries the fabric contradicts
  bool switch_resumed = false;      ///< in-flight switch carried forward
  bool switch_rolled_back = false;  ///< in-flight switch abandoned safely
  std::vector<std::string> notes;   ///< human-readable reconcile log
};

struct WarmRestart {
  std::unique_ptr<sched::ApplicationScheduler> scheduler;
  /// Present (and already registered with the MicroBlaze) when the
  /// journaled switch resumed; run the simulation to let it finish.
  std::unique_ptr<core::ModuleSwitcher> switcher;
  ReconcileReport report;
};

class SystemSnapshot {
 public:
  /// Serializes the complete system state. `sched` and `switcher` are
  /// optional; a journaled switcher makes the snapshot warm-only (its
  /// task is still registered, so a cold restore would refuse it).
  /// Throws vapres::ModelError when the controller is not quiescent
  /// enough to checkpoint (see file comment).
  static std::string save(core::VapresSystem& sys, std::uint64_t epoch,
                          const sched::ApplicationScheduler* sched = nullptr,
                          const core::ModuleSwitcher* switcher = nullptr);

  /// Header epoch of a blob (validates the container).
  static std::uint64_t epoch(const std::string& blob);
  static bool has_scheduler(const std::string& blob);
  static bool has_switch(const std::string& blob);

  /// Cold restore: builds a new system from `params`/`library` (which
  /// must match the snapshot's fingerprint) and overlays every saved
  /// component. The returned system continues deterministically.
  static std::unique_ptr<core::VapresSystem> restore_system(
      const std::string& blob, core::SystemParams params,
      hwmodule::ModuleLibrary library = hwmodule::ModuleLibrary::standard());

  /// Cold restore of the scheduler layer over a just-restored system:
  /// overlays app records, occupancy and counters, and re-installs the
  /// source generators of running apps with their remaining word
  /// budgets.
  static std::unique_ptr<sched::ApplicationScheduler> restore_scheduler(
      const std::string& blob, core::VapresSystem& sys);

  /// Warm restart: the fabric in `sys` is live; only the controller
  /// software restarts. Builds a fresh scheduler, reconciles the
  /// journaled records against the fabric, and resumes or rolls back a
  /// journaled in-flight switch.
  static WarmRestart warm_restart(const std::string& blob,
                                  core::VapresSystem& sys);

 private:
  /// The per-component field lists save and restore share
  /// (system_snapshot.cpp).
  struct Fields;

  SystemSnapshot() = default;
};

}  // namespace vapres::snap
