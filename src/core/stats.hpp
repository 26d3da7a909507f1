// System telemetry: a one-call snapshot of every counter the model keeps
// (FIFO traffic and watermarks, channel activity, PRR status, processor
// utilization), rendered as a human-readable report. Used by examples
// for post-run inspection and by tests to assert on system-wide
// invariants (e.g. "no consumer interface ever discarded a word").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "sim/clock.hpp"

namespace vapres::core {

struct FifoStats {
  std::string name;
  std::uint64_t pushed = 0;
  std::uint64_t popped = 0;
  int high_watermark = 0;
  int capacity = 0;
  std::uint64_t fault_dropped = 0;
  std::uint64_t fault_duplicated = 0;
};

/// Fault-injection and self-healing counters (all zero on a run without
/// injection): what was injected, what each recovery layer did about it.
struct RobustnessStats {
  std::uint64_t faults_injected = 0;  ///< all sites, on this system
  std::uint64_t icap_corrupted = 0;
  std::uint64_t icap_timeouts = 0;
  std::uint64_t reconfig_retries = 0;
  std::uint64_t source_fallbacks = 0;
  std::uint64_t reconfig_failures = 0;  ///< permanent (post-recovery)
  std::uint64_t switch_rollbacks = 0;
  std::uint64_t scrub_repairs = 0;
  std::uint64_t fifo_words_dropped = 0;     ///< by injection, system-wide
  std::uint64_t fifo_words_duplicated = 0;  ///< by injection, system-wide
  std::uint64_t stuck_ports = 0;  ///< currently stuck (unrepaired)

  std::uint64_t total_recoveries() const {
    return reconfig_retries + source_fallbacks + switch_rollbacks +
           scrub_repairs;
  }
};

struct SiteStats {
  std::string name;
  bool is_prr = false;
  std::string loaded_module;  // PRRs only
  int reconfigurations = 0;   // PRRs only
  std::uint64_t words_in = 0;   // consumer interfaces, received
  std::uint64_t words_out = 0;  // producer interfaces, sent
  std::uint64_t words_discarded = 0;
  /// Producer cycles spent blocked on downstream backpressure.
  std::uint64_t stall_cycles = 0;
};

/// Per-clock-domain kernel accounting (the aggregate lives in
/// SystemStats::kernel).
struct DomainStats {
  std::string name;
  double frequency_mhz = 0.0;
  sim::Cycles cycles = 0;
  std::uint64_t cycles_active = 0;
  std::uint64_t cycles_quiescent = 0;
  std::uint64_t sleeps = 0;
};

struct SystemStats {
  std::vector<SiteStats> sites;
  std::vector<FifoStats> fifos;
  std::vector<DomainStats> domains;
  std::size_t active_channels = 0;
  std::uint64_t dcr_accesses = 0;
  std::uint64_t mb_busy_cycles = 0;
  sim::Cycles system_cycles = 0;
  std::int64_t icap_bytes = 0;
  int reconfigurations = 0;
  RobustnessStats robustness;
  /// Bitstream-cache and prefetch counters (bitman subsystem,
  /// docs/BITSTREAMS.md): hit/miss/eviction/prefetch-usefulness.
  bitman::BitmanStats bitcache;
  /// Simulation-kernel counters aggregated over every clock domain:
  /// edges actually delivered vs. skipped by quiescence tracking.
  sim::KernelStats kernel;

  /// Total words dropped anywhere in the system (0 on a healthy run).
  std::uint64_t total_discarded() const;
  /// Fraction of system cycles the MicroBlaze was busy.
  double mb_utilization() const;

  std::string to_string() const;
};

/// Snapshots every counter in `sys`.
SystemStats collect_stats(VapresSystem& sys);

// ---- Scheduler accounting ------------------------------------------------
//
// Per-application books kept by sched::ApplicationScheduler. The structs
// live here (not in sched/) so reporting tooling depends only on core;
// the scheduler fills them in ApplicationScheduler::accounting().

/// One application's ledger row.
struct AppAccounting {
  int app_id = -1;
  std::string name;
  int priority = 1;
  std::string state;    ///< sched::state_name of the app's state
  std::string verdict;  ///< sched::verdict_name of the admission verdict

  sim::Cycles submitted_at = 0;
  sim::Cycles launched_at = 0;  ///< 0 when never launched
  sim::Cycles stopped_at = 0;   ///< 0 while running / never launched
  /// MicroBlaze cycles its admission decision + launch cost.
  sim::Cycles admission_mb_cycles = 0;

  std::uint64_t words_in = 0;   ///< source words emitted for this app
  std::uint64_t words_out = 0;  ///< sink words received for this app
  int migrations = 0;           ///< live relocations survived
  int module_slices = 0;        ///< total footprint of the app's chain
};

/// Aggregate scheduler counters plus the per-app rows.
struct SchedulerAccounting {
  std::vector<AppAccounting> apps;

  int submitted = 0;
  int admitted = 0;  ///< all admissions, any path
  int admitted_after_defrag = 0;
  int admitted_after_preempt = 0;
  int rejected = 0;
  int preemptions = 0;         ///< apps evicted for higher priority
  int defrag_migrations = 0;   ///< completed live relocations
  int migration_rollbacks = 0; ///< relocations aborted by PR failure

  double fabric_utilization = 0.0;  ///< occupied slices / PRR slices

  std::string to_string() const;
};

}  // namespace vapres::core
