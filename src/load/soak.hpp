// Sustained-load soak harness.
//
// Drives one scheduler + fabric through 10^4..10^6 complete application
// lifetimes (submit -> admit/reject -> launch -> stream -> teardown)
// from a seeded ScenarioGenerator, continuously checking the soak
// invariants (resource-leak, accounting, word-conservation, stream-gap,
// monotone kernel time) and sampling RSS so a run can assert memory
// stability on top of correctness. Deterministic per seed: the run
// digest folds every workload event and every terminal verdict, so two
// runs with the same options must produce the same digest bit for bit.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "load/invariants.hpp"
#include "load/scenario.hpp"
#include "sim/time.hpp"

namespace vapres::load {

struct SoakOptions {
  std::uint64_t lifetimes = 100'000;
  std::uint64_t seed = 1;
  /// Submissions between checkpoint sweeps (retire + invariants + RSS).
  std::uint64_t checkpoint_interval = 512;
  /// Print per-phase transitions and periodic checkpoint lines.
  bool verbose = false;
  /// Override the workload; default is ScenarioSpec::standard(seed,
  /// lifetimes).
  std::optional<ScenarioSpec> scenario;

  // ---- checkpoint/restore (snap subsystem, docs/SNAPSHOT.md) ----------
  /// Take one full-system checkpoint after this many submissions
  /// (0 = never). The blob wraps the system+scheduler snapshot plus the
  /// harness state (generator cursors, departure schedule, run digest).
  std::uint64_t snapshot_at = 0;
  /// Receives the most recent checkpoint blob when non-null.
  std::string* snapshot_out = nullptr;
  /// End the run right after the snapshot_at checkpoint (simulated
  /// crash); the result is partial and resumable via resume_from.
  bool stop_at_snapshot = false;
  /// Resume from a soak checkpoint blob (empty = fresh run). The other
  /// options must match the checkpointed run's; the final digest then
  /// equals the uninterrupted run's bit for bit.
  std::string resume_from;
  /// Additionally checkpoint every N submissions (0 = off) — the
  /// overhead-measurement knob bench_soak gates at <= 5% of wall time.
  std::uint64_t snapshot_every = 0;

  /// Black-box flight recorder (docs/HEALTH.md): when non-empty, any
  /// invariant violation detected by the final sweep writes a postmortem
  /// bundle (system snapshot + trace + metrics) under this directory.
  std::string flight_dir;
};

struct SoakResult {
  InvariantReport invariants;

  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  /// Submissions that reached a terminal state (stopped, preempted, or
  /// rejected) — the completed-lifetime count the gates are phrased in.
  std::uint64_t lifetimes_completed = 0;
  std::uint64_t churn_stops = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t defrag_migrations = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t fault_opportunities = 0;

  sim::Cycles final_cycle = 0;      ///< system-clock cycles simulated
  double wall_seconds = 0.0;        ///< host wall-clock for the run
  double lifetimes_per_second = 0.0;

  /// submit -> launch latency percentiles over admitted apps, in
  /// MicroBlaze cycles (from the "sched.submit_to_launch.cycles"
  /// histogram, reset at soak start).
  std::uint64_t p50_submit_to_launch = 0;
  std::uint64_t p99_submit_to_launch = 0;

  /// RSS samples (kB) at the first, middle, and last checkpoint plus
  /// the running peak; 0 when /proc/self/statm is unavailable.
  std::uint64_t rss_kb_start = 0;
  std::uint64_t rss_kb_mid = 0;
  std::uint64_t rss_kb_end = 0;
  std::uint64_t rss_kb_peak = 0;

  /// FNV-1a fold of the workload stream and every terminal verdict and
  /// word count: equal options => equal digest, byte for byte.
  std::uint64_t digest = 0;

  /// Flight-recorder bundles written (0 without flight_dir / on a clean
  /// run).
  std::uint64_t flight_bundles = 0;

  /// Checkpoints taken this run (snapshot_at + snapshot_every).
  std::uint64_t snapshots_taken = 0;
  /// Host wall-clock spent inside checkpointing (barrier + serialize) —
  /// the numerator of bench_soak's <= 5% overhead gate.
  double checkpoint_wall_seconds = 0.0;

  bool ok() const { return invariants.ok(); }
  std::string summary() const;
};

/// Runs one soak scenario to completion. Builds its own VapresSystem on
/// the shared server floorplan; the FaultInjector singleton is enabled
/// only inside fault-storm phases and always left disabled on return.
SoakResult run_soak(const SoakOptions& options);

/// Current resident set size in kB (from /proc/self/statm; 0 when the
/// file is unavailable, e.g. on non-Linux hosts).
std::uint64_t read_rss_kb();

}  // namespace vapres::load
