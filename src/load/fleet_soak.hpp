// Sustained-load soak harness for the multi-fabric fleet.
//
// Mirrors load::run_soak, but drives a fleet::ControlPlane instead
// of one scheduler: every workload event is routed by the fleet router
// under a tenant name, migration-churn events move running apps across
// fabrics mid-stream, and the soak invariants (resource-leak,
// accounting, word-conservation, stream-gap, clock monotonicity) are
// swept per fabric at every checkpoint. With crash churn enabled the
// harness also kills and restarts a random control-plane agent at a
// random journal version every N submissions, then proves the restarted
// plane reconverged: reconcile sweeps stay clean and replaying the
// retained journal reproduces the live view digest. Deterministic per
// seed: the digest folds the workload stream, every routing decision
// (chosen fabric, verdict), every migration outcome, every kill draw,
// and every terminal word count, so two runs with equal options produce
// bit-identical digests.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fleet/spec.hpp"
#include "load/invariants.hpp"
#include "load/scenario.hpp"
#include "sim/time.hpp"

namespace vapres::load {

struct FleetSoakOptions {
  std::uint64_t lifetimes = 1000;
  std::uint64_t seed = 1;
  int num_tenants = 3;
  std::uint64_t checkpoint_interval = 256;
  bool verbose = false;
  /// Crash churn: every N routed submissions, schedule a kill of one
  /// random control-plane agent at a near-future journal version
  /// (0 = off). Draws come from a dedicated SplitMix64 stream so
  /// enabling churn never perturbs the workload stream itself.
  std::uint64_t crash_churn_every = 0;
  /// Override the workload; default is ScenarioSpec::standard_fleet(
  /// seed, lifetimes, num_tenants, num_fabrics). Phases with
  /// icap_fault_probability > 0 arm the FaultInjector fleet-wide for
  /// their duration (the bench_health fault-storm knob), exactly like
  /// run_soak's storm phases.
  std::optional<ScenarioSpec> scenario;
  /// Override the fleet (its `health` config turns the monitor on);
  /// default is FleetSpec::uniform(2).
  std::optional<fleet::FleetSpec> fleet;

  // ---- health monitor / flight recorder (docs/HEALTH.md) --------------
  /// Submissions between ControlPlane::health_tick() calls when health
  /// monitoring is enabled.
  std::uint64_t health_tick_every = 64;
  /// When non-empty, arms the flight recorder: SLO breaches and final
  /// invariant violations write postmortem bundles under this directory.
  std::string flight_dir;
};

/// Per-fabric submit->launch latency split by route order: apps the
/// router landed on its first-choice fabric vs apps admitted through a
/// fallback attempt (tail-latency cost of routing around a full fabric).
struct RouteLatency {
  std::string fabric;
  std::uint64_t first_count = 0;
  std::uint64_t first_p50 = 0;
  std::uint64_t first_p99 = 0;
  std::uint64_t fallback_count = 0;
  std::uint64_t fallback_p50 = 0;
  std::uint64_t fallback_p99 = 0;
};

struct FleetSoakResult {
  InvariantReport invariants;

  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;        ///< routed but every fabric refused
  std::uint64_t quota_rejected = 0;  ///< refused by the quota governor
  std::uint64_t lifetimes_completed = 0;
  std::uint64_t churn_stops = 0;
  std::uint64_t route_fallbacks = 0;
  std::uint64_t migrations_attempted = 0;
  std::uint64_t migrations_moved = 0;
  std::uint64_t migrations_rolled_back = 0;
  std::uint64_t migrations_skipped = 0;
  std::uint64_t migrations_lost = 0;
  std::uint64_t quota_preemptions = 0;
  std::uint64_t quota_grows = 0;
  std::uint64_t quota_shrinks = 0;

  /// Crash-churn ledger: agent restarts actually executed, journal
  /// replay-vs-live digest comparisons performed (each restart and each
  /// checkpoint), and reconcile violations found (0 = clean).
  std::uint64_t agent_kills = 0;
  std::uint64_t replay_checks = 0;
  std::uint64_t reconcile_violations = 0;

  /// Health-monitor ledger (zeros when monitoring is off).
  std::uint64_t health_ticks = 0;
  std::uint64_t breaches = 0;
  std::uint64_t breaches_cleared = 0;
  std::uint64_t isolations = 0;
  std::uint64_t unisolations = 0;
  std::uint64_t drains = 0;
  std::uint64_t flight_bundles = 0;
  /// Host wall-clock spent inside health_tick() — the numerator of
  /// bench_health's <= 1% monitoring-overhead gate.
  double health_wall_seconds = 0.0;
  /// ICAP faults injected by storm phases (0 without one).
  std::uint64_t faults_injected = 0;

  /// Mean fabric utilization over checkpoints, one entry per fabric —
  /// the load-spread signal bench_fleet reports.
  std::vector<double> fabric_mean_utilization;

  /// Submit->launch percentiles split first-choice vs fallback, one
  /// entry per fabric.
  std::vector<RouteLatency> route_latency;

  sim::Cycles final_cycle = 0;  ///< fleet time (max fabric clock)
  double wall_seconds = 0.0;
  double lifetimes_per_second = 0.0;

  /// submit -> launch latency percentiles over admitted apps, fleet-wide
  /// (all fabrics share the "sched.submit_to_launch.cycles" histogram).
  std::uint64_t p50_submit_to_launch = 0;
  std::uint64_t p99_submit_to_launch = 0;

  std::uint64_t digest = 0;

  bool ok() const { return invariants.ok(); }
  std::string summary() const;
};

/// Runs one fleet soak scenario to completion. Builds its own
/// ControlPlane; resets the obs registry at start (per-run latency
/// percentiles need a clean histogram).
FleetSoakResult run_fleet_soak(const FleetSoakOptions& options);

}  // namespace vapres::load
