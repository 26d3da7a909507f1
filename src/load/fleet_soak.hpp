// Sustained-load soak harness for the multi-fabric fleet.
//
// run_fleet_soak drives run_soak's event loop (load/soak.hpp) against a
// fleet::ControlPlane: every workload event is routed under a tenant
// name, migration-churn events move running apps across fabrics
// mid-stream, and the soak invariants are swept per fabric. With crash
// churn enabled it also kills and restarts a random control-plane agent
// at a random journal version every N submissions, then proves the
// plane reconverged: reconcile sweeps stay clean and replaying the
// retained journal reproduces the live view digest. The digest also
// folds every routing decision, migration outcome and kill draw.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fleet/spec.hpp"
#include "load/scenario.hpp"
#include "load/soak.hpp"

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
  /// seed, lifetimes, num_tenants, num_fabrics). Storm phases (the
  /// bench_health fault-storm knob) arm the FaultInjector fleet-wide for
  /// their duration, as in run_soak.
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

/// `rejected` counts submissions routed but refused by every fabric;
/// quota refusals count apart.
struct FleetSoakResult : SoakTotals {
  std::uint64_t quota_rejected = 0;  ///< refused by the quota governor
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
  /// Host wall-clock spent inside health_tick() — the numerator of
  /// bench_health's <= 1% monitoring-overhead gate.
  double health_wall_seconds = 0.0;

  /// Mean fabric utilization over checkpoints, one entry per fabric —
  /// the load-spread signal bench_fleet reports.
  std::vector<double> fabric_mean_utilization;

  /// Submit->launch percentiles split first-choice vs fallback, one
  /// entry per fabric.
  std::vector<RouteLatency> route_latency;

  std::string summary() const;
};

/// Runs one fleet soak scenario to completion. Builds its own
/// ControlPlane; resets the obs registry at start (per-run latency
/// percentiles need a clean histogram).
FleetSoakResult run_fleet_soak(const FleetSoakOptions& options);

}  // namespace vapres::load
