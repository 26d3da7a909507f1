// Declarative fleet specification.
//
// A FleetSpec names N independently-simulated fabrics — each a full
// VapresSystem (its own MicroBlaze, ICAP, SDRAM, RSB, clock ladder) —
// plus the routing policy and quota configuration the ControlPlane wires
// over them. Fabrics are heterogeneous on purpose: different PRR counts,
// footprint mixes (big 16x6 sites vs small 16x2 sites), IOM channel
// counts, and PRR clock ladders, so the router has real capability and
// capacity differences to reason about.
// The canonical shapes below all validate against the XC4VLX25 clock
// region rules (16-row regions, one PRR per region).
#pragma once

#include <string>
#include <vector>

#include "core/params.hpp"
#include "obs/health/rules.hpp"
#include "sched/scheduler.hpp"

namespace vapres::fleet {

/// One fabric of the fleet: a named, self-contained system parameter
/// set. The canonical builders cover the heterogeneity axes the router
/// scores; arbitrary params are accepted too.
struct FabricSpec {
  std::string name;
  core::SystemParams params;

  /// The 4-PRR / 3-IOM fragmentation-prone server floorplan shared with
  /// the soak harness (2 big 384-slice sites + 2 small 128-slice sites).
  static FabricSpec standard(const std::string& name);

  /// 6 PRRs (4 big + 2 small), 4 IOMs: the capacity tier.
  static FabricSpec big(const std::string& name);

  /// 3 small PRRs, 2 IOMs, 2 switch-box lanes, and a halved PRR clock
  /// ladder (25/12.5 MHz):
  /// hosts only single-stage small-footprint apps at relaxed stream
  /// rates. Interval-2 submissions are rate-infeasible here, so a
  /// probing router must steer them elsewhere.
  static FabricSpec compact(const std::string& name);

  /// 8 PRRs (5 big + 3 small) across both device halves, 5 IOMs: the
  /// consolidated "one big fabric" bench_fleet compares the sharded
  /// fleet against.
  static FabricSpec mega(const std::string& name);
};

/// How the router orders candidate fabrics for one submission.
enum class RoutePolicy {
  kCostBased,   ///< score every fabric with route_score, best first
  kRoundRobin,  ///< rotate blindly; fallback order is submission order
};

const char* policy_name(RoutePolicy p);

/// Elastic per-tenant quota knobs (see fleet/quota.hpp).
struct QuotaConfig {
  bool enabled = true;
  int min_budget_prrs = 2;
  int max_budget_prrs = 64;
  /// Starting budget for a first-seen tenant; 0 = fleet PRRs / 4,
  /// clamped into [min, max].
  int initial_budget_prrs = 0;
  /// Consecutive over-budget demand observations before a grow.
  int grow_observations = 3;
  /// Consecutive low-usage ticks before a shrink.
  int shrink_observations = 12;
  /// Usage below this fraction of budget counts as a low-usage tick.
  double shrink_below = 0.5;
  int grow_step_prrs = 2;
  int shrink_step_prrs = 1;
  /// Free PRRs that must remain fleet-wide for an over-budget tenant to
  /// be admitted anyway (the elastic overshoot headroom).
  int elastic_slack_prrs = 2;
};

/// Fleet health monitoring / remediation knobs (docs/HEALTH.md). Off by
/// default: an unconfigured fleet journals nothing health-related and
/// its digests are untouched.
struct HealthConfig {
  bool enabled = false;
  /// When false the monitor observes and journals rule state but never
  /// isolates or drains (alerting-only mode; also the bench's
  /// monitoring-overhead measurement mode).
  bool remediate = true;
  std::vector<obs::health::HealthRuleSpec> rules;
};

struct FleetSpec {
  std::vector<FabricSpec> fabrics;
  RoutePolicy policy = RoutePolicy::kCostBased;
  QuotaConfig quota;
  HealthConfig health;
  /// Scheduler options applied to every fabric's ApplicationScheduler.
  sched::ApplicationScheduler::Options scheduler;

  int total_prrs() const;

  /// `n` identical standard fabrics ("fab0".."fabN-1").
  static FleetSpec uniform(int n);

  /// The canonical 4-fabric heterogeneous fleet: 1 big + 2 standard +
  /// 1 compact.
  static FleetSpec heterogeneous();
};

/// The canonical per-fabric rule set over the signals the ControlPlane
/// publishes every health tick (ICAP retry rate, fault-recovery rate,
/// stream-gap words, admission reject streak, first-choice
/// submit->launch p99) plus a fleet-wide reconcile-violation watch.
/// Thresholds are starting points; callers tune per workload.
std::vector<obs::health::HealthRuleSpec> standard_health_rules(
    const FleetSpec& spec);

}  // namespace vapres::fleet
