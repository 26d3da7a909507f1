// HealthAgent: the fleet's SLO monitor and remediation daemon.
//
// Sits in the ControlPlane's pump loop next to the router/quota/
// migration agents and follows the same discipline: at most ONE
// journaled step's side effects per poll(), so kills land exactly on
// journal version boundaries and a restarted agent reconverges from
// table rows alone.
//
// Decision-critical state never lives in this object. Rule hysteresis
// streaks, last raw readings, and eval cycles are journaled
// kHealthRuleState rows; isolation is a kIsolateFabric row; drains are
// plain kMigrateIntent rows executed by the MigrationAgent's existing
// step machine. The only member state is observational scratch (the
// HealthSampler rings) — a restart loses history graphs, never a
// decision (docs/HEALTH.md).
//
// One poll() performs the highest-priority applicable step:
//   1. evaluate the lowest-id rule still pending for the current
//      kHealthTick (one complete evaluation — streak update and breach
//      transition — in one journal entry);
//   2. isolate a fabric with active breaches (never the last
//      non-isolated fabric) or un-isolate one whose breaches cleared;
//   3. drain one running app off an isolated fabric (at most one drain
//      intent per fabric per tick, capped via the journaled
//      last_drain_version);
//   4. otherwise: no progress.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "fleet/agents.hpp"
#include "fleet/spec.hpp"
#include "fleet/statedb.hpp"
#include "obs/health/rules.hpp"
#include "obs/health/series.hpp"

namespace vapres::fleet {

class HealthAgent {
 public:
  HealthAgent(StateDb& db, const FleetSpec& spec,
              std::vector<std::unique_ptr<FabricAgent>>& fabrics,
              FleetCounters& counters);

  /// One journaled step (see file comment). Returns whether it made
  /// progress.
  bool poll();

  /// Journals the restart marker. Nothing to rebuild: streaks and
  /// remediation state are table rows, the sampler is scratch.
  void restart();

  const obs::health::RuleEngine& engine() const { return engine_; }
  obs::health::HealthSampler& sampler() { return sampler_; }
  const obs::health::HealthSampler& sampler() const { return sampler_; }

  /// Human-readable rule-state dump (flight bundles, fleet_status).
  std::string rules_to_string() const;

 private:
  /// Lowest rule id whose journaled eval cycle predates the current
  /// tick; -1 when the round is complete (or no tick happened yet).
  int pending_rule() const;
  bool evaluate_pending(int rule_id);
  bool step_isolation();
  bool step_drain();

  StateDb& db_;
  const FleetSpec& spec_;
  std::vector<std::unique_ptr<FabricAgent>>& fabrics_;
  FleetCounters& counters_;
  obs::health::RuleEngine engine_;
  obs::health::HealthSampler sampler_;
};

}  // namespace vapres::fleet
