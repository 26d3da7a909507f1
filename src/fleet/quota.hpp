// Elastic per-tenant PRR quotas.
//
// The QuotaGovernor tracks, fleet-wide, how many PRRs each tenant's
// running apps occupy and maintains a per-tenant admission budget that
// adapts to observed demand with hysteresis: a streak of over-budget
// demand grows the budget in steps; a streak of low-usage ticks shrinks
// it back. Budgets are elastic rather than hard — an over-budget tenant
// is still admitted while the fleet has slack beyond a configured
// reserve, and is only preempted when another tenant is actually
// starved (the RouterAgent drives that part). All state transitions
// are deterministic functions of the observation sequence.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "fleet/spec.hpp"

namespace vapres::fleet {

class QuotaGovernor {
 public:
  QuotaGovernor(const QuotaConfig& config, int fleet_prrs);

  /// Records that `tenant` just asked for `want_prrs` more PRRs. Feeds
  /// the grow side of the hysteresis: `grow_observations` consecutive
  /// calls that would overshoot the budget trigger one grow step.
  void observe_demand(const std::string& tenant, int want_prrs);

  /// Replaces the tenant's tracked usage with the controller's current
  /// fleet-wide count (called after every admission/stop/migration).
  void set_usage(const std::string& tenant, int prrs);

  /// One hysteresis tick for the shrink side: `shrink_observations`
  /// consecutive ticks with usage below `shrink_below` x budget shrink
  /// the budget one step. Call once per routing round, not per fabric.
  void tick();

  /// Admission check: within budget always passes; over budget passes
  /// only while the fleet keeps `elastic_slack_prrs` free after the
  /// grant.
  bool admit(const std::string& tenant, int want_prrs,
             int fleet_free_prrs) const;

  int budget(const std::string& tenant) const;
  int usage(const std::string& tenant) const;
  /// Current grow-side streak (consecutive over-budget observations).
  int pressure(const std::string& tenant) const;
  /// Current shrink-side streak (consecutive low-usage ticks).
  int idle(const std::string& tenant) const;
  bool over_quota(const std::string& tenant) const;

  /// Reinstates one tenant's full hysteresis state — the warm-restart
  /// path: a restarted QuotaAgent rebuilds its governor from journaled
  /// kTenantState rows so streaks resume mid-count instead of zeroing.
  void restore(const std::string& tenant, int budget, int usage,
               int pressure, int idle);

  std::uint64_t grows() const { return grows_; }
  std::uint64_t shrinks() const { return shrinks_; }

 private:
  struct Tenant {
    int budget = 0;
    int usage = 0;
    int pressure = 0;  ///< consecutive over-budget demand observations
    int idle = 0;      ///< consecutive low-usage ticks
  };

  Tenant& tenant(const std::string& name);
  int initial_budget() const;
  int clamp_budget(int b) const;

  QuotaConfig cfg_;
  int fleet_prrs_ = 0;
  std::map<std::string, Tenant> tenants_;  // ordered: deterministic walks
  std::uint64_t grows_ = 0;
  std::uint64_t shrinks_ = 0;
};

}  // namespace vapres::fleet
