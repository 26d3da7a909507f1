#include "fleet/quota.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "sim/check.hpp"

namespace vapres::fleet {

QuotaGovernor::QuotaGovernor(const QuotaConfig& config, int fleet_prrs)
    : cfg_(config), fleet_prrs_(fleet_prrs) {
  VAPRES_REQUIRE(fleet_prrs_ > 0, "quota governor needs a non-empty fleet");
  VAPRES_REQUIRE(cfg_.min_budget_prrs >= 1, "minimum budget must be >= 1");
  VAPRES_REQUIRE(cfg_.max_budget_prrs >= cfg_.min_budget_prrs,
                 "max budget below min budget");
  VAPRES_REQUIRE(cfg_.grow_observations >= 1 && cfg_.shrink_observations >= 1,
                 "hysteresis streaks must be >= 1");
}

int QuotaGovernor::initial_budget() const {
  const int b = cfg_.initial_budget_prrs > 0 ? cfg_.initial_budget_prrs
                                             : fleet_prrs_ / 4;
  return clamp_budget(b);
}

int QuotaGovernor::clamp_budget(int b) const {
  return std::clamp(b, cfg_.min_budget_prrs, cfg_.max_budget_prrs);
}

QuotaGovernor::Tenant& QuotaGovernor::tenant(const std::string& name) {
  auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    Tenant t;
    t.budget = initial_budget();
    it = tenants_.emplace(name, t).first;
  }
  return it->second;
}

void QuotaGovernor::observe_demand(const std::string& name, int want_prrs) {
  if (!cfg_.enabled) return;
  Tenant& t = tenant(name);
  t.idle = 0;  // demand resets the shrink streak
  if (t.usage + want_prrs > t.budget) {
    if (++t.pressure >= cfg_.grow_observations) {
      const int grown = clamp_budget(t.budget + cfg_.grow_step_prrs);
      if (grown != t.budget) {
        t.budget = grown;
        ++grows_;
        obs::Registry::instance().counter("fleet.quota.grows").add();
      }
      t.pressure = 0;
    }
  } else {
    t.pressure = 0;
  }
}

void QuotaGovernor::set_usage(const std::string& name, int prrs) {
  tenant(name).usage = prrs;
}

void QuotaGovernor::tick() {
  if (!cfg_.enabled) return;
  for (auto& [name, t] : tenants_) {
    const double low_mark = cfg_.shrink_below * static_cast<double>(t.budget);
    if (t.budget > cfg_.min_budget_prrs &&
        static_cast<double>(t.usage) < low_mark) {
      if (++t.idle >= cfg_.shrink_observations) {
        const int shrunk = clamp_budget(t.budget - cfg_.shrink_step_prrs);
        if (shrunk != t.budget) {
          t.budget = shrunk;
          ++shrinks_;
          obs::Registry::instance().counter("fleet.quota.shrinks").add();
        }
        t.idle = 0;
      }
    } else {
      t.idle = 0;
    }
  }
}

bool QuotaGovernor::admit(const std::string& name, int want_prrs,
                          int fleet_free_prrs) const {
  if (!cfg_.enabled) return true;
  const auto it = tenants_.find(name);
  const int budget = it != tenants_.end() ? it->second.budget
                                          : initial_budget();
  const int usage = it != tenants_.end() ? it->second.usage : 0;
  if (usage + want_prrs <= budget) return true;
  // Elastic overshoot: allowed while the fleet keeps its slack reserve
  // free after the grant.
  return fleet_free_prrs - want_prrs >= cfg_.elastic_slack_prrs;
}

int QuotaGovernor::budget(const std::string& name) const {
  const auto it = tenants_.find(name);
  return it != tenants_.end() ? it->second.budget : initial_budget();
}

int QuotaGovernor::usage(const std::string& name) const {
  const auto it = tenants_.find(name);
  return it != tenants_.end() ? it->second.usage : 0;
}

int QuotaGovernor::pressure(const std::string& name) const {
  const auto it = tenants_.find(name);
  return it != tenants_.end() ? it->second.pressure : 0;
}

int QuotaGovernor::idle(const std::string& name) const {
  const auto it = tenants_.find(name);
  return it != tenants_.end() ? it->second.idle : 0;
}

void QuotaGovernor::restore(const std::string& name, int budget, int usage,
                            int pressure, int idle) {
  Tenant& t = tenant(name);
  t.budget = clamp_budget(budget);
  t.usage = usage;
  t.pressure = pressure;
  t.idle = idle;
}

bool QuotaGovernor::over_quota(const std::string& name) const {
  const auto it = tenants_.find(name);
  return it != tenants_.end() && it->second.usage > it->second.budget;
}

}  // namespace vapres::fleet
