#include "fleet/health_agent.hpp"

#include <algorithm>
#include <climits>

#include "obs/bus.hpp"
#include "obs/metrics.hpp"
#include "sim/check.hpp"

namespace vapres::fleet {

namespace {

/// args[0] layout of a kHealthRuleState entry (statedb.hpp).
std::int64_t pack_rule_state(const obs::health::RuleOutcome& out,
                             int fabric) {
  const auto clamp20 = [](int v) {
    return static_cast<std::uint64_t>(std::clamp(v, 0, 0xfffff));
  };
  std::uint64_t packed = clamp20(out.state.bad_streak) |
                         (clamp20(out.state.good_streak) << 20);
  if (out.state.breached) packed |= 1ull << 40;
  if (out.tripped) packed |= 1ull << 41;
  if (out.cleared) packed |= 1ull << 42;
  if (out.state.primed) packed |= 1ull << 43;
  packed |= static_cast<std::uint64_t>(fabric + 1) << 48;
  return static_cast<std::int64_t>(packed);
}

}  // namespace

HealthAgent::HealthAgent(StateDb& db, const FleetSpec& spec,
                         std::vector<std::unique_ptr<FabricAgent>>& fabrics,
                         FleetCounters& counters)
    : db_(db),
      spec_(spec),
      fabrics_(fabrics),
      counters_(counters),
      engine_(spec.health.rules) {
  for (const obs::health::HealthRuleSpec& r : spec.health.rules) {
    VAPRES_REQUIRE(r.fabric >= -1 && r.fabric < db_.num_fabrics(),
                   "health rule indicts an unknown fabric");
    VAPRES_REQUIRE(!r.name.empty(), "health rules must be named");
  }
}

int HealthAgent::pending_rule() const {
  const std::uint64_t tick = db_.health_tick_version();
  if (tick == 0) return -1;  // no tick yet: nothing to evaluate
  const auto& rows = db_.health_rules();
  for (int id = 0; id < engine_.num_rules(); ++id) {
    const std::uint64_t evaluated =
        id < static_cast<int>(rows.size())
            ? rows[static_cast<std::size_t>(id)].last_eval_version
            : 0;
    if (evaluated < tick) return id;
  }
  return -1;
}

bool HealthAgent::evaluate_pending(int rule_id) {
  const obs::health::HealthRuleSpec& rule = engine_.rule(rule_id);
  const auto& rows = db_.health_rules();

  obs::health::RuleState state;
  bool named = false;
  if (rule_id < static_cast<int>(rows.size())) {
    const HealthRuleRow& row = rows[static_cast<std::size_t>(rule_id)];
    state.last_raw = row.last_raw;
    state.primed = row.primed;
    state.bad_streak = row.bad_streak;
    state.good_streak = row.good_streak;
    state.breached = row.breached;
    state.breaches = row.breaches;
    named = !row.name.empty();
  }

  const std::int64_t raw = obs::health::RuleEngine::read_raw(rule);
  const obs::health::RuleOutcome out =
      obs::health::RuleEngine::evaluate(rule, raw, state);

  // The whole evaluation — streak update AND breach transition — is one
  // journal entry, so no kill point can split them.
  db_.append(AgentId::kHealth, Op::kHealthRuleState, rule_id,
             {pack_rule_state(out, rule.fabric), out.state.last_raw,
              static_cast<std::int64_t>(db_.health_tick_version()),
              static_cast<std::int64_t>(out.state.breaches)},
             named ? std::string{} : rule.name);

  obs::EventBus& bus = obs::EventBus::instance();
  if (out.tripped) {
    ++counters_.breaches_tripped;
    fleet_counter("fleet.health.breaches").add();
    bus.instant(obs::Subsystem::kFleet, obs::ev::kHealthBreach,
                bus.track("fleet"), fleet_now_ps(fabrics_),
                static_cast<std::uint64_t>(rule_id),
                static_cast<std::uint64_t>(out.value));
  }
  if (out.cleared) {
    ++counters_.breaches_cleared;
    fleet_counter("fleet.health.clears").add();
    bus.instant(obs::Subsystem::kFleet, obs::ev::kHealthClear,
                bus.track("fleet"), fleet_now_ps(fabrics_),
                static_cast<std::uint64_t>(rule_id));
  }
  return true;
}

bool HealthAgent::step_isolation() {
  obs::EventBus& bus = obs::EventBus::instance();
  for (int f = 0; f < db_.num_fabrics(); ++f) {
    const int breaches = db_.active_breaches(f);
    const bool isolated = db_.isolated(f);
    if (breaches > 0 && !isolated && db_.available_fabrics() > 1) {
      // Never isolate the last serving fabric: a fully-fenced fleet
      // rejects everything, which is worse than any degradation.
      db_.append(AgentId::kHealth, Op::kIsolateFabric, f, {1, breaches});
      ++counters_.isolations;
      fleet_counter("fleet.health.isolations").add();
      bus.instant(obs::Subsystem::kFleet, obs::ev::kHealthIsolate,
                  bus.track("fleet"), fleet_now_ps(fabrics_),
                  static_cast<std::uint64_t>(f), 1);
      return true;
    }
    if (isolated && breaches == 0) {
      // Un-isolate once every indicting rule cleared (the rules' own
      // clear_observations streaks are the healthy-streak hysteresis).
      db_.append(AgentId::kHealth, Op::kIsolateFabric, f, {0, 0});
      ++counters_.unisolations;
      fleet_counter("fleet.health.unisolations").add();
      bus.instant(obs::Subsystem::kFleet, obs::ev::kHealthIsolate,
                  bus.track("fleet"), fleet_now_ps(fabrics_),
                  static_cast<std::uint64_t>(f), 0);
      return true;
    }
  }
  return false;
}

bool HealthAgent::step_drain() {
  // Drains ride the existing migration step machine, one in flight at a
  // time, and never preempt an open submission intent.
  if (db_.open_intent() != nullptr || db_.inflight_migration() != nullptr) {
    return false;
  }
  for (int f = 0; f < db_.num_fabrics(); ++f) {
    if (!db_.isolated(f)) continue;
    // At most one drain intent per fabric per tick: the journaled
    // last_drain_version gates retries, so a restarted agent never
    // re-issues an intent its predecessor already opened.
    if (db_.fabric_health(f).last_drain_version >=
        db_.health_tick_version()) {
      continue;
    }
    int app_id = -1;
    for (const auto& [id, row] : db_.apps()) {
      if (row.fabric != f) continue;
      if (!fabrics_[static_cast<std::size_t>(f)]
               ->sched()
               .app(row.local)
               .running()) {
        continue;
      }
      app_id = id;
      break;  // lowest fleet id first: deterministic drain order
    }
    if (app_id < 0) continue;
    int dst = -1;
    int best_util = INT_MAX;
    for (int j = 0; j < db_.num_fabrics(); ++j) {
      if (j == f || db_.isolated(j)) continue;
      const int util = db_.fabric(j).util_permille;
      if (util < best_util) {
        best_util = util;
        dst = j;
      }
    }
    if (dst < 0) return false;  // nowhere to drain to
    db_.append(AgentId::kHealth, Op::kMigrateIntent, app_id,
               {dst, 1 /* probe_first: never lose the app */});
    ++counters_.drains_started;
    fleet_counter("fleet.health.drains").add();
    return true;
  }
  return false;
}

bool HealthAgent::poll() {
  const int pending = pending_rule();
  if (pending >= 0) return evaluate_pending(pending);
  if (!spec_.health.remediate) return false;
  if (step_isolation()) return true;
  return step_drain();
}

void HealthAgent::restart() {
  // Streaks, isolation, and in-flight drains are all table rows; the
  // sampler is observational scratch whose loss changes no decision.
  note_agent_restart(db_, AgentId::kHealth, fabrics_);
}

std::string HealthAgent::rules_to_string() const {
  std::string out = "health rules (" +
                    std::to_string(engine_.num_rules()) + "):\n";
  const auto& rows = db_.health_rules();
  for (int id = 0; id < engine_.num_rules(); ++id) {
    const obs::health::HealthRuleSpec& r = engine_.rule(id);
    out += "  [" + std::to_string(id) + "] " + r.name + " (" +
           obs::health::source_name(r.source) + " " + r.metric +
           (r.breach_above ? " > " : " < ") + std::to_string(r.threshold) +
           ", trip " + std::to_string(r.breach_observations) + ", clear " +
           std::to_string(r.clear_observations) + ")";
    if (id < static_cast<int>(rows.size())) {
      const HealthRuleRow& row = rows[static_cast<std::size_t>(id)];
      out += row.breached ? " BREACHED" : " ok";
      out += " streaks +" + std::to_string(row.bad_streak) + "/-" +
             std::to_string(row.good_streak) + " trips " +
             std::to_string(row.breaches);
    }
    out += "\n";
  }
  return out;
}

}  // namespace vapres::fleet
