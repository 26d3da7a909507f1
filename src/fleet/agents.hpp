// Control-plane agents: the per-concern tasks the PR 7 monolithic
// FleetController was decomposed into (sonic-swss style: orchestrator +
// per-concern daemons over a shared state DB).
//
// Four agent kinds cooperate through the StateDb journal instead of
// calling each other's state:
//
//   - QuotaAgent      owns the QuotaGovernor; decides open submit
//                     intents (kQuotaDecision) and publishes per-tenant
//                     budget/usage/streak rows (kTenantState) the other
//                     agents and a restarted successor read back.
//   - RouterAgent     plans fabric try orders (kRouteOrder, probing
//                     through FabricAgent snapshots), walks them one
//                     admission attempt per poll, performs starvation
//                     preemption from table rows, and closes intents
//                     (kRouteResult).
//   - MigrationAgent  executes cross-fabric moves as a journaled step
//                     machine (kMigrateStep) — exactly one step's side
//                     effects per poll, so a kill at any journal version
//                     leaves a row its restarted successor resumes or
//                     rolls back from.
//   - FabricAgent     one per fabric: the only agent that touches that
//                     fabric's scheduler. Executes admissions/stops on
//                     behalf of the router and migrator (results are
//                     journaled before control returns), publishes
//                     occupancy rows (kFabricState), and reconciles
//                     table rows against live scheduler state after a
//                     restart.
//
// Every poll() does at most one journaled step and returns whether it
// made progress; the ControlPlane pumps the agents round-robin until
// the table is quiescent, checking scheduled kills between polls — so
// crash points are exactly journal version boundaries. Where
// restartability matters (anything multi-step), state flows through the
// table; single-step execution is delegated synchronously to the owning
// FabricAgent, with the result journaled before the call returns.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "fleet/cost.hpp"
#include "obs/bus.hpp"
#include "fleet/quota.hpp"
#include "fleet/spec.hpp"
#include "fleet/statedb.hpp"
#include "sched/scheduler.hpp"

namespace vapres::fleet {

/// Plain (non-obs) decision counters shared by the agents — the
/// decomposed equivalent of the monolith's per-controller counters.
struct FleetCounters {
  std::uint64_t submissions = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;        ///< routed but every fabric refused
  std::uint64_t quota_rejected = 0;  ///< refused by the governor
  std::uint64_t fallbacks = 0;       ///< fabric rejected, next one tried
  std::uint64_t quota_preemptions = 0;
  std::uint64_t migrations_moved = 0;
  std::uint64_t migrations_rolled_back = 0;
  std::uint64_t migrations_lost = 0;
  std::uint64_t migrations_skipped = 0;
  // Health monitor decisions (fleet/health_agent.hpp):
  std::uint64_t breaches_tripped = 0;
  std::uint64_t breaches_cleared = 0;
  std::uint64_t isolations = 0;
  std::uint64_t unisolations = 0;
  std::uint64_t drains_started = 0;
};

class FabricAgent;

/// Journals the kAgentRestart marker for `a`, bumps the
/// fleet.agent.restarts counter, and emits the bus instant — the shared
/// tail of every agent's restart() (HealthAgent included,
/// fleet/health_agent.cpp).
void note_agent_restart(
    StateDb& db, AgentId a,
    const std::vector<std::unique_ptr<FabricAgent>>& fabrics);

/// One fabric as the agents see it (owned by the ControlPlane).
struct FabricHost {
  std::string name;
  core::VapresSystem* sys = nullptr;
  sched::ApplicationScheduler* sched = nullptr;
};

// ---- FabricAgent -------------------------------------------------------

class FabricAgent {
 public:
  FabricAgent(int index, FabricHost host, StateDb& db,
              FleetCounters& counters);

  int index() const { return index_; }
  const std::string& name() const { return host_.name; }
  sched::ApplicationScheduler& sched() { return *host_.sched; }
  const sched::ApplicationScheduler& sched() const { return *host_.sched; }
  core::VapresSystem& sys() { return *host_.sys; }

  /// Result of one delegated admission attempt.
  struct AdmitOutcome {
    int local = -1;
    bool running = false;
    sched::AdmissionVerdict verdict = sched::AdmissionVerdict::kPending;
    std::string reason;
  };

  /// Submits + runs admission for an open intent, journaling the
  /// kAdmitResult before returning (the router's execution arm).
  AdmitOutcome try_admit(std::int64_t seq, const sched::AppRequest& request);

  /// Submit + run admission outside an intent (migration replay /
  /// rollback); the caller journals the step that records the outcome.
  AdmitOutcome admit_raw(const sched::AppRequest& request);

  void stop_local(int local);
  void adopt_masters_from(const FabricAgent& src);

  /// Read-only scoring snapshot for the router; tenant_running is
  /// derived from table app rows + live records.
  FabricSnapshot snapshot(const std::string& tenant,
                          const sched::AppRequest& request) const;

  /// Publishes a kFabricState row when occupancy changed since the last
  /// publication. Returns whether it journaled.
  bool publish();

  /// Journals the restart marker. A fresh FabricAgent has no private
  /// state to rebuild — its truth is the live scheduler — so recovery
  /// is reconcile() proving table rows and scheduler state agree.
  void restart();

  /// Table-vs-scheduler consistency sweep: every table app row hosted
  /// here resolves to a live record whose PRR slots it owns, every
  /// occupied slot belongs to a table-row app, and channel accounting
  /// matches the running population. Returns human-readable violations
  /// (empty = clean).
  std::vector<std::string> reconcile() const;

 private:
  int index_;
  FabricHost host_;
  StateDb& db_;
  FleetCounters& counters_;
};

// ---- QuotaAgent --------------------------------------------------------

class QuotaAgent {
 public:
  QuotaAgent(StateDb& db, const FleetSpec& spec,
             std::vector<std::unique_ptr<FabricAgent>>& fabrics,
             FleetCounters& counters);

  /// One step: decide an undecided open intent (observe_demand + admit,
  /// journal kQuotaDecision + the tenant's kTenantState), or perform
  /// the end-of-submission usage sync + hysteresis tick for a closed
  /// one. Returns whether it made progress.
  bool poll();

  /// Usage resync outside a submission (stop / migration / preemption):
  /// set_usage for every table tenant from live running rows, publish
  /// changed rows. No tick — mirrors the monolith's sync_usage().
  void sync_usage();

  QuotaGovernor& governor() { return *governor_; }
  const QuotaGovernor& governor() const { return *governor_; }

  /// Journals the restart marker and rebuilds the governor from table
  /// kTenantState rows — budgets, usage, and both hysteresis streaks
  /// resume mid-count instead of zeroing. A pending end-of-submission
  /// tick (kRouteResult newer than the last quota publication) is
  /// re-detected from the retained journal.
  void restart();

 private:
  int free_prrs() const;
  void publish_tenant(const std::string& name);
  /// Versions of the newest retained kRouteResult / quota-authored
  /// kTenantState (0 = none) — the pending-tick detector.
  void scan_retained(std::uint64_t& last_result,
                     std::uint64_t& last_publish) const;

  StateDb& db_;
  const FleetSpec& spec_;
  std::vector<std::unique_ptr<FabricAgent>>& fabrics_;
  FleetCounters& counters_;
  std::unique_ptr<QuotaGovernor> governor_;
};

// ---- RouterAgent -------------------------------------------------------

class RouterAgent {
 public:
  RouterAgent(StateDb& db, const FleetSpec& spec,
              std::vector<std::unique_ptr<FabricAgent>>& fabrics,
              FleetCounters& counters);

  /// One step of the open intent: close a quota-refused one, plan the
  /// try order for the current round, make one admission attempt, or —
  /// order exhausted, capacity-blocked, requester within budget —
  /// preempt the worst over-quota tenant's youngest app and open a
  /// retry round. Returns whether it made progress.
  bool poll();

  /// Last human-readable failure detail (scratch, not journaled; empty
  /// after a restart).
  const std::string& last_reason() const { return reason_; }

  /// Journals the restart marker. All routing progress (round, order,
  /// next attempt index, rr cursor) lives in the table, so the fresh
  /// agent resumes the open intent exactly where its predecessor died.
  void restart();

 private:
  sim::Picoseconds now_ps() const;
  std::vector<int> plan_order(const std::string& tenant,
                              const sched::AppRequest& request);
  /// Worst-overshoot over-quota tenant's youngest running app, computed
  /// purely from table rows (+ live running checks). -1 = no victim.
  int pick_preemption_victim(const std::string& for_tenant) const;
  void close_intent(const IntentRow& row, bool admitted, int fabric,
                    sched::AdmissionVerdict verdict);

  StateDb& db_;
  const FleetSpec& spec_;
  std::vector<std::unique_ptr<FabricAgent>>& fabrics_;
  FleetCounters& counters_;
  std::string reason_;
};

// ---- MigrationAgent ----------------------------------------------------

class MigrationAgent {
 public:
  MigrationAgent(StateDb& db,
                 std::vector<std::unique_ptr<FabricAgent>>& fabrics,
                 FleetCounters& counters);

  /// Advances the in-flight migration row by exactly one journaled
  /// step: validate -> adopt masters -> stop source -> replay admission
  /// on the destination -> finalize (or roll back onto the source).
  /// Returns whether it made progress.
  bool poll();

  /// Last skip/rollback detail (scratch, not journaled).
  const std::string& last_reason() const { return reason_; }

  /// Journals the restart marker and drops all scratch. The fresh agent
  /// re-derives the moving app's request from the source scheduler's
  /// record (live, or terminal after kSourceStopped — the genuine
  /// reconcile-against-live-scheduler path) and resumes the step
  /// machine from the journaled row.
  void restart();

 private:
  FabricAgent& fabric(int index);
  /// The moving app's request, from scratch or recovered from the
  /// source scheduler's (possibly terminal) record.
  const sched::AppRequest& request_of(const MigrationRow& row);

  StateDb& db_;
  std::vector<std::unique_ptr<FabricAgent>>& fabrics_;
  FleetCounters& counters_;
  std::optional<sched::AppRequest> request_;  ///< scratch for the row
  std::string reason_;
  /// Open kFleetMigrate span for the in-flight row (scratch: a restart
  /// drops it, leaving an unmatched begin in the ring — harmless).
  std::optional<obs::Span> span_;
};

}  // namespace vapres::fleet
