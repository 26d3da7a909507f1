// Fleet control plane: the orchestrator over the cooperating agents.
//
// The ControlPlane replaces PR 7's monolithic FleetController with the
// same public surface, but internally every operation is an *intent*
// journaled into the shared StateDb and executed by the agents
// (fleet/agents.hpp) as the orchestrator pumps them round-robin until
// the table is quiescent. Decision logic is call-for-call identical to
// the monolith — same probe order, same governor sequence, same
// tie-breaks — so routing stays bit-compatible; what changed is that
// every intermediate step is now journaled, which buys crash
// tolerance: schedule_kill() (or restart_agent()) destroys and
// reconstructs any single agent between journal entries, and the fresh
// agent replays the table + live scheduler state to reconverge —
// in-flight migrations resume or roll back from their journaled step,
// quota hysteresis streaks are restored mid-count, and routing resumes
// at the exact attempt index. See docs/CONTROLPLANE.md.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "fleet/agents.hpp"
#include "fleet/health_agent.hpp"
#include "fleet/quota.hpp"
#include "fleet/spec.hpp"
#include "fleet/statedb.hpp"
#include "obs/health/flight.hpp"
#include "sched/scheduler.hpp"

namespace vapres::fleet {

/// Fleet-wide app handle: which fabric, which local scheduler app id.
struct FleetAppId {
  int fabric = -1;
  int app = -1;
};

/// What the router did with one submission (assembled from the journal
/// entries the agents wrote while the intent was open).
struct RouteDecision {
  int fleet_id = -1;       ///< stable fleet-wide id (-1 when not admitted)
  int fabric = -1;         ///< hosting fabric when admitted
  bool admitted = false;
  bool quota_limited = false;  ///< refused by the governor, never routed
  int attempts = 0;        ///< fabrics actually tried (submissions made)
  bool preempted_for = false;  ///< an over-quota app was evicted for this
  /// Last scheduler verdict (the blocking one when every fabric
  /// rejected; kPending when quota-limited or no fabric was eligible).
  sched::AdmissionVerdict verdict = sched::AdmissionVerdict::kPending;
  std::string reason;
  std::vector<int> order;  ///< fabric indices in the order they were tried
};

enum class MigrateOutcome {
  kMoved,       ///< running on the destination under the same fleet id
  kRolledBack,  ///< destination refused; re-admitted on the source
  kLost,        ///< destination and rollback both failed; app is gone
  kSkipped,     ///< not attempted (probe said no / not running / same fabric)
};

const char* migrate_outcome_name(MigrateOutcome o);

struct MigrateResult {
  MigrateOutcome outcome = MigrateOutcome::kSkipped;
  int fleet_id = -1;
  int from_fabric = -1;
  int to_fabric = -1;
  std::string reason;
};

/// One fabric's most recent full-system checkpoint (snap subsystem,
/// docs/SNAPSHOT.md): the system+scheduler blob plus capture metadata.
struct FabricCheckpoint {
  std::string blob;
  std::uint64_t epoch = 0;    ///< journal version at capture (blob epoch)
  std::uint64_t version = 0;  ///< version of the kFabricCheckpoint row
  sim::Cycles cycle = 0;      ///< fabric system-clock cycle at capture
  int running = 0;            ///< running apps captured in the blob
};

/// What failover(crashed, spare) did with the crashed fabric's apps.
struct FailoverResult {
  int from_fabric = -1;
  int to_fabric = -1;
  std::uint64_t epoch = 0;  ///< checkpoint epoch restored from
  int apps_restored = 0;    ///< running on the spare under their fleet ids
  int apps_retired = 0;     ///< already terminal in the checkpoint
  int apps_lost = 0;        ///< spare refused admission (gated at zero)
  std::vector<int> restored_ids;  ///< fleet ids restored, in table order
};

class ControlPlane {
 public:
  using Counters = FleetCounters;

  /// Builds every fabric (bring-up included) and the agents over them.
  explicit ControlPlane(const FleetSpec& spec);

  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  int num_fabrics() const { return static_cast<int>(fabrics_.size()); }
  const std::string& fabric_name(int fabric) const;
  core::VapresSystem& system(int fabric);
  sched::ApplicationScheduler& scheduler(int fabric);
  const sched::ApplicationScheduler& scheduler(int fabric) const;

  /// Routes one submission for `tenant`: journals the intent, pumps the
  /// agents to quiescence, and assembles the decision from the journal.
  RouteDecision submit(const std::string& tenant,
                       const sched::AppRequest& request);

  /// Moves a running app to `dst_fabric` through the MigrationAgent's
  /// journaled step machine (masters adopted, teardown on the source,
  /// replay admission on the destination, rollback re-admit on refusal).
  MigrateResult migrate(int fleet_id, int dst_fabric,
                        bool probe_first = true);

  /// Stops a running app. The fleet id stays resolvable (terminal
  /// record) until retire_terminal() prunes it.
  void stop(int fleet_id);

  bool running(int fleet_id) const;
  /// Location of a still-resolvable fleet id (live or terminal).
  std::optional<FleetAppId> locate(int fleet_id) const;
  /// Scheduler record behind a still-resolvable fleet id.
  const sched::AppRecord& record_of(int fleet_id) const;
  const std::string& tenant_of(int fleet_id) const;
  /// Fleet ids of currently running apps, ascending.
  std::vector<int> running_ids() const;
  /// Running apps hosted on `fabric`.
  int running_on(int fabric) const;

  /// Journals kAppRemoved for fleet ids whose records went terminal,
  /// then retires terminal records on every fabric. Returns ids pruned.
  int retire_terminal();

  /// Runs every fabric that is behind forward to `cycle` (fabrics ahead
  /// are left untouched — fleet time is the max, never rewound).
  void advance_to(sim::Cycles cycle);
  /// Fleet time: the furthest fabric's system-clock cycle count.
  sim::Cycles now() const;

  int total_prrs() const;
  int free_prrs() const;

  /// The QuotaAgent's governor. The reference is invalidated when that
  /// agent restarts — re-fetch rather than caching across restarts.
  QuotaGovernor& governor() { return quota_->governor(); }
  const QuotaGovernor& governor() const { return quota_->governor(); }
  const Counters& counters() const { return counters_; }
  const FleetSpec& spec() const { return spec_; }

  // ---- control-plane surface (new vs the monolith) ---------------------

  const StateDb& statedb() const { return db_; }
  /// Truncates the journal (snapshotting the view as the replay base) —
  /// the soak calls this at checkpoints to bound journal depth.
  void truncate_journal() { db_.truncate(); }

  /// Schedules one kill: the next time the journal reaches
  /// `at_version` between agent polls, `agent` is destroyed,
  /// reconstructed, and restarted. One kill is pending at a time.
  void schedule_kill(AgentId agent, std::uint64_t at_version);

  /// Destroys, reconstructs, and restarts one agent immediately; fabric
  /// agents reconcile against their live scheduler on the way up.
  /// Returns reconcile violations (always empty for non-fabric agents).
  std::vector<std::string> restart_agent(AgentId agent);

  /// Full table-vs-scheduler consistency sweep across every fabric.
  std::vector<std::string> reconcile();

  /// Total agent restarts (from the table's restart ledger).
  std::uint64_t agent_restarts() const;

  // ---- checkpoint / failover (snap subsystem, docs/SNAPSHOT.md) --------

  /// Quiesces `fabric` to the cold-snapshot barrier and captures a full
  /// system+scheduler checkpoint tagged with the current journal
  /// version; journals kFabricCheckpoint. Returns the checkpoint epoch.
  /// Call periodically (the fleet soak does so per sweep) so failover
  /// always has a recent blob.
  std::uint64_t checkpoint_fabric(int fabric);
  /// checkpoint_fabric() over every fabric.
  void checkpoint_all();
  /// Most recent checkpoint of `fabric` (nullptr before the first).
  const FabricCheckpoint* last_checkpoint(int fabric) const;

  /// Simulated fabric loss: destroys the fabric's system, scheduler,
  /// and agent, and brings up a blank replacement (journaling the agent
  /// restart). Table rows still point at the dead fabric — call
  /// failover() next; resolving those fleet ids in between is invalid.
  void kill_fabric(int fabric);

  /// Restores the crashed fabric's checkpointed apps onto `spare`: reads
  /// the last checkpoint's journaled app records (restoring no system
  /// and adopting no masters), replay-admits every app running in it on
  /// the spare under its original fleet id, and journals every move
  /// (kFailover + per-app kAppLocation/kAppRemoved rows).
  FailoverResult failover(int crashed, int spare);

  std::uint64_t checkpoints_taken() const { return checkpoints_taken_; }
  std::uint64_t failovers() const { return failovers_; }

  // ---- health monitor / flight recorder (docs/HEALTH.md) ---------------

  /// Present when spec.health.enabled — the SLO monitor pumped next to
  /// the other agents.
  bool health_enabled() const { return health_ != nullptr; }
  HealthAgent& health_agent();
  const HealthAgent& health_agent() const;

  /// One monitoring tick: refreshes the per-fabric health gauges,
  /// freezes the sampler window, journals kHealthTick, and pumps the
  /// agents (the HealthAgent evaluates every rule exactly once per tick
  /// and remediates). Returns the number of rules that newly tripped.
  /// When a flight directory is set, any trip records a bundle.
  std::uint64_t health_tick();
  std::uint64_t health_ticks() const { return health_ticks_; }

  /// Arms the flight recorder: health_tick() breaches (and explicit
  /// record_flight() calls) write postmortem bundles under `dir`.
  void set_flight_dir(const std::string& dir, std::size_t max_bundles = 8);
  /// Writes one bundle now (harnesses call this on invariant failures).
  /// Returns the bundle path, or "" without an armed recorder / at cap.
  std::string record_flight(const std::string& reason);
  std::uint64_t flight_bundles() const {
    return flight_ ? flight_->bundles_written() : 0;
  }
  const obs::health::FlightRecorder* flight_recorder() const {
    return flight_.get();
  }

  /// Operator-facing text dump: journal version/depth/digest, per-agent
  /// restart counts, per-fabric occupancy from the table, per-fabric
  /// checkpoint epochs, tenants, decision/failover counters.
  std::string fleet_status() const;

 private:
  struct Fabric {
    std::string name;
    std::unique_ptr<core::VapresSystem> sys;
    std::unique_ptr<sched::ApplicationScheduler> sched;
  };

  Fabric& fabric(int index);
  const Fabric& fabric(int index) const;
  /// (Re)builds fabric `index` from its spec — system with every site
  /// brought up, scheduler, and a fresh agent over them. The
  /// constructor's bring-up and kill_fabric()'s blank replacement.
  void build_fabric(int index);
  std::unique_ptr<FabricAgent> new_fabric_agent(int index);

  /// Polls the agents round-robin until none makes progress, executing
  /// any scheduled kill between polls.
  void pump();
  void check_kill();
  void refresh_gauges();
  /// Per-fabric health signal gauges (fleet.<name>.reconfig_retries /
  /// .fault_recoveries / .words_discarded / .reject_streak) the standard
  /// rules watch — refreshed at each health_tick() before sampling.
  void refresh_health_gauges();
  RouteDecision assemble_decision(std::uint64_t since_version) const;

  FleetSpec spec_;
  std::vector<std::unique_ptr<Fabric>> fabrics_;
  StateDb db_;
  FleetCounters counters_;
  std::vector<std::optional<FabricCheckpoint>> checkpoints_;
  std::uint64_t checkpoints_taken_ = 0;
  std::uint64_t failovers_ = 0;
  std::uint64_t failover_apps_restored_ = 0;
  std::uint64_t failover_apps_lost_ = 0;
  std::uint64_t reconciles_run_ = 0;
  std::vector<std::unique_ptr<FabricAgent>> fabric_agents_;
  std::unique_ptr<QuotaAgent> quota_;
  std::unique_ptr<RouterAgent> router_;
  std::unique_ptr<MigrationAgent> migration_;
  std::unique_ptr<HealthAgent> health_;
  std::unique_ptr<obs::health::FlightRecorder> flight_;
  std::uint64_t health_ticks_ = 0;
  std::int64_t submit_seq_ = 0;

  struct PendingKill {
    AgentId agent;
    std::uint64_t at_version;
  };
  std::optional<PendingKill> kill_;
};

}  // namespace vapres::fleet
