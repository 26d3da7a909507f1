#include "fleet/controlplane.hpp"

#include <algorithm>
#include <cmath>

#include "core/stats.hpp"
#include "obs/bus.hpp"
#include "obs/metrics.hpp"
#include "sim/check.hpp"
#include "snap/system_snapshot.hpp"

namespace vapres::fleet {

namespace {

obs::Counter& ctr(const char* name) {
  return obs::Registry::instance().counter(name);
}

}  // namespace

const char* migrate_outcome_name(MigrateOutcome o) {
  switch (o) {
    case MigrateOutcome::kMoved: return "moved";
    case MigrateOutcome::kRolledBack: return "rolled_back";
    case MigrateOutcome::kLost: return "lost";
    case MigrateOutcome::kSkipped: return "skipped";
  }
  return "?";
}

ControlPlane::ControlPlane(const FleetSpec& spec)
    : spec_(spec),
      db_(static_cast<int>(spec.fabrics.size())) {
  VAPRES_REQUIRE(!spec_.fabrics.empty(), "fleet needs at least one fabric");
  for (const FabricSpec& fs : spec_.fabrics) {
    auto f = std::make_unique<Fabric>();
    f->name = fs.name;
    f->sys = std::make_unique<core::VapresSystem>(fs.params);
    f->sys->bring_up_all_sites();
    f->sched = std::make_unique<sched::ApplicationScheduler>(*f->sys,
                                                             spec_.scheduler);
    fabrics_.push_back(std::move(f));
  }
  checkpoints_.resize(fabrics_.size());
  for (int i = 0; i < num_fabrics(); ++i) {
    Fabric& f = *fabrics_[static_cast<std::size_t>(i)];
    fabric_agents_.push_back(std::make_unique<FabricAgent>(
        i, FabricHost{f.name, f.sys.get(), f.sched.get()}, db_, counters_));
  }
  quota_ = std::make_unique<QuotaAgent>(db_, spec_, fabric_agents_,
                                        counters_);
  router_ = std::make_unique<RouterAgent>(db_, spec_, fabric_agents_,
                                          counters_);
  migration_ = std::make_unique<MigrationAgent>(db_, fabric_agents_,
                                                counters_);
  if (spec_.health.enabled) {
    health_ = std::make_unique<HealthAgent>(db_, spec_, fabric_agents_,
                                            counters_);
  }
}

ControlPlane::Fabric& ControlPlane::fabric(int index) {
  VAPRES_REQUIRE(index >= 0 && index < num_fabrics(), "fabric out of range");
  return *fabrics_[static_cast<std::size_t>(index)];
}

const ControlPlane::Fabric& ControlPlane::fabric(int index) const {
  VAPRES_REQUIRE(index >= 0 && index < num_fabrics(), "fabric out of range");
  return *fabrics_[static_cast<std::size_t>(index)];
}

const std::string& ControlPlane::fabric_name(int index) const {
  return fabric(index).name;
}

core::VapresSystem& ControlPlane::system(int index) {
  return *fabric(index).sys;
}

sched::ApplicationScheduler& ControlPlane::scheduler(int index) {
  return *fabric(index).sched;
}

const sched::ApplicationScheduler& ControlPlane::scheduler(int index) const {
  return *fabric(index).sched;
}

sim::Picoseconds ControlPlane::now_ps() const {
  sim::Picoseconds t = 0;
  for (const auto& f : fabrics_) t = std::max(t, f->sys->sim().now());
  return t;
}

sim::Cycles ControlPlane::now() const {
  sim::Cycles c = 0;
  for (const auto& f : fabrics_) {
    c = std::max(c, f->sys->system_clock().cycle_count());
  }
  return c;
}

void ControlPlane::advance_to(sim::Cycles cycle) {
  for (const auto& f : fabrics_) {
    const sim::Cycles at = f->sys->system_clock().cycle_count();
    if (at < cycle) f->sys->run_system_cycles(cycle - at);
  }
}

int ControlPlane::total_prrs() const {
  int n = 0;
  for (const auto& f : fabrics_) n += f->sched->fabric().num_slots();
  return n;
}

int ControlPlane::free_prrs() const {
  int n = 0;
  for (const auto& f : fabrics_) n += f->sched->fabric().free_count();
  return n;
}

void ControlPlane::check_kill() {
  if (!kill_ || db_.version() < kill_->at_version) return;
  const AgentId agent = kill_->agent;
  kill_.reset();
  restart_agent(agent);
}

void ControlPlane::pump() {
  bool progress = true;
  while (progress) {
    progress = false;
    check_kill();
    if (quota_->poll()) progress = true;
    check_kill();
    if (router_->poll()) progress = true;
    check_kill();
    if (migration_->poll()) progress = true;
    check_kill();
    if (health_ && health_->poll()) progress = true;
    check_kill();
    for (auto& fa : fabric_agents_) {
      if (fa->publish()) progress = true;
    }
    check_kill();
  }
}

RouteDecision ControlPlane::assemble_decision(
    std::uint64_t since_version) const {
  RouteDecision d;
  for (const JournalEntry& e : db_.journal()) {
    if (e.version <= since_version) continue;
    switch (e.op) {
      case Op::kRouteOrder: {
        d.order.clear();
        std::string num;
        for (const char c : e.note) {
          if (c == ',') {
            d.order.push_back(std::stoi(num));
            num.clear();
          } else {
            num.push_back(c);
          }
        }
        if (!num.empty()) d.order.push_back(std::stoi(num));
        break;
      }
      case Op::kAdmitResult:
        ++d.attempts;
        break;
      case Op::kAppLocation:
        if (e.agent == AgentId::kRouter) {
          d.fleet_id = static_cast<int>(e.key);
        }
        break;
      case Op::kRouteResult:
        d.admitted = e.args[0] != 0;
        d.fabric = static_cast<int>(e.args[1]);
        d.verdict = static_cast<sched::AdmissionVerdict>(e.args[2]);
        d.quota_limited = (e.args[3] & 1) != 0;
        d.preempted_for = (e.args[3] & 2) != 0;
        break;
      default:
        break;
    }
  }
  d.reason = d.quota_limited ? "tenant over quota and fleet slack exhausted"
                             : router_->last_reason();
  return d;
}

RouteDecision ControlPlane::submit(const std::string& tenant,
                                   const sched::AppRequest& request) {
  ++counters_.submissions;
  ctr("fleet.route.submissions").add();

  obs::EventBus& bus = obs::EventBus::instance();
  const std::uint32_t track = bus.track("fleet");
  obs::Span span = obs::Span::begin(
      obs::Subsystem::kFleet, obs::ev::kRoute, track, now_ps(),
      static_cast<std::uint64_t>(db_.next_fleet_id()));

  const std::uint64_t mark = db_.version();
  const std::int64_t seq = ++submit_seq_;
  db_.append(AgentId::kOrchestrator, Op::kSubmitIntent, seq, {},
             tenant + '\x1E' + serialize_request(request));
  pump();

  RouteDecision d = assemble_decision(mark);
  refresh_gauges();
  span.end(now_ps());
  return d;
}

MigrateResult ControlPlane::migrate(int fleet_id, int dst_fabric,
                                    bool probe_first) {
  VAPRES_REQUIRE(dst_fabric >= 0 && dst_fabric < num_fabrics(),
                 "migration destination out of range");
  MigrateResult r;
  r.fleet_id = fleet_id;
  r.to_fabric = dst_fabric;
  const AppRow* before = db_.app(fleet_id);
  if (before) r.from_fabric = before->fabric;

  const std::uint64_t mark = db_.version();
  db_.append(AgentId::kOrchestrator, Op::kMigrateIntent, fleet_id,
             {dst_fabric, probe_first ? 1 : 0});
  pump();

  // The terminal kMigrateStep written since the intent is the outcome.
  for (auto it = db_.journal().rbegin(); it != db_.journal().rend(); ++it) {
    if (it->version <= mark) break;
    if (it->op != Op::kMigrateStep ||
        it->key != static_cast<std::int64_t>(fleet_id)) {
      continue;
    }
    const MigStep step = static_cast<MigStep>(it->args[0]);
    if (step == MigStep::kMoved) r.outcome = MigrateOutcome::kMoved;
    else if (step == MigStep::kRolledBack) {
      r.outcome = MigrateOutcome::kRolledBack;
    } else if (step == MigStep::kLost) r.outcome = MigrateOutcome::kLost;
    else if (step == MigStep::kSkipped) r.outcome = MigrateOutcome::kSkipped;
    else continue;
    break;
  }
  r.reason = migration_->last_reason();

  if (r.outcome != MigrateOutcome::kSkipped) {
    quota_->sync_usage();
    refresh_gauges();
  }
  return r;
}

void ControlPlane::stop(int fleet_id) {
  const AppRow* row = db_.app(fleet_id);
  VAPRES_REQUIRE(row != nullptr, "stop: unknown fleet id");
  if (scheduler(row->fabric).app(row->local).running()) {
    fabric_agents_[static_cast<std::size_t>(row->fabric)]->stop_local(
        row->local);
  }
  quota_->sync_usage();
  refresh_gauges();
}

bool ControlPlane::running(int fleet_id) const {
  const AppRow* row = db_.app(fleet_id);
  if (!row) return false;
  return scheduler(row->fabric).app(row->local).running();
}

std::optional<FleetAppId> ControlPlane::locate(int fleet_id) const {
  const AppRow* row = db_.app(fleet_id);
  if (!row) return std::nullopt;
  return FleetAppId{row->fabric, row->local};
}

const sched::AppRecord& ControlPlane::record_of(int fleet_id) const {
  const AppRow* row = db_.app(fleet_id);
  VAPRES_REQUIRE(row != nullptr, "record_of: unknown fleet id");
  return scheduler(row->fabric).app(row->local);
}

const std::string& ControlPlane::tenant_of(int fleet_id) const {
  const AppRow* row = db_.app(fleet_id);
  VAPRES_REQUIRE(row != nullptr, "tenant_of: unknown fleet id");
  return db_.tenant(row->tenant).name;
}

std::vector<int> ControlPlane::running_ids() const {
  std::vector<int> out;
  for (const auto& [id, row] : db_.apps()) {
    if (scheduler(row.fabric).app(row.local).running()) out.push_back(id);
  }
  return out;
}

int ControlPlane::running_on(int index) const {
  return static_cast<int>(scheduler(index).running_apps().size());
}

int ControlPlane::retire_terminal() {
  std::vector<int> dead;
  for (const auto& [id, row] : db_.apps()) {
    const sched::AppRecord& rec = scheduler(row.fabric).app(row.local);
    const bool terminal =
        !rec.running() && rec.state != sched::AppState::kQueued;
    if (terminal) dead.push_back(id);
  }
  for (const int id : dead) {
    db_.append(AgentId::kOrchestrator, Op::kAppRemoved, id,
               {static_cast<std::int64_t>(RemoveCause::kRetired)});
  }
  for (const auto& f : fabrics_) f->sched->retire_terminal();
  return static_cast<int>(dead.size());
}

void ControlPlane::schedule_kill(AgentId agent, std::uint64_t at_version) {
  kill_ = PendingKill{agent, at_version};
}

std::vector<std::string> ControlPlane::restart_agent(AgentId agent) {
  switch (agent) {
    case AgentId::kRouter:
      router_ = std::make_unique<RouterAgent>(db_, spec_, fabric_agents_,
                                              counters_);
      router_->restart();
      return {};
    case AgentId::kQuota:
      quota_ = std::make_unique<QuotaAgent>(db_, spec_, fabric_agents_,
                                            counters_);
      quota_->restart();
      return {};
    case AgentId::kMigration:
      migration_ = std::make_unique<MigrationAgent>(db_, fabric_agents_,
                                                    counters_);
      migration_->restart();
      return {};
    case AgentId::kOrchestrator:
      VAPRES_REQUIRE(false, "the orchestrator is not a restartable agent");
      return {};
    case AgentId::kHealth:
      VAPRES_REQUIRE(health_ != nullptr,
                     "restart: health monitoring is not enabled");
      health_ = std::make_unique<HealthAgent>(db_, spec_, fabric_agents_,
                                              counters_);
      health_->restart();
      return {};
    default: {
      const int i = static_cast<int>(agent) -
                    static_cast<int>(AgentId::kFabric0);
      VAPRES_REQUIRE(i >= 0 && i < num_fabrics(),
                     "restart: unknown fabric agent");
      Fabric& f = *fabrics_[static_cast<std::size_t>(i)];
      fabric_agents_[static_cast<std::size_t>(i)] =
          std::make_unique<FabricAgent>(
              i, FabricHost{f.name, f.sys.get(), f.sched.get()}, db_,
              counters_);
      FabricAgent& fa = *fabric_agents_[static_cast<std::size_t>(i)];
      fa.restart();
      return fa.reconcile();
    }
  }
}

std::vector<std::string> ControlPlane::reconcile() {
  ++reconciles_run_;
  std::vector<std::string> violations;
  for (const auto& fa : fabric_agents_) {
    std::vector<std::string> v = fa->reconcile();
    violations.insert(violations.end(), v.begin(), v.end());
  }
  return violations;
}

std::uint64_t ControlPlane::checkpoint_fabric(int index) {
  Fabric& f = fabric(index);
  // Cold-snapshot barrier (the same one load/soak.cpp reaches): no
  // reconfiguration or prefetch in flight when the blob is cut.
  f.sys->drain_transfer_path();
  while (f.sys->prefetch().pending() > 0 || f.sys->prefetch().staging()) {
    f.sys->run_system_cycles(64);
  }
  FabricCheckpoint cp;
  cp.epoch = db_.version();
  cp.blob = snap::SystemSnapshot::save(*f.sys, cp.epoch, f.sched.get());
  cp.cycle = f.sys->system_clock().cycle_count();
  cp.running = running_on(index);
  const JournalEntry& e = db_.append(
      AgentId::kOrchestrator, Op::kFabricCheckpoint, index,
      {static_cast<std::int64_t>(cp.epoch),
       static_cast<std::int64_t>(cp.blob.size()), cp.running, 0});
  cp.version = e.version;
  const std::uint64_t epoch = cp.epoch;
  checkpoints_[static_cast<std::size_t>(index)] = std::move(cp);
  ++checkpoints_taken_;
  ctr("fleet.checkpoint.taken").add();
  return epoch;
}

void ControlPlane::checkpoint_all() {
  for (int i = 0; i < num_fabrics(); ++i) checkpoint_fabric(i);
}

const FabricCheckpoint* ControlPlane::last_checkpoint(int index) const {
  VAPRES_REQUIRE(index >= 0 && index < num_fabrics(),
                 "fabric out of range");
  const auto& cp = checkpoints_[static_cast<std::size_t>(index)];
  return cp ? &*cp : nullptr;
}

void ControlPlane::kill_fabric(int index) {
  Fabric& f = fabric(index);
  f.sched.reset();
  f.sys = std::make_unique<core::VapresSystem>(
      spec_.fabrics[static_cast<std::size_t>(index)].params);
  f.sys->bring_up_all_sites();
  f.sched = std::make_unique<sched::ApplicationScheduler>(*f.sys,
                                                          spec_.scheduler);
  fabric_agents_[static_cast<std::size_t>(index)] =
      std::make_unique<FabricAgent>(
          index, FabricHost{f.name, f.sys.get(), f.sched.get()}, db_,
          counters_);
  fabric_agents_[static_cast<std::size_t>(index)]->restart();
}

FailoverResult ControlPlane::failover(int crashed, int spare) {
  VAPRES_REQUIRE(spare >= 0 && spare < num_fabrics() && crashed >= 0 &&
                     crashed < num_fabrics(),
                 "failover fabric out of range");
  VAPRES_REQUIRE(crashed != spare, "failover needs a distinct spare");
  const auto& cp = checkpoints_[static_cast<std::size_t>(crashed)];
  VAPRES_REQUIRE(cp.has_value(), "failover: fabric '" +
                                     fabric(crashed).name +
                                     "' was never checkpointed");

  FailoverResult r;
  r.from_fabric = crashed;
  r.to_fabric = spare;
  r.epoch = cp->epoch;
  db_.append(AgentId::kOrchestrator, Op::kFailover, crashed,
             {spare, static_cast<std::int64_t>(cp->epoch)},
             fabric(crashed).name + "->" + fabric(spare).name);

  // Reconstruct the crashed fabric's checkpointed state off to the side
  // — the blob is the only surviving truth — then seed the spare with
  // the relocation masters the moved apps will need.
  auto ghost_sys =
      snap::SystemSnapshot::restore_system(
          cp->blob, spec_.fabrics[static_cast<std::size_t>(crashed)].params);
  auto ghost_sched = snap::SystemSnapshot::restore_scheduler(cp->blob,
                                                             *ghost_sys);
  fabric(spare).sched->adopt_masters(ghost_sched->store());

  // Copy the rows first: the per-app journal appends mutate the view.
  std::vector<std::pair<int, AppRow>> rows;
  for (const auto& [id, row] : db_.apps()) {
    if (row.fabric == crashed) rows.emplace_back(id, row);
  }
  for (const auto& [id, row] : rows) {
    const sched::AppRecord& rec = ghost_sched->app(row.local);
    if (!rec.running()) {
      db_.append(AgentId::kOrchestrator, Op::kAppRemoved, id,
                 {static_cast<std::int64_t>(RemoveCause::kRetired)});
      ++r.apps_retired;
      continue;
    }
    const FabricAgent::AdmitOutcome out =
        fabric_agents_[static_cast<std::size_t>(spare)]->admit_raw(
            rec.request);
    if (out.running) {
      db_.append(AgentId::kOrchestrator, Op::kAppLocation, id,
                 {spare, out.local, row.tenant});
      ++r.apps_restored;
      r.restored_ids.push_back(id);
      ctr("fleet.failover.apps_restored").add();
    } else {
      db_.append(AgentId::kOrchestrator, Op::kAppRemoved, id,
                 {static_cast<std::int64_t>(RemoveCause::kLost)});
      ++r.apps_lost;
      ctr("fleet.failover.apps_lost").add();
    }
  }

  ++failovers_;
  failover_apps_restored_ += static_cast<std::uint64_t>(r.apps_restored);
  failover_apps_lost_ += static_cast<std::uint64_t>(r.apps_lost);
  ctr("fleet.failover.performed").add();
  quota_->sync_usage();
  refresh_gauges();
  return r;
}

std::uint64_t ControlPlane::agent_restarts() const {
  std::uint64_t n = 0;
  n += db_.restarts(AgentId::kRouter);
  n += db_.restarts(AgentId::kQuota);
  n += db_.restarts(AgentId::kMigration);
  n += db_.restarts(AgentId::kHealth);
  for (int i = 0; i < num_fabrics(); ++i) n += db_.restarts(fabric_agent_id(i));
  return n;
}

HealthAgent& ControlPlane::health_agent() {
  VAPRES_REQUIRE(health_ != nullptr, "health monitoring is not enabled");
  return *health_;
}

const HealthAgent& ControlPlane::health_agent() const {
  VAPRES_REQUIRE(health_ != nullptr, "health monitoring is not enabled");
  return *health_;
}

void ControlPlane::refresh_health_gauges() {
  obs::Registry& reg = obs::Registry::instance();
  for (int i = 0; i < num_fabrics(); ++i) {
    Fabric& f = fabric(i);
    const core::SystemStats stats = core::collect_stats(*f.sys);
    const std::string base = "fleet." + f.name;
    reg.gauge(base + ".reconfig_retries")
        .set(static_cast<std::int64_t>(stats.robustness.reconfig_retries));
    reg.gauge(base + ".fault_recoveries")
        .set(static_cast<std::int64_t>(stats.robustness.total_recoveries()));
    reg.gauge(base + ".words_discarded")
        .set(static_cast<std::int64_t>(stats.total_discarded()));
    reg.gauge(base + ".reject_streak").set(f.sched->rejection_streak());
  }
}

std::uint64_t ControlPlane::health_tick() {
  VAPRES_REQUIRE(health_ != nullptr, "health monitoring is not enabled");
  ++health_ticks_;
  refresh_gauges();
  refresh_health_gauges();
  health_->sampler().sample(now());

  const std::uint64_t mark = db_.version();
  db_.append(AgentId::kOrchestrator, Op::kHealthTick, 0,
             {static_cast<std::int64_t>(now()), 0, 0, 0});
  pump();

  std::uint64_t tripped = 0;
  for (auto it = db_.journal().rbegin(); it != db_.journal().rend(); ++it) {
    if (it->version <= mark) break;
    if (it->op == Op::kHealthRuleState &&
        ((static_cast<std::uint64_t>(it->args[0]) >> 41) & 1) != 0) {
      ++tripped;
    }
  }
  if (tripped > 0 && flight_) record_flight("slo_breach");
  return tripped;
}

void ControlPlane::set_flight_dir(const std::string& dir,
                                  std::size_t max_bundles) {
  flight_ = std::make_unique<obs::health::FlightRecorder>(dir, max_bundles);
}

std::string ControlPlane::record_flight(const std::string& reason) {
  if (!flight_) return {};
  // Checkpoint the most suspect fabric (first one with active breaches,
  // else fabric 0) so the bundle carries a restorable snapshot. The
  // checkpoint journals — callers comparing replay digests across runs
  // must record flights in both or neither.
  int suspect = 0;
  for (int i = 0; i < num_fabrics(); ++i) {
    if (db_.active_breaches(i) > 0) {
      suspect = i;
      break;
    }
  }
  checkpoint_fabric(suspect);
  const FabricCheckpoint* cp = last_checkpoint(suspect);

  const std::string path = flight_->record(
      reason, now(), cp ? cp->blob : std::string{}, db_.serialize_journal(),
      health_ ? &health_->sampler() : nullptr,
      health_ ? health_->rules_to_string() : std::string{});
  if (!path.empty()) {
    ctr("fleet.flight.bundles").add();
    obs::EventBus& bus = obs::EventBus::instance();
    bus.instant(obs::Subsystem::kFleet, obs::ev::kFlightRecord,
                bus.track("fleet"), now_ps(), flight_->bundles_written());
  }
  return path;
}

void ControlPlane::refresh_gauges() {
  obs::Registry& reg = obs::Registry::instance();
  for (int i = 0; i < num_fabrics(); ++i) {
    const Fabric& f = fabric(i);
    const std::string base = "fleet." + f.name;
    reg.gauge(base + ".running").set(running_on(i));
    reg.gauge(base + ".utilization_pct")
        .set(static_cast<std::int64_t>(
            std::lround(f.sched->fabric_utilization() * 100.0)));
    reg.gauge(base + ".occupied_slices")
        .set(static_cast<std::int64_t>(
            std::lround(f.sched->fabric_utilization() *
                        static_cast<double>(
                            f.sched->fabric().total_slices()))));
  }
  reg.gauge("fleet.free_prrs").set(free_prrs());
  reg.gauge("fleet.journal.depth")
      .set(static_cast<std::int64_t>(db_.journal_depth()));
  reg.gauge("fleet.journal.version")
      .set(static_cast<std::int64_t>(db_.version()));
}

std::string ControlPlane::fleet_status() const {
  std::string out = "fleet control plane (" +
                    std::string(policy_name(spec_.policy)) + ", " +
                    std::to_string(num_fabrics()) + " fabrics)\n";
  std::vector<std::string> names;
  names.reserve(fabrics_.size());
  for (const auto& f : fabrics_) names.push_back(f->name);
  out += db_.to_string(&names);
  auto agent_line = [&](AgentId a) {
    out += "  agent " + agent_label(a) + ": alive, " +
           std::to_string(db_.restarts(a)) + " restart(s)\n";
  };
  agent_line(AgentId::kQuota);
  agent_line(AgentId::kRouter);
  agent_line(AgentId::kMigration);
  if (health_) agent_line(AgentId::kHealth);
  for (int i = 0; i < num_fabrics(); ++i) agent_line(fabric_agent_id(i));
  out += "  decisions: " + std::to_string(counters_.submissions) +
         " submitted, " + std::to_string(counters_.admitted) + " admitted, " +
         std::to_string(counters_.rejected) + " rejected, " +
         std::to_string(counters_.quota_rejected) + " quota-rejected, " +
         std::to_string(counters_.fallbacks) + " fallbacks\n";
  out += "  migrations: " + std::to_string(counters_.migrations_moved) +
         " moved, " + std::to_string(counters_.migrations_rolled_back) +
         " rolled back, " + std::to_string(counters_.migrations_skipped) +
         " skipped, " + std::to_string(counters_.migrations_lost) +
         " lost\n";
  if (health_) {
    out += "  health: " + std::to_string(health_ticks_) + " tick(s), " +
           std::to_string(counters_.breaches_tripped) + " breach(es) (" +
           std::to_string(counters_.breaches_cleared) + " cleared), " +
           std::to_string(counters_.isolations) + " isolation(s) (" +
           std::to_string(counters_.unisolations) + " lifted), " +
           std::to_string(counters_.drains_started) + " drain(s)\n";
  }
  if (flight_) {
    out += "  flight recorder: " + flight_->dir() + ", " +
           std::to_string(flight_->bundles_written()) + " bundle(s)\n";
  }
  for (int i = 0; i < num_fabrics(); ++i) {
    const FabricCheckpoint* cp = last_checkpoint(i);
    if (cp == nullptr) {
      out += "  checkpoint " + fabric(i).name + ": none\n";
    } else {
      out += "  checkpoint " + fabric(i).name + ": epoch " +
             std::to_string(cp->epoch) + " @v" +
             std::to_string(cp->version) + ", " +
             std::to_string(cp->blob.size()) + " bytes, " +
             std::to_string(cp->running) + " running, cycle " +
             std::to_string(cp->cycle) + "\n";
    }
  }
  out += "  failovers: " + std::to_string(failovers_) + " performed, " +
         std::to_string(failover_apps_restored_) + " apps restored, " +
         std::to_string(failover_apps_lost_) + " lost; " +
         std::to_string(checkpoints_taken_) + " checkpoints, " +
         std::to_string(reconciles_run_) + " reconciles\n";
  return out;
}

}  // namespace vapres::fleet
