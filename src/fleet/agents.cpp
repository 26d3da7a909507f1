#include "fleet/agents.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "sim/check.hpp"

namespace vapres::fleet {

sim::Picoseconds fleet_now_ps(
    const std::vector<std::unique_ptr<FabricAgent>>& fabrics) {
  sim::Picoseconds t = 0;
  for (const auto& f : fabrics) t = std::max(t, f->sys().sim().now());
  return t;
}

obs::Counter& fleet_counter(const char* name) {
  return obs::Registry::instance().counter(name);
}

void note_agent_restart(
    StateDb& db, AgentId a,
    const std::vector<std::unique_ptr<FabricAgent>>& fabrics) {
  db.append(a, Op::kAgentRestart, static_cast<std::int64_t>(a));
  fleet_counter("fleet.agent.restarts").add();
  obs::EventBus& bus = obs::EventBus::instance();
  bus.instant(obs::Subsystem::kFleet, obs::ev::kAgentRestart,
              bus.track("fleet"), fleet_now_ps(fabrics),
              static_cast<std::uint64_t>(a), db.version());
}

// ---- FabricAgent -------------------------------------------------------

FabricAgent::FabricAgent(int index, FabricHost host, StateDb& db,
                         FleetCounters& counters)
    : index_(index), host_(host), db_(db), counters_(counters) {}

FabricAgent::AdmitOutcome FabricAgent::admit_raw(
    const sched::AppRequest& request) {
  AdmitOutcome out;
  out.local = host_.sched->submit(request);
  host_.sched->run_admission();
  const sched::AppRecord& rec = host_.sched->app(out.local);
  out.running = rec.running();
  out.verdict = rec.verdict;
  out.reason = rec.reject_reason;
  return out;
}

FabricAgent::AdmitOutcome FabricAgent::try_admit(
    std::int64_t seq, const sched::AppRequest& request) {
  const AdmitOutcome out = admit_raw(request);
  db_.append(fabric_agent_id(index_), Op::kAdmitResult, seq,
             {index_, out.local, static_cast<std::int64_t>(out.verdict),
              out.running ? 1 : 0});
  return out;
}

void FabricAgent::stop_local(int local) { host_.sched->stop(local); }

void FabricAgent::adopt_masters_from(const FabricAgent& src) {
  host_.sched->adopt_masters(src.sched().store());
}

FabricSnapshot FabricAgent::snapshot(const std::string& tenant,
                                     const sched::AppRequest& request) const {
  const sched::ApplicationScheduler& sched = *host_.sched;
  FabricSnapshot snap;
  snap.fabric = index_;
  snap.probe = sched.probe_admit(request);
  snap.utilization = sched.fabric_utilization();
  const int total_pairs = std::min(sched.total_source_channels(),
                                   sched.total_sink_channels());
  if (total_pairs > 0) {
    snap.channel_utilization =
        1.0 - static_cast<double>(sched.free_channel_pairs()) /
                  static_cast<double>(total_pairs);
  }
  snap.queued = sched.queued_count();
  for (const auto& [id, row] : db_.apps()) {
    if (row.fabric != index_) continue;
    if (db_.tenant(row.tenant).name != tenant) continue;
    if (sched.app(row.local).running()) ++snap.tenant_running;
  }
  return snap;
}

bool FabricAgent::publish() {
  const sched::ApplicationScheduler& sched = *host_.sched;
  const int free = sched.fabric().free_count();
  const int queued = sched.queued_count();
  const int running = static_cast<int>(sched.running_apps().size());
  const int utilp = static_cast<int>(
      std::lround(sched.fabric_utilization() * 1000.0));
  const FabricRow& cur = db_.fabric(index_);
  if (cur.free_prrs == free && cur.queued == queued &&
      cur.running == running && cur.util_permille == utilp) {
    return false;
  }
  db_.append(fabric_agent_id(index_), Op::kFabricState, index_,
             {free, queued, running, utilp});
  return true;
}

void FabricAgent::restart() {
  // A FabricAgent's only truth is the live scheduler; nothing private
  // to rebuild. The marker feeds the restart ledger and the churn gate.
  db_.append(fabric_agent_id(index_), Op::kAgentRestart,
             static_cast<std::int64_t>(fabric_agent_id(index_)));
  fleet_counter("fleet.agent.restarts").add();
  obs::EventBus& bus = obs::EventBus::instance();
  bus.instant(obs::Subsystem::kFleet, obs::ev::kAgentRestart,
              bus.track("fleet"), host_.sys->sim().now(),
              static_cast<std::uint64_t>(fabric_agent_id(index_)),
              db_.version());
}

std::vector<std::string> FabricAgent::reconcile() const {
  std::vector<std::string> violations;
  const sched::ApplicationScheduler& sched = *host_.sched;
  const std::vector<int> owners = sched.prr_owners();
  std::set<int> table_running;  // local app ids the table says run here
  int checks = 0;

  for (const auto& [fleet_id, row] : db_.apps()) {
    if (row.fabric != index_) continue;
    ++checks;
    if (row.local < sched.first_live_id() || row.local >= sched.num_apps()) {
      violations.push_back("fleet id " + std::to_string(fleet_id) +
                           " names unknown local app " +
                           std::to_string(row.local));
      continue;
    }
    const sched::AppRecord& rec = sched.app(row.local);
    if (!rec.running()) continue;  // terminal rows await retirement
    table_running.insert(row.local);
    for (const int prr : rec.prrs) {
      ++checks;
      if (prr < 0 || prr >= static_cast<int>(owners.size()) ||
          owners[static_cast<std::size_t>(prr)] != row.local) {
        violations.push_back("fleet id " + std::to_string(fleet_id) +
                             " claims PRR " + std::to_string(prr) +
                             " the fabric does not assign to it");
      }
    }
  }

  for (std::size_t prr = 0; prr < owners.size(); ++prr) {
    ++checks;
    const int owner = owners[prr];
    if (owner >= 0 && table_running.count(owner) == 0) {
      violations.push_back("PRR " + std::to_string(prr) +
                           " occupied by local app " + std::to_string(owner) +
                           " with no table row");
    }
  }

  // Channel accounting: every running app pins exactly one source and
  // one sink channel.
  const int running = static_cast<int>(sched.running_apps().size());
  ++checks;
  if (sched.busy_source_channels() != running ||
      sched.busy_sink_channels() != running) {
    violations.push_back(
        "channel accounting drift: " +
        std::to_string(sched.busy_source_channels()) + " source / " +
        std::to_string(sched.busy_sink_channels()) + " sink busy for " +
        std::to_string(running) + " running apps");
  }

  fleet_counter("fleet.reconcile.checks")
      .add(static_cast<std::uint64_t>(checks));
  if (!violations.empty()) {
    fleet_counter("fleet.reconcile.violations")
        .add(static_cast<std::uint64_t>(violations.size()));
  }
  obs::EventBus& bus = obs::EventBus::instance();
  bus.instant(obs::Subsystem::kFleet, obs::ev::kReconcile,
              bus.track("fleet"), host_.sys->sim().now(),
              static_cast<std::uint64_t>(checks),
              static_cast<std::uint64_t>(violations.size()));
  return violations;
}

// ---- QuotaAgent --------------------------------------------------------

QuotaAgent::QuotaAgent(StateDb& db, const FleetSpec& spec,
                       std::vector<std::unique_ptr<FabricAgent>>& fabrics,
                       FleetCounters& counters)
    : db_(db), spec_(spec), fabrics_(fabrics), counters_(counters),
      governor_(std::make_unique<QuotaGovernor>(spec.quota,
                                                spec.total_prrs())) {}

int QuotaAgent::free_prrs() const {
  int n = 0;
  for (const auto& f : fabrics_) n += f->sched().fabric().free_count();
  return n;
}

void QuotaAgent::publish_tenant(const std::string& name) {
  int id = db_.tenant_id(name);
  if (id < 0) id = db_.num_tenants();  // first publication names the row
  db_.append(AgentId::kQuota, Op::kTenantState, id,
             {governor_->budget(name), governor_->usage(name),
              governor_->pressure(name), governor_->idle(name)},
             name);
}

void QuotaAgent::scan_retained(std::uint64_t& last_result,
                               std::uint64_t& last_publish) const {
  last_result = 0;
  last_publish = 0;
  for (auto it = db_.journal().rbegin(); it != db_.journal().rend(); ++it) {
    if (last_result == 0 && it->op == Op::kRouteResult) {
      last_result = it->version;
    }
    if (last_publish == 0 && it->op == Op::kTenantState &&
        it->agent == AgentId::kQuota) {
      last_publish = it->version;
    }
    if (last_result != 0 && last_publish != 0) break;
  }
}

void QuotaAgent::sync_usage() {
  // Fleet-wide per-tenant PRR usage from table rows + live records; the
  // decomposed sync_usage() of the monolith (zeroing included — every
  // table tenant gets set, running or not).
  std::vector<int> use(static_cast<std::size_t>(db_.num_tenants()), 0);
  for (const auto& [id, row] : db_.apps()) {
    const sched::AppRecord& rec =
        fabrics_[static_cast<std::size_t>(row.fabric)]->sched().app(row.local);
    if (rec.running()) {
      use[static_cast<std::size_t>(row.tenant)] +=
          static_cast<int>(rec.prrs.size());
    }
  }
  for (int t = 0; t < db_.num_tenants(); ++t) {
    const std::string& name = db_.tenant(t).name;
    governor_->set_usage(name, use[static_cast<std::size_t>(t)]);
    const TenantRow& row = db_.tenant(t);
    if (row.usage != governor_->usage(name) ||
        row.budget != governor_->budget(name) ||
        row.pressure != governor_->pressure(name) ||
        row.idle != governor_->idle(name)) {
      publish_tenant(name);
    }
  }
}

bool QuotaAgent::poll() {
  const IntentRow* in = db_.open_intent();
  if (in && !in->quota_decided) {
    const std::int64_t seq = in->seq;
    const std::string name = db_.tenant(in->tenant).name;
    const sched::AppRequest request = parse_request(in->request_blob);
    const int want = static_cast<int>(request.modules.size());
    governor_->observe_demand(name, want);
    const bool allowed = governor_->admit(name, want, free_prrs());
    if (!allowed) {
      ++counters_.quota_rejected;
      fleet_counter("fleet.route.quota_rejected").add();
      obs::EventBus& bus = obs::EventBus::instance();
      bus.instant(obs::Subsystem::kFleet, obs::ev::kQuotaReject,
                  bus.track("fleet"), fleet_now_ps(fabrics_),
                  static_cast<std::uint64_t>(want),
                  static_cast<std::uint64_t>(governor_->budget(name)));
    }
    db_.append(AgentId::kQuota, Op::kQuotaDecision, seq,
               {allowed ? 1 : 0, governor_->budget(name), want, 0});
    publish_tenant(name);
    return true;
  }
  if (!in) {
    // End-of-submission hysteresis: a kRouteResult newer than our last
    // kTenantState publication means a submission closed that we have
    // not synced + ticked for yet. The publication below flips the
    // detector, so the tick happens exactly once per closed submission
    // — and a successor agent re-detects a pending one from the
    // retained journal.
    std::uint64_t last_result = 0;
    std::uint64_t last_publish = 0;
    scan_retained(last_result, last_publish);
    if (last_result > last_publish) {
      sync_usage();
      governor_->tick();
      for (int t = 0; t < db_.num_tenants(); ++t) {
        publish_tenant(db_.tenant(t).name);
      }
      return true;
    }
  }
  return false;
}

void QuotaAgent::restart() {
  note_agent_restart(db_, AgentId::kQuota, fabrics_);
  governor_ = std::make_unique<QuotaGovernor>(spec_.quota,
                                              spec_.total_prrs());
  for (const TenantRow& t : db_.tenants()) {
    governor_->restore(t.name, t.budget, t.usage, t.pressure, t.idle);
  }
}

// ---- RouterAgent -------------------------------------------------------

RouterAgent::RouterAgent(StateDb& db, const FleetSpec& spec,
                         std::vector<std::unique_ptr<FabricAgent>>& fabrics,
                         FleetCounters& counters)
    : db_(db), spec_(spec), fabrics_(fabrics), counters_(counters) {}

std::vector<int> RouterAgent::plan_order(const std::string& tenant,
                                         const sched::AppRequest& request) {
  const int n = static_cast<int>(fabrics_.size());
  std::vector<int> order;
  if (spec_.policy == RoutePolicy::kRoundRobin) {
    // Blind rotation: no probes, no exclusion (isolation excepted) — the
    // baseline the cost model is benchmarked against. The cursor lives
    // in the table so a restarted router keeps rotating instead of
    // restarting at 0.
    const int cursor = db_.rr_cursor();
    order.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const int f = (cursor + i) % n;
      if (!db_.isolated(f)) order.push_back(f);
    }
    db_.append(AgentId::kRouter, Op::kRouterCursor, 0, {(cursor + 1) % n});
    return order;
  }
  std::vector<std::pair<double, int>> scored;
  for (int i = 0; i < n; ++i) {
    // A health-isolated fabric scores +inf, exactly like a capability
    // mismatch: it takes no new traffic until un-isolated.
    if (db_.isolated(i)) continue;
    const double s = route_score(
        fabrics_[static_cast<std::size_t>(i)]->snapshot(tenant, request));
    if (s != kExcluded) scored.emplace_back(s, i);
  }
  // Ties break on fabric index: identical fleets route identically.
  std::stable_sort(scored.begin(), scored.end());
  order.reserve(scored.size());
  for (const auto& [s, i] : scored) order.push_back(i);
  return order;
}

int RouterAgent::pick_preemption_victim(const std::string& for_tenant) const {
  // Worst offender among over-quota tenants from table rows (ties
  // resolve to name order), then that tenant's youngest running app
  // (largest fleet id) — bit-identical to the monolith's governor walk.
  std::vector<std::pair<std::string, int>> over;  // (name, overshoot)
  for (const TenantRow& t : db_.tenants()) {
    if (t.name == for_tenant) continue;
    if (t.usage > t.budget) over.emplace_back(t.name, t.usage - t.budget);
  }
  std::sort(over.begin(), over.end());
  std::string victim_tenant;
  int worst_overshoot = 0;
  for (const auto& [name, overshoot] : over) {
    if (overshoot > worst_overshoot) {
      worst_overshoot = overshoot;
      victim_tenant = name;
    }
  }
  if (victim_tenant.empty()) return -1;
  const int victim_tid = db_.tenant_id(victim_tenant);
  int victim = -1;
  for (const auto& [id, row] : db_.apps()) {
    if (row.tenant != victim_tid) continue;
    const auto& sched =
        fabrics_[static_cast<std::size_t>(row.fabric)]->sched();
    if (sched.app(row.local).running()) victim = id;
  }
  return victim;
}

void RouterAgent::close_intent(const IntentRow& row, bool admitted,
                               int fabric, sched::AdmissionVerdict verdict) {
  const std::int64_t flags = (row.quota_allowed ? 0 : 1) |
                             (row.preempted_for ? 2 : 0);
  db_.append(AgentId::kRouter, Op::kRouteResult, row.seq,
             {admitted ? 1 : 0, fabric, static_cast<std::int64_t>(verdict),
              flags});
}

bool RouterAgent::poll() {
  const IntentRow* in = db_.open_intent();
  if (!in || !in->quota_decided) return false;
  const IntentRow row = *in;  // appends invalidate the pointer
  const std::string tenant = db_.tenant(row.tenant).name;

  if (!row.quota_allowed) {
    reason_ = "tenant over quota and fleet slack exhausted";
    close_intent(row, false, -1, sched::AdmissionVerdict::kPending);
    return true;
  }
  const sched::AppRequest request = parse_request(row.request_blob);

  if (!row.planned) {
    const std::vector<int> order = plan_order(tenant, request);
    std::string note;
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (i > 0) note.push_back(',');
      note += std::to_string(order[i]);
    }
    db_.append(AgentId::kRouter, Op::kRouteOrder, row.seq,
               {row.round, 0, 0, 0}, note);
    return true;
  }

  if (row.next_try < static_cast<int>(row.order.size())) {
    const int fi = row.order[static_cast<std::size_t>(row.next_try)];
    FabricAgent& f = *fabrics_[static_cast<std::size_t>(fi)];
    const FabricAgent::AdmitOutcome out = f.try_admit(row.seq, request);
    reason_ = out.reason;
    if (out.running) {
      const int fleet_id = db_.next_fleet_id();
      db_.append(AgentId::kRouter, Op::kAppLocation, fleet_id,
                 {fi, out.local, row.tenant, 0});
      ++counters_.admitted;
      fleet_counter("fleet.route.admitted").add();
      close_intent(row, true, fi, out.verdict);
    } else if (row.next_try + 1 < static_cast<int>(row.order.size())) {
      ++counters_.fallbacks;
      fleet_counter("fleet.route.fallbacks").add();
      obs::EventBus& bus = obs::EventBus::instance();
      bus.instant(obs::Subsystem::kFleet, obs::ev::kFallback,
                  bus.track("fleet"), fleet_now_ps(fabrics_),
                  static_cast<std::uint64_t>(fi),
                  static_cast<std::uint64_t>(out.verdict));
    }
    return true;
  }

  // Order exhausted (or planned empty). The blocking verdict: the last
  // attempt's, or — when every fabric was excluded — fabric 0's probe
  // verdict, so the caller sees the capability mismatch.
  sched::AdmissionVerdict verdict =
      static_cast<sched::AdmissionVerdict>(row.last_verdict);
  if (row.order.empty() && row.attempts == 0) {
    const FabricSnapshot snap =
        fabrics_.front()->snapshot(tenant, request);
    verdict = snap.probe.verdict;
    reason_ = snap.probe.reason.empty() ? "no eligible fabric"
                                        : snap.probe.reason;
  }

  // Starvation relief: the tenant is within budget but every fabric is
  // capacity-blocked — evict the youngest app of the worst over-quota
  // tenant and open a retry round.
  const TenantRow& trow = db_.tenant(row.tenant);
  const bool requester_over_quota = trow.usage > trow.budget;
  if (row.round == 0 && capacity_blocked(verdict) && !requester_over_quota) {
    const int victim = pick_preemption_victim(tenant);
    if (victim >= 0) {
      const AppRow* loc = db_.app(victim);
      fabrics_[static_cast<std::size_t>(loc->fabric)]->stop_local(loc->local);
      ++counters_.quota_preemptions;
      fleet_counter("fleet.quota.preemptions").add();
      obs::EventBus& bus = obs::EventBus::instance();
      bus.instant(obs::Subsystem::kFleet, obs::ev::kQuotaPreempt,
                  bus.track("fleet"), fleet_now_ps(fabrics_),
                  static_cast<std::uint64_t>(victim));
      db_.append(AgentId::kRouter, Op::kPreemption, victim, {}, tenant);
      return true;
    }
  }

  ++counters_.rejected;
  fleet_counter("fleet.route.rejected").add();
  close_intent(row, false, -1, verdict);
  return true;
}

void RouterAgent::restart() {
  note_agent_restart(db_, AgentId::kRouter, fabrics_);
  reason_.clear();
  // Nothing else: round, try order, attempt index, and the rr cursor
  // all live in the table, so poll() resumes the open intent exactly
  // where the predecessor died.
}

// ---- MigrationAgent ----------------------------------------------------

MigrationAgent::MigrationAgent(
    StateDb& db, std::vector<std::unique_ptr<FabricAgent>>& fabrics,
    FleetCounters& counters)
    : db_(db), fabrics_(fabrics), counters_(counters) {}

FabricAgent& MigrationAgent::fabric(int index) {
  VAPRES_REQUIRE(index >= 0 && index < static_cast<int>(fabrics_.size()),
                 "migration fabric out of range");
  return *fabrics_[static_cast<std::size_t>(index)];
}

const sched::AppRequest& MigrationAgent::request_of(const MigrationRow& row) {
  if (!request_) {
    // Restart recovery: the request survives in the source scheduler's
    // record — live before kSourceStopped, terminal after (terminal
    // records are never retired while a migration row is open).
    request_ = fabric(row.src).sched().app(row.src_local).request;
  }
  return *request_;
}

bool MigrationAgent::poll() {
  const MigrationRow* m = db_.inflight_migration();
  if (!m) return false;
  const MigrationRow row = *m;  // appends invalidate the pointer

  auto step = [&](MigStep s, std::int64_t aux0 = 0, std::int64_t aux1 = 0) {
    db_.append(AgentId::kMigration, Op::kMigrateStep, row.fleet_id,
               {static_cast<std::int64_t>(s), aux0, aux1, 0});
  };
  auto skip = [&](const std::string& why) {
    reason_ = why;
    ++counters_.migrations_skipped;
    fleet_counter("fleet.migrate.skipped").add();
    step(MigStep::kSkipped);
    request_.reset();
    return true;
  };

  switch (row.step) {
    case MigStep::kNone: {
      const AppRow* app = db_.app(row.fleet_id);
      if (!app) return skip("unknown fleet id");
      if (app->fabric == row.dst) return skip("already on destination");
      const sched::AppRecord& rec =
          fabric(app->fabric).sched().app(app->local);
      if (!rec.running()) return skip("app not running");
      request_ = rec.request;
      if (row.probe_first) {
        const auto probe = fabric(row.dst).sched().probe_admit(*request_);
        if (!probe.admissible) {
          return skip("destination probe: " + probe.reason);
        }
      }
      span_.emplace(obs::Span::begin(
          obs::Subsystem::kFleet, obs::ev::kFleetMigrate,
          obs::EventBus::instance().track("fleet"), fleet_now_ps(fabrics_),
          static_cast<std::uint64_t>(row.fleet_id)));
      step(MigStep::kPlanned, app->fabric, app->local);
      return true;
    }
    case MigStep::kPlanned:
      // Seed the destination store first: the replayed admission then
      // materializes the moved modules from relocated masters instead
      // of paying a cold regenerate on arrival. adopt_masters copies
      // only missing masters, so redoing this step after a restart is
      // harmless.
      fabric(row.dst).adopt_masters_from(fabric(row.src));
      step(MigStep::kMastersAdopted);
      return true;
    case MigStep::kMastersAdopted:
      fabric(row.src).stop_local(row.src_local);
      step(MigStep::kSourceStopped);
      return true;
    case MigStep::kSourceStopped: {
      const FabricAgent::AdmitOutcome out =
          fabric(row.dst).admit_raw(request_of(row));
      if (out.running) {
        step(MigStep::kDstAdmitted, out.local);
      } else {
        reason_ = out.reason;
        step(MigStep::kDstRejected);
      }
      return true;
    }
    case MigStep::kDstAdmitted: {
      const AppRow* app = db_.app(row.fleet_id);
      db_.append(AgentId::kMigration, Op::kAppLocation, row.fleet_id,
                 {row.dst, row.dst_local, app->tenant, 0});
      ++counters_.migrations_moved;
      fleet_counter("fleet.migrate.moved").add();
      step(MigStep::kMoved);
      if (span_) span_->end(fleet_now_ps(fabrics_));
      span_.reset();
      request_.reset();
      return true;
    }
    case MigStep::kDstRejected: {
      // Rollback: the source just freed this app's resources, so
      // replaying the admission there restores the pre-migration state.
      const FabricAgent::AdmitOutcome out =
          fabric(row.src).admit_raw(request_of(row));
      if (out.running) {
        const AppRow* app = db_.app(row.fleet_id);
        db_.append(AgentId::kMigration, Op::kAppLocation, row.fleet_id,
                   {row.src, out.local, app->tenant, 0});
        ++counters_.migrations_rolled_back;
        fleet_counter("fleet.migrate.rolled_back").add();
        step(MigStep::kRolledBack, out.local);
      } else {
        // Source re-admission lost a race with nothing — it should be
        // rare, but a preempting admission on the destination path could
        // have taken the channel. The app is gone; account it honestly.
        db_.append(AgentId::kMigration, Op::kAppRemoved, row.fleet_id,
                   {static_cast<std::int64_t>(RemoveCause::kLost)});
        ++counters_.migrations_lost;
        fleet_counter("fleet.migrate.lost").add();
        step(MigStep::kLost);
      }
      if (span_) span_->end(fleet_now_ps(fabrics_));
      span_.reset();
      request_.reset();
      return true;
    }
    default:
      return false;  // terminal steps clear the row before we see them
  }
}

void MigrationAgent::restart() {
  note_agent_restart(db_, AgentId::kMigration, fabrics_);
  request_.reset();  // re-derived from the source scheduler's record
  reason_.clear();
  span_.reset();
}

}  // namespace vapres::fleet
