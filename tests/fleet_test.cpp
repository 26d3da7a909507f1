// Fleet subsystem: router determinism, fallback order, cross-fabric
// migration (move + rollback), elastic quota hysteresis, starvation
// preemption, and probe_admit side-effect freedom. ctest label: fleet.
#include <gtest/gtest.h>

#include "fleet/controlplane.hpp"
#include "load/invariants.hpp"
#include "load/scenario.hpp"
#include "obs/metrics.hpp"
#include "sched/scheduler.hpp"
#include "sim/fault.hpp"

namespace vapres {
namespace {

sched::AppRequest request(const std::string& name,
                          std::vector<std::string> modules, int priority = 1,
                          int interval = 8, std::uint64_t words = 64) {
  sched::AppRequest r;
  r.name = name;
  r.modules = std::move(modules);
  r.priority = priority;
  r.source_interval_cycles = interval;
  r.source_words = words;
  return r;
}

TEST(ProbeAdmit, DryRunHasNoSideEffects) {
  core::VapresSystem sys(load::server_params());
  sys.bring_up_all_sites();
  sched::ApplicationScheduler sched(sys);

  const int free_before = sched.fabric().free_count();
  const int apps_before = sched.num_apps();
  const sim::Cycles cycle_before = sys.system_clock().cycle_count();
  const sim::Picoseconds ps_before = sys.sim().now();

  const auto probe = sched.probe_admit(request("p", {"gain_x2"}));
  EXPECT_TRUE(probe.admissible);
  EXPECT_EQ(probe.verdict, sched::AdmissionVerdict::kAdmitted);
  EXPECT_EQ(probe.prrs.size(), 1u);
  EXPECT_TRUE(probe.iom_available);
  EXPECT_EQ(probe.defrag_migrations, 0);

  EXPECT_EQ(sched.fabric().free_count(), free_before);
  EXPECT_EQ(sched.num_apps(), apps_before);
  EXPECT_EQ(sys.system_clock().cycle_count(), cycle_before);
  EXPECT_EQ(sys.sim().now(), ps_before);
}

TEST(ProbeAdmit, ReportsRejectionVerdicts) {
  core::VapresSystem sys(load::server_params());
  sys.bring_up_all_sites();
  sched::ApplicationScheduler sched(sys);

  const auto bad = sched.probe_admit(request("bad", {"no_such_module"}));
  EXPECT_FALSE(bad.admissible);
  EXPECT_EQ(bad.verdict, sched::AdmissionVerdict::kRejectedBadSpec);

  // A compact-tier fabric's halved clock ladder cannot sustain an
  // interval-2 stream.
  const fleet::FabricSpec mini = fleet::FabricSpec::compact("mini");
  core::VapresSystem mini_sys(mini.params);
  mini_sys.bring_up_all_sites();
  sched::ApplicationScheduler mini_sched(mini_sys);
  const auto fast = mini_sched.probe_admit(request("fast", {"gain_x2"}, 1, 2));
  EXPECT_FALSE(fast.admissible);
  EXPECT_EQ(fast.verdict, sched::AdmissionVerdict::kRejectedRateInfeasible);
  // ...and its 128-slice sites fit no 300-slice ma8.
  const auto big = mini_sched.probe_admit(request("big", {"ma8"}));
  EXPECT_FALSE(big.admissible);
  EXPECT_EQ(big.verdict, sched::AdmissionVerdict::kRejectedNoPrrFit);
}

// The placement slack the router scores comes from the probe's plan:
// best fit puts gain_x2 (90 slices) and offset_100 (50) on the two
// 128-slice sites, leaving 116 of 256 slices idle.
TEST(ProbeAdmit, FitWasteIsThePlansStrandedSlack) {
  const fleet::FabricSpec fs = fleet::FabricSpec::standard("f");
  core::VapresSystem sys(fs.params);
  sys.bring_up_all_sites();
  sched::ApplicationScheduler sched(sys);
  fleet::StateDb db(1);
  fleet::FleetCounters counters;
  const fleet::FabricAgent agent(0, fleet::FabricHost{"f", &sys, &sched}, db,
                                 counters);
  const fleet::FabricSnapshot snap =
      agent.snapshot("t", request("p", {"gain_x2", "offset_100"}));
  ASSERT_TRUE(snap.probe.admissible);
  EXPECT_EQ(snap.probe.prrs, (std::vector<int>{2, 3}));
  EXPECT_DOUBLE_EQ(snap.probe.fit_waste, 0.453125);
  EXPECT_DOUBLE_EQ(
      sched.probe_admit(request("q", {"gain_x2"})).fit_waste, 0.296875);
  // Not admissible: no plan, no slack.
  EXPECT_EQ(sched.probe_admit(request("x", {"fir16_sharp"})).fit_waste, 0.0);
}

TEST(FleetRouter, DeterministicForFixedSeed) {
  auto run = [](std::vector<std::pair<int, bool>>& decisions) {
    fleet::ControlPlane fc(fleet::FleetSpec::heterogeneous());
    load::ScenarioSpec spec =
        load::ScenarioSpec::standard_fleet(42, 40, 3, fc.num_fabrics());
    load::ScenarioGenerator gen(spec);
    while (auto ev = gen.next()) {
      fc.advance_to(ev->at_cycle);
      const fleet::RouteDecision d =
          fc.submit("t" + std::to_string(ev->tenant), ev->request);
      decisions.emplace_back(d.fabric, d.admitted);
    }
  };
  std::vector<std::pair<int, bool>> a, b;
  run(a);
  run(b);
  EXPECT_EQ(a.size(), 40u);
  EXPECT_EQ(a, b);
}

TEST(FleetRouter, CostModelExcludesIncapableFabrics) {
  // compact first, standard second: a cost router must skip the fabric
  // that cannot host the request at all (no submission wasted on it).
  fleet::FleetSpec spec;
  spec.fabrics.push_back(fleet::FabricSpec::compact("mini"));
  spec.fabrics.push_back(fleet::FabricSpec::standard("std"));
  fleet::ControlPlane fc(spec);

  const fleet::RouteDecision d = fc.submit("t0", request("avg", {"ma8"}));
  EXPECT_TRUE(d.admitted);
  EXPECT_EQ(d.fabric, 1);
  EXPECT_EQ(d.attempts, 1);
  ASSERT_EQ(d.order.size(), 1u);  // compact excluded, not just deprioritized
  EXPECT_EQ(d.order[0], 1);
  EXPECT_EQ(fc.counters().fallbacks, 0u);
}

TEST(FleetRouter, RoundRobinFallsBackInRotationOrder) {
  fleet::FleetSpec spec;
  spec.fabrics.push_back(fleet::FabricSpec::compact("mini"));
  spec.fabrics.push_back(fleet::FabricSpec::standard("std"));
  spec.policy = fleet::RoutePolicy::kRoundRobin;
  fleet::ControlPlane fc(spec);

  // Rotation starts at fabric 0, which rejects ma8 (no PRR fit); the
  // router falls back to fabric 1.
  const fleet::RouteDecision d = fc.submit("t0", request("avg", {"ma8"}));
  EXPECT_TRUE(d.admitted);
  EXPECT_EQ(d.fabric, 1);
  EXPECT_EQ(d.attempts, 2);
  ASSERT_EQ(d.order.size(), 2u);
  EXPECT_EQ(d.order[0], 0);
  EXPECT_EQ(fc.counters().fallbacks, 1u);
}

TEST(FleetMigration, MovesAppAndAdoptsMasters) {
  fleet::ControlPlane fc(fleet::FleetSpec::uniform(2));
  const fleet::RouteDecision d = fc.submit("t0", request("amp", {"gain_x2"}));
  ASSERT_TRUE(d.admitted);
  const int src = d.fabric;
  const int dst = 1 - src;
  EXPECT_EQ(fc.scheduler(dst).store().master_count(), 0u);

  const fleet::MigrateResult mr = fc.migrate(d.fleet_id, dst);
  EXPECT_EQ(mr.outcome, fleet::MigrateOutcome::kMoved);
  EXPECT_TRUE(fc.running(d.fleet_id));
  EXPECT_EQ(fc.locate(d.fleet_id)->fabric, dst);
  // The destination restreamed from an adopted relocatable master, not a
  // cold regenerate.
  EXPECT_GE(fc.scheduler(dst).store().master_count(), 1u);
  EXPECT_EQ(fc.counters().migrations_moved, 1u);
  EXPECT_EQ(fc.running_on(src), 0);
  EXPECT_EQ(fc.running_on(dst), 1);
}

TEST(FleetMigration, RollsBackWhenDestinationAdmitFails) {
  fleet::ControlPlane fc(fleet::FleetSpec::uniform(2));
  const fleet::RouteDecision d = fc.submit("t0", request("amp", {"gain_x2"}));
  ASSERT_TRUE(d.admitted);
  const int src = d.fabric;
  const int dst = 1 - src;

  // Saturate the destination's IOM channel pairs directly (3 per
  // standard fabric) so its replayed admission must fail mid-move.
  for (int i = 0; i < 3; ++i) {
    fc.scheduler(dst).submit(request("fill" + std::to_string(i), {"gain_x2"}));
  }
  fc.scheduler(dst).run_admission();
  ASSERT_EQ(fc.running_on(dst), 3);

  // probe_first=false forces the teardown-replay path to hit the full
  // destination and roll back.
  const fleet::MigrateResult mr = fc.migrate(d.fleet_id, dst, false);
  EXPECT_EQ(mr.outcome, fleet::MigrateOutcome::kRolledBack);
  EXPECT_TRUE(fc.running(d.fleet_id));
  EXPECT_EQ(fc.locate(d.fleet_id)->fabric, src);
  EXPECT_EQ(fc.counters().migrations_rolled_back, 1u);

  // With the probe on, the same hopeless move is skipped outright.
  const fleet::MigrateResult skipped = fc.migrate(d.fleet_id, dst);
  EXPECT_EQ(skipped.outcome, fleet::MigrateOutcome::kSkipped);
  EXPECT_TRUE(fc.running(d.fleet_id));
}

TEST(QuotaGovernor, GrowAndShrinkHaveHysteresis) {
  fleet::QuotaConfig cfg;
  cfg.min_budget_prrs = 1;
  cfg.max_budget_prrs = 8;
  cfg.initial_budget_prrs = 2;
  cfg.grow_observations = 3;
  cfg.shrink_observations = 2;
  cfg.grow_step_prrs = 2;
  cfg.shrink_step_prrs = 1;
  cfg.shrink_below = 0.5;
  fleet::QuotaGovernor gov(cfg, 16);

  // Two over-budget observations are below the grow streak: no change.
  gov.set_usage("a", 2);
  gov.observe_demand("a", 3);
  gov.observe_demand("a", 3);
  EXPECT_EQ(gov.budget("a"), 2);
  gov.observe_demand("a", 3);
  EXPECT_EQ(gov.budget("a"), 4);
  EXPECT_EQ(gov.grows(), 1u);

  // One low-usage tick is below the shrink streak: no change. Demand in
  // between resets the streak.
  gov.set_usage("a", 0);
  gov.tick();
  EXPECT_EQ(gov.budget("a"), 4);
  gov.observe_demand("a", 1);  // resets the idle streak
  gov.tick();
  EXPECT_EQ(gov.budget("a"), 4);
  gov.tick();
  EXPECT_EQ(gov.budget("a"), 3);
  EXPECT_EQ(gov.shrinks(), 1u);

  // Shrink floors at min_budget_prrs.
  for (int i = 0; i < 20; ++i) gov.tick();
  EXPECT_EQ(gov.budget("a"), cfg.min_budget_prrs);

  // Grow ceilings at max_budget_prrs.
  for (int i = 0; i < 40; ++i) gov.observe_demand("a", 9);
  EXPECT_EQ(gov.budget("a"), cfg.max_budget_prrs);
}

TEST(QuotaGovernor, ElasticAdmitUsesFleetSlack) {
  fleet::QuotaConfig cfg;
  cfg.min_budget_prrs = 1;
  cfg.initial_budget_prrs = 2;
  cfg.elastic_slack_prrs = 2;
  fleet::QuotaGovernor gov(cfg, 8);

  gov.set_usage("a", 2);  // at budget
  // Over budget, but the fleet keeps >= 2 PRRs free after the grant.
  EXPECT_TRUE(gov.admit("a", 1, 6));
  // Over budget and the grant would eat into the slack reserve.
  EXPECT_FALSE(gov.admit("a", 1, 2));
  // Within budget always passes, slack or not.
  gov.set_usage("a", 0);
  EXPECT_TRUE(gov.admit("a", 2, 0));
}

TEST(FleetQuota, StarvedTenantPreemptsOverQuotaTenant) {
  fleet::FleetSpec spec = fleet::FleetSpec::uniform(1);
  spec.quota.min_budget_prrs = 1;
  spec.quota.initial_budget_prrs = 1;
  spec.quota.grow_observations = 100;  // keep budgets frozen for the test
  spec.quota.elastic_slack_prrs = 0;   // overshoot freely while PRRs are free
  fleet::ControlPlane fc(spec);

  // Tenant A soaks up every IOM channel pair (3 on a standard fabric),
  // ending far over its 1-PRR budget.
  std::vector<int> a_ids;
  for (int i = 0; i < 3; ++i) {
    const fleet::RouteDecision d =
        fc.submit("a", request("a" + std::to_string(i), {"gain_x2"}));
    ASSERT_TRUE(d.admitted) << i;
    a_ids.push_back(d.fleet_id);
  }
  EXPECT_TRUE(fc.governor().over_quota("a"));

  // Tenant B is within budget but capacity-starved: the router must
  // evict A's youngest app and admit B on the retry.
  const fleet::RouteDecision d = fc.submit("b", request("b0", {"gain_x2"}));
  EXPECT_TRUE(d.admitted);
  EXPECT_TRUE(d.preempted_for);
  EXPECT_EQ(fc.counters().quota_preemptions, 1u);
  EXPECT_FALSE(fc.running(a_ids.back()));  // youngest A app was the victim
  EXPECT_TRUE(fc.running(a_ids.front()));
}

TEST(FleetQuota, OverQuotaTenantIsRefusedWithoutSlack) {
  fleet::FleetSpec spec = fleet::FleetSpec::uniform(1);
  spec.quota.min_budget_prrs = 1;
  spec.quota.initial_budget_prrs = 1;
  spec.quota.grow_observations = 100;
  spec.quota.elastic_slack_prrs = 64;  // no overshoot headroom, ever
  fleet::ControlPlane fc(spec);

  const fleet::RouteDecision first = fc.submit("a", request("a0", {"gain_x2"}));
  ASSERT_TRUE(first.admitted);
  const fleet::RouteDecision second =
      fc.submit("a", request("a1", {"gain_x2"}));
  EXPECT_FALSE(second.admitted);
  EXPECT_TRUE(second.quota_limited);
  EXPECT_EQ(second.attempts, 0);  // never routed
  EXPECT_EQ(fc.counters().quota_rejected, 1u);
}

TEST(FleetInvariants, SweepsHoldPerFabricUnderMixedWorkload) {
  fleet::ControlPlane fc(fleet::FleetSpec::heterogeneous());
  load::ScenarioSpec spec =
      load::ScenarioSpec::standard_fleet(7, 60, 3, fc.num_fabrics());
  load::ScenarioGenerator gen(spec);

  int migrations = 0;
  while (auto ev = gen.next()) {
    fc.advance_to(ev->at_cycle);
    fc.submit("t" + std::to_string(ev->tenant), ev->request);
    if (ev->migrate && !fc.running_ids().empty()) {
      const int id = fc.running_ids().front();
      const int dst = (fc.locate(id)->fabric + 1) % fc.num_fabrics();
      fc.migrate(id, dst);
      ++migrations;
    }
    if (ev->churn_stop && !fc.running_ids().empty()) {
      fc.stop(fc.running_ids().front());
    }
  }
  EXPECT_GT(migrations, 0);

  load::InvariantReport report;
  for (int i = 0; i < fc.num_fabrics(); ++i) {
    load::check_resource_ledger(fc.scheduler(i), report);
    load::check_accounting(fc.scheduler(i), report);
  }
  EXPECT_TRUE(report.ok()) << report.to_string();

  // Retirement prunes terminal fleet ids but keeps the running ones
  // resolvable, and the per-fabric ledgers still balance.
  for (const int id : fc.running_ids()) fc.stop(id);
  fc.retire_terminal();
  EXPECT_TRUE(fc.running_ids().empty());
  load::InvariantReport after;
  for (int i = 0; i < fc.num_fabrics(); ++i) {
    load::check_resource_ledger(fc.scheduler(i), after);
    load::check_accounting(fc.scheduler(i), after);
  }
  EXPECT_TRUE(after.ok()) << after.to_string();
}

TEST(FleetFailover, RestoresCrashedFabricAppsOntoSpare) {
  fleet::ControlPlane fc(fleet::FleetSpec::uniform(2));
  std::vector<fleet::RouteDecision> apps;
  for (int i = 0; i < 3; ++i) {
    apps.push_back(fc.submit("t" + std::to_string(i % 2),
                             request("app" + std::to_string(i), {"gain_x2"},
                                     1, 8, /*words=*/0)));
    ASSERT_TRUE(apps.back().admitted);
  }
  fc.advance_to(fc.now() + 2000);

  fc.checkpoint_all();
  EXPECT_EQ(fc.checkpoints_taken(), 2u);
  ASSERT_NE(fc.last_checkpoint(0), nullptr);
  ASSERT_NE(fc.last_checkpoint(1), nullptr);
  EXPECT_GT(fc.last_checkpoint(0)->blob.size(), 0u);

  // Crash whichever fabric hosts the first app; the other is the spare.
  const int crashed = fc.locate(apps[0].fleet_id)->fabric;
  const int spare = 1 - crashed;
  std::vector<int> victims;
  for (const auto& d : apps) {
    if (fc.locate(d.fleet_id)->fabric == crashed) victims.push_back(d.fleet_id);
  }
  ASSERT_FALSE(victims.empty());

  fc.kill_fabric(crashed);
  const fleet::FailoverResult fr = fc.failover(crashed, spare);

  EXPECT_EQ(fr.from_fabric, crashed);
  EXPECT_EQ(fr.to_fabric, spare);
  EXPECT_EQ(fr.apps_lost, 0);  // the zero-loss acceptance gate
  EXPECT_EQ(fr.apps_restored, static_cast<int>(victims.size()));
  EXPECT_EQ(fr.epoch, fc.last_checkpoint(crashed)->epoch);

  // Every victim is running again on the spare under its fleet id.
  for (const int id : victims) {
    EXPECT_TRUE(fc.running(id)) << "fleet id " << id;
    EXPECT_EQ(fc.locate(id)->fabric, spare);
  }
  EXPECT_EQ(fc.running_on(spare), static_cast<int>(apps.size()));
  EXPECT_EQ(fc.running_on(crashed), 0);

  // The spare fabric keeps streaming and passes the ledger sweeps; the
  // table replays to the same view it holds live.
  fc.advance_to(fc.now() + 2000);
  load::InvariantReport rep;
  load::check_resource_ledger(fc.scheduler(spare), rep);
  load::check_accounting(fc.scheduler(spare), rep);
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_EQ(fc.statedb().view_digest(), fc.statedb().replayed_view_digest());

  const std::string status = fc.fleet_status();
  EXPECT_NE(status.find("checkpoint"), std::string::npos);
  EXPECT_NE(status.find("failovers: 1 performed"), std::string::npos);
}

TEST(FleetFailover, RetiresAppsAlreadyTerminalInTheCheckpoint) {
  fleet::ControlPlane fc(fleet::FleetSpec::uniform(2));
  const fleet::RouteDecision d =
      fc.submit("t0", request("dead", {"gain_x2"}, 1, 8, /*words=*/0));
  ASSERT_TRUE(d.admitted);
  const int crashed = d.fabric;
  const int spare = 1 - crashed;
  fc.stop(d.fleet_id);  // terminal before the checkpoint is cut

  fc.checkpoint_fabric(crashed);
  fc.kill_fabric(crashed);
  const fleet::FailoverResult fr = fc.failover(crashed, spare);
  EXPECT_EQ(fr.apps_restored, 0);
  EXPECT_EQ(fr.apps_retired, 1);
  EXPECT_EQ(fr.apps_lost, 0);
  EXPECT_FALSE(fc.locate(d.fleet_id).has_value());
}

// Failover reads the crashed fabric's checkpoint without restoring it,
// so the process-wide registry and injector keep their live values
// instead of rewinding to the checkpoint's.
TEST(FleetFailover, LeavesSurvivorsMetricsAndInjectorUntouched) {
  fleet::ControlPlane fc(fleet::FleetSpec::uniform(2));
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(fc.submit("t0", request("pre" + std::to_string(i),
                                        {"gain_x2"}, 1, 8, /*words=*/0))
                    .admitted);
  }
  fc.advance_to(fc.now() + 2000);
  fc.checkpoint_all();

  // After the checkpoint: more routed work, on the fabric that survives,
  // and injection switched on with nothing armed.
  const fleet::RouteDecision late =
      fc.submit("t1", request("late", {"gain_x2"}, 1, 8, /*words=*/0));
  ASSERT_TRUE(late.admitted);
  const int spare = late.fabric;
  const int crashed = 1 - spare;
  sim::ScopedFaultInjection faults(0xFA110u);
  fc.advance_to(fc.now() + 2000);

  obs::Registry& reg = obs::Registry::instance();
  const std::uint64_t submissions =
      reg.counter("fleet.route.submissions").value();
  const std::uint64_t launches =
      reg.histogram("sched.submit_to_launch.cycles").count();
  std::vector<std::uint64_t> opportunities;
  for (int site = 0; site < sim::kNumFaultSites; ++site) {
    opportunities.push_back(
        faults->opportunities(static_cast<sim::FaultSite>(site)));
  }
  ASSERT_GT(opportunities[static_cast<std::size_t>(
                sim::FaultSite::kSwitchBoxStuckPort)],
            0u);

  fc.kill_fabric(crashed);
  const fleet::FailoverResult fr = fc.failover(crashed, spare);
  EXPECT_EQ(fr.apps_lost, 0);

  EXPECT_EQ(reg.counter("fleet.route.submissions").value(), submissions);
  EXPECT_GE(reg.histogram("sched.submit_to_launch.cycles").count(),
            launches);
  EXPECT_TRUE(faults->enabled());
  for (int site = 0; site < sim::kNumFaultSites; ++site) {
    EXPECT_GE(faults->opportunities(static_cast<sim::FaultSite>(site)),
              opportunities[static_cast<std::size_t>(site)])
        << sim::fault_site_name(static_cast<sim::FaultSite>(site));
  }
}

TEST(FleetFailover, RequiresCheckpointAndDistinctSpare) {
  fleet::ControlPlane fc(fleet::FleetSpec::uniform(2));
  EXPECT_THROW(fc.failover(0, 0), ModelError);   // no distinct spare
  EXPECT_THROW(fc.failover(0, 1), ModelError);   // never checkpointed
  fc.checkpoint_fabric(0);
  EXPECT_NO_THROW(fc.failover(0, 1));            // nothing to restore: ok
  EXPECT_EQ(fc.failovers(), 1u);
}

}  // namespace
}  // namespace vapres
