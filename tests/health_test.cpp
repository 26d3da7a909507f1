// Health subsystem: time-series ring determinism, rule-engine hysteresis
// (counter wraps included), sampler freezes, journaled health ops,
// isolate->drain->un-isolate remediation, HealthAgent kill-at-every-step
// replay parity, and the flight-recorder bundle round trip.
// ctest labels: health, fleet.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/switching.hpp"
#include "fleet/controlplane.hpp"
#include "load/scenario.hpp"
#include "obs/bus.hpp"
#include "obs/health/flight.hpp"
#include "obs/health/rules.hpp"
#include "obs/health/series.hpp"
#include "obs/metrics.hpp"
#include "sched/scheduler.hpp"
#include "sim/fault.hpp"
#include "snap/format.hpp"
#include "snap/system_snapshot.hpp"

namespace vapres {
namespace {

using obs::health::HealthRuleSpec;
using obs::health::RuleEngine;
using obs::health::RuleOutcome;
using obs::health::RuleState;
using obs::health::Source;
using obs::health::TimeSeries;
using obs::health::counter_delta;

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

// ---- TimeSeries --------------------------------------------------------

TEST(TimeSeries, RingKeepsNewestAndStaysOldestFirst) {
  TimeSeries ts(4);
  EXPECT_EQ(ts.size(), 0u);
  EXPECT_EQ(ts.last(), 0);

  for (int i = 0; i < 6; ++i) {
    ts.push(static_cast<sim::Cycles>(100 * i), i);
  }
  EXPECT_EQ(ts.capacity(), 4u);
  EXPECT_EQ(ts.size(), 4u);
  EXPECT_EQ(ts.total_pushed(), 6u);
  // Retained window is pushes 2..5, oldest first.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(ts.at(i).cycle, 100 * (i + 2));
    EXPECT_EQ(ts.at(i).value, static_cast<std::int64_t>(i + 2));
  }
  EXPECT_EQ(ts.last(), 5);
}

TEST(TimeSeries, DigestIsPureFunctionOfRetainedWindow) {
  TimeSeries a(4);
  TimeSeries b(4);
  // Same final window reached through different histories.
  for (int i = 0; i < 10; ++i) a.push(static_cast<sim::Cycles>(i), i);
  for (int i = 6; i < 10; ++i) b.push(static_cast<sim::Cycles>(i), i);
  EXPECT_EQ(a.digest(), b.digest());

  TimeSeries c(4);
  for (int i = 6; i < 10; ++i) c.push(static_cast<sim::Cycles>(i), i + 1);
  EXPECT_NE(a.digest(), c.digest());
}

TEST(TimeSeries, CounterDeltaIsWrapAware) {
  EXPECT_EQ(counter_delta(10, 25), 15u);
  EXPECT_EQ(counter_delta(25, 25), 0u);
  // Reset/wrap: the whole new reading is the delta.
  EXPECT_EQ(counter_delta(1000, 7), 7u);
}

// ---- RuleEngine --------------------------------------------------------

TEST(RuleEngine, RateSourcePrimesOnFirstReading) {
  HealthRuleSpec r;
  r.source = Source::kCounterRate;
  r.threshold = 0;
  r.breach_observations = 1;

  RuleState s;
  // A monitor brought up mid-incident sees a huge absolute counter; the
  // first reading must only prime, never trip.
  RuleOutcome o = RuleEngine::evaluate(r, 1'000'000, s);
  EXPECT_FALSE(o.bad);
  EXPECT_FALSE(o.tripped);
  EXPECT_TRUE(o.state.primed);
  EXPECT_EQ(o.state.last_raw, 1'000'000);
  EXPECT_EQ(o.state.bad_streak, 0);

  o = RuleEngine::evaluate(r, 1'000'003, o.state);
  EXPECT_EQ(o.value, 3);
  EXPECT_TRUE(o.bad);
  EXPECT_TRUE(o.tripped);
}

TEST(RuleEngine, HysteresisSurvivesCounterWrap) {
  HealthRuleSpec r;
  r.source = Source::kCounterRate;
  r.threshold = 5;
  r.breach_observations = 2;
  r.clear_observations = 2;

  RuleState s;
  RuleOutcome o = RuleEngine::evaluate(r, 100, s);  // primes
  o = RuleEngine::evaluate(r, 110, o.state);        // delta 10 > 5: bad 1
  EXPECT_TRUE(o.bad);
  EXPECT_FALSE(o.tripped);
  EXPECT_EQ(o.state.bad_streak, 1);

  // Counter resets across the wrap; the delta is the new reading (8),
  // still over threshold — the streak continues instead of resetting.
  o = RuleEngine::evaluate(r, 8, o.state);
  EXPECT_EQ(o.value, 8);
  EXPECT_TRUE(o.tripped);
  EXPECT_TRUE(o.state.breached);
  EXPECT_EQ(o.state.breaches, 1u);

  o = RuleEngine::evaluate(r, 10, o.state);  // delta 2: good 1
  EXPECT_FALSE(o.bad);
  EXPECT_FALSE(o.cleared);
  EXPECT_TRUE(o.state.breached);
  o = RuleEngine::evaluate(r, 12, o.state);  // good 2: cleared
  EXPECT_TRUE(o.cleared);
  EXPECT_FALSE(o.state.breached);
  EXPECT_EQ(o.state.breaches, 1u);
}

TEST(RuleEngine, BreachBelowThreshold) {
  HealthRuleSpec r;
  r.source = Source::kGauge;
  r.threshold = 10;
  r.breach_above = false;
  r.breach_observations = 1;
  r.clear_observations = 1;

  RuleState s;
  RuleOutcome o = RuleEngine::evaluate(r, 12, s);
  EXPECT_FALSE(o.bad);
  o = RuleEngine::evaluate(r, 9, o.state);
  EXPECT_TRUE(o.tripped);
  o = RuleEngine::evaluate(r, 11, o.state);
  EXPECT_TRUE(o.cleared);
}

TEST(RuleEngine, FlappingSignalCannotFlapTheRule) {
  HealthRuleSpec r;
  r.source = Source::kGauge;
  r.threshold = 0;
  r.breach_observations = 3;
  r.clear_observations = 3;

  RuleState s;
  RuleOutcome o;
  o.state = s;
  // bad,bad,good repeated: bad_streak never reaches 3.
  for (int i = 0; i < 9; ++i) {
    o = RuleEngine::evaluate(r, (i % 3 == 2) ? 0 : 1, o.state);
    EXPECT_FALSE(o.tripped);
    EXPECT_FALSE(o.state.breached);
  }
}

// ---- HealthSampler -----------------------------------------------------

TEST(HealthSampler, FreezesRegistryWithTypedKeysAndBusGauges) {
  obs::Registry& reg = obs::Registry::instance();
  reg.reset();
  reg.counter("t.ctr").add(10);
  reg.gauge("t.gauge").set(-3);
  for (std::uint64_t v = 1; v <= 100; ++v) reg.histogram("t.hist").record(v);

  obs::health::HealthSampler sampler(8);
  sampler.sample(1000);
  EXPECT_EQ(sampler.samples_taken(), 1u);

  const TimeSeries* rate = sampler.series("rate:t.ctr");
  ASSERT_NE(rate, nullptr);
  // First sample of a counter is its delta from zero.
  EXPECT_EQ(rate->last(), 10);

  const TimeSeries* gauge = sampler.series("gauge:t.gauge");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->last(), -3);

  ASSERT_NE(sampler.series("p50:t.hist"), nullptr);
  ASSERT_NE(sampler.series("p99:t.hist"), nullptr);
  EXPECT_EQ(sampler.series("p50:t.hist")->last(),
            static_cast<std::int64_t>(reg.histogram("t.hist").percentile(0.5)));

  // sample() publishes the EventBus occupancy gauges first, so trace
  // loss is part of the frozen window.
  EXPECT_NE(sampler.series("gauge:obs.bus.dropped"), nullptr);
  EXPECT_NE(sampler.series("gauge:obs.bus.retained"), nullptr);

  // Second sample: counter unchanged => rate 0.
  reg.counter("t.ctr").add(0);
  sampler.sample(2000);
  EXPECT_EQ(sampler.series("rate:t.ctr")->last(), 0);
  EXPECT_EQ(sampler.series("rate:t.ctr")->at(0).cycle, 1000u);
  EXPECT_EQ(sampler.series("rate:t.ctr")->at(1).cycle, 2000u);
}

TEST(HealthSampler, DigestIsByteStableAcrossIdenticalRuns) {
  auto run = [] {
    obs::Registry& reg = obs::Registry::instance();
    reg.reset();
    obs::health::HealthSampler sampler(16);
    for (int t = 1; t <= 5; ++t) {
      reg.counter("d.ctr").add(static_cast<std::uint64_t>(3 * t));
      reg.gauge("d.gauge").set(100 - t);
      reg.histogram("d.hist").record(static_cast<std::uint64_t>(t * 7));
      sampler.sample(static_cast<sim::Cycles>(t * 500));
    }
    return sampler.digest();
  };
  const std::uint64_t a = run();
  const std::uint64_t b = run();
  EXPECT_EQ(a, b);
  EXPECT_NE(a, 0u);
}

// ---- Registry summaries (the one percentile implementation) ------------

TEST(RegistrySummary, MatchesSummarizeAndZeroesWhenAbsent) {
  obs::Registry& reg = obs::Registry::instance();
  reg.reset();
  for (std::uint64_t v = 1; v <= 1000; ++v) reg.histogram("s.lat").record(v);

  const obs::HistogramSummary s = reg.summary("s.lat");
  const obs::HistogramSummary direct =
      obs::summarize("s.lat", reg.histogram("s.lat"));
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.p50, direct.p50);
  EXPECT_EQ(s.p99, direct.p99);
  EXPECT_EQ(s.p50, reg.histogram("s.lat").percentile(0.5));
  EXPECT_EQ(s.p99, reg.histogram("s.lat").percentile(0.99));

  const obs::HistogramSummary absent = reg.summary("no.such.histogram");
  EXPECT_EQ(absent.count, 0u);
  EXPECT_EQ(absent.p50, 0u);
  EXPECT_EQ(absent.p99, 0u);
}

// ---- Scheduler rejection streak (the reject_streak rule's signal) ------

TEST(RejectionStreak, CountsConsecutiveRejectsAndResetsOnLaunch) {
  core::VapresSystem sys(load::server_params());
  sys.bring_up_all_sites();
  sched::ApplicationScheduler sched(sys);
  EXPECT_EQ(sched.rejection_streak(), 0);

  sched.submit(request("bad1", {"no_such_module"}));
  sched.run_admission();
  EXPECT_EQ(sched.rejection_streak(), 1);
  sched.submit(request("bad2", {"no_such_module"}));
  sched.run_admission();
  EXPECT_EQ(sched.rejection_streak(), 2);

  const int id = sched.submit(request("good", {"gain_x2"}));
  sched.run_admission();
  EXPECT_TRUE(sched.app(id).running());
  EXPECT_EQ(sched.rejection_streak(), 0);
}

// ---- StateDb health ops ------------------------------------------------

std::int64_t pack_rule_state(int bad, int good, bool breached, bool tripped,
                             bool cleared, bool primed, int fabric) {
  std::uint64_t p = static_cast<std::uint64_t>(bad) & 0xfffffu;
  p |= (static_cast<std::uint64_t>(good) & 0xfffffu) << 20;
  if (breached) p |= 1ull << 40;
  if (tripped) p |= 1ull << 41;
  if (cleared) p |= 1ull << 42;
  if (primed) p |= 1ull << 43;
  p |= (static_cast<std::uint64_t>(fabric + 1) & 0xffffu) << 48;
  return static_cast<std::int64_t>(p);
}

TEST(StateDbHealth, OpsMaterializeAndReplayByteIdentically) {
  fleet::StateDb db(2);

  db.append(fleet::AgentId::kOrchestrator, fleet::Op::kHealthTick, 0,
            {4242, 0, 0, 0});
  EXPECT_EQ(db.health_tick_cycle(), 4242u);
  EXPECT_EQ(db.health_tick_version(), db.version());
  const std::uint64_t tick_version = db.health_tick_version();

  // Rule 0: tripped against fabric 1, streaks mid-count.
  db.append(fleet::AgentId::kHealth, fleet::Op::kHealthRuleState, 0,
            {pack_rule_state(3, 0, true, true, false, true, 1), 77,
             static_cast<std::int64_t>(tick_version), 1},
            "icap_retry_rate");
  ASSERT_EQ(db.health_rules().size(), 1u);
  const fleet::HealthRuleRow& row = db.health_rules()[0];
  EXPECT_EQ(row.name, "icap_retry_rate");
  EXPECT_EQ(row.fabric, 1);
  EXPECT_EQ(row.bad_streak, 3);
  EXPECT_EQ(row.good_streak, 0);
  EXPECT_TRUE(row.breached);
  EXPECT_TRUE(row.primed);
  EXPECT_EQ(row.last_raw, 77);
  EXPECT_EQ(row.last_eval_version, tick_version);
  EXPECT_EQ(row.breaches, 1u);
  EXPECT_EQ(db.active_breaches(1), 1);
  EXPECT_EQ(db.active_breaches(0), 0);
  EXPECT_EQ(db.fabric_health(1).last_breach_cycle, 4242u);

  // Isolation on: available fabrics shrinks, transition counted.
  db.append(fleet::AgentId::kHealth, fleet::Op::kIsolateFabric, 1, {1, 1});
  EXPECT_TRUE(db.isolated(1));
  EXPECT_FALSE(db.isolated(0));
  EXPECT_EQ(db.available_fabrics(), 1);
  EXPECT_EQ(db.fabric_health(1).isolations, 1u);

  // Re-isolating an isolated fabric is idempotent on the counter.
  db.append(fleet::AgentId::kHealth, fleet::Op::kIsolateFabric, 1, {1, 1});
  EXPECT_EQ(db.fabric_health(1).isolations, 1u);

  // Off again.
  db.append(fleet::AgentId::kHealth, fleet::Op::kIsolateFabric, 1, {0, 0});
  EXPECT_FALSE(db.isolated(1));
  EXPECT_EQ(db.available_fabrics(), 2);

  EXPECT_EQ(db.replayed_view_digest(), db.view_digest());

  // Truncation keeps the health view replayable from the snapshot base.
  db.truncate();
  db.append(fleet::AgentId::kHealth, fleet::Op::kHealthRuleState, 0,
            {pack_rule_state(0, 2, false, false, true, true, 1), 5,
             static_cast<std::int64_t>(tick_version), 1});
  EXPECT_FALSE(db.health_rules()[0].breached);
  EXPECT_EQ(db.health_rules()[0].good_streak, 2);
  // The note is only published once; the name survives via the view.
  EXPECT_EQ(db.health_rules()[0].name, "icap_retry_rate");
  EXPECT_EQ(db.replayed_view_digest(), db.view_digest());
}

// ---- Fleet remediation round trip --------------------------------------

fleet::FleetSpec sick_gauge_fleet(const std::string& metric,
                                  int breach_observations,
                                  int clear_observations,
                                  bool remediate = true) {
  fleet::FleetSpec fs = fleet::FleetSpec::uniform(2);
  fs.health.enabled = true;
  fs.health.remediate = remediate;
  HealthRuleSpec sick;
  sick.name = "test.sick";
  sick.source = Source::kGauge;
  sick.metric = metric;
  sick.fabric = 1;
  sick.threshold = 0;
  sick.breach_above = true;
  sick.breach_observations = breach_observations;
  sick.clear_observations = clear_observations;
  fs.health.rules = {sick};
  return fs;
}

TEST(HealthFleet, IsolateDrainUnisolateRoundTrip) {
  obs::Registry::instance().reset();
  const fleet::FleetSpec fs = sick_gauge_fleet("test.rt.sick", 1, 2);
  fleet::ControlPlane fc(fs);
  obs::Registry::instance().gauge("test.rt.sick").set(0);

  std::vector<int> ids;
  for (int i = 0; i < 3; ++i) {
    const auto d = fc.submit("t0", request("app" + std::to_string(i),
                                           {"gain_x2"}));
    ASSERT_TRUE(d.admitted);
    ids.push_back(d.fleet_id);
  }
  // Park two apps on the to-be-degraded fabric so the drain has work.
  for (int i = 0; i < 2; ++i) {
    if (fc.statedb().app(ids[static_cast<std::size_t>(i)])->fabric != 1) {
      const auto m = fc.migrate(ids[static_cast<std::size_t>(i)], 1);
      ASSERT_EQ(m.outcome, fleet::MigrateOutcome::kMoved);
    }
  }
  ASSERT_GT(fc.running_on(1), 0);

  // Healthy tick: nothing trips, nothing isolates.
  EXPECT_EQ(fc.health_tick(), 0u);
  EXPECT_FALSE(fc.statedb().isolated(1));

  // Sick gauge: the next tick trips the rule, isolates fabric 1, and
  // starts draining (one drain intent per fabric per tick).
  obs::Registry::instance().gauge("test.rt.sick").set(1);
  EXPECT_EQ(fc.health_tick(), 1u);
  EXPECT_TRUE(fc.statedb().isolated(1));
  EXPECT_EQ(fc.statedb().active_breaches(1), 1);
  EXPECT_EQ(fc.counters().breaches_tripped, 1u);
  EXPECT_EQ(fc.counters().isolations, 1u);
  EXPECT_GE(fc.counters().drains_started, 1u);

  // The router scores an isolated fabric unroutable: new work lands
  // elsewhere.
  const auto steer = fc.submit("t0", request("steer", {"gain_x2"}));
  ASSERT_TRUE(steer.admitted);
  EXPECT_EQ(steer.fabric, 0);
  fc.stop(steer.fleet_id);

  // Further sick ticks drain the remaining apps off fabric 1.
  for (int guard = 0; fc.running_on(1) > 0 && guard < 16; ++guard) {
    fc.health_tick();
  }
  EXPECT_EQ(fc.running_on(1), 0);
  EXPECT_EQ(fc.counters().migrations_lost, 0u);
  for (int id : ids) {
    EXPECT_TRUE(fc.running(id)) << "app " << id << " lost in drain";
    EXPECT_EQ(fc.statedb().app(id)->fabric, 0);
  }
  // Still breached, still isolated.
  EXPECT_TRUE(fc.statedb().isolated(1));

  // Recovery needs clear_observations=2 consecutive good readings.
  obs::Registry::instance().gauge("test.rt.sick").set(0);
  fc.health_tick();
  EXPECT_TRUE(fc.statedb().isolated(1));
  fc.health_tick();
  EXPECT_FALSE(fc.statedb().isolated(1));
  EXPECT_EQ(fc.statedb().active_breaches(1), 0);
  EXPECT_EQ(fc.counters().breaches_cleared, 1u);
  EXPECT_EQ(fc.counters().unisolations, 1u);

  // The whole episode replays byte-identically.
  EXPECT_EQ(fc.statedb().replayed_view_digest(), fc.statedb().view_digest());

  // fleet_status surfaces the health ledger.
  const std::string status = fc.fleet_status();
  EXPECT_NE(status.find("health"), std::string::npos);
}

// A recovery belongs to the fabric that did it: a switch rollback on
// fabric 0 must not feed fabric 1's fault_recoveries gauge (and with it
// fabric 1's fault_recovery_rate rule).
TEST(HealthFleet, FaultRecoveriesStayOnTheirFabric) {
  obs::Registry::instance().reset();
  fleet::FleetSpec fs = fleet::FleetSpec::uniform(2);
  fs.health.enabled = true;
  fleet::ControlPlane fc(fs);

  // Fabric 0 streams through a passthrough on PRR 0 and switches it to
  // PRR 1, whose PR fails permanently: the switch rolls back.
  core::VapresSystem& sys = fc.system(0);
  core::Rsb& rsb = sys.rsb();
  sys.reconfigure_now(0, 0, "passthrough");
  sys.preload_sdram("gain_x2", 0, 1);
  core::SwitchRequest req;
  req.src_prr = 0;
  req.dst_prr = 1;
  req.new_module_id = "gain_x2";
  req.upstream = *sys.connect(0, rsb.iom_producer(0), rsb.prr_consumer(0));
  req.downstream = *sys.connect(0, rsb.prr_producer(0), rsb.iom_consumer(0));
  sim::ScopedFaultInjection faults(0x5EED);
  sys.reconfig().set_retry_policy(
      {.max_attempts = 1, .backoff_base_cycles = 256,
       .fallback_to_cf = false});
  faults->arm(sim::FaultSite::kIcapBitstreamCorruption,
              faults->opportunities(sim::FaultSite::kIcapBitstreamCorruption));
  core::ModuleSwitcher sw(sys, req);
  sw.begin();
  ASSERT_TRUE(sys.sim().run_until([&sw] { return sw.finished(); },
                                  sim::kPsPerSecond * 120));
  ASSERT_TRUE(sw.aborted());
  ASSERT_EQ(faults->recoveries(sim::RecoveryEvent::kSwitchRollback), 1u);

  fc.health_tick();
  obs::Registry& reg = obs::Registry::instance();
  EXPECT_EQ(reg.gauge("fleet." + fc.fabric_name(0) + ".fault_recoveries")
                .value(),
            1);
  EXPECT_EQ(reg.gauge("fleet." + fc.fabric_name(1) + ".fault_recoveries")
                .value(),
            0);
}

TEST(HealthFleet, ObserveOnlyModeNeverIsolates) {
  obs::Registry::instance().reset();
  const fleet::FleetSpec fs =
      sick_gauge_fleet("test.obs.sick", 1, 1, /*remediate=*/false);
  fleet::ControlPlane fc(fs);
  obs::Registry::instance().gauge("test.obs.sick").set(1);

  const auto d = fc.submit("t0", request("a", {"gain_x2"}));
  ASSERT_TRUE(d.admitted);

  EXPECT_EQ(fc.health_tick(), 1u);  // the rule still trips...
  EXPECT_EQ(fc.counters().breaches_tripped, 1u);
  EXPECT_FALSE(fc.statedb().isolated(1));  // ...but nothing remediates
  EXPECT_EQ(fc.counters().isolations, 0u);
  EXPECT_EQ(fc.counters().drains_started, 0u);
  EXPECT_EQ(fc.statedb().replayed_view_digest(), fc.statedb().view_digest());
}

TEST(HealthFleet, LastAvailableFabricIsNeverIsolated) {
  obs::Registry::instance().reset();
  // Two rules, one per fabric: both sick at once. Only one fabric may be
  // isolated — the fleet never isolates its last routable fabric.
  fleet::FleetSpec fs = fleet::FleetSpec::uniform(2);
  fs.health.enabled = true;
  for (int f = 0; f < 2; ++f) {
    HealthRuleSpec r;
    r.name = "sick" + std::to_string(f);
    r.source = Source::kGauge;
    r.metric = "test.both.sick";
    r.fabric = f;
    r.threshold = 0;
    r.breach_observations = 1;
    r.clear_observations = 1;
    fs.health.rules.push_back(r);
  }
  fleet::ControlPlane fc(fs);
  obs::Registry::instance().gauge("test.both.sick").set(1);

  EXPECT_EQ(fc.health_tick(), 2u);
  EXPECT_EQ(fc.statedb().available_fabrics(), 1);
  fc.health_tick();
  EXPECT_EQ(fc.statedb().available_fabrics(), 1);
  EXPECT_EQ(fc.statedb().replayed_view_digest(), fc.statedb().view_digest());
}

// ---- Kill-invariance ---------------------------------------------------

// Everything the health monitor *decided*, independent of journal
// versions (which legitimately shift under restart markers).
std::string decision_state(const fleet::ControlPlane& fc) {
  std::ostringstream os;
  for (const auto& r : fc.statedb().health_rules()) {
    os << r.name << " f" << r.fabric << " bad=" << r.bad_streak
       << " good=" << r.good_streak << " breached=" << r.breached
       << " primed=" << r.primed << " raw=" << r.last_raw
       << " trips=" << r.breaches << "\n";
  }
  for (int f = 0; f < fc.statedb().num_fabrics(); ++f) {
    const auto& fh = fc.statedb().fabric_health(f);
    os << "fabric" << f << " isolated=" << fh.isolated
       << " isolations=" << fh.isolations << "\n";
  }
  for (int id : fc.running_ids()) {
    os << "app" << id << "@" << fc.statedb().app(id)->fabric << "\n";
  }
  const auto& c = fc.counters();
  os << "tripped=" << c.breaches_tripped << " cleared=" << c.breaches_cleared
     << " iso=" << c.isolations << " uniso=" << c.unisolations
     << " drains=" << c.drains_started << " lost=" << c.migrations_lost
     << "\n";
  return os.str();
}

TEST(HealthFleet, KillAtEveryJournalStepPreservesDecisions) {
  // One full remediation episode (trip -> isolate -> drain -> recover),
  // re-run with the HealthAgent killed at each journal offset. Decision
  // state must match the no-kill baseline exactly, and every run must
  // replay to its own live digest. Flight recording stays off: bundle
  // checkpoints journal entries and would shift the offsets.
  auto run = [](std::uint64_t kill_offset) {
    obs::Registry::instance().reset();
    const fleet::FleetSpec fs = sick_gauge_fleet("test.kill.sick", 2, 2);
    fleet::ControlPlane fc(fs);
    obs::Registry::instance().gauge("test.kill.sick").set(0);

    std::vector<int> ids;
    for (int i = 0; i < 3; ++i) {
      const auto d = fc.submit("t0", request("app" + std::to_string(i),
                                             {"gain_x2"}));
      EXPECT_TRUE(d.admitted);
      ids.push_back(d.fleet_id);
    }
    // Two apps on the to-be-degraded fabric: the episode must include
    // real drains, not just an isolation toggle.
    for (int i = 0; i < 2; ++i) {
      if (fc.statedb().app(ids[static_cast<std::size_t>(i)])->fabric != 1) {
        fc.migrate(ids[static_cast<std::size_t>(i)], 1);
      }
    }
    EXPECT_GT(fc.running_on(1), 0);
    obs::Registry::instance().gauge("test.kill.sick").set(1);
    if (kill_offset > 0) {
      fc.schedule_kill(fleet::AgentId::kHealth,
                       fc.statedb().version() + kill_offset);
    }
    for (int t = 0; t < 3; ++t) fc.health_tick();  // trip on t=1, drain
    obs::Registry::instance().gauge("test.kill.sick").set(0);
    for (int t = 0; t < 2; ++t) fc.health_tick();  // clear + un-isolate

    EXPECT_EQ(fc.statedb().replayed_view_digest(),
              fc.statedb().view_digest())
        << "replay parity broken at kill offset " << kill_offset;
    return decision_state(fc);
  };

  const std::string baseline = run(0);
  EXPECT_NE(baseline.find("isolations=1"), std::string::npos);
  EXPECT_NE(baseline.find("lost=0"), std::string::npos);
  for (std::uint64_t offset = 1; offset <= 12; ++offset) {
    EXPECT_EQ(run(offset), baseline) << "kill offset " << offset;
  }
}

TEST(HealthFleet, RestartLedgerNotesHealthKills) {
  obs::Registry::instance().reset();
  const fleet::FleetSpec fs = sick_gauge_fleet("test.ledger.sick", 1, 1);
  fleet::ControlPlane fc(fs);

  EXPECT_EQ(fc.statedb().restarts(fleet::AgentId::kHealth), 0u);
  fc.restart_agent(fleet::AgentId::kHealth);
  EXPECT_EQ(fc.statedb().restarts(fleet::AgentId::kHealth), 1u);
  EXPECT_GE(fc.agent_restarts(), 1u);
  EXPECT_NE(fc.fleet_status().find("health"), std::string::npos);
  EXPECT_EQ(fc.statedb().replayed_view_digest(), fc.statedb().view_digest());
}

// ---- Flight recorder ---------------------------------------------------

TEST(HealthFleet, FlightBundleRoundTripsThroughSnapshotReader) {
  namespace fsys = std::filesystem;
  const std::string dir = "health_flight_tmp";
  std::error_code ec;
  fsys::remove_all(dir, ec);

  obs::Registry::instance().reset();
  const fleet::FleetSpec fs = sick_gauge_fleet("test.flight.sick", 1, 2);
  fleet::ControlPlane fc(fs);
  fc.set_flight_dir(dir);
  obs::Registry::instance().gauge("test.flight.sick").set(0);

  std::vector<int> ids;
  for (int i = 0; i < 3; ++i) {
    const auto d = fc.submit("t0", request("f" + std::to_string(i),
                                           {"gain_x2"}));
    ASSERT_TRUE(d.admitted);
    ids.push_back(d.fleet_id);
  }
  if (fc.statedb().app(ids[0])->fabric != 1) {
    ASSERT_EQ(fc.migrate(ids[0], 1).outcome, fleet::MigrateOutcome::kMoved);
  }
  ASSERT_GT(fc.running_on(1), 0);

  obs::Registry::instance().gauge("test.flight.sick").set(1);
  ASSERT_EQ(fc.health_tick(), 1u);
  // The bundle snapshots the suspect fabric *after* this tick's
  // remediation ran, so compare against the post-tick population.
  const int running_on_suspect = fc.running_on(1);
  ASSERT_EQ(fc.flight_bundles(), 1u);
  ASSERT_NE(fc.flight_recorder(), nullptr);
  ASSERT_EQ(fc.flight_recorder()->paths().size(), 1u);

  // The bundle is a plain .vsnp on disk; load it back cold.
  const std::string path = fc.flight_recorder()->paths().front();
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  const snap::SnapshotReader r(buf.str());

  for (const char* section :
       {"flight.meta", "flight.snapshot", "flight.trace", "flight.journal",
        "flight.metrics", "flight.health"}) {
    EXPECT_TRUE(r.has_section(section)) << section;
  }

  r.open_section("flight.meta");
  EXPECT_EQ(r.str(), "slo_breach");
  EXPECT_GT(r.u64(), 0u);      // capture cycle
  EXPECT_EQ(r.u64(), 0u);      // bundle sequence

  // The embedded snapshot restores into a working system+scheduler: the
  // postmortem is actionable, not just bytes.
  r.open_section("flight.snapshot");
  const std::string inner = r.str();
  ASSERT_FALSE(inner.empty());
  auto sys = snap::SystemSnapshot::restore_system(inner, fs.fabrics[1].params);
  auto sched = snap::SystemSnapshot::restore_scheduler(inner, *sys);
  EXPECT_EQ(static_cast<int>(sched->running_apps().size()),
            running_on_suspect);

  r.open_section("flight.trace");
  EXPECT_NE(r.str().find("traceEvents"), std::string::npos);

  r.open_section("flight.journal");
  EXPECT_FALSE(r.str().empty());

  r.open_section("flight.metrics");
  EXPECT_NE(r.str().find("test.flight.sick"), std::string::npos);

  r.open_section("flight.health");
  ASSERT_TRUE(r.boolean());  // sampler present
  const std::uint64_t samples = r.u64();
  EXPECT_GE(samples, 1u);
  const std::uint64_t nseries = r.u64();
  EXPECT_GT(nseries, 0u);
  bool saw_sick_gauge = false;
  for (std::uint64_t s = 0; s < nseries; ++s) {
    const std::string key = r.str();
    if (key == "gauge:test.flight.sick") saw_sick_gauge = true;
    const std::uint64_t n = r.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
      (void)r.u64();  // cycle
      (void)r.i64();  // value
    }
  }
  EXPECT_TRUE(saw_sick_gauge);
  const std::string rules = r.str();
  EXPECT_NE(rules.find("test.sick"), std::string::npos);
  EXPECT_EQ(r.remaining(), 0u);

  // The bundle cap holds: a recorder capped at 1 writes once, then
  // refuses.
  fc.set_flight_dir(dir, 1);
  EXPECT_FALSE(fc.record_flight("manual").empty());
  EXPECT_TRUE(fc.record_flight("manual").empty());
  EXPECT_EQ(fc.flight_bundles(), 1u);

  fsys::remove_all(dir, ec);
}

}  // namespace
}  // namespace vapres
