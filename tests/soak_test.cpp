// Fast soak smoke: the sustained-load harness (src/load/soak.*) at
// ~10^3 lifetimes — the tier-1 slice of what bench_soak runs at
// 10^4..10^6 — plus the fleet soak (src/load/fleet_soak.*) over a
// 2-fabric ControlPlane with migration-churn and agent-crash-churn
// phases. ctest label: soak.
#include <gtest/gtest.h>

#include "load/fleet_soak.hpp"
#include "load/soak.hpp"

namespace vapres {
namespace {

/// Trims the standard scenario's fault-storm phase: armed injection
/// keeps the switch boxes awake, and two storm launches are enough for
/// a smoke run that must stay in CI-seconds.
load::ScenarioSpec trimmed(std::uint64_t seed, std::uint64_t lifetimes,
                           std::uint64_t storm_submissions) {
  load::ScenarioSpec spec = load::ScenarioSpec::standard(seed, lifetimes);
  for (auto& ph : spec.phases) {
    if (ph.icap_fault_probability > 0.0) ph.submissions = storm_submissions;
  }
  return spec;
}

TEST(Soak, ThousandLifetimesHoldEveryInvariant) {
  load::SoakOptions opt;
  opt.seed = 0x50AC;
  opt.lifetimes = 1'000;
  opt.scenario = trimmed(opt.seed, opt.lifetimes, 2);

  const load::SoakResult res = load::run_soak(opt);
  EXPECT_TRUE(res.invariants.ok()) << res.invariants.to_string();
  EXPECT_GT(res.invariants.checks_run, 1'000u);

  // Every lifetime completes: submit -> verdict -> (stream ->) teardown.
  EXPECT_EQ(res.submitted, res.lifetimes_completed);
  EXPECT_EQ(res.submitted, res.admitted + res.rejected);

  // The standard mix must exercise both admission outcomes and the
  // contention machinery, or the soak is not actually soaking.
  EXPECT_GT(res.admitted, 0u);
  EXPECT_GT(res.rejected, 0u);
  EXPECT_GT(res.preemptions, 0u);
  EXPECT_GT(res.churn_stops, 0u);

  EXPECT_GT(res.final_cycle, 0u);
  EXPECT_GT(res.p99_submit_to_launch, 0u);
  EXPECT_GE(res.p99_submit_to_launch, res.p50_submit_to_launch);
}

TEST(Soak, DigestIsDeterministicPerSeed) {
  load::SoakOptions opt;
  opt.seed = 77;
  opt.lifetimes = 150;
  opt.scenario = trimmed(opt.seed, opt.lifetimes, 1);

  const load::SoakResult a = load::run_soak(opt);
  const load::SoakResult b = load::run_soak(opt);
  EXPECT_TRUE(a.invariants.ok()) << a.invariants.to_string();
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.final_cycle, b.final_cycle);
  EXPECT_EQ(a.admitted, b.admitted);

  load::SoakOptions other = opt;
  other.seed = 78;
  other.scenario = trimmed(other.seed, other.lifetimes, 1);
  const load::SoakResult c = load::run_soak(other);
  EXPECT_NE(a.digest, c.digest);
}

// Replay digests are the oracle for refactors that must not change
// behaviour, so two are pinned here: the benchmark's storm-free soak
// and its fleet workload (checkpoint sweeps off), each at seed 1 and
// 300 lifetimes. A change that moves either must say why.
TEST(SoakDigest, StormFreeStandardSoakIsPinned) {
  load::ScenarioSpec spec = load::ScenarioSpec::standard(1, 300);
  std::erase_if(spec.phases, [](const load::Phase& p) {
    return p.icap_fault_probability > 0.0;
  });
  load::SoakOptions opt;
  opt.seed = 1;
  opt.lifetimes = spec.total_submissions();
  opt.checkpoint_interval = 128;
  opt.scenario = spec;
  const load::SoakResult res = load::run_soak(opt);
  EXPECT_TRUE(res.ok()) << res.invariants.to_string();
  EXPECT_EQ(res.digest, 0xa522e829b0921e44ULL);
}

TEST(SoakDigest, FleetWorkloadIsPinned) {
  fleet::FleetSpec fs = fleet::FleetSpec::heterogeneous();
  fs.health.enabled = true;
  fs.health.remediate = true;
  fs.health.rules = fleet::standard_health_rules(fs);
  const load::ScenarioSpec spec = load::ScenarioSpec::standard_fleet(
      1, 300, 3, static_cast<int>(fs.fabrics.size()));
  load::FleetSoakOptions opt;
  opt.seed = 1;
  opt.lifetimes = spec.total_submissions();
  opt.num_tenants = 3;
  opt.crash_churn_every = 20;
  opt.checkpoint_interval = 128;
  opt.health_tick_every = 64;
  opt.scenario = spec;
  opt.fleet = fs;
  const load::FleetSoakResult res = load::run_fleet_soak(opt);
  EXPECT_TRUE(res.ok()) << res.invariants.to_string();
  EXPECT_EQ(res.digest, 0x96153c03fc3a7499ULL);
}

TEST(FleetSoak, ThousandLifetimesOnTwoFabricsHoldEveryInvariant) {
  load::FleetSoakOptions opt;
  opt.seed = 0xF1EE7;
  opt.lifetimes = 1'000;
  opt.num_tenants = 3;

  const load::FleetSoakResult res = load::run_fleet_soak(opt);
  EXPECT_TRUE(res.invariants.ok()) << res.invariants.to_string();
  EXPECT_GT(res.invariants.checks_run, 1'000u);

  EXPECT_EQ(res.submitted, res.lifetimes_completed);
  EXPECT_EQ(res.submitted,
            res.admitted + res.rejected + res.quota_rejected);
  EXPECT_GT(res.admitted, 0u);

  // The migration-churn phase must actually move apps across fabrics,
  // and both fabrics must carry load.
  EXPECT_GT(res.migrations_attempted, 0u);
  EXPECT_GT(res.migrations_moved, 0u);
  EXPECT_EQ(res.migrations_lost, 0u);
  ASSERT_EQ(res.fabric_mean_utilization.size(), 2u);
  EXPECT_GT(res.fabric_mean_utilization[0], 0.0);
  EXPECT_GT(res.fabric_mean_utilization[1], 0.0);

  EXPECT_GT(res.final_cycle, 0u);
  EXPECT_GE(res.p99_submit_to_launch, res.p50_submit_to_launch);
}

TEST(FleetSoak, DigestIsDeterministicPerSeed) {
  load::FleetSoakOptions opt;
  opt.seed = 99;
  opt.lifetimes = 200;
  opt.num_tenants = 2;

  const load::FleetSoakResult a = load::run_fleet_soak(opt);
  const load::FleetSoakResult b = load::run_fleet_soak(opt);
  EXPECT_TRUE(a.invariants.ok()) << a.invariants.to_string();
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.final_cycle, b.final_cycle);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.migrations_moved, b.migrations_moved);

  load::FleetSoakOptions other = opt;
  other.seed = 100;
  const load::FleetSoakResult c = load::run_fleet_soak(other);
  EXPECT_NE(a.digest, c.digest);
}

TEST(FleetSoak, CrashChurnLosesNothingAndReplaysClean) {
  load::FleetSoakOptions opt;
  opt.seed = 0xC4A5;
  opt.lifetimes = 300;
  opt.num_tenants = 3;
  opt.crash_churn_every = 10;

  const load::FleetSoakResult res = load::run_fleet_soak(opt);
  EXPECT_TRUE(res.invariants.ok()) << res.invariants.to_string();
  EXPECT_GT(res.agent_kills, 0u);
  EXPECT_GT(res.replay_checks, 0u);
  EXPECT_EQ(res.reconcile_violations, 0u);
  EXPECT_EQ(res.migrations_lost, 0u);
  EXPECT_EQ(res.submitted, res.lifetimes_completed);

  // Crash churn is itself deterministic per seed.
  const load::FleetSoakResult again = load::run_fleet_soak(opt);
  EXPECT_EQ(res.digest, again.digest);

  // Restart recovery must not change routing decisions: the same seed
  // without churn admits exactly the same population.
  load::FleetSoakOptions calm = opt;
  calm.crash_churn_every = 0;
  const load::FleetSoakResult base = load::run_fleet_soak(calm);
  EXPECT_EQ(res.admitted, base.admitted);
  EXPECT_EQ(res.rejected, base.rejected);
}

}  // namespace
}  // namespace vapres
