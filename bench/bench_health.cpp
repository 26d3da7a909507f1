// Health-monitor gate — monitoring must be (nearly) free and remediation
// must not cost admissions (see docs/HEALTH.md).
//
// Three configurations run the identical fixed-seed fleet workload with
// a fault-storm phase (ICAP corruption injected mid-run, the
// self-healing reconfig path keeps admitting):
//
//   - monitor-off: the PR 8 control plane exactly as it was — no health
//     agent, no sampling, the overhead/admission baseline;
//   - observe:     full health monitoring (sampler + standard SLO rules
//     evaluated every tick) with remediation disabled — the
//     monitoring-overhead measurement mode;
//   - remediate:   monitoring plus isolate/drain/un-isolate remediation
//     and the flight recorder armed.
//
// Gates:
//   - invariants: zero violations in every configuration;
//   - overhead: host wall-clock inside health_tick() <= 1% of the
//     observe run's total wall time;
//   - admission safety: the remediating fleet admits >= the monitor-off
//     baseline on the same storm workload, with zero apps lost to
//     drains (remediation must help or stay out of the way, never harm);
//   - storm realism: the storm phase actually injected faults;
//   - determinism: the remediate run replays to a bit-identical digest,
//     health ticks and remediation decisions included.
//
// Usage: bench_health [--lifetimes=N] [--seed=S] [--quick]
// Emits BENCH_health.json; exits non-zero on any gate failure.
// scripts/tier1.sh runs `bench_health --quick`.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "fleet/spec.hpp"
#include "load/fleet_soak.hpp"

namespace {

using namespace vapres;

/// standard_fleet with a fault-storm slice carved out of the steady
/// phase. Armed injection keeps every fabric's switch boxes awake, so
/// their static domains never coast and the storm is kept short and
/// dense: ~1/8 of the steady submissions at 10x the arrival rate, on
/// the small-footprint class mix the single-fabric soak's storm uses.
load::ScenarioSpec storm_scenario(std::uint64_t seed, std::uint64_t lifetimes,
                                  int num_tenants, int num_fabrics) {
  load::ScenarioSpec s = load::ScenarioSpec::standard_fleet(
      seed, lifetimes, num_tenants, num_fabrics);
  for (std::size_t i = 0; i < s.phases.size(); ++i) {
    if (s.phases[i].name != "steady") continue;
    load::Phase storm = s.phases[i];
    storm.name = "fault-storm";
    storm.submissions = std::max<std::uint64_t>(8, storm.submissions / 8);
    storm.mean_interarrival_cycles /= 10.0;
    storm.icap_fault_probability = 0.1;
    storm.class_weights = {2.0, 2.0, 2.0, 1.5, 0.0, 0.0, 0.0};
    s.phases[i].submissions -= std::min(s.phases[i].submissions - 1,
                                        storm.submissions);
    s.phases.insert(s.phases.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                    storm);
    break;
  }
  return s;
}

struct ConfigOutcome {
  std::string name;
  load::FleetSoakResult res;
};

ConfigOutcome run_config(const std::string& name,
                         const load::ScenarioSpec& scenario,
                         std::uint64_t seed, bool verbose, bool monitor,
                         bool remediate, const std::string& flight_dir) {
  ConfigOutcome out;
  out.name = name;

  load::FleetSoakOptions opt;
  opt.seed = seed;
  opt.verbose = verbose;
  opt.scenario = scenario;
  opt.fleet = fleet::FleetSpec::uniform(2);
  if (monitor) {
    opt.fleet->health.enabled = true;
    opt.fleet->health.remediate = remediate;
    opt.fleet->health.rules = fleet::standard_health_rules(*opt.fleet);
    opt.flight_dir = flight_dir;
  }
  out.res = load::run_fleet_soak(opt);
  return out;
}

void print_json_config(std::FILE* f, const ConfigOutcome& c, bool last) {
  const double overhead =
      c.res.wall_seconds > 0.0 ? c.res.health_wall_seconds / c.res.wall_seconds
                               : 0.0;
  std::fprintf(
      f,
      "    {\"name\": \"%s\", \"digest\": \"%016llx\", "
      "\"submitted\": %llu, \"admitted\": %llu, \"rejected\": %llu, "
      "\"migrations_lost\": %llu, \"faults_injected\": %llu, "
      "\"health_ticks\": %llu, \"breaches\": %llu, "
      "\"breaches_cleared\": %llu, \"isolations\": %llu, "
      "\"unisolations\": %llu, \"drains\": %llu, \"flight_bundles\": %llu, "
      "\"health_wall_seconds\": %.6f, \"wall_seconds\": %.3f, "
      "\"health_overhead\": %.6f, \"p50_submit_to_launch\": %llu, "
      "\"p99_submit_to_launch\": %llu, \"invariant_violations\": %zu}%s\n",
      c.name.c_str(), static_cast<unsigned long long>(c.res.digest),
      static_cast<unsigned long long>(c.res.submitted),
      static_cast<unsigned long long>(c.res.admitted),
      static_cast<unsigned long long>(c.res.rejected),
      static_cast<unsigned long long>(c.res.migrations_lost),
      static_cast<unsigned long long>(c.res.faults_injected),
      static_cast<unsigned long long>(c.res.health_ticks),
      static_cast<unsigned long long>(c.res.breaches),
      static_cast<unsigned long long>(c.res.breaches_cleared),
      static_cast<unsigned long long>(c.res.isolations),
      static_cast<unsigned long long>(c.res.unisolations),
      static_cast<unsigned long long>(c.res.drains),
      static_cast<unsigned long long>(c.res.flight_bundles),
      c.res.health_wall_seconds, c.res.wall_seconds, overhead,
      static_cast<unsigned long long>(c.res.p50_submit_to_launch),
      static_cast<unsigned long long>(c.res.p99_submit_to_launch),
      c.res.invariants.violations.size(), last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t lifetimes = 4'000;
  std::uint64_t seed = 1;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--lifetimes=", 12) == 0) {
      lifetimes = std::strtoull(argv[i] + 12, nullptr, 10);
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      seed = std::strtoull(argv[i] + 7, nullptr, 10);
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr, "unknown arg %s\n", argv[i]);
      return 2;
    }
  }
  if (quick && lifetimes == 4'000) lifetimes = 400;

  const load::ScenarioSpec scenario = storm_scenario(seed, lifetimes, 3, 2);
  const std::string flight_dir = "bench_health_flight";
  std::error_code ec;
  std::filesystem::remove_all(flight_dir, ec);

  std::printf("== health: %llu lifetimes, seed %llu%s ==\n",
              static_cast<unsigned long long>(lifetimes),
              static_cast<unsigned long long>(seed), quick ? " (quick)" : "");

  std::vector<ConfigOutcome> runs;
  runs.push_back(run_config("monitor-off", scenario, seed, !quick,
                            /*monitor=*/false, /*remediate=*/false, ""));
  runs.push_back(run_config("observe", scenario, seed, !quick,
                            /*monitor=*/true, /*remediate=*/false, ""));
  runs.push_back(run_config("remediate", scenario, seed, !quick,
                            /*monitor=*/true, /*remediate=*/true, flight_dir));
  const ConfigOutcome& off = runs[0];
  const ConfigOutcome& observe = runs[1];
  const ConfigOutcome& remediate = runs[2];

  for (const ConfigOutcome& c : runs) {
    std::printf("\n-- %s --\n%s\n", c.name.c_str(), c.res.summary().c_str());
  }

  std::vector<std::string> failures;
  auto gate = [&](bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  };
  for (const ConfigOutcome& c : runs) {
    gate(c.res.invariants.ok(), c.name + ": " + c.res.invariants.to_string());
    gate(c.res.migrations_lost == 0,
         c.name + ": " + std::to_string(c.res.migrations_lost) +
             " apps lost");
    gate(c.res.faults_injected > 0,
         c.name + ": storm phase injected no faults");
  }

  // Monitoring overhead: measured on the observe run (same rule load as
  // remediate, none of remediation's useful work mixed in).
  gate(observe.res.health_ticks > 0, "observe: no health ticks executed");
  const double overhead =
      observe.res.wall_seconds > 0.0
          ? observe.res.health_wall_seconds / observe.res.wall_seconds
          : 0.0;
  gate(overhead <= 0.01,
       "monitoring overhead " + std::to_string(overhead * 100.0) +
           "% > 1% of soak wall time");

  // Remediation must not cost admissions on the storm workload.
  gate(remediate.res.admitted >= off.res.admitted,
       "health-enabled fleet admitted " +
           std::to_string(remediate.res.admitted) + " < monitor-off " +
           std::to_string(off.res.admitted));

  // Determinism: health ticks, breaches, and remediation decisions fold
  // into the digest; an identical rerun must reproduce it bit for bit.
  std::filesystem::remove_all(flight_dir, ec);
  const ConfigOutcome replay =
      run_config("remediate-replay", scenario, seed, false,
                 /*monitor=*/true, /*remediate=*/true, flight_dir);
  gate(replay.res.digest == remediate.res.digest,
       "nondeterministic: remediate replay digest differs");
  gate(replay.res.health_ticks == remediate.res.health_ticks &&
           replay.res.breaches == remediate.res.breaches &&
           replay.res.isolations == remediate.res.isolations,
       "nondeterministic: health ledger differs across identical reruns");

  bool pass = failures.empty();
  for (const std::string& f : failures) {
    std::printf("GATE FAIL: %s\n", f.c_str());
  }

  std::FILE* f = std::fopen("BENCH_health.json", "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n  \"lifetimes\": %llu,\n  \"seed\": %llu,\n"
                 "  \"quick\": %s,\n  \"overhead_gate\": 0.01,\n"
                 "  \"measured_overhead\": %.6f,\n  \"configs\": [\n",
                 static_cast<unsigned long long>(lifetimes),
                 static_cast<unsigned long long>(seed),
                 quick ? "true" : "false", overhead);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      print_json_config(f, runs[i], i + 1 == runs.size());
    }
    std::fprintf(f, "  ],\n  \"pass\": %s\n}\n", pass ? "true" : "false");
    std::fclose(f);
    std::printf("\nwrote BENCH_health.json\n");
  }
  std::filesystem::remove_all(flight_dir, ec);
  std::printf("health gate: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
