// Sustained-load soak gate — the scheduler + fabric under 10^4..10^6
// seeded application lifetimes (see docs/LOADGEN.md).
//
// Runs load::run_soak over the standard scenario (warmup / steady
// Poisson / bursty-diurnal / fault-storm / adversarial churn) and gates
// on:
//
//   - invariants: zero violations (resource leaks, accounting drift,
//     word loss, live-stream gaps, kernel-time monotonicity);
//   - completion: every submitted lifetime reaches a terminal state;
//   - throughput: sustained lifetimes/s above a floor chosen an order
//     of magnitude under this machine's measured rate, so the gate
//     catches algorithmic regressions (O(lifetimes) scans creeping
//     back), not scheduler jitter;
//   - admission latency: p99 submit->launch MicroBlaze cycles. This is
//     simulated time, so it is exact and tight;
//   - memory stability: checkpoint RSS must plateau — the end sample
//     stays within 5% + 2 MiB of the mid-run sample (catches unbounded
//     histories, never-retired records, leaked bitstream copies).
//
// --quick additionally replays the same seed and insists on a
// bit-identical run digest (the determinism gate sized for tier-1), and
// runs the snap checkpoint/restore gates (docs/SNAPSHOT.md):
//
//   - restore-mid-soak: for three seeds, a run checkpointed mid-stream,
//     stopped, and resumed from the blob must finish with the same
//     digest as the uninterrupted run, bit for bit;
//   - checkpoint overhead: a run checkpointing every 256 submissions
//     must spend <= 5% of its wall time inside checkpointing, and its
//     digest must still match the checkpoint-free run.
//
// Usage: bench_soak [--lifetimes=N] [--seed=S] [--sweep=K] [--quick]
// Emits BENCH_soak.json; exits non-zero on any gate failure.
// scripts/tier1.sh runs `bench_soak --quick`.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "load/soak.hpp"

namespace {

using namespace vapres;

struct Gates {
  /// Measured ~68 lifetimes/s at 10^3 (storm-heavy mix) and ~300/s at
  /// 10^5 on the reference 1-CPU container; the floor sits 3x under
  /// the worst case so it trips on algorithmic regressions (per-cycle
  /// ticking creeping back, O(lifetimes) scans), not machine jitter.
  double min_lifetimes_per_sec = 20.0;
  /// p99 admission->launch spans a defrag- or preemption-assisted
  /// launch on the big PRRs: ~8.4M MicroBlaze cycles measured (two PR
  /// transfers plus decision work). Simulated time, so tight: 4x.
  std::uint64_t max_p99_submit_to_launch = 32'000'000;  // mb cycles
  double rss_plateau_ratio = 1.05;
  std::uint64_t rss_plateau_slack_kb = 2048;
};

struct RunOutcome {
  std::uint64_t seed = 0;
  load::SoakResult res;
  bool deterministic = true;  // only exercised under --quick
  std::vector<std::string> failures;
};

void gate(RunOutcome& out, bool ok, const std::string& what) {
  if (!ok) out.failures.push_back(what);
}

RunOutcome run_one(std::uint64_t seed, std::uint64_t lifetimes,
                   const Gates& g, bool quick) {
  RunOutcome out;
  out.seed = seed;

  load::SoakOptions opt;
  opt.seed = seed;
  opt.lifetimes = lifetimes;
  opt.verbose = !quick;
  out.res = load::run_soak(opt);
  const load::SoakResult& r = out.res;

  gate(out, r.invariants.ok(), r.invariants.to_string());
  gate(out, r.submitted == lifetimes,
       "submitted " + std::to_string(r.submitted) + " != requested " +
           std::to_string(lifetimes));
  gate(out, r.lifetimes_completed == r.submitted,
       "only " + std::to_string(r.lifetimes_completed) + " of " +
           std::to_string(r.submitted) + " lifetimes completed");
  gate(out, r.admitted > 0 && r.rejected > 0,
       "degenerate mix: admitted=" + std::to_string(r.admitted) +
           " rejected=" + std::to_string(r.rejected) +
           " (scenario no longer exercises both paths)");
  gate(out, r.lifetimes_per_second >= g.min_lifetimes_per_sec,
       "throughput " + std::to_string(r.lifetimes_per_second) +
           " lifetimes/s under floor " +
           std::to_string(g.min_lifetimes_per_sec));
  gate(out, r.p99_submit_to_launch <= g.max_p99_submit_to_launch,
       "p99 submit->launch " + std::to_string(r.p99_submit_to_launch) +
           " mb-cycles over cap " +
           std::to_string(g.max_p99_submit_to_launch));
  if (r.rss_kb_mid > 0 && r.rss_kb_end > 0) {
    const double cap = static_cast<double>(r.rss_kb_mid) *
                           g.rss_plateau_ratio +
                       static_cast<double>(g.rss_plateau_slack_kb);
    gate(out, static_cast<double>(r.rss_kb_end) <= cap,
         "RSS grew past plateau: mid " + std::to_string(r.rss_kb_mid) +
             " kB -> end " + std::to_string(r.rss_kb_end) + " kB");
  }

  if (quick) {
    load::SoakResult replay = load::run_soak(opt);
    out.deterministic = replay.digest == r.digest;
    gate(out, out.deterministic,
         "nondeterministic: replay digest differs for seed " +
             std::to_string(seed));
  }
  return out;
}

/// The snap subsystem's soak gates (docs/SNAPSHOT.md): restore-mid-soak
/// digest equality over three seeds, plus the <= 5% checkpoint-overhead
/// cap. `baseline_digest` is the plain quick run's digest for the same
/// seed/lifetimes (the overhead run must reproduce it).
struct SnapOutcome {
  int restore_seeds_ok = 0;
  double checkpoint_overhead_pct = 0.0;
  std::vector<std::string> failures;
};

SnapOutcome run_snap_gates(std::uint64_t seed, std::uint64_t lifetimes,
                           std::uint64_t baseline_digest) {
  SnapOutcome out;
  auto gate = [&out](bool ok, const std::string& what) {
    if (!ok) out.failures.push_back(what);
  };

  for (std::uint64_t s = seed; s < seed + 3; ++s) {
    load::SoakOptions base;
    base.seed = s;
    base.lifetimes = 600;
    const load::SoakResult plain = load::run_soak(base);

    load::SoakOptions crash = base;
    std::string blob;
    crash.snapshot_at = 300;
    crash.snapshot_out = &blob;
    load::run_soak(crash);

    load::SoakOptions resume = base;
    resume.resume_from = blob;
    const load::SoakResult resumed = load::run_soak(resume);

    const bool match =
        resumed.digest == plain.digest && resumed.ok() && plain.ok();
    if (match) ++out.restore_seeds_ok;
    gate(match, "restore-mid-soak: seed " + std::to_string(s) +
                    " resumed run diverged (plain " +
                    std::to_string(plain.digest) + ", resumed " +
                    std::to_string(resumed.digest) + ")");
  }

  load::SoakOptions oh;
  oh.seed = seed;
  oh.lifetimes = lifetimes;
  oh.snapshot_every = 256;
  const load::SoakResult ohr = load::run_soak(oh);
  out.checkpoint_overhead_pct =
      ohr.wall_seconds > 0.0
          ? 100.0 * ohr.checkpoint_wall_seconds / ohr.wall_seconds
          : 0.0;
  gate(ohr.digest == baseline_digest,
       "checkpointing perturbed the run: digest " +
           std::to_string(ohr.digest) + " != baseline " +
           std::to_string(baseline_digest));
  gate(ohr.snapshots_taken > 0, "overhead run took no snapshots");
  gate(out.checkpoint_overhead_pct <= 5.0,
       "checkpoint overhead " + std::to_string(out.checkpoint_overhead_pct) +
           "% of wall time exceeds the 5% cap");
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t lifetimes = 100'000;
  std::uint64_t seed = 1;
  std::uint64_t sweep = 1;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--lifetimes=", 12) == 0) {
      lifetimes = std::strtoull(argv[i] + 12, nullptr, 10);
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      seed = std::strtoull(argv[i] + 7, nullptr, 10);
    } else if (std::strncmp(argv[i], "--sweep=", 8) == 0) {
      sweep = std::strtoull(argv[i] + 8, nullptr, 10);
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr, "unknown arg %s\n", argv[i]);
      return 2;
    }
  }
  if (quick && lifetimes == 100'000) lifetimes = 2'000;
  if (sweep == 0) sweep = 1;

  Gates g;
  std::printf("== soak: %llu lifetimes x %llu seed(s), base seed %llu%s ==\n",
              static_cast<unsigned long long>(lifetimes),
              static_cast<unsigned long long>(sweep),
              static_cast<unsigned long long>(seed), quick ? " (quick)" : "");

  std::vector<RunOutcome> runs;
  bool pass = true;
  for (std::uint64_t k = 0; k < sweep; ++k) {
    RunOutcome out = run_one(seed + k, lifetimes, g, quick);
    std::printf("\n-- seed %llu --\n%s\n",
                static_cast<unsigned long long>(out.seed),
                out.res.summary().c_str());
    for (const std::string& f : out.failures) {
      std::printf("GATE FAIL: %s\n", f.c_str());
      pass = false;
    }
    runs.push_back(std::move(out));
  }

  SnapOutcome snap;
  if (quick) {
    std::printf("\n-- snap gates (restore-mid-soak + checkpoint "
                "overhead) --\n");
    snap = run_snap_gates(seed, lifetimes, runs.front().res.digest);
    std::printf("restore-mid-soak: %d/3 seeds bit-identical; checkpoint "
                "overhead %.2f%% of wall time\n",
                snap.restore_seeds_ok, snap.checkpoint_overhead_pct);
    for (const std::string& f : snap.failures) {
      std::printf("GATE FAIL: %s\n", f.c_str());
      pass = false;
    }
  }

  std::FILE* f = std::fopen("BENCH_soak.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"lifetimes\": %llu,\n  \"quick\": %s,\n",
                 static_cast<unsigned long long>(lifetimes),
                 quick ? "true" : "false");
    std::fprintf(f, "  \"runs\": [\n");
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const load::SoakResult& r = runs[i].res;
      std::fprintf(
          f,
          "    {\"seed\": %llu, \"digest\": \"%016llx\", "
          "\"lifetimes_completed\": %llu, \"admitted\": %llu, "
          "\"rejected\": %llu, \"lifetimes_per_sec\": %.1f, "
          "\"p50_submit_to_launch\": %llu, \"p99_submit_to_launch\": %llu, "
          "\"rss_kb_mid\": %llu, \"rss_kb_end\": %llu, "
          "\"invariant_violations\": %zu, \"deterministic\": %s, "
          "\"gate_failures\": %zu}%s\n",
          static_cast<unsigned long long>(runs[i].seed),
          static_cast<unsigned long long>(r.digest),
          static_cast<unsigned long long>(r.lifetimes_completed),
          static_cast<unsigned long long>(r.admitted),
          static_cast<unsigned long long>(r.rejected),
          r.lifetimes_per_second,
          static_cast<unsigned long long>(r.p50_submit_to_launch),
          static_cast<unsigned long long>(r.p99_submit_to_launch),
          static_cast<unsigned long long>(r.rss_kb_mid),
          static_cast<unsigned long long>(r.rss_kb_end),
          r.invariants.violations.size(),
          runs[i].deterministic ? "true" : "false", runs[i].failures.size(),
          i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    if (quick) {
      std::fprintf(f,
                   "  \"snap\": {\"restore_seeds_ok\": %d, "
                   "\"checkpoint_overhead_pct\": %.2f},\n",
                   snap.restore_seeds_ok, snap.checkpoint_overhead_pct);
    }
    std::fprintf(f,
                 "  \"thresholds\": {\"min_lifetimes_per_sec\": %.1f, "
                 "\"max_p99_submit_to_launch\": %llu, "
                 "\"rss_plateau_ratio\": %.2f, "
                 "\"rss_plateau_slack_kb\": %llu},\n"
                 "  \"pass\": %s\n}\n",
                 g.min_lifetimes_per_sec,
                 static_cast<unsigned long long>(g.max_p99_submit_to_launch),
                 g.rss_plateau_ratio,
                 static_cast<unsigned long long>(g.rss_plateau_slack_kb),
                 pass ? "true" : "false");
    std::fclose(f);
    std::printf("\nwrote BENCH_soak.json\n");
  }
  std::printf("soak gate: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
