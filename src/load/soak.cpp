#include "load/soak.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "obs/health/flight.hpp"
#include "obs/metrics.hpp"
#include "sched/scheduler.hpp"
#include "sim/fault.hpp"
#include "snap/format.hpp"
#include "snap/system_snapshot.hpp"

namespace vapres::load {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void fold(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
}

/// The FaultInjector is process-global; never leak an enabled storm
/// into whatever runs after the soak (other tests in the same binary).
struct StormGuard {
  ~StormGuard() { sim::FaultInjector::instance().disable(); }
};

}  // namespace

std::uint64_t read_rss_kb() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t total_pages = 0;
  std::uint64_t resident_pages = 0;
  if (!(statm >> total_pages >> resident_pages)) return 0;
  const long page = sysconf(_SC_PAGESIZE);
  if (page <= 0) return 0;
  return resident_pages * static_cast<std::uint64_t>(page) / 1024u;
}

std::string SoakResult::summary() const {
  char buf[512];
  std::string out;
  std::snprintf(buf, sizeof(buf),
                "soak: %llu lifetimes (%llu submitted, %llu admitted, "
                "%llu rejected) in %.2fs = %.0f lifetimes/s\n",
                static_cast<unsigned long long>(lifetimes_completed),
                static_cast<unsigned long long>(submitted),
                static_cast<unsigned long long>(admitted),
                static_cast<unsigned long long>(rejected), wall_seconds,
                lifetimes_per_second);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  churn stops %llu, preemptions %llu, migrations %llu, "
                "faults %llu/%llu, %llu system cycles\n",
                static_cast<unsigned long long>(churn_stops),
                static_cast<unsigned long long>(preemptions),
                static_cast<unsigned long long>(defrag_migrations),
                static_cast<unsigned long long>(faults_injected),
                static_cast<unsigned long long>(fault_opportunities),
                static_cast<unsigned long long>(final_cycle));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  submit->launch p50 %llu / p99 %llu mb-cycles; rss kB "
                "start %llu mid %llu end %llu peak %llu\n",
                static_cast<unsigned long long>(p50_submit_to_launch),
                static_cast<unsigned long long>(p99_submit_to_launch),
                static_cast<unsigned long long>(rss_kb_start),
                static_cast<unsigned long long>(rss_kb_mid),
                static_cast<unsigned long long>(rss_kb_end),
                static_cast<unsigned long long>(rss_kb_peak));
  out += buf;
  std::snprintf(buf, sizeof(buf), "  digest %016llx\n  %s",
                static_cast<unsigned long long>(digest),
                invariants.to_string().c_str());
  out += buf;
  return out;
}

SoakResult run_soak(const SoakOptions& opt) {
  const auto wall_start = std::chrono::steady_clock::now();
  SoakResult res;
  res.digest = kFnvOffset;

  ScenarioSpec spec = opt.scenario ? *opt.scenario
                                   : ScenarioSpec::standard(opt.seed,
                                                            opt.lifetimes);
  spec.seed = opt.seed;
  ScenarioGenerator gen(std::move(spec));

  bool storm_on = false;
  MonotoneClockCheck clock_check;
  std::vector<std::uint64_t> rss_samples;
  // Apps whose sink gap statistics were reset at launch (gap numbers
  // must not inherit the channel's previous tenant).
  std::unordered_set<int> gap_armed;
  // Oldest id whose terminal word counts were already conservation
  // checked; records behind a long-running app get swept once.
  int conservation_watermark = 0;
  std::size_t last_phase = static_cast<std::size_t>(-1);
  // Departure schedule (see below); restored from a resume blob.
  std::multimap<sim::Cycles, int> departures;

  // The harness cursors of a checkpoint blob's "soakharness" section, in
  // blob order: one field list for checkpoint (SnapshotWriter) and resume
  // (SnapshotReader), wrapping the system+scheduler snapshot.
  auto harness_fields = [&](auto& ar, std::string& sys_blob) {
    constexpr bool kLoading = std::decay_t<decltype(ar)>::kLoading;
    ScenarioGenerator::State gs = gen.state();
    ar.u64(gs.rng);
    ar.u64(gs.side_rng);
    ar.u64(gs.phase);
    ar.u64(gs.emitted_in_phase);
    ar.u64(gs.sequence);
    ar.f64(gs.clock);
    ar.u64(gs.burst_left);
    ar.u64(gs.quiet_left);
    if constexpr (kLoading) gen.set_state(gs);
    ar.u64(res.digest);
    ar.u64(res.churn_stops);
    ar.i64(conservation_watermark);
    ar.boolean(storm_on);
    ar.u64(last_phase);
    MonotoneClockCheck::State cs = clock_check.state();
    ar.u64(cs.last_ps);
    ar.u64(cs.last_cycle);
    ar.boolean(cs.seen);
    if constexpr (kLoading) clock_check.set_state(cs);
    ar.u64(res.invariants.checks_run);
    ar.list(res.invariants.violations, 4, [&](auto& v) { ar.str(v); });
    ar.entries(departures, 16, [&](auto& at, auto& id) {
      ar.u64(at);
      ar.i64(id);
    });
    std::vector<int> armed(gap_armed.begin(), gap_armed.end());
    std::sort(armed.begin(), armed.end());
    ar.list(armed, 8, [&](auto& id) { ar.i64(id); });
    if constexpr (kLoading) gap_armed.insert(armed.begin(), armed.end());
    ar.str(sys_blob);
  };

  std::unique_ptr<core::VapresSystem> sys_owner;
  std::unique_ptr<sched::ApplicationScheduler> sched_owner;
  if (!opt.resume_from.empty()) {
    // Resume a checkpointed run: restore the system + scheduler from the
    // embedded snapshot (which also rewinds the metrics registry and the
    // fault injector), then overlay the harness cursors so the event
    // stream and the run digest continue exactly where they stopped.
    const snap::SnapshotReader r(opt.resume_from);
    r.open_section("soakharness");
    std::string sys_blob;
    harness_fields(r, sys_blob);
    sys_owner = snap::SystemSnapshot::restore_system(sys_blob,
                                                     server_params());
    sched_owner =
        snap::SystemSnapshot::restore_scheduler(sys_blob, *sys_owner);
  } else {
    // Per-run latency percentiles need a clean histogram; registrations
    // survive, values zero.
    obs::Registry::instance().reset();
    sys_owner = std::make_unique<core::VapresSystem>(server_params());
    sys_owner->bring_up_all_sites();
    for (int i = 0; i < sys_owner->rsb(0).num_ioms(); ++i) {
      sys_owner->rsb(0).iom(i).set_received_history_limit(
          kHistoryLimitWords);
    }
    sched_owner = std::make_unique<sched::ApplicationScheduler>(*sys_owner);
  }
  core::VapresSystem& sys = *sys_owner;
  sched::ApplicationScheduler& sched = *sched_owner;
  core::Rsb& rsb = sys.rsb(0);

  sim::FaultInjector& injector = sim::FaultInjector::instance();
  StormGuard storm_guard;

  // Pre-stop checks that need the app's channel still routed: read the
  // live sink gap, then stop.
  auto stop_checked = [&](int id) {
    const sched::AppRecord& a = sched.app(id);
    core::Iom& iom = rsb.iom(a.sink.iom);
    check_stream_gap(a.request.name, iom.max_output_gap(a.sink.channel),
                     kGapBoundCycles, res.invariants);
    sched.stop(id);
    const sched::AppRecord& done = sched.app(id);
    fold(res.digest, static_cast<std::uint64_t>(id));
    fold(res.digest, done.final_words_in);
    fold(res.digest, done.final_words_out);
    gap_armed.erase(id);
  };

  // Departure schedule: launch cycle + the event's resident hold. Apps
  // sit quiescent on the fabric (holding PRRs and IOM channels) until
  // their hold expires — that residency is what makes concurrent
  // arrivals contend. Entries for apps the scheduler already tore down
  // (preempted) are dropped when popped. (Declared above: a resumed run
  // restores the schedule from the checkpoint blob.)
  auto stop_departed = [&]() {
    const sim::Cycles now = sys.system_clock().cycle_count();
    while (!departures.empty() && departures.begin()->first <= now) {
      const int id = departures.begin()->second;
      departures.erase(departures.begin());
      if (id >= sched.first_live_id() && sched.app(id).running()) {
        stop_checked(id);
      }
    }
  };

  // Full-system checkpoint: reach the cold-snapshot barrier (drain any
  // in-flight reconfiguration and prefetch staging), then wrap the
  // system+scheduler snapshot together with the harness cursors. The
  // barrier's cycle advance is absorbed by the absolute-cycle arrival of
  // the next workload event, so a resumed run replays the uninterrupted
  // run's stream — and digest — exactly.
  auto take_snapshot = [&](std::uint64_t processed) {
    const auto t0 = std::chrono::steady_clock::now();
    sys.drain_transfer_path();
    while (sys.prefetch().pending() > 0 || sys.prefetch().staging()) {
      sys.run_system_cycles(64);
    }
    std::string sys_blob =
        snap::SystemSnapshot::save(sys, processed, &sched);
    snap::SnapshotWriter w(processed);
    w.begin_section("soakharness");
    harness_fields(w, sys_blob);
    w.end_section();
    std::string blob = w.finish();
    ++res.snapshots_taken;
    res.checkpoint_wall_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (opt.snapshot_out != nullptr) *opt.snapshot_out = std::move(blob);
  };

  auto checkpoint = [&]() {
    // Conservation for records that went terminal since the last sweep
    // (reaped, churned, or preempted by the scheduler itself).
    for (int id = std::max(conservation_watermark, sched.first_live_id());
         id < sched.num_apps(); ++id) {
      const sched::AppRecord& a = sched.app(id);
      if (a.state == sched::AppState::kQueued || a.running()) break;
      if (a.state != sched::AppState::kRejected) {
        check_word_conservation(a, res.invariants);
      }
      conservation_watermark = id + 1;
    }
    sched.retire_terminal();
    check_resource_ledger(sched, res.invariants);
    check_accounting(sched, res.invariants);
    clock_check.observe(sys, res.invariants);
    const std::uint64_t rss = read_rss_kb();
    rss_samples.push_back(rss);
    res.rss_kb_peak = std::max(res.rss_kb_peak, rss);
  };

  // Shared tail: both the normal exit and the stop_at_snapshot early
  // exit (simulated crash) fold accounting, latency percentiles, RSS and
  // wall time into the result the same way.
  auto finalize = [&]() {
    const core::SchedulerAccounting acc = sched.accounting();
    res.submitted = static_cast<std::uint64_t>(acc.submitted);
    res.admitted = static_cast<std::uint64_t>(acc.admitted);
    res.rejected = static_cast<std::uint64_t>(acc.rejected);
    res.lifetimes_completed =
        res.submitted -
        static_cast<std::uint64_t>(sched.running_apps().size());
    res.preemptions = static_cast<std::uint64_t>(acc.preemptions);
    res.defrag_migrations = static_cast<std::uint64_t>(acc.defrag_migrations);
    res.faults_injected =
        injector.injected(sim::FaultSite::kIcapBitstreamCorruption);
    res.fault_opportunities =
        injector.opportunities(sim::FaultSite::kIcapBitstreamCorruption);
    res.final_cycle = sys.system_clock().cycle_count();

    // One percentile implementation fleet-wide: Registry::summary routes
    // through obs::summarize (docs/OBSERVABILITY.md).
    const obs::HistogramSummary lat =
        obs::Registry::instance().summary("sched.submit_to_launch.cycles");
    res.p50_submit_to_launch = lat.p50;
    res.p99_submit_to_launch = lat.p99;

    // Black-box: a dirty invariant sweep writes a postmortem bundle with
    // the final system snapshot, trace ring, and metrics.
    if (!opt.flight_dir.empty() && !res.invariants.ok()) {
      obs::health::FlightRecorder rec(opt.flight_dir);
      const std::string blob =
          snap::SystemSnapshot::save(sys, res.submitted, &sched);
      if (!rec.record("soak_invariant_failure",
                      sys.system_clock().cycle_count(), blob, std::string{},
                      nullptr, res.invariants.to_string())
               .empty()) {
        ++res.flight_bundles;
      }
    }

    if (!rss_samples.empty()) {
      res.rss_kb_start = rss_samples.front();
      res.rss_kb_mid = rss_samples[rss_samples.size() / 2];
      res.rss_kb_end = rss_samples.back();
    }

    res.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    res.lifetimes_per_second =
        res.wall_seconds > 0.0
            ? static_cast<double>(res.lifetimes_completed) / res.wall_seconds
            : 0.0;
  };

  while (std::optional<WorkloadEvent> ev = gen.next()) {
    const Phase& ph = gen.spec().phases[ev->phase_index];
    if (opt.verbose && ev->phase_index != last_phase) {
      std::printf("soak: phase '%s' (%llu submissions)\n", ph.name.c_str(),
                  static_cast<unsigned long long>(ph.submissions));
      last_phase = ev->phase_index;
    }

    // Fault-storm phases drive the ICAP corruption site; the reconfig
    // layer self-heals, so streams stay checkable through the storm.
    const bool want_storm = ph.icap_fault_probability > 0.0;
    if (want_storm && !storm_on) {
      injector.enable(opt.seed ^ 0x5107A1C0FFEEULL);
      injector.set_probability(sim::FaultSite::kIcapBitstreamCorruption,
                               ph.icap_fault_probability);
      storm_on = true;
    } else if (!want_storm && storm_on) {
      injector.disable();
      storm_on = false;
    }

    // Advance the fabric to the arrival instant (admission work may
    // already have pushed the clock past slow-phase gaps), then free
    // whatever tenants departed in the meantime.
    const sim::Cycles now = sys.system_clock().cycle_count();
    if (ev->at_cycle > now) sys.run_system_cycles(ev->at_cycle - now);
    stop_departed();

    fold(res.digest, ev->sequence);
    fold(res.digest, ev->at_cycle);
    fold(res.digest, static_cast<std::uint64_t>(ev->class_index));
    fold(res.digest, static_cast<std::uint64_t>(ev->request.priority));
    fold(res.digest,
         static_cast<std::uint64_t>(ev->request.source_interval_cycles));
    fold(res.digest, ev->request.source_words);
    fold(res.digest, ev->hold_cycles);
    fold(res.digest, ev->churn_stop ? 1u : 0u);

    const int id = sched.submit(ev->request);
    sched.run_admission();
    fold(res.digest, static_cast<std::uint64_t>(id));
    fold(res.digest, static_cast<std::uint64_t>(sched.app(id).verdict));
    if (sched.app(id).running()) {
      departures.emplace(sys.system_clock().cycle_count() + ev->hold_cycles,
                         id);
    }

    // Arm gap statistics for every fresh launch: the sink channel is
    // reused across tenants, the gap window must start at this one.
    std::vector<int> running = sched.running_apps();
    for (auto it = gap_armed.begin(); it != gap_armed.end();) {
      const int armed_id = *it;
      const bool still_running =
          std::find(running.begin(), running.end(), armed_id) != running.end();
      it = still_running ? std::next(it) : gap_armed.erase(it);
    }
    for (const int rid : running) {
      if (gap_armed.insert(rid).second) {
        const sched::AppRecord& a = sched.app(rid);
        rsb.iom(a.sink.iom).reset_gap_stats(a.sink.channel);
      }
    }

    // Adversarial churn: tear down the oldest runner right as fresh
    // work lands on the fabric.
    if (ev->churn_stop) {
      running = sched.running_apps();
      if (!running.empty()) {
        stop_checked(running.front());
        ++res.churn_stops;
      }
    }

    if ((ev->sequence + 1) % opt.checkpoint_interval == 0) checkpoint();

    // Checkpoint/restore hooks. Departed-but-unstopped tenants stay on
    // the schedule: stopping them here (earlier than the uninterrupted
    // run would, at the next event's stop_departed) would diverge the
    // digest.
    const std::uint64_t processed = ev->sequence + 1;
    const bool named = opt.snapshot_at > 0 && processed == opt.snapshot_at;
    if (named || (opt.snapshot_every > 0 &&
                  processed % opt.snapshot_every == 0)) {
      take_snapshot(processed);
    }
    if (named && opt.stop_at_snapshot) {
      if (storm_on) {
        injector.disable();
        storm_on = false;
      }
      finalize();
      return res;
    }
  }

  // The storm ends with its phase's last submission; disarm before the
  // drain so the switch boxes may sleep through the multi-M-cycle
  // advances to the remaining departures.
  if (storm_on) {
    injector.disable();
    storm_on = false;
  }

  // Drain: advance to each remaining departure and retire the tenant.
  while (!departures.empty()) {
    const sim::Cycles next = departures.begin()->first;
    const sim::Cycles now = sys.system_clock().cycle_count();
    if (next > now) sys.run_system_cycles(next - now);
    stop_departed();
  }
  for (const int id : sched.running_apps()) stop_checked(id);
  checkpoint();

  finalize();
  return res;
}

}  // namespace vapres::load
