#include "load/fleet_soak.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>

#include "fleet/controlplane.hpp"
#include "load/soak.hpp"
#include "obs/metrics.hpp"
#include "sim/fault.hpp"
#include "sim/random.hpp"

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

std::string route_hist_name(const std::string& fabric, bool first_choice) {
  return "fleet.route." + fabric +
         (first_choice ? ".first.cycles" : ".fallback.cycles");
}

/// The FaultInjector is process-global; never leak an enabled storm
/// into whatever runs after the soak (other tests in the same binary).
struct StormGuard {
  ~StormGuard() { sim::FaultInjector::instance().disable(); }
};

}  // namespace

std::string FleetSoakResult::summary() const {
  char buf[512];
  std::string out;
  std::snprintf(buf, sizeof(buf),
                "fleet soak: %llu lifetimes (%llu submitted, %llu admitted, "
                "%llu rejected, %llu quota-rejected) in %.2fs = %.0f "
                "lifetimes/s\n",
                static_cast<unsigned long long>(lifetimes_completed),
                static_cast<unsigned long long>(submitted),
                static_cast<unsigned long long>(admitted),
                static_cast<unsigned long long>(rejected),
                static_cast<unsigned long long>(quota_rejected), wall_seconds,
                lifetimes_per_second);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  fallbacks %llu, migrations %llu (moved %llu, rolled back "
                "%llu, skipped %llu, lost %llu), quota preempt/grow/shrink "
                "%llu/%llu/%llu\n",
                static_cast<unsigned long long>(route_fallbacks),
                static_cast<unsigned long long>(migrations_attempted),
                static_cast<unsigned long long>(migrations_moved),
                static_cast<unsigned long long>(migrations_rolled_back),
                static_cast<unsigned long long>(migrations_skipped),
                static_cast<unsigned long long>(migrations_lost),
                static_cast<unsigned long long>(quota_preemptions),
                static_cast<unsigned long long>(quota_grows),
                static_cast<unsigned long long>(quota_shrinks));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  control plane: %llu agent kills, %llu replay checks, "
                "%llu reconcile violations\n",
                static_cast<unsigned long long>(agent_kills),
                static_cast<unsigned long long>(replay_checks),
                static_cast<unsigned long long>(reconcile_violations));
  out += buf;
  if (health_ticks > 0 || breaches > 0 || flight_bundles > 0) {
    std::snprintf(
        buf, sizeof(buf),
        "  health: %llu ticks (%.3fs), %llu breaches (%llu cleared), "
        "%llu isolations (%llu lifted), %llu drains, %llu flight "
        "bundles, %llu faults\n",
        static_cast<unsigned long long>(health_ticks), health_wall_seconds,
        static_cast<unsigned long long>(breaches),
        static_cast<unsigned long long>(breaches_cleared),
        static_cast<unsigned long long>(isolations),
        static_cast<unsigned long long>(unisolations),
        static_cast<unsigned long long>(drains),
        static_cast<unsigned long long>(flight_bundles),
        static_cast<unsigned long long>(faults_injected));
    out += buf;
  }
  for (const RouteLatency& rl : route_latency) {
    std::snprintf(buf, sizeof(buf),
                  "  route latency %s: first-choice p50/p99 %llu/%llu "
                  "(%llu apps), fallback p50/p99 %llu/%llu (%llu apps)\n",
                  rl.fabric.c_str(),
                  static_cast<unsigned long long>(rl.first_p50),
                  static_cast<unsigned long long>(rl.first_p99),
                  static_cast<unsigned long long>(rl.first_count),
                  static_cast<unsigned long long>(rl.fallback_p50),
                  static_cast<unsigned long long>(rl.fallback_p99),
                  static_cast<unsigned long long>(rl.fallback_count));
    out += buf;
  }
  out += "  fabric mean utilization:";
  for (const double u : fabric_mean_utilization) {
    std::snprintf(buf, sizeof(buf), " %.0f%%", u * 100.0);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "\n  submit->launch p50 %llu / p99 %llu mb-cycles, %llu fleet "
                "cycles\n  digest %016llx\n  %s",
                static_cast<unsigned long long>(p50_submit_to_launch),
                static_cast<unsigned long long>(p99_submit_to_launch),
                static_cast<unsigned long long>(final_cycle),
                static_cast<unsigned long long>(digest),
                invariants.to_string().c_str());
  out += buf;
  return out;
}

FleetSoakResult run_fleet_soak(const FleetSoakOptions& opt) {
  const auto wall_start = std::chrono::steady_clock::now();
  FleetSoakResult res;
  res.digest = kFnvOffset;

  obs::Registry::instance().reset();

  fleet::ControlPlane fc(opt.fleet ? *opt.fleet
                                   : fleet::FleetSpec::uniform(2));
  if (!opt.flight_dir.empty()) fc.set_flight_dir(opt.flight_dir);
  const int nf = fc.num_fabrics();
  for (int i = 0; i < nf; ++i) {
    core::Rsb& rsb = fc.system(i).rsb(0);
    for (int j = 0; j < rsb.num_ioms(); ++j) {
      rsb.iom(j).set_received_history_limit(kHistoryLimitWords);
    }
  }

  ScenarioSpec spec = opt.scenario
                          ? *opt.scenario
                          : ScenarioSpec::standard_fleet(
                                opt.seed, opt.lifetimes, opt.num_tenants, nf);
  spec.seed = opt.seed;
  ScenarioGenerator gen(std::move(spec));

  // Per-fabric clock monotonicity + fleet-time progress (per-fabric
  // stall is legal here: a fabric pushed ahead by admission work may
  // idle through a whole checkpoint interval while arrivals land on the
  // others, so the single-system MonotoneClockCheck would misfire).
  std::vector<sim::Cycles> last_cycle(static_cast<std::size_t>(nf), 0);
  sim::Cycles last_fleet_now = 0;
  bool clock_seen = false;

  std::vector<double> util_sum(static_cast<std::size_t>(nf), 0.0);
  std::uint64_t util_samples = 0;
  // Oldest local app id already conservation-checked, per fabric.
  std::vector<int> conservation_watermark(static_cast<std::size_t>(nf), 0);
  // fleet id -> sink location whose gap stats were reset for the app's
  // current incarnation (a migration re-launches on a new channel).
  std::map<int, fleet::FleetAppId> gap_armed;

  // Crash churn: a dedicated draw stream (never shared with the
  // workload generator) picks which agent dies and how far past the
  // current journal version the kill lands.
  sim::SplitMix64 kill_rng(opt.seed ^ 0xc5a5ce55c5a5ce55ULL);
  std::uint64_t since_kill = 0;
  std::uint64_t seen_restarts = 0;
  auto maybe_schedule_kill = [&]() {
    if (opt.crash_churn_every == 0) return;
    if (++since_kill < opt.crash_churn_every) return;
    since_kill = 0;
    // With the health monitor enabled it joins the kill lottery; the
    // modulus stays 3 + nf otherwise so monitor-off baselines keep
    // their historical kill draws.
    const int named = fc.health_enabled() ? 4 : 3;
    const std::uint64_t pick =
        kill_rng.next() % static_cast<std::uint64_t>(named + nf);
    fleet::AgentId agent = fleet::AgentId::kRouter;
    if (pick == 1) {
      agent = fleet::AgentId::kQuota;
    } else if (pick == 2) {
      agent = fleet::AgentId::kMigration;
    } else if (fc.health_enabled() && pick == 3) {
      agent = fleet::AgentId::kHealth;
    } else if (pick >= static_cast<std::uint64_t>(named)) {
      agent = fleet::fabric_agent_id(static_cast<int>(
          pick - static_cast<std::uint64_t>(named)));
    }
    const std::uint64_t offset = 1 + kill_rng.next() % 8;
    fc.schedule_kill(agent, fc.statedb().version() + offset);
    fold(res.digest, pick);
    fold(res.digest, offset);
  };
  // After any restart fired mid-pump, prove the restarted plane
  // reconverged: the table-vs-scheduler sweep is clean on every fabric
  // and replaying the retained journal reproduces the live view.
  auto absorb_restarts = [&]() {
    const std::uint64_t r = fc.agent_restarts();
    if (r == seen_restarts) return;
    seen_restarts = r;
    ++res.invariants.checks_run;
    for (const std::string& v : fc.reconcile()) {
      ++res.reconcile_violations;
      res.invariants.fail("post-restart reconcile: " + v);
    }
    ++res.invariants.checks_run;
    ++res.replay_checks;
    if (fc.statedb().replayed_view_digest() != fc.statedb().view_digest()) {
      res.invariants.fail(
          "journal replay diverged from the live view after an agent "
          "restart (version " +
          std::to_string(fc.statedb().version()) + ")");
    }
  };

  auto stop_checked = [&](int fleet_id) {
    const fleet::FleetAppId loc = *fc.locate(fleet_id);
    const sched::AppRecord& a = fc.record_of(fleet_id);
    core::Iom& iom = fc.system(loc.fabric).rsb(0).iom(a.sink.iom);
    check_stream_gap(a.request.name, iom.max_output_gap(a.sink.channel),
                     kGapBoundCycles, res.invariants);
    fc.stop(fleet_id);
    const sched::AppRecord& done = fc.record_of(fleet_id);
    fold(res.digest, static_cast<std::uint64_t>(fleet_id));
    fold(res.digest, done.final_words_in);
    fold(res.digest, done.final_words_out);
    gap_armed.erase(fleet_id);
  };

  std::multimap<sim::Cycles, int> departures;  // fleet time -> fleet id
  auto stop_departed = [&]() {
    const sim::Cycles now = fc.now();
    while (!departures.empty() && departures.begin()->first <= now) {
      const int id = departures.begin()->second;
      departures.erase(departures.begin());
      if (fc.running(id)) stop_checked(id);
    }
  };

  auto checkpoint = [&]() {
    for (int i = 0; i < nf; ++i) {
      const sched::ApplicationScheduler& s = fc.scheduler(i);
      auto& mark = conservation_watermark[static_cast<std::size_t>(i)];
      for (int id = std::max(mark, s.first_live_id()); id < s.num_apps();
           ++id) {
        const sched::AppRecord& a = s.app(id);
        if (a.state == sched::AppState::kQueued || a.running()) break;
        if (a.state != sched::AppState::kRejected) {
          check_word_conservation(a, res.invariants);
        }
        mark = id + 1;
      }
    }
    fc.retire_terminal();
    for (int i = 0; i < nf; ++i) {
      check_resource_ledger(fc.scheduler(i), res.invariants);
      check_accounting(fc.scheduler(i), res.invariants);
      util_sum[static_cast<std::size_t>(i)] +=
          fc.scheduler(i).fabric_utilization();
      ++res.invariants.checks_run;
      const sim::Cycles c = fc.system(i).system_clock().cycle_count();
      if (c < last_cycle[static_cast<std::size_t>(i)]) {
        res.invariants.fail("fabric " + fc.fabric_name(i) +
                            ": clock went backwards");
      }
      last_cycle[static_cast<std::size_t>(i)] = c;
    }
    ++res.invariants.checks_run;
    const sim::Cycles fleet_now = fc.now();
    if (clock_seen && fleet_now <= last_fleet_now) {
      res.invariants.fail("fleet time stalled at " +
                          std::to_string(fleet_now) +
                          " cycles across a checkpoint interval");
    }
    last_fleet_now = fleet_now;
    clock_seen = true;
    ++util_samples;
    // Prove the journal still replays to the live view, then snapshot
    // it away so retained depth stays bounded by the checkpoint
    // interval regardless of run length.
    ++res.invariants.checks_run;
    ++res.replay_checks;
    if (fc.statedb().replayed_view_digest() != fc.statedb().view_digest()) {
      res.invariants.fail(
          "journal replay diverged from the live view at checkpoint "
          "(version " +
          std::to_string(fc.statedb().version()) + ")");
    }
    fc.truncate_journal();
  };

  sim::FaultInjector& injector = sim::FaultInjector::instance();
  StormGuard storm_guard;
  bool storm_on = false;

  std::size_t last_phase = static_cast<std::size_t>(-1);
  while (std::optional<WorkloadEvent> ev = gen.next()) {
    const Phase& ph = gen.spec().phases[ev->phase_index];
    if (opt.verbose && ev->phase_index != last_phase) {
      std::printf("fleet soak: phase '%s' (%llu submissions)\n",
                  ph.name.c_str(),
                  static_cast<unsigned long long>(ph.submissions));
      last_phase = ev->phase_index;
    }

    // Fault-storm phases drive the ICAP corruption site fleet-wide (the
    // reconfig layer self-heals; the health monitor sees the retry and
    // recovery rates climb).
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

    fc.advance_to(ev->at_cycle);
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
    fold(res.digest, static_cast<std::uint64_t>(ev->tenant));
    fold(res.digest, ev->migrate ? 1u : 0u);

    maybe_schedule_kill();
    const std::string tenant = "t" + std::to_string(ev->tenant);
    const fleet::RouteDecision d = fc.submit(tenant, ev->request);
    absorb_restarts();
    fold(res.digest, d.admitted ? 1u : 0u);
    fold(res.digest, static_cast<std::uint64_t>(d.fabric + 1));
    fold(res.digest, static_cast<std::uint64_t>(d.verdict));
    fold(res.digest, d.quota_limited ? 1u : 0u);
    if (d.admitted) {
      departures.emplace(fc.now() + ev->hold_cycles, d.fleet_id);
      // Route-order tail latency: first-choice admissions vs apps that
      // only landed through a fallback attempt, per hosting fabric.
      const sched::AppRecord& rec = fc.record_of(d.fleet_id);
      const bool first_choice = !d.order.empty() && d.order.front() == d.fabric;
      obs::Registry::instance()
          .histogram(route_hist_name(fc.fabric_name(d.fabric), first_choice))
          .record(rec.launched_at - rec.submitted_at);
    }

    // Arm gap statistics per app incarnation: fresh launches and
    // migration re-launches both land on a (possibly reused) sink
    // channel whose gap window must start now.
    for (auto it = gap_armed.begin(); it != gap_armed.end();) {
      it = fc.running(it->first) ? std::next(it) : gap_armed.erase(it);
    }
    auto arm_running = [&]() {
      for (const int rid : fc.running_ids()) {
        const fleet::FleetAppId loc = *fc.locate(rid);
        const auto it = gap_armed.find(rid);
        if (it != gap_armed.end() && it->second.fabric == loc.fabric &&
            it->second.app == loc.app) {
          continue;
        }
        const sched::AppRecord& a = fc.record_of(rid);
        fc.system(loc.fabric).rsb(0).iom(a.sink.iom).reset_gap_stats(
            a.sink.channel);
        gap_armed[rid] = loc;
      }
    };
    arm_running();

    // Migration churn: move the oldest app off the busiest fabric onto
    // the least-utilized other fabric. Deterministic picks (ties to the
    // lowest fabric index), probe-first so hopeless moves are skipped.
    if (ev->migrate && nf > 1) {
      int src = 0;
      for (int i = 1; i < nf; ++i) {
        if (fc.running_on(i) > fc.running_on(src)) src = i;
      }
      int victim = -1;
      for (const int rid : fc.running_ids()) {
        if (fc.locate(rid)->fabric == src) {
          victim = rid;
          break;
        }
      }
      if (victim >= 0) {
        int dst = -1;
        for (int i = 0; i < nf; ++i) {
          if (i == src) continue;
          if (dst < 0 || fc.scheduler(i).fabric_utilization() <
                             fc.scheduler(dst).fabric_utilization()) {
            dst = i;
          }
        }
        const fleet::MigrateResult mr = fc.migrate(victim, dst);
        absorb_restarts();
        ++res.migrations_attempted;
        fold(res.digest, static_cast<std::uint64_t>(victim));
        fold(res.digest, static_cast<std::uint64_t>(mr.outcome));
        arm_running();  // a moved app streams on a new sink channel
      }
    }

    if (ev->churn_stop) {
      const std::vector<int> running = fc.running_ids();
      if (!running.empty()) {
        stop_checked(running.front());
        ++res.churn_stops;
      }
    }

    // Health tick: refresh signal gauges, freeze the sampler window,
    // and let the HealthAgent evaluate + remediate. Trips fold into the
    // digest, so remediation itself is part of the determinism gate.
    if (fc.health_enabled() && opt.health_tick_every > 0 &&
        (ev->sequence + 1) % opt.health_tick_every == 0) {
      const auto t0 = std::chrono::steady_clock::now();
      const std::uint64_t tripped = fc.health_tick();
      res.health_wall_seconds +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        t0)
              .count();
      absorb_restarts();
      fold(res.digest, tripped);
      fold(res.digest,
           static_cast<std::uint64_t>(fc.statedb().available_fabrics()));
    }

    if ((ev->sequence + 1) % opt.checkpoint_interval == 0) checkpoint();
  }

  // The storm ends with its phase's last submission; disarm before the
  // multi-M-cycle drain advances.
  if (storm_on) {
    injector.disable();
    storm_on = false;
  }

  // Drain: advance the fleet to each remaining departure.
  while (!departures.empty()) {
    const sim::Cycles next = departures.begin()->first;
    if (next > fc.now()) fc.advance_to(next);
    stop_departed();
  }
  for (const int id : fc.running_ids()) stop_checked(id);
  checkpoint();

  // Black-box: any invariant violation leaves a postmortem bundle when
  // the recorder is armed (SLO breaches already recorded theirs inside
  // health_tick()).
  if (!res.invariants.ok()) {
    fc.record_flight("fleet_invariant_failure");
  }

  const fleet::ControlPlane::Counters& c = fc.counters();
  res.submitted = c.submissions;
  res.admitted = c.admitted;
  res.rejected = c.rejected;
  res.quota_rejected = c.quota_rejected;
  res.route_fallbacks = c.fallbacks;
  res.migrations_moved = c.migrations_moved;
  res.migrations_rolled_back = c.migrations_rolled_back;
  res.migrations_skipped = c.migrations_skipped;
  res.migrations_lost = c.migrations_lost;
  res.quota_preemptions = c.quota_preemptions;
  res.quota_grows = fc.governor().grows();
  res.quota_shrinks = fc.governor().shrinks();
  res.agent_kills = fc.agent_restarts();
  res.health_ticks = fc.health_ticks();
  res.breaches = c.breaches_tripped;
  res.breaches_cleared = c.breaches_cleared;
  res.isolations = c.isolations;
  res.unisolations = c.unisolations;
  res.drains = c.drains_started;
  res.flight_bundles = fc.flight_bundles();
  res.faults_injected =
      injector.injected(sim::FaultSite::kIcapBitstreamCorruption);
  res.lifetimes_completed =
      res.submitted - static_cast<std::uint64_t>(fc.running_ids().size());
  res.final_cycle = fc.now();

  res.fabric_mean_utilization.resize(static_cast<std::size_t>(nf), 0.0);
  for (int i = 0; i < nf; ++i) {
    res.fabric_mean_utilization[static_cast<std::size_t>(i)] =
        util_samples > 0
            ? util_sum[static_cast<std::size_t>(i)] /
                  static_cast<double>(util_samples)
            : 0.0;
  }

  // One percentile implementation fleet-wide: Registry::summary routes
  // through obs::summarize (docs/OBSERVABILITY.md).
  for (int i = 0; i < nf; ++i) {
    const obs::HistogramSummary first = obs::Registry::instance().summary(
        route_hist_name(fc.fabric_name(i), true));
    const obs::HistogramSummary fb = obs::Registry::instance().summary(
        route_hist_name(fc.fabric_name(i), false));
    RouteLatency rl;
    rl.fabric = fc.fabric_name(i);
    rl.first_count = first.count;
    rl.first_p50 = first.p50;
    rl.first_p99 = first.p99;
    rl.fallback_count = fb.count;
    rl.fallback_p50 = fb.p50;
    rl.fallback_p99 = fb.p99;
    res.route_latency.push_back(rl);
  }

  const obs::HistogramSummary lat =
      obs::Registry::instance().summary("sched.submit_to_launch.cycles");
  res.p50_submit_to_launch = lat.p50;
  res.p99_submit_to_launch = lat.p99;

  res.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  res.lifetimes_per_second =
      res.wall_seconds > 0.0
          ? static_cast<double>(res.lifetimes_completed) / res.wall_seconds
          : 0.0;
  return res;
}

}  // namespace vapres::load
