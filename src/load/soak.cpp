#include "load/soak.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <type_traits>
#include <vector>

#include "fleet/controlplane.hpp"
#include "load/fleet_soak.hpp"
#include "obs/metrics.hpp"
#include "sched/scheduler.hpp"
#include "sim/fault.hpp"
#include "sim/random.hpp"
#include "snap/format.hpp"
#include "snap/system_snapshot.hpp"

namespace vapres::load {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Caps every sink channel's received-word history (a soak run must, or
/// sink histories grow with total words streamed).
void cap_sink_history(core::VapresSystem& sys) {
  core::Rsb& rsb = sys.rsb(0);
  for (int i = 0; i < rsb.num_ioms(); ++i) {
    rsb.iom(i).set_received_history_limit(kHistoryLimitWords);
  }
}

std::string route_hist_name(const std::string& fabric, bool first_choice) {
  return "fleet.route." + fabric +
         (first_choice ? ".first.cycles" : ".fallback.cycles");
}

/// The soak event loop, written once for both entry points; a target
/// (one system + scheduler, or a ControlPlane) supplies what differs
/// through the hooks. App ids are the target's (local scheduler ids, or
/// fleet ids); locate() maps one to the (fabric, local id) hosting it
/// now.
class SoakLoop {
 public:
  void run(const char* label, bool verbose,
           std::uint64_t checkpoint_interval) {
    sim::FaultInjector& injector = sim::FaultInjector::instance();
    // The FaultInjector is process-global; never leak an enabled storm
    // into whatever runs after the soak (other tests in the same binary).
    struct StormGuard {
      ~StormGuard() { sim::FaultInjector::instance().disable(); }
    } storm_guard;

    bool crashed = false;
    while (std::optional<WorkloadEvent> ev = gen_.next()) {
      const Phase& ph = gen_.spec().phases[ev->phase_index];
      if (verbose && ev->phase_index != last_phase_) {
        std::printf("%s: phase '%s' (%llu submissions)\n", label,
                    ph.name.c_str(),
                    static_cast<unsigned long long>(ph.submissions));
        last_phase_ = ev->phase_index;
      }

      // Fault-storm phases drive the ICAP corruption site on every
      // fabric; the reconfig layer self-heals, so streams stay checkable
      // through the storm.
      const bool want_storm = ph.icap_fault_probability > 0.0;
      if (want_storm && !storm_on_) {
        injector.enable(gen_.spec().seed ^ 0x5107A1C0FFEEULL);
        injector.set_probability(sim::FaultSite::kIcapBitstreamCorruption,
                                 ph.icap_fault_probability);
      } else if (!want_storm && storm_on_) {
        injector.disable();
      }
      storm_on_ = want_storm;

      // Advance to the arrival instant (admission work may already have
      // pushed the clock past slow-phase gaps), then free whatever
      // tenants departed in the meantime.
      advance_to(ev->at_cycle);
      stop_departed();

      fold(ev->sequence);
      fold(ev->at_cycle);
      fold(static_cast<std::uint64_t>(ev->class_index));
      fold(static_cast<std::uint64_t>(ev->request.priority));
      fold(static_cast<std::uint64_t>(ev->request.source_interval_cycles));
      fold(ev->request.source_words);
      fold(ev->hold_cycles);
      fold(ev->churn_stop ? 1u : 0u);

      // Departure schedule: launch + the event's resident hold. Apps sit
      // quiescent on the fabric (holding PRRs and IOM channels) until
      // their hold expires — that residency makes arrivals contend.
      const int id = submit(*ev);
      if (id >= 0) departures_.emplace(now() + ev->hold_cycles, id);

      arm_gaps();
      if (migrate(*ev)) arm_gaps();

      // Adversarial churn: tear down the oldest runner right as fresh
      // work lands.
      if (ev->churn_stop) {
        const std::vector<int> ids = running_ids();
        if (!ids.empty()) {
          stop_checked(ids.front());
          ++res_.churn_stops;
        }
      }

      tick(*ev);
      if ((ev->sequence + 1) % checkpoint_interval == 0) sweep();
      if (checkpoint(ev->sequence + 1)) {
        crashed = true;
        break;
      }
    }

    // The storm ends with its phase's last submission; disarm before the
    // drain so the switch boxes may sleep through the multi-M-cycle
    // advances to the remaining departures.
    if (storm_on_) injector.disable();
    storm_on_ = false;
    if (!crashed) {
      while (!departures_.empty()) {
        const sim::Cycles next = departures_.begin()->first;
        if (next > now()) advance_to(next);
        stop_departed();
      }
      for (const int id : running_ids()) stop_checked(id);
      sweep();
    }

    finish();
    res_.lifetimes_completed =
        res_.submitted - static_cast<std::uint64_t>(running_ids().size());
    res_.faults_injected =
        injector.injected(sim::FaultSite::kIcapBitstreamCorruption);
    res_.final_cycle = now();
    // One percentile implementation fleet-wide: Registry::summary routes
    // through obs::summarize (docs/OBSERVABILITY.md).
    const obs::HistogramSummary lat =
        obs::Registry::instance().summary("sched.submit_to_launch.cycles");
    res_.p50_submit_to_launch = lat.p50;
    res_.p99_submit_to_launch = lat.p99;
    res_.wall_seconds = seconds_since(wall_start_);
    res_.lifetimes_per_second =
        res_.wall_seconds > 0.0
            ? static_cast<double>(res_.lifetimes_completed) / res_.wall_seconds
            : 0.0;
  }

 protected:
  SoakLoop(SoakTotals& res, ScenarioSpec spec, std::uint64_t seed,
           int num_fabrics)
      : res_(res),
        gen_([&] {
          spec.seed = seed;
          return std::move(spec);
        }()),
        watermark_(static_cast<std::size_t>(num_fabrics), 0) {
    res_.digest = snap::kFnvOffset;
  }
  ~SoakLoop() = default;

  virtual core::VapresSystem& system(int fabric) = 0;
  virtual const sched::ApplicationScheduler& scheduler(int fabric) const = 0;
  virtual sim::Cycles now() const = 0;
  virtual void advance_to(sim::Cycles cycle) = 0;
  virtual bool running(int id) const = 0;
  virtual std::vector<int> running_ids() const = 0;
  virtual fleet::FleetAppId locate(int id) const = 0;
  virtual void stop(int id) = 0;
  virtual void retire_terminal() = 0;
  /// Submits the event and folds the outcome; returns the id whose
  /// departure to schedule, or -1 when nothing launched.
  virtual int submit(const WorkloadEvent& ev) = 0;
  /// Migration churn; true when an app moved (its gaps re-arm).
  virtual bool migrate(const WorkloadEvent& /*ev*/) { return false; }
  /// Periodic per-event work ahead of the checkpoint sweep.
  virtual void tick(const WorkloadEvent& /*ev*/) {}
  /// The target's own checks, at the end of every sweep.
  virtual void observe() = 0;
  /// Runs after every event; true ends the run right there (a simulated
  /// crash: no drain, partial totals).
  virtual bool checkpoint(std::uint64_t /*processed*/) { return false; }
  /// Fills the target's result fields, submitted/admitted/rejected too.
  virtual void finish() = 0;

  void fold(std::uint64_t v) { snap::fnv1a_u64(res_.digest, v); }

  const Clock::time_point wall_start_ = Clock::now();  // setup included
  SoakTotals& res_;
  ScenarioGenerator gen_;
  // Per fabric, the oldest id whose terminal word counts were not yet
  // conservation checked; records behind a long-running app get swept
  // once.
  std::vector<int> watermark_;
  std::multimap<sim::Cycles, int> departures_;  // departure cycle -> id
  // Id -> the incarnation whose sink gap statistics were reset: gap
  // numbers must not inherit the channel's previous tenant, and a
  // migration re-launches on a new channel.
  std::map<int, fleet::FleetAppId> gap_armed_;
  bool storm_on_ = false;
  std::size_t last_phase_ = static_cast<std::size_t>(-1);

 private:
  // Reads the live sink gap while the app's channel is still routed,
  // then stops the app.
  void stop_checked(int id) {
    const fleet::FleetAppId at = locate(id);
    const sched::AppRecord& a = scheduler(at.fabric).app(at.app);
    check_stream_gap(a.request.name,
                     system(at.fabric).rsb(0).iom(a.sink.iom).max_output_gap(
                         a.sink.channel),
                     kGapBoundCycles, res_.invariants);
    stop(id);
    const sched::AppRecord& done = scheduler(at.fabric).app(at.app);
    fold(static_cast<std::uint64_t>(id));
    fold(done.final_words_in);
    fold(done.final_words_out);
    gap_armed_.erase(id);
  }

  // Entries for apps already torn down (preempted, churned) are dropped.
  void stop_departed() {
    const sim::Cycles t = now();
    while (!departures_.empty() && departures_.begin()->first <= t) {
      const int id = departures_.begin()->second;
      departures_.erase(departures_.begin());
      if (running(id)) stop_checked(id);
    }
  }

  // Fresh launches and migration re-launches both land on a (possibly
  // reused) sink channel whose gap window must start now.
  void arm_gaps() {
    for (auto it = gap_armed_.begin(); it != gap_armed_.end();) {
      it = running(it->first) ? std::next(it) : gap_armed_.erase(it);
    }
    for (const int id : running_ids()) {
      const fleet::FleetAppId at = locate(id);
      const auto armed = gap_armed_.find(id);
      if (armed != gap_armed_.end() && armed->second.fabric == at.fabric &&
          armed->second.app == at.app) {
        continue;
      }
      const sched::AppRecord& a = scheduler(at.fabric).app(at.app);
      system(at.fabric).rsb(0).iom(a.sink.iom).reset_gap_stats(
          a.sink.channel);
      gap_armed_[id] = at;
    }
  }

  void sweep() {
    // Conservation for records that went terminal since the last sweep
    // (reaped, churned, or preempted by the scheduler itself).
    const int nf = static_cast<int>(watermark_.size());
    for (int f = 0; f < nf; ++f) {
      const sched::ApplicationScheduler& s = scheduler(f);
      int& mark = watermark_[static_cast<std::size_t>(f)];
      for (int id = std::max(mark, s.first_live_id()); id < s.num_apps();
           ++id) {
        const sched::AppRecord& a = s.app(id);
        if (a.state == sched::AppState::kQueued || a.running()) break;
        if (a.state != sched::AppState::kRejected) {
          check_word_conservation(a, res_.invariants);
        }
        mark = id + 1;
      }
    }
    retire_terminal();
    for (int f = 0; f < nf; ++f) {
      check_resource_ledger(scheduler(f), res_.invariants);
      check_accounting(scheduler(f), res_.invariants);
    }
    observe();
  }
};

/// One VapresSystem + scheduler (run_soak): local app ids, the (id,
/// verdict) fold, MonotoneClockCheck and RSS samples, and the
/// "soakharness" checkpoint/resume blob.
class SystemSoak final : public SoakLoop {
 public:
  SystemSoak(const SoakOptions& opt, SoakResult& res)
      : SoakLoop(res,
                 opt.scenario
                     ? *opt.scenario
                     : ScenarioSpec::standard(opt.seed, opt.lifetimes),
                 opt.seed, 1),
        opt_(opt),
        out_(res) {
    if (!opt.resume_from.empty()) {
      // Resume: restore the system + scheduler from the embedded snapshot
      // (which also rewinds the metrics registry and the fault injector)
      // and the harness cursors, so the run continues where it stopped.
      const snap::SnapshotReader r(opt.resume_from);
      r.open_section("soakharness");
      std::string sys_blob;
      harness_fields(r, sys_blob);
      sys_ = snap::SystemSnapshot::restore_system(sys_blob, server_params());
      sched_ = snap::SystemSnapshot::restore_scheduler(sys_blob, *sys_);
      return;
    }
    // Per-run latency percentiles need a clean histogram; registrations
    // survive, values zero.
    obs::Registry::instance().reset();
    sys_ = std::make_unique<core::VapresSystem>(server_params());
    sys_->bring_up_all_sites();
    cap_sink_history(*sys_);
    sched_ = std::make_unique<sched::ApplicationScheduler>(*sys_);
  }

 private:
  core::VapresSystem& system(int) override { return *sys_; }
  const sched::ApplicationScheduler& scheduler(int) const override {
    return *sched_;
  }
  sim::Cycles now() const override {
    return sys_->system_clock().cycle_count();
  }
  void advance_to(sim::Cycles cycle) override {
    if (cycle > now()) sys_->run_system_cycles(cycle - now());
  }
  bool running(int id) const override {
    return id >= sched_->first_live_id() && sched_->app(id).running();
  }
  std::vector<int> running_ids() const override {
    return sched_->running_apps();
  }
  fleet::FleetAppId locate(int id) const override { return {0, id}; }
  void stop(int id) override { sched_->stop(id); }
  void retire_terminal() override { sched_->retire_terminal(); }

  int submit(const WorkloadEvent& ev) override {
    const int id = sched_->submit(ev.request);
    sched_->run_admission();
    fold(static_cast<std::uint64_t>(id));
    fold(static_cast<std::uint64_t>(sched_->app(id).verdict));
    return sched_->app(id).running() ? id : -1;
  }

  void observe() override {
    clock_check_.observe(*sys_, res_.invariants);
    const std::uint64_t rss = read_rss_kb();
    rss_samples_.push_back(rss);
    out_.rss_kb_peak = std::max(out_.rss_kb_peak, rss);
  }

  // Full-system checkpoint: reach the cold-snapshot barrier (drain any
  // in-flight reconfiguration and prefetch staging), then wrap the
  // system+scheduler snapshot with the harness cursors. The barrier's
  // cycle advance is absorbed by the next event's absolute-cycle
  // arrival, and departed-but-unstopped tenants stay on the schedule, so
  // a resumed run replays the uninterrupted run's stream and digest.
  bool checkpoint(std::uint64_t processed) override {
    const bool named = opt_.snapshot_at > 0 && processed == opt_.snapshot_at;
    if (!named &&
        (opt_.snapshot_every == 0 || processed % opt_.snapshot_every != 0)) {
      return false;
    }
    const Clock::time_point t0 = Clock::now();
    sys_->drain_transfer_path();
    while (sys_->prefetch().pending() > 0 || sys_->prefetch().staging()) {
      sys_->run_system_cycles(64);
    }
    std::string sys_blob =
        snap::SystemSnapshot::save(*sys_, processed, sched_.get());
    snap::SnapshotWriter w(processed);
    w.begin_section("soakharness");
    harness_fields(w, sys_blob);
    w.end_section();
    std::string blob = w.finish();
    ++out_.snapshots_taken;
    out_.checkpoint_wall_seconds += seconds_since(t0);
    if (opt_.snapshot_out != nullptr) *opt_.snapshot_out = std::move(blob);
    return named;
  }

  void finish() override {
    const core::SchedulerAccounting acc = sched_->accounting();
    out_.submitted = static_cast<std::uint64_t>(acc.submitted);
    out_.admitted = static_cast<std::uint64_t>(acc.admitted);
    out_.rejected = static_cast<std::uint64_t>(acc.rejected);
    out_.preemptions = static_cast<std::uint64_t>(acc.preemptions);
    out_.defrag_migrations =
        static_cast<std::uint64_t>(acc.defrag_migrations);
    out_.fault_opportunities = sim::FaultInjector::instance().opportunities(
        sim::FaultSite::kIcapBitstreamCorruption);
    if (!rss_samples_.empty()) {
      out_.rss_kb_start = rss_samples_.front();
      out_.rss_kb_mid = rss_samples_[rss_samples_.size() / 2];
      out_.rss_kb_end = rss_samples_.back();
    }
  }

  // The harness cursors of a checkpoint blob's "soakharness" section, in
  // blob order: one field list for checkpoint (SnapshotWriter) and
  // resume (SnapshotReader), wrapping the system+scheduler snapshot.
  template <class Archive>
  void harness_fields(Archive& ar, std::string& sys_blob) {
    gen_.fields(ar);
    ar.u64(res_.digest);
    ar.u64(res_.churn_stops);
    ar.i64(watermark_[0]);
    ar.boolean(storm_on_);
    ar.u64(last_phase_);
    clock_check_.fields(ar);
    ar.u64(res_.invariants.checks_run);
    ar.list(res_.invariants.violations, 4, [&](auto& v) { ar.str(v); });
    ar.entries(departures_, 16, [&](auto& at, auto& id) {
      ar.u64(at);
      ar.i64(id);
    });
    std::vector<int> armed;
    for (const auto& entry : gap_armed_) armed.push_back(entry.first);
    ar.list(armed, 8, [&](auto& id) { ar.i64(id); });
    if constexpr (std::decay_t<Archive>::kLoading) {
      for (const int id : armed) gap_armed_[id] = {0, id};
    }
    ar.str(sys_blob);
  }

  const SoakOptions& opt_;
  SoakResult& out_;
  std::unique_ptr<core::VapresSystem> sys_;
  std::unique_ptr<sched::ApplicationScheduler> sched_;
  MonotoneClockCheck clock_check_;
  std::vector<std::uint64_t> rss_samples_;
};

/// One ControlPlane (run_fleet_soak): fleet ids and the tenant /
/// migrate / route fold, crash churn with restart absorption, migration
/// churn, health ticks, the journal replay check and truncation, and
/// per-fabric clocks, utilization and route-latency histograms.
class FleetSoak final : public SoakLoop {
 public:
  FleetSoak(const FleetSoakOptions& opt, const fleet::FleetSpec& spec,
            FleetSoakResult& res)
      : SoakLoop(res,
                 opt.scenario ? *opt.scenario
                              : ScenarioSpec::standard_fleet(
                                    opt.seed, opt.lifetimes, opt.num_tenants,
                                    static_cast<int>(spec.fabrics.size())),
                 opt.seed, static_cast<int>(spec.fabrics.size())),
        opt_(opt),
        out_(res),
        fc_(spec),
        nf_(fc_.num_fabrics()),
        kill_rng_(opt.seed ^ 0xc5a5ce55c5a5ce55ULL),
        last_cycle_(static_cast<std::size_t>(nf_), 0),
        util_sum_(static_cast<std::size_t>(nf_), 0.0) {
    if (!opt.flight_dir.empty()) fc_.set_flight_dir(opt.flight_dir);
    for (int i = 0; i < nf_; ++i) cap_sink_history(fc_.system(i));
  }

 private:
  core::VapresSystem& system(int fabric) override {
    return fc_.system(fabric);
  }
  const sched::ApplicationScheduler& scheduler(int fabric) const override {
    return fc_.scheduler(fabric);
  }
  sim::Cycles now() const override { return fc_.now(); }
  void advance_to(sim::Cycles cycle) override { fc_.advance_to(cycle); }
  bool running(int id) const override { return fc_.running(id); }
  std::vector<int> running_ids() const override { return fc_.running_ids(); }
  fleet::FleetAppId locate(int id) const override { return *fc_.locate(id); }
  void stop(int id) override { fc_.stop(id); }
  void retire_terminal() override { fc_.retire_terminal(); }

  int submit(const WorkloadEvent& ev) override {
    fold(static_cast<std::uint64_t>(ev.tenant));
    fold(ev.migrate ? 1u : 0u);
    schedule_kill();
    const fleet::RouteDecision d =
        fc_.submit("t" + std::to_string(ev.tenant), ev.request);
    absorb_restarts();
    fold(d.admitted ? 1u : 0u);
    fold(static_cast<std::uint64_t>(d.fabric + 1));
    fold(static_cast<std::uint64_t>(d.verdict));
    fold(d.quota_limited ? 1u : 0u);
    if (!d.admitted) return -1;
    // Route-order tail latency: first-choice admissions vs apps that
    // only landed through a fallback attempt, per hosting fabric.
    const sched::AppRecord& rec = fc_.record_of(d.fleet_id);
    const bool first_choice = !d.order.empty() && d.order.front() == d.fabric;
    obs::Registry::instance()
        .histogram(route_hist_name(fc_.fabric_name(d.fabric), first_choice))
        .record(rec.launched_at - rec.submitted_at);
    return d.fleet_id;
  }

  // Moves the oldest app off the busiest fabric onto the least-utilized
  // other fabric. Deterministic picks (ties to the lowest fabric index),
  // probe-first so hopeless moves are skipped.
  bool migrate(const WorkloadEvent& ev) override {
    if (!ev.migrate || nf_ < 2) return false;
    int src = 0;
    for (int i = 1; i < nf_; ++i) {
      if (fc_.running_on(i) > fc_.running_on(src)) src = i;
    }
    const std::vector<int> ids = fc_.running_ids();
    const auto oldest = std::find_if(ids.begin(), ids.end(), [&](int id) {
      return fc_.locate(id)->fabric == src;
    });
    if (oldest == ids.end()) return false;
    const int victim = *oldest;
    int dst = -1;
    for (int i = 0; i < nf_; ++i) {
      if (i == src) continue;
      if (dst < 0 || fc_.scheduler(i).fabric_utilization() <
                         fc_.scheduler(dst).fabric_utilization()) {
        dst = i;
      }
    }
    const fleet::MigrateResult mr = fc_.migrate(victim, dst);
    absorb_restarts();
    ++out_.migrations_attempted;
    fold(static_cast<std::uint64_t>(victim));
    fold(static_cast<std::uint64_t>(mr.outcome));
    return true;
  }

  // Health tick: refresh signal gauges, freeze the sampler window, and
  // let the HealthAgent evaluate + remediate. Trips fold into the
  // digest, so remediation itself is part of the determinism gate.
  void tick(const WorkloadEvent& ev) override {
    if (!fc_.health_enabled() || opt_.health_tick_every == 0 ||
        (ev.sequence + 1) % opt_.health_tick_every != 0) {
      return;
    }
    const Clock::time_point t0 = Clock::now();
    const std::uint64_t tripped = fc_.health_tick();
    out_.health_wall_seconds += seconds_since(t0);
    absorb_restarts();
    fold(tripped);
    fold(static_cast<std::uint64_t>(fc_.statedb().available_fabrics()));
  }

  // Per-fabric clock monotonicity + fleet-time progress (a fabric pushed
  // ahead by admission work may legally idle through a whole checkpoint
  // interval while arrivals land on the others, so the single-system
  // MonotoneClockCheck would misfire), then the journal replay check.
  void observe() override {
    for (int i = 0; i < nf_; ++i) {
      const auto fi = static_cast<std::size_t>(i);
      util_sum_[fi] += fc_.scheduler(i).fabric_utilization();
      ++res_.invariants.checks_run;
      const sim::Cycles c = fc_.system(i).system_clock().cycle_count();
      if (c < last_cycle_[fi]) {
        res_.invariants.fail("fabric " + fc_.fabric_name(i) +
                             ": clock went backwards");
      }
      last_cycle_[fi] = c;
    }
    ++res_.invariants.checks_run;
    const sim::Cycles fleet_now = fc_.now();
    if (clock_seen_ && fleet_now <= last_fleet_now_) {
      res_.invariants.fail("fleet time stalled at " +
                           std::to_string(fleet_now) +
                           " cycles across a checkpoint interval");
    }
    last_fleet_now_ = fleet_now;
    clock_seen_ = true;
    ++util_samples_;
    // Snapshot the journal away once it replays clean, so retained depth
    // stays bounded by the checkpoint interval regardless of run length.
    check_replay("at checkpoint");
    fc_.truncate_journal();
  }

  void finish() override {
    // Black-box: any invariant violation leaves a postmortem bundle when
    // the recorder is armed (SLO breaches already recorded theirs inside
    // health_tick()).
    if (!out_.ok()) fc_.record_flight("fleet_invariant_failure");
    const fleet::ControlPlane::Counters& c = fc_.counters();
    out_.submitted = c.submissions;
    out_.admitted = c.admitted;
    out_.rejected = c.rejected;
    out_.quota_rejected = c.quota_rejected;
    out_.route_fallbacks = c.fallbacks;
    out_.migrations_moved = c.migrations_moved;
    out_.migrations_rolled_back = c.migrations_rolled_back;
    out_.migrations_skipped = c.migrations_skipped;
    out_.migrations_lost = c.migrations_lost;
    out_.quota_preemptions = c.quota_preemptions;
    out_.quota_grows = fc_.governor().grows();
    out_.quota_shrinks = fc_.governor().shrinks();
    out_.agent_kills = fc_.agent_restarts();
    out_.health_ticks = fc_.health_ticks();
    out_.breaches = c.breaches_tripped;
    out_.breaches_cleared = c.breaches_cleared;
    out_.isolations = c.isolations;
    out_.unisolations = c.unisolations;
    out_.drains = c.drains_started;
    out_.flight_bundles = fc_.flight_bundles();
    for (int i = 0; i < nf_; ++i) {
      out_.fabric_mean_utilization.push_back(
          util_samples_ > 0 ? util_sum_[static_cast<std::size_t>(i)] /
                                  static_cast<double>(util_samples_)
                            : 0.0);
      const std::string& name = fc_.fabric_name(i);
      const obs::HistogramSummary first =
          obs::Registry::instance().summary(route_hist_name(name, true));
      const obs::HistogramSummary fb =
          obs::Registry::instance().summary(route_hist_name(name, false));
      out_.route_latency.push_back({name, first.count, first.p50, first.p99,
                                    fb.count, fb.p50, fb.p99});
    }
  }

  // Every crash_churn_every routed submissions, schedules a kill of one
  // random agent a few journal versions ahead; the draws fold into the
  // digest.
  void schedule_kill() {
    if (opt_.crash_churn_every == 0) return;
    if (++since_kill_ < opt_.crash_churn_every) return;
    since_kill_ = 0;
    // With the health monitor enabled it joins the kill lottery; the
    // modulus stays 3 + nf otherwise so monitor-off baselines keep their
    // historical kill draws.
    static constexpr fleet::AgentId kNamed[] = {
        fleet::AgentId::kRouter, fleet::AgentId::kQuota,
        fleet::AgentId::kMigration, fleet::AgentId::kHealth};
    const int named = fc_.health_enabled() ? 4 : 3;
    const std::uint64_t pick =
        kill_rng_.next() % static_cast<std::uint64_t>(named + nf_);
    const int p = static_cast<int>(pick);
    const fleet::AgentId agent =
        p < named ? kNamed[p] : fleet::fabric_agent_id(p - named);
    const std::uint64_t offset = 1 + kill_rng_.next() % 8;
    fc_.schedule_kill(agent, fc_.statedb().version() + offset);
    fold(pick);
    fold(offset);
  }

  // After any restart fired mid-pump, proves the restarted plane
  // reconverged: the table-vs-scheduler sweep is clean on every fabric
  // and replaying the retained journal reproduces the live view.
  void absorb_restarts() {
    const std::uint64_t r = fc_.agent_restarts();
    if (r == seen_restarts_) return;
    seen_restarts_ = r;
    ++res_.invariants.checks_run;
    for (const std::string& v : fc_.reconcile()) {
      ++out_.reconcile_violations;
      res_.invariants.fail("post-restart reconcile: " + v);
    }
    check_replay("after an agent restart");
  }

  void check_replay(const char* when) {
    ++res_.invariants.checks_run;
    ++out_.replay_checks;
    if (fc_.statedb().replayed_view_digest() != fc_.statedb().view_digest()) {
      res_.invariants.fail(
          std::string("journal replay diverged from the live view ") + when +
          " (version " + std::to_string(fc_.statedb().version()) + ")");
    }
  }

  const FleetSoakOptions& opt_;
  FleetSoakResult& out_;
  fleet::ControlPlane fc_;
  const int nf_;
  // Crash churn draws come from a dedicated stream, never shared with
  // the workload generator.
  sim::SplitMix64 kill_rng_;
  std::uint64_t since_kill_ = 0;
  std::uint64_t seen_restarts_ = 0;
  std::vector<sim::Cycles> last_cycle_;
  sim::Cycles last_fleet_now_ = 0;
  bool clock_seen_ = false;
  std::vector<double> util_sum_;
  std::uint64_t util_samples_ = 0;
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

SoakResult run_soak(const SoakOptions& opt) {
  SoakResult res;
  SystemSoak(opt, res).run("soak", opt.verbose, opt.checkpoint_interval);
  return res;
}

FleetSoakResult run_fleet_soak(const FleetSoakOptions& opt) {
  FleetSoakResult res;
  // Per-run latency percentiles need a clean histogram; registrations
  // survive, values zero.
  obs::Registry::instance().reset();
  FleetSoak(opt, opt.fleet ? *opt.fleet : fleet::FleetSpec::uniform(2), res)
      .run("fleet soak", opt.verbose, opt.checkpoint_interval);
  return res;
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

}  // namespace vapres::load
