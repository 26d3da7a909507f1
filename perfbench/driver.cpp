// Benchmark driver: runs one named workload through the public APIs and
// prints one JSON result line.
//
//   inputs      load::ScenarioGenerator, seeded from --seed
//   execution   sched::ApplicationScheduler over one core::VapresSystem
//               (soak) or fleet::ControlPlane (fleet, storm)
//   checks      load/invariants.hpp sweeps, zero lost apps, every
//               lifetime terminal, digest and exact work counters equal
//               across repeats, driver parity with load::run_soak /
//               load::run_fleet_soak
//
// A workload is a fixed set of scenarios, each from a sub-seed of --seed.
// One run repeats the set (a cycle) for about --seconds of host time.
// With --trace 1 the cycles alternate untraced and traced; the traced
// ones record a span around every call the driver makes into a layer and
// report the per-layer metrics. perfbench/METRICS.md lists
// every metric, workload and the span file format.
//
// Usage: perfbench_driver --workload soak|fleet|storm --seed N
//                         --seconds S --trace 0|1 [--spans FILE]
// Exit status 0 with the JSON line last on stdout; 1 on any failed check
// (the reason goes to stderr and no result is printed); 2 on bad usage.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "fleet/controlplane.hpp"
#include "fleet/spec.hpp"
#include "load/fleet_soak.hpp"
#include "load/invariants.hpp"
#include "load/scenario.hpp"
#include "load/soak.hpp"
#include "obs/metrics.hpp"
#include "sched/scheduler.hpp"
#include "sim/fault.hpp"

namespace {

using namespace vapres;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// The digest fold of load/soak.cpp and load/fleet_soak.cpp, byte for
// byte, so the parity self-test can compare digests.
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void fold(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
}

/// Folds the event fields both soak harnesses fold, in their order.
void fold_event(std::uint64_t& h, const load::WorkloadEvent& ev) {
  fold(h, ev.sequence);
  fold(h, ev.at_cycle);
  fold(h, static_cast<std::uint64_t>(ev.class_index));
  fold(h, static_cast<std::uint64_t>(ev.request.priority));
  fold(h, static_cast<std::uint64_t>(ev.request.source_interval_cycles));
  fold(h, ev.request.source_words);
  fold(h, ev.hold_cycles);
  fold(h, ev.churn_stop ? 1u : 0u);
}

/// Cycles from `due` to `at`, 0 when `at` is not later.
sim::Cycles cycles_after(sim::Cycles at, sim::Cycles due) {
  return at > due ? at - due : 0;
}

constexpr std::uint64_t kNoRequest = ~std::uint64_t{0};

/// Zero of every span timestamp, shared by all passes of a run.
Clock::time_point trace_epoch() {
  static const Clock::time_point epoch = Clock::now();
  return epoch;
}

// ---- spans ---------------------------------------------------------------

/// Work counters read at every span boundary; a span carries the delta.
struct Counts {
  std::uint64_t edges_delivered = 0;
  std::uint64_t edges_skipped = 0;
  std::uint64_t journal_entries = 0;  ///< StateDb version
  std::uint64_t bitman_hits = 0;
  std::uint64_t bitman_misses = 0;

  Counts operator-(const Counts& o) const {
    return {edges_delivered - o.edges_delivered,
            edges_skipped - o.edges_skipped,
            journal_entries - o.journal_entries, bitman_hits - o.bitman_hits,
            bitman_misses - o.bitman_misses};
  }
};

struct Span {
  const char* name = "";
  int parent = -1;                    ///< index into the span list
  std::uint64_t request = kNoRequest;  ///< workload event sequence
  double start = 0.0;                 ///< seconds since the trace epoch
  double end = 0.0;
  Counts at_open;
  Counts delta;
};

/// In-memory span recorder. Off, open() and close() are one branch each.
class Tracer {
 public:
  Tracer(bool on, std::function<Counts()> probe)
      : on_(on), probe_(std::move(probe)) {}

  int open(const char* name, std::uint64_t request) {
    if (!on_) return -1;
    Span s;
    s.name = name;
    s.parent = top_;
    s.request = request;
    s.at_open = probe_();
    s.start = seconds_between(trace_epoch(), Clock::now());
    spans_.push_back(s);
    top_ = static_cast<int>(spans_.size()) - 1;
    return top_;
  }

  void close(int id) {
    if (id < 0) return;
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end = seconds_between(trace_epoch(), Clock::now());
    s.delta = probe_() - s.at_open;
    top_ = s.parent;
  }

  std::vector<Span> take() { return std::move(spans_); }

 private:
  bool on_;
  std::function<Counts()> probe_;
  std::vector<Span> spans_;
  int top_ = -1;
};

class Scope {
 public:
  Scope(Tracer& t, const char* name, std::uint64_t request)
      : t_(t), id_(t.open(name, request)) {}
  ~Scope() { t_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

// ---- workloads -----------------------------------------------------------

struct Workload {
  std::string name;
  /// Builds the scenario of one sub-seed.
  std::function<load::ScenarioSpec(std::uint64_t)> scenario;
  /// Scenarios per run, each from its own sub-seed. Pooling them keeps
  /// the simulated-time metrics steady from one --seed to the next.
  int scenarios = 1;
  bool fleet = false;
  // Fleet options (ignored by the single-fabric soak).
  fleet::FleetSpec fleet_spec;
  std::uint64_t crash_churn_every = 0;
  std::uint64_t health_tick_every = 64;
  std::uint64_t checkpoint_all_every = 0;  ///< 0 = never
  /// When > 0, fault injection is enabled for the whole scenario and
  /// corrupts exactly this many ICAP transfers, the first ones, instead
  /// of drawing per opportunity.
  std::uint64_t armed_icap_faults = 0;
  std::uint64_t checkpoint_interval = 128;  ///< submissions between sweeps
};

// Invariant and harness knobs shared with load::SoakOptions /
// load::FleetSoakOptions defaults (the parity self-test relies on it).
constexpr sim::Cycles kGapBound = 2000;
constexpr std::uint64_t kPipelineSlack = 64;
constexpr std::size_t kHistoryLimit = 4096;
constexpr int kTenants = 3;

// Short scenarios, many of them: the launch latency is mostly backlog
// built up inside a scenario, and independent scenarios average out.
constexpr std::uint64_t kSoakLifetimes = 500;
constexpr std::uint64_t kFleetLifetimes = 250;
constexpr std::uint64_t kStormLifetimes = 4;
constexpr int kSoakScenarios = 32;
constexpr int kFleetScenarios = 32;
constexpr std::uint64_t kParityLifetimes = 300;
constexpr int kExtraSetups = 3;  ///< set-up-only samples after each pass

load::ScenarioSpec storm_free_standard(std::uint64_t seed,
                                       std::uint64_t lifetimes) {
  load::ScenarioSpec s = load::ScenarioSpec::standard(seed, lifetimes);
  std::erase_if(s.phases, [](const load::Phase& p) {
    return p.icap_fault_probability > 0.0;
  });
  return s;
}

fleet::FleetSpec with_health(fleet::FleetSpec f) {
  f.health.enabled = true;
  f.health.remediate = true;
  f.health.rules = fleet::standard_health_rules(f);
  return f;
}

Workload soak_workload(std::uint64_t lifetimes, int scenarios) {
  Workload w;
  w.name = "soak";
  w.scenario = [lifetimes](std::uint64_t seed) {
    return storm_free_standard(seed, lifetimes);
  };
  w.scenarios = scenarios;
  return w;
}

Workload fleet_workload(std::uint64_t lifetimes, int scenarios,
                        std::uint64_t checkpoint_all_every) {
  Workload w;
  w.name = "fleet";
  w.fleet = true;
  w.fleet_spec = with_health(fleet::FleetSpec::heterogeneous());
  const int fabrics = static_cast<int>(w.fleet_spec.fabrics.size());
  w.scenario = [lifetimes, fabrics](std::uint64_t seed) {
    return load::ScenarioSpec::standard_fleet(seed, lifetimes, kTenants,
                                              fabrics);
  };
  w.scenarios = scenarios;
  w.crash_churn_every = 20;
  w.checkpoint_all_every = checkpoint_all_every;
  return w;
}

Workload storm_workload() {
  Workload w;
  w.name = "storm";
  w.fleet = true;
  w.fleet_spec = with_health(fleet::FleetSpec::uniform(2));
  w.scenario = [](std::uint64_t seed) {
    load::ScenarioSpec s;
    s.seed = seed;
    // One tenant and one small-footprint class at one priority, rate and
    // hold: routing and placement, and with them the PR transfers, are
    // then the same for every seed. Otherwise the last of four launches
    // lands on either fabric, and the latency quantiles flip between
    // values.
    load::AppClass tap;
    tap.tag = "tap";
    tap.modules = {"passthrough"};
    tap.min_priority = tap.max_priority = 2;
    tap.min_interval_shift = tap.max_interval_shift = 1;
    tap.min_hold_cycles = tap.max_hold_cycles = 8'000'000;
    s.classes = {tap};
    load::Phase storm;
    storm.name = "fault-storm";
    // One dense burst: on the exhaustive kernel host time follows
    // simulated time, so the arrivals queue behind each other's PR
    // transfers instead of paying for idle cycles between them.
    storm.mean_interarrival_cycles = 1000.0;
    storm.submissions = kStormLifetimes;
    s.phases.push_back(storm);
    return s;
  };
  // Each PR transfer costs ~2.5 s of host time on the exhaustive kernel,
  // so a run affords about ten. Per-opportunity draws would leave some
  // seeds with no retry and others with several extra transfers; one
  // armed corruption makes every scenario retry exactly once.
  w.armed_icap_faults = 1;
  w.health_tick_every = 1;
  w.checkpoint_interval = 2;
  return w;
}

// ---- one scenario pass ---------------------------------------------------

/// Deterministic work a scenario pass did; must repeat exactly.
struct Work {
  std::map<std::string, std::uint64_t> values;

  void set(const std::string& name, std::uint64_t v) { values[name] = v; }
  std::uint64_t get(const std::string& name) const {
    const auto it = values.find(name);
    return it == values.end() ? 0 : it->second;
  }
  void add(const Work& o) {
    for (const auto& [name, v] : o.values) values[name] += v;
  }
};

struct PassResult {
  std::uint64_t digest = kFnvOffset;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t completed = 0;
  std::vector<std::uint64_t> launch_latency;  ///< due cycle -> launch
  std::vector<std::uint64_t> lateness;        ///< due cycle -> submit
  sim::Cycles gap_max = 0;
  load::InvariantReport invariants;
  double setup_s = 0.0;
  double wall_s = 0.0;  ///< set-up excluded
  Work work;
  std::vector<Span> spans;
};

class Pass {
 public:
  Pass(const Workload& w, load::ScenarioSpec spec, bool traced)
      : w_(w),
        spec_(std::move(spec)),
        tracer_(traced, [this] { return counts(); }),
        hits_(obs::Registry::instance().counter("bitman.hits")),
        misses_(obs::Registry::instance().counter("bitman.misses")) {}

  PassResult run() {
    {
      Scope root(tracer_, "bench.pass", kNoRequest);
      const auto t0 = Clock::now();
      {
        Scope s(tracer_, "bench.setup", kNoRequest);
        setup();
      }
      const auto t1 = Clock::now();
      if (w_.fleet) {
        drive_fleet();
      } else {
        drive_soak();
      }
      res_.setup_s = seconds_between(t0, t1);
      res_.wall_s = seconds_between(t1, Clock::now());
    }
    res_.spans = tracer_.take();
    return std::move(res_);
  }

  /// Set-up only (the extra setup_s samples).
  double setup_only() {
    const auto t0 = Clock::now();
    setup();
    return seconds_between(t0, Clock::now());
  }

 private:
  Counts counts() const {
    Counts c;
    c.bitman_hits = hits_.value();
    c.bitman_misses = misses_.value();
    for_each_system([&c](core::VapresSystem& s) {
      const sim::KernelStats k = s.sim().kernel_stats();
      c.edges_delivered += k.edges_delivered;
      c.edges_skipped += k.edges_skipped;
    });
    if (fc_) c.journal_entries = fc_->statedb().version();
    return c;
  }

  template <typename F>
  void for_each_system(F f) const {
    if (sys_) f(*sys_);
    if (fc_) {
      for (int i = 0; i < fc_->num_fabrics(); ++i) f(fc_->system(i));
    }
  }

  void setup() {
    // Per-run latency histograms start clean, as in the soak harnesses;
    // registrations (and hits_/misses_) survive.
    obs::Registry::instance().reset();
    if (w_.fleet) {
      setup_fleet();
    } else {
      setup_soak();
    }
  }

  void setup_soak() {
    sys_ = std::make_unique<core::VapresSystem>(load::server_params());
    sys_->bring_up_all_sites();
    core::Rsb& rsb = sys_->rsb(0);
    for (int i = 0; i < rsb.num_ioms(); ++i) {
      rsb.iom(i).set_received_history_limit(kHistoryLimit);
    }
    sched_ = std::make_unique<sched::ApplicationScheduler>(*sys_);
  }

  void setup_fleet() {
    fc_ = std::make_unique<fleet::ControlPlane>(w_.fleet_spec);
    for (int i = 0; i < fc_->num_fabrics(); ++i) {
      core::Rsb& rsb = fc_->system(i).rsb(0);
      for (int j = 0; j < rsb.num_ioms(); ++j) {
        rsb.iom(j).set_received_history_limit(kHistoryLimit);
      }
    }
  }

  void begin_work() {
    start_counts_ = counts();
    start_recoveries_ = sim::FaultInjector::instance().total_recoveries();
  }

  void finish_common_work(sim::Cycles cycles, std::uint64_t rejected,
                          std::uint64_t preemptions,
                          std::uint64_t defrag_migrations) {
    const Counts d = counts() - start_counts_;
    std::uint64_t mb_busy = 0;
    std::uint64_t icap_bytes = 0;
    for_each_system([&](core::VapresSystem& s) {
      mb_busy += s.mb().total_busy_cycles();
      icap_bytes += static_cast<std::uint64_t>(s.icap().total_bytes_configured());
    });
    const sim::FaultInjector& inj = sim::FaultInjector::instance();
    Work& k = res_.work;
    k.set("sim.cycles", cycles);
    k.set("sim.edges_delivered", d.edges_delivered);
    k.set("sim.edges_skipped", d.edges_skipped);
    k.set("proc.mb_busy_cycles", mb_busy);
    k.set("core.icap_bytes", icap_bytes);
    k.set("bitman.hits", d.bitman_hits);
    k.set("bitman.misses", d.bitman_misses);
    k.set("core.faults_injected",
          storm_seen_ ? inj.injected(sim::FaultSite::kIcapBitstreamCorruption)
                      : 0);
    k.set("core.fault_recoveries",
          storm_seen_ ? inj.total_recoveries()
                      : inj.total_recoveries() - start_recoveries_);
    k.set("sched.rejected", rejected);
    k.set("sched.preemptions", preemptions);
    k.set("sched.defrag_migrations", defrag_migrations);
  }

  // ---- single fabric (mirrors load::run_soak minus storms/snapshots) ----

  void drive_soak() {
    core::VapresSystem& sys = *sys_;
    sched::ApplicationScheduler& sched = *sched_;
    core::Rsb& rsb = sys.rsb(0);
    begin_work();
    load::ScenarioGenerator gen(spec_);
    load::MonotoneClockCheck clock_check;
    std::unordered_set<int> gap_armed;
    int conservation_watermark = 0;
    std::multimap<sim::Cycles, int> departures;

    // App ids are dense submission indices here, so an app id is also
    // its workload event's sequence (the span request id).
    auto stop_checked = [&](int id) {
      const sched::AppRecord& a = sched.app(id);
      const sim::Cycles gap = rsb.iom(a.sink.iom).max_output_gap(a.sink.channel);
      res_.gap_max = std::max(res_.gap_max, gap);
      load::check_stream_gap(a.request.name, gap, kGapBound, res_.invariants);
      {
        Scope s(tracer_, "sched.stop", static_cast<std::uint64_t>(id));
        sched.stop(id);
      }
      const sched::AppRecord& done = sched.app(id);
      fold(res_.digest, static_cast<std::uint64_t>(id));
      fold(res_.digest, done.final_words_in);
      fold(res_.digest, done.final_words_out);
      gap_armed.erase(id);
    };
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
    auto checkpoint = [&](std::uint64_t seq) {
      Scope s(tracer_, "load.check", seq);
      for (int id = std::max(conservation_watermark, sched.first_live_id());
           id < sched.num_apps(); ++id) {
        const sched::AppRecord& a = sched.app(id);
        if (a.state == sched::AppState::kQueued || a.running()) break;
        if (a.state != sched::AppState::kRejected) {
          load::check_word_conservation(a, res_.invariants, kPipelineSlack);
        }
        conservation_watermark = id + 1;
      }
      {
        Scope r(tracer_, "sched.retire", seq);
        sched.retire_terminal();
      }
      load::check_resource_ledger(sched, res_.invariants);
      load::check_accounting(sched, res_.invariants);
      clock_check.observe(sys, res_.invariants);
    };

    std::uint64_t next_seq = 0;
    for (;;) {
      std::optional<load::WorkloadEvent> ev;
      {
        Scope s(tracer_, "load.generate", next_seq);
        ev = gen.next();
      }
      if (!ev) break;
      const std::uint64_t seq = ev->sequence;
      next_seq = seq + 1;
      const sim::Cycles now = sys.system_clock().cycle_count();
      if (ev->at_cycle > now) {
        Scope s(tracer_, "sim.advance", seq);
        sys.run_system_cycles(ev->at_cycle - now);
      }
      stop_departed();
      const sim::Cycles submit_cycle = sys.system_clock().cycle_count();
      res_.lateness.push_back(cycles_after(submit_cycle, ev->at_cycle));

      fold_event(res_.digest, *ev);

      int id = -1;
      {
        Scope s(tracer_, "sched.admit", seq);
        id = sched.submit(ev->request);
        sched.run_admission();
      }
      const sched::AppRecord& app = sched.app(id);
      fold(res_.digest, static_cast<std::uint64_t>(id));
      fold(res_.digest, static_cast<std::uint64_t>(app.verdict));
      if (app.running()) {
        departures.emplace(sys.system_clock().cycle_count() + ev->hold_cycles,
                           id);
        res_.launch_latency.push_back(
            cycles_after(app.launched_at, ev->at_cycle));
      }

      std::vector<int> running;
      {
        // Gap statistics restart with every launch: sink channels are
        // reused across tenants.
        Scope s(tracer_, "load.check", seq);
        running = sched.running_apps();
        for (auto it = gap_armed.begin(); it != gap_armed.end();) {
          const bool still_running =
              std::find(running.begin(), running.end(), *it) != running.end();
          it = still_running ? std::next(it) : gap_armed.erase(it);
        }
        for (const int rid : running) {
          if (gap_armed.insert(rid).second) {
            const sched::AppRecord& a = sched.app(rid);
            rsb.iom(a.sink.iom).reset_gap_stats(a.sink.channel);
          }
        }
      }

      if (ev->churn_stop) {
        running = sched.running_apps();
        if (!running.empty()) stop_checked(running.front());
      }
      if ((seq + 1) % w_.checkpoint_interval == 0) checkpoint(seq);
    }

    while (!departures.empty()) {
      const sim::Cycles next = departures.begin()->first;
      const sim::Cycles now = sys.system_clock().cycle_count();
      if (next > now) {
        Scope s(tracer_, "sim.advance",
                static_cast<std::uint64_t>(departures.begin()->second));
        sys.run_system_cycles(next - now);
      }
      stop_departed();
    }
    for (const int id : sched.running_apps()) stop_checked(id);
    checkpoint(next_seq);

    const core::SchedulerAccounting acc = sched.accounting();
    const std::uint64_t still_running = sched.running_apps().size();
    res_.attempted = static_cast<std::uint64_t>(acc.submitted);
    res_.completed = res_.attempted - still_running;
    res_.failed = static_cast<std::uint64_t>(acc.rejected) + still_running;
    finish_common_work(sys.system_clock().cycle_count(),
                       static_cast<std::uint64_t>(acc.rejected),
                       static_cast<std::uint64_t>(acc.preemptions),
                       static_cast<std::uint64_t>(acc.defrag_migrations));
    if (still_running != 0) {
      res_.invariants.fail(std::to_string(still_running) +
                           " apps still running after the drain");
    }
  }

  // ---- fleet (mirrors load::run_fleet_soak, plus checkpoint_all) --------

  void drive_fleet() {
    fleet::ControlPlane& fc = *fc_;
    const int nf = fc.num_fabrics();
    begin_work();
    load::ScenarioGenerator gen(spec_);

    std::vector<sim::Cycles> last_cycle(static_cast<std::size_t>(nf), 0);
    sim::Cycles last_fleet_now = 0;
    bool clock_seen = false;
    std::vector<int> conservation_watermark(static_cast<std::size_t>(nf), 0);
    std::map<int, fleet::FleetAppId> gap_armed;
    std::unordered_map<int, std::uint64_t> seq_of;  // fleet id -> sequence
    std::uint64_t snap_bytes = 0;

    sim::SplitMix64 kill_rng(spec_.seed ^ 0xc5a5ce55c5a5ce55ULL);
    std::uint64_t since_kill = 0;
    std::uint64_t seen_restarts = 0;
    auto maybe_schedule_kill = [&]() {
      if (w_.crash_churn_every == 0) return;
      if (++since_kill < w_.crash_churn_every) return;
      since_kill = 0;
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
        agent = fleet::fabric_agent_id(
            static_cast<int>(pick - static_cast<std::uint64_t>(named)));
      }
      const std::uint64_t offset = 1 + kill_rng.next() % 8;
      fc.schedule_kill(agent, fc.statedb().version() + offset);
      fold(res_.digest, pick);
      fold(res_.digest, offset);
    };
    auto replay_check = [&](const char* when, std::uint64_t seq) {
      Scope s(tracer_, "fleet.replay", seq);
      ++res_.invariants.checks_run;
      if (fc.statedb().replayed_view_digest() != fc.statedb().view_digest()) {
        res_.invariants.fail(std::string("journal replay diverged from the "
                                         "live view ") +
                             when + " (version " +
                             std::to_string(fc.statedb().version()) + ")");
      }
    };
    auto absorb_restarts = [&](std::uint64_t seq) {
      const std::uint64_t r = fc.agent_restarts();
      if (r == seen_restarts) return;
      seen_restarts = r;
      {
        Scope s(tracer_, "fleet.replay", seq);
        ++res_.invariants.checks_run;
        for (const std::string& v : fc.reconcile()) {
          res_.invariants.fail("post-restart reconcile: " + v);
        }
      }
      replay_check("after an agent restart", seq);
    };
    auto stop_checked = [&](int fleet_id) {
      const auto seq_it = seq_of.find(fleet_id);
      const std::uint64_t seq =
          seq_it != seq_of.end() ? seq_it->second : kNoRequest;
      const fleet::FleetAppId loc = *fc.locate(fleet_id);
      const sched::AppRecord& a = fc.record_of(fleet_id);
      const sim::Cycles gap = fc.system(loc.fabric)
                                  .rsb(0)
                                  .iom(a.sink.iom)
                                  .max_output_gap(a.sink.channel);
      res_.gap_max = std::max(res_.gap_max, gap);
      load::check_stream_gap(a.request.name, gap, kGapBound, res_.invariants);
      {
        Scope s(tracer_, "fleet.stop", seq);
        fc.stop(fleet_id);
      }
      const sched::AppRecord& done = fc.record_of(fleet_id);
      fold(res_.digest, static_cast<std::uint64_t>(fleet_id));
      fold(res_.digest, done.final_words_in);
      fold(res_.digest, done.final_words_out);
      gap_armed.erase(fleet_id);
      if (seq_it != seq_of.end()) seq_of.erase(seq_it);
    };

    std::multimap<sim::Cycles, int> departures;
    auto stop_departed = [&]() {
      const sim::Cycles now = fc.now();
      while (!departures.empty() && departures.begin()->first <= now) {
        const int id = departures.begin()->second;
        departures.erase(departures.begin());
        if (fc.running(id)) stop_checked(id);
      }
    };
    auto checkpoint = [&](std::uint64_t seq) {
      Scope s(tracer_, "load.check", seq);
      for (int i = 0; i < nf; ++i) {
        const sched::ApplicationScheduler& sc = fc.scheduler(i);
        int& mark = conservation_watermark[static_cast<std::size_t>(i)];
        for (int id = std::max(mark, sc.first_live_id()); id < sc.num_apps();
             ++id) {
          const sched::AppRecord& a = sc.app(id);
          if (a.state == sched::AppState::kQueued || a.running()) break;
          if (a.state != sched::AppState::kRejected) {
            load::check_word_conservation(a, res_.invariants, kPipelineSlack);
          }
          mark = id + 1;
        }
      }
      {
        Scope r(tracer_, "fleet.retire", seq);
        fc.retire_terminal();
      }
      for (int i = 0; i < nf; ++i) {
        load::check_resource_ledger(fc.scheduler(i), res_.invariants);
        load::check_accounting(fc.scheduler(i), res_.invariants);
        ++res_.invariants.checks_run;
        const sim::Cycles c = fc.system(i).system_clock().cycle_count();
        if (c < last_cycle[static_cast<std::size_t>(i)]) {
          res_.invariants.fail("fabric " + fc.fabric_name(i) +
                               ": clock went backwards");
        }
        last_cycle[static_cast<std::size_t>(i)] = c;
      }
      ++res_.invariants.checks_run;
      const sim::Cycles fleet_now = fc.now();
      if (clock_seen && fleet_now <= last_fleet_now) {
        res_.invariants.fail("fleet time stalled at " +
                             std::to_string(fleet_now) + " cycles");
      }
      last_fleet_now = fleet_now;
      clock_seen = true;
      replay_check("at checkpoint", seq);
      fc.truncate_journal();
    };
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

    sim::FaultInjector& injector = sim::FaultInjector::instance();
    struct StormGuard {
      ~StormGuard() { sim::FaultInjector::instance().disable(); }
    } storm_guard;
    bool storm_on = false;

    std::uint64_t next_seq = 0;
    for (;;) {
      std::optional<load::WorkloadEvent> ev;
      {
        Scope s(tracer_, "load.generate", next_seq);
        ev = gen.next();
      }
      if (!ev) break;
      const std::uint64_t seq = ev->sequence;
      next_seq = seq + 1;
      const load::Phase& ph = gen.spec().phases[ev->phase_index];

      const bool want_storm =
          ph.icap_fault_probability > 0.0 || w_.armed_icap_faults > 0;
      if (want_storm && !storm_on) {
        injector.enable(spec_.seed ^ 0x5107A1C0FFEEULL);
        injector.set_probability(sim::FaultSite::kIcapBitstreamCorruption,
                                 ph.icap_fault_probability);
        injector.arm(sim::FaultSite::kIcapBitstreamCorruption, 0,
                     w_.armed_icap_faults);
        storm_on = true;
        storm_seen_ = true;
      } else if (!want_storm && storm_on) {
        injector.disable();
        storm_on = false;
      }

      {
        Scope s(tracer_, "sim.advance", seq);
        fc.advance_to(ev->at_cycle);
      }
      stop_departed();
      const sim::Cycles submit_cycle = fc.now();
      res_.lateness.push_back(cycles_after(submit_cycle, ev->at_cycle));

      fold_event(res_.digest, *ev);
      fold(res_.digest, static_cast<std::uint64_t>(ev->tenant));
      fold(res_.digest, ev->migrate ? 1u : 0u);

      maybe_schedule_kill();
      const std::string tenant = "t" + std::to_string(ev->tenant);
      fleet::RouteDecision d;
      {
        Scope s(tracer_, "fleet.submit", seq);
        d = fc.submit(tenant, ev->request);
      }
      absorb_restarts(seq);
      fold(res_.digest, d.admitted ? 1u : 0u);
      fold(res_.digest, static_cast<std::uint64_t>(d.fabric + 1));
      fold(res_.digest, static_cast<std::uint64_t>(d.verdict));
      fold(res_.digest, d.quota_limited ? 1u : 0u);
      if (d.admitted) {
        departures.emplace(fc.now() + ev->hold_cycles, d.fleet_id);
        seq_of[d.fleet_id] = seq;
        res_.launch_latency.push_back(cycles_after(
            fc.record_of(d.fleet_id).launched_at, ev->at_cycle));
      }

      {
        Scope s(tracer_, "load.check", seq);
        for (auto it = gap_armed.begin(); it != gap_armed.end();) {
          it = fc.running(it->first) ? std::next(it) : gap_armed.erase(it);
        }
        arm_running();
      }

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
          // The outgoing incarnation's stream ends here; its gap counts.
          const sched::AppRecord& a = fc.record_of(victim);
          res_.gap_max = std::max(
              res_.gap_max, fc.system(src).rsb(0).iom(a.sink.iom).max_output_gap(
                                a.sink.channel));
          fleet::MigrateResult mr;
          {
            Scope s(tracer_, "fleet.migrate", seq);
            mr = fc.migrate(victim, dst);
          }
          absorb_restarts(seq);
          fold(res_.digest, static_cast<std::uint64_t>(victim));
          fold(res_.digest, static_cast<std::uint64_t>(mr.outcome));
          Scope s(tracer_, "load.check", seq);
          arm_running();
        }
      }

      if (ev->churn_stop) {
        const std::vector<int> running = fc.running_ids();
        if (!running.empty()) stop_checked(running.front());
      }

      if (fc.health_enabled() && w_.health_tick_every > 0 &&
          (seq + 1) % w_.health_tick_every == 0) {
        std::uint64_t tripped = 0;
        {
          Scope s(tracer_, "fleet.health_tick", seq);
          tripped = fc.health_tick();
        }
        absorb_restarts(seq);
        fold(res_.digest, tripped);
        fold(res_.digest,
             static_cast<std::uint64_t>(fc.statedb().available_fabrics()));
      }

      if ((seq + 1) % w_.checkpoint_interval == 0) checkpoint(seq);

      if (w_.checkpoint_all_every > 0 &&
          (seq + 1) % w_.checkpoint_all_every == 0) {
        Scope s(tracer_, "snap.checkpoint", seq);
        fc.checkpoint_all();
        for (int i = 0; i < nf; ++i) {
          snap_bytes += fc.last_checkpoint(i)->blob.size();
        }
      }
    }

    // Disarm before the drain, so its long advances run on the
    // activity-driven kernel.
    if (storm_on) injector.disable();
    while (!departures.empty()) {
      const sim::Cycles next = departures.begin()->first;
      if (next > fc.now()) {
        const auto it = seq_of.find(departures.begin()->second);
        Scope s(tracer_, "sim.advance",
                it != seq_of.end() ? it->second : kNoRequest);
        fc.advance_to(next);
      }
      stop_departed();
    }
    for (const int id : fc.running_ids()) stop_checked(id);
    checkpoint(next_seq);

    const fleet::ControlPlane::Counters& c = fc.counters();
    const std::uint64_t still_running = fc.running_ids().size();
    res_.attempted = c.submissions;
    res_.completed = c.submissions - still_running;
    res_.failed =
        c.rejected + c.quota_rejected + c.migrations_lost + still_running;
    std::uint64_t rejected = 0;
    std::uint64_t preemptions = 0;
    std::uint64_t defrag = 0;
    for (int i = 0; i < nf; ++i) {
      const core::SchedulerAccounting acc = fc.scheduler(i).accounting();
      rejected += static_cast<std::uint64_t>(acc.rejected);
      preemptions += static_cast<std::uint64_t>(acc.preemptions);
      defrag += static_cast<std::uint64_t>(acc.defrag_migrations);
    }
    finish_common_work(fc.now(), rejected, preemptions, defrag);
    Work& k = res_.work;
    k.set("fleet.journal_entries",
          fc.statedb().version() - start_counts_.journal_entries);
    k.set("fleet.migrations_moved", c.migrations_moved);
    k.set("fleet.fallbacks", c.fallbacks);
    k.set("fleet.agent_restarts", fc.agent_restarts());
    k.set("fleet.health_ticks", fc.health_ticks());
    k.set("fleet.breaches", c.breaches_tripped);
    k.set("fleet.isolations", c.isolations);
    k.set("snap.bytes", snap_bytes);
    if (c.migrations_lost != 0) {
      res_.invariants.fail(std::to_string(c.migrations_lost) +
                           " apps lost in migration");
    }
    if (still_running != 0) {
      res_.invariants.fail(std::to_string(still_running) +
                           " apps still running after the drain");
    }
  }

  const Workload& w_;
  const load::ScenarioSpec spec_;
  Tracer tracer_;
  const obs::Counter& hits_;
  const obs::Counter& misses_;
  PassResult res_;
  bool storm_seen_ = false;
  Counts start_counts_;  ///< counters when the pass's first event is due
  std::uint64_t start_recoveries_ = 0;
  // Declared after the tracer whose probe reads them; destroyed first.
  std::unique_ptr<core::VapresSystem> sys_;
  std::unique_ptr<sched::ApplicationScheduler> sched_;
  std::unique_ptr<fleet::ControlPlane> fc_;
};

PassResult run_pass(const Workload& w, const load::ScenarioSpec& spec,
                    bool traced) {
  return Pass(w, spec, traced).run();
}

// ---- statistics ----------------------------------------------------------

/// Exact nearest-rank percentile (0 < p <= 1) of unsorted samples.
std::uint64_t percentile(std::vector<std::uint64_t> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

/// Median of unsorted samples; the mean of the middle two for an even
/// count.
template <typename T>
double median(std::vector<T> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? static_cast<double>(v[n / 2])
                    : 0.5 * (static_cast<double>(v[n / 2 - 1]) +
                             static_cast<double>(v[n / 2]));
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return static_cast<double>(load::read_rss_kb()) / 1024.0;
}

// ---- per-layer attribution -----------------------------------------------

/// Self time and kernel edges per span name, summed over the passes of
/// one traced cycle. Self time is a span's duration minus its children's.
class LayerTimes {
 public:
  void add(const std::vector<Span>& spans) {
    std::vector<double> child_s(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_s[static_cast<std::size_t>(s.parent)] += s.end - s.start;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      self_s_[s.name] += (s.end - s.start) - child_s[i];
      edges_[s.name] += s.delta.edges_delivered;
      if (s.parent < 0) pass_s += s.end - s.start;
    }
  }
  double self(const std::string& name) const {
    const auto it = self_s_.find(name);
    return it == self_s_.end() ? 0.0 : it->second;
  }
  std::uint64_t edges(const std::string& name) const {
    const auto it = edges_.find(name);
    return it == edges_.end() ? 0 : it->second;
  }

  double pass_s = 0.0;  ///< root spans' total duration

 private:
  std::map<std::string, double> self_s_;
  std::map<std::string, std::uint64_t> edges_;
};

void write_spans(const std::string& path, const std::string& workload,
                 const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  // Chrome trace_event format: loads in chrome://tracing and Perfetto.
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"otherData\": "
                  "{\"workload\": \"%s\"}, \"traceEvents\": [\n",
               workload.c_str());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"%.*s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %zu, \"parent\": %d, \"request\": %lld, "
                 "\"edges_delivered\": %llu, \"edges_skipped\": %llu, "
                 "\"journal_entries\": %llu, \"bitman_hits\": %llu, "
                 "\"bitman_misses\": %llu}}%s\n",
                 s.name, static_cast<int>(std::strcspn(s.name, ".")), s.name,
                 s.start * 1e6, (s.end - s.start) * 1e6, i, s.parent,
                 s.request == kNoRequest ? -1LL
                                         : static_cast<long long>(s.request),
                 static_cast<unsigned long long>(s.delta.edges_delivered),
                 static_cast<unsigned long long>(s.delta.edges_skipped),
                 static_cast<unsigned long long>(s.delta.journal_entries),
                 static_cast<unsigned long long>(s.delta.bitman_hits),
                 static_cast<unsigned long long>(s.delta.bitman_misses),
                 i + 1 == spans.size() ? "" : ",");
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

// ---- checks ---------------------------------------------------------------

/// Collects failed checks; any entry makes the run report no metrics.
struct Verdict {
  std::vector<std::string> failures;
  void require(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void check_pass(const PassResult& r, const Workload& w,
                const load::ScenarioSpec& spec, Verdict& v) {
  v.require(r.invariants.ok(), w.name + ": " + r.invariants.to_string());
  v.require(r.attempted == spec.total_submissions(),
            w.name + ": " + std::to_string(r.attempted) + " of " +
                std::to_string(spec.total_submissions()) +
                " events submitted");
  if (w.armed_icap_faults > 0) {
    v.require(r.work.get("core.faults_injected") > 0,
              w.name + ": the storm injected no ICAP fault");
  }
}

/// Same seed, same program: digest, latencies and every work counter
/// must repeat exactly. A difference is nondeterminism, not noise.
void check_repeat(const PassResult& a, const PassResult& b,
                  const std::string& what, Verdict& v) {
  v.require(a.digest == b.digest, "nondeterministic digest (" + what +
                                      "): " + hex(a.digest) + " vs " +
                                      hex(b.digest));
  v.require(a.launch_latency == b.launch_latency && a.lateness == b.lateness &&
                a.gap_max == b.gap_max && a.failed == b.failed,
            "nondeterministic latency/gap/failure record (" + what + ")");
  for (const auto& [name, va] : a.work.values) {
    const std::uint64_t vb = b.work.get(name);
    v.require(va == vb, "nondeterministic work counter " + name +
                            " (" + what + "): " + std::to_string(va) +
                            " vs " + std::to_string(vb));
  }
}

/// The driver's loops against the library's soak harnesses on a short
/// scenario of the same seed: equal digests prove the benchmark measures
/// the program the tier-1 soak gates run.
void parity_selftest(const std::string& workload, std::uint64_t seed,
                     Verdict& v) {
  if (workload == "soak") {
    const Workload w = soak_workload(kParityLifetimes, 1);
    const load::ScenarioSpec spec = w.scenario(seed);
    load::SoakOptions opt;
    opt.seed = seed;
    opt.lifetimes = spec.total_submissions();
    opt.checkpoint_interval = w.checkpoint_interval;
    opt.scenario = spec;
    const load::SoakResult lib = load::run_soak(opt);
    const PassResult mine = run_pass(w, spec, false);
    v.require(lib.ok(), "parity: run_soak: " + lib.invariants.to_string());
    v.require(mine.digest == lib.digest,
              "parity: driver soak digest " + hex(mine.digest) +
                  " != load::run_soak " + hex(lib.digest));
  } else {
    const Workload w = fleet_workload(kParityLifetimes, 1, 0);
    const load::ScenarioSpec spec = w.scenario(seed);
    load::FleetSoakOptions opt;
    opt.seed = seed;
    opt.lifetimes = spec.total_submissions();
    opt.num_tenants = kTenants;
    opt.crash_churn_every = w.crash_churn_every;
    opt.checkpoint_interval = w.checkpoint_interval;
    opt.health_tick_every = w.health_tick_every;
    opt.scenario = spec;
    opt.fleet = w.fleet_spec;
    const load::FleetSoakResult lib = load::run_fleet_soak(opt);
    const PassResult mine = run_pass(w, spec, false);
    v.require(lib.ok(),
              "parity: run_fleet_soak: " + lib.invariants.to_string());
    v.require(mine.digest == lib.digest,
              "parity: driver fleet digest " + hex(mine.digest) +
                  " != load::run_fleet_soak " + hex(lib.digest));
  }
}

// ---- output ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Prints the result line; returns the exit status (1 when a metric is
/// not a finite number, which JSON cannot carry).
int print_result(const PassResult& r, const std::vector<Metric>& m) {
  for (const Metric& metric : m) {
    if (!std::isfinite(metric.value)) {
      std::fprintf(stderr, "perfbench: CHECK FAILED: %s is not finite\n",
                   metric.name.c_str());
      return 1;
    }
  }
  std::string out = "{\"correct\": true, \"attempted\": " +
                    std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) +
                    ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < m.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m[i].name.c_str(), m[i].value, m[i].unit);
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload soak|fleet|storm --seed N "
               "--seconds S --trace 0|1 [--spans FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      trace = std::strcmp(val, "1") == 0;
    } else if (key == "--spans") {
      spans_path = val;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !(seconds > 0.0)) return usage();

  Workload w;
  if (workload == "soak") {
    w = soak_workload(kSoakLifetimes, kSoakScenarios);
  } else if (workload == "fleet") {
    w = fleet_workload(kFleetLifetimes, kFleetScenarios,
                       /*checkpoint_all_every=*/64);
  } else if (workload == "storm") {
    w = storm_workload();
  } else {
    return usage();
  }
  const std::size_t n = static_cast<std::size_t>(w.scenarios);
  std::vector<load::ScenarioSpec> specs;
  sim::SplitMix64 sub_seeds(seed);
  for (std::size_t k = 0; k < n; ++k) specs.push_back(w.scenario(sub_seeds.next()));

  Verdict verdict;
  parity_selftest(workload, seed, verdict);

  // A cycle runs every scenario once. Untraced runs repeat cycles until
  // the budget is spent, and at least twice so every scenario has a
  // repeat to check; traced runs alternate untraced and traced cycles.
  std::vector<std::vector<PassResult>> untraced(n);
  std::vector<std::vector<PassResult>> traced(n);
  std::vector<LayerTimes> layers;  // one per traced cycle
  std::vector<Span> span_file;     // the first traced cycle
  std::vector<double> setup_samples;
  const auto start = trace_epoch();
  double last_cycle_s = 0.0;
  for (int cycle = 0; verdict.failures.empty(); ++cycle) {
    // Stop at the cycle boundary nearest the budget.
    const double elapsed = seconds_between(start, Clock::now());
    const bool enough =
        elapsed + 0.5 * last_cycle_s >= seconds &&
        (trace ? !untraced[0].empty() && !traced[0].empty()
               : untraced[0].size() >= 2);
    if (enough) break;
    const auto cycle_start = Clock::now();
    const bool traced_cycle = trace && cycle % 2 == 1;
    if (traced_cycle) layers.emplace_back();
    for (std::size_t k = 0; k < n && verdict.failures.empty(); ++k) {
      PassResult r = run_pass(w, specs[k], traced_cycle);
      setup_samples.push_back(r.setup_s);
      check_pass(r, w, specs[k], verdict);
      if (!untraced[k].empty()) {
        check_repeat(untraced[k].front(), r,
                     traced_cycle ? "traced vs untraced pass" : "repeat pass",
                     verdict);
      }
      if (traced_cycle) {
        layers.back().add(r.spans);
        if (layers.size() == 1) {
          // Parents index into their own pass; re-base them on the file.
          const int base = static_cast<int>(span_file.size());
          for (Span sp : r.spans) {
            if (sp.parent >= 0) sp.parent += base;
            span_file.push_back(sp);
          }
        }
        r.spans.clear();
      }
      (traced_cycle ? traced : untraced)[k].push_back(std::move(r));
      // Set-up takes well under a millisecond and host speed drifts over
      // seconds: sample it often, spread over the whole run.
      for (int i = 0; i < kExtraSetups; ++i) {
        setup_samples.push_back(Pass(w, specs[k], false).setup_only());
      }
    }
    last_cycle_s = seconds_between(cycle_start, Clock::now());
  }

  if (!verdict.failures.empty()) {
    for (const std::string& f : verdict.failures) {
      std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", f.c_str());
    }
    return 1;
  }

  // The canonical pass of each scenario is its first untraced one; the
  // simulated-time metrics and work counters pool them.
  PassResult pooled;
  std::uint64_t digest = kFnvOffset;
  for (std::size_t k = 0; k < n; ++k) {
    const PassResult& c = untraced[k].front();
    fold(digest, c.digest);
    pooled.attempted += c.attempted;
    pooled.failed += c.failed;
    pooled.launch_latency.insert(pooled.launch_latency.end(),
                                 c.launch_latency.begin(),
                                 c.launch_latency.end());
    pooled.lateness.insert(pooled.lateness.end(), c.lateness.begin(),
                           c.lateness.end());
    pooled.gap_max = std::max(pooled.gap_max, c.gap_max);
    pooled.work.add(c.work);
  }
  std::fprintf(stderr, "perfbench: %s seed %llu: %zu scenarios, digest %s\n",
               w.name.c_str(), static_cast<unsigned long long>(seed), n,
               hex(digest).c_str());

  // Host time of one cycle: per scenario, the median over its passes.
  auto cycle_wall = [n](const std::vector<std::vector<PassResult>>& passes) {
    double total = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      std::vector<double> v;
      for (const PassResult& r : passes[k]) v.push_back(r.wall_s);
      total += median(v);
    }
    return total;
  };
  const double untraced_s = cycle_wall(untraced);

  std::vector<Metric> metrics;
  if (!trace) {
    std::uint64_t completed = 0;
    for (std::size_t k = 0; k < n; ++k) completed += untraced[k].front().completed;
    metrics = {
        {"lifetimes_per_s", static_cast<double>(completed) / untraced_s, "1/s"},
        {"setup_s", median(setup_samples), "s"},
        {"launch_latency_p50_cycles", median(pooled.launch_latency), "cycles"},
        {"launch_latency_p99_cycles",
         static_cast<double>(percentile(pooled.launch_latency, 0.99)), "cycles"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    return print_result(pooled, metrics);
  }

  // Per-layer metrics: exact counts from the canonical passes, host times
  // as medians over the traced cycles.
  auto layer_s = [&](std::initializer_list<const char*> names) {
    std::vector<double> v;
    for (const LayerTimes& t : layers) {
      double s = 0.0;
      for (const char* name : names) s += t.self(name);
      v.push_back(s);
    }
    return median(v);
  };
  auto layer_edges = [&](const char* name) {
    return static_cast<double>(layers.front().edges(name));
  };
  auto count = [&](const char* name) {
    return static_cast<double>(pooled.work.get(name));
  };
  const double advance_edges = layer_edges("sim.advance");
  const double advance_s = layer_s({"sim.advance"});
  const double hits = count("bitman.hits");
  const double misses = count("bitman.misses");
  const double unattributed_s = layer_s({"bench.pass"});
  std::vector<double> pass_s;
  for (const LayerTimes& t : layers) pass_s.push_back(t.pass_s);
  std::uint64_t late = 0;
  for (const std::uint64_t l : pooled.lateness) late += l > 0 ? 1 : 0;

  metrics = {
      {"sim.advance_s", advance_s, "s"},
      {"sim.edges_delivered", count("sim.edges_delivered"), "count"},
      {"sim.edges_skipped", count("sim.edges_skipped"), "count"},
      {"sim.ns_per_edge",
       advance_edges > 0.0 ? advance_s * 1e9 / advance_edges : 0.0, "ns"},
      {"sim.cycles", count("sim.cycles"), "cycles"},
      {"proc.mb_busy_cycles", count("proc.mb_busy_cycles"), "cycles"},
      {"sched.admit_s", layer_s({"sched.admit"}), "s"},
      {"sched.admit_edges", layer_edges("sched.admit"), "count"},
      {"sched.stop_s", layer_s({"sched.stop"}), "s"},
      {"sched.retire_s", layer_s({"sched.retire"}), "s"},
      {"sched.rejected", count("sched.rejected"), "count"},
      {"sched.preemptions", count("sched.preemptions"), "count"},
      {"sched.defrag_migrations", count("sched.defrag_migrations"), "count"},
      {"bitman.hit_ratio", hits + misses > 0.0 ? hits / (hits + misses) : 0.0,
       "ratio"},
      {"core.icap_bytes", count("core.icap_bytes"), "bytes"},
      {"core.faults_injected", count("core.faults_injected"), "count"},
      {"core.fault_recoveries", count("core.fault_recoveries"), "count"},
      {"core.stream_gap_max_cycles", static_cast<double>(pooled.gap_max),
       "cycles"},
      {"fleet.submit_s", layer_s({"fleet.submit"}), "s"},
      {"fleet.submit_edges", layer_edges("fleet.submit"), "count"},
      {"fleet.stop_s", layer_s({"fleet.stop"}), "s"},
      {"fleet.retire_s", layer_s({"fleet.retire"}), "s"},
      {"fleet.migrate_s", layer_s({"fleet.migrate"}), "s"},
      {"fleet.migrations_moved", count("fleet.migrations_moved"), "count"},
      {"fleet.journal_entries", count("fleet.journal_entries"), "count"},
      {"fleet.replay_s", layer_s({"fleet.replay"}), "s"},
      {"fleet.fallbacks", count("fleet.fallbacks"), "count"},
      {"fleet.agent_restarts", count("fleet.agent_restarts"), "count"},
      {"fleet.health_tick_s", layer_s({"fleet.health_tick"}), "s"},
      {"fleet.health_ticks", count("fleet.health_ticks"), "count"},
      {"fleet.breaches", count("fleet.breaches"), "count"},
      {"fleet.isolations", count("fleet.isolations"), "count"},
      {"snap.checkpoint_s", layer_s({"snap.checkpoint"}), "s"},
      {"snap.bytes", count("snap.bytes"), "bytes"},
      {"load.generate_s", layer_s({"load.generate"}), "s"},
      {"load.check_s", layer_s({"load.check"}), "s"},
      {"load.late_share",
       pooled.lateness.empty()
           ? 0.0
           : static_cast<double>(late) /
                 static_cast<double>(pooled.lateness.size()),
       "ratio"},
      {"load.lateness_p99_cycles",
       static_cast<double>(percentile(pooled.lateness, 0.99)), "cycles"},
      {"bench.setup_s", layer_s({"bench.setup"}), "s"},
      {"bench.trace_overhead_pct",
       (cycle_wall(traced) - untraced_s) / untraced_s * 100.0, "%"},
      {"bench.unattributed_s", unattributed_s, "s"},
      {"bench.span_coverage", 1.0 - unattributed_s / median(pass_s), "ratio"},
  };
  if (!spans_path.empty()) write_spans(spans_path, w.name, span_file);
  return print_result(pooled, metrics);
}
