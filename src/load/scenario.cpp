#include "load/scenario.hpp"

#include <algorithm>
#include <cmath>

#include "sim/check.hpp"

namespace vapres::load {

std::uint64_t ScenarioSpec::total_submissions() const {
  std::uint64_t n = 0;
  for (const Phase& p : phases) n += p.submissions;
  return n;
}

core::SystemParams server_params() {
  core::SystemParams p;
  p.name = "appserver";
  core::RsbParams& r = p.rsbs[0];
  r.num_prrs = 4;
  r.num_ioms = 3;
  r.ki = 1;
  r.ko = 1;
  r.kr = 3;
  r.kl = 3;
  // Two big and two small PRRs, one per clock region: a deliberately
  // fragmentation-prone floorplan. The big sites (384 slices) take the
  // large filters (ma8, fir4_smooth); the small sites (128 slices) only
  // fit the single-stage modules. Heights are cut to the footprint
  // minimum because partial-bitstream size — and with it every PR
  // transfer the soak pays for — scales with PRR height.
  p.prr_rects = {fabric::ClbRect{0, 0, 16, 6},
                 fabric::ClbRect{16, 0, 16, 6},
                 fabric::ClbRect{32, 0, 16, 2},
                 fabric::ClbRect{48, 0, 16, 2}};
  return p;
}

std::vector<AppClass> standard_classes() {
  // The multi_app_server flavor table, weighted toward the single-stage
  // chains (they are what the small PRRs can host).
  auto cls = [](const char* tag, std::vector<std::string> modules,
                double weight) {
    AppClass c;
    c.tag = tag;
    c.modules = std::move(modules);
    c.weight = weight;
    return c;
  };
  return {
      cls("tap", {"passthrough"}, 2.0),
      cls("amp", {"gain_x2"}, 2.0),
      cls("bias", {"offset_100"}, 2.0),
      cls("crc", {"checksum"}, 1.5),
      cls("avg", {"ma8"}, 1.5),
      cls("smooth", {"fir4_smooth"}, 1.5),
      cls("amp+bias", {"gain_x2", "offset_100"}, 1.0),
  };
}

ScenarioSpec ScenarioSpec::standard(std::uint64_t seed,
                                    std::uint64_t lifetimes) {
  ScenarioSpec s;
  s.seed = seed;
  s.classes = standard_classes();

  auto phase = [](const char* name, Arrivals a, double mean,
                  std::uint64_t n) {
    Phase p;
    p.name = name;
    p.arrivals = a;
    p.mean_interarrival_cycles = mean;
    p.submissions = n;
    return p;
  };
  const std::uint64_t warmup = lifetimes / 20;        // 5%
  const std::uint64_t bursty = (lifetimes * 3) / 10;  // 30%
  // Armed fault injection keeps every switch box awake (docs/SIMULATOR.md
  // section 5), so each storm launch ticks the boxes through its
  // multi-million-cycle PR transfer edge by edge. A dozen storm
  // lifetimes give the self-healing path plenty of opportunities;
  // scaling the phase with the lifetime budget would just scale wall
  // time.
  const std::uint64_t churn = lifetimes / 5;          // 20%
  const std::uint64_t storm =
      std::min({lifetimes - warmup - bursty - churn,
                std::max<std::uint64_t>(lifetimes / 20, 1),
                std::uint64_t{12}});
  const std::uint64_t steady =
      lifetimes - warmup - bursty - storm - churn;    // remainder (~40%)

  // Interarrival means sit on the PR-transfer scale (a launch charges
  // 1.5M..4.4M MicroBlaze cycles on this floorplan) and under the mean
  // resident hold (~7M cycles), so tenants overlap: steady load keeps
  // the fabric ~70% subscribed, bursts oversubscribe it (rejections,
  // preemptions), quiet windows let it drain.
  s.phases.push_back(
      phase("warmup", Arrivals::kPoisson, 4.0e6, warmup));
  s.phases.push_back(
      phase("steady", Arrivals::kPoisson, 2.5e6, steady));
  Phase diurnal =
      phase("bursty-diurnal", Arrivals::kBurstyDiurnal, 3.0e6, bursty);
  diurnal.burst_fraction = 0.25;
  diurnal.burst_rate_multiplier = 8.0;
  diurnal.burst_length = 16;
  s.phases.push_back(diurnal);
  Phase storm_phase = phase("fault-storm", Arrivals::kPoisson, 2.5e6, storm);
  storm_phase.icap_fault_probability = 0.02;
  // Small-footprint classes only (see Phase::class_weights): the storm
  // keeps the switch boxes awake, and a small site's bitstream costs a
  // third of a big one's per launch.
  storm_phase.class_weights = {2.0, 2.0, 2.0, 1.5, 0.0, 0.0, 0.0};
  s.phases.push_back(storm_phase);
  Phase churn_phase = phase("churn", Arrivals::kPoisson, 1.5e6, churn);
  churn_phase.churn_stop_probability = 0.4;
  s.phases.push_back(churn_phase);
  return s;
}

ScenarioSpec ScenarioSpec::standard_fleet(std::uint64_t seed,
                                          std::uint64_t lifetimes,
                                          int num_tenants, int num_fabrics) {
  VAPRES_REQUIRE(num_fabrics >= 1, "fleet scenario needs >= 1 fabric");
  ScenarioSpec s;
  s.seed = seed;
  s.classes = standard_classes();
  s.num_tenants = num_tenants;

  auto phase = [num_fabrics](const char* name, Arrivals a, double mean,
                             std::uint64_t n) {
    Phase p;
    p.name = name;
    p.arrivals = a;
    // A fleet with N fabrics has N fabrics' worth of service capacity;
    // offer it N times the single-fabric arrival rate so the router has
    // real load to spread.
    p.mean_interarrival_cycles = mean / static_cast<double>(num_fabrics);
    p.submissions = n;
    return p;
  };
  // No fault-storm phase: armed injection keeps every fabric's switch
  // boxes awake, and a fleet multiplies that wall-time cost by N.
  const std::uint64_t warmup = lifetimes / 20;        // 5%
  const std::uint64_t bursty = (lifetimes * 3) / 10;  // 30%
  const std::uint64_t churn = lifetimes / 4;          // 25%
  const std::uint64_t steady = lifetimes - warmup - bursty - churn;

  s.phases.push_back(phase("warmup", Arrivals::kPoisson, 4.0e6, warmup));
  s.phases.push_back(phase("steady", Arrivals::kPoisson, 2.5e6, steady));
  Phase diurnal =
      phase("bursty-diurnal", Arrivals::kBurstyDiurnal, 3.0e6, bursty);
  diurnal.burst_fraction = 0.25;
  diurnal.burst_rate_multiplier = 8.0;
  diurnal.burst_length = 16;
  s.phases.push_back(diurnal);
  Phase churn_phase =
      phase("migration-churn", Arrivals::kPoisson, 1.5e6, churn);
  churn_phase.churn_stop_probability = 0.2;
  churn_phase.migrate_probability = 0.3;
  s.phases.push_back(churn_phase);
  return s;
}

ScenarioGenerator::ScenarioGenerator(ScenarioSpec spec)
    : spec_(std::move(spec)),
      rng_(spec_.seed),
      side_rng_(spec_.seed ^ 0x9e3779b97f4a7c15ULL) {
  VAPRES_REQUIRE(!spec_.classes.empty(), "scenario needs app classes");
  VAPRES_REQUIRE(spec_.num_tenants >= 1, "scenario needs >= 1 tenant");
  for (const AppClass& c : spec_.classes) {
    VAPRES_REQUIRE(c.weight > 0.0, "class " + c.tag + ": weight must be > 0");
    VAPRES_REQUIRE(!c.modules.empty(), "class " + c.tag + ": empty chain");
    total_weight_ += c.weight;
  }
  for (const Phase& ph : spec_.phases) {
    if (ph.class_weights.empty()) continue;
    VAPRES_REQUIRE(ph.class_weights.size() == spec_.classes.size(),
                   "phase " + ph.name + ": class_weights must have one " +
                       "entry per class");
    double total = 0.0;
    for (const double w : ph.class_weights) {
      VAPRES_REQUIRE(w >= 0.0, "phase " + ph.name + ": negative weight");
      total += w;
    }
    VAPRES_REQUIRE(total > 0.0,
                   "phase " + ph.name + ": all class weights are zero");
  }
}

const Phase* ScenarioGenerator::current_phase() const {
  std::size_t ph = phase_;
  std::uint64_t emitted = emitted_in_phase_;
  while (ph < spec_.phases.size() && emitted >= spec_.phases[ph].submissions) {
    ++ph;
    emitted = 0;
  }
  return ph < spec_.phases.size() ? &spec_.phases[ph] : nullptr;
}

std::size_t ScenarioGenerator::pick_class(const Phase& ph) {
  const bool override = !ph.class_weights.empty();
  double total = total_weight_;
  if (override) {
    total = 0.0;
    for (const double w : ph.class_weights) total += w;
  }
  double x = rng_.next_double() * total;
  std::size_t last = 0;
  for (std::size_t i = 0; i < spec_.classes.size(); ++i) {
    const double w = override ? ph.class_weights[i] : spec_.classes[i].weight;
    if (w <= 0.0) continue;
    last = i;
    x -= w;
    if (x < 0.0) return i;
  }
  return last;  // floating-point edge
}

double ScenarioGenerator::sample_interarrival(const Phase& ph) {
  // Exponential draw via inverse CDF; clamp u away from 0 so the log is
  // finite. One RNG draw per gap regardless of the process, so the
  // stream layout is stable across phase-parameter tweaks.
  const double u = std::max(rng_.next_double(), 1e-12);
  double mean = ph.mean_interarrival_cycles;
  if (ph.arrivals == Arrivals::kBurstyDiurnal) {
    if (burst_left_ == 0 && quiet_left_ == 0) {
      // Start a quiet window, then a burst, alternating. Window sizes
      // are deterministic; the Poisson jitter stays in the gaps.
      const double bf = std::clamp(ph.burst_fraction, 0.01, 0.99);
      quiet_left_ = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(
                 static_cast<double>(ph.burst_length) * (1.0 - bf) / bf));
      burst_left_ = std::max<std::uint64_t>(1, ph.burst_length);
    }
    if (quiet_left_ > 0) {
      --quiet_left_;
    } else {
      --burst_left_;
      mean /= std::max(ph.burst_rate_multiplier, 1.0);
    }
  }
  return -mean * std::log(1.0 - u);
}

std::optional<WorkloadEvent> ScenarioGenerator::next() {
  while (phase_ < spec_.phases.size() &&
         emitted_in_phase_ >= spec_.phases[phase_].submissions) {
    ++phase_;
    emitted_in_phase_ = 0;
    burst_left_ = 0;
    quiet_left_ = 0;
  }
  if (phase_ >= spec_.phases.size()) return std::nullopt;
  const Phase& ph = spec_.phases[phase_];

  WorkloadEvent ev;
  ev.sequence = sequence_++;
  ev.phase_index = phase_;
  ev.storm = ph.icap_fault_probability > 0.0;
  clock_ += sample_interarrival(ph);
  ev.at_cycle = static_cast<std::uint64_t>(clock_);
  ev.class_index = pick_class(ph);
  const AppClass& c = spec_.classes[ev.class_index];

  ev.request.name = c.tag + "-" + std::to_string(ev.sequence);
  ev.request.modules = c.modules;
  ev.request.priority = static_cast<int>(
      rng_.next_in(static_cast<std::uint64_t>(c.min_priority),
                   static_cast<std::uint64_t>(c.max_priority)));
  const int shift = static_cast<int>(
      rng_.next_in(static_cast<std::uint64_t>(c.min_interval_shift),
                   static_cast<std::uint64_t>(c.max_interval_shift)));
  ev.request.source_interval_cycles = 2 << shift;
  ev.request.source_words = rng_.next_in(c.min_words, c.max_words);
  ev.hold_cycles = rng_.next_in(c.min_hold_cycles, c.max_hold_cycles);
  // The churn draw happens unconditionally so event streams only differ
  // where specs differ, never downstream of a skipped draw.
  ev.churn_stop = rng_.chance(ph.churn_stop_probability);
  // Fleet-era draws live on the side stream (same unconditional-draw
  // rule): the main stream above stays bit-identical to pre-fleet specs.
  ev.tenant = static_cast<int>(side_rng_.next_below(
      static_cast<std::uint64_t>(spec_.num_tenants)));
  ev.migrate = side_rng_.chance(ph.migrate_probability);

  ++emitted_in_phase_;
  return ev;
}

}  // namespace vapres::load
