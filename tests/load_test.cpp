// Seeded workload generator (src/load/scenario.*): determinism, arrival
// statistics, class-mix fidelity, and fault-storm arming. ctest label:
// load.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "load/scenario.hpp"
#include "load/soak.hpp"
#include "sim/check.hpp"
#include "sim/fault.hpp"

namespace vapres {
namespace {

/// Serializes every field of every event, so equality is byte-for-byte
/// over the whole stream, not just spot fields.
std::string drain_to_string(load::ScenarioGenerator& gen) {
  std::ostringstream out;
  while (auto ev = gen.next()) {
    out << ev->sequence << '|' << ev->at_cycle << '|' << ev->class_index
        << '|' << ev->phase_index << '|' << ev->storm << '|'
        << ev->churn_stop << '|' << ev->hold_cycles << '|'
        << ev->request.name << '|' << ev->request.priority << '|'
        << ev->request.source_interval_cycles << '|'
        << ev->request.source_words << '|';
    for (const std::string& m : ev->request.modules) out << m << ',';
    out << '\n';
  }
  return out.str();
}

TEST(ScenarioGenerator, SameSeedIsByteForByteDeterministic) {
  const load::ScenarioSpec spec = load::ScenarioSpec::standard(42, 2'000);
  load::ScenarioGenerator a(spec);
  load::ScenarioGenerator b(spec);
  const std::string sa = drain_to_string(a);
  EXPECT_EQ(sa, drain_to_string(b));
  EXPECT_FALSE(sa.empty());

  load::ScenarioGenerator c(load::ScenarioSpec::standard(43, 2'000));
  EXPECT_NE(sa, drain_to_string(c));
}

TEST(ScenarioGenerator, EmitsExactlyTheSpecifiedSubmissions) {
  const load::ScenarioSpec spec = load::ScenarioSpec::standard(7, 1'234);
  EXPECT_EQ(spec.total_submissions(), 1'234u);
  load::ScenarioGenerator gen(spec);
  std::uint64_t n = 0;
  std::uint64_t last_at = 0;
  std::size_t last_phase = 0;
  while (auto ev = gen.next()) {
    EXPECT_EQ(ev->sequence, n);
    EXPECT_GE(ev->at_cycle, last_at) << "arrival time went backwards";
    EXPECT_GE(ev->phase_index, last_phase) << "phase index went backwards";
    last_at = ev->at_cycle;
    last_phase = ev->phase_index;
    ++n;
  }
  EXPECT_EQ(n, 1'234u);
  EXPECT_EQ(gen.current_phase(), nullptr);
}

TEST(ScenarioGenerator, PoissonArrivalRateWithinTolerance) {
  load::ScenarioSpec spec;
  spec.seed = 99;
  spec.classes = load::standard_classes();
  load::Phase ph;
  ph.name = "steady";
  ph.arrivals = load::Arrivals::kPoisson;
  ph.mean_interarrival_cycles = 5'000.0;
  ph.submissions = 20'000;
  spec.phases = {ph};

  load::ScenarioGenerator gen(spec);
  std::uint64_t last = 0;
  double sum = 0.0;
  std::uint64_t n = 0;
  while (auto ev = gen.next()) {
    sum += static_cast<double>(ev->at_cycle - last);
    last = ev->at_cycle;
    ++n;
  }
  ASSERT_EQ(n, 20'000u);
  const double mean = sum / static_cast<double>(n);
  // Std error of an exponential mean at n=20000 is mean/sqrt(n) ~ 0.7%;
  // 3% tolerance is ~4 sigma on a fixed seed.
  EXPECT_NEAR(mean, 5'000.0, 150.0);
}

TEST(ScenarioGenerator, BurstyDiurnalAlternatesDenseAndQuietWindows) {
  load::ScenarioSpec spec;
  spec.seed = 5;
  spec.classes = load::standard_classes();
  load::Phase ph;
  ph.name = "diurnal";
  ph.arrivals = load::Arrivals::kBurstyDiurnal;
  ph.mean_interarrival_cycles = 10'000.0;
  ph.burst_fraction = 0.25;
  ph.burst_rate_multiplier = 8.0;
  ph.burst_length = 16;
  ph.submissions = 8'000;
  spec.phases = {ph};

  // Gap population should be strongly bimodal: burst gaps drawn at
  // mean/8, quiet gaps at mean. Split at half the quiet mean and check
  // both the burst share and the two conditional means.
  load::ScenarioGenerator gen(spec);
  std::uint64_t last = 0;
  double burst_sum = 0.0, quiet_sum = 0.0;
  std::uint64_t burst_n = 0, quiet_n = 0;
  while (auto ev = gen.next()) {
    const double gap = static_cast<double>(ev->at_cycle - last);
    last = ev->at_cycle;
    if (gap < 5'000.0) {
      burst_sum += gap;
      ++burst_n;
    } else {
      quiet_sum += gap;
      ++quiet_n;
    }
  }
  const double burst_share =
      static_cast<double>(burst_n) / static_cast<double>(burst_n + quiet_n);
  // Bursts cover ~25% of submissions; exponential overlap across the
  // split point blurs the boundary in both directions.
  EXPECT_GT(burst_share, 0.25);
  EXPECT_LT(burst_share, 0.65);
  ASSERT_GT(burst_n, 0u);
  ASSERT_GT(quiet_n, 0u);
  EXPECT_LT(burst_sum / static_cast<double>(burst_n), 3'000.0);
  EXPECT_GT(quiet_sum / static_cast<double>(quiet_n), 7'000.0);
}

TEST(ScenarioGenerator, ClassMixHonorsWeights) {
  load::ScenarioSpec spec;
  spec.seed = 11;
  spec.classes = load::standard_classes();
  load::Phase ph;
  ph.name = "steady";
  ph.submissions = 30'000;
  spec.phases = {ph};

  double total_weight = 0.0;
  for (const auto& c : spec.classes) total_weight += c.weight;

  load::ScenarioGenerator gen(spec);
  std::map<std::size_t, std::uint64_t> counts;
  while (auto ev = gen.next()) ++counts[ev->class_index];

  for (std::size_t i = 0; i < spec.classes.size(); ++i) {
    const double expected = 30'000.0 * spec.classes[i].weight / total_weight;
    const double got = static_cast<double>(counts[i]);
    // 3-sigma binomial band around the expectation.
    const double sigma = std::sqrt(expected * (1.0 - spec.classes[i].weight /
                                                         total_weight));
    EXPECT_NEAR(got, expected, 4.0 * sigma)
        << "class " << spec.classes[i].tag;
  }
}

TEST(ScenarioGenerator, PhaseClassWeightOverrideRestrictsTheMix) {
  // The standard scenario's fault-storm phase must only draw the
  // small-footprint classes (its class_weights zero the big filters).
  const load::ScenarioSpec spec = load::ScenarioSpec::standard(21, 4'000);
  std::size_t storm_phase = spec.phases.size();
  for (std::size_t i = 0; i < spec.phases.size(); ++i) {
    if (spec.phases[i].icap_fault_probability > 0.0) storm_phase = i;
  }
  ASSERT_LT(storm_phase, spec.phases.size());
  const auto& weights = spec.phases[storm_phase].class_weights;
  ASSERT_EQ(weights.size(), spec.classes.size());

  load::ScenarioGenerator gen(spec);
  std::uint64_t storm_events = 0;
  while (auto ev = gen.next()) {
    if (ev->phase_index != storm_phase) continue;
    ++storm_events;
    EXPECT_TRUE(ev->storm);
    EXPECT_GT(weights[ev->class_index], 0.0)
        << "storm drew zero-weight class "
        << spec.classes[ev->class_index].tag;
  }
  EXPECT_GT(storm_events, 0u);
}

TEST(ScenarioGenerator, RequestFieldsStayInClassRanges) {
  const load::ScenarioSpec spec = load::ScenarioSpec::standard(3, 1'000);
  load::ScenarioGenerator gen(spec);
  while (auto ev = gen.next()) {
    const load::AppClass& c = spec.classes[ev->class_index];
    EXPECT_EQ(ev->request.modules, c.modules);
    EXPECT_GE(ev->request.priority, c.min_priority);
    EXPECT_LE(ev->request.priority, c.max_priority);
    EXPECT_GE(ev->request.source_interval_cycles, 2 << c.min_interval_shift);
    EXPECT_LE(ev->request.source_interval_cycles, 2 << c.max_interval_shift);
    EXPECT_GE(ev->request.source_words, c.min_words);
    EXPECT_LE(ev->request.source_words, c.max_words);
    EXPECT_GE(ev->hold_cycles, c.min_hold_cycles);
    EXPECT_LE(ev->hold_cycles, c.max_hold_cycles);
  }
}

TEST(ScenarioGenerator, RejectsMalformedSpecs) {
  load::ScenarioSpec no_classes;
  no_classes.phases.push_back({});
  EXPECT_THROW(load::ScenarioGenerator{no_classes}, ModelError);

  load::ScenarioSpec bad_override;
  bad_override.classes = load::standard_classes();
  load::Phase ph;
  ph.class_weights = {1.0};  // wrong arity
  bad_override.phases = {ph};
  EXPECT_THROW(load::ScenarioGenerator{bad_override}, ModelError);
}

TEST(FaultStorm, StormPhaseArmsTheInjectorAndLeavesItDisabled) {
  // A storm-only scenario through the real soak harness: the ICAP site
  // must see opportunities (prove the phase armed sim::FaultInjector on
  // the live reconfiguration path), and the injector must be off again
  // when run_soak returns.
  load::SoakOptions opt;
  // Armed injection keeps the switch boxes awake (docs/SIMULATOR.md §5),
  // so every cycle under the storm ticks them: keep the arrivals tight
  // and the count tiny or this test runs in minutes.
  opt.seed = 17;
  opt.lifetimes = 3;
  load::ScenarioSpec spec;
  spec.classes = load::standard_classes();
  load::Phase storm;
  storm.name = "storm";
  storm.mean_interarrival_cycles = 1.0e5;
  storm.submissions = 3;
  storm.icap_fault_probability = 0.5;
  storm.class_weights = {2.0, 2.0, 2.0, 1.5, 0.0, 0.0, 0.0};
  spec.phases = {storm};
  opt.scenario = spec;

  const load::SoakResult res = load::run_soak(opt);
  EXPECT_TRUE(res.invariants.ok()) << res.invariants.to_string();
  EXPECT_GT(res.fault_opportunities, 0u);
  EXPECT_GT(res.faults_injected, 0u);
  EXPECT_FALSE(sim::FaultInjector::instance().enabled());
}

}  // namespace
}  // namespace vapres
