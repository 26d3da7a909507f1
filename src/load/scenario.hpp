// Seeded workload generation for sustained-load (soak) runs.
//
// A ScenarioGenerator turns one ScenarioSpec — weighted application
// classes drawn from the example app mix, plus a list of phases with
// different arrival processes — into a deterministic stream of
// submission events. Same spec (including seed), same events, bit for
// bit: every draw comes from one SplitMix64 stream consumed in a fixed
// order, so a soak run, a failing shrink, and a CI replay all see the
// identical workload. Phases model the load shapes the elastic
// multi-tenant literature describes: steady Poisson arrivals, bursty
// "diurnal" traffic, fault storms (ICAP-level injection while the
// self-healing reconfig path keeps admitting), and adversarial churn
// (early teardowns racing fresh admissions).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "core/params.hpp"
#include "sched/request.hpp"
#include "sim/random.hpp"

namespace vapres::load {

/// One weighted application class: the template a submission is drawn
/// from. Ranges are sampled uniformly per submission.
struct AppClass {
  std::string tag;                    ///< name prefix ("amp", "tap", ...)
  std::vector<std::string> modules;   ///< chain, library module ids
  double weight = 1.0;                ///< relative class-mix weight
  int min_priority = 1;
  int max_priority = 3;
  /// Source interval is 2 << k cycles, k uniform in [lo, hi] — the
  /// example server's rate ladder (1/2, 1/4, .. words per cycle).
  int min_interval_shift = 0;
  int max_interval_shift = 2;
  /// Finite source length in words, uniform in [min, max]. The stream
  /// itself is short; the app then stays resident (holding its PRRs and
  /// IOM channels, quiescent) until its hold expires.
  std::uint64_t min_words = 32;
  std::uint64_t max_words = 256;
  /// Resident lifetime in system cycles from launch, uniform in
  /// [min, max]. Sized on the same scale as a PR transfer (millions of
  /// cycles) so concurrent tenants actually overlap and contend — the
  /// knob that turns arrival bursts into admission rejections.
  std::uint64_t min_hold_cycles = 2'000'000;
  std::uint64_t max_hold_cycles = 12'000'000;
};

enum class Arrivals {
  kPoisson,        ///< exponential interarrival at a fixed mean rate
  kBurstyDiurnal,  ///< alternating quiet / burst windows (peak-hour load)
};

/// One contiguous slice of the scenario. Phases are event-counted (not
/// wall-timed) so a spec scales linearly with the lifetime budget.
struct Phase {
  std::string name;
  Arrivals arrivals = Arrivals::kPoisson;
  /// Mean cycles between submissions (the quiet-time mean for bursty).
  double mean_interarrival_cycles = 2000.0;
  std::uint64_t submissions = 0;
  /// Bursty-diurnal shape: every burst is `burst_length` submissions at
  /// `burst_rate_multiplier` times the base rate, and bursts cover
  /// roughly `burst_fraction` of the phase's submissions.
  double burst_fraction = 0.25;
  double burst_rate_multiplier = 8.0;
  std::uint64_t burst_length = 16;
  /// Fault storm: per-opportunity ICAP corruption probability while the
  /// phase runs (0 = storm off). Restricted to ICAP sites by design —
  /// the reconfig layer self-heals those, so loss-free stream
  /// invariants stay assertable right through the storm.
  double icap_fault_probability = 0.0;
  /// Adversarial churn: probability that a submission is paired with an
  /// early stop of the oldest running app.
  double churn_stop_probability = 0.0;
  /// Fleet migration churn: probability that a submission is paired with
  /// a cross-fabric migration of a running app (fleet drivers only;
  /// single-fabric drivers ignore the flag).
  double migrate_probability = 0.0;
  /// Per-phase class-mix override: when non-empty must have one weight
  /// per spec class (0 = class never drawn this phase). Empty uses the
  /// global class weights. Fault-storm phases use this to stay on the
  /// small-footprint classes: injection keeps every switch box awake, so
  /// storm cost scales with the bitstreams configured under it.
  std::vector<double> class_weights;
};

struct ScenarioSpec {
  std::uint64_t seed = 1;
  std::vector<AppClass> classes;
  std::vector<Phase> phases;
  /// Tenants submissions are attributed to (round-robin weight-free
  /// uniform draw per event). Tenancy draws come from a side RNG stream,
  /// so raising this never perturbs the workload stream itself.
  int num_tenants = 1;

  std::uint64_t total_submissions() const;

  /// The standard soak scenario: the example app mix over warmup /
  /// steady-Poisson / bursty-diurnal / fault-storm / churn phases,
  /// scaled so the whole scenario submits exactly `lifetimes` apps.
  static ScenarioSpec standard(std::uint64_t seed, std::uint64_t lifetimes);

  /// The fleet soak scenario: multi-tenant, no fault storm (a storm keeps
  /// every fabric's switch boxes awake), with a closing
  /// migration-churn phase that pairs submissions with cross-fabric
  /// moves. Interarrival means are divided by `num_fabrics` so an
  /// N-fabric fleet sees N fabrics' worth of offered load.
  static ScenarioSpec standard_fleet(std::uint64_t seed,
                                     std::uint64_t lifetimes,
                                     int num_tenants, int num_fabrics);
};

/// The fragmentation-prone 4-PRR / 3-IOM server floorplan shared by the
/// multi_app_server example and the soak harness.
core::SystemParams server_params();

/// The example application mix (the multi_app_server flavor table).
std::vector<AppClass> standard_classes();

/// One generated submission.
struct WorkloadEvent {
  std::uint64_t sequence = 0;   ///< 0-based submission index
  std::uint64_t at_cycle = 0;   ///< absolute system-clock arrival cycle
  std::size_t class_index = 0;  ///< into spec().classes
  std::size_t phase_index = 0;  ///< into spec().phases
  bool storm = false;           ///< emitted inside a fault-storm phase
  bool churn_stop = false;      ///< pair with an early stop of a runner
  /// Submitting tenant, in [0, spec().num_tenants).
  int tenant = 0;
  /// Pair with a cross-fabric migration of a running app (fleet only).
  bool migrate = false;
  /// Resident lifetime from launch, in system cycles (see AppClass).
  std::uint64_t hold_cycles = 0;
  sched::AppRequest request;
};

class ScenarioGenerator {
 public:
  explicit ScenarioGenerator(ScenarioSpec spec);

  /// The next submission, or nullopt once every phase is exhausted.
  std::optional<WorkloadEvent> next();

  const ScenarioSpec& spec() const { return spec_; }
  /// Phase the *next* event will come from; nullptr when exhausted.
  const Phase* current_phase() const;

  /// The generator's cursors as one checkpoint field list
  /// (snap/format.hpp): restoring them into a generator built from the
  /// same spec resumes the event stream exactly where it left off.
  template <class Archive>
  void fields(Archive& ar) {
    std::uint64_t rng = rng_.state();
    std::uint64_t side_rng = side_rng_.state();
    ar.u64(rng);
    ar.u64(side_rng);
    if constexpr (std::decay_t<Archive>::kLoading) {
      rng_.set_state(rng);
      side_rng_.set_state(side_rng);
    }
    ar.u64(phase_);
    ar.u64(emitted_in_phase_);
    ar.u64(sequence_);
    ar.f64(clock_);
    ar.u64(burst_left_);
    ar.u64(quiet_left_);
  }

 private:
  double sample_interarrival(const Phase& ph);
  std::size_t pick_class(const Phase& ph);

  ScenarioSpec spec_;
  sim::SplitMix64 rng_;
  /// Side stream for the fleet-era draws (tenant, migrate). Kept apart
  /// from rng_ so pre-fleet scenarios replay the exact same workload
  /// stream — and digests — they did before these fields existed.
  sim::SplitMix64 side_rng_;
  double total_weight_ = 0.0;
  std::size_t phase_ = 0;
  std::uint64_t emitted_in_phase_ = 0;
  std::uint64_t sequence_ = 0;
  double clock_ = 0.0;  ///< accumulated arrival time, in cycles
  // Bursty-diurnal alternation state (submission-counted windows).
  std::uint64_t burst_left_ = 0;
  std::uint64_t quiet_left_ = 0;
};

}  // namespace vapres::load
