// Activity-driven simulation kernel (ctest label: simkernel).
//
// Two halves:
//   1. Kernel unit tests — quiescence/wake mechanics, analytic
//      fast-forward bookkeeping, mid-tick detach (regression), and the
//      inclusive run_until deadline.
//   2. Lockstep differential tests — seeded random full-system and bare
//      switch-fabric scenarios run twice, once on the activity-driven
//      kernel and once on the exhaustive tick-everything reference
//      (set_activity_driven(false)), asserting bit-identical cycle counts,
//      stream outputs, fabric wires, and processor accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "comm/module_interface.hpp"
#include "core/scrubber.hpp"
#include "core/stats.hpp"
#include "sched/scheduler.hpp"
#include "sim/fault.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"

namespace vapres {
namespace {

using sim::Clocked;
using sim::ClockDomain;
using sim::Cycles;
using sim::Simulator;

// ------------------------------------------------------------ unit rigs

/// Counter with a scriptable quiescence report.
class Idler final : public Clocked {
 public:
  int evals = 0;
  int commits = 0;
  bool idle = false;  ///< quiescent() report
  void eval() override { ++evals; }
  void commit() override { ++commits; }
  bool quiescent() const override { return idle; }
};

/// Commits `n` cycles of work, then reports quiescent.
class FiniteWorker final : public Clocked {
 public:
  explicit FiniteWorker(int n) : remaining_(n) {}
  int commits = 0;
  void eval() override {}
  void commit() override {
    ++commits;
    if (remaining_ > 0) --remaining_;
  }
  bool quiescent() const override { return remaining_ == 0; }

 private:
  int remaining_;
};

// -------------------------------------------------- detach during tick
// Regression: ClockDomain::detach used to erase from the component vector
// the tick loop was iterating, invalidating the loop's view (skipped or
// double-delivered neighbours, potential OOB). A module evicted during
// its own commit — exactly what ModuleSwitcher does — hit this.

class Evictor final : public Clocked {
 public:
  Evictor(ClockDomain& d, std::vector<Clocked*> victims)
      : domain_(d), victims_(std::move(victims)) {}
  int commits = 0;
  void eval() override {}
  void commit() override {
    ++commits;
    for (Clocked* v : victims_) domain_.detach(v);
    victims_.clear();
  }

 private:
  ClockDomain& domain_;
  std::vector<Clocked*> victims_;
};

TEST(DetachDuringTick, EvictingNeighborsMidCommitIsSafe) {
  Simulator sim;
  auto& d = sim.create_domain("clk", 100.0);
  Idler before;   // earlier slot than the evictor
  Idler after;    // later slot: must not receive this tick's commit
  Evictor evictor(d, {&before, &after});
  d.attach(&before);
  d.attach(&evictor);
  d.attach(&after);

  sim.run_cycles(d, 1);
  // `before` was visited before the evictor ran; `after` was not.
  EXPECT_EQ(before.commits, 1);
  EXPECT_EQ(evictor.commits, 1);
  EXPECT_EQ(after.commits, 0);

  sim.run_cycles(d, 5);
  EXPECT_EQ(before.commits, 1);  // detached: no further edges
  EXPECT_EQ(after.commits, 0);
  EXPECT_EQ(evictor.commits, 6);
}

class SelfEvictor final : public Clocked {
 public:
  explicit SelfEvictor(ClockDomain& d) : domain_(d) {}
  int commits = 0;
  void eval() override {}
  void commit() override {
    ++commits;
    domain_.detach(this);
  }

 private:
  ClockDomain& domain_;
};

TEST(DetachDuringTick, SelfDetachMidCommitIsSafe) {
  Simulator sim;
  auto& d = sim.create_domain("clk", 100.0);
  Idler other;
  SelfEvictor self(d);
  d.attach(&self);
  d.attach(&other);
  sim.run_cycles(d, 3);
  EXPECT_EQ(self.commits, 1);
  EXPECT_EQ(other.commits, 3);  // later slot still got every edge
}

TEST(DetachDuringTick, ReattachAfterMidTickDetachWorks) {
  Simulator sim;
  auto& d = sim.create_domain("clk", 100.0);
  SelfEvictor self(d);
  d.attach(&self);
  sim.run_cycles(d, 1);
  EXPECT_EQ(self.commits, 1);
  d.attach(&self);
  sim.run_cycles(d, 1);
  EXPECT_EQ(self.commits, 2);
}

// ------------------------------------------------------ quiescence core

TEST(Quiescence, QuiescentComponentStopsReceivingEdges) {
  Simulator sim;
  auto& d = sim.create_domain("clk", 100.0);
  Idler busy;
  Idler idle;
  idle.idle = true;
  d.attach(&busy);
  d.attach(&idle);
  sim.run_cycles(d, 100);
  EXPECT_EQ(busy.commits, 100);
  // The idle component is deactivated at the first quiescence poll; it
  // receives at most one poll interval's worth of edges.
  EXPECT_LE(idle.commits, 16);
  EXPECT_EQ(d.cycle_count(), 100u);
  EXPECT_EQ(d.active_components(), 1);
  EXPECT_GT(d.kernel_stats().edges_skipped, 0u);
}

TEST(Quiescence, WakeReArmsComponent) {
  Simulator sim;
  auto& d = sim.create_domain("clk", 100.0);
  Idler busy;
  Idler idle;
  idle.idle = true;
  d.attach(&busy);
  d.attach(&idle);
  sim.run_cycles(d, 100);
  const int before = idle.commits;
  idle.idle = false;
  idle.wake();
  sim.run_cycles(d, 10);
  EXPECT_EQ(idle.commits, before + 10);
}

TEST(Quiescence, FullyAsleepDomainCoastsWithExactCycleCount) {
  Simulator sim;
  auto& active = sim.create_domain("active", 100.0);
  auto& lazy = sim.create_domain("lazy", 100.0);
  Idler busy;
  FiniteWorker worker(10);
  active.attach(&busy);
  lazy.attach(&worker);
  sim.run_cycles(active, 1000);
  // The lazy domain slept after ~10 + poll-interval edges, but its cycle
  // counter was fast-forwarded analytically.
  EXPECT_EQ(lazy.cycle_count(), 1000u);
  EXPECT_TRUE(lazy.asleep());
  EXPECT_LE(worker.commits, 32);
  EXPECT_GT(lazy.kernel_stats().domain_sleeps, 0u);
}

TEST(Quiescence, RunCyclesOnAsleepDomainCoasts) {
  Simulator sim;
  auto& d = sim.create_domain("clk", 100.0);
  FiniteWorker worker(5);
  d.attach(&worker);
  sim.run_cycles(d, 500);
  EXPECT_EQ(d.cycle_count(), 500u);
  EXPECT_EQ(sim.now(), d.cycles_to_ps(500));
}

TEST(Quiescence, FrequencyChangeWhileAsleepKeepsAccounting) {
  Simulator sim;
  auto& active = sim.create_domain("active", 100.0);
  auto& lazy = sim.create_domain("lazy", 100.0);
  Idler busy;
  FiniteWorker worker(4);
  active.attach(&busy);
  lazy.attach(&worker);
  sim.run_cycles(active, 500);
  EXPECT_EQ(lazy.cycle_count(), 500u);
  lazy.set_frequency_mhz(50.0);  // retune while fully asleep
  sim.run_cycles(active, 500);
  EXPECT_EQ(lazy.cycle_count(), 500u + 250u);
}

TEST(Quiescence, GatingWhileAsleepSuspendsCycleCredit) {
  Simulator sim;
  auto& active = sim.create_domain("active", 100.0);
  auto& lazy = sim.create_domain("lazy", 100.0);
  Idler busy;
  FiniteWorker worker(4);
  active.attach(&busy);
  lazy.attach(&worker);
  sim.run_cycles(active, 100);
  lazy.set_enabled(false);
  sim.run_cycles(active, 100);
  EXPECT_EQ(lazy.cycle_count(), 100u);  // gated: no credit
  lazy.set_enabled(true);
  sim.run_cycles(active, 100);
  EXPECT_EQ(lazy.cycle_count(), 200u);
}

TEST(Quiescence, ExhaustiveModeDeliversEveryEdge) {
  Simulator sim;
  sim.set_activity_driven(false);
  auto& d = sim.create_domain("clk", 100.0);
  Idler idle;
  idle.idle = true;
  d.attach(&idle);
  sim.run_cycles(d, 50);
  EXPECT_EQ(idle.commits, 50);
  EXPECT_EQ(sim.kernel_stats().edges_skipped, 0u);
}

TEST(Quiescence, FifoWakeTargetReArmsSleepingReader) {
  // A ConsumerInterface with an idle input sleeps; an external push into
  // its FIFO (changing the feedback-full threshold state) wakes it.
  Simulator sim;
  auto& d = sim.create_domain("clk", 100.0);
  comm::ConsumerInterface cons("cons", 8);
  cons.set_write_enable(true);
  d.attach(&cons);
  sim.run_cycles(d, 64);
  EXPECT_TRUE(d.asleep());
  // Fill past the backpressure threshold from outside the domain.
  for (int i = 0; i < 7; ++i) cons.fifo().push(static_cast<comm::Word>(i));
  EXPECT_FALSE(d.asleep());
  sim.run_cycles(d, 16);
  EXPECT_TRUE(*cons.full_feedback_signal());
  d.detach(&cons);
}

TEST(Quiescence, BoxOffTheRouteSleepsWhileARouteStreams) {
  // Each fabric wire wakes only its one reader, so a box no flit crosses
  // sleeps while a neighbouring route streams.
  test::FabricRig rig(4);
  comm::RouteSpec spec;
  spec.producer_box = 0;
  spec.consumer_box = 1;
  spec.lanes = {0};
  rig.fabric->establish(spec);
  rig.producer(0).set_read_enable(true);
  rig.consumer(1).set_write_enable(true);
  for (comm::Word w = 0; w < 64; ++w) rig.producer(0).fifo().push(w);
  rig.run(8);  // one quiescence poll interval
  EXPECT_TRUE(rig.fabric->box(0).awake());
  EXPECT_TRUE(rig.consumer(1).awake());
  EXPECT_FALSE(rig.fabric->box(3).awake());
  EXPECT_FALSE(rig.consumer(3).awake());
  EXPECT_FALSE(rig.domain->asleep());
}

// ---------------------------------------------- mid-tick wake, sparse
// A domain holding many sleepers per awake component, where one commit
// wakes two sleepers. Activity flags are read at visit time: the sleeper
// in a later slot gets that very cycle's commit, the one in an earlier
// slot its first edge on the next cycle — the cycles at which the
// exhaustive kernel's edges start to have an effect on each.

/// Latches its input wire in commit and logs the cycles it changed.
class Sampler final : public Clocked {
 public:
  explicit Sampler(const ClockDomain& d) : domain_(d) {}
  int wire = 0;  ///< driven by a Pulser
  std::vector<Cycles> changes;
  void eval() override {}
  void commit() override {
    if (wire == latched_) return;
    latched_ = wire;
    changes.push_back(domain_.cycle_count());
  }
  bool quiescent() const override { return wire == latched_; }

 private:
  const ClockDomain& domain_;
  int latched_ = 0;
};

/// Always awake; drives a new value into every sampler at `pulses`.
class Pulser final : public Clocked {
 public:
  Pulser(const ClockDomain& d, std::vector<Sampler*> readers,
         std::vector<Cycles> pulses)
      : domain_(d), readers_(std::move(readers)), pulses_(std::move(pulses)) {}
  void eval() override {}
  void commit() override {
    if (std::find(pulses_.begin(), pulses_.end(), domain_.cycle_count()) ==
        pulses_.end()) {
      return;
    }
    ++value_;
    for (Sampler* r : readers_) sim::drive(r->wire, value_, r);
  }

 private:
  const ClockDomain& domain_;
  std::vector<Sampler*> readers_;
  std::vector<Cycles> pulses_;
  int value_ = 0;
};

struct SparseWakeRun {
  std::vector<Cycles> early;  ///< change cycles of the earlier-slot sleeper
  std::vector<Cycles> late;   ///< change cycles of the later-slot sleeper
  std::uint64_t edges_skipped = 0;
};

SparseWakeRun run_sparse_wake(bool activity,
                              const std::vector<Cycles>& pulses) {
  Simulator sim;
  sim.set_activity_driven(activity);
  auto& d = sim.create_domain("clk", 100.0);
  Sampler early(d);
  Sampler late(d);
  Pulser pulser(d, {&early, &late}, pulses);
  std::vector<std::unique_ptr<Idler>> fillers;
  auto attach_fillers = [&](int n) {
    for (int i = 0; i < n; ++i) {
      fillers.push_back(std::make_unique<Idler>());
      fillers.back()->idle = true;
      d.attach(fillers.back().get());
    }
  };
  // One awake component among ten sleepers.
  d.attach(&early);
  attach_fillers(4);
  d.attach(&pulser);
  d.attach(&late);
  attach_fillers(4);
  sim.run_cycles(d, 200);
  return {early.changes, late.changes, d.kernel_stats().edges_skipped};
}

TEST(Quiescence, MidTickWakeInSparseDomainKeepsVisitOrder) {
  // 21 lands while both samplers are still awake from 20's pulse; the
  // others find them asleep since the last quiescence poll.
  const std::vector<Cycles> pulses{20, 21, 50, 100};
  const SparseWakeRun fast = run_sparse_wake(true, pulses);
  const SparseWakeRun ref = run_sparse_wake(false, pulses);
  std::vector<Cycles> next_cycle;
  for (Cycles p : pulses) next_cycle.push_back(p + 1);
  EXPECT_EQ(fast.late, pulses);
  EXPECT_EQ(fast.early, next_cycle);
  EXPECT_GT(fast.edges_skipped, 0u);  // the sleepers really slept
  EXPECT_EQ(fast.early, ref.early);
  EXPECT_EQ(fast.late, ref.late);
}

// The awake-slot walk reads the domain's bitmask one 64-slot word at a
// time. Across the word boundary a wake must keep the same visit-order
// semantics, a component attached mid-tick must get no edge that tick,
// and a compaction after a self-detach must re-index every slot.

/// Detaches itself during its commit at cycle `at`.
class TimedSelfEvictor final : public Clocked {
 public:
  TimedSelfEvictor(ClockDomain& d, Cycles at) : domain_(d), at_(at) {}
  void eval() override {}
  void commit() override {
    if (domain_.cycle_count() == at_) domain_.detach(this);
  }

 private:
  ClockDomain& domain_;
  Cycles at_;
};

/// Attaches `late` to the domain during its commit at cycle `at`.
class TimedAttacher final : public Clocked {
 public:
  TimedAttacher(ClockDomain& d, Clocked& late, Cycles at)
      : domain_(d), late_(late), at_(at) {}
  void eval() override {}
  void commit() override {
    if (domain_.cycle_count() == at_) domain_.attach(&late_);
  }

 private:
  ClockDomain& domain_;
  Clocked& late_;
  Cycles at_;
};

struct WideDomainRun {
  std::vector<Cycles> low;   ///< change cycles of the word-0 sleeper
  std::vector<Cycles> high;  ///< change cycles of the word-1 sleeper
  int late_commits = 0;      ///< the component attached mid-tick
  int late_evals = 0;
  std::uint64_t edges_skipped = 0;
};

WideDomainRun run_wide_domain(bool activity) {
  Simulator sim;
  sim.set_activity_driven(activity);
  auto& d = sim.create_domain("clk", 100.0);
  std::vector<std::unique_ptr<Idler>> fillers;
  Sampler low(d);
  Sampler high(d);
  // Word 1 wakes word 0 (low: the next cycle); word 0 wakes word 1 (high:
  // the same cycle).
  Pulser from_high(d, {&low}, {20, 21, 50, 130, 200});
  Pulser from_low(d, {&high}, {30, 31, 60, 140, 210});
  TimedSelfEvictor evictor(d, 120);
  Idler late;
  TimedAttacher attacher(d, late, 80);
  int attached = 0;
  auto attach = [&](Clocked* c) {
    d.attach(c);
    ++attached;
  };
  auto attach_fillers_to = [&](int slot) {
    while (attached < slot) {
      fillers.push_back(std::make_unique<Idler>());
      fillers.back()->idle = true;
      attach(fillers.back().get());
    }
  };
  attach_fillers_to(3);
  attach(&low);  // slot 3
  attach_fillers_to(60);
  attach(&from_low);   // slot 60
  attach(&evictor);    // slot 61: its detach shifts every later slot down
  attach(&attacher);   // slot 62
  attach_fillers_to(64);
  attach(&high);       // slot 64, then 63 (word 0) after the compaction
  attach(&from_high);  // slot 65, then 64
  attach_fillers_to(80);  // `late` lands in slot 80, inside word 1
  sim.run_cycles(d, 250);
  return {low.changes, high.changes, late.commits, late.evals,
          d.kernel_stats().edges_skipped};
}

TEST(Quiescence, AwakeWalkAcrossWordBoundaryMatchesExhaustive) {
  const WideDomainRun fast = run_wide_domain(true);
  const WideDomainRun ref = run_wide_domain(false);
  EXPECT_EQ(fast.low, (std::vector<Cycles>{21, 22, 51, 131, 201}));
  EXPECT_EQ(fast.high, (std::vector<Cycles>{30, 31, 60, 140, 210}));
  // Attached during the commit pass of cycle 80: first edge on cycle 81.
  EXPECT_EQ(fast.late_commits, 250 - 81);
  EXPECT_EQ(fast.late_evals, 250 - 81);
  EXPECT_GT(fast.edges_skipped, 0u);  // the fillers and samplers slept
  EXPECT_EQ(fast.low, ref.low);
  EXPECT_EQ(fast.high, ref.high);
  EXPECT_EQ(fast.late_commits, ref.late_commits);
  EXPECT_EQ(fast.late_evals, ref.late_evals);
}

// ------------------------------------------------- run_until / run_for

TEST(RunUntil, DeadlineIsInclusive) {
  Simulator sim;
  auto& d = sim.create_domain("clk", 100.0);  // first edge at 10000 ps
  Idler c;
  d.attach(&c);
  // The only edge inside the window lands exactly on the deadline.
  EXPECT_TRUE(sim.run_until([&] { return c.commits >= 1; }, 10000));
  EXPECT_EQ(sim.now(), 10000u);
}

TEST(RunUntil, EventExactlyAtDeadlineRuns) {
  Simulator sim;
  bool fired = false;
  sim.schedule_after(5000, [&] { fired = true; });
  EXPECT_TRUE(sim.run_until([&] { return fired; }, 5000));
}

TEST(RunUntil, ChecksPredicateAfterCoastingToDeadline) {
  Simulator sim;
  auto& d = sim.create_domain("clk", 100.0);
  FiniteWorker worker(3);
  d.attach(&worker);
  // The domain sleeps long before the deadline; the coast must still
  // credit cycles and evaluate the predicate at the deadline.
  EXPECT_TRUE(sim.run_until([&] { return d.cycle_count() >= 100; },
                            d.cycles_to_ps(100)));
  EXPECT_EQ(sim.now(), d.cycles_to_ps(100));
}

TEST(RunUntil, NeverOvershootsDeadline) {
  Simulator sim;
  auto& d = sim.create_domain("clk", 100.0);
  Idler c;
  d.attach(&c);
  EXPECT_FALSE(sim.run_until([] { return false; }, 35000));
  EXPECT_EQ(sim.now(), 35000u);
}

TEST(RunFor, IdleSystemStillAdvancesToDeadline) {
  Simulator sim;
  auto& d = sim.create_domain("clk", 100.0);
  FiniteWorker worker(2);
  d.attach(&worker);
  sim.run_for(123456);
  EXPECT_EQ(sim.now(), 123456u);
  EXPECT_EQ(d.cycle_count(), 12u);  // edges at 10000..120000
}

// ------------------------------------------------- lockstep scenarios
//
// Each scenario is a deterministic function of (seed); it is run once on
// each kernel and the two digests must match bit-for-bit. The digest
// covers stream payloads, every domain's cycle counter, simulated time,
// and MicroBlaze accounting — everything except the kernel's own
// edge-delivery counters (which by design differ).

core::SystemParams small_params() {
  core::SystemParams p = core::SystemParams::prototype();
  p.rsbs[0].prr_width_clbs = 2;  // small PRRs keep reconfiguration fast
  return p;
}

std::string digest_of(core::VapresSystem& sys) {
  std::ostringstream os;
  os << "now=" << sys.sim().now() << "\n";
  for (const auto& d : sys.sim().domains()) {
    os << "domain " << d->name() << " cycles=" << d->cycle_count()
       << " freq=" << d->frequency_mhz() << " en=" << d->enabled() << "\n";
  }
  core::Rsb& rsb = sys.rsb();
  for (int i = 0; i < rsb.num_ioms(); ++i) {
    core::Iom& iom = rsb.iom(i);
    for (int c = 0; c < iom.num_consumers(); ++c) {
      os << "iom" << i << ".sink" << c << " eos=" << iom.eos_seen(c)
         << " words=";
      for (comm::Word w : iom.received(c)) os << w << ",";
      os << "\n";
    }
    for (int c = 0; c < iom.num_producers(); ++c) {
      os << "iom" << i << ".src" << c << " emitted=" << iom.words_emitted(c)
         << " stalls=" << iom.source_stall_cycles(c) << "\n";
    }
  }
  const core::SystemStats stats = core::collect_stats(sys);
  os << "mb_busy=" << stats.mb_busy_cycles << " dcr=" << stats.dcr_accesses
     << " icap_bytes=" << stats.icap_bytes << " prs=" << stats.reconfigurations
     << " discarded=" << stats.total_discarded() << "\n";
  for (const core::SiteStats& s : stats.sites) {
    os << "site " << s.name << " in=" << s.words_in << " out=" << s.words_out
       << " mod=" << s.loaded_module << "\n";
  }
  return os.str();
}

/// Fault storms the stream scenario can run under.
enum class Storm {
  kNone,
  kEarly,  ///< enabled before the stream starts
  kLate,   ///< enabled after the stream drained and every box slept
};

/// Arms all six fault sites with windows, and with probabilities that keep
/// every per-traffic site live. The stuck-port site also draws per port on
/// odd seeds; on even seeds it goes dead once its window passes, so its
/// opportunities are counted a box at a time.
void arm_storm(sim::FaultInjector& fi, std::uint64_t seed) {
  using sim::FaultSite;
  // The first transfer is both corrupted and timed out; a retry heals it.
  fi.arm(FaultSite::kIcapBitstreamCorruption, 0);
  fi.set_probability(FaultSite::kIcapBitstreamCorruption, 0.05);
  fi.arm(FaultSite::kIcapTransferTimeout, 0);
  fi.set_probability(FaultSite::kIcapTransferTimeout, 0.05);
  fi.arm(FaultSite::kFifoDropWord, 5, 2);
  fi.set_probability(FaultSite::kFifoDropWord, 0.002);
  fi.arm(FaultSite::kFifoDuplicateWord, 17);
  fi.set_probability(FaultSite::kFifoDuplicateWord, 0.002);
  // Opportunities count from enable(): a few thousand commits in, inside
  // the active phase; the scrubber repairs the stuck muxes.
  fi.arm(FaultSite::kSwitchBoxStuckPort, 2000 + 97 * seed, 2);
  if (seed % 2 == 1) fi.set_probability(FaultSite::kSwitchBoxStuckPort, 5e-6);
  fi.arm(FaultSite::kConfigFrameUpset, 1);
  fi.set_probability(FaultSite::kConfigFrameUpset, 0.1);
}

/// Every site's counters and the recovery scoreboard.
std::string fault_digest() {
  const sim::FaultInjector& fi = sim::FaultInjector::instance();
  std::ostringstream os;
  for (int i = 0; i < sim::kNumFaultSites; ++i) {
    const auto site = static_cast<sim::FaultSite>(i);
    os << "fault " << sim::fault_site_name(site)
       << " opportunities=" << fi.opportunities(site)
       << " injected=" << fi.injected(site) << "\n";
    EXPECT_GT(fi.injected(site), 0u) << sim::fault_site_name(site);
  }
  os << "recoveries=" << fi.total_recoveries() << "\n";
  EXPECT_GT(fi.recoveries(sim::RecoveryEvent::kIcapRetry), 0u);
  EXPECT_GT(fi.recoveries(sim::RecoveryEvent::kScrubRepair), 0u);
  return os.str();
}

/// Common scenario body: a module streaming between the IOM's source and
/// sink channels, with optional seeded perturbations (LCD retunes, clock
/// gating) applied as scheduled events, and an idle-heavy tail. Under a
/// storm a scrubber runs and PRR 1 is reconfigured with injection on, so
/// every site sees opportunities.
std::string run_stream_scenario(std::uint64_t seed, bool activity,
                                Storm storm, bool lcd_changes, bool gating) {
  std::optional<sim::ScopedFaultInjection> faults;
  core::VapresSystem sys(small_params());
  sys.sim().set_activity_driven(activity);
  sys.bring_up_all_sites();
  core::ScrubberTask scrub(sys, /*period_cycles=*/1500);
  const auto start_storm = [&] {
    faults.emplace(seed);
    arm_storm(sim::FaultInjector::instance(), seed);
    scrub.start();
  };

  sim::SplitMix64 rng(seed);
  const char* modules[] = {"passthrough", "gain_x2", "offset_100"};
  const std::string module = modules[rng.next_below(3)];
  sys.reconfigure_now(0, 0, module);

  core::Rsb& rsb = sys.rsb();
  EXPECT_TRUE(sys.connect(0, rsb.iom_producer(0), rsb.prr_consumer(0)));
  EXPECT_TRUE(sys.connect(0, rsb.prr_producer(0), rsb.iom_consumer(0)));

  const int interval = 1 + static_cast<int>(rng.next_below(8));
  const int nwords = 50 + static_cast<int>(rng.next_below(100));
  std::vector<comm::Word> data;
  for (int w = 0; w < nwords; ++w) {
    data.push_back(static_cast<comm::Word>(w * 3 + 1));
  }
  sys.rsb().iom(0).set_source_data(data, interval);

  core::Prr& prr = rsb.prr(0);
  const auto period = sys.system_clock().period_ps();
  if (lcd_changes) {
    for (int i = 0; i < 4; ++i) {
      const auto at = (100 + rng.next_below(2000)) * period;
      const int sel = static_cast<int>(rng.next_below(2));
      sys.sim().schedule_after(at, [&prr, sel] {
        prr.clock_tree().select(sel);
      });
    }
  }
  if (gating) {
    // Paired gate-off/gate-on windows so the stream eventually drains.
    for (int i = 0; i < 3; ++i) {
      const auto off = (100 + rng.next_below(1500)) * period;
      const auto on = off + (50 + rng.next_below(300)) * period;
      sys.sim().schedule_after(off, [&prr] {
        prr.clock_tree().set_enabled(false);
      });
      sys.sim().schedule_after(on, [&prr] {
        prr.clock_tree().set_enabled(true);
      });
    }
  }
  if (storm == Storm::kEarly) start_storm();

  // Active phase, then a long idle tail (the quiescence-heavy part).
  sys.run_system_cycles(4000 + rng.next_below(2000));
  if (storm == Storm::kEarly) sys.reconfigure_now(0, 1, "gain_x2");
  sys.rsb().iom(0).stop_source();
  sys.run_system_cycles(20000);
  if (storm == Storm::kLate) {
    comm::SwitchFabric& fabric = sys.rsb().fabric();
    for (int b = 0; activity && b < fabric.num_boxes(); ++b) {
      EXPECT_FALSE(fabric.box(b).awake()) << "box " << b << " never slept";
    }
    start_storm();
    sys.reconfigure_now(0, 1, "gain_x2");
    sys.rsb().iom(0).set_source_data(data, interval);
    sys.run_system_cycles(20000);
  }
  std::string digest = digest_of(sys);
  if (storm != Storm::kNone) digest += fault_digest();
  return digest;
}

/// Scheduler churn: submissions, admissions, stops, and resubmissions of
/// short-lived streaming apps, driven by the seed.
std::string run_scheduler_scenario(std::uint64_t seed, bool activity) {
  core::SystemParams p;
  core::RsbParams& r = p.rsbs[0];
  r.num_prrs = 4;
  r.num_ioms = 3;
  r.kr = 3;
  r.kl = 3;
  p.prr_rects = {fabric::ClbRect{0, 0, 16, 10}, fabric::ClbRect{16, 0, 16, 4},
                 fabric::ClbRect{32, 0, 16, 10},
                 fabric::ClbRect{48, 0, 16, 4}};
  core::VapresSystem sys(p);
  sys.sim().set_activity_driven(activity);
  sys.bring_up_all_sites();
  sched::ApplicationScheduler scheduler(sys);

  sim::SplitMix64 rng(seed);
  const char* modules[] = {"passthrough", "gain_x2", "offset_100"};
  std::ostringstream log;
  std::vector<int> ids;
  for (int round = 0; round < 3; ++round) {
    const int submissions = 1 + static_cast<int>(rng.next_below(2));
    for (int s = 0; s < submissions; ++s) {
      sched::AppRequest req;
      req.name = "app" + std::to_string(round) + "_" + std::to_string(s);
      const int chain = 1 + static_cast<int>(rng.next_below(2));
      for (int m = 0; m < chain; ++m) {
        req.modules.push_back(modules[rng.next_below(3)]);
      }
      req.priority = 1 + static_cast<int>(rng.next_below(3));
      req.source_interval_cycles = 2 + static_cast<int>(rng.next_below(6));
      req.source_words = 24 + rng.next_below(40);
      ids.push_back(scheduler.submit(req));
    }
    scheduler.run_admission();
    sys.run_system_cycles(2000 + rng.next_below(2000));
    // Stop a random running app, if any.
    const auto running = scheduler.running_apps();
    if (!running.empty()) {
      scheduler.stop(running[rng.next_below(running.size())]);
    }
    sys.run_system_cycles(500);
  }
  sys.run_system_cycles(8000);  // idle-heavy tail

  for (int id : ids) {
    const sched::AppRecord& app = scheduler.app(id);
    log << "app " << id << " state=" << static_cast<int>(app.state)
        << " verdict=" << static_cast<int>(app.verdict) << " words=";
    for (comm::Word w : scheduler.received_words(id)) log << w << ",";
    log << "\n";
  }
  log << digest_of(sys);
  return log.str();
}

void expect_lockstep(const std::string& label, const std::string& fast,
                     const std::string& reference) {
  EXPECT_EQ(fast, reference) << label
                             << ": activity-driven kernel diverged from the "
                                "exhaustive reference";
}

TEST(Lockstep, StreamingIdleHeavy) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    expect_lockstep(
        "stream seed " + std::to_string(seed),
        run_stream_scenario(seed, true, Storm::kNone, false, false),
        run_stream_scenario(seed, false, Storm::kNone, false, false));
  }
}

TEST(Lockstep, FaultInjectionArmed) {
  // A storm on all six sites. Injection does not change the kernel mode:
  // the switch boxes, the one per-commit site, stay awake themselves, so
  // every opportunity count, RNG draw and recovery must match the
  // exhaustive reference exactly.
  for (std::uint64_t seed = 6; seed <= 10; ++seed) {
    expect_lockstep(
        "fault seed " + std::to_string(seed),
        run_stream_scenario(seed, true, Storm::kEarly, false, false),
        run_stream_scenario(seed, false, Storm::kEarly, false, false));
  }
}

TEST(Lockstep, FaultInjectionEnabledAfterBoxesSlept) {
  // enable() must wake every sleeping box, or they miss stuck-port
  // opportunities the reference counts.
  for (std::uint64_t seed = 27; seed <= 28; ++seed) {
    expect_lockstep(
        "late fault seed " + std::to_string(seed),
        run_stream_scenario(seed, true, Storm::kLate, false, false),
        run_stream_scenario(seed, false, Storm::kLate, false, false));
  }
}

TEST(Lockstep, LcdFrequencyChanges) {
  for (std::uint64_t seed = 11; seed <= 15; ++seed) {
    expect_lockstep("lcd seed " + std::to_string(seed),
                    run_stream_scenario(seed, true, Storm::kNone, true, false),
                    run_stream_scenario(seed, false, Storm::kNone, true, false));
  }
}

TEST(Lockstep, ClockGating) {
  for (std::uint64_t seed = 16; seed <= 20; ++seed) {
    expect_lockstep("gating seed " + std::to_string(seed),
                    run_stream_scenario(seed, true, Storm::kNone, false, true),
                    run_stream_scenario(seed, false, Storm::kNone, false, true));
  }
}

TEST(Lockstep, EverythingAtOnce) {
  for (std::uint64_t seed = 21; seed <= 23; ++seed) {
    expect_lockstep("combined seed " + std::to_string(seed),
                    run_stream_scenario(seed, true, Storm::kEarly, true, true),
                    run_stream_scenario(seed, false, Storm::kEarly, true, true));
  }
}

TEST(Lockstep, SchedulerChurn) {
  for (std::uint64_t seed = 24; seed <= 26; ++seed) {
    expect_lockstep("sched seed " + std::to_string(seed),
                    run_scheduler_scenario(seed, true),
                    run_scheduler_scenario(seed, false));
  }
}

// ------------------------------------------- fabric lockstep scenarios
//
// Bare switch-fabric rigs (no processor, no modules) exercise the wire
// fan-out wakes directly: every box, interface and feedback pipeline
// sleeps on its own and is woken only by the writer of a wire it reads.
// The digest samples every box output and interface counter after each
// seeded chunk of cycles.

enum class FabricCase { kConcurrent, kSlowDrain, kResetMidStream, kReestablish };

comm::RouteSpec fabric_route(int from, int to, std::vector<int> lanes) {
  comm::RouteSpec spec;
  spec.producer_box = from;
  spec.consumer_box = to;
  spec.lanes = std::move(lanes);
  return spec;
}

void fold_fabric(std::ostringstream& os, test::FabricRig& rig) {
  os << rig.domain->cycle_count() << ':';
  for (int b = 0; b < rig.fabric->num_boxes(); ++b) {
    const comm::SwitchBox& box = rig.fabric->box(b);
    for (int p = 0; p < box.shape().num_outputs(); ++p) {
      const comm::Flit f = *box.output_signal(p);
      os << (f.valid ? static_cast<std::int64_t>(f.data) : -1) << ',';
    }
    const comm::ProducerInterface& prod = rig.producer(b);
    const comm::ConsumerInterface& cons = rig.consumer(b);
    os << '|' << prod.fifo().size() << ',' << prod.words_sent() << ','
       << prod.stall_cycles() << ',' << prod.output_signal()->valid << ','
       << cons.fifo().size() << ',' << cons.words_received() << ','
       << cons.words_discarded() << ',' << *cons.full_feedback_signal()
       << ';';
  }
  os << '\n';
}

/// Three concurrent routes (4, 5 and 2 hops; rightward and leftward
/// lanes) fed seeded bursts, with long runs of one repeated word so lane
/// registers hold a constant valid flit and boxes sleep mid-stream.
/// `stats` receives the run's kernel counters.
std::string run_fabric_scenario(std::uint64_t seed, bool activity,
                                FabricCase fc,
                                sim::KernelStats* stats = nullptr) {
  test::FabricRig rig(6, comm::SwitchBoxShape{}, /*fifo_depth=*/32);
  rig.sim.set_activity_driven(activity);
  sim::SplitMix64 rng(seed);
  std::vector<comm::RouteSpec> routes = {fabric_route(0, 3, {0, 1, 0}),
                                         fabric_route(5, 1, {1, 0, 1, 0}),
                                         fabric_route(4, 5, {1})};
  std::vector<comm::RouteId> ids;
  for (const comm::RouteSpec& r : routes) {
    ids.push_back(rig.fabric->establish(r));
    rig.producer(r.producer_box).set_read_enable(true);
    rig.consumer(r.consumer_box).set_write_enable(true);
  }
  const bool slow = fc == FabricCase::kSlowDrain;
  std::ostringstream os;
  int feedback_flips = 0;
  bool feedback_was = false;
  for (int step = 0; step < 160; ++step) {
    for (std::size_t k = 0; k < routes.size(); ++k) {
      const comm::RouteSpec& r = routes[k];
      comm::Fifo& src = rig.producer(r.producer_box).fifo();
      const bool run = rng.next_below(4) == 0;
      const comm::Word word = static_cast<comm::Word>(rng.next_below(3));
      const int burst = run ? 16 : static_cast<int>(rng.next_below(6));
      for (int i = 0; i < burst && !src.full(); ++i) {
        src.push(run ? word : static_cast<comm::Word>(rng.next_below(3)));
      }
      // The slow drain takes one word every few steps from the 5-hop
      // route's sink, so its feedback-full signal toggles.
      comm::Fifo& sink = rig.consumer(r.consumer_box).fifo();
      int pops = sink.size();
      if (slow && k == 1) pops = rng.next_below(4) == 0 ? 1 : 0;
      for (; pops > 0; --pops) os << sink.pop() << ',';
    }
    if (fc == FabricCase::kReestablish && (step == 50 || step == 110)) {
      // Tear a route down mid-stream and re-establish it on the same
      // ports: leftward on the same lanes, rightward on new ones.
      const std::size_t k = step == 50 ? 1 : 0;
      rig.fabric->release(ids[k]);
      rig.run(1 + rng.next_below(6));
      fold_fabric(os, rig);
      if (k == 0) routes[0].lanes = {1, 0, 1};
      ids[k] = rig.fabric->establish(routes[k]);
    }
    if (fc == FabricCase::kResetMidStream && step == 60) {
      // Consumer side: fill the 5-hop sink until feedback-full asserts,
      // hold it long enough for the feedback pipeline to settle and
      // sleep, then reset both ends of the route. The reset clears the
      // full signal outside any commit.
      comm::ConsumerInterface& cons = rig.consumer(1);
      comm::ProducerInterface& prod = rig.producer(5);
      for (int i = 0; i < 16; ++i) prod.fifo().push(7);
      for (int i = 0; i < 400 && !*cons.full_feedback_signal(); ++i) {
        rig.run(1);
      }
      EXPECT_TRUE(*cons.full_feedback_signal());
      rig.run(32);
      fold_fabric(os, rig);
      cons.reset();
      prod.reset();
      fold_fabric(os, rig);
    }
    if (fc == FabricCase::kResetMidStream && step == 120) {
      // Producer side: a long run of one word lets the route's boxes
      // latch a constant valid flit and sleep; the reset idles the
      // producer's output while a word is on it.
      comm::ProducerInterface& prod = rig.producer(0);
      for (int i = 0; i < 400 && !prod.fifo().empty(); ++i) {
        rig.drain(3);
        rig.run(1);
      }
      rig.drain(3);
      for (int i = 0; i < 24; ++i) prod.fifo().push(2);
      rig.run(17);
      EXPECT_TRUE(prod.output_signal()->valid);
      prod.reset();
      rig.consumer(3).reset();
      fold_fabric(os, rig);
    }
    rig.run(1 + rng.next_below(12));
    fold_fabric(os, rig);
    const bool fb = *rig.consumer(1).full_feedback_signal();
    feedback_flips += fb != feedback_was ? 1 : 0;
    feedback_was = fb;
  }
  rig.run(200);
  fold_fabric(os, rig);
  os << "feedback_flips=" << feedback_flips << '\n';
  if (fc == FabricCase::kSlowDrain) EXPECT_GT(feedback_flips, 4);
  if (stats != nullptr) *stats = rig.sim.kernel_stats();
  return os.str();
}

void expect_fabric_lockstep(FabricCase fc, std::uint64_t first_seed) {
  for (std::uint64_t seed = first_seed; seed < first_seed + 3; ++seed) {
    sim::KernelStats fast_stats;
    const std::string fast = run_fabric_scenario(seed, true, fc, &fast_stats);
    expect_lockstep("fabric seed " + std::to_string(seed), fast,
                    run_fabric_scenario(seed, false, fc));
    // The activity kernel really skipped work: boxes and interfaces off
    // the streaming routes slept.
    EXPECT_GT(fast_stats.edges_skipped, 0u) << "fabric seed " << seed;
  }
}

TEST(Lockstep, FabricConcurrentRoutes) {
  expect_fabric_lockstep(FabricCase::kConcurrent, 30);
}

TEST(Lockstep, FabricSlowDrainTogglesFeedback) {
  expect_fabric_lockstep(FabricCase::kSlowDrain, 33);
}

TEST(Lockstep, FabricResetMidStreamWhileFeedbackAsserted) {
  expect_fabric_lockstep(FabricCase::kResetMidStream, 36);
}

TEST(Lockstep, FabricReleaseAndReestablish) {
  expect_fabric_lockstep(FabricCase::kReestablish, 39);
}

TEST(Lockstep, ActivityKernelSkipsEdgesOnIdleTail) {
  // Sanity that the lockstep scenarios actually exercise the fast path:
  // the activity-driven run of a stream scenario must skip a large share
  // of its component edges.
  core::VapresSystem sys(small_params());
  sys.bring_up_all_sites();
  sys.reconfigure_now(0, 0, "passthrough");
  core::Rsb& rsb = sys.rsb();
  ASSERT_TRUE(sys.connect(0, rsb.iom_producer(0), rsb.prr_consumer(0)));
  ASSERT_TRUE(sys.connect(0, rsb.prr_producer(0), rsb.iom_consumer(0)));
  sys.rsb().iom(0).set_source_data({1, 2, 3, 4}, 4);
  sys.run_system_cycles(30000);
  const sim::KernelStats ks = sys.sim().kernel_stats();
  EXPECT_GT(ks.edges_skipped, ks.edges_delivered);
  EXPECT_GT(ks.domain_sleeps, 0u);
}

}  // namespace
}  // namespace vapres
