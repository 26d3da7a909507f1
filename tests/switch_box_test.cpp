// Switch-box unit tests: port indexing, mux selects, one-register-per-box
// pipeline latency, settled boxes, the stuck-port fault site, and
// module-interface behaviour (Figure 2/3 details).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "comm/module_interface.hpp"
#include "comm/switch_box.hpp"
#include "core/system.hpp"
#include "sim/fault.hpp"
#include "sim/simulator.hpp"
#include "snap/system_snapshot.hpp"
#include "test_util.hpp"

namespace vapres::comm {
namespace {

TEST(SwitchBoxShape, PortCounts) {
  const SwitchBoxShape s{2, 2, 1, 1};
  EXPECT_EQ(s.num_inputs(), 5);   // kr + kl + ko
  EXPECT_EQ(s.num_outputs(), 5);  // kr + kl + ki
}

TEST(SwitchBox, PortIndexLayout) {
  SwitchBox box("sw", SwitchBoxShape{2, 2, 1, 1});
  EXPECT_EQ(box.input_right_lane(0), 0);
  EXPECT_EQ(box.input_right_lane(1), 1);
  EXPECT_EQ(box.input_left_lane(0), 2);
  EXPECT_EQ(box.input_producer(0), 4);
  EXPECT_EQ(box.output_right_lane(1), 1);
  EXPECT_EQ(box.output_left_lane(1), 3);
  EXPECT_EQ(box.output_consumer(0), 4);
  EXPECT_THROW(box.input_right_lane(2), ModelError);
  EXPECT_THROW(box.output_consumer(1), ModelError);
}

TEST(SwitchBox, ParkedOutputsDriveIdle) {
  SwitchBox box("sw", SwitchBoxShape{1, 1, 1, 1});
  box.eval();
  box.commit();
  EXPECT_EQ(*box.output_signal(0), kIdleFlit);
}

TEST(SwitchBox, OneCycleLatencyPerBox) {
  sim::Simulator sim;
  auto& clk = sim.create_domain("clk", 100.0);
  SwitchBox box("sw", SwitchBoxShape{1, 1, 1, 1});
  clk.attach(&box);

  Flit source{};
  box.connect_input(box.input_producer(0), &source);
  box.select(box.output_right_lane(0), box.input_producer(0));

  sim::drive(source, Flit{42, true}, &box);
  sim.run_cycles(clk, 1);
  // After one edge the input register holds the flit and the output mux
  // shows it.
  EXPECT_EQ(*box.output_signal(box.output_right_lane(0)), (Flit{42, true}));

  sim::drive(source, Flit{43, true}, &box);
  sim.run_cycles(clk, 1);
  EXPECT_EQ(*box.output_signal(box.output_right_lane(0)), (Flit{43, true}));
  clk.detach(&box);
}

TEST(SwitchBox, SelectChangesRouteNextCycle) {
  sim::Simulator sim;
  auto& clk = sim.create_domain("clk", 100.0);
  SwitchBox box("sw", SwitchBoxShape{2, 0, 1, 1});
  clk.attach(&box);

  Flit lane0{1, true};
  Flit lane1{2, true};
  box.connect_input(box.input_right_lane(0), &lane0);
  box.connect_input(box.input_right_lane(1), &lane1);
  box.select(box.output_consumer(0), box.input_right_lane(0));
  sim.run_cycles(clk, 1);
  EXPECT_EQ(box.output_signal(box.output_consumer(0))->data, 1u);

  box.select(box.output_consumer(0), box.input_right_lane(1));
  sim.run_cycles(clk, 1);
  EXPECT_EQ(box.output_signal(box.output_consumer(0))->data, 2u);
  clk.detach(&box);
}

TEST(SwitchBox, RejectsBadSelect) {
  SwitchBox box("sw", SwitchBoxShape{1, 1, 1, 1});
  EXPECT_THROW(box.select(0, 99), ModelError);
  EXPECT_THROW(box.select(99, 0), ModelError);
  EXPECT_NO_THROW(box.select(0, -1));
}

using sim::FaultSite;
constexpr FaultSite kStuck = FaultSite::kSwitchBoxStuckPort;

void clock_box(SwitchBox& box) {
  box.eval();
  box.commit();
}

int count_stuck_ports(const SwitchBox& box) {
  int n = 0;
  for (int p = 0; p < box.shape().num_outputs(); ++p) {
    n += box.output_stuck(p) ? 1 : 0;
  }
  return n;
}

// ------------------------------------------------------- settled boxes
// A box whose registers latched nothing new, and whose outputs already
// show their selections, skips its mux pass. The exhaustive kernel runs
// the same box code, so lockstep tests cannot catch a missed reset: each
// test below holds a box's inputs still until it settles, then changes
// what the outputs should show without changing any input.
// SwitchBox.SelectChangesRouteNextCycle does this for select().

TEST(SwitchBoxSettled, RepairRestoresOutputNextCycle) {
  sim::ScopedFaultInjection faults(5);
  SwitchBox box("sw", SwitchBoxShape{1, 1, 1, 1});
  const Flit lane{1, true};
  box.connect_input(box.input_right_lane(0), &lane);
  const int out = box.output_right_lane(0);  // port 0: the first draw
  box.select(out, box.input_right_lane(0));
  faults->arm(kStuck, 0);
  clock_box(box);
  ASSERT_TRUE(box.output_stuck(out));
  ASSERT_EQ(*box.output_signal(out), kIdleFlit);  // stuck before it latched

  // The site is dead from here on: the settled box counts opportunities
  // without running its ports, and the stuck output holds idle.
  for (int c = 0; c < 3; ++c) clock_box(box);
  ASSERT_FALSE(faults->live(kStuck));
  ASSERT_EQ(*box.output_signal(out), kIdleFlit);

  box.repair_output(out);
  clock_box(box);
  EXPECT_EQ(*box.output_signal(out), lane);
  // 3 outputs on the first commit, 2 on the next three, then 3.
  EXPECT_EQ(faults->opportunities(kStuck), 3u + 3 * 2 + 3);
}

// An enabled injector keeps a settled box awake with nothing to latch,
// and such a box skips eval() until a source's writer wakes it. A
// producer flit driven after many idle cycles must still be latched on
// the next edge.
TEST(SwitchBoxSettled, DrivenSourceIsLatchedUnderInjection) {
  sim::ScopedFaultInjection faults(13);  // enabled, nothing armed
  sim::Simulator sim;
  auto& clk = sim.create_domain("clk", 100.0);
  SwitchBox box("sw", SwitchBoxShape{1, 1, 1, 1});
  clk.attach(&box);
  Flit producer{};
  box.connect_input(box.input_producer(0), &producer);
  const int out = box.output_right_lane(0);
  box.select(out, box.input_producer(0));
  sim.run_cycles(clk, 12);  // past a quiescence poll: settled, yet awake
  ASSERT_TRUE(box.awake());
  ASSERT_FALSE(faults->live(kStuck));
  ASSERT_EQ(*box.output_signal(out), kIdleFlit);

  sim::drive(producer, Flit{7, true}, &box);
  sim.run_cycles(clk, 1);
  EXPECT_EQ(*box.output_signal(out), (Flit{7, true}));
  sim::drive(producer, kIdleFlit, &box);
  sim.run_cycles(clk, 1);
  EXPECT_EQ(*box.output_signal(out), kIdleFlit);
}

// A snapshot may be taken between a select and the commit that shows it.
// The restored box must run that commit in full even though its inputs
// match its registers.
TEST(SwitchBoxSettled, RestoreRecomputesOutputs) {
  const Flit word{42, true};
  core::VapresSystem sys(core::SystemParams::prototype());
  SwitchBox& b0 = sys.rsb(0).fabric().box(0);
  SwitchBox& b1 = sys.rsb(0).fabric().box(1);
  b0.connect_input(b0.input_producer(0), &word);
  b0.select(b0.output_right_lane(0), b0.input_producer(0));
  sys.run_system_cycles(4);  // b1's right lane 0 register latched the word
  const int out = b1.output_consumer(0);
  b1.select(out, b1.input_right_lane(0));
  ASSERT_EQ(*b1.output_signal(out), kIdleFlit);  // not committed yet
  const std::string blob = snap::SystemSnapshot::save(sys, 1);

  auto restored = snap::SystemSnapshot::restore_system(
      blob, core::SystemParams::prototype());
  SwitchBox& r1 = restored->rsb(0).fabric().box(1);
  ASSERT_EQ(*r1.output_signal(out), kIdleFlit);
  restored->run_system_cycles(1);
  EXPECT_EQ(*r1.output_signal(out), word);
}

// ------------------------------------------------ stuck-port fault site
// A commit on which no output can go stuck counts its non-stuck outputs'
// opportunities in one step; one on which some may go stuck asks the
// injector per port. The two must leave identical counters.

struct StuckTrace {
  std::vector<std::uint64_t> opportunities;  ///< after each commit
  std::vector<int> stuck;                    ///< stuck outputs after each
};

/// Sticks outputs 0 and 1 on the first commit, then runs with the site
/// dead (`per_port` false) or kept live by a window no run reaches
/// (`per_port` true), repairing output 0 midway.
StuckTrace run_stuck_trace(bool per_port) {
  sim::ScopedFaultInjection faults(7);
  SwitchBox box("sw", SwitchBoxShape{2, 2, 1, 1});
  faults->arm(kStuck, 0, 2);
  StuckTrace t;
  for (int c = 0; c < 8; ++c) {
    if (c == 1 && per_port) faults->arm(kStuck, 1'000'000);
    if (c == 4 || c == 6) box.repair_output(0);  // the second: not stuck
    EXPECT_EQ(faults->live(kStuck), c == 0 || per_port) << "commit " << c;
    clock_box(box);
    t.opportunities.push_back(faults->opportunities(kStuck));
    t.stuck.push_back(box.stuck_output_count());
    EXPECT_EQ(box.stuck_output_count(), count_stuck_ports(box))
        << "commit " << c;
  }
  EXPECT_EQ(faults->injected(kStuck), 2u);
  return t;
}

TEST(SwitchBoxStuckPort, DeadCountEqualsPerPortCount) {
  const StuckTrace dead = run_stuck_trace(false);
  const StuckTrace per_port = run_stuck_trace(true);
  EXPECT_EQ(dead.opportunities, per_port.opportunities);
  EXPECT_EQ(dead.stuck, per_port.stuck);
  // 5 outputs on the first commit, then 3 until output 0 is repaired,
  // then 4.
  EXPECT_EQ(dead.opportunities,
            (std::vector<std::uint64_t>{5, 8, 11, 14, 18, 22, 26, 30}));
  EXPECT_EQ(dead.stuck, (std::vector<int>{2, 2, 2, 2, 1, 1, 1, 1}));
}

TEST(SwitchBoxStuckPort, RestoreRecountsStuckOutputs) {
  core::VapresSystem sys(core::SystemParams::prototype());
  {
    sim::ScopedFaultInjection faults(9);
    faults->arm(kStuck, 0, 2);  // the first box to commit: ports 0 and 1
    sys.run_system_cycles(1);
  }
  const comm::SwitchFabric& fab = sys.rsb(0).fabric();
  int stuck = 0;
  for (int b = 0; b < fab.num_boxes(); ++b) {
    stuck += count_stuck_ports(fab.box(b));
  }
  ASSERT_EQ(stuck, 2);

  auto restored = snap::SystemSnapshot::restore_system(
      snap::SystemSnapshot::save(sys, 1), core::SystemParams::prototype());
  const comm::SwitchFabric& rfab = restored->rsb(0).fabric();
  for (int b = 0; b < rfab.num_boxes(); ++b) {
    EXPECT_EQ(rfab.box(b).stuck_output_count(),
              count_stuck_ports(fab.box(b)))
        << "box " << b;
    EXPECT_EQ(rfab.box(b).stuck_output_count(),
              count_stuck_ports(rfab.box(b)))
        << "box " << b;
  }
}

TEST(SwitchBoxStuckPort, UnboundedWindowKeepsFiring) {
  // The window's end overflows 64 bits; the live test must not wrap and
  // declare the site dead.
  sim::ScopedFaultInjection faults(3);
  SwitchBox box("sw", SwitchBoxShape{2, 2, 1, 1});
  faults->arm(kStuck, 3, std::numeric_limits<std::uint64_t>::max());
  clock_box(box);  // opportunities 0..4: ports 3 and 4 stick
  EXPECT_EQ(box.stuck_output_count(), 2);
  clock_box(box);  // 5..7: the remaining three
  EXPECT_EQ(box.stuck_output_count(), 5);
  for (int c = 0; c < 4; ++c) {
    box.repair_output(c % 5);
    EXPECT_TRUE(faults->live(kStuck));
    clock_box(box);
    EXPECT_TRUE(box.output_stuck(c % 5));
  }
  EXPECT_EQ(faults->injected(kStuck), 9u);
  EXPECT_EQ(faults->opportunities(kStuck), 12u);
}

TEST(SwitchBoxStuckPort, BoxNeverQuiescentWhileInjecting) {
  SwitchBox box("sw", SwitchBoxShape{1, 1, 1, 1});
  clock_box(box);
  EXPECT_TRUE(box.quiescent());
  {
    sim::ScopedFaultInjection faults(1);
    EXPECT_FALSE(box.quiescent());
  }
  EXPECT_TRUE(box.quiescent());
}

struct FirstStuck {
  sim::Cycles cycle = 0;
  int box = -1;
  int port = -1;
  std::uint64_t opportunities = 0;  ///< at the end of the run
  std::uint64_t edges_delivered = 0;
};

/// A three-box fabric left to fall asleep, then injection enabled with a
/// window of one opportunity that starts inside box 1's port range.
FirstStuck run_window_inside_box(bool activity) {
  test::FabricRig rig(3, SwitchBoxShape{2, 2, 1, 1});
  rig.sim.set_activity_driven(activity);
  rig.run(64);
  if (activity) {
    for (int b = 0; b < 3; ++b) EXPECT_FALSE(rig.fabric->box(b).awake());
  }
  sim::ScopedFaultInjection faults(11);
  // 15 opportunities a cycle; 4 full cycles, then box 0's five and two of
  // box 1's.
  faults->arm(kStuck, 4 * 15 + 5 + 2);
  FirstStuck out;
  for (sim::Cycles c = 1; c <= 10; ++c) {
    rig.run(1);
    for (int b = 0; b < 3 && out.box < 0; ++b) {
      for (int p = 0; p < 5; ++p) {
        if (rig.fabric->box(b).output_stuck(p)) {
          out = {c, b, p, 0, 0};
          break;
        }
      }
    }
  }
  EXPECT_EQ(faults->injected(kStuck), 1u);
  out.opportunities = faults->opportunities(kStuck);
  out.edges_delivered = rig.domain->kernel_stats().edges_delivered;
  return out;
}

TEST(SwitchBoxStuckPort, WindowInsideABoxFiresAlikeOnBothKernels) {
  const FirstStuck fast = run_window_inside_box(true);
  const FirstStuck ref = run_window_inside_box(false);
  EXPECT_EQ(fast.cycle, 5u);
  EXPECT_EQ(fast.box, 1);
  EXPECT_EQ(fast.port, 2);
  EXPECT_EQ(fast.cycle, ref.cycle);
  EXPECT_EQ(fast.box, ref.box);
  EXPECT_EQ(fast.port, ref.port);
  // After the fire the stuck port drops out: 10 cycles * 15 - 5.
  EXPECT_EQ(fast.opportunities, 145u);
  EXPECT_EQ(fast.opportunities, ref.opportunities);
  // Only the boxes were woken: the sleeping interfaces stayed asleep.
  EXPECT_LT(fast.edges_delivered, ref.edges_delivered);
}

// ----------------------------------------------------- ProducerInterface

TEST(ProducerInterface, DrainsOnlyWhenEnabled) {
  sim::Simulator sim;
  auto& clk = sim.create_domain("clk", 100.0);
  ProducerInterface p("p", 8);
  clk.attach(&p);
  p.fifo().push(7);
  sim.run_cycles(clk, 3);
  EXPECT_EQ(p.fifo().size(), 1);  // FIFO_ren off: nothing drained
  EXPECT_FALSE(p.output_signal()->valid);

  p.set_read_enable(true);
  sim.run_cycles(clk, 1);
  EXPECT_TRUE(p.fifo().empty());
  EXPECT_EQ(*p.output_signal(), (Flit{7, true}));  // bit-extended valid

  sim.run_cycles(clk, 1);
  EXPECT_FALSE(p.output_signal()->valid);  // FIFO empty -> idle
  EXPECT_EQ(p.words_sent(), 1u);
  clk.detach(&p);
}

TEST(ProducerInterface, FeedbackFullBlocksDraining) {
  sim::Simulator sim;
  auto& clk = sim.create_domain("clk", 100.0);
  ProducerInterface p("p", 8);
  clk.attach(&p);
  bool full = true;
  p.set_feedback_full_source(&full);
  p.set_read_enable(true);
  p.fifo().push(1);
  sim.run_cycles(clk, 5);
  EXPECT_EQ(p.fifo().size(), 1);  // held back by the feedback signal
  full = false;
  sim.run_cycles(clk, 1);
  EXPECT_TRUE(p.fifo().empty());
  clk.detach(&p);
}

TEST(ProducerInterface, ResetClearsOutput) {
  sim::Simulator sim;
  auto& clk = sim.create_domain("clk", 100.0);
  ProducerInterface p("p", 8);
  clk.attach(&p);
  p.set_read_enable(true);
  p.fifo().push(5);
  sim.run_cycles(clk, 1);
  EXPECT_TRUE(p.output_signal()->valid);
  p.reset();
  EXPECT_FALSE(p.output_signal()->valid);
  clk.detach(&p);
}

// ----------------------------------------------------- ConsumerInterface

TEST(ConsumerInterface, AcceptsOnlyValidFlitsWhenEnabled) {
  sim::Simulator sim;
  auto& clk = sim.create_domain("clk", 100.0);
  ConsumerInterface c("c", 8);
  clk.attach(&c);
  Flit input{};
  c.set_input_signal(&input);

  input = Flit{1, true};
  sim.run_cycles(clk, 1);
  EXPECT_TRUE(c.fifo().empty());  // FIFO_wen off: word ignored

  c.set_write_enable(true);
  input = Flit{2, true};
  sim.run_cycles(clk, 1);
  input = Flit{0, false};  // idle flits never written
  sim.run_cycles(clk, 3);
  EXPECT_EQ(c.fifo().size(), 1);
  EXPECT_EQ(c.fifo().pop(), 2u);
  EXPECT_EQ(c.words_received(), 1u);
  clk.detach(&c);
}

TEST(ConsumerInterface, DiscardsOnOverflowAndCounts) {
  sim::Simulator sim;
  auto& clk = sim.create_domain("clk", 100.0);
  ConsumerInterface c("c", 2);
  clk.attach(&c);
  c.set_write_enable(true);
  Flit input{9, true};
  c.set_input_signal(&input);
  sim.run_cycles(clk, 5);  // 2 accepted, 3 discarded
  EXPECT_EQ(c.fifo().size(), 2);
  EXPECT_EQ(c.words_discarded(), 3u);
  clk.detach(&c);
}

TEST(ConsumerInterface, FeedbackAssertsAtPipelineDepthThreshold) {
  sim::Simulator sim;
  auto& clk = sim.create_domain("clk", 100.0);
  ConsumerInterface c("c", 16);
  clk.attach(&c);
  c.set_write_enable(true);
  c.configure_backpressure(/*hops=*/3, BackpressurePolicy::kPipelineDepth);
  Flit input{1, true};
  c.set_input_signal(&input);
  // Threshold: remaining <= 2*3 + 2 = 8, i.e. occupancy >= 8.
  sim.run_cycles(clk, 7);
  EXPECT_FALSE(*c.full_feedback_signal());
  sim.run_cycles(clk, 2);  // occupancy 9 -> evaluated at 8
  EXPECT_TRUE(*c.full_feedback_signal());
  clk.detach(&c);
}

TEST(ConsumerInterface, LiteralPaperPolicyAssertsAlmostAlways) {
  // remaining <= 2*(N - d) with N = 64, d = 2 asserts from occupancy
  // >= N - 2*(N-d) = -60, i.e. immediately — demonstrating why the
  // printed formula cannot be meant literally (see DESIGN.md).
  ConsumerInterface c("c", 64);
  c.configure_backpressure(2, BackpressurePolicy::kLiteralPaper);
  c.eval();
  c.commit();
  EXPECT_TRUE(*c.full_feedback_signal());  // asserted on an empty FIFO
}

}  // namespace
}  // namespace vapres::comm
