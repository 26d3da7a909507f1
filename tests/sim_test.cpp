// Simulation-kernel tests: event queue, clock domains, two-phase
// semantics, multi-domain ordering, runtime frequency changes.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace vapres::sim {
namespace {

// ---------------------------------------------------------------- EventQueue

TEST(EventQueue, RunsEventsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  q.run_due(30);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SameTimestampFifoOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule_at(7, [&order, i] { order.push_back(i); });
  }
  q.run_due(7);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, NextTimeReportsEarliest) {
  EventQueue q;
  q.schedule_at(50, [] {});
  q.schedule_at(40, [] {});
  EXPECT_EQ(q.next_time(), 40u);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const auto id = q.schedule_at(5, [&] { ran = true; });
  EXPECT_TRUE(q.cancel(id));
  q.run_due(10);
  EXPECT_FALSE(ran);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelAfterRunReturnsFalse) {
  EventQueue q;
  const auto id = q.schedule_at(5, [] {});
  q.run_due(5);
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelUnknownIdReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(12345));
}

TEST(EventQueue, EventsScheduledDuringRunAtSameTimeAlsoRun) {
  EventQueue q;
  int count = 0;
  q.schedule_at(10, [&] {
    ++count;
    q.schedule_at(10, [&] { ++count; });
  });
  q.run_due(10);
  EXPECT_EQ(count, 2);
}

TEST(EventQueue, NextTimeSkipsCancelledHead) {
  EventQueue q;
  const auto id = q.schedule_at(5, [] {});
  q.schedule_at(9, [] {});
  q.cancel(id);
  EXPECT_EQ(q.next_time(), 9u);
}

// A cancelled entry stays in the heap until it surfaces; the queue counts
// those entries so a peek with none skips the pending-id lookup. The
// counts must stay exact whichever entry is cancelled and when.
TEST(EventQueue, CancelNonHeadThenHead) {
  EventQueue q;
  std::vector<int> order;
  const auto head = q.schedule_at(5, [&] { order.push_back(5); });
  const auto middle = q.schedule_at(7, [&] { order.push_back(7); });
  q.schedule_at(9, [&] { order.push_back(9); });
  EXPECT_EQ(q.pending(), 3u);

  EXPECT_TRUE(q.cancel(middle));
  EXPECT_EQ(q.pending(), 2u);
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.next_time(), 5u);
  EXPECT_FALSE(q.cancel(middle));  // already cancelled

  EXPECT_TRUE(q.cancel(head));
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.next_time(), 9u);  // both cancelled entries dropped

  q.run_due(8);
  EXPECT_TRUE(order.empty());
  EXPECT_EQ(q.pending(), 1u);
  q.run_due(9);
  EXPECT_EQ(order, (std::vector<int>{9}));
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelAfterRunLeavesCountsExact) {
  EventQueue q;
  int runs = 0;
  const auto ran = q.schedule_at(3, [&] { ++runs; });
  q.schedule_at(4, [&] { ++runs; });
  q.run_due(3);
  EXPECT_FALSE(q.cancel(ran));
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.next_time(), 4u);  // the live entry is still the head
  q.run_due(4);
  EXPECT_EQ(runs, 2);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ThousandCancelsAmongThousandLive) {
  EventQueue q;
  struct Scheduled {
    Picoseconds when;
    int index;
    EventQueue::EventId id;
  };
  std::vector<int> ran;
  std::vector<Scheduled> all;
  // 2000 events over 50 timestamps, so most share theirs with others.
  for (int i = 0; i < 2000; ++i) {
    const Picoseconds when = static_cast<Picoseconds>((i * 7919) % 50);
    all.push_back({when, i, q.schedule_at(when, [&ran, i] {
                     ran.push_back(i);
                   })});
  }
  // Cancel every other one, alternating between the two halves of the
  // schedule so heads and non-heads alike are cancelled.
  std::vector<Scheduled> live;
  std::size_t pending = all.size();
  for (const Scheduled& e : all) {
    if ((e.index + e.index / 1000) % 2 == 0) {
      ASSERT_TRUE(q.cancel(e.id));
      --pending;
      ASSERT_EQ(q.pending(), pending);
      ASSERT_FALSE(q.empty());
    } else {
      live.push_back(e);
    }
  }
  ASSERT_EQ(live.size(), 1000u);
  std::stable_sort(live.begin(), live.end(),
                   [](const Scheduled& a, const Scheduled& b) {
                     return a.when < b.when;
                   });
  std::vector<int> expected;
  for (const Scheduled& e : live) expected.push_back(e.index);

  for (Picoseconds t = 0; t < 50; ++t) {
    ASSERT_EQ(q.empty(), q.pending() == 0);
    ASSERT_EQ(q.next_time(), t);  // every timestamp keeps a live event
    q.run_due(t);
    // Every event at t has run or was cancelled: neither cancels again.
    for (const Scheduled& e : all) {
      if (e.when == t) {
        ASSERT_FALSE(q.cancel(e.id)) << e.index;
      }
    }
    const auto later = std::count_if(
        live.begin(), live.end(), [t](const Scheduled& e) {
          return e.when > t;
        });
    ASSERT_EQ(q.pending(), static_cast<std::size_t>(later));
    ASSERT_EQ(q.empty(), later == 0);
  }
  EXPECT_EQ(ran, expected);
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_TRUE(q.empty());
}

// --------------------------------------------------------------- ClockDomain

class Counter final : public Clocked {
 public:
  int evals = 0;
  int commits = 0;
  void eval() override { ++evals; }
  void commit() override { ++commits; }
};

TEST(ClockDomain, PeriodFromFrequency) {
  Simulator sim;
  auto& d = sim.create_domain("clk", 100.0);
  EXPECT_EQ(d.period_ps(), 10000u);
  EXPECT_DOUBLE_EQ(d.frequency_mhz(), 100.0);
}

TEST(ClockDomain, TicksDeliverEvalThenCommit) {
  Simulator sim;
  auto& d = sim.create_domain("clk", 100.0);
  Counter c;
  d.attach(&c);
  sim.run_cycles(d, 5);
  EXPECT_EQ(c.evals, 5);
  EXPECT_EQ(c.commits, 5);
  EXPECT_EQ(d.cycle_count(), 5u);
}

TEST(ClockDomain, DisabledDomainDoesNotTick) {
  Simulator sim;
  auto& a = sim.create_domain("a", 100.0);
  auto& b = sim.create_domain("b", 100.0);
  Counter ca;
  Counter cb;
  a.attach(&ca);
  b.attach(&cb);
  b.set_enabled(false);
  sim.run_cycles(a, 10);
  EXPECT_EQ(ca.commits, 10);
  EXPECT_EQ(cb.commits, 0);
}

TEST(ClockDomain, ReenableResumesOnePeriodLater) {
  Simulator sim;
  auto& a = sim.create_domain("a", 100.0);
  auto& b = sim.create_domain("b", 100.0);
  Counter ca;
  Counter cb;
  a.attach(&ca);
  b.attach(&cb);
  b.set_enabled(false);
  sim.run_cycles(a, 10);
  b.set_enabled(true);
  sim.run_cycles(a, 10);
  EXPECT_EQ(cb.commits, 10);
}

TEST(ClockDomain, FrequencyRatiosRespected) {
  Simulator sim;
  auto& fast = sim.create_domain("fast", 100.0);
  auto& slow = sim.create_domain("slow", 25.0);
  Counter cf;
  Counter cs;
  fast.attach(&cf);
  slow.attach(&cs);
  sim.run_cycles(fast, 100);
  EXPECT_EQ(cf.commits, 100);
  EXPECT_EQ(cs.commits, 25);
}

TEST(ClockDomain, RuntimeRetuneChangesRate) {
  Simulator sim;
  auto& fast = sim.create_domain("fast", 100.0);
  auto& tuned = sim.create_domain("tuned", 100.0);
  Counter cf;
  Counter ct;
  fast.attach(&cf);
  tuned.attach(&ct);
  sim.run_cycles(fast, 50);
  EXPECT_EQ(ct.commits, 50);
  tuned.set_frequency_mhz(50.0);  // half rate from now on
  sim.run_cycles(fast, 50);
  EXPECT_EQ(ct.commits, 50 + 25);
}

TEST(ClockDomain, CyclesToPs) {
  Simulator sim;
  auto& d = sim.create_domain("clk", 100.0);
  EXPECT_EQ(d.cycles_to_ps(100), 1'000'000u);
}

// ----------------------------------------------------------------- Simulator

TEST(Simulator, StepReturnsFalseWhenNothingToDo) {
  Simulator sim;
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, EventsBeforeCoincidentEdges) {
  Simulator sim;
  auto& d = sim.create_domain("clk", 100.0);  // edge at 10000 ps
  std::vector<std::string> order;
  class Obs final : public Clocked {
   public:
    explicit Obs(std::vector<std::string>& log) : log_(log) {}
    void eval() override {}
    void commit() override { log_.push_back("edge"); }

   private:
    std::vector<std::string>& log_;
  };
  Obs obs(order);
  d.attach(&obs);
  sim.schedule_after(10000, [&] { order.push_back("event"); });
  sim.run_for(10000);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "event");
  EXPECT_EQ(order[1], "edge");
}

// Coincident domains tick one after another in creation order, each a
// whole eval + commit, so a later-created domain's eval already sees what
// an earlier one committed at the same instant.
TEST(Simulator, CoincidentDomainsTickInCreationOrder) {
  Simulator sim;
  auto& first = sim.create_domain("first", 100.0);
  auto& second = sim.create_domain("second", 100.0);
  std::vector<std::string> log;
  int wire = 0;  // written by the first domain's commit
  class Writer final : public Clocked {
   public:
    Writer(std::vector<std::string>& log, int& wire)
        : log_(log), wire_(wire) {}
    void eval() override { log_.push_back("first.eval"); }
    void commit() override {
      log_.push_back("first.commit");
      ++wire_;
    }

   private:
    std::vector<std::string>& log_;
    int& wire_;
  };
  class Reader final : public Clocked {
   public:
    Reader(std::vector<std::string>& log, const int& wire)
        : log_(log), wire_(wire) {}
    std::vector<int> seen;
    void eval() override {
      log_.push_back("second.eval");
      seen.push_back(wire_);
    }
    void commit() override { log_.push_back("second.commit"); }

   private:
    std::vector<std::string>& log_;
    const int& wire_;
  };
  // Attach in the opposite order of creation: creation order decides.
  Reader reader(log, wire);
  Writer writer(log, wire);
  second.attach(&reader);
  first.attach(&writer);
  sim.run_cycles(first, 2);
  EXPECT_EQ(log, (std::vector<std::string>{
                     "first.eval", "first.commit", "second.eval",
                     "second.commit", "first.eval", "first.commit",
                     "second.eval", "second.commit"}));
  EXPECT_EQ(reader.seen, (std::vector<int>{1, 2}));
}

TEST(Simulator, ScheduleAfterCycles) {
  Simulator sim;
  auto& d = sim.create_domain("clk", 100.0);
  Counter c;
  d.attach(&c);
  bool fired = false;
  sim.schedule_after_cycles(d, 10, [&] { fired = true; });
  sim.run_cycles(d, 9);
  EXPECT_FALSE(fired);
  sim.run_cycles(d, 1);
  EXPECT_TRUE(fired);
}

TEST(Simulator, RunUntilPredicate) {
  Simulator sim;
  auto& d = sim.create_domain("clk", 100.0);
  Counter c;
  d.attach(&c);
  EXPECT_TRUE(sim.run_until([&] { return c.commits >= 42; },
                            kPsPerSecond));
  EXPECT_EQ(c.commits, 42);
}

TEST(Simulator, RunUntilTimesOut) {
  Simulator sim;
  auto& d = sim.create_domain("clk", 100.0);
  Counter c;
  d.attach(&c);
  EXPECT_FALSE(sim.run_until([] { return false; }, 100000));
}

TEST(Simulator, CancelScheduledEvent) {
  Simulator sim;
  auto& d = sim.create_domain("clk", 100.0);
  Counter c;
  d.attach(&c);
  bool fired = false;
  const auto id = sim.schedule_after(50000, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run_for(100000);
  EXPECT_FALSE(fired);
}

// -------------------------------------------------------------------- Random

TEST(SplitMix64, DeterministicAcrossInstances) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, BoundedValues) {
  SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
    const auto v = rng.next_in(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

// ---------------------------------------------------------------------- time

TEST(Time, PeriodConversions) {
  EXPECT_EQ(period_ps_from_mhz(100.0), 10000u);
  EXPECT_EQ(period_ps_from_mhz(50.0), 20000u);
  EXPECT_EQ(period_ps_from_mhz(200.0), 5000u);
  EXPECT_DOUBLE_EQ(mhz_from_period_ps(10000), 100.0);
  EXPECT_DOUBLE_EQ(seconds(kPsPerSecond), 1.0);
  EXPECT_DOUBLE_EQ(milliseconds(kPsPerSecond / 2), 500.0);
}

TEST(Time, RejectsNonPositiveFrequency) {
  EXPECT_THROW(period_ps_from_mhz(0.0), ModelError);
  EXPECT_THROW(period_ps_from_mhz(-5.0), ModelError);
}

}  // namespace
}  // namespace vapres::sim
