// ApplicationScheduler: admission control, placement policies,
// preemption, accounting, and deterministic replay (ctest label: sched).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/stats.hpp"
#include "load/invariants.hpp"
#include "sched/scheduler.hpp"
#include "sim/random.hpp"
#include "test_util.hpp"

namespace vapres::sched {
namespace {

/// Runs the soak harness's resource-ledger + accounting sweeps (the same
/// checkers bench_soak applies at 10^5 lifetimes) against the current
/// scheduler state.
void expect_invariants(const ApplicationScheduler& sched) {
  load::InvariantReport r;
  load::check_resource_ledger(sched, r);
  load::check_accounting(sched, r);
  EXPECT_TRUE(r.ok()) << r.to_string();
}

/// Four PRRs on the XC4VLX25, one per clock region, alternating large
/// (16x10 = 640 slices) and small (16x4 = 256 slices); three IOMs with
/// one producer + one consumer channel each, and kr = kl = 3 inter-box
/// lanes (three concurrent apps — the widest shape whose MUX_sel fields
/// still fit the 32-bit socket DCR).
core::SystemParams quad_params() {
  core::SystemParams p;
  p.name = "schedsys";
  core::RsbParams& r = p.rsbs[0];
  r.num_prrs = 4;
  r.num_ioms = 3;
  r.ki = 1;
  r.ko = 1;
  r.kr = 3;
  r.kl = 3;
  p.prr_rects = {fabric::ClbRect{0, 0, 16, 10},
                 fabric::ClbRect{16, 0, 16, 4},
                 fabric::ClbRect{32, 0, 16, 10},
                 fabric::ClbRect{48, 0, 16, 4}};
  return p;
}

AppRequest make_app(const std::string& name,
                    std::vector<std::string> modules, int priority = 1,
                    int interval = 4, std::uint64_t words = 0) {
  AppRequest req;
  req.name = name;
  req.modules = std::move(modules);
  req.priority = priority;
  req.source_interval_cycles = interval;
  req.source_words = words;
  return req;
}

TEST(Scheduler, AdmitsAndStreamsSingleApp) {
  core::VapresSystem sys(quad_params());
  sys.bring_up_all_sites();
  ApplicationScheduler sched(sys);

  const int id = sched.submit(
      make_app("camera", {"gain_x2"}, 1, /*interval=*/4, /*words=*/64));
  EXPECT_EQ(sched.app(id).state, AppState::kQueued);
  EXPECT_EQ(sched.run_admission(), 1);
  EXPECT_EQ(sched.app(id).state, AppState::kRunning);
  EXPECT_EQ(sched.app(id).verdict, AdmissionVerdict::kAdmitted);
  EXPECT_GT(sched.app(id).admission_mb_cycles, 0u);

  sys.run_system_cycles(3000);
  EXPECT_TRUE(sched.source_done(id));
  const auto words = sched.received_words(id);
  ASSERT_EQ(words.size(), 64u);
  for (std::size_t i = 0; i < words.size(); ++i) {
    EXPECT_EQ(words[i], 2 * static_cast<comm::Word>(i))
        << "gain output wrong at word " << i;
  }

  sched.stop(id);
  EXPECT_EQ(sched.app(id).state, AppState::kStopped);
  EXPECT_EQ(sched.app(id).final_words_out, 64u);
  EXPECT_EQ(sched.fabric().free_count(), 4);
  EXPECT_EQ(core::collect_stats(sys).total_discarded(), 0u);

  load::InvariantReport r;
  load::check_word_conservation(sched.app(id), r);
  load::check_resource_ledger(sched, r);
  EXPECT_TRUE(r.ok()) << r.to_string();
}

TEST(Scheduler, ChainComputesEndToEnd) {
  core::VapresSystem sys(quad_params());
  sys.bring_up_all_sites();
  ApplicationScheduler sched(sys);

  const int id = sched.submit(make_app(
      "pipeline", {"gain_x2", "offset_100"}, 1, /*interval=*/4, 32));
  EXPECT_EQ(sched.run_admission(), 1);
  ASSERT_TRUE(sched.app(id).running());
  EXPECT_EQ(sched.app(id).prrs.size(), 2u);
  EXPECT_EQ(sched.app(id).channels.size(), 3u);
  EXPECT_EQ(sched.fabric().free_count(), 2);

  sys.run_system_cycles(3000);
  const auto words = sched.received_words(id);
  ASSERT_EQ(words.size(), 32u);
  for (std::size_t i = 0; i < words.size(); ++i) {
    EXPECT_EQ(words[i], 2 * static_cast<comm::Word>(i) + 100);
  }
  sched.stop(id);
  EXPECT_EQ(sched.fabric().free_count(), 4);
}

TEST(Scheduler, BestFitPacksTighterThanFirstFit) {
  // gain_x2 (90 slices) fits both classes; best-fit must pick the small
  // PRR (256 slices, waste 166), first-fit the first large one.
  {
    core::VapresSystem sys(quad_params());
    sys.bring_up_all_sites();
    ApplicationScheduler::Options opt;
    opt.policy = PlacementPolicy::kBestFit;
    ApplicationScheduler sched(sys, opt);
    const int id = sched.submit(make_app("bf", {"gain_x2"}));
    EXPECT_EQ(sched.run_admission(), 1);
    ASSERT_EQ(sched.app(id).prrs.size(), 1u);
    EXPECT_EQ(sched.app(id).prrs[0], 1);  // small slot
  }
  {
    core::VapresSystem sys(quad_params());
    sys.bring_up_all_sites();
    ApplicationScheduler::Options opt;
    opt.policy = PlacementPolicy::kFirstFit;
    ApplicationScheduler sched(sys, opt);
    const int id = sched.submit(make_app("ff", {"gain_x2"}));
    EXPECT_EQ(sched.run_admission(), 1);
    ASSERT_EQ(sched.app(id).prrs.size(), 1u);
    EXPECT_EQ(sched.app(id).prrs[0], 0);  // first (large) slot
  }
}

TEST(Scheduler, RejectsBadSpecs) {
  core::VapresSystem sys(quad_params());
  sys.bring_up_all_sites();
  ApplicationScheduler sched(sys);

  const int empty = sched.submit(make_app("empty", {}));
  const int unknown = sched.submit(make_app("unknown", {"warp_drive"}));
  const int nonchain = sched.submit(make_app("fan_in", {"adder2"}));
  EXPECT_EQ(sched.run_admission(), 0);
  EXPECT_EQ(sched.app(empty).verdict, AdmissionVerdict::kRejectedBadSpec);
  EXPECT_EQ(sched.app(unknown).verdict,
            AdmissionVerdict::kRejectedBadSpec);
  EXPECT_NE(sched.app(unknown).reject_reason.find("warp_drive"),
            std::string::npos);
  EXPECT_EQ(sched.app(nonchain).verdict,
            AdmissionVerdict::kRejectedBadSpec);
}

TEST(Scheduler, RejectsRateInfeasibleStream) {
  // upsample2 doubles the rate: at one word per cycle (100 Mwords/s) it
  // needs a 200 MHz PRR clock; the ladder tops out at 100 MHz.
  core::VapresSystem sys(quad_params());
  sys.bring_up_all_sites();
  ApplicationScheduler sched(sys);
  const int id =
      sched.submit(make_app("fast", {"upsample2"}, 1, /*interval=*/1));
  EXPECT_EQ(sched.run_admission(), 0);
  EXPECT_EQ(sched.app(id).verdict,
            AdmissionVerdict::kRejectedRateInfeasible);
}

TEST(Scheduler, AssignsSlowerClockWhenSufficient) {
  // At one word per 4 cycles (25 Mwords/s) a 1:1 module only needs
  // 25 MHz — the 50 MHz clock B is picked over the 100 MHz clock A.
  core::VapresSystem sys(quad_params());
  sys.bring_up_all_sites();
  ApplicationScheduler sched(sys);
  const int id = sched.submit(
      make_app("slow", {"passthrough"}, 1, /*interval=*/4, /*words=*/16));
  EXPECT_EQ(sched.run_admission(), 1);
  ASSERT_EQ(sched.app(id).clocks_mhz.size(), 1u);
  EXPECT_DOUBLE_EQ(sched.app(id).clocks_mhz[0], 50.0);
  sys.run_system_cycles(2000);
  EXPECT_EQ(sched.received_words(id).size(), 16u);
}

TEST(Scheduler, RejectsModuleThatFitsNoPrr) {
  core::VapresSystem sys(quad_params());
  sys.bring_up_all_sites();
  ApplicationScheduler sched(sys);
  const int id = sched.submit(make_app("huge", {"fir16_sharp"}));
  EXPECT_EQ(sched.run_admission(), 0);
  EXPECT_EQ(sched.app(id).verdict, AdmissionVerdict::kRejectedNoPrrFit);
  EXPECT_NE(sched.app(id).reject_reason.find("fits no PRR"),
            std::string::npos);
}

TEST(Scheduler, RejectsWhenIomChannelsExhausted) {
  core::VapresSystem sys(quad_params());
  sys.bring_up_all_sites();
  ApplicationScheduler sched(sys);
  for (int i = 0; i < 3; ++i) {
    const int id = sched.submit(
        make_app("app" + std::to_string(i), {"passthrough"}));
    EXPECT_EQ(sched.run_admission(), 1) << "app " << i;
    EXPECT_TRUE(sched.app(id).running());
  }
  // Same priority everywhere: nothing to preempt, channels all busy.
  const int extra = sched.submit(make_app("extra", {"passthrough"}));
  EXPECT_EQ(sched.run_admission(), 0);
  EXPECT_EQ(sched.app(extra).verdict,
            AdmissionVerdict::kRejectedNoIomChannel);
  EXPECT_NE(sched.app(extra).reject_reason.find("no lower-priority"),
            std::string::npos);
}

TEST(Scheduler, PreemptsLowestPriorityYoungestFirst) {
  core::VapresSystem sys(quad_params());
  sys.bring_up_all_sites();
  ApplicationScheduler sched(sys);

  std::vector<int> low;
  for (int i = 0; i < 3; ++i) {
    low.push_back(sched.submit(
        make_app("low" + std::to_string(i), {"passthrough"}, 1)));
  }
  EXPECT_EQ(sched.run_admission(), 3);
  sys.run_system_cycles(500);

  const int vip = sched.submit(make_app("vip", {"ma8"}, 5));
  EXPECT_EQ(sched.run_admission(), 1);
  EXPECT_EQ(sched.app(vip).verdict,
            AdmissionVerdict::kAdmittedAfterPreempt);
  // Youngest of the lowest priority class went first.
  EXPECT_EQ(sched.app(low[2]).state, AppState::kPreempted);

  // Survivors keep streaming, loss-free and in order.
  sys.run_system_cycles(2000);
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(sched.app(low[static_cast<std::size_t>(i)]).running());
    const auto words = sched.received_words(low[static_cast<std::size_t>(i)]);
    EXPECT_GT(words.size(), 100u);
    std::size_t bad = 0;
    EXPECT_TRUE(test::in_order_counter_stream(words, 0, &bad))
        << "survivor " << i << " broke at " << bad;
  }
  // The preempted app's delivered prefix is still in order.
  const auto evicted = sched.received_words(low[2]);
  EXPECT_TRUE(test::in_order_counter_stream(evicted));

  const auto acc = sched.accounting();
  EXPECT_EQ(acc.preemptions, 1);
  EXPECT_EQ(acc.admitted_after_preempt, 1);
  EXPECT_EQ(acc.admitted, 4);
  expect_invariants(sched);
}

TEST(Scheduler, StopReleasesEverythingForReuse) {
  core::VapresSystem sys(quad_params());
  sys.bring_up_all_sites();
  ApplicationScheduler sched(sys);
  // Cycle apps through the same resources repeatedly.
  for (int round = 0; round < 3; ++round) {
    std::vector<int> ids;
    for (int i = 0; i < 3; ++i) {
      ids.push_back(sched.submit(make_app(
          "r" + std::to_string(round) + "a" + std::to_string(i),
          {"passthrough"}, 1, 4, /*words=*/16)));
    }
    EXPECT_EQ(sched.run_admission(), 3) << "round " << round;
    sys.run_system_cycles(2000);
    for (int id : ids) {
      const auto words = sched.received_words(id);
      EXPECT_EQ(words.size(), 16u) << "app " << id;
      EXPECT_TRUE(test::in_order_counter_stream(words));
      sched.stop(id);
    }
    EXPECT_EQ(sched.fabric().free_count(), 4);
    expect_invariants(sched);
  }
  EXPECT_EQ(core::collect_stats(sys).total_discarded(), 0u);
}

TEST(Scheduler, AccountingReportCoversEveryApp) {
  core::VapresSystem sys(quad_params());
  sys.bring_up_all_sites();
  ApplicationScheduler sched(sys);
  const int ok = sched.submit(make_app("good", {"gain_x2"}, 2, 4, 32));
  const int bad = sched.submit(make_app("bad", {"fir16_sharp"}));
  sched.run_admission();
  sys.run_system_cycles(2000);

  const core::SchedulerAccounting acc = sched.accounting();
  ASSERT_EQ(acc.apps.size(), 2u);
  EXPECT_EQ(acc.submitted, 2);
  EXPECT_EQ(acc.admitted, 1);
  EXPECT_EQ(acc.rejected, 1);
  EXPECT_EQ(acc.apps[static_cast<std::size_t>(ok)].words_out, 32u);
  EXPECT_GT(acc.apps[static_cast<std::size_t>(ok)].words_in, 0u);
  EXPECT_EQ(acc.apps[static_cast<std::size_t>(ok)].module_slices, 90);
  EXPECT_EQ(acc.apps[static_cast<std::size_t>(bad)].verdict,
            std::string("rejected-no-prr-fit"));
  const std::string report = acc.to_string();
  EXPECT_NE(report.find("good"), std::string::npos);
  EXPECT_NE(report.find("bad"), std::string::npos);
  EXPECT_NE(report.find("scheduler accounting"), std::string::npos);
  EXPECT_GT(sched.fabric_utilization(), 0.0);
  expect_invariants(sched);
}

// probe_admit and admission share one assessment: on every blocking
// case the dry run's verdict and reason equal what run_admission leaves
// on the record when preemption is off.
TEST(Scheduler, ProbeAgreesWithAdmission) {
  struct Case {
    const char* name;
    std::vector<std::string> occupants;  // one running app per entry
    AppRequest request;
    AdmissionVerdict expected;
  };
  // ma8 (300 slices) fits only the two large PRRs. Two fir8_lowpass
  // apps (620 slices) hold both, and no free slot could take either, so
  // no relocation can free one.
  const std::vector<Case> cases = {
      {"empty chain", {}, make_app("e", {}),
       AdmissionVerdict::kRejectedBadSpec},
      {"interval 0", {}, make_app("i", {"gain_x2"}, 1, /*interval=*/0),
       AdmissionVerdict::kRejectedBadSpec},
      {"unknown module", {}, make_app("u", {"warp_drive"}),
       AdmissionVerdict::kRejectedBadSpec},
      {"2-in module", {}, make_app("j", {"adder2"}),
       AdmissionVerdict::kRejectedBadSpec},
      {"rate above the ladder", {},
       make_app("r", {"upsample2"}, 1, /*interval=*/1),
       AdmissionVerdict::kRejectedRateInfeasible},
      {"IOMs all busy", {"passthrough", "passthrough", "passthrough"},
       make_app("b", {"passthrough"}),
       AdmissionVerdict::kRejectedNoIomChannel},
      {"fragmented fabric", {"fir8_lowpass", "fir8_lowpass"},
       make_app("f", {"ma8"}), AdmissionVerdict::kRejectedFragmented},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    core::VapresSystem sys(quad_params());
    sys.bring_up_all_sites();
    ApplicationScheduler::Options opt;
    opt.enable_preemption = false;
    ApplicationScheduler sched(sys, opt);
    for (const std::string& m : c.occupants) {
      sched.submit(make_app("occupant", {m}));
      ASSERT_EQ(sched.run_admission(), 1) << m;
    }
    const ApplicationScheduler::AdmitProbe probe =
        sched.probe_admit(c.request);
    const int id = sched.submit(c.request);
    EXPECT_EQ(sched.run_admission(), 0);
    const AppRecord& rec = sched.app(id);
    EXPECT_FALSE(probe.admissible);
    EXPECT_EQ(probe.verdict, c.expected);
    EXPECT_EQ(probe.verdict, rec.verdict);
    EXPECT_EQ(probe.reason, rec.reject_reason);
  }
}

// Identical submission sequences against identical systems must replay
// to identical decisions and stream contents (fixed-seed determinism).
TEST(Scheduler, DeterministicReplay) {
  auto run_once = [](std::uint64_t seed) {
    core::VapresSystem sys(quad_params());
    sys.bring_up_all_sites();
    ApplicationScheduler sched(sys);
    sim::SplitMix64 rng(seed);
    const std::vector<std::string> menu = {"passthrough", "gain_x2",
                                           "offset_100", "ma8",
                                           "fir4_smooth"};
    std::vector<int> ids;
    for (int i = 0; i < 8; ++i) {
      const std::string m = menu[rng.next_below(menu.size())];
      const int prio = 1 + static_cast<int>(rng.next_below(3));
      const int interval = 2 << rng.next_below(3);
      ids.push_back(sched.submit(make_app("app" + std::to_string(i), {m},
                                          prio, interval)));
      sched.run_admission();
      sys.run_system_cycles(200);
    }
    std::vector<std::string> trace;
    for (int id : ids) {
      const AppRecord& a = sched.app(id);
      std::string row = a.request.name;
      row += "|" + std::string(verdict_name(a.verdict));
      row += "|" + std::string(state_name(a.state));
      for (int p : a.prrs) row += "|p" + std::to_string(p);
      if (a.launched_at != 0) {
        row += "|w" + std::to_string(sched.received_words(id).size());
      }
      trace.push_back(row);
    }
    return trace;
  };
  EXPECT_EQ(run_once(42), run_once(42));
}

}  // namespace
}  // namespace vapres::sched
