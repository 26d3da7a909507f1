// Module-switching tests (Figure 5 / Section III.B.3): protocol
// completion, state hand-off, stream continuity ("no stream processing
// interruption"), and the halt-and-reconfigure baseline for contrast.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "baseline/naive_switch.hpp"
#include "core/switching.hpp"
#include "core/system.hpp"
#include "fabric/frame.hpp"
#include "obs/bus.hpp"

namespace vapres::core {
namespace {

using comm::Word;

// A small-PRR system so reconfiguration takes ~3 ms of simulated time
// instead of the prototype's 72 ms (tests stay fast; the bench uses the
// full prototype). PRR: 16 x 4 CLBs = 256 slices.
SystemParams small_prr_params() {
  SystemParams p = SystemParams::prototype();
  p.rsbs[0].prr_width_clbs = 4;
  return p;
}

struct SwitchRig {
  std::unique_ptr<VapresSystem> sys;
  ChannelId upstream = 0;
  ChannelId downstream = 0;

  explicit SwitchRig(const std::string& module_a,
                     const std::string& module_b,
                     SystemParams params = small_prr_params()) {
    sys = std::make_unique<VapresSystem>(std::move(params));
    sys->bring_up_all_sites();
    sys->reconfigure_now(0, 0, module_a);
    sys->preload_sdram(module_b, 0, 1);  // paper: staged at startup
    Rsb& rsb = sys->rsb();
    upstream = *sys->connect(0, rsb.iom_producer(0), rsb.prr_consumer(0));
    downstream = *sys->connect(0, rsb.prr_producer(0), rsb.iom_consumer(0));
  }

  SwitchRequest request(const std::string& module_b) const {
    SwitchRequest req;
    req.src_prr = 0;
    req.dst_prr = 1;
    req.new_module_id = module_b;
    req.upstream = upstream;
    req.downstream = downstream;
    req.eos_iom = 0;
    return req;
  }

  Iom& iom() { return sys->rsb().iom(0); }

  bool run_switch(ModuleSwitcher& sw, sim::Cycles max_cycles = 50'000'000) {
    sw.begin();
    return sys->sim().run_until([&] { return sw.done(); },
                                max_cycles * 10000ULL);
  }
};

TEST(Switching, ProtocolCompletesAndReroutes) {
  SwitchRig rig("passthrough", "gain_x2");
  rig.iom().set_source_generator(
      [n = 0]() mutable -> std::optional<Word> {
        return static_cast<Word>(n++);
      },
      /*interval=*/4);

  ModuleSwitcher sw(*rig.sys, rig.request("gain_x2"));
  ASSERT_TRUE(rig.run_switch(sw));

  Rsb& rsb = rig.sys->rsb();
  EXPECT_EQ(rsb.prr(1).loaded_module(), "gain_x2");
  // Old channels replaced by new ones.
  EXPECT_FALSE(rsb.channels().active(rig.upstream));
  EXPECT_FALSE(rsb.channels().active(rig.downstream));
  EXPECT_TRUE(rsb.channels().active(sw.new_upstream()));
  EXPECT_TRUE(rsb.channels().active(sw.new_downstream()));
  // New upstream feeds PRR1, new downstream comes from PRR1.
  EXPECT_EQ(rsb.channels().spec(sw.new_upstream()).consumer_box,
            rsb.params().box_of_prr(1));
  EXPECT_EQ(rsb.channels().spec(sw.new_downstream()).producer_box,
            rsb.params().box_of_prr(1));
  // The old module's site was shut down.
  const auto src_sock =
      rig.sys->dcr().read(rsb.prr_socket_address(0));
  EXPECT_EQ(src_sock & (PrSocket::kSmEn | PrSocket::kClkEn), 0u);
  // Exactly one EOS word passed the IOM and was filtered from the data.
  EXPECT_EQ(rig.iom().eos_seen(), 1u);
}

TEST(Switching, TimelineIsOrderedAndReconfigDominates) {
  SwitchRig rig("passthrough", "passthrough");
  rig.iom().set_source_generator(
      [n = 0]() mutable -> std::optional<Word> {
        return static_cast<Word>(n++);
      },
      4);
  ModuleSwitcher sw(*rig.sys, rig.request("passthrough"));
  ASSERT_TRUE(rig.run_switch(sw));

  const auto& t = sw.timeline();
  EXPECT_LT(t.started, t.reconfig_done);
  EXPECT_LE(t.reconfig_done, t.input_rerouted);
  EXPECT_LE(t.input_rerouted, t.state_collected);
  EXPECT_LE(t.state_collected, t.module_initialized);
  EXPECT_LE(t.module_initialized, t.iom_eos_seen);
  EXPECT_LE(t.iom_eos_seen, t.completed);

  // PR dominates the protocol: the post-reconfig tail is tiny.
  const auto pr = t.reconfig_done - t.started;
  const auto tail = t.completed - t.reconfig_done;
  EXPECT_GT(pr, 100 * tail);

  // PR time matches the calibrated array2icap estimate for this PRR.
  const auto est = ReconfigManager::estimate_array2icap(
      fabric::partial_bitstream_bytes(rig.sys->rsb().prr(1).rect()));
  EXPECT_NEAR(static_cast<double>(pr), est.total_cycles(),
              est.total_cycles() * 0.01 + 1000);
}

TEST(Switching, NoStreamInterruption) {
  // THE headline claim: module replacement does not interrupt the output
  // stream. Input arrives every 4 cycles; the output gap during the whole
  // switch must stay within the same order of magnitude — millions of
  // cycles below the reconfiguration time.
  SwitchRig rig("passthrough", "gain_x2");
  rig.iom().set_source_generator(
      [n = 0]() mutable -> std::optional<Word> {
        return static_cast<Word>(n++);
      },
      4);
  // Warm the stream, then reset gap statistics.
  rig.sys->run_system_cycles(200);
  rig.iom().reset_gap_stats();

  ModuleSwitcher sw(*rig.sys, rig.request("gain_x2"));
  ASSERT_TRUE(rig.run_switch(sw));
  rig.sys->run_system_cycles(500);

  const auto gap = rig.iom().max_output_gap();
  const auto reconfig_cycles =
      sw.timeline().reconfig_done - sw.timeline().started;
  EXPECT_LE(gap, 400u) << "stream interrupted";
  EXPECT_LT(static_cast<double>(gap),
            0.001 * static_cast<double>(reconfig_cycles));
  // The input never backed up into the external source either.
  EXPECT_EQ(rig.iom().source_stall_cycles(), 0u);
}

TEST(Switching, StateHandoffPreservesFilterContinuity) {
  // ma4 -> ma4 relocation (the fault-tolerance use case): the output
  // across the switch must equal one uninterrupted ma4 run.
  SwitchRig rig("ma4", "ma4");
  constexpr int kWords = 3000;
  rig.iom().set_source_generator(
      [n = 0]() mutable -> std::optional<Word> {
        if (n >= kWords) return std::nullopt;
        return static_cast<Word>((n++ * 2654435761u) >> 16);
      },
      /*interval=*/1200);  // slow stream so it spans the whole switch

  ModuleSwitcher sw(*rig.sys, rig.request("ma4"));
  ASSERT_TRUE(rig.run_switch(sw));
  // Let the remaining words flow through the new module.
  ASSERT_TRUE(rig.sys->sim().run_until(
      [&] { return rig.iom().received().size() >= kWords; },
      sim::kPsPerSecond * 60));

  // Golden: one continuous ma4 over the same input.
  std::deque<Word> line(4, 0);
  std::uint64_t sum = 0;
  std::vector<Word> golden;
  for (int n = 0; n < kWords; ++n) {
    const Word x = static_cast<Word>((static_cast<unsigned>(n) *
                                      2654435761u) >> 16);
    sum -= line.front();
    line.pop_front();
    line.push_back(x);
    sum += x;
    golden.push_back(static_cast<Word>(sum >> 2));
  }
  EXPECT_EQ(rig.iom().received(), golden);
  // State really moved: the collected frame is the 4-word delay line.
  EXPECT_EQ(sw.collected_state().size(), 4u);
  // ma4's periodic monitoring words on the r-link were skipped, not
  // mistaken for the state frame.
  EXPECT_GE(sw.skipped_monitoring().size(), 1u);
}

TEST(Switching, IncompatibleStateShapesSurfaceLoudly) {
  SystemParams p = SystemParams::prototype();
  p.rsbs[0].prr_width_clbs = 5;  // 320 slices: ma8 (300) fits
  SwitchRig rig("ma4", "ma8", std::move(p));
  rig.iom().set_source_generator(
      [n = 0]() mutable -> std::optional<Word> {
        return static_cast<Word>(n++);
      },
      4);
  // ma4 emits a monitoring word every 256 samples; let several queue up.
  rig.sys->run_system_cycles(8000);
  ModuleSwitcher sw(*rig.sys, rig.request("ma8"));
  // ma8 cannot restore ma4's 4-word state: the wrapper throws on
  // restore, surfacing the designer error loudly.
  EXPECT_THROW(rig.run_switch(sw), ModelError);
}

TEST(Switching, CompatibleDifferentModulesSwapCleanly) {
  // decim2 -> decim4: same state shape (phase), different behaviour.
  SwitchRig rig("decim2", "decim4");
  rig.iom().set_source_generator(
      [n = 0]() mutable -> std::optional<Word> {
        return static_cast<Word>(n++);
      },
      4);
  ModuleSwitcher sw(*rig.sys, rig.request("decim4"));
  ASSERT_TRUE(rig.run_switch(sw));
  rig.sys->run_system_cycles(4000);
  EXPECT_EQ(rig.sys->rsb().prr(1).loaded_module(), "decim4");
  ASSERT_EQ(sw.collected_state().size(), 1u);
  EXPECT_LT(sw.collected_state()[0], 2u);  // a valid decim2 phase
}

TEST(Switching, EmitsTraceRecordsForEveryMilestone) {
  struct SwitchLane {
    SwitchLane() {
      obs::EventBus::instance().enable(
          obs::EventBus::bit(obs::Subsystem::kSwitch));
    }
    ~SwitchLane() { obs::EventBus::instance().disable(); }
  } lane;

  SwitchRig rig("passthrough", "offset_100");
  rig.iom().set_source_generator(
      [n = 0]() mutable -> std::optional<Word> {
        return static_cast<Word>(n++);
      },
      4);
  ModuleSwitcher sw(*rig.sys, rig.request("offset_100"));
  ASSERT_TRUE(rig.run_switch(sw));

  const std::vector<obs::Event> records = obs::EventBus::instance().snapshot();
  auto has = [&](obs::EventKind kind, std::uint16_t step) {
    return std::any_of(records.begin(), records.end(),
                       [&](const obs::Event& e) {
                         return e.kind == kind && e.code == step;
                       });
  };
  ASSERT_GE(records.size(), 6u);
  // Step 3 (reconfigure the spare PRR) opens the protocol; the output
  // re-route closing step 9 completes it.
  EXPECT_EQ(records.front().kind, obs::EventKind::kBegin);
  EXPECT_EQ(records.front().code, obs::ev::kStep1Reconfigure);
  EXPECT_EQ(records.back().kind, obs::EventKind::kEnd);
  EXPECT_EQ(records.back().code, obs::ev::kStep9RerouteDownstream);
  // PR complete, input re-routed, state collected, new module initialized.
  EXPECT_TRUE(has(obs::EventKind::kEnd, obs::ev::kStep1Reconfigure));
  EXPECT_TRUE(has(obs::EventKind::kEnd, obs::ev::kStep3RerouteUpstream));
  EXPECT_TRUE(has(obs::EventKind::kEnd, obs::ev::kStep5CollectState));
  EXPECT_TRUE(has(obs::EventKind::kEnd, obs::ev::kStep6InitNewModule));
  EXPECT_FALSE(has(obs::EventKind::kInstant, obs::ev::kSwitchRollback));
  // The initialisation step carries the collected state-word count.
  for (const obs::Event& e : records) {
    EXPECT_EQ(e.subsystem, obs::Subsystem::kSwitch);
    if (e.kind == obs::EventKind::kBegin &&
        e.code == obs::ev::kStep6InitNewModule) {
      EXPECT_EQ(e.arg1, sw.collected_state().size());
    }
  }
  // Timestamps are monotone simulation times.
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_GE(records[i].time_ps, records[i - 1].time_ps);
  }
}

TEST(Switching, RequestValidation) {
  SwitchRig rig("passthrough", "gain_x2");
  SwitchRequest req = rig.request("gain_x2");
  req.dst_prr = req.src_prr;
  EXPECT_THROW(ModuleSwitcher(*rig.sys, req), ModelError);
  req = rig.request("gain_x2");
  req.new_module_id = "no_such_module";
  EXPECT_THROW(ModuleSwitcher(*rig.sys, req), ModelError);
  req = rig.request("gain_x2");
  req.upstream = 9999;
  ModuleSwitcher sw(*rig.sys, req);
  EXPECT_THROW(sw.begin(), ModelError);
}

// ------------------------------------------------------- naive baseline

TEST(NaiveSwitching, HaltAndReconfigureGapsTheStream) {
  SwitchRig rig("passthrough", "gain_x2");
  rig.iom().set_source_generator(
      [n = 0]() mutable -> std::optional<Word> {
        return static_cast<Word>(n++);
      },
      4);
  rig.sys->run_system_cycles(200);
  rig.iom().reset_gap_stats();

  baseline::NaiveSwitchRequest req;
  req.prr = 0;
  req.new_module_id = "gain_x2";
  req.upstream = rig.upstream;
  req.downstream = rig.downstream;
  // In-place switch needs the bitstream for PRR 0.
  rig.sys->preload_sdram("gain_x2", 0, 0);

  baseline::NaiveSwitcher sw(*rig.sys, req);
  sw.begin();
  ASSERT_TRUE(rig.sys->sim().run_until([&] { return sw.done(); },
                                       sim::kPsPerSecond * 120));
  rig.sys->run_system_cycles(2000);

  const auto gap = rig.iom().max_output_gap();
  const auto reconfig =
      sw.timeline().reconfig_done - sw.timeline().halted;
  // The output gap covers (at least) the whole reconfiguration.
  EXPECT_GE(gap, reconfig);
  EXPECT_GT(gap, 100'000u);
  // And the halted input backed up into the external source.
  EXPECT_GT(rig.iom().source_stall_cycles(), 0u);
}

TEST(NaiveSwitching, AnalyticGapModel) {
  EXPECT_GE(baseline::NaiveSwitcher::predicted_gap_cycles(1e6), 1e6);
}

}  // namespace
}  // namespace vapres::core
