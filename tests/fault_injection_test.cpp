// Fault-injection suite: the injector's determinism contract, a
// parameterized fault matrix over the ICAP sites (retry / source
// fallback / permanent failure), the FIFO and switch-box sites, the
// scrubber's repairs, and bit-for-bit replay of a whole faulty run from
// its seed. Recovery counters must match injected counts exactly — the
// scoreboard is the evidence that every injected fault was handled.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "comm/fifo.hpp"
#include "core/scrubber.hpp"
#include "core/stats.hpp"
#include "core/switching.hpp"
#include "core/system.hpp"
#include "obs/bus.hpp"
#include "sim/fault.hpp"
#include "test_util.hpp"

namespace vapres {
namespace {

using sim::FaultSite;
using sim::RecoveryEvent;

// ------------------------------------------------------- injector unit

TEST(FaultInjector, ArmedWindowFiresExactlyOnPlannedOpportunities) {
  sim::ScopedFaultInjection faults(1u);
  faults->arm(FaultSite::kFifoDropWord, /*nth=*/2, /*count=*/3);
  std::string pattern;
  for (int i = 0; i < 8; ++i) {
    pattern += faults->should_fire(FaultSite::kFifoDropWord) ? '1' : '0';
  }
  EXPECT_EQ(pattern, "00111000");
  EXPECT_EQ(faults->injected(FaultSite::kFifoDropWord), 3u);
  EXPECT_EQ(faults->opportunities(FaultSite::kFifoDropWord), 8u);
}

TEST(FaultInjector, SameSeedSameProbabilisticSequence) {
  const auto draw = [](std::uint64_t seed) {
    sim::ScopedFaultInjection faults(seed);
    faults->set_probability(FaultSite::kConfigFrameUpset, 0.3);
    std::string pattern;
    for (int i = 0; i < 64; ++i) {
      pattern += faults->should_fire(FaultSite::kConfigFrameUpset) ? '1' : '0';
    }
    return pattern;
  };
  EXPECT_EQ(draw(42), draw(42));
  EXPECT_NE(draw(42), draw(43));  // SplitMix64: distinct seeds diverge
}

TEST(FaultInjector, DisabledHooksNeverFireAndEnableResets) {
  auto& faults = sim::FaultInjector::instance();
  ASSERT_FALSE(faults.enabled());
  EXPECT_FALSE(faults.should_fire(FaultSite::kFifoDropWord));
  {
    sim::ScopedFaultInjection scoped(9u);
    scoped->arm(FaultSite::kFifoDropWord, 0);
    EXPECT_TRUE(scoped->should_fire(FaultSite::kFifoDropWord));
    scoped->note_recovery(RecoveryEvent::kScrubRepair);
  }
  // Counters survive disable() for post-run inspection ...
  EXPECT_FALSE(faults.enabled());
  EXPECT_EQ(faults.total_injected(), 1u);
  EXPECT_EQ(faults.total_recoveries(), 1u);
  // ... and the next enable() starts from zero (replay contract).
  sim::ScopedFaultInjection scoped(9u);
  EXPECT_EQ(faults.total_injected(), 0u);
  EXPECT_EQ(faults.total_recoveries(), 0u);
  EXPECT_EQ(faults.opportunities(FaultSite::kFifoDropWord), 0u);
}

TEST(FaultInjector, ReportListsNonzeroCountersStably) {
  sim::ScopedFaultInjection faults(3u);
  faults->arm(FaultSite::kIcapTransferTimeout, 0);
  faults->should_fire(FaultSite::kIcapTransferTimeout);
  faults->note_recovery(RecoveryEvent::kIcapRetry);
  const std::string report = faults->report();
  EXPECT_NE(report.find("icap_transfer_timeout"), std::string::npos);
  EXPECT_NE(report.find("icap_retry"), std::string::npos);
  EXPECT_EQ(report, faults->report());
}

// -------------------------------------------------- ICAP fault matrix

// One row of the matrix: arm `site` for the first `armed` transfer
// attempts of a PR and check the recovery machinery lands exactly where
// the policy says (default policy: 3 attempts per source, CF fallback).
struct IcapFaultCase {
  FaultSite site;
  std::uint64_t armed;
  int want_retries;
  int want_fallbacks;
};

std::string PrintCase(const ::testing::TestParamInfo<IcapFaultCase>& info) {
  return std::string(sim::fault_site_name(info.param.site)) + "_x" +
         std::to_string(info.param.armed);
}

class IcapFaultMatrix : public ::testing::TestWithParam<IcapFaultCase> {};

TEST_P(IcapFaultMatrix, RecoversAndCountersMatchInjectedCounts) {
  const IcapFaultCase c = GetParam();
  test::FaultRig rig(0xFA117u);
  rig.injector().arm(c.site, /*nth=*/0, c.armed);

  // The PR heals itself: the caller sees nothing but a longer call.
  rig.sys->reconfigure_now(0, 1, "gain_x2");
  EXPECT_EQ(rig.sys->rsb().prr(1).loaded_module(), "gain_x2");

  auto& reconfig = rig.sys->reconfig();
  EXPECT_EQ(reconfig.retries(), c.want_retries);
  EXPECT_EQ(reconfig.fallbacks(), c.want_fallbacks);
  EXPECT_EQ(reconfig.failures(), 0);

  // Scoreboard: injected counts match the armed plan, recoveries match
  // the policy's answer to them, nothing else moved.
  auto& inj = rig.injector();
  EXPECT_EQ(inj.injected(c.site), c.armed);
  EXPECT_EQ(inj.total_injected(), c.armed);
  EXPECT_EQ(inj.recoveries(RecoveryEvent::kIcapRetry),
            static_cast<std::uint64_t>(c.want_retries));
  EXPECT_EQ(inj.recoveries(RecoveryEvent::kSourceFallback),
            static_cast<std::uint64_t>(c.want_fallbacks));
  EXPECT_EQ(inj.total_recoveries(),
            static_cast<std::uint64_t>(c.want_retries + c.want_fallbacks));

  // The same numbers surface through core::stats.
  const auto stats = core::collect_stats(*rig.sys);
  EXPECT_EQ(stats.robustness.faults_injected, c.armed);
  EXPECT_EQ(stats.robustness.reconfig_retries,
            static_cast<std::uint64_t>(c.want_retries));
  EXPECT_EQ(stats.robustness.source_fallbacks,
            static_cast<std::uint64_t>(c.want_fallbacks));
  EXPECT_EQ(stats.robustness.reconfig_failures, 0u);
  if (c.site == FaultSite::kIcapBitstreamCorruption) {
    EXPECT_EQ(stats.robustness.icap_corrupted, c.armed);
  } else {
    EXPECT_EQ(stats.robustness.icap_timeouts, c.armed);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, IcapFaultMatrix,
    ::testing::Values(
        // 1 corrupt attempt: one retry on the SDRAM source heals it.
        IcapFaultCase{FaultSite::kIcapBitstreamCorruption, 1, 1, 0},
        // 2 corrupt attempts: two retries, still the same source.
        IcapFaultCase{FaultSite::kIcapBitstreamCorruption, 2, 2, 0},
        // 3 corrupt attempts exhaust the SDRAM source (2 retries), the
        // driver falls back to CompactFlash and succeeds first try.
        IcapFaultCase{FaultSite::kIcapBitstreamCorruption, 3, 2, 1},
        // Timeouts take the identical recovery path.
        IcapFaultCase{FaultSite::kIcapTransferTimeout, 1, 1, 0},
        IcapFaultCase{FaultSite::kIcapTransferTimeout, 3, 2, 1}),
    PrintCase);

TEST(FaultInjection, PermanentFailureIsCountedAndReportedToCaller) {
  test::FaultRig rig(77u);
  rig.sys->reconfig().set_retry_policy(
      {.max_attempts = 1, .backoff_base_cycles = 256,
       .fallback_to_cf = false});
  rig.injector().arm(FaultSite::kIcapBitstreamCorruption, 0);

  // Drive the path directly so the outcome is observable (the
  // reconfigure_now convenience throws on permanent failure instead).
  const std::string key = "gain_x2@" + rig.sys->rsb().prr(1).name();
  bool done = false;
  core::ReconfigOutcome outcome;
  rig.sys->reconfig().array2icap(key, [&](const core::ReconfigOutcome& o) {
    done = true;
    outcome = o;
  });
  ASSERT_TRUE(
      rig.sys->sim().run_until([&] { return done; }, sim::kPsPerSecond * 60));

  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.attempts, 1);
  EXPECT_EQ(outcome.fallbacks, 0);
  EXPECT_EQ(rig.sys->reconfig().failures(), 1);
  EXPECT_EQ(rig.sys->reconfig().retries(), 0);
  EXPECT_EQ(rig.sys->rsb().prr(1).loaded_module(), "");  // not applied
  EXPECT_EQ(core::collect_stats(*rig.sys).robustness.reconfig_failures, 1u);

  // And the convenience wrapper surfaces the permanent failure loudly.
  rig.injector().arm(FaultSite::kIcapBitstreamCorruption, /*nth=*/1);
  EXPECT_THROW(rig.sys->reconfigure_now(0, 1, "gain_x2"), ModelError);
}

// ------------------------------------------------- FIFO fault sites

TEST(FaultInjection, FifoDropLosesExactlyTheArmedWords) {
  comm::Fifo fifo("faulty", 16);
  sim::ScopedFaultInjection faults(11u);
  faults->arm(FaultSite::kFifoDropWord, /*nth=*/2, /*count=*/2);
  for (comm::Word w = 0; w < 8; ++w) fifo.push(w);
  EXPECT_EQ(fifo.size(), 6);
  EXPECT_EQ(fifo.fault_dropped(), 2u);
  EXPECT_EQ(fifo.total_pushed(), 6u);  // dropped words never entered
  // Words 2 and 3 vanished; order of the survivors is preserved.
  std::vector<comm::Word> got;
  while (!fifo.empty()) got.push_back(fifo.pop());
  EXPECT_EQ(got, (std::vector<comm::Word>{0, 1, 4, 5, 6, 7}));
}

TEST(FaultInjection, FifoDuplicateDoublesExactlyTheArmedWord) {
  comm::Fifo fifo("faulty", 16);
  sim::ScopedFaultInjection faults(11u);
  faults->arm(FaultSite::kFifoDuplicateWord, /*nth=*/1);
  for (comm::Word w = 0; w < 4; ++w) fifo.push(w);
  EXPECT_EQ(fifo.size(), 5);
  EXPECT_EQ(fifo.fault_duplicated(), 1u);
  std::vector<comm::Word> got;
  while (!fifo.empty()) got.push_back(fifo.pop());
  EXPECT_EQ(got, (std::vector<comm::Word>{0, 1, 1, 2, 3}));
}

TEST(FaultInjection, FifoDuplicateRespectsCapacity) {
  comm::Fifo fifo("tight", 2);
  sim::ScopedFaultInjection faults(11u);
  faults->arm(FaultSite::kFifoDuplicateWord, /*nth=*/1, /*count=*/1);
  fifo.push(7);
  fifo.push(8);  // duplicate armed, but no room for a second copy
  EXPECT_EQ(fifo.size(), 2);
  EXPECT_EQ(fifo.fault_duplicated(), 0u);
  // A full push is no opportunity: the injector counts no duplicate
  // that never landed.
  EXPECT_EQ(faults->injected(FaultSite::kFifoDuplicateWord),
            fifo.fault_duplicated());
}

// --------------------------------------- scrubber heals fabric faults

TEST(FaultInjection, ScrubberRepairsStuckSwitchBoxPort) {
  test::FaultRig rig(0x5C12Bu);
  core::ScrubberTask scrub(*rig.sys, /*period_cycles=*/500);
  scrub.start();
  // The first output-mux opportunity after enable goes stuck.
  rig.injector().arm(FaultSite::kSwitchBoxStuckPort, /*nth=*/0);

  rig.sys->run_system_cycles(50);  // fault lands on the first commit
  auto stats = core::collect_stats(*rig.sys);
  ASSERT_EQ(stats.robustness.stuck_ports, 1u);

  rig.sys->run_system_cycles(2000);  // several scrub periods
  EXPECT_GE(scrub.scans(), 1u);
  EXPECT_EQ(scrub.mux_repairs(), 1u);
  EXPECT_EQ(rig.injector().recoveries(RecoveryEvent::kScrubRepair), 1u);
  stats = core::collect_stats(*rig.sys);
  EXPECT_EQ(stats.robustness.stuck_ports, 0u);  // healed
  EXPECT_EQ(stats.robustness.scrub_repairs, 1u);
}

TEST(FaultInjection, ScrubberRepairsConfigFrameUpsets) {
  test::FaultRig rig(0x5EEDu);
  core::ScrubberTask scrub(*rig.sys, /*period_cycles=*/500);
  scrub.start();
  // Upsets hit the first two PRR frames the scrubber reads back.
  rig.injector().arm(FaultSite::kConfigFrameUpset, /*nth=*/0, /*count=*/2);

  rig.sys->run_system_cycles(3000);
  EXPECT_GE(scrub.scans(), 2u);
  EXPECT_EQ(scrub.frame_repairs(), 2u);
  EXPECT_EQ(scrub.repairs(), 2u);
  EXPECT_EQ(rig.injector().recoveries(RecoveryEvent::kScrubRepair), 2u);
  EXPECT_EQ(core::collect_stats(*rig.sys).robustness.scrub_repairs, 2u);
}

// Each system reports the faults that landed on it; the injector's
// scoreboard is process-wide.
TEST(FaultInjection, FaultsInjectedStayOnTheirSystem) {
  core::SystemParams p = core::SystemParams::prototype();
  p.rsbs[0].prr_width_clbs = 4;
  core::VapresSystem other(std::move(p));
  other.bring_up_all_sites();
  test::FaultRig rig(0xB0B0u);
  rig.injector().arm(FaultSite::kIcapBitstreamCorruption, /*nth=*/0);

  rig.sys->reconfigure_now(0, 1, "gain_x2");
  ASSERT_EQ(rig.injector().total_injected(), 1u);
  EXPECT_EQ(core::collect_stats(*rig.sys).robustness.faults_injected, 1u);
  EXPECT_EQ(core::collect_stats(other).robustness.faults_injected, 0u);
}

// The injector stamps faults with the last-built live system's clock:
// destroying an older system must not take a newer one's clock away (a
// fleet's kill_fabric builds the replacement before the old one dies).
TEST(FaultInjection, InjectStampOutlivesAnOlderSystem) {
  core::SystemParams p = core::SystemParams::prototype();
  p.rsbs[0].prr_width_clbs = 4;
  auto older = std::make_unique<core::VapresSystem>(p);
  core::VapresSystem sys(std::move(p));
  sys.bring_up_all_sites();
  older.reset();
  sys.run_system_cycles(1000);
  sys.preload_sdram("gain_x2", 0, 1);

  obs::EventBus& bus = obs::EventBus::instance();
  bus.enable(obs::EventBus::bit(obs::Subsystem::kFault));
  sim::ScopedFaultInjection faults(0x57A3Du);
  faults->arm(FaultSite::kIcapBitstreamCorruption, /*nth=*/0);
  const sim::Picoseconds armed_at = sys.sim().now();
  sys.reconfigure_now(0, 1, "gain_x2");
  std::vector<obs::Event> injects;
  for (const obs::Event& e : bus.snapshot()) {
    if (e.subsystem == obs::Subsystem::kFault && e.code == obs::ev::kInject) {
      injects.push_back(e);
    }
  }
  bus.disable();

  ASSERT_EQ(injects.size(), 1u);
  EXPECT_GT(armed_at, 0u);
  EXPECT_GE(injects[0].time_ps, armed_at);
  EXPECT_LE(injects[0].time_ps, sys.sim().now());
}

// ----------------------------------------------- deterministic replay

// A cross-layer scenario: streaming system, probabilistic FIFO faults,
// an armed ICAP corruption healed by retry, a scrub pass. Returns the
// full stats rendering plus the injector report.
std::pair<std::string, std::string> run_replay_scenario(std::uint64_t seed) {
  test::FaultRig rig(seed);
  auto& inj = rig.injector();
  inj.set_probability(FaultSite::kFifoDropWord, 0.002);
  inj.set_probability(FaultSite::kFifoDuplicateWord, 0.002);
  inj.arm(FaultSite::kIcapBitstreamCorruption, /*nth=*/0);
  core::ScrubberTask scrub(*rig.sys, /*period_cycles=*/5000);
  scrub.start();

  rig.stream_counter(/*interval=*/4);
  rig.sys->run_system_cycles(2000);
  rig.sys->reconfigure_now(0, 1, "gain_x2");
  rig.sys->run_system_cycles(2000);

  const auto stats = core::collect_stats(*rig.sys);
  return {stats.to_string(), inj.report()};
}

TEST(FaultInjection, FixedSeedReplayIsBitForBit) {
  // Same seed: identical counters everywhere, down to the rendered
  // report. This is the acceptance bar for the whole layer — a fault
  // run must be a pure function of its seed.
  const auto first = run_replay_scenario(0xD5EEDu);
  const auto second = run_replay_scenario(0xD5EEDu);
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
  // The scenario actually injected probabilistic faults (not vacuous).
  EXPECT_NE(first.second.find("fifo_drop_word"), std::string::npos)
      << first.second;
}

}  // namespace
}  // namespace vapres
