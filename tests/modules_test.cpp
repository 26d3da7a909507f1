// Hardware-module behaviour tests: each built-in module against an
// independent golden model, state save/restore round-trips, KPN firing
// discipline, and the module library.
#include <gtest/gtest.h>

#include <deque>

#include "hwmodule/library.hpp"
#include "hwmodule/modules.hpp"
#include "sim/random.hpp"
#include "test_util.hpp"

namespace vapres::hwmodule {
namespace {

using comm::Word;
using test::PortsStub;
using test::run_behavior;

std::vector<Word> random_words(int n, std::uint64_t seed) {
  sim::SplitMix64 rng(seed);
  std::vector<Word> v(static_cast<std::size_t>(n));
  for (auto& w : v) w = static_cast<Word>(rng.next());
  return v;
}

// ----------------------------------------------------------------- golden
// Independent reference implementations (plain loops, no shared code with
// the behaviours under test).

std::vector<Word> golden_moving_average(const std::vector<Word>& in,
                                        int window_log2) {
  const int w = 1 << window_log2;
  std::deque<Word> line(static_cast<std::size_t>(w), 0);
  std::vector<Word> out;
  std::uint64_t sum = 0;
  for (Word x : in) {
    sum -= line.front();
    line.pop_front();
    line.push_back(x);
    sum += x;
    out.push_back(static_cast<Word>(sum >> window_log2));
  }
  return out;
}

std::vector<Word> golden_fir(const std::vector<Word>& in,
                             const std::vector<std::int32_t>& taps) {
  std::vector<Word> line(taps.size(), 0);
  std::vector<Word> out;
  for (Word x : in) {
    for (std::size_t i = line.size() - 1; i > 0; --i) line[i] = line[i - 1];
    line[0] = x;
    std::int64_t acc = 0;
    for (std::size_t i = 0; i < taps.size(); ++i) {
      acc += static_cast<std::int64_t>(taps[i]) *
             static_cast<std::int32_t>(line[i]);
    }
    out.push_back(static_cast<Word>(static_cast<std::uint64_t>(acc) >> 15));
  }
  return out;
}

// ------------------------------------------------------------- behaviours

TEST(Passthrough, Identity) {
  Passthrough m;
  const auto in = random_words(100, 1);
  EXPECT_EQ(run_behavior(m, in), in);
}

TEST(Gain, MultipliesQ16) {
  Gain m("g", 3u << 16, 16);  // x3
  const auto out = run_behavior(m, {1, 2, 100});
  EXPECT_EQ(out, (std::vector<Word>{3, 6, 300}));
}

TEST(Gain, FractionalAndWraparound) {
  Gain half("g", 1u << 15, 16);  // x0.5
  EXPECT_EQ(run_behavior(half, {8, 9}), (std::vector<Word>{4, 4}));
  Gain big("g", 0xFFFFFFFFu, 0);
  const auto out = run_behavior(big, {2});
  EXPECT_EQ(out[0], static_cast<Word>(2ull * 0xFFFFFFFFull));
}

TEST(Gain, StateRoundTrip) {
  Gain m("g", 7, 0);
  const auto st = m.save_state();
  ASSERT_EQ(st.size(), 1u);
  EXPECT_EQ(st[0], 7u);
  Gain fresh("g", 1, 0);
  fresh.restore_state(st);
  EXPECT_EQ(fresh.multiplier(), 7u);
  EXPECT_THROW(fresh.restore_state(std::vector<Word>{1, 2}), ModelError);
}

TEST(AddOffset, AddsWithWrap) {
  AddOffset m("o", 100);
  EXPECT_EQ(run_behavior(m, {1, 0xFFFFFFFFu}),
            (std::vector<Word>{101, 99}));
}

class MovingAverageSweep : public ::testing::TestWithParam<int> {};

TEST_P(MovingAverageSweep, MatchesGolden) {
  const int wlog = GetParam();
  MovingAverage m("ma", wlog);
  const auto in = random_words(300, 42 + static_cast<std::uint64_t>(wlog));
  EXPECT_EQ(run_behavior(m, in), golden_moving_average(in, wlog));
}

INSTANTIATE_TEST_SUITE_P(Windows, MovingAverageSweep,
                         ::testing::Values(0, 1, 2, 3, 5, 8));

TEST(MovingAverage, StateTransferPreservesContinuity) {
  // Process a prefix in one instance, transfer state, continue in a fresh
  // instance: the concatenated output must equal a single-instance run.
  const auto in = random_words(200, 7);
  const std::vector<Word> head(in.begin(), in.begin() + 120);
  const std::vector<Word> tail(in.begin() + 120, in.end());

  MovingAverage a("ma", 3);
  auto out = run_behavior(a, head);
  MovingAverage b("ma", 3);
  b.restore_state(a.save_state());
  const auto out2 = run_behavior(b, tail);
  out.insert(out.end(), out2.begin(), out2.end());

  MovingAverage whole("ma", 3);
  EXPECT_EQ(out, run_behavior(whole, in));
}

TEST(MovingAverage, RestoreRejectsWrongWindow) {
  MovingAverage a("ma4", 2);
  MovingAverage b("ma8", 3);
  EXPECT_THROW(b.restore_state(a.save_state()), ModelError);
}

TEST(MovingAverage, MonitoringEmitsEveryInterval) {
  MovingAverage m("ma", 2, /*monitor_interval=*/16);
  PortsStub ports;
  ports.input() = random_words(64, 3);
  for (int i = 0; i < 64; ++i) m.on_cycle(ports);
  EXPECT_EQ(ports.fsl_out().size(), 4u);  // 64 / 16
}

class FirSweep : public ::testing::TestWithParam<int> {};

TEST_P(FirSweep, MatchesGolden) {
  std::vector<std::int32_t> taps;
  sim::SplitMix64 rng(static_cast<std::uint64_t>(GetParam()));
  const int n_taps = 1 + static_cast<int>(rng.next_below(16));
  for (int i = 0; i < n_taps; ++i) {
    taps.push_back(static_cast<std::int32_t>(rng.next_below(32768)) - 16384);
  }
  FirFilter m("fir", taps);
  const auto in = random_words(200, 99 + static_cast<std::uint64_t>(GetParam()));
  EXPECT_EQ(run_behavior(m, in), golden_fir(in, taps));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FirSweep, ::testing::Range(1, 11));

TEST(FirFilter, StateTransferPreservesContinuity) {
  const std::vector<std::int32_t> taps{8192, 8192, 8192, 8192};
  const auto in = random_words(100, 5);
  FirFilter a("fir", taps);
  auto out = run_behavior(
      a, std::vector<Word>(in.begin(), in.begin() + 60));
  FirFilter b("fir", taps);
  b.restore_state(a.save_state());
  const auto out2 =
      run_behavior(b, std::vector<Word>(in.begin() + 60, in.end()));
  out.insert(out.end(), out2.begin(), out2.end());
  FirFilter whole("fir", taps);
  EXPECT_EQ(out, run_behavior(whole, in));
}

TEST(Decimator, KeepsEveryNth) {
  Decimator m("d", 3);
  EXPECT_EQ(run_behavior(m, {0, 1, 2, 3, 4, 5, 6}),
            (std::vector<Word>{0, 3, 6}));
}

TEST(Decimator, PhaseSurvivesStateTransfer) {
  Decimator a("d", 3);
  run_behavior(a, {0, 1});  // phase now 2
  Decimator b("d", 3);
  b.restore_state(a.save_state());
  EXPECT_EQ(run_behavior(b, {2, 3, 4, 5}), (std::vector<Word>{3}));
}

TEST(Upsampler, RepeatsAndReportsPipeline) {
  Upsampler m("u", 3);
  PortsStub ports;
  ports.input() = {7};
  m.on_cycle(ports);
  EXPECT_FALSE(m.pipeline_empty());  // 2 repeats still pending
  m.on_cycle(ports);
  m.on_cycle(ports);
  EXPECT_TRUE(m.pipeline_empty());
  EXPECT_EQ(ports.output(), (std::vector<Word>{7, 7, 7}));
}

TEST(Upsampler, FullRun) {
  Upsampler m("u", 2);
  EXPECT_EQ(run_behavior(m, {1, 2}), (std::vector<Word>{1, 1, 2, 2}));
}

TEST(DelayLine, DelaysByDepth) {
  DelayLine m("dl", 3);
  EXPECT_EQ(run_behavior(m, {10, 20, 30, 40, 50}),
            (std::vector<Word>{0, 0, 0, 10, 20}));
}

TEST(DelayLine, StateRoundTrip) {
  DelayLine a("dl", 2);
  run_behavior(a, {1, 2});
  DelayLine b("dl", 2);
  b.restore_state(a.save_state());
  EXPECT_EQ(run_behavior(b, {3, 4}), (std::vector<Word>{1, 2}));
}

TEST(Checksum, PassthroughWithRunningSum) {
  Checksum m;
  EXPECT_EQ(run_behavior(m, {1, 2, 3}), (std::vector<Word>{1, 2, 3}));
  EXPECT_EQ(m.sum(), 6u);
}

TEST(Checksum, StateCarries64BitSum) {
  Checksum a;
  run_behavior(a, {0xFFFFFFFFu, 0xFFFFFFFFu});
  Checksum b;
  b.restore_state(a.save_state());
  EXPECT_EQ(b.sum(), 2ull * 0xFFFFFFFFull);
}

TEST(Adder2, FiresOnlyWithBothInputs) {
  Adder2 m;
  PortsStub ports(2, 1);
  ports.input(0) = {1, 2};
  m.on_cycle(ports);
  EXPECT_TRUE(ports.output().empty());  // second input empty: blocked
  ports.input(1) = {10};
  m.on_cycle(ports);
  EXPECT_EQ(ports.output(), (std::vector<Word>{11}));
}

TEST(Splitter2, CopiesToBothOutputs) {
  Splitter2 m;
  PortsStub ports(1, 2);
  ports.input() = {5, 6};
  m.on_cycle(ports);
  m.on_cycle(ports);
  EXPECT_EQ(ports.output(0), (std::vector<Word>{5, 6}));
  EXPECT_EQ(ports.output(1), (std::vector<Word>{5, 6}));
}

TEST(Threshold, SuppressesSmallMagnitudes) {
  Threshold m("t", 100);
  EXPECT_EQ(run_behavior(m, {5, 100, 99, 5000}),
            (std::vector<Word>{100, 5000}));
  const auto st = m.save_state();
  EXPECT_EQ(st, (std::vector<Word>{2, 2}));  // passed, suppressed
}

TEST(FslBridges, RoundTrip) {
  FslBridgeOut out_bridge;
  PortsStub out_ports;
  out_ports.input() = {1, 2, 3};
  for (int i = 0; i < 3; ++i) out_bridge.on_cycle(out_ports);
  EXPECT_EQ(out_ports.fsl_out(), (std::vector<Word>{1, 2, 3}));

  FslBridgeIn in_bridge;
  PortsStub in_ports;
  in_ports.fsl_in() = {4, 5};
  for (int i = 0; i < 2; ++i) in_bridge.on_cycle(in_ports);
  EXPECT_EQ(in_ports.output(), (std::vector<Word>{4, 5}));
}

TEST(KpnDiscipline, NoInputConsumedWhenOutputBlocked) {
  // Every 1-in-1-out behaviour must hold its input while the output is
  // blocked — the blocking-write half of the KPN semantics.
  const auto check = [](ModuleBehavior& m) {
    PortsStub ports;
    ports.input() = {1, 2, 3};
    ports.set_output_blocked(true);
    for (int i = 0; i < 10; ++i) m.on_cycle(ports);
    EXPECT_EQ(ports.input().size(), 3u) << m.type_id();
    ports.set_output_blocked(false);
    for (int i = 0; i < 20; ++i) m.on_cycle(ports);
    EXPECT_TRUE(ports.input().empty()) << m.type_id();
  };
  Passthrough p;
  check(p);
  Gain g("g", 2, 0);
  check(g);
  MovingAverage ma("ma", 2);
  check(ma);
  FirFilter fir("fir", {1000, 2000});
  check(fir);
  DelayLine dl("dl", 4);
  check(dl);
  Checksum cs;
  check(cs);
  Upsampler up("u", 2);
  check(up);
}

// ------------------------------------------------------------------ IIR etc.

std::vector<Word> golden_biquad(const std::vector<Word>& in,
                                const IirBiquad::Coefficients& c) {
  std::int32_t x1 = 0, x2 = 0, y1 = 0, y2 = 0;
  std::vector<Word> out;
  for (Word w : in) {
    const auto x0 = static_cast<std::int32_t>(w);
    const std::int64_t acc = static_cast<std::int64_t>(c.b0) * x0 +
                             static_cast<std::int64_t>(c.b1) * x1 +
                             static_cast<std::int64_t>(c.b2) * x2 -
                             static_cast<std::int64_t>(c.a1) * y1 -
                             static_cast<std::int64_t>(c.a2) * y2;
    const auto y0 = static_cast<std::int32_t>(
        static_cast<std::uint64_t>(acc) >> 14);
    x2 = x1;
    x1 = x0;
    y2 = y1;
    y1 = y0;
    out.push_back(static_cast<Word>(y0));
  }
  return out;
}

class BiquadSweep : public ::testing::TestWithParam<int> {};

TEST_P(BiquadSweep, MatchesGolden) {
  sim::SplitMix64 rng(static_cast<std::uint64_t>(GetParam()));
  const IirBiquad::Coefficients c{
      static_cast<std::int32_t>(rng.next_below(32768)) - 16384,
      static_cast<std::int32_t>(rng.next_below(32768)) - 16384,
      static_cast<std::int32_t>(rng.next_below(32768)) - 16384,
      static_cast<std::int32_t>(rng.next_below(16384)) - 8192,
      static_cast<std::int32_t>(rng.next_below(16384)) - 8192};
  IirBiquad m("iir", c);
  const auto in = random_words(200, 31 + static_cast<std::uint64_t>(GetParam()));
  EXPECT_EQ(run_behavior(m, in), golden_biquad(in, c));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BiquadSweep, ::testing::Range(1, 9));

TEST(IirBiquad, StateTransferPreservesContinuity) {
  const IirBiquad::Coefficients c{16384, -16384, 0, -15360, 0};
  const auto in = random_words(100, 77);
  IirBiquad a("iir", c);
  auto out =
      run_behavior(a, std::vector<Word>(in.begin(), in.begin() + 40));
  IirBiquad b("iir", c);
  b.restore_state(a.save_state());
  const auto out2 =
      run_behavior(b, std::vector<Word>(in.begin() + 40, in.end()));
  out.insert(out.end(), out2.begin(), out2.end());
  IirBiquad whole("iir", c);
  EXPECT_EQ(out, run_behavior(whole, in));
}

TEST(IirBiquad, DcBlockerRemovesDcAsymptotically) {
  // Constant input through the library's DC blocker decays toward zero.
  const IirBiquad::Coefficients c{16384, -16384, 0, -15360, 0};
  IirBiquad m("iir", c);
  std::vector<Word> in(200, 1000);
  const auto out = run_behavior(m, in);
  EXPECT_EQ(out[0], 1000u);  // step passes initially...
  // ...and the tail has decayed to (near) zero.
  EXPECT_LT(static_cast<std::int32_t>(out.back()), 10);
  EXPECT_GE(static_cast<std::int32_t>(out.back()), 0);
}

TEST(Saturate, ClampsBothSides) {
  Saturate m("sat", 100);
  const std::vector<Word> in{
      50, 150, static_cast<Word>(-150), static_cast<Word>(-50), 100};
  EXPECT_EQ(run_behavior(m, in),
            (std::vector<Word>{50, 100, static_cast<Word>(-100),
                               static_cast<Word>(-50), 100}));
}

TEST(Saturate, RejectsNonPositiveLimit) {
  EXPECT_THROW(Saturate("sat", 0), ModelError);
}

TEST(PeakHold, TracksRunningMaximum) {
  PeakHold m;
  EXPECT_EQ(run_behavior(m, {3, 1, 7, 2, 9, 4}),
            (std::vector<Word>{3, 3, 7, 7, 9, 9}));
  EXPECT_EQ(m.save_state(), (std::vector<Word>{9}));
  m.reset();
  EXPECT_EQ(run_behavior(m, {1}), (std::vector<Word>{1}));
}

TEST(PeakHold, StateRoundTrip) {
  PeakHold a;
  run_behavior(a, {42});
  PeakHold b;
  b.restore_state(a.save_state());
  EXPECT_EQ(run_behavior(b, {10}), (std::vector<Word>{42}));
}

// ------------------------------------------------------------------ library

TEST(Library, StandardContainsDocumentedModules) {
  const auto lib = ModuleLibrary::standard();
  for (const char* id :
       {"passthrough", "gain_x2", "ma4", "ma8", "fir4_smooth",
        "fir8_lowpass", "fir16_sharp", "decim2", "upsample2", "delay16",
        "checksum", "adder2", "splitter2", "threshold_1k", "fsl_bridge_in",
        "fsl_bridge_out"}) {
    EXPECT_TRUE(lib.contains(id)) << id;
  }
}

TEST(Library, InstantiateProducesMatchingTypeId) {
  const auto lib = ModuleLibrary::standard();
  for (const auto& id : lib.list()) {
    EXPECT_EQ(lib.instantiate(id)->type_id(), id);
  }
}

TEST(Library, ResourceFootprintsFitPrototypePrrExceptLarge) {
  const auto lib = ModuleLibrary::standard();
  const fabric::ResourceVector prr{640, 8, 8};  // prototype PRR + hard IP
  EXPECT_TRUE(lib.info("fir8_lowpass").resources.fits_in(prr));
  EXPECT_FALSE(lib.info("fir16_sharp").resources.fits_in(prr));
}

TEST(Library, PortSignatures) {
  const auto lib = ModuleLibrary::standard();
  EXPECT_EQ(lib.info("adder2").num_inputs, 2);
  EXPECT_EQ(lib.info("splitter2").num_outputs, 2);
  EXPECT_EQ(lib.info("fsl_bridge_in").num_inputs, 0);
}

TEST(Library, DuplicateRegistrationRejected) {
  auto lib = ModuleLibrary::standard();
  EXPECT_THROW(lib.register_module(
                   {"passthrough", "", {1, 0, 0}, 1, 1,
                    [] { return std::make_unique<Passthrough>(); }}),
               ModelError);
}

TEST(Library, RateSignatureBelowOneRejected) {
  // A rate of 0 (or less) has no SDF meaning: the rate analyzer would
  // throw on every chain naming the module, so the library refuses it.
  auto info = [](const char* id, int rate_in, int rate_out) {
    return NetlistInfo{id, "", {10, 0, 0}, 1, 1,
                       [] { return std::make_unique<Passthrough>(); },
                       rate_in, rate_out};
  };
  ModuleLibrary lib;
  EXPECT_THROW(lib.register_module(info("sink_all", 1, 0)), ModelError);
  EXPECT_THROW(lib.register_module(info("from_nothing", 0, 1)), ModelError);
  EXPECT_THROW(lib.register_module(info("negative", -2, 1)), ModelError);
  EXPECT_FALSE(lib.contains("sink_all"));
  EXPECT_FALSE(lib.contains("from_nothing"));
  EXPECT_FALSE(lib.contains("negative"));
  lib.register_module(info("decim3", 3, 1));
  EXPECT_TRUE(lib.contains("decim3"));
}

TEST(Library, UnknownModuleThrows) {
  const auto lib = ModuleLibrary::standard();
  EXPECT_FALSE(lib.contains("nonexistent"));
  EXPECT_THROW(lib.info("nonexistent"), ModelError);
}

}  // namespace
}  // namespace vapres::hwmodule
