#include "hwmodule/library.hpp"

#include "hwmodule/modules.hpp"
#include "sim/check.hpp"

namespace vapres::hwmodule {

void ModuleLibrary::register_module(NetlistInfo info) {
  VAPRES_REQUIRE(!info.type_id.empty(), "netlist needs a type id");
  VAPRES_REQUIRE(info.factory != nullptr,
                 info.type_id + ": netlist needs a factory");
  VAPRES_REQUIRE(info.num_inputs >= 0 && info.num_outputs >= 0,
                 info.type_id + ": negative port count");
  VAPRES_REQUIRE(info.rate_in >= 1 && info.rate_out >= 1,
                 info.type_id + ": rate signature must be >= 1 word");
  VAPRES_REQUIRE(netlists_.count(info.type_id) == 0,
                 "module already registered: " + info.type_id);
  netlists_.emplace(info.type_id, std::move(info));
}

bool ModuleLibrary::contains(const std::string& type_id) const {
  return netlists_.count(type_id) > 0;
}

const NetlistInfo& ModuleLibrary::info(const std::string& type_id) const {
  auto it = netlists_.find(type_id);
  VAPRES_REQUIRE(it != netlists_.end(),
                 "module not in library: " + type_id);
  return it->second;
}

std::unique_ptr<ModuleBehavior> ModuleLibrary::instantiate(
    const std::string& type_id) const {
  return info(type_id).factory();
}

std::vector<std::string> ModuleLibrary::list() const {
  std::vector<std::string> ids;
  ids.reserve(netlists_.size());
  for (const auto& [id, info] : netlists_) ids.push_back(id);
  return ids;
}

ModuleLibrary ModuleLibrary::standard() {
  using fabric::ResourceVector;
  ModuleLibrary lib;

  // Slice footprints are representative Virtex-4 figures for the given
  // structure (taps * MAC slices + control), sized so the larger filters
  // approach the prototype's 640-slice PRR capacity. Footprints are
  // slices-only: PRR rectangles provide CLB fabric, while BlockRAM/DSP
  // columns are charged to the static region in this model (module
  // buffers use distributed RAM).
  lib.register_module({"passthrough", "wire with handshaking",
                       ResourceVector{20, 0, 0}, 1, 1,
                       [] { return std::make_unique<Passthrough>(); }});
  lib.register_module({"gain_x2", "Q16 gain of 2.0",
                       ResourceVector{90, 0, 0}, 1, 1, [] {
                         return std::make_unique<Gain>("gain_x2", 2u << 16,
                                                       16);
                       }});
  lib.register_module({"gain_half", "Q16 gain of 0.5",
                       ResourceVector{90, 0, 0}, 1, 1, [] {
                         return std::make_unique<Gain>("gain_half", 1u << 15,
                                                       16);
                       }});
  lib.register_module({"offset_100", "adds 100 to every sample",
                       ResourceVector{50, 0, 0}, 1, 1, [] {
                         return std::make_unique<AddOffset>("offset_100",
                                                            100);
                       }});
  lib.register_module({"ma4", "moving average, window 4, monitored",
                       ResourceVector{180, 0, 0}, 1, 1, [] {
                         return std::make_unique<MovingAverage>("ma4", 2,
                                                                256);
                       }});
  lib.register_module({"ma8", "moving average, window 8, monitored",
                       ResourceVector{300, 0, 0}, 1, 1, [] {
                         return std::make_unique<MovingAverage>("ma8", 3,
                                                                256);
                       }});
  lib.register_module(
      {"fir4_smooth", "4-tap Q15 smoothing FIR", ResourceVector{350, 0, 0},
       1, 1, [] {
         return std::make_unique<FirFilter>(
             "fir4_smooth", std::vector<std::int32_t>{8192, 8192, 8192, 8192});
       }});
  lib.register_module(
      {"fir8_lowpass", "8-tap Q15 low-pass FIR", ResourceVector{620, 0, 0},
       1, 1, [] {
         return std::make_unique<FirFilter>(
             "fir8_lowpass",
             std::vector<std::int32_t>{1024, 3072, 5120, 7168, 7168, 5120,
                                       3072, 1024});
       }});
  lib.register_module(
      {"fir16_sharp", "16-tap Q15 FIR (needs a large PRR)",
       ResourceVector{1200, 0, 0}, 1, 1, [] {
         std::vector<std::int32_t> taps(16, 2048);
         return std::make_unique<FirFilter>("fir16_sharp", std::move(taps));
       }});
  lib.register_module({"decim2", "decimate by 2",
                       ResourceVector{40, 0, 0}, 1, 1,
                       [] { return std::make_unique<Decimator>("decim2", 2); },
                       /*rate_in=*/2, /*rate_out=*/1});
  lib.register_module({"decim4", "decimate by 4",
                       ResourceVector{40, 0, 0}, 1, 1,
                       [] { return std::make_unique<Decimator>("decim4", 4); },
                       /*rate_in=*/4, /*rate_out=*/1});
  lib.register_module({"upsample2", "repeat each sample twice",
                       ResourceVector{60, 0, 0}, 1, 1,
                       [] { return std::make_unique<Upsampler>("upsample2", 2); },
                       /*rate_in=*/1, /*rate_out=*/2});
  lib.register_module({"delay16", "16-sample delay line",
                       ResourceVector{120, 0, 0}, 1, 1, [] {
                         return std::make_unique<DelayLine>("delay16", 16);
                       }});
  lib.register_module({"checksum", "passthrough with running checksum",
                       ResourceVector{70, 0, 0}, 1, 1,
                       [] { return std::make_unique<Checksum>(); }});
  lib.register_module({"adder2", "two-stream adder",
                       ResourceVector{50, 0, 0}, 2, 1,
                       [] { return std::make_unique<Adder2>(); }});
  lib.register_module({"splitter2", "one-to-two splitter",
                       ResourceVector{40, 0, 0}, 1, 2,
                       [] { return std::make_unique<Splitter2>(); }});
  lib.register_module({"fsl_bridge_out", "stream to MicroBlaze bridge",
                       ResourceVector{30, 0, 0}, 1, 0,
                       [] { return std::make_unique<FslBridgeOut>(); }});
  lib.register_module({"fsl_bridge_in", "MicroBlaze to stream bridge",
                       ResourceVector{30, 0, 0}, 0, 1,
                       [] { return std::make_unique<FslBridgeIn>(); }});
  lib.register_module(
      {"iir_dcblock", "DC-blocking IIR biquad (Q14)",
       ResourceVector{420, 0, 0}, 1, 1, [] {
         // y[n] = x[n] - x[n-1] + 0.9375 y[n-1]  (high-pass DC blocker)
         return std::make_unique<IirBiquad>(
             "iir_dcblock",
             IirBiquad::Coefficients{16384, -16384, 0, -15360, 0});
       }});
  lib.register_module({"saturate_4k", "clamp magnitude to +/-4096",
                       ResourceVector{45, 0, 0}, 1, 1, [] {
                         return std::make_unique<Saturate>("saturate_4k",
                                                           4096);
                       }});
  lib.register_module({"peak_hold", "running-maximum detector",
                       ResourceVector{55, 0, 0}, 1, 1,
                       [] { return std::make_unique<PeakHold>(); }});
  lib.register_module({"threshold_1k", "suppress samples below 1024",
                       ResourceVector{60, 0, 0}, 1, 1, [] {
                         return std::make_unique<Threshold>("threshold_1k",
                                                            1024);
                       }});
  return lib;
}

}  // namespace vapres::hwmodule
