// Fabric-model tests: device geometry, clock regions, PRR legality,
// clocking primitives, configuration frames, ICAP port.
#include <gtest/gtest.h>

#include "fabric/clock_region.hpp"
#include "fabric/clocking.hpp"
#include "fabric/device.hpp"
#include "fabric/frame.hpp"
#include "fabric/icap.hpp"
#include "sim/simulator.hpp"

namespace vapres::fabric {
namespace {

// ------------------------------------------------------------------- Device

TEST(Device, Xc4vlx25Geometry) {
  const auto dev = DeviceGeometry::xc4vlx25();
  EXPECT_EQ(dev.clb_rows(), 96);
  EXPECT_EQ(dev.clb_cols(), 28);
  EXPECT_EQ(dev.total_slices(), 10752);  // paper: VLX25 slice budget
  EXPECT_EQ(dev.clock_region_rows(), 6);
  EXPECT_EQ(dev.clock_region_count(), 12);
  EXPECT_EQ(dev.clock_region_width_clbs(), 14);
}

TEST(Device, Xc4vlx60Geometry) {
  const auto dev = DeviceGeometry::xc4vlx60();
  EXPECT_EQ(dev.total_slices(), 26624);
}

TEST(Device, RejectsUnalignedRows) {
  EXPECT_THROW(DeviceGeometry("bad", 20, 28), ModelError);
  EXPECT_THROW(DeviceGeometry("bad", 96, 27), ModelError);
}

// ------------------------------------------------------------- ClockRegions

TEST(ClockRegion, RegionsSpannedSingle) {
  const auto dev = DeviceGeometry::xc4vlx25();
  const ClbRect rect{0, 0, 16, 10};  // prototype PRR
  const auto regions = regions_spanned(rect, dev);
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0], (ClockRegionId{0, 0}));
}

TEST(ClockRegion, RegionsSpannedMultipleRows) {
  const auto dev = DeviceGeometry::xc4vlx25();
  const ClbRect rect{8, 0, 32, 10};  // straddles regions 0..2
  const auto regions = regions_spanned(rect, dev);
  ASSERT_EQ(regions.size(), 3u);
  EXPECT_EQ(vertical_region_span(rect), 3);
}

TEST(ClockRegion, RegionsSpannedCrossesCentre) {
  const auto dev = DeviceGeometry::xc4vlx25();
  const ClbRect rect{0, 10, 16, 10};  // cols 10..19 cross col 14
  EXPECT_FALSE(within_one_half(rect, dev));
  EXPECT_EQ(regions_spanned(rect, dev).size(), 2u);
}

TEST(ClockRegion, PrototypePrrIsLegal) {
  const auto dev = DeviceGeometry::xc4vlx25();
  EXPECT_TRUE(prr_legality_violation(ClbRect{0, 0, 16, 10}, dev).empty());
  EXPECT_EQ(ClbRect({0, 0, 16, 10}).slices(), 640);  // paper Section V.A
}

TEST(ClockRegion, RejectsTooTallPrr) {
  const auto dev = DeviceGeometry::xc4vlx25();
  // 4 regions (> 3x16 = 48 CLBs BUFR reach).
  EXPECT_FALSE(prr_legality_violation(ClbRect{0, 0, 64, 10}, dev).empty());
}

TEST(ClockRegion, RejectsCentreStraddle) {
  const auto dev = DeviceGeometry::xc4vlx25();
  EXPECT_FALSE(prr_legality_violation(ClbRect{0, 10, 16, 10}, dev).empty());
}

TEST(ClockRegion, RejectsOutsideDevice) {
  const auto dev = DeviceGeometry::xc4vlx25();
  EXPECT_FALSE(prr_legality_violation(ClbRect{90, 0, 16, 10}, dev).empty());
}

TEST(ClockRegion, ThreeRegionPrrIsLegal) {
  const auto dev = DeviceGeometry::xc4vlx25();
  EXPECT_TRUE(prr_legality_violation(ClbRect{0, 0, 48, 14}, dev).empty());
}

TEST(ClockRegion, Overlap) {
  EXPECT_TRUE(ClbRect({0, 0, 16, 10}).overlaps(ClbRect{8, 4, 16, 10}));
  EXPECT_FALSE(ClbRect({0, 0, 16, 10}).overlaps(ClbRect{16, 0, 16, 10}));
  EXPECT_FALSE(ClbRect({0, 0, 16, 10}).overlaps(ClbRect{0, 10, 16, 10}));
}

// ----------------------------------------------------------------- Clocking

TEST(Clocking, DcmOutputs) {
  const Dcm dcm(100.0, 2.0, 4, 8);
  EXPECT_DOUBLE_EQ(dcm.clk0_mhz(), 100.0);
  EXPECT_DOUBLE_EQ(dcm.clk2x_mhz(), 200.0);
  EXPECT_DOUBLE_EQ(dcm.clkdv_mhz(), 50.0);
  EXPECT_DOUBLE_EQ(dcm.clkfx_mhz(), 50.0);
}

TEST(Clocking, DcmRejectsBadRatios) {
  EXPECT_THROW(Dcm(100.0, 1.0, 4, 8), ModelError);
  EXPECT_THROW(Dcm(100.0, 2.0, 1, 8), ModelError);
}

TEST(Clocking, PmcdPhaseMatchedDividers) {
  const Pmcd pmcd(100.0);
  const auto outs = pmcd.outputs_mhz();
  EXPECT_DOUBLE_EQ(outs[0], 100.0);
  EXPECT_DOUBLE_EQ(outs[1], 50.0);
  EXPECT_DOUBLE_EQ(outs[2], 25.0);
  EXPECT_DOUBLE_EQ(outs[3], 12.5);
}

TEST(Clocking, BufgmuxSelects) {
  Bufgmux mux(100.0, 50.0);
  EXPECT_DOUBLE_EQ(mux.output_mhz(), 100.0);
  mux.select(1);
  EXPECT_DOUBLE_EQ(mux.output_mhz(), 50.0);
  EXPECT_THROW(mux.select(2), ModelError);
}

TEST(Clocking, BufrReach) {
  const auto dev = DeviceGeometry::xc4vlx25();
  const Bufr bufr(ClockRegionId{1, 0});
  // Own region and the adjacent ones.
  EXPECT_TRUE(bufr.can_drive(ClbRect{0, 0, 48, 10}, dev));   // regions 0-2
  EXPECT_FALSE(bufr.can_drive(ClbRect{48, 0, 16, 10}, dev)); // region 3
  EXPECT_FALSE(bufr.can_drive(ClbRect{16, 14, 16, 10}, dev)); // other half
}

TEST(Clocking, PrrClockTreeRetunesDomain) {
  sim::Simulator sim;
  auto& domain = sim.create_domain("prr", 100.0);
  PrrClockTree tree(Bufr(ClockRegionId{0, 0}), Bufgmux(100.0, 50.0),
                    domain);
  EXPECT_DOUBLE_EQ(domain.frequency_mhz(), 100.0);
  tree.select(1);
  EXPECT_DOUBLE_EQ(domain.frequency_mhz(), 50.0);
  tree.set_enabled(false);
  EXPECT_FALSE(domain.enabled());
  tree.set_enabled(true);
  EXPECT_TRUE(domain.enabled());
  tree.set_mux_input(1, 25.0);
  EXPECT_DOUBLE_EQ(domain.frequency_mhz(), 25.0);
}

// ------------------------------------------------------------------- Frames

TEST(Frames, PrototypePrrBitstreamSize) {
  // 10 CLB columns x 1 region x 22 frames = 220 frames = 36,080 bytes
  // + 1 KiB header = 37,104 bytes.
  const ClbRect rect{0, 0, 16, 10};
  EXPECT_EQ(frames_for_rect(rect), 220);
  EXPECT_EQ(partial_bitstream_bytes(rect), 220 * 164 + 1024);
}

TEST(Frames, SizeScalesWithRegions) {
  EXPECT_EQ(frames_for_rect(ClbRect{0, 0, 32, 10}),
            2 * frames_for_rect(ClbRect{0, 0, 16, 10}));
  EXPECT_EQ(frames_for_rect(ClbRect{0, 0, 16, 5}),
            frames_for_rect(ClbRect{0, 0, 16, 10}) / 2);
}

TEST(Frames, PartialRegionPaysFullRegion) {
  // 8 CLBs tall still spans one full clock region of frames.
  EXPECT_EQ(frames_for_rect(ClbRect{0, 0, 8, 10}),
            frames_for_rect(ClbRect{0, 0, 16, 10}));
  // Misaligned 16-tall spans two regions.
  EXPECT_EQ(frames_for_rect(ClbRect{8, 0, 16, 10}),
            2 * frames_for_rect(ClbRect{0, 0, 16, 10}));
}

// --------------------------------------------------------------------- ICAP

TEST(Icap, TransferLifecycle) {
  IcapPort icap(100.0);
  EXPECT_FALSE(icap.busy());
  icap.begin_transfer(1000);
  EXPECT_TRUE(icap.busy());
  EXPECT_THROW(icap.begin_transfer(10), ModelError);
  icap.end_transfer();
  EXPECT_FALSE(icap.busy());
  EXPECT_EQ(icap.total_bytes_configured(), 1000);
  EXPECT_EQ(icap.completed_transfers(), 1);
}

TEST(Icap, PhysicalFloor) {
  IcapPort icap(100.0);
  // 400 bytes = 100 words at 10 ns each = 1 us.
  EXPECT_EQ(icap.min_transfer_time_ps(400), 1'000'000u);
}

}  // namespace
}  // namespace vapres::fabric
