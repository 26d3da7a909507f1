#include "fabric/clocking.hpp"

#include <cmath>
#include <cstdlib>

namespace vapres::fabric {

Dcm::Dcm(double input_mhz, double clkdv_divide, int clkfx_multiply,
         int clkfx_divide)
    : input_mhz_(input_mhz),
      clkdv_divide_(clkdv_divide),
      clkfx_multiply_(clkfx_multiply),
      clkfx_divide_(clkfx_divide) {
  VAPRES_REQUIRE(input_mhz > 0.0, "DCM input frequency must be positive");
  VAPRES_REQUIRE(clkdv_divide >= 1.5 && clkdv_divide <= 16.0,
                 "DCM CLKDV divide out of range [1.5, 16]");
  VAPRES_REQUIRE(clkfx_multiply >= 2 && clkfx_multiply <= 32,
                 "DCM CLKFX multiply out of range [2, 32]");
  VAPRES_REQUIRE(clkfx_divide >= 1 && clkfx_divide <= 32,
                 "DCM CLKFX divide out of range [1, 32]");
}

Pmcd::Pmcd(double input_mhz) : input_mhz_(input_mhz) {
  VAPRES_REQUIRE(input_mhz > 0.0, "PMCD input frequency must be positive");
}

Bufgmux::Bufgmux(double input0_mhz, double input1_mhz)
    : inputs_mhz_{input0_mhz, input1_mhz} {
  VAPRES_REQUIRE(input0_mhz > 0.0 && input1_mhz > 0.0,
                 "BUFGMUX input frequencies must be positive");
}

void Bufgmux::set_input(int index, double mhz) {
  VAPRES_REQUIRE(index == 0 || index == 1, "BUFGMUX has two inputs");
  VAPRES_REQUIRE(mhz > 0.0, "BUFGMUX input frequency must be positive");
  inputs_mhz_[static_cast<std::size_t>(index)] = mhz;
}

double Bufgmux::input_mhz(int index) const {
  VAPRES_REQUIRE(index == 0 || index == 1, "BUFGMUX has two inputs");
  return inputs_mhz_[static_cast<std::size_t>(index)];
}

void Bufgmux::select(int index) {
  VAPRES_REQUIRE(index == 0 || index == 1, "BUFGMUX select must be 0 or 1");
  select_ = index;
}

Bufr::Bufr(ClockRegionId location) : location_(location) {}

bool Bufr::can_drive(const ClbRect& rect, const DeviceGeometry& dev) const {
  for (const ClockRegionId& region : regions_spanned(rect, dev)) {
    if (region.half != location_.half) return false;
    if (std::abs(region.row - location_.row) > 1) return false;
  }
  return true;
}

PrrClockTree::PrrClockTree(Bufr bufr, Bufgmux mux, sim::ClockDomain& domain)
    : bufr_(std::move(bufr)), mux_(mux), domain_(domain) {
  domain_.set_frequency_mhz(mux_.output_mhz());
  domain_.set_enabled(bufr_.enabled());
}

void PrrClockTree::select(int index) {
  mux_.select(index);
  domain_.set_frequency_mhz(mux_.output_mhz());
}

void PrrClockTree::set_enabled(bool enabled) {
  bufr_.set_enabled(enabled);
  domain_.set_enabled(enabled);
}

void PrrClockTree::set_mux_input(int index, double mhz) {
  mux_.set_input(index, mhz);
  if (mux_.selected() == index) {
    domain_.set_frequency_mhz(mux_.output_mhz());
  }
}

}  // namespace vapres::fabric
