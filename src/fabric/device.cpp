#include "fabric/device.hpp"

#include "sim/check.hpp"

namespace vapres::fabric {

DeviceGeometry::DeviceGeometry(std::string name, int clb_rows, int clb_cols)
    : name_(std::move(name)), clb_rows_(clb_rows), clb_cols_(clb_cols) {
  VAPRES_REQUIRE(clb_rows_ > 0 && clb_cols_ > 0, "device must have CLBs");
  VAPRES_REQUIRE(clb_rows_ % kClockRegionRows == 0,
                 "CLB rows must be a multiple of the clock-region height");
  VAPRES_REQUIRE(clb_cols_ % 2 == 0,
                 "CLB columns must split into two clock-region halves");
}

DeviceGeometry DeviceGeometry::xc4vlx25() {
  // 96 x 28 CLB array -> 10,752 slices.
  return DeviceGeometry("xc4vlx25", 96, 28);
}

DeviceGeometry DeviceGeometry::xc4vlx60() {
  // 128 x 52 CLB array -> 26,624 slices.
  return DeviceGeometry("xc4vlx60", 128, 52);
}

}  // namespace vapres::fabric
