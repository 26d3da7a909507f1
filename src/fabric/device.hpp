// Virtex-4-class device geometry.
//
// Everything the paper's floorplanning rules reason about is geometric:
// the CLB array, local clock regions (16 CLB rows tall, half the device
// wide, Section III.B.2), and the slice budget. The numbers for the
// XC4VLX25 (ML401 board) and XC4VLX60 match the Xilinx DS112 datasheet;
// arbitrary devices can be constructed for parameter sweeps.
#pragma once

#include <string>

namespace vapres::fabric {

class DeviceGeometry {
 public:
  DeviceGeometry(std::string name, int clb_rows, int clb_cols);

  /// The XC4VLX25 on the ML401 evaluation board used for the prototype.
  static DeviceGeometry xc4vlx25();
  /// The XC4VLX60 referenced in Section V.B.
  static DeviceGeometry xc4vlx60();

  const std::string& name() const { return name_; }
  int clb_rows() const { return clb_rows_; }
  int clb_cols() const { return clb_cols_; }

  /// Virtex-4 CLBs hold four slices each.
  static constexpr int kSlicesPerClb = 4;
  /// Virtex-4 local clock regions span sixteen CLB rows ([6], WP344).
  static constexpr int kClockRegionRows = 16;

  int total_slices() const {
    return clb_rows_ * clb_cols_ * kSlicesPerClb;
  }

  /// Clock regions per column of regions (the vertical count).
  int clock_region_rows() const { return clb_rows_ / kClockRegionRows; }
  /// Clock regions are half the device wide: two columns of regions.
  static constexpr int kClockRegionCols = 2;
  int clock_region_count() const {
    return clock_region_rows() * kClockRegionCols;
  }
  /// CLB columns per clock region (half the device).
  int clock_region_width_clbs() const { return clb_cols_ / 2; }

 private:
  std::string name_;
  int clb_rows_;
  int clb_cols_;
};

}  // namespace vapres::fabric
