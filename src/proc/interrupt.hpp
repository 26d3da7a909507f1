// Interrupt controller (xps_intc) model.
//
// The static region's intc (priced in the resource model) lets software
// modules block on events instead of polling: interrupt sources are
// level predicates (canonically "FSL r-link not empty"); the controller
// latches enabled, asserted sources and the MicroBlaze dispatches the
// lowest-numbered pending one to its handler between task quanta. This
// removes the polling cost from event-driven software modules (the
// monitoring watcher of Figure 5 step 2 is the motivating user).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/check.hpp"

namespace vapres::proc {

class InterruptController {
 public:
  static constexpr int kMaxSources = 32;

  /// Registers a level-sensitive source; returns its interrupt number.
  /// The predicate is sampled once per processor cycle.
  int add_source(std::string name, std::function<bool()> level);

  int num_sources() const { return static_cast<int>(sources_.size()); }
  const std::string& source_name(int irq) const;

  /// Interrupt enable register (bit per source). All disabled at reset.
  void enable(int irq, bool enabled = true);
  bool enabled(int irq) const;

  /// Samples all sources and latches newly asserted enabled ones into
  /// the pending register (called by the Microblaze each cycle).
  void sample();

  /// Lowest-numbered pending interrupt, or -1. Does not acknowledge.
  int next_pending() const;

  /// Acknowledge: clears the pending latch for `irq` (level sources
  /// re-latch on the next sample if still asserted).
  void acknowledge(int irq);

 private:
  void check_irq(int irq) const;

  struct Source {
    std::string name;
    std::function<bool()> level;
  };
  std::vector<Source> sources_;
  std::uint32_t enable_mask_ = 0;
  std::uint32_t pending_ = 0;
};

}  // namespace vapres::proc
