#include "proc/interrupt.hpp"

namespace vapres::proc {

int InterruptController::add_source(std::string name,
                                    std::function<bool()> level) {
  VAPRES_REQUIRE(level != nullptr, "interrupt source needs a predicate");
  VAPRES_REQUIRE(num_sources() < kMaxSources,
                 "interrupt controller supports 32 sources");
  sources_.push_back(Source{std::move(name), std::move(level)});
  return num_sources() - 1;
}

void InterruptController::check_irq(int irq) const {
  VAPRES_REQUIRE(irq >= 0 && irq < num_sources(),
                 "interrupt number out of range");
}

const std::string& InterruptController::source_name(int irq) const {
  check_irq(irq);
  return sources_[static_cast<std::size_t>(irq)].name;
}

void InterruptController::enable(int irq, bool enabled) {
  check_irq(irq);
  const std::uint32_t bit = 1u << irq;
  if (enabled) {
    enable_mask_ |= bit;
  } else {
    enable_mask_ &= ~bit;
    pending_ &= ~bit;
  }
}

bool InterruptController::enabled(int irq) const {
  check_irq(irq);
  return (enable_mask_ & (1u << irq)) != 0;
}

void InterruptController::sample() {
  for (int i = 0; i < num_sources(); ++i) {
    const std::uint32_t bit = 1u << i;
    if ((enable_mask_ & bit) == 0 || (pending_ & bit) != 0) continue;
    if (sources_[static_cast<std::size_t>(i)].level()) pending_ |= bit;
  }
}

int InterruptController::next_pending() const {
  if (pending_ == 0) return -1;
  for (int i = 0; i < num_sources(); ++i) {
    if ((pending_ & (1u << i)) != 0) return i;
  }
  return -1;
}

void InterruptController::acknowledge(int irq) {
  check_irq(irq);
  pending_ &= ~(1u << irq);
}

}  // namespace vapres::proc
