#include "comm/fifo.hpp"

#include <algorithm>

#include "sim/fault.hpp"

namespace vapres::comm {

Fifo::Fifo(std::string name, int capacity)
    : name_(std::move(name)), capacity_(capacity) {
  VAPRES_REQUIRE(capacity_ > 0, "FIFO capacity must be positive: " + name_);
}

void Fifo::add_wake_target(sim::Clocked* target) {
  VAPRES_REQUIRE(target != nullptr, name_ + ": null wake target");
  wake_targets_.push_back(target);
}

void Fifo::wake_targets() {
  for (sim::Clocked* t : wake_targets_) t->wake();
}

void Fifo::push(Word w) {
  VAPRES_REQUIRE(!full(), "FIFO overflow: " + name_);
  wake_targets();
  auto& faults = sim::FaultInjector::instance();
  if (faults.enabled()) {
    if (faults.should_fire(sim::FaultSite::kFifoDropWord)) {
      ++fault_dropped_;
      return;
    }
    // Only a push with room for the copy is a duplicate opportunity, so
    // every duplicate the injector counts lands.
    if (size() + 1 < capacity_ &&
        faults.should_fire(sim::FaultSite::kFifoDuplicateWord)) {
      words_.push_back(w);
      ++pushed_;
      ++fault_duplicated_;
    }
  }
  words_.push_back(w);
  ++pushed_;
  high_watermark_ = std::max(high_watermark_, size());
}

Word Fifo::pop() {
  VAPRES_REQUIRE(!empty(), "FIFO underflow: " + name_);
  wake_targets();
  const Word w = words_.front();
  words_.pop_front();
  ++popped_;
  return w;
}

Word Fifo::front() const {
  VAPRES_REQUIRE(!empty(), "FIFO front() on empty FIFO: " + name_);
  return words_.front();
}

void Fifo::reset() {
  words_.clear();
  wake_targets();
}

}  // namespace vapres::comm
