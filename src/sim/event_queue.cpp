#include "sim/event_queue.hpp"

#include <algorithm>

#include "sim/check.hpp"

namespace vapres::sim {

EventQueue::EventId EventQueue::schedule_at(Picoseconds when, Callback cb) {
  VAPRES_REQUIRE(cb != nullptr, "event callback must be callable");
  const EventId id = next_id_++;
  heap_.push_back(Entry{when, next_seq_++, id, std::move(cb)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  pending_ids_.insert(id);
  return id;
}

void EventQueue::drop_cancelled_head() const {
  while (cancelled_ > 0 && !heap_.empty() &&
         !pending_ids_.contains(heap_.front().id)) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    --cancelled_;
  }
}

Picoseconds EventQueue::next_time() const {
  drop_cancelled_head();
  VAPRES_REQUIRE(!heap_.empty(), "next_time() on empty event queue");
  return heap_.front().when;
}

bool EventQueue::cancel(EventId id) {
  // A pending id's entry has not run, so it is still in the heap.
  if (pending_ids_.erase(id) == 0) return false;
  ++cancelled_;
  return true;
}

void EventQueue::run_due(Picoseconds now) {
  for (;;) {
    drop_cancelled_head();
    if (heap_.empty() || heap_.front().when > now) return;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Callback cb = std::move(heap_.back().cb);
    pending_ids_.erase(heap_.back().id);
    heap_.pop_back();
    cb();
  }
}

}  // namespace vapres::sim
