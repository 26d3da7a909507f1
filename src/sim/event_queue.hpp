// One-shot event queue: callbacks scheduled at absolute simulation times.
// Used for reconfiguration-completion events, software timers, and test
// fault injection. Events at the same timestamp fire in FIFO order of
// scheduling, which keeps the simulation deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "sim/time.hpp"

namespace vapres::sim {

class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Opaque handle that can be used to cancel a pending event.
  using EventId = std::uint64_t;

  /// Schedules `cb` to run at absolute time `when`.
  EventId schedule_at(Picoseconds when, Callback cb);

  /// True if no event is pending.
  bool empty() const { return pending_ids_.empty(); }

  /// Time of the earliest pending event. Requires !empty().
  Picoseconds next_time() const;

  /// Cancels a pending event. Returns false if it already ran, was already
  /// cancelled, or never existed.
  bool cancel(EventId id);

  /// Runs (and removes) every event scheduled at time <= `now`.
  /// Events scheduled *during* this call for time <= `now` also run.
  void run_due(Picoseconds now);

  std::size_t pending() const { return pending_ids_.size(); }

 private:
  struct Entry {
    Picoseconds when = 0;
    std::uint64_t seq = 0;
    EventId id = 0;
    Callback cb;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  // A binary heap under Later (std::push_heap / std::pop_heap). Cancelled
  // entries stay in it until they surface; pending_ids_ is the source of
  // truth, and cancelled_ counts the entries still in the heap that are
  // not in it, so a peek with none skips the hash lookup. Both are
  // mutable for that lazy cleanup in next_time().
  mutable std::vector<Entry> heap_;
  mutable std::size_t cancelled_ = 0;
  std::unordered_set<EventId> pending_ids_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_id_ = 1;

  void drop_cancelled_head() const;
};

}  // namespace vapres::sim
