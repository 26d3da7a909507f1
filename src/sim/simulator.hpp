// The simulation driver.
//
// A Simulator owns a set of clock domains and a one-shot event queue and
// advances global picosecond time to the next edge or event. At a given
// timestamp, due events run first (control actions precede the clock edge
// they gate), then every coincident domain ticks in creation order, each a
// whole eval pass then commit pass before the next domain's eval (so a
// later domain's eval sees what an earlier one committed at that instant).
//
// The kernel is activity-driven by default (docs/SIMULATOR.md): domains
// whose every component reports quiescent stop being scheduled, their
// cycle counters are fast-forwarded analytically, and simulated time jumps
// straight to the next event or active edge. set_activity_driven(false)
// restores the exhaustive tick-everything reference kernel, which the
// lockstep differential tests compare against.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sim/clock.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace vapres::snap {
class SystemSnapshot;
}

namespace vapres::sim {

class Simulator {
 public:
  Simulator() = default;

  // Domains are addressed by reference; the simulator owns them.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Creates a new clock domain clocked at `frequency_mhz`.
  ClockDomain& create_domain(std::string name, double frequency_mhz);

  Picoseconds now() const { return now_; }
  /// Stable pointer to the simulation clock, for hubs that must stamp
  /// events without holding a Simulator reference (sim::FaultInjector).
  const Picoseconds* now_ptr() const { return &now_; }

  /// Schedules a one-shot callback `delay` picoseconds from now.
  EventQueue::EventId schedule_after(Picoseconds delay,
                                     EventQueue::Callback cb) {
    return events_.schedule_at(now_ + delay, std::move(cb));
  }

  /// Schedules a one-shot callback `cycles` edges of `domain` from now
  /// (at the domain's current frequency).
  EventQueue::EventId schedule_after_cycles(const ClockDomain& domain,
                                            Cycles cycles,
                                            EventQueue::Callback cb) {
    return events_.schedule_at(now_ + domain.cycles_to_ps(cycles),
                               std::move(cb));
  }

  bool cancel(EventQueue::EventId id) { return events_.cancel(id); }

  /// Selects the kernel: activity-driven (default) skips quiescent
  /// components and sleeping domains; exhaustive (false) ticks every
  /// component of every enabled domain on every edge — the reference for
  /// differential testing. Switchable at any point; activity flags stay
  /// conservative across the transition.
  void set_activity_driven(bool on);
  bool activity_driven() const { return activity_driven_; }

  /// Edge-delivery counters aggregated over all domains.
  KernelStats kernel_stats() const;

  /// Advances to the next edge/event and processes it. Returns false if
  /// nothing remains to simulate (no event pending and no enabled domain
  /// with an awake component).
  bool step();

  /// Runs for exactly `duration` picoseconds of simulated time. Activity
  /// landing on the final instant is still delivered; `now()` ends at the
  /// deadline even when the system went idle earlier.
  void run_for(Picoseconds duration);

  /// Runs until `domain` has advanced by `n` cycles. Other domains tick as
  /// time passes. Requires the domain to be enabled.
  void run_cycles(const ClockDomain& domain, Cycles n);

  /// Runs until `pred()` is true, checking after every delivered step, or
  /// until `max_duration` simulated picoseconds elapse. The deadline is
  /// inclusive: an edge or event landing exactly `max_duration` from now
  /// is still delivered (and the predicate checked) before giving up, and
  /// the simulation never advances past the deadline. Returns true if the
  /// predicate fired. When the whole system is asleep, time jumps directly
  /// to the deadline (crediting skipped cycles) and the predicate is
  /// checked there.
  template <typename Pred>
  bool run_until(Pred pred, Picoseconds max_duration) {
    const Picoseconds deadline = now_ + max_duration;
    while (!pred()) {
      if (now_ >= deadline) return false;
      if (!advance_to(deadline)) {
        // Nothing left to deliver at or before the deadline; we coasted
        // to it, fast-forwarding any sleeping domains.
        return pred();
      }
    }
    return true;
  }

  const std::vector<std::unique_ptr<ClockDomain>>& domains() const {
    return domains_;
  }

 private:
  // Checkpoint/restore sets now_ directly once the event queue is empty
  // (snap/system_snapshot.cpp).
  friend class ::vapres::snap::SystemSnapshot;

  /// Time of the next schedulable activity (event or awake-domain edge),
  /// or Picoseconds max when there is none.
  Picoseconds next_activity() const;

  /// Advances to `t` and processes everything due there: strictly-earlier
  /// sleep credits, due events, coincident edges, zero-delay events.
  void deliver_at(Picoseconds t);

  /// One bounded scheduling quantum: delivers the next activity if it lies
  /// at or before `limit` and returns true; otherwise coasts straight to
  /// `limit` (crediting sleeping domains, inclusive of edges exactly on
  /// `limit`) and returns false.
  bool advance_to(Picoseconds limit);

  Picoseconds now_ = 0;
  bool activity_driven_ = true;
  EventQueue events_;
  std::vector<std::unique_ptr<ClockDomain>> domains_;
};

}  // namespace vapres::sim
