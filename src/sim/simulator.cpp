#include "sim/simulator.hpp"

#include <limits>

#include "sim/check.hpp"

namespace vapres::sim {

namespace {
constexpr auto kNever = std::numeric_limits<Picoseconds>::max();
}  // namespace

ClockDomain& Simulator::create_domain(std::string name, double frequency_mhz) {
  auto domain = std::make_unique<ClockDomain>(std::move(name), frequency_mhz);
  domain->now_ = &now_;
  domain->anchor_ps_ = now_;
  domain->activity_driven_ = activity_driven_;
  domains_.push_back(std::move(domain));
  return *domains_.back();
}

void Simulator::set_activity_driven(bool on) {
  activity_driven_ = on;
  for (auto& d : domains_) d->activity_driven_ = on;
}

KernelStats Simulator::kernel_stats() const {
  KernelStats total;
  for (const auto& d : domains_) total += d->stats_;
  return total;
}

Picoseconds Simulator::next_activity() const {
  Picoseconds next = kNever;
  for (const auto& d : domains_) {
    if (!d->enabled() || d->components_.empty()) continue;
    // A fully-asleep domain has no schedulable edge; its counter is
    // fast-forwarded when time moves. Exhaustive mode keeps every domain
    // on the schedule.
    if (d->active_count_ == 0 && !d->exhaustive()) continue;
    next = std::min(next, d->next_edge());
  }
  if (!events_.empty()) {
    next = std::min(next, events_.next_time());
  }
  return next;
}

void Simulator::deliver_at(Picoseconds t) {
  VAPRES_REQUIRE(t >= now_, "simulation time cannot go backwards");
  now_ = t;

  // Credit sleeping domains the edges they would have received strictly
  // before this instant. Their edge exactly *at* this instant is decided
  // after the events below run — an event here may retune the domain
  // (cancelling the edge, as a re-anchor does for awake domains) or wake
  // it (turning the edge into a real tick). The guards keep this a branch,
  // not a call, for an awake domain and for a sleeping one that owes no
  // edge yet (fast_forward's own first-edge test, hoisted).
  for (const auto& d : domains_) {
    if (d->active_count_ == 0 && d->anchor_ps_ + d->period_ps_ < now_) {
      d->fast_forward(now_, /*inclusive=*/false);
    }
  }

  // Control events first: a PRSocket write scheduled for this instant takes
  // effect before the clock edge it gates.
  if (!events_.empty()) events_.run_due(now_);

  // Tick every enabled domain whose edge falls exactly at `now_`. Domains
  // that re-anchored during the events above naturally skip this instant;
  // domains still fully asleep take the edge as a credited skip.
  for (const auto& d : domains_) {
    if (!d->enabled() || d->components_.empty()) continue;
    if (d->next_edge() != now_) continue;
    if (d->active_count_ == 0 && !d->exhaustive()) {
      d->fast_forward(now_, /*inclusive=*/true);  // credits this one edge
    } else {
      d->tick();
      d->anchor_ps_ = now_;
    }
  }

  // Events scheduled *during* the edge for "now" (zero-delay callbacks)
  // fire before time advances further.
  if (!events_.empty()) events_.run_due(now_);
}

bool Simulator::step() {
  const Picoseconds next = next_activity();
  if (next == kNever) return false;
  deliver_at(next);
  return true;
}

bool Simulator::advance_to(Picoseconds limit) {
  const Picoseconds next = next_activity();
  if (next > limit) {
    // Nothing to deliver at or before `limit`: coast straight there.
    // Sleeping domains are credited every edge up to and including the
    // limit itself — the edges the exhaustive kernel would have ticked.
    if (now_ < limit) {
      now_ = limit;
      for (const auto& d : domains_) d->fast_forward(limit, /*inclusive=*/true);
    }
    return false;
  }
  deliver_at(next);
  return true;
}

void Simulator::run_for(Picoseconds duration) {
  const Picoseconds deadline = now_ + duration;
  while (now_ < deadline) {
    if (!advance_to(deadline)) return;  // coasted to the deadline
  }
}

void Simulator::run_cycles(const ClockDomain& domain, Cycles n) {
  VAPRES_REQUIRE(domain.enabled(), "run_cycles on a gated clock domain");
  const Cycles target = domain.cycle_count() + n;
  while (domain.cycle_count() < target) {
    // Absolute time of the edge that completes the request at the domain's
    // current frequency; recomputed every quantum because an event in
    // between may retune or gate the domain.
    const Picoseconds goal =
        domain.anchor_ps_ +
        (target - domain.cycle_count()) * domain.period_ps_;
    if (!advance_to(goal)) {
      // Coasted to the goal. A sleeping domain was credited up to the
      // target; a gated or empty domain can never get there.
      VAPRES_REQUIRE(domain.cycle_count() >= target,
                     "simulation ran dry before requested cycle count");
    }
  }
}

}  // namespace vapres::sim
