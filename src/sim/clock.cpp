#include "sim/clock.hpp"

#include <algorithm>
#include <bit>

#include "obs/bus.hpp"
#include "sim/check.hpp"

namespace vapres::sim {

namespace {
// One quiescence poll per this many delivered edges. Polling is pure
// overhead on busy components, and a deactivation delayed a few cycles is
// semantically invisible (skipping is only an optimization), so the sweep
// is amortized instead of run per tick.
constexpr Cycles kPollInterval = 8;

constexpr std::size_t kWordBits = 64;

std::uint64_t slot_bit(std::size_t slot) {
  return std::uint64_t{1} << (slot % kWordBits);
}
}  // namespace

Clocked::~Clocked() {
  if (domain_ != nullptr) domain_->detach(this);
}

void Clocked::activate() {
  active_ = true;
  if (domain_ != nullptr) domain_->note_wake(slot_);
}

ClockDomain::ClockDomain(std::string name, double frequency_mhz)
    : name_(std::move(name)), period_ps_(period_ps_from_mhz(frequency_mhz)) {}

void ClockDomain::reanchor() {
  VAPRES_REQUIRE(now_ != nullptr,
                 "clock domain must be owned by a Simulator before use");
  anchor_ps_ = *now_;
}

void ClockDomain::set_frequency_mhz(double mhz) {
  period_ps_ = period_ps_from_mhz(mhz);
  // Next edge is one new period from the moment of the change, which is how
  // a glitch-free BUFGMUX switchover behaves to first order.
  reanchor();
}

void ClockDomain::set_enabled(bool enabled) {
  if (enabled && !enabled_) {
    reanchor();
  }
  enabled_ = enabled;
}

void ClockDomain::attach(Clocked* component) {
  VAPRES_REQUIRE(component != nullptr, "cannot attach null component");
  VAPRES_REQUIRE(component->domain_ == nullptr,
                 component->name() + ": already attached to a clock domain");
  if (live_count_ == 0 && now_ != nullptr) {
    // A domain with no components is not scheduled; restart its edge
    // schedule from the present so the first edge is not in the past.
    reanchor();
  }
  const std::size_t slot = components_.size();
  component->domain_ = this;
  component->slot_ = slot;
  component->active_ = true;
  ++active_count_;
  ++live_count_;
  components_.push_back(component);
  if (slot % kWordBits == 0) awake_.push_back(0);
  awake_[slot / kWordBits] |= slot_bit(slot);
}

void ClockDomain::detach(Clocked* component) {
  if (component->domain_ != this) return;
  const std::size_t slot = component->slot_;
  components_[slot] = nullptr;
  awake_[slot / kWordBits] &= ~slot_bit(slot);
  if (component->active_) --active_count_;
  --live_count_;
  component->domain_ = nullptr;
  component->active_ = true;
  // Nulled slots keep the in-flight eval/commit iteration valid when a
  // component detaches from inside a tick (module eviction); the list is
  // compacted once the passes finish.
  if (ticking_) {
    pending_compaction_ = true;
  } else {
    compact();
  }
}

void ClockDomain::compact() {
  components_.erase(
      std::remove(components_.begin(), components_.end(), nullptr),
      components_.end());
  awake_.assign((components_.size() + kWordBits - 1) / kWordBits, 0);
  for (std::size_t i = 0; i < components_.size(); ++i) {
    components_[i]->slot_ = i;
    if (components_[i]->active_) awake_[i / kWordBits] |= slot_bit(i);
  }
  pending_compaction_ = false;
}

template <typename Visit>
void ClockDomain::walk_awake(std::size_t n, Visit&& visit) {
  for (std::size_t base = 0; base < n; base += kWordBits) {
    const std::size_t w = base / kWordBits;
    // Slots at or past n were attached mid-tick: their first edge is the
    // next tick's.
    const std::uint64_t in_range =
        n - base >= kWordBits ? ~std::uint64_t{0} : slot_bit(n) - 1;
    std::uint64_t passed = 0;  // this word's slots at or before the visit
    for (;;) {
      const std::uint64_t bits = awake_[w] & in_range & ~passed;
      if (bits == 0) break;
      const int b = std::countr_zero(bits);
      passed = ~std::uint64_t{0} >> (kWordBits - 1 - b);
      visit(components_[base + static_cast<std::size_t>(b)]);
    }
  }
}

void ClockDomain::note_wake(std::size_t slot) {
  if (active_count_ == 0 && !components_.empty()) {
    // The whole domain was asleep; this wake re-arms it.
    auto& bus = obs::EventBus::instance();
    if (bus.enabled(obs::Subsystem::kKernel)) {
      bus.instant(obs::Subsystem::kKernel, obs::ev::kDomainWake,
                  bus.track(name_), now_ != nullptr ? *now_ : anchor_ps_,
                  cycle_count_);
    }
  }
  awake_[slot / kWordBits] |= slot_bit(slot);
  ++active_count_;
  ++stats_.component_wakes;
}

void ClockDomain::tick() {
  const bool run_all = exhaustive();
  if (run_all && active_count_ < live_count_) {
    // Exhaustive delivery (the reference mode): re-arm everything, so the
    // passes below deliver to every component and the activity flags are
    // conservative when quiescence-aware delivery resumes.
    for (Clocked* c : components_) {
      if (c != nullptr && !c->active_) {
        c->active_ = true;
        awake_[c->slot_ / kWordBits] |= slot_bit(c->slot_);
        ++active_count_;
      }
    }
  }
  ticking_ = true;
  // Components attached mid-tick get their first edge next tick; the awake
  // bitmask is read at visit time, so a component woken by an earlier
  // component's commit this very cycle still receives the edge — exactly
  // the cycle the exhaustive kernel would have run it with effect — while
  // one woken in an earlier slot gets its first edge next cycle.
  const std::size_t n = components_.size();
  const std::uint64_t present = static_cast<std::uint64_t>(live_count_);
  std::uint64_t delivered = 0;
  walk_awake(n, [](Clocked* c) { c->eval(); });
  walk_awake(n, [&delivered](Clocked* c) {
    c->commit();
    ++delivered;
  });
  ticking_ = false;
  if (pending_compaction_) compact();
  ++cycle_count_;
  ++stats_.cycles_active;
  stats_.edges_delivered += delivered;
  // `present` is from tick start; a component that committed and then
  // detached itself mid-tick can make delivered exceed it.
  stats_.edges_skipped += present > delivered ? present - delivered : 0;
  if (!run_all && cycle_count_ % kPollInterval == 0) poll_quiescence();
}

void ClockDomain::poll_quiescence() {
  if (active_count_ == 0) return;
  walk_awake(components_.size(), [this](Clocked* c) {
    if (c->quiescent()) {
      c->active_ = false;
      awake_[c->slot_ / kWordBits] &= ~slot_bit(c->slot_);
      --active_count_;
    }
  });
  if (active_count_ == 0) {
    ++stats_.domain_sleeps;
    auto& bus = obs::EventBus::instance();
    if (bus.enabled(obs::Subsystem::kKernel)) {
      bus.instant(obs::Subsystem::kKernel, obs::ev::kDomainSleep,
                  bus.track(name_), now_ != nullptr ? *now_ : anchor_ps_,
                  cycle_count_);
    }
  }
}

void ClockDomain::fast_forward(Picoseconds until, bool inclusive) {
  if (!enabled_ || components_.empty() || active_count_ > 0) return;
  if (exhaustive()) return;  // scheduled normally; nothing is uncounted
  const Picoseconds first = anchor_ps_ + period_ps_;
  if (inclusive ? first > until : first >= until) return;
  const Picoseconds span = until - anchor_ps_;
  const Cycles k = inclusive ? span / period_ps_ : (span - 1) / period_ps_;
  cycle_count_ += k;
  stats_.cycles_quiescent += k;
  anchor_ps_ += k * period_ps_;
  stats_.edges_skipped += k * static_cast<std::uint64_t>(live_count_);
}

}  // namespace vapres::sim
