#include "sim/clock.hpp"

#include <algorithm>

#include "obs/bus.hpp"
#include "sim/check.hpp"
#include "sim/fault.hpp"

namespace vapres::sim {

namespace {
// One quiescence poll per this many delivered edges. Polling is pure
// overhead on busy components, and a deactivation delayed a few cycles is
// semantically invisible (skipping is only an optimization), so the sweep
// is amortized instead of run per tick.
constexpr Cycles kPollInterval = 8;
}  // namespace

Clocked::~Clocked() {
  if (domain_ != nullptr) domain_->detach(this);
}

void Clocked::activate() {
  active_ = true;
  if (domain_ != nullptr) domain_->note_wake(this);
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
  bool was_empty = true;
  for (const Clocked* c : components_) {
    if (c != nullptr) {
      was_empty = false;
      break;
    }
  }
  if (was_empty && now_ != nullptr) {
    // A domain with no components is not scheduled; restart its edge
    // schedule from the present so the first edge is not in the past.
    reanchor();
  }
  component->domain_ = this;
  component->active_ = true;
  ++active_count_;
  ++live_count_;
  components_.push_back(component);
  component->slot_ = components_.size() - 1;
  // Appending keeps the awake cache sorted; a mid-tick attach is fenced
  // from the in-flight passes by their size snapshot.
  if (cache_valid_) awake_idx_.push_back(component->slot_);
}

void ClockDomain::detach(Clocked* component) {
  bool found = false;
  for (Clocked*& slot : components_) {
    if (slot == component) {
      slot = nullptr;
      found = true;
    }
  }
  if (!found) return;
  if (ticking_) {
    // Mutating the awake cache mid-pass would shift entries under the
    // pass's cursor; degrade the rest of the tick to an exact full scan
    // (the nulled slot is skipped there) and rebuild lazily.
    cache_valid_ = false;
    woke_in_tick_ = true;
  } else if (cache_valid_ && component->active_) {
    const auto it = std::lower_bound(awake_idx_.begin(), awake_idx_.end(),
                                     component->slot_);
    if (it != awake_idx_.end() && *it == component->slot_) {
      awake_idx_.erase(it);
    }
  }
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
  pending_compaction_ = false;
  cache_valid_ = false;  // slot indices shifted
}

Picoseconds ClockDomain::next_edge(Picoseconds /*now*/) const {
  return anchor_ps_ + period_ps_;
}

bool ClockDomain::exhaustive() const {
  return !activity_driven_ || FaultInjector::instance().enabled();
}

void ClockDomain::note_wake(Clocked* component) {
  if (active_count_ == 0 && !components_.empty()) {
    // The whole domain was asleep; this wake re-arms it.
    auto& bus = obs::EventBus::instance();
    if (bus.enabled(obs::Subsystem::kKernel)) {
      bus.instant(obs::Subsystem::kKernel, obs::ev::kDomainWake,
                  bus.track(name_), now_ != nullptr ? *now_ : anchor_ps_,
                  cycle_count_);
    }
  }
  ++active_count_;
  ++stats_.component_wakes;
  // A wake landing while this domain's own passes are in flight must
  // degrade them to full scans: the woken component may still be due its
  // commit this very cycle (visit-time flag semantics). The flag is set
  // before the cache mutation below, so the passes never read a cache
  // whose entries shifted under their cursor.
  if (ticking_) woke_in_tick_ = true;
  if (cache_valid_) {
    const std::size_t slot = component->slot_;
    awake_idx_.insert(
        std::lower_bound(awake_idx_.begin(), awake_idx_.end(), slot), slot);
  }
}

void ClockDomain::rebuild_awake_cache() {
  awake_idx_.clear();
  for (std::size_t i = 0; i < components_.size(); ++i) {
    Clocked* c = components_[i];
    if (c == nullptr) continue;
    c->slot_ = i;
    if (c->active_) awake_idx_.push_back(i);
  }
  cache_valid_ = true;
}

void ClockDomain::tick() {
  const bool run_all = exhaustive();
  if (run_all && active_count_ < static_cast<int>(components_.size())) {
    // Exhaustive delivery (reference mode or fault injection armed, whose
    // per-commit RNG draws must all happen): re-arm everything so the
    // activity flags are conservative when quiescence-aware delivery
    // resumes.
    for (Clocked* c : components_) {
      if (c != nullptr && !c->active_) {
        c->active_ = true;
        ++active_count_;
      }
    }
    cache_valid_ = false;
  }
  // The index-jump walk only pays off when most components sleep; a dense
  // domain (streaming at full rate) runs the plain flag-checked scan,
  // whose per-slot cost is lower than the jump bookkeeping.
  bool use_cache = false;
  if (!run_all && active_count_ * 4 <= live_count_) {
    if (!cache_valid_) rebuild_awake_cache();
    use_cache = true;
  }
  ticking_ = true;
  woke_in_tick_ = false;
  // Components attached mid-tick get their first edge next tick; activity
  // flags are read at visit time, so a component woken by an earlier
  // component's commit this very cycle still receives the edge — exactly
  // the cycle the exhaustive kernel would have run it with effect.
  //
  // Each pass walks the awake-index cache while it can (asleep slots
  // cannot act, so skipping them wholesale is exact) and falls back to
  // scanning every slot from the current position the moment a wake lands
  // mid-tick, which reproduces the uncached kernel's delivery order and
  // visit-time flag reads bit for bit.
  const std::size_t n = components_.size();
  const std::uint64_t present = static_cast<std::uint64_t>(live_count_);
  std::uint64_t delivered = 0;
  std::size_t k = 0;  // cache cursor (eval pass)
  for (std::size_t i = 0; i < n; ++i) {
    if (use_cache && !woke_in_tick_) {
      while (k < awake_idx_.size() && awake_idx_[k] < i) ++k;
      if (k == awake_idx_.size()) break;
      i = awake_idx_[k];
      if (i >= n) break;  // attached mid-tick: first edge next tick
    }
    Clocked* c = components_[i];
    if (c != nullptr && (run_all || c->active_)) c->eval();
  }
  k = 0;  // cache cursor (commit pass)
  for (std::size_t i = 0; i < n; ++i) {
    if (use_cache && !woke_in_tick_) {
      while (k < awake_idx_.size() && awake_idx_[k] < i) ++k;
      if (k == awake_idx_.size()) break;
      i = awake_idx_[k];
      if (i >= n) break;
    }
    Clocked* c = components_[i];
    if (c != nullptr && (run_all || c->active_)) {
      c->commit();
      ++delivered;
    }
  }
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
  auto stays_awake = [&](Clocked* c) {
    if (c == nullptr || !c->active_) return false;
    if (!c->quiescent()) return true;
    c->active_ = false;
    --active_count_;
    return false;
  };
  if (cache_valid_) {
    // The cache holds exactly the awake components, so the sweep is
    // O(awake); deactivated entries are filtered out in place.
    auto out = awake_idx_.begin();
    for (const std::size_t i : awake_idx_) {
      if (stays_awake(components_[i])) *out++ = i;
    }
    awake_idx_.erase(out, awake_idx_.end());
  } else {
    for (Clocked* c : components_) (void)stays_awake(c);
  }
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

void ClockDomain::skip_edge(Picoseconds now) {
  ++cycle_count_;
  ++stats_.cycles_quiescent;
  anchor_ps_ = now;
  stats_.edges_skipped += static_cast<std::uint64_t>(live_count_);
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
