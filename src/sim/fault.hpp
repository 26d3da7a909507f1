// Deterministic fault injection.
//
// A process-wide hub that components query at named fault sites: the
// ICAP asks whether the in-flight bitstream was corrupted or the
// transfer timed out, FIFOs ask whether a pushed word is dropped or
// duplicated, switch boxes whether an output mux went stuck, the
// scrubber whether a configured frame took an upset. All
// decisions come from one SplitMix64 stream plus per-site deterministic
// "armed" windows (fire on exactly the Nth..N+k-1th opportunity), so a
// run is bit-for-bit reproducible from its seed: same seed, same event
// order, same counters. Disabled (the default) every hook is a single
// inline branch; no RNG state advances and no counters move.
//
// Most sites draw per unit of traffic (a transfer, a push, a scrub pass),
// which is the same whichever kernel delivers the edges. The one site that
// draws per commit — a switch box's output muxes — registers its boxes
// here: they stay awake while injection is enabled, and enable() wakes
// them, so they never sleep through an opportunity (docs/SIMULATOR.md §7).
//
// The hub is also the recovery scoreboard: the subsystems that heal
// (reconfiguration retry/fallback, switcher rollback, scrubber repair)
// report here so core::collect_stats can show faults next to recoveries.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/random.hpp"
#include "sim/time.hpp"

namespace vapres::snap {
class SystemSnapshot;
}

namespace vapres::sim {

class Clocked;

/// Named fault sites, one per hook wired into the model.
enum class FaultSite : int {
  kIcapBitstreamCorruption = 0,  ///< word corruption / CRC mismatch at ICAP
  kIcapTransferTimeout,          ///< PR transfer timeout at the ICAP
  kFifoDropWord,                 ///< a pushed FIFO word vanishes
  kFifoDuplicateWord,            ///< a pushed FIFO word arrives twice
  kSwitchBoxStuckPort,           ///< an output mux latches its last flit
  kConfigFrameUpset,             ///< SEU in a configured PRR frame
};
inline constexpr int kNumFaultSites = 6;

const char* fault_site_name(FaultSite site);

/// Recovery actions the self-healing layers report to the scoreboard.
enum class RecoveryEvent : int {
  kIcapRetry = 0,     ///< reconfiguration attempt repeated after backoff
  kSourceFallback,    ///< SDRAM-array source abandoned for CompactFlash
  kSwitchRollback,    ///< module switch aborted, source module kept
  kScrubRepair,       ///< scrubber repaired a frame or stuck mux
};
inline constexpr int kNumRecoveryEvents = 4;

const char* recovery_event_name(RecoveryEvent event);

class FaultInjector {
 public:
  static FaultInjector& instance() { return instance_; }

  /// Arms injection: resets the RNG to `seed` and clears every plan and
  /// counter, so two enable(seed) runs replay identically. Wakes every
  /// registered per-commit site.
  void enable(std::uint64_t seed);

  /// Stops injection. Counters stay readable until the next enable().
  void disable() { enabled_ = false; }

  bool enabled() const { return enabled_; }

  /// Bernoulli injection with probability `p` per opportunity at `site`.
  void set_probability(FaultSite site, double p);

  /// Deterministic injection: fire on opportunities [nth, nth + count).
  /// Overrides any previous window for the site; probability still
  /// applies outside the window.
  void arm(FaultSite site, std::uint64_t nth, std::uint64_t count = 1);

  /// The hook. Counts an opportunity at `site` and decides whether a
  /// fault fires there. Armed windows are checked first and consume no
  /// RNG, so targeted tests stay independent of probabilistic draws.
  bool should_fire(FaultSite site);

  /// Whether an opportunity at `site`, from the next one on, may still
  /// fire: a nonzero probability, or an armed window not yet passed (the
  /// same overflow-safe window test as should_fire()).
  bool live(FaultSite site) const {
    const SitePlan& s = sites_[static_cast<std::size_t>(site)];
    if (s.probability > 0.0) return true;
    const std::uint64_t opp = s.opportunities;
    return s.armed_count > 0 &&
           (opp < s.armed_at || opp - s.armed_at < s.armed_count);
  }

  /// Counts `n` opportunities at a site that cannot fire (!live(site)) in
  /// one step: the counters n should_fire() calls would leave, without
  /// drawing.
  void count_dead(FaultSite site, std::uint64_t n) {
    sites_[static_cast<std::size_t>(site)].opportunities += n;
  }

  /// Registers a component that calls should_fire() on every commit. It
  /// must report non-quiescent while injection is enabled, and unregister
  /// before it is destroyed.
  void add_commit_site(Clocked* site);
  void remove_commit_site(Clocked* site);

  /// Recovery scoreboard, reported by the self-healing subsystems. The
  /// EventBus `recover` instant lands on `track` (where the recovery
  /// happened; 0 = "main") and carries `detail` as arg1 (the output port
  /// of a scrubbed stuck mux).
  void note_recovery(RecoveryEvent event, std::uint32_t track = 0,
                     std::uint64_t detail = 0);

  /// Wires the simulation clock used to stamp inject/recover events on
  /// the obs::EventBus. The pointer must stay valid until released (a
  /// VapresSystem sets it in its constructor and releases it in its
  /// destructor, so the last-built live system's clock stamps). Null —
  /// the default — stamps events at time 0.
  void set_time_source(const Picoseconds* now) { now_ = now; }
  /// Clears the time source only if it is still `now`: a system built
  /// later may own it by now.
  void release_time_source(const Picoseconds* now) {
    if (now_ == now) now_ = nullptr;
  }

  std::uint64_t injected(FaultSite site) const;
  std::uint64_t opportunities(FaultSite site) const;
  std::uint64_t total_injected() const;
  std::uint64_t recoveries(RecoveryEvent event) const;
  std::uint64_t total_recoveries() const;

  /// One line per nonzero counter; stable ordering (replay comparisons).
  std::string report() const;

 private:
  // Checkpoint/restore overlays the RNG stream, per-site plans, and the
  // recovery scoreboard so a mid-storm snapshot replays bit-identically
  // (snap/system_snapshot.cpp).
  friend class ::vapres::snap::SystemSnapshot;

  struct SitePlan {
    double probability = 0.0;
    std::uint64_t armed_at = 0;
    std::uint64_t armed_count = 0;  // 0 = no window
    std::uint64_t opportunities = 0;
    std::uint64_t injected = 0;
  };

  FaultInjector() = default;

  Picoseconds now() const { return now_ != nullptr ? *now_ : 0; }

  /// Re-arms every per-commit site; called whenever injection turns on.
  void wake_commit_sites();

  bool enabled_ = false;
  const Picoseconds* now_ = nullptr;
  SplitMix64 rng_{};
  std::array<SitePlan, kNumFaultSites> sites_{};
  std::array<std::uint64_t, kNumRecoveryEvents> recoveries_{};
  std::vector<Clocked*> commit_sites_;

  static FaultInjector instance_;
};

/// RAII enable/disable for tests: injection is active exactly while the
/// scope lives, so a throwing test cannot leak faults into the next one.
class ScopedFaultInjection {
 public:
  explicit ScopedFaultInjection(std::uint64_t seed) {
    FaultInjector::instance().enable(seed);
  }
  ~ScopedFaultInjection() { FaultInjector::instance().disable(); }

  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;

  FaultInjector* operator->() const { return &FaultInjector::instance(); }
};

}  // namespace vapres::sim
