// Clock domains.
//
// VAPRES clocks the static region and each PRR independently (local clock
// domains, Section III.B.2). A ClockDomain owns a period, a gating enable
// (PRSocket CLK_en bit), and the list of components clocked by it. The
// period can be changed at runtime — the model of the MicroBlaze driving
// the BUFGMUX select through the PRSocket CLK_sel bit.
//
// The domain is quiescence-aware (docs/SIMULATOR.md): each tick delivers
// the edge only to awake components (a walk of a bitmask of awake slots),
// a post-tick poll deactivates the ones that report quiescent, and a
// domain whose every component sleeps stops being scheduled at all — the
// Simulator fast-forwards its cycle counter analytically, so
// cycle_count()/cycles_to_ps stay exact across sleeps.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/component.hpp"
#include "sim/time.hpp"

namespace vapres::snap {
class SystemSnapshot;
}

namespace vapres::sim {

/// Edge-delivery accounting, per domain and aggregated by the Simulator.
struct KernelStats {
  std::uint64_t edges_delivered = 0;  ///< component edges actually run
  std::uint64_t edges_skipped = 0;    ///< component edges elided as quiescent
  std::uint64_t domain_sleeps = 0;    ///< whole-domain sleep transitions
  std::uint64_t component_wakes = 0;  ///< sleeping components re-armed
  /// Domain cycles on which at least one component received the edge.
  std::uint64_t cycles_active = 0;
  /// Domain cycles credited while the whole domain slept (skipped or
  /// fast-forwarded). cycles_active + cycles_quiescent == cycle_count().
  std::uint64_t cycles_quiescent = 0;

  KernelStats& operator+=(const KernelStats& o) {
    edges_delivered += o.edges_delivered;
    edges_skipped += o.edges_skipped;
    domain_sleeps += o.domain_sleeps;
    component_wakes += o.component_wakes;
    cycles_active += o.cycles_active;
    cycles_quiescent += o.cycles_quiescent;
    return *this;
  }
};

class ClockDomain {
 public:
  ClockDomain(std::string name, double frequency_mhz);

  const std::string& name() const { return name_; }

  double frequency_mhz() const { return mhz_from_period_ps(period_ps_); }
  Picoseconds period_ps() const { return period_ps_; }

  /// Changes the clock frequency. Takes effect from the next edge: the next
  /// rising edge occurs one *new* period after the moment of the change,
  /// which is how a BUFGMUX glitch-free switchover behaves to first order.
  void set_frequency_mhz(double mhz);

  /// Gates the clock on/off (PRSocket CLK_en). While disabled, no edges are
  /// delivered and the cycle counter does not advance. Re-enabling delivers
  /// the first edge one period after the enable.
  void set_enabled(bool enabled);
  bool enabled() const { return enabled_; }

  /// Registers a component. The domain does not own the component; the
  /// owner must outlive the domain's use. Components are clocked in
  /// registration order (eval pass then commit pass). A component attached
  /// mid-tick receives its first edge on the next tick.
  void attach(Clocked* component);
  /// Deregisters a component. Safe to call from inside a tick (a module
  /// evicted during its own eval/commit): the slot is nulled immediately
  /// and compacted after the in-flight passes finish.
  void detach(Clocked* component);

  Cycles cycle_count() const { return cycle_count_; }

  /// Current simulation time of the owning Simulator (anchor time before
  /// the domain is owned). Lets clocked components stamp observability
  /// events without holding a Simulator reference.
  Picoseconds now() const { return now_ != nullptr ? *now_ : anchor_ps_; }

  /// Converts a duration in this domain's cycles to picoseconds at the
  /// current frequency.
  Picoseconds cycles_to_ps(Cycles n) const { return n * period_ps_; }

  /// Components currently receiving edges. 0 on a non-empty enabled domain
  /// means the domain is asleep and off the schedule.
  int active_components() const { return active_count_; }
  bool asleep() const { return !components_.empty() && active_count_ == 0; }

  const KernelStats& kernel_stats() const { return stats_; }

 private:
  friend class Clocked;
  friend class Simulator;
  // Checkpoint/restore overlays cycle_count_/anchor_ps_/stats_ directly
  // (snap/system_snapshot.cpp); components are woken afterwards so the
  // first post-restore tick re-evaluates every activity flag.
  friend class ::vapres::snap::SystemSnapshot;

  /// Absolute time of the next rising edge.
  Picoseconds next_edge() const { return anchor_ps_ + period_ps_; }

  /// Delivers one rising edge: eval pass, then commit pass, then (every
  /// few cycles) the quiescence poll. Each pass walks the awake-slot
  /// bitmask in slot order and costs only what is awake; sleeping
  /// components are skipped unless running exhaustively. Fault injection
  /// does not change the mode: the one per-commit fault site (a switch
  /// box's muxes) keeps its boxes awake itself while injection is enabled.
  void tick();

  /// Analytically credits the edges a sleeping domain would have received
  /// up to `until` (inclusive of an edge exactly at `until` when
  /// `inclusive`). No-op unless the domain is enabled, non-empty, and
  /// fully asleep.
  void fast_forward(Picoseconds until, bool inclusive);

  /// Whether every component must be ticked regardless of activity flags:
  /// only in the exhaustive reference mode (activity-driven off).
  bool exhaustive() const { return !activity_driven_; }

  /// Post-tick sweep: deactivates components whose quiescent() report
  /// allows sleeping.
  void poll_quiescence();

  /// Calls `visit` on each awake component in slots [0, n), in slot order.
  /// The bitmask is re-read after every visit, so a visit that wakes a
  /// later slot delivers to it and one that detaches a later slot skips it.
  template <typename Visit>
  void walk_awake(std::size_t n, Visit&& visit);

  /// Re-arms the sleeping component in `slot` (Clocked::wake()).
  void note_wake(std::size_t slot);
  void compact();

  /// Re-anchors the edge schedule to the current simulation time (set by
  /// the owning Simulator; valid for the domain's whole lifetime).
  void reanchor();

  std::string name_;
  Picoseconds period_ps_;
  bool enabled_ = true;
  bool activity_driven_ = true;  // mirrored from the owning Simulator
  Cycles cycle_count_ = 0;
  // Time of the most recent edge (or frequency-change anchor).
  Picoseconds anchor_ps_ = 0;
  // Simulation clock of the owning simulator; used to re-anchor on
  // frequency changes and clock-enable events.
  const Picoseconds* now_ = nullptr;
  std::vector<Clocked*> components_;
  // Bit i of word i / 64 is set iff components_[i] is non-null and awake.
  std::vector<std::uint64_t> awake_;
  int active_count_ = 0;
  int live_count_ = 0;  // non-null slots in components_
  bool ticking_ = false;
  bool pending_compaction_ = false;
  KernelStats stats_;
};

}  // namespace vapres::sim
