// Per-submission fabric scoring for the fleet router.
//
// For each submission the router takes one FabricSnapshot per fabric —
// a probe_admit dry run plus cheap load signals — and scores it with
// route_score. Lower is better; kExcluded removes the fabric from the
// candidate list entirely (capability mismatches: a chain that fits no
// PRR of the fabric, a stream rate its clock ladder cannot sustain).
// The score is a pure function of the snapshot so routing stays
// deterministic: equal workloads produce equal decisions, bit for bit.
#pragma once

#include <limits>

#include "sched/scheduler.hpp"

namespace vapres::fleet {

/// Everything route_score looks at for one (fabric, submission) pair.
/// Assembled by the router from const scheduler state.
struct FabricSnapshot {
  int fabric = 0;
  sched::ApplicationScheduler::AdmitProbe probe;
  double utilization = 0.0;   ///< occupied slices / total PRR slices
  /// Allocated IOM channel-pair fraction. Channel pairs cap concurrent
  /// apps per fabric and are usually the binding fleet resource, so the
  /// occupancy term scores whichever of slice and channel pressure is
  /// higher.
  double channel_utilization = 0.0;
  int queued = 0;             ///< submissions waiting in the admission queue
  int tenant_running = 0;     ///< submitting tenant's running apps here
};

/// The score of a fabric that cannot host the submission at all.
inline constexpr double kExcluded = std::numeric_limits<double>::infinity();

/// A weighted sum of free capacity, fragmentation (defrag relocations
/// the probe plan would spend, plus a flat penalty when the fabric is
/// capacity-blocked right now), predicted queue delay, and tenant
/// affinity (prefer fabrics already hosting the tenant — their stores
/// hold the tenant's masters warm). Lower is better; kExcluded for a
/// capability mismatch.
double route_score(const FabricSnapshot& snap);

/// True for verdicts no amount of waiting or defragmentation fixes on
/// this fabric (the router excludes rather than deprioritizes these).
bool capability_mismatch(sched::AdmissionVerdict v);

/// True for verdicts that mean "full right now" — worth a fallback try
/// (the scheduler may still preempt its way in) but scored behind every
/// admissible fabric.
bool capacity_blocked(sched::AdmissionVerdict v);

}  // namespace vapres::fleet
