#include "fleet/cost.hpp"

#include <algorithm>

namespace vapres::fleet {

bool capability_mismatch(sched::AdmissionVerdict v) {
  switch (v) {
    case sched::AdmissionVerdict::kRejectedBadSpec:
    case sched::AdmissionVerdict::kRejectedRateInfeasible:
    case sched::AdmissionVerdict::kRejectedNoPrrFit:
      return true;
    default:
      return false;
  }
}

bool capacity_blocked(sched::AdmissionVerdict v) {
  switch (v) {
    case sched::AdmissionVerdict::kRejectedFragmented:
    case sched::AdmissionVerdict::kRejectedNoIomChannel:
    case sched::AdmissionVerdict::kRejectedNoRoute:
      return true;
    default:
      return false;
  }
}

double route_score(const FabricSnapshot& snap) {
  if (!snap.probe.admissible && capability_mismatch(snap.probe.verdict)) {
    return kExcluded;
  }
  // Term weights. Every term is normalized to roughly [0, 1] first.
  constexpr double kOccupancyWeight = 2.0;
  constexpr double kFragmentationWeight = 2.0;
  constexpr double kQueueDelayWeight = 1.0;
  constexpr double kAffinityWeight = 0.5;
  // Free-capacity term: prefer the *fullest* fabric that can still host
  // the app (best-fit consolidation). Spreading load evenly looks fair
  // but dribbles a little occupancy onto every fabric, so a burst finds
  // no fabric with headroom; packing keeps whole fabrics in reserve.
  // bench_fleet measures consolidation beating round-robin spread on
  // admissions at every seed tried. A fabric is as full as its scarcest
  // resource: occupied slices or allocated IOM channel pairs.
  const double free_fraction =
      1.0 - std::max(snap.utilization, snap.channel_utilization);
  // Fragmentation term: each planned defrag relocation costs a quarter
  // point (it burns ICAP bandwidth and delays the launch); a fabric that
  // is capacity-blocked right now takes a full point so every currently
  // admissible fabric sorts ahead of it. Placement slack the plan would
  // strand (a small module on a big site, the probe's fit_waste) is
  // fragmentation-to-be and costs up to a quarter point: it steers small
  // apps away from big sites so the fleet keeps large footprint classes
  // placeable.
  double frag = 0.25 * static_cast<double>(snap.probe.defrag_migrations);
  if (!snap.probe.admissible) frag += 1.0;
  frag += 0.25 * snap.probe.fit_waste;
  // Queue-delay term: submissions already waiting in the fabric's
  // admission queue. (The fabric's clock lead is deliberately NOT used
  // as a delay proxy: it penalizes exactly the busy fabric that
  // consolidation wants to keep filling, and measurably costs
  // admissions.)
  const double queue = static_cast<double>(snap.queued);
  // Affinity: cap the bonus at one point so a tenant's warm fabric does
  // not absorb unbounded load.
  const double affinity =
      std::min(1.0, 0.5 * static_cast<double>(snap.tenant_running));
  return kOccupancyWeight * free_fraction + kFragmentationWeight * frag +
         kQueueDelayWeight * queue - kAffinityWeight * affinity;
}

}  // namespace vapres::fleet
