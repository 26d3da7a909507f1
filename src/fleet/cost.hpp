// Pluggable per-submission fabric scoring for the fleet router.
//
// For each submission the router takes one FabricSnapshot per fabric —
// a probe_admit dry run plus cheap load signals — and asks the cost
// model for a score. Lower is better; +infinity removes the fabric from
// the candidate list entirely (capability mismatches: a chain that fits
// no PRR of the fabric, a stream rate its clock ladder cannot sustain).
// Scores must be pure functions of the snapshot so routing stays
// deterministic: equal workloads produce equal decisions, bit for bit.
#pragma once

#include <limits>

#include "fleet/spec.hpp"
#include "sched/scheduler.hpp"
#include "sim/time.hpp"

namespace vapres::fleet {

/// Everything the cost model may look at for one (fabric, submission)
/// pair. Assembled by the router from const scheduler state.
struct FabricSnapshot {
  int fabric = 0;
  sched::ApplicationScheduler::AdmitProbe probe;
  double utilization = 0.0;   ///< occupied slices / total PRR slices
  /// Allocated IOM channel-pair fraction. Channel pairs cap concurrent
  /// apps per fabric and are usually the binding fleet resource, so the
  /// occupancy term scores whichever of slice and channel pressure is
  /// higher.
  double channel_utilization = 0.0;
  int free_prrs = 0;
  int total_prrs = 0;
  int queued = 0;             ///< submissions waiting in the admission queue
  /// How far this fabric's system clock runs ahead of the least-loaded
  /// fabric's — admission and launch work push a busy fabric's clock
  /// forward. Available for custom cost models; WeightedCostModel does
  /// not score it (penalizing the busy fabric fights consolidation).
  sim::Cycles clock_lead = 0;
  int tenant_running = 0;     ///< submitting tenant's running apps here
};

class CostModel {
 public:
  virtual ~CostModel() = default;
  /// Lower is better; +infinity excludes the fabric.
  virtual double score(const FabricSnapshot& snap) const = 0;

  static constexpr double kExcluded =
      std::numeric_limits<double>::infinity();
};

/// The default model: a weighted sum of free capacity, fragmentation
/// (defrag relocations the probe plan would spend, plus a flat penalty
/// when the fabric is capacity-blocked right now), predicted queue
/// delay, and tenant affinity (prefer fabrics already hosting the
/// tenant — their stores hold the tenant's masters warm).
class WeightedCostModel : public CostModel {
 public:
  WeightedCostModel() = default;
  explicit WeightedCostModel(CostWeights weights) : w_(weights) {}

  double score(const FabricSnapshot& snap) const override;

  const CostWeights& weights() const { return w_; }

 private:
  CostWeights w_;
};

/// True for verdicts no amount of waiting or defragmentation fixes on
/// this fabric (the router excludes rather than deprioritizes these).
bool capability_mismatch(sched::AdmissionVerdict v);

/// True for verdicts that mean "full right now" — worth a fallback try
/// (the scheduler may still preempt its way in) but scored behind every
/// admissible fabric.
bool capacity_blocked(sched::AdmissionVerdict v);

}  // namespace vapres::fleet
