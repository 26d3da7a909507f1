// Runtime multi-application scheduler (admission control, online
// placement, relocation-based defragmentation, priority preemption).
//
// The scheduler is the software layer the paper's Section III points at
// but does not elaborate: the MicroBlaze deciding, at runtime, which
// requested streaming applications run on the RSB fabric. Admission of
// one request walks:
//
//   1. spec validation + RateAnalyzer feasibility (a PRR clock from the
//      {clk_a, clk_b} ladder must sustain every module at the requested
//      stream rate);
//   2. IOM source/sink channel allocation;
//   3. placement of the module chain onto free, footprint-compatible
//      PRRs (first-fit or best-fit over a FabricMap copy);
//   4. if fragmented: DefragPlanner picks live relocations, executed
//      hitlessly through the 9-step core::ModuleSwitcher;
//   5. if still stuck and allowed: evict the lowest-priority running
//      app and retry;
//   6. launch — bitstreams materialized from one master per footprint
//      class (bitstream::RelocatingStore), staged to CF + SDRAM,
//      configured with VapresSystem::reconfigure_now, channels routed,
//      the source started.
//
// Every failure path is rolled back (partial launches are torn down,
// aborted relocations leave the donor app streaming untouched), and
// every decision is deterministic given the same submission sequence.
#pragma once

#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "bitstream/relocation.hpp"
#include "core/stats.hpp"
#include "core/system.hpp"
#include "flow/rate_analyzer.hpp"
#include "sched/defrag.hpp"
#include "sched/placement.hpp"
#include "sched/request.hpp"

namespace vapres::snap {
class SystemSnapshot;
}

namespace vapres::sched {

class ApplicationScheduler {
 public:
  struct Options {
    int rsb_index = 0;
    PlacementPolicy policy = PlacementPolicy::kBestFit;
    bool enable_defrag = true;
    bool enable_preemption = true;
    /// Under kManaged, submit() feeds the PrefetchEngine admission-queue
    /// and defrag-plan hints, so staging overlaps the wait in the queue
    /// (the other sources stage synchronously at launch).
    core::ReconfigSource source = core::ReconfigSource::kSdramArray;
  };

  /// Outcome of a probe_admit() dry run: would this request launch right
  /// now, and at what cost? Nothing in the scheduler or the fabric moves
  /// while computing it, so a fleet router can score many fabrics per
  /// submission without perturbing any of them.
  struct AdmitProbe {
    bool admissible = false;
    /// kAdmitted / kAdmittedAfterDefrag when admissible; the blocking
    /// rejection verdict otherwise. Preemption is never considered — a
    /// probe must not promise an eviction it has no authority to make.
    AdmissionVerdict verdict = AdmissionVerdict::kPending;
    std::string reason;
    std::vector<int> prrs;       ///< placement the plan would commit
    int defrag_migrations = 0;   ///< live relocations the plan would spend
    bool iom_available = false;  ///< a source + sink channel pair is free
    /// Fraction of the planned sites' slices the chain would leave idle
    /// (0 = perfect fit, or not admissible). The fleet router scores it
    /// as fragmentation-to-be: cross-fabric best-fit.
    double fit_waste = 0.0;
  };

  explicit ApplicationScheduler(core::VapresSystem& sys);
  ApplicationScheduler(core::VapresSystem& sys, Options options);

  ApplicationScheduler(const ApplicationScheduler&) = delete;
  ApplicationScheduler& operator=(const ApplicationScheduler&) = delete;

  /// Queues a request; returns its app id. Call run_admission() to act.
  int submit(AppRequest request);

  /// Feasibility + placement dry run for `request` with no side effects:
  /// no record is created, no MicroBlaze time is charged, no obs event
  /// is emitted, and the fabric map is only copied. Shares try_admit's
  /// spec and rate checks (assess), IOM search and placement planning,
  /// minus preemption; it plans before it checks IOMs, so a chain that
  /// fits no PRR reads as a capability mismatch even on a busy fabric.
  AdmitProbe probe_admit(const AppRequest& request) const;

  /// Admits queued requests (highest priority first, FIFO within a
  /// priority). Returns the number of apps launched by this call.
  int run_admission();

  /// Gracefully stops a running app and frees its fabric resources.
  void stop(int app_id);

  /// Total apps ever submitted (retired records included).
  int num_apps() const {
    return first_id_ + static_cast<int>(apps_.size());
  }
  int first_live_id() const { return first_id_; }
  /// Requires first_live_id() <= app_id < num_apps(); retired records
  /// are gone (their contribution lives on in accounting() totals).
  const AppRecord& app(int app_id) const;
  std::vector<int> running_apps() const;
  /// Submitted-but-undecided records still waiting for run_admission().
  int queued_count() const;

  /// Drops terminal records (rejected / stopped / preempted) from the
  /// front of the history, folding their verdicts into retained
  /// aggregate totals. Keeps everything from the oldest still-queued or
  /// still-running app onward, so ids stay dense. Returns the number
  /// retired. A sustained-load driver calls this periodically to hold
  /// scheduler memory (and per-admission scan cost) at O(live apps)
  /// instead of O(lifetimes).
  int retire_terminal();

  /// True once a finite-length source (source_words > 0) emitted all of
  /// its words.
  bool source_done(int app_id) const;

  /// The words this app's sink IOM channel received while the app has
  /// been running (the channel's history is sliced per app, since IOM
  /// channels are reused across admissions).
  std::vector<comm::Word> received_words(int app_id) const;

  const FabricMap& fabric() const { return map_; }
  double fabric_utilization() const { return map_.utilization(); }
  /// IOM channels currently allocated to running apps — the leak-check
  /// counterpart of FabricMap occupancy.
  int busy_source_channels() const;
  int busy_sink_channels() const;
  int total_source_channels() const;
  int total_sink_channels() const;
  /// Source+sink channel pairs still allocatable — the hard cap on
  /// concurrent apps this fabric can host (each app pins one pair).
  int free_channel_pairs() const;

  /// Owning app id per PRR slot (-1 = free) — a read-only occupancy
  /// export for control-plane reconciliation: a restarted fleet agent
  /// checks its journaled app locations against what the fabric
  /// actually hosts.
  std::vector<int> prr_owners() const;

  const bitstream::RelocatingStore& store() const { return store_; }

  /// Copies every master bitstream from `other` that this scheduler's
  /// store lacks. A fleet controller seeds the destination scheduler
  /// with the source's masters before a cross-fabric migration, so the
  /// moved app restreams from a relocated master instead of paying a
  /// cold regenerate-and-stage on arrival.
  void adopt_masters(const bitstream::RelocatingStore& other);

  core::SchedulerAccounting accounting() const;

  /// Consecutive admission rejections with no successful launch in
  /// between (zeroed by every launch). The fleet health monitor exports
  /// this as the per-fabric "fleet.<name>.reject_streak" gauge — a
  /// sustained streak is the capacity-exhaustion/degradation signal the
  /// reject-streak SLO rule watches (docs/HEALTH.md).
  int rejection_streak() const { return rejection_streak_; }

 private:
  // Checkpoint/restore overlays app records, channel-busy tables, and
  // aggregate counters, and re-installs running sources' generators with
  // their remaining word budgets (snap/system_snapshot.cpp).
  friend class ::vapres::snap::SystemSnapshot;

  /// Admission steps 1-2, read-only. Spec: a non-empty chain of known
  /// 1-in/1-out modules with source interval >= 1. Rate: a ladder clock
  /// sustains every stage at the requested stream rate. try_admit,
  /// probe_admit and hint_request all start here.
  struct Assessment {
    /// kPending when both checks pass; the rejection otherwise.
    AdmissionVerdict verdict = AdmissionVerdict::kPending;
    std::string reason;
    std::vector<double> clocks_mhz;  ///< chosen ladder clock per stage
    bool ok() const { return verdict == AdmissionVerdict::kPending; }
  };

  /// Outcome of planning one chain onto a FabricMap copy.
  struct ChainPlan {
    bool ok = false;
    AdmissionVerdict fail_verdict = AdmissionVerdict::kPending;
    std::string reason;
    std::vector<int> prrs;            ///< PRR per chain position
    std::vector<MigrationStep> steps; ///< relocations to execute first
  };

  core::Rsb& rsb() { return sys_.rsb(opt_.rsb_index); }
  const core::Rsb& rsb() const { return sys_.rsb(opt_.rsb_index); }

  Assessment assess(const AppRequest& request) const;
  bool try_admit(AppRecord& app);
  /// `app_id` tags the tentative occupancy (-1 for a probe).
  ChainPlan plan_chain(const AppRequest& request, int app_id) const;
  bool allocate_ioms(AppRecord& app);
  void free_ioms(const AppRecord& app);
  /// Lowest-priority (then youngest) running app below `priority`.
  int pick_victim(int priority) const;

  /// Executes one planned relocation hitlessly (9-step switch). Returns
  /// false when the spare's PR failed permanently and the switch rolled
  /// back (the donor app keeps streaming on its old PRR).
  bool execute_migration(const MigrationStep& step);

  /// Configures PRRs, routes channels, and starts the source. On any
  /// failure the partial launch is torn down and `app.verdict`/`reason`
  /// say why. Returns success.
  bool launch(AppRecord& app, const std::vector<int>& prrs);

  /// Stops the source, disconnects channels, blanks PRRs, frees IOM
  /// channels and fabric slots, captures final word counts.
  void teardown(AppRecord& app, AppState final_state);

  /// Materializes (module @ prr) from the footprint-class master and
  /// installs it as a CF file through the BitstreamManager. Returns the
  /// relocated bitstream.
  bitstream::PartialBitstream install_bitstream(const std::string& module_id,
                                                int prr);

  /// install_bitstream + residency: under kManaged the cache/prefetcher
  /// own residency; otherwise the array is preloaded for the array path.
  void stage_bitstream(const std::string& module_id, int prr);

  /// Queues prefetch hints for the placement the admission pass would
  /// pick for `app` right now (admission-queue + defrag-plan hints).
  void hint_request(const AppRecord& app);

  /// Isolates, resets, and unloads a vacated PRR site.
  void blank_prr(int prr);

  void set_prr_clock(int prr, double mhz);

  AppRecord& record(int app_id);
  const AppRecord& record(int app_id) const;

  core::VapresSystem& sys_;
  Options opt_;
  FabricMap map_;
  bitstream::RelocatingStore store_;
  flow::RateAnalyzer analyzer_;
  /// Live + recent records; record for app id `i` sits at index
  /// `i - first_id_`. Retired prefixes are popped from the front.
  std::deque<AppRecord> apps_;
  int first_id_ = 0;
  /// Busy flags per IOM producer/consumer channel: [iom][channel].
  std::vector<std::vector<bool>> source_busy_;
  std::vector<std::vector<bool>> sink_busy_;

  int preemptions_ = 0;
  int defrag_migrations_ = 0;
  int rejection_streak_ = 0;
  int migration_rollbacks_ = 0;
  // Aggregate verdicts of retired records (accounting() totals stay
  // exact after retirement; only the per-app rows are dropped).
  int retired_admitted_ = 0;
  int retired_admitted_after_defrag_ = 0;
  int retired_admitted_after_preempt_ = 0;
  int retired_rejected_ = 0;
};

}  // namespace vapres::sched
