// Soak-run invariant checkers.
//
// Header-only predicates over a live ApplicationScheduler + VapresSystem
// pair. The soak harness sweeps them continuously at checkpoints; unit
// tests (scheduler_test, defrag_test) call the same checkers after their
// scenarios so a leak or accounting drift caught at 10^5 lifetimes is
// asserted by the fast tier too. Checkers never mutate the system; they
// append human-readable violations to an InvariantReport.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "sched/scheduler.hpp"
#include "sim/time.hpp"

namespace vapres::load {

// Bounds and caps of the soak loop (load::run_soak and
// load::run_fleet_soak, load/soak.cpp).

/// Largest tolerated gap between consecutive sink words on a live
/// channel, in system cycles (covers slow rate classes and hitless
/// relocations of the app's own modules).
inline constexpr sim::Cycles kGapBoundCycles = 2000;
/// Words a chain may legitimately hold in flight at teardown (module
/// state, channel FIFOs) before conservation counts them as lost.
inline constexpr std::uint64_t kPipelineSlackWords = 64;
/// Per-sink-channel received-word history cap: a soak run must cap, or
/// sink histories grow with total words streamed.
inline constexpr std::size_t kHistoryLimitWords = 4096;

struct InvariantReport {
  std::vector<std::string> violations;
  std::uint64_t checks_run = 0;

  bool ok() const { return violations.empty(); }

  void fail(std::string what) {
    // Keep the first failures; a broken invariant usually repeats every
    // checkpoint and the tail adds nothing.
    if (violations.size() < 64) violations.push_back(std::move(what));
  }

  std::string to_string() const {
    if (violations.empty()) {
      return "invariants: all " + std::to_string(checks_run) + " checks ok";
    }
    std::string out = "invariant violations (" +
                      std::to_string(violations.size()) + "):";
    for (const std::string& v : violations) out += "\n  - " + v;
    return out;
  }
};

/// Resource ledger vs. fabric ground truth: every running app holds
/// exactly one source and one sink IOM channel plus its chain's PRRs,
/// and nothing terminal holds anything (the leak check).
inline void check_resource_ledger(const sched::ApplicationScheduler& s,
                                  InvariantReport& r) {
  ++r.checks_run;
  const std::vector<int> running = s.running_apps();
  int chain_slots = 0;
  for (const int id : running) {
    chain_slots += static_cast<int>(s.app(id).prrs.size());
  }
  const int occupied = s.fabric().num_slots() - s.fabric().free_count();
  if (occupied != chain_slots) {
    r.fail("PRR leak: " + std::to_string(occupied) +
           " slots occupied but running chains own " +
           std::to_string(chain_slots));
  }
  const int n_running = static_cast<int>(running.size());
  if (s.busy_source_channels() != n_running) {
    r.fail("IOM source-channel leak: " +
           std::to_string(s.busy_source_channels()) + " busy, " +
           std::to_string(n_running) + " running");
  }
  if (s.busy_sink_channels() != n_running) {
    r.fail("IOM sink-channel leak: " +
           std::to_string(s.busy_sink_channels()) + " busy, " +
           std::to_string(n_running) + " running");
  }
}

/// Verdict bookkeeping: every submission is admitted, rejected, or
/// still undecided — no record lost, none double-counted (holds across
/// record retirement, whose aggregates fold into accounting()).
inline void check_accounting(const sched::ApplicationScheduler& s,
                             InvariantReport& r) {
  ++r.checks_run;
  const core::SchedulerAccounting acc = s.accounting();
  int undecided = 0;
  for (int id = s.first_live_id(); id < s.num_apps(); ++id) {
    if (s.app(id).verdict == sched::AdmissionVerdict::kPending) ++undecided;
  }
  if (acc.submitted != s.num_apps()) {
    r.fail("accounting drift: submitted=" + std::to_string(acc.submitted) +
           " but num_apps=" + std::to_string(s.num_apps()));
  }
  if (acc.admitted + acc.rejected + undecided != acc.submitted) {
    r.fail("accounting drift: admitted=" + std::to_string(acc.admitted) +
           " + rejected=" + std::to_string(acc.rejected) + " + undecided=" +
           std::to_string(undecided) + " != submitted=" +
           std::to_string(acc.submitted));
  }
}

/// Word conservation for one terminal (stopped/preempted) app: the sink
/// got everything the source emitted, minus at most a pipeline's worth
/// of warm-up/in-flight words (ma8/fir4 hold state; teardown drains the
/// route before counting).
inline void check_word_conservation(const sched::AppRecord& a,
                                    InvariantReport& r,
                                    std::uint64_t pipeline_slack =
                                        kPipelineSlackWords) {
  ++r.checks_run;
  if (a.final_words_out > a.final_words_in) {
    r.fail(a.request.name + ": sink got " +
           std::to_string(a.final_words_out) + " words, source emitted " +
           std::to_string(a.final_words_in) + " (duplication)");
  } else if (a.final_words_in - a.final_words_out > pipeline_slack) {
    r.fail(a.request.name + ": lost " +
           std::to_string(a.final_words_in - a.final_words_out) +
           " of " + std::to_string(a.final_words_in) + " words");
  }
}

/// Output-stream continuity for one live channel: the largest gap
/// between consecutive sink words must stay within `bound` cycles (the
/// paper's no-interruption claim, measured by Iom gap statistics that
/// the harness resets per launch).
inline void check_stream_gap(const std::string& app_name, sim::Cycles gap,
                             sim::Cycles bound, InvariantReport& r) {
  ++r.checks_run;
  if (gap > bound) {
    r.fail(app_name + ": output gap " + std::to_string(gap) +
           " cycles exceeds bound " + std::to_string(bound));
  }
}

/// Kernel-time monotonicity across checkpoints: simulation time and the
/// system-domain cycle counter may never step backwards (and must make
/// progress while lifetimes complete).
class MonotoneClockCheck {
 public:
  void observe(core::VapresSystem& sys, InvariantReport& r) {
    ++r.checks_run;
    const sim::Picoseconds now = sys.sim().now();
    const sim::Cycles cycle = sys.system_clock().cycle_count();
    if (now < last_ps_ || cycle < last_cycle_) {
      r.fail("kernel time went backwards: " + std::to_string(last_ps_) +
             "ps -> " + std::to_string(now) + "ps, cycle " +
             std::to_string(last_cycle_) + " -> " + std::to_string(cycle));
    }
    if (seen_ && now == last_ps_ && cycle == last_cycle_) {
      r.fail("kernel time stalled at " + std::to_string(now) +
             "ps across a checkpoint interval");
    }
    last_ps_ = now;
    last_cycle_ = cycle;
    seen_ = true;
  }

  /// Observer state as one checkpoint field list (snap/format.hpp): a
  /// resumed soak keeps asserting monotonicity across the restore
  /// boundary instead of restarting the window at zero.
  template <class Archive>
  void fields(Archive& ar) {
    ar.u64(last_ps_);
    ar.u64(last_cycle_);
    ar.boolean(seen_);
  }

 private:
  sim::Picoseconds last_ps_ = 0;
  sim::Cycles last_cycle_ = 0;
  bool seen_ = false;
};

}  // namespace vapres::load
