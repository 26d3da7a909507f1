// Hardware-module switching methodology (paper Section III.B.3, Figure 5).
//
// The ModuleSwitcher is the software side of the protocol, expressed as a
// SoftwareTask on the MicroBlaze. Given an active module in src_prr fed by
// an upstream channel and feeding a downstream channel, it replaces the
// module with `new_module_id` hosted in spare dst_prr, with these steps
// (circled numbers from Figure 5):
//
//   (3) reconfigure dst_prr while the module keeps processing — the
//       MicroBlaze is blocked in the driver, the stream is not;
//   (4) re-route the upstream channel from src's consumer to dst's
//       consumer (new input now buffers in dst's consumer FIFO; dst is
//       still held in reset);
//   (5) command src to drain: it processes its remaining consumer-FIFO
//       words and emits the end-of-stream word;
//   (6) collect src's state registers over its r-link;
//   (7) initialize dst with the state and release its reset;
//   (8) wait for the IOM to report the end-of-stream word;
//   (9) re-route the downstream channel from src's producer to dst's
//       producer, completing the switch; src is shut down.
//
// The new module is placed *outside* the processing path and joins it only
// after PR finished — the overlap that avoids stream interruption.
//
// Failure handling: if the PR of the spare PRR fails permanently (after
// the ReconfigManager's retries and source fallback), the switcher rolls
// back — it aborts before any re-routing happened, so the source module
// keeps streaming untouched (graceful degradation). The same overlap
// property that avoids stream interruption makes the rollback trivial:
// at the failure point the new module was never part of the path.
#pragma once

#include <string>
#include <vector>

#include "core/system.hpp"
#include "hwmodule/wrapper.hpp"
#include "obs/bus.hpp"
#include "proc/microblaze.hpp"

namespace vapres::snap {
class SystemSnapshot;
}

namespace vapres::core {

struct SwitchRequest {
  int rsb_index = 0;
  int src_prr = 0;
  int dst_prr = 1;
  std::string new_module_id;
  ChannelId upstream = 0;    ///< producer -> src consumer (to re-route)
  ChannelId downstream = 0;  ///< src producer -> consumer (to re-route)
  int eos_iom = 0;           ///< IOM that reports the EOS word (step 8)
  ReconfigSource source = ReconfigSource::kSdramArray;
};

class ModuleSwitcher final : public proc::SoftwareTask {
 public:
  ModuleSwitcher(VapresSystem& sys, SwitchRequest req);

  enum class State {
    kIdle,
    kReconfiguring,     // step 3
    kQuiesceUpstream,   // step 4 (flush in-flight words)
    kRerouteUpstream,   // step 4
    kSendFlush,         // step 5 trigger
    kCollectState,      // step 6
    kInitNewModule,     // step 7
    kWaitIomEos,        // step 8
    kQuiesceSrc,        // step 9 (flush)
    kRerouteDownstream, // step 9
    kDone,
    kAborted,           // PR of the spare failed; switch rolled back
  };

  /// Kicks off the protocol: registers this task with the MicroBlaze and
  /// starts the dst reconfiguration. The bitstream must be reachable for
  /// the chosen source (use VapresSystem::synthesize_to_cf /
  /// stage_to_sdram beforehand).
  void begin();

  bool step(proc::Microblaze& mb) override;
  std::string task_name() const override { return "module_switcher"; }

  State state() const { return state_; }
  bool done() const { return state_ == State::kDone; }
  /// The PR of the spare PRR failed permanently and the switch was rolled
  /// back: no channel moved, the source module keeps streaming.
  bool aborted() const { return state_ == State::kAborted; }
  /// Terminal either way (completed or rolled back).
  bool finished() const { return done() || aborted(); }

  /// MicroBlaze cycle stamps of protocol milestones (0 = not reached).
  struct Timeline {
    sim::Cycles started = 0;
    sim::Cycles reconfig_done = 0;
    sim::Cycles input_rerouted = 0;
    sim::Cycles state_collected = 0;
    sim::Cycles module_initialized = 0;
    sim::Cycles iom_eos_seen = 0;
    sim::Cycles completed = 0;
    sim::Cycles aborted = 0;  ///< rollback stamp (0 = never rolled back)
  };
  const Timeline& timeline() const { return timeline_; }

  /// State registers carried from the old module to the new one.
  const std::vector<comm::Word>& collected_state() const {
    return collected_state_;
  }
  /// Monitoring words received while waiting for the state frame.
  const std::vector<comm::Word>& skipped_monitoring() const {
    return monitoring_;
  }

  /// Channels after completion (the re-routed paths).
  ChannelId new_upstream() const { return new_upstream_; }
  ChannelId new_downstream() const { return new_downstream_; }

 private:
  // Warm restart journals the protocol state and rebuilds an equivalent
  // in-flight switcher on a fresh controller (snap/system_snapshot.cpp).
  friend class ::vapres::snap::SystemSnapshot;

  Rsb& rsb() { return sys_.rsb(req_.rsb_index); }
  void reroute(ChannelId old_channel, ChannelEndpoint new_producer,
               ChannelEndpoint new_consumer, ChannelId& out,
               proc::Microblaze& mb, bool enable_producer);

  /// Closes the current step span (feeding its MicroBlaze-cycle duration
  /// to the per-step registry histogram) and opens the next one. Each of
  /// the nine protocol states is one named span on this switcher's track
  /// (arg0 = destination PRR, arg1 = a step-specific count).
  void enter_step(std::uint16_t code, std::uint64_t arg1 = 0);
  void close_step();

  VapresSystem& sys_;
  SwitchRequest req_;
  State state_ = State::kIdle;
  Timeline timeline_;
  bool reconfig_complete_ = false;
  bool reconfig_ok_ = true;
  std::vector<comm::Word> collected_state_;
  std::vector<comm::Word> monitoring_;
  // state-frame parsing
  bool saw_header_ = false;
  int expected_words_ = -1;
  ChannelId new_upstream_ = 0;
  ChannelId new_downstream_ = 0;
  // observability: one span per protocol step, on a per-switcher track
  obs::Span step_span_;
  std::uint16_t step_code_ = 0;
  std::uint32_t obs_track_ = 0;
  sim::Cycles step_begin_cycle_ = 0;
};

}  // namespace vapres::core
