// Structured-event taxonomy for the observability layer.
//
// Every record the obs::EventBus carries is typed: a subsystem id, an
// event kind (instant / span begin / span end / counter sample), a
// subsystem-local event code, a track id (one track per clock domain,
// PRR, or software task — docs/OBSERVABILITY.md), and two u64 arguments.
// No strings travel on the hot path; names are resolved from the static
// tables below only at export time.
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace vapres::obs {

/// Emitting subsystems. Each has a bit in the EventBus enable mask.
enum class Subsystem : unsigned {
  kKernel = 0,   ///< simulation kernel: domain sleep/wake
  kReconfig = 1, ///< ReconfigManager transfer paths
  kSwitch = 2,   ///< ModuleSwitcher 9-step protocol
  kSched = 3,    ///< ApplicationScheduler admission/placement/launch
  kBitman = 4,   ///< BitstreamManager cache + prefetch
  kFault = 5,    ///< FaultInjector inject/recover
  kProc = 6,     ///< MicroBlaze software-task scheduling
  kFleet = 7,    ///< fleet control-plane routing/migration/quota decisions
  kCount = 8,
};

const char* subsystem_name(Subsystem s);

enum class EventKind : std::uint8_t {
  kInstant = 0,  ///< a point event
  kBegin = 1,    ///< opens a duration span on its track
  kEnd = 2,      ///< closes the innermost open span on its track
  kCounter = 3,  ///< a sampled counter value (arg0 = value)
};

/// One trace record. 32 bytes, trivially copyable; the ring buffer
/// stores these by value.
struct Event {
  sim::Picoseconds time_ps = 0;
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
  std::uint32_t track = 0;  ///< EventBus::track() id (0 = "main")
  std::uint16_t code = 0;   ///< subsystem-local; named via event_name()
  Subsystem subsystem = Subsystem::kKernel;
  EventKind kind = EventKind::kInstant;
};

// ---- Subsystem-local event codes ---------------------------------------
// Code 0 is reserved ("none") in every subsystem so a cleared VCD track
// reads as idle.

namespace ev {

// kKernel
enum : std::uint16_t {
  kDomainSleep = 1,  ///< every component of the domain went quiescent
  kDomainWake = 2,   ///< a sleeping domain re-armed
};

// kReconfig (span codes per transfer path; instants for recovery)
enum : std::uint16_t {
  kCf2Icap = 1,
  kArray2Icap = 2,
  kCfStream = 3,
  kCf2Array = 4,
  kRetry = 5,            ///< instant: attempt repeated after backoff
                         ///< (arg0 = attempt, arg1 = backoff cycles)
  kSourceFallback = 6,   ///< instant: SDRAM source abandoned for CF
                         ///< (arg0 = attempts spent on it)
  kPermanentFailure = 7, ///< instant: transfer gave up (arg0 = attempts)
};

// kSwitch: the nine protocol steps of Figure 5, each a span. The paper
// circles the reconfigure/reroute numbers 3..9; the model's nine states
// split 4 and 9 into their quiesce + reroute halves.
enum : std::uint16_t {
  kStep1Reconfigure = 1,       // (3) PR of the spare PRR
  kStep2QuiesceUpstream = 2,   // (4) drain in-flight upstream words
  kStep3RerouteUpstream = 3,   // (4) input re-routed to the new module
  kStep4SendFlush = 4,         // (5) CMD_FLUSH to the old module
  kStep5CollectState = 5,      // (6) state frame over the r-link
  kStep6InitNewModule = 6,     // (7) LOAD_STATE + reset release
  kStep7WaitIomEos = 7,        // (8) EOS word reaches the IOM sink
  kStep8QuiesceSrc = 8,        // (9) drain the old module's producer
  kStep9RerouteDownstream = 9, // (9) output re-routed; switch complete
  kSwitchRollback = 10,        ///< instant: PR failed, switch rolled back
};
inline constexpr int kNumSwitchSteps = 9;

// kSched
enum : std::uint16_t {
  kSubmit = 1,    ///< instant: request queued (arg0 = app id)
  kAdmission = 2, ///< span: one try_admit walk (arg0 = app id)
  kLaunch = 3,    ///< instant: app running (arg0 = app id)
  kReject = 4,    ///< instant: admission failed (arg0 = app id)
  kPreempt = 5,   ///< instant: victim evicted (arg0 = victim app id)
  kMigrate = 6,   ///< span: one live defrag relocation
  kStop = 7,      ///< instant: app stopped (arg0 = app id)
};

// kBitman
enum : std::uint16_t {
  kHit = 1,      ///< instant: demand reconfiguration served warm
  kMiss = 2,     ///< instant: demand reconfiguration served cold
  kStage = 3,    ///< span: cf2array staging (arg0 = bytes)
  kEvict = 4,    ///< instant: LRU eviction (arg0 = bytes)
  kInvalidate = 5,
  kPrefetchIssue = 6,
  kPrefetchComplete = 7,
};

// kFault
enum : std::uint16_t {
  kInject = 1,   ///< instant: a fault fired (arg0 = FaultSite)
  kRecover = 2,  ///< instant: a recovery was reported (arg0 =
                 ///< RecoveryEvent, arg1 = stuck output port of a
                 ///< scrubbed mux; on the repaired PRR's or box's track)
};

// kProc
enum : std::uint16_t {
  kTaskScheduled = 1,   ///< instant: software task added
  kTaskDescheduled = 2, ///< instant: software task removed
};

// kFleet
enum : std::uint16_t {
  kRoute = 1,         ///< span: one routed submission (arg0 = fleet app id)
  kFallback = 2,      ///< instant: fabric rejected, trying next (arg0 = fabric)
  kFleetMigrate = 3,  ///< span: cross-fabric move (arg0 = fleet app id)
  kQuotaReject = 4,   ///< instant: governor refused admission
  kQuotaPreempt = 5,  ///< instant: over-quota app evicted for a starved tenant
  kQuotaGrow = 6,     ///< instant: tenant budget grew (arg1 = new budget)
  kQuotaShrink = 7,   ///< instant: tenant budget shrank (arg1 = new budget)
  kAgentRestart = 8,  ///< instant: control-plane agent restarted
                      ///< (arg0 = AgentId, arg1 = journal version)
  kReconcile = 9,     ///< instant: table-vs-scheduler reconcile sweep
                      ///< (arg0 = checks, arg1 = violations)
  kHealthBreach = 10,  ///< instant: an SLO rule tripped (arg0 = rule id,
                       ///< arg1 = evaluated value)
  kHealthClear = 11,   ///< instant: a breached rule cleared (arg0 = rule id)
  kHealthIsolate = 12, ///< instant: fabric isolation toggled
                       ///< (arg0 = fabric, arg1 = 1 isolate / 0 restore)
  kFlightRecord = 13,  ///< instant: flight-recorder bundle written
                       ///< (arg0 = bundle seq)
};

}  // namespace ev

/// Human-readable name for (subsystem, code); "none" for code 0 and
/// "event<N>" for unknown codes (a forward-compatible exporter never
/// fails on an unnamed event).
const char* event_name(Subsystem s, std::uint16_t code);

}  // namespace vapres::obs
