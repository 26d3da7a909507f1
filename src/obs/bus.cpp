#include "obs/bus.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "sim/check.hpp"

namespace vapres::obs {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

const char* subsystem_name(Subsystem s) {
  switch (s) {
    case Subsystem::kKernel: return "kernel";
    case Subsystem::kReconfig: return "reconfig";
    case Subsystem::kSwitch: return "switch";
    case Subsystem::kSched: return "sched";
    case Subsystem::kBitman: return "bitman";
    case Subsystem::kFault: return "fault";
    case Subsystem::kProc: return "proc";
    case Subsystem::kFleet: return "fleet";
    case Subsystem::kCount: break;
  }
  return "unknown";
}

const char* event_name(Subsystem s, std::uint16_t code) {
  if (code == 0) return "none";
  switch (s) {
    case Subsystem::kKernel:
      switch (code) {
        case ev::kDomainSleep: return "domain_sleep";
        case ev::kDomainWake: return "domain_wake";
      }
      break;
    case Subsystem::kReconfig:
      switch (code) {
        case ev::kCf2Icap: return "cf2icap";
        case ev::kArray2Icap: return "array2icap";
        case ev::kCfStream: return "cf2icap_streamed";
        case ev::kCf2Array: return "cf2array";
        case ev::kRetry: return "retry";
        case ev::kSourceFallback: return "source_fallback";
        case ev::kPermanentFailure: return "permanent_failure";
      }
      break;
    case Subsystem::kSwitch:
      switch (code) {
        case ev::kStep1Reconfigure: return "step1.reconfigure";
        case ev::kStep2QuiesceUpstream: return "step2.quiesce_upstream";
        case ev::kStep3RerouteUpstream: return "step3.reroute_upstream";
        case ev::kStep4SendFlush: return "step4.send_flush";
        case ev::kStep5CollectState: return "step5.collect_state";
        case ev::kStep6InitNewModule: return "step6.init_new_module";
        case ev::kStep7WaitIomEos: return "step7.wait_iom_eos";
        case ev::kStep8QuiesceSrc: return "step8.quiesce_src";
        case ev::kStep9RerouteDownstream: return "step9.reroute_downstream";
        case ev::kSwitchRollback: return "rollback";
      }
      break;
    case Subsystem::kSched:
      switch (code) {
        case ev::kSubmit: return "submit";
        case ev::kAdmission: return "admission";
        case ev::kLaunch: return "launch";
        case ev::kReject: return "reject";
        case ev::kPreempt: return "preempt";
        case ev::kMigrate: return "migrate";
        case ev::kStop: return "stop";
      }
      break;
    case Subsystem::kBitman:
      switch (code) {
        case ev::kHit: return "hit";
        case ev::kMiss: return "miss";
        case ev::kStage: return "stage";
        case ev::kEvict: return "evict";
        case ev::kInvalidate: return "invalidate";
        case ev::kPrefetchIssue: return "prefetch_issue";
        case ev::kPrefetchComplete: return "prefetch_complete";
      }
      break;
    case Subsystem::kFault:
      switch (code) {
        case ev::kInject: return "inject";
        case ev::kRecover: return "recover";
      }
      break;
    case Subsystem::kProc:
      switch (code) {
        case ev::kTaskScheduled: return "task_scheduled";
        case ev::kTaskDescheduled: return "task_descheduled";
      }
      break;
    case Subsystem::kFleet:
      switch (code) {
        case ev::kRoute: return "route";
        case ev::kFallback: return "fallback";
        case ev::kFleetMigrate: return "migrate";
        case ev::kQuotaReject: return "quota_reject";
        case ev::kQuotaPreempt: return "quota_preempt";
        case ev::kQuotaGrow: return "quota_grow";
        case ev::kQuotaShrink: return "quota_shrink";
        case ev::kAgentRestart: return "agent_restart";
        case ev::kReconcile: return "reconcile";
        case ev::kHealthBreach: return "health_breach";
        case ev::kHealthClear: return "health_clear";
        case ev::kHealthIsolate: return "health_isolate";
        case ev::kFlightRecord: return "flight_record";
      }
      break;
    case Subsystem::kCount:
      break;
  }
  return "event?";
}

EventBus::EventBus() {
  tracks_.push_back("main");
  track_ids_["main"] = 0;
}

EventBus& EventBus::instance() {
  static EventBus bus;
  return bus;
}

void EventBus::enable(std::uint32_t subsystem_mask, std::size_t capacity) {
  VAPRES_REQUIRE(capacity >= 2, "event ring needs at least 2 slots");
  mask_ = subsystem_mask;
  capacity_ = round_up_pow2(capacity);
  if (ring_.size() != capacity_) ring_.assign(capacity_, Event{});
  head_ = 0;
}

std::uint32_t EventBus::track(const std::string& name) {
  const auto it = track_ids_.find(name);
  if (it != track_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(tracks_.size());
  tracks_.push_back(name);
  track_ids_[name] = id;
  return id;
}

std::size_t EventBus::size() const {
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(head_, capacity_));
}

std::uint64_t EventBus::dropped() const {
  return head_ > capacity_ ? head_ - capacity_ : 0;
}

std::vector<Event> EventBus::snapshot() const {
  std::vector<Event> out;
  const std::size_t n = size();
  out.reserve(n);
  const std::uint64_t first = head_ - n;
  for (std::uint64_t i = first; i < head_; ++i) {
    out.push_back(ring_[static_cast<std::size_t>(i) & (ring_.size() - 1)]);
  }
  return out;
}

void EventBus::clear() { head_ = 0; }

void EventBus::publish_gauges() const {
  Registry& reg = Registry::instance();
  reg.gauge("obs.bus.dropped").set(static_cast<std::int64_t>(dropped()));
  reg.gauge("obs.bus.retained").set(static_cast<std::int64_t>(size()));
  reg.gauge("obs.bus.capacity").set(static_cast<std::int64_t>(capacity()));
  reg.gauge("obs.bus.total_emitted").set(
      static_cast<std::int64_t>(total_emitted()));
}

Span Span::begin(Subsystem s, std::uint16_t code, std::uint32_t track,
                 sim::Picoseconds now, std::uint64_t arg0,
                 std::uint64_t arg1) {
  Span span;
  span.subsystem_ = s;
  span.code_ = code;
  span.track_ = track;
  span.begin_ps_ = now;
  span.open_ = true;
  EventBus::instance().begin_span(s, code, track, now, arg0, arg1);
  return span;
}

sim::Picoseconds Span::end(sim::Picoseconds now, Histogram* hist,
                           std::int64_t cycles) {
  if (!open_) return 0;
  open_ = false;
  const sim::Picoseconds duration = now - begin_ps_;
  EventBus::instance().end_span(subsystem_, code_, track_, now,
                                static_cast<std::uint64_t>(duration));
  if (hist != nullptr) {
    hist->record(cycles >= 0 ? static_cast<std::uint64_t>(cycles)
                             : static_cast<std::uint64_t>(duration));
  }
  return duration;
}

}  // namespace vapres::obs
