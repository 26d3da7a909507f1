#include "sim/fault.hpp"

#include <algorithm>
#include <sstream>

#include "obs/bus.hpp"
#include "sim/check.hpp"
#include "sim/component.hpp"

namespace vapres::sim {

FaultInjector FaultInjector::instance_;

const char* fault_site_name(FaultSite site) {
  switch (site) {
    case FaultSite::kIcapBitstreamCorruption:
      return "icap_bitstream_corruption";
    case FaultSite::kIcapTransferTimeout:
      return "icap_transfer_timeout";
    case FaultSite::kFifoDropWord:
      return "fifo_drop_word";
    case FaultSite::kFifoDuplicateWord:
      return "fifo_duplicate_word";
    case FaultSite::kSwitchBoxStuckPort:
      return "switch_box_stuck_port";
    case FaultSite::kConfigFrameUpset:
      return "config_frame_upset";
  }
  return "<unknown>";
}

const char* recovery_event_name(RecoveryEvent event) {
  switch (event) {
    case RecoveryEvent::kIcapRetry:
      return "icap_retry";
    case RecoveryEvent::kSourceFallback:
      return "source_fallback";
    case RecoveryEvent::kSwitchRollback:
      return "switch_rollback";
    case RecoveryEvent::kScrubRepair:
      return "scrub_repair";
  }
  return "<unknown>";
}

namespace {

std::size_t site_index(FaultSite site) {
  const int i = static_cast<int>(site);
  VAPRES_REQUIRE(i >= 0 && i < kNumFaultSites, "fault site out of range");
  return static_cast<std::size_t>(i);
}

std::size_t event_index(RecoveryEvent event) {
  const int i = static_cast<int>(event);
  VAPRES_REQUIRE(i >= 0 && i < kNumRecoveryEvents,
                 "recovery event out of range");
  return static_cast<std::size_t>(i);
}

}  // namespace

void FaultInjector::enable(std::uint64_t seed) {
  rng_ = SplitMix64(seed);
  sites_.fill(SitePlan{});
  recoveries_.fill(0);
  enabled_ = true;
  wake_commit_sites();
}

void FaultInjector::add_commit_site(Clocked* site) {
  VAPRES_REQUIRE(site != nullptr, "null per-commit fault site");
  commit_sites_.push_back(site);
}

void FaultInjector::remove_commit_site(Clocked* site) {
  commit_sites_.erase(
      std::remove(commit_sites_.begin(), commit_sites_.end(), site),
      commit_sites_.end());
}

void FaultInjector::wake_commit_sites() {
  for (Clocked* c : commit_sites_) c->wake();
}

void FaultInjector::set_probability(FaultSite site, double p) {
  VAPRES_REQUIRE(p >= 0.0 && p <= 1.0, "fault probability must be in [0,1]");
  sites_[site_index(site)].probability = p;
}

void FaultInjector::arm(FaultSite site, std::uint64_t nth,
                        std::uint64_t count) {
  SitePlan& s = sites_[site_index(site)];
  s.armed_at = nth;
  s.armed_count = count;
}

bool FaultInjector::should_fire(FaultSite site) {
  if (!enabled_) return false;
  SitePlan& s = sites_[site_index(site)];
  const std::uint64_t opp = s.opportunities++;
  bool fire = false;
  if (s.armed_count > 0 && opp >= s.armed_at &&
      opp - s.armed_at < s.armed_count) {
    fire = true;
  } else if (s.probability > 0.0 && rng_.chance(s.probability)) {
    fire = true;
  }
  if (fire) {
    ++s.injected;
    obs::EventBus::instance().instant(
        obs::Subsystem::kFault, obs::ev::kInject, /*track=*/0, now(),
        static_cast<std::uint64_t>(site), s.injected);
  }
  return fire;
}

void FaultInjector::note_recovery(RecoveryEvent event, std::uint32_t track,
                                  std::uint64_t detail) {
  ++recoveries_[event_index(event)];
  obs::EventBus::instance().instant(obs::Subsystem::kFault, obs::ev::kRecover,
                                    track, now(),
                                    static_cast<std::uint64_t>(event), detail);
}

std::uint64_t FaultInjector::injected(FaultSite site) const {
  return sites_[site_index(site)].injected;
}

std::uint64_t FaultInjector::opportunities(FaultSite site) const {
  return sites_[site_index(site)].opportunities;
}

std::uint64_t FaultInjector::total_injected() const {
  std::uint64_t n = 0;
  for (const SitePlan& s : sites_) n += s.injected;
  return n;
}

std::uint64_t FaultInjector::recoveries(RecoveryEvent event) const {
  return recoveries_[event_index(event)];
}

std::uint64_t FaultInjector::total_recoveries() const {
  std::uint64_t n = 0;
  for (std::uint64_t r : recoveries_) n += r;
  return n;
}

std::string FaultInjector::report() const {
  std::ostringstream os;
  os << "faults injected: " << total_injected() << "\n";
  for (int i = 0; i < kNumFaultSites; ++i) {
    const SitePlan& s = sites_[static_cast<std::size_t>(i)];
    if (s.injected == 0) continue;
    os << "  " << fault_site_name(static_cast<FaultSite>(i)) << ": "
       << s.injected << " (of " << s.opportunities << " opportunities)\n";
  }
  os << "recoveries: " << total_recoveries() << "\n";
  for (int i = 0; i < kNumRecoveryEvents; ++i) {
    if (recoveries_[static_cast<std::size_t>(i)] == 0) continue;
    os << "  " << recovery_event_name(static_cast<RecoveryEvent>(i)) << ": "
       << recoveries_[static_cast<std::size_t>(i)] << "\n";
  }
  return os.str();
}

}  // namespace vapres::sim
