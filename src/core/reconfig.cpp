#include "core/reconfig.hpp"

#include <cmath>

#include "bitstream/bitgen.hpp"
#include "bitstream/calibration.hpp"
#include "obs/metrics.hpp"
#include "sim/check.hpp"
#include "sim/fault.hpp"

namespace vapres::core {

using bitstream::Calibration;

ReconfigManager::ReconfigManager(sim::Simulator& sim, proc::Microblaze& mb,
                                 fabric::IcapPort& icap,
                                 bitstream::CompactFlash& cf,
                                 bitstream::Sdram& sdram)
    : sim_(sim), mb_(mb), icap_(icap), cf_(cf), sdram_(sdram) {}

void ReconfigManager::register_target(
    const std::string& prr_name,
    std::function<void(const bitstream::PartialBitstream&)> apply) {
  VAPRES_REQUIRE(apply != nullptr, "null configuration target");
  VAPRES_REQUIRE(targets_.count(prr_name) == 0,
                 "target already registered: " + prr_name);
  targets_[prr_name] = std::move(apply);
}

void ReconfigManager::set_retry_policy(const RetryPolicy& policy) {
  VAPRES_REQUIRE(policy.max_attempts >= 1,
                 "retry policy needs at least one attempt");
  policy_ = policy;
}

ReconfigBreakdown ReconfigManager::estimate_cf2icap(std::int64_t bytes) {
  ReconfigBreakdown b;
  b.storage_cycles = bitstream::CompactFlash::read_cycles(bytes);
  b.icap_cycles =
      static_cast<double>(bytes) * Calibration::kIcapWriteCyclesPerByte;
  return b;
}

ReconfigBreakdown ReconfigManager::estimate_array2icap(std::int64_t bytes) {
  ReconfigBreakdown b;
  b.storage_cycles = bitstream::Sdram::read_cycles(bytes);
  b.icap_cycles =
      static_cast<double>(bytes) * Calibration::kIcapWriteCyclesPerByte;
  return b;
}

double ReconfigManager::estimate_cf2array_cycles(std::int64_t bytes) {
  return bitstream::CompactFlash::read_cycles(bytes) +
         bitstream::Sdram::write_cycles(bytes);
}

ReconfigBreakdown ReconfigManager::estimate_cf2icap_streamed(
    std::int64_t bytes, std::int64_t chunk_bytes) {
  VAPRES_REQUIRE(chunk_bytes > 0, "stream chunk size must be positive");
  const std::int64_t chunks = (bytes + chunk_bytes - 1) / chunk_bytes;
  const std::int64_t tail =
      bytes == 0 ? 0 : bytes - (chunks - 1) * chunk_bytes;
  ReconfigBreakdown b;
  b.storage_cycles =
      bitstream::CompactFlash::read_cycles(bytes) +
      static_cast<double>(chunks) * Calibration::kStreamChunkOverheadCycles;
  b.icap_cycles =
      static_cast<double>(tail) * Calibration::kIcapWriteCyclesPerByte;
  return b;
}

sim::Cycles ReconfigManager::start(const bitstream::PartialBitstream& bs,
                                   const ReconfigBreakdown& base_cost,
                                   bool sdram_source,
                                   std::uint16_t path_code,
                                   DoneCallback on_done) {
  VAPRES_REQUIRE(!busy_, "reconfiguration already in flight");
  auto target_it = targets_.find(bs.target_prr);
  VAPRES_REQUIRE(target_it != targets_.end(),
                 "no configuration target registered for " + bs.target_prr);

  ReconfigBreakdown cost = base_cost;
  if (verify_) cost.icap_cycles *= 2.0;  // readback + compare pass

  busy_ = true;
  last_ = cost;
  inflight_ = std::make_unique<Inflight>();
  // Copy the bitstream: storage contents may change while in flight.
  inflight_->bs = bs;
  inflight_->cost = cost;
  inflight_->apply = target_it->second;
  inflight_->on_done = std::move(on_done);
  inflight_->outcome.attempts = 0;  // counted per launch_attempt()
  inflight_->path_code = path_code;
  inflight_->started_cycle = mb_.cycle();
  // All timed paths serialize on the ICAP port: one "icap" track.
  inflight_->span = obs::Span::begin(
      obs::Subsystem::kReconfig, path_code,
      obs::EventBus::instance().track("icap"), sim_.now(),
      static_cast<std::uint64_t>(bs.size_bytes));
  if (sdram_source) {
    // The pristine file the SDRAM array was staged from, if it exists.
    const std::string filename =
        bitstream::bitstream_filename(bs.module_id, bs.target_prr);
    if (cf_.contains(filename)) inflight_->cf_fallback = filename;
  }
  return launch_attempt();
}

sim::Cycles ReconfigManager::launch_attempt() {
  Inflight& fl = *inflight_;
  ++fl.attempts_this_source;
  ++fl.outcome.attempts;
  const auto cycles =
      static_cast<sim::Cycles>(std::llround(fl.cost.total_cycles()));
  icap_.begin_transfer(fl.bs.size_bytes);
  mb_.busy_for(cycles, [this] { complete_attempt(); });
  return cycles;
}

void ReconfigManager::complete_attempt() {
  Inflight& fl = *inflight_;
  const fabric::IcapTransferResult result = icap_.end_transfer();
  if (result.ok() && fl.bs.valid()) {
    finish(/*success=*/true);
    return;
  }

  auto& faults = sim::FaultInjector::instance();
  if (fl.attempts_this_source < policy_.max_attempts) {
    // Bounded retry with exponential backoff.
    ++retries_;
    faults.note_recovery(sim::RecoveryEvent::kIcapRetry);
    const sim::Cycles backoff =
        policy_.backoff_base_cycles
        << static_cast<unsigned>(fl.attempts_this_source - 1);
    obs::EventBus::instance().instant(
        obs::Subsystem::kReconfig, obs::ev::kRetry,
        obs::EventBus::instance().track("icap"), sim_.now(),
        static_cast<std::uint64_t>(fl.attempts_this_source), backoff);
    mb_.busy_for(backoff, [this] { launch_attempt(); });
    return;
  }

  if (!fl.on_fallback_source && policy_.fallback_to_cf &&
      !fl.cf_fallback.empty()) {
    // Source fallback: abandon the SDRAM array, re-read the pristine
    // CompactFlash file (the slow path — but a working one).
    ++fallbacks_;
    faults.note_recovery(sim::RecoveryEvent::kSourceFallback);
    fl.on_fallback_source = true;
    fl.attempts_this_source = 0;
    ++fl.outcome.fallbacks;
    fl.bs = cf_.read(fl.cf_fallback);
    fl.cost = estimate_cf2icap(fl.bs.size_bytes);
    if (verify_) fl.cost.icap_cycles *= 2.0;
    last_ = fl.cost;
    obs::EventBus::instance().instant(
        obs::Subsystem::kReconfig, obs::ev::kSourceFallback,
        obs::EventBus::instance().track("icap"), sim_.now(),
        static_cast<std::uint64_t>(policy_.max_attempts));
    const sim::Cycles backoff = policy_.backoff_base_cycles;
    mb_.busy_for(backoff, [this] { launch_attempt(); });
    return;
  }

  obs::EventBus::instance().instant(
      obs::Subsystem::kReconfig, obs::ev::kPermanentFailure,
      obs::EventBus::instance().track("icap"), sim_.now(),
      static_cast<std::uint64_t>(fl.outcome.attempts));
  finish(/*success=*/false);
}

void ReconfigManager::finish(bool success) {
  // Detach the context first: the callbacks may start a new
  // reconfiguration re-entrantly.
  std::unique_ptr<Inflight> fl = std::move(inflight_);
  busy_ = false;
  fl->outcome.success = success;
  obs::Histogram& hist = obs::Registry::instance().histogram(
      std::string("reconfig.") +
      obs::event_name(obs::Subsystem::kReconfig, fl->path_code) +
      ".cycles");
  fl->span.end(sim_.now(), &hist,
               static_cast<std::int64_t>(mb_.cycle() - fl->started_cycle));
  if (success) {
    ++completed_;
    fl->apply(fl->bs);
  } else {
    ++failures_;
  }
  if (fl->on_done) fl->on_done(fl->outcome);
}

sim::Cycles ReconfigManager::cf2icap(const std::string& filename,
                                     DoneCallback on_done) {
  const auto& bs = cf_.read(filename);
  return start(bs, estimate_cf2icap(bs.size_bytes), /*sdram_source=*/false,
               obs::ev::kCf2Icap, std::move(on_done));
}

sim::Cycles ReconfigManager::cf2icap_streamed(const std::string& filename,
                                              std::int64_t chunk_bytes,
                                              DoneCallback on_done) {
  const auto& bs = cf_.read(filename);
  return start(bs, estimate_cf2icap_streamed(bs.size_bytes, chunk_bytes),
               /*sdram_source=*/false, obs::ev::kCfStream,
               std::move(on_done));
}

sim::Cycles ReconfigManager::array2icap(const std::string& key,
                                        DoneCallback on_done) {
  const auto& bs = sdram_.read(key);
  return start(bs, estimate_array2icap(bs.size_bytes),
               /*sdram_source=*/true, obs::ev::kArray2Icap,
               std::move(on_done));
}

sim::Cycles ReconfigManager::cf2array(const std::string& filename,
                                      const std::string& key,
                                      DoneCallback on_done) {
  VAPRES_REQUIRE(!busy_, "reconfiguration path busy");
  const auto& bs = cf_.read(filename);
  const auto cycles = static_cast<sim::Cycles>(
      std::llround(estimate_cf2array_cycles(bs.size_bytes)));
  busy_ = true;
  auto span = obs::Span::begin(obs::Subsystem::kReconfig,
                               obs::ev::kCf2Array,
                               obs::EventBus::instance().track("icap"),
                               sim_.now(),
                               static_cast<std::uint64_t>(bs.size_bytes));
  const sim::Cycles started_cycle = mb_.cycle();
  auto bs_copy = bs;
  mb_.busy_for(cycles, [this, key, span, started_cycle,
                        bs_copy = std::move(bs_copy),
                        on_done = std::move(on_done)]() mutable {
    busy_ = false;
    span.end(sim_.now(),
             &obs::Registry::instance().histogram("reconfig.cf2array.cycles"),
             static_cast<std::int64_t>(mb_.cycle() - started_cycle));
    sdram_.replace(key, bs_copy);
    if (on_done) on_done(ReconfigOutcome{});
  });
  return cycles;
}

}  // namespace vapres::core
