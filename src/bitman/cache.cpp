#include "bitman/cache.hpp"

#include "bitman/prefetch.hpp"
#include "bitstream/bitgen.hpp"
#include "bitstream/calibration.hpp"
#include "obs/bus.hpp"
#include "obs/metrics.hpp"
#include "sim/check.hpp"

namespace vapres::bitman {

namespace {

/// Cache decisions share one trace lane; stagings serialize on the
/// transfer path, so stage spans never overlap within it.
std::uint32_t bitman_track() {
  return obs::EventBus::instance().track("bitman");
}

}  // namespace

BitstreamManager::BitstreamManager(core::ReconfigManager& reconfig,
                                   bitstream::CompactFlash& cf,
                                   bitstream::Sdram& sdram)
    : reconfig_(reconfig), cf_(cf), sdram_(sdram) {}

std::string BitstreamManager::key_for(const std::string& module_id,
                                      const std::string& prr_name) {
  return module_id + "@" + prr_name;
}

std::string BitstreamManager::install(const bitstream::PartialBitstream& bs) {
  VAPRES_REQUIRE(bs.valid(), "refusing to install corrupt bitstream");
  const std::string filename =
      bitstream::bitstream_filename(bs.module_id, bs.target_prr);
  if (!cf_.contains(filename)) cf_.store(filename, bs);
  return filename;
}

bool BitstreamManager::installed(const std::string& module_id,
                                 const std::string& prr_name) const {
  return cf_.contains(bitstream::bitstream_filename(module_id, prr_name));
}

bool BitstreamManager::resident(const std::string& key) const {
  return entries_.count(key) > 0;
}

bool BitstreamManager::pinned(const std::string& key) const {
  auto it = entries_.find(key);
  return it != entries_.end() && it->second.pins > 0;
}

void BitstreamManager::ensure_capacity(std::int64_t bytes,
                                       const std::string& for_key) {
  // In-flight stagings already hold their reservation; their SDRAM store
  // only happens at completion, so free_bytes() alone over-promises.
  while (sdram_.free_bytes() - reserved_bytes_ < bytes) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.pins > 0) continue;
      if (victim == entries_.end() ||
          it->second.last_use < victim->second.last_use) {
        victim = it;
      }
    }
    VAPRES_REQUIRE(
        victim != entries_.end(),
        "bitstream cache cannot free " + std::to_string(bytes) +
            " bytes for " + for_key + ": every resident array is pinned (" +
            std::to_string(sdram_.free_bytes() - reserved_bytes_) +
            " unreserved bytes free of " +
            std::to_string(sdram_.capacity_bytes()) + ")");
    const std::int64_t sz = sdram_.read(victim->first).size_bytes;
    sdram_.erase(victim->first);
    entries_.erase(victim);
    ++stats_.evictions;
    stats_.evicted_bytes += sz;
    obs::EventBus::instance().instant(
        obs::Subsystem::kBitman, obs::ev::kEvict, bitman_track(),
        reconfig_.now(), static_cast<std::uint64_t>(sz), stats_.evictions);
    obs::Registry::instance().counter("bitman.evictions").add();
  }
}

std::string BitstreamManager::preload(const bitstream::PartialBitstream& bs) {
  install(bs);
  const std::string key = key_for(bs.module_id, bs.target_prr);
  if (resident(key)) {
    sdram_.replace(key, bs);
  } else {
    ensure_capacity(bs.size_bytes, key);
    sdram_.store(key, bs);
  }
  touch(entries_[key]);
  return key;
}

bool BitstreamManager::invalidate(const std::string& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  if (it->second.pins > 0) return false;  // in-flight transfer reads it
  sdram_.erase(key);
  entries_.erase(it);
  ++stats_.invalidations;
  obs::EventBus::instance().instant(
      obs::Subsystem::kBitman, obs::ev::kInvalidate, bitman_track(),
      reconfig_.now(), stats_.invalidations);
  return true;
}

sim::Cycles BitstreamManager::stage(const std::string& module_id,
                                    const std::string& prr_name,
                                    core::ReconfigManager::DoneCallback on_done,
                                    bool from_prefetch) {
  VAPRES_REQUIRE(!reconfig_.busy(),
                 "bitstream transfer path busy; drain before staging");
  const std::string filename =
      bitstream::bitstream_filename(module_id, prr_name);
  VAPRES_REQUIRE(cf_.contains(filename),
                 "bitstream not installed: " + module_id + "@" + prr_name);
  const std::string key = key_for(module_id, prr_name);
  const std::int64_t bytes = cf_.read(filename).size_bytes;
  // Restaging overwrites in place, so only fresh keys need new space.
  const bool restage = resident(key);
  if (!restage) {
    ensure_capacity(bytes, key);
    reserved_bytes_ += bytes;
  }
  staging_.insert(key);
  if (from_prefetch) {
    ++stats_.prefetch_issued;
    obs::EventBus::instance().instant(
        obs::Subsystem::kBitman, obs::ev::kPrefetchIssue, bitman_track(),
        reconfig_.now(), static_cast<std::uint64_t>(bytes));
  }
  obs::Span stage_span = obs::Span::begin(
      obs::Subsystem::kBitman, obs::ev::kStage, bitman_track(),
      reconfig_.now(), static_cast<std::uint64_t>(bytes));
  const sim::Cycles stage_t0 = reconfig_.mb_cycle();
  return reconfig_.cf2array(
      filename, key,
      [this, key, bytes, restage, from_prefetch, stage_span, stage_t0,
       on_done = std::move(on_done)](const core::ReconfigOutcome& outcome)
          mutable {
        staging_.erase(key);
        if (!restage) reserved_bytes_ -= bytes;
        Entry& e = entries_[key];
        touch(e);
        e.prefetched = from_prefetch;
        e.demand_hit_seen = false;
        ++stats_.staged;
        if (restage) ++stats_.replaced;
        stage_span.end(
            reconfig_.now(),
            &obs::Registry::instance().histogram("bitman.stage.cycles"),
            static_cast<std::int64_t>(reconfig_.mb_cycle() - stage_t0));
        if (from_prefetch) {
          ++stats_.prefetch_completed;
          obs::EventBus::instance().instant(
              obs::Subsystem::kBitman, obs::ev::kPrefetchComplete,
              bitman_track(), reconfig_.now(),
              static_cast<std::uint64_t>(bytes));
        }
        if (on_done) on_done(outcome);
      });
}

sim::Cycles BitstreamManager::reconfigure(
    const std::string& module_id, const std::string& prr_name,
    core::ReconfigManager::DoneCallback on_done) {
  VAPRES_REQUIRE(!reconfig_.busy(),
                 "bitstream transfer path busy; drain before reconfiguring");
  const std::string key = key_for(module_id, prr_name);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Warm hit: fast array path, entry pinned for the transfer.
    Entry& e = it->second;
    ++stats_.hits;
    obs::EventBus::instance().instant(
        obs::Subsystem::kBitman, obs::ev::kHit, bitman_track(),
        reconfig_.now(), stats_.hits);
    obs::Registry::instance().counter("bitman.hits").add();
    if (e.prefetched && !e.demand_hit_seen) ++stats_.prefetch_useful;
    e.demand_hit_seen = true;
    touch(e);
    ++e.pins;
    return reconfig_.array2icap(
        key, [this, key, module_id, prr_name,
              on_done = std::move(on_done)](const core::ReconfigOutcome& o) {
          auto eit = entries_.find(key);
          if (eit != entries_.end() && eit->second.pins > 0) {
            --eit->second.pins;
          }
          if (o.fallbacks > 0) {
            // The retry machinery burned through the SDRAM source and
            // rescued the transfer from the pristine CF file: the array
            // is poisoned. Drop it and queue a fresh restage.
            invalidate(key);
            request_restage(module_id, prr_name);
          }
          if (o.ok()) note_loaded(prr_name, module_id);
          if (on_done) on_done(o);
        });
  }

  // Cold miss: pipelined CF->ICAP streaming, plus a restage so the next
  // request for this pair is warm.
  ++stats_.misses;
  ++stats_.streamed_misses;
  obs::EventBus::instance().instant(
      obs::Subsystem::kBitman, obs::ev::kMiss, bitman_track(),
      reconfig_.now(), stats_.misses);
  obs::Registry::instance().counter("bitman.misses").add();
  const std::string filename =
      bitstream::bitstream_filename(module_id, prr_name);
  VAPRES_REQUIRE(cf_.contains(filename),
                 "bitstream neither resident nor installed: " + key);
  request_restage(module_id, prr_name);
  return reconfig_.cf2icap_streamed(
      filename, bitstream::Calibration::kStreamChunkBytes,
      [this, module_id, prr_name,
       on_done = std::move(on_done)](const core::ReconfigOutcome& o) {
        if (o.ok()) note_loaded(prr_name, module_id);
        if (on_done) on_done(o);
      });
}

std::string BitstreamManager::predicted_next(
    const std::string& prr_name, const std::string& module_id) const {
  auto prr_it = next_after_.find(prr_name);
  if (prr_it == next_after_.end()) return "";
  auto it = prr_it->second.find(module_id);
  return it == prr_it->second.end() ? "" : it->second;
}

void BitstreamManager::note_loaded(const std::string& prr_name,
                                   const std::string& module_id) {
  auto last_it = last_module_.find(prr_name);
  if (last_it != last_module_.end() && last_it->second != module_id) {
    next_after_[prr_name][last_it->second] = module_id;
  }
  last_module_[prr_name] = module_id;
  if (prefetch_ == nullptr) return;
  const std::string next = predicted_next(prr_name, module_id);
  if (!next.empty()) prefetch_->hint(next, prr_name);
}

void BitstreamManager::request_restage(const std::string& module_id,
                                       const std::string& prr_name) {
  if (prefetch_ != nullptr) prefetch_->hint(module_id, prr_name);
}

}  // namespace vapres::bitman
