// Bitstream management subsystem ("bitman"): SDRAM residency as a cache.
//
// The paper pre-stages partial bitstreams in SDRAM at startup
// (vapres_cf2array) because the CF->ICAP path is ~14.5x slower than the
// SDRAM->ICAP path (Section V.B). That breaks down once the working set
// of partial bitstreams outgrows the finite SDRAM. The BitstreamManager
// turns residency into an LRU cache in front of CompactFlash:
//
//   * a demand reconfiguration resolves through the cache — a warm hit
//     runs the fast array2icap driver with the entry pinned against
//     eviction for the duration of the transfer; a cold miss falls
//     through to the double-buffered chunked CF->ICAP streaming driver
//     (ReconfigManager::cf2icap_streamed) and queues a
//     background restage so the next request is warm;
//   * staging a new array evicts cold arrays LRU-first (pinned and
//     in-flight entries are never eviction victims) and replaces stale
//     arrays in place on restage;
//   * a per-PRR next-module predictor (last observed switch transition)
//     feeds the PrefetchEngine, which stages likely-next bitstreams in
//     otherwise-idle MicroBlaze time while streams keep flowing;
//   * fault integration: a transfer that exhausted its SDRAM-source
//     retry budget and fell back to the pristine CompactFlash file
//     (ReconfigOutcome::fallbacks > 0) had a poisoned array — it is
//     invalidated and queued for restage (docs/FAULTS.md).
//
// Counters surface through core::SystemStats; design and bench notes in
// docs/BITSTREAMS.md.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>

#include "bitstream/storage.hpp"
#include "core/reconfig.hpp"

namespace vapres::snap {
class SystemSnapshot;
}

namespace vapres::bitman {

class PrefetchEngine;

/// Cache and prefetch counters (lifetime totals).
struct BitmanStats {
  std::uint64_t hits = 0;    ///< demand reconfigurations served warm
  std::uint64_t misses = 0;  ///< demand reconfigurations served cold
  std::uint64_t streamed_misses = 0;  ///< misses served via cf2icap_streamed
  std::uint64_t evictions = 0;
  std::int64_t evicted_bytes = 0;
  std::uint64_t staged = 0;    ///< completed cf2array stagings
  std::uint64_t replaced = 0;  ///< stagings that overwrote a stale array
  std::uint64_t invalidations = 0;  ///< arrays dropped as poisoned/stale
  std::uint64_t prefetch_issued = 0;
  std::uint64_t prefetch_completed = 0;
  std::uint64_t prefetch_cancelled = 0;  ///< queued hints dropped
  std::uint64_t prefetch_useful = 0;  ///< prefetched entries hit on demand

  double hit_rate() const {
    const std::uint64_t n = hits + misses;
    return n == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(n);
  }
};

/// Owns SDRAM residency of partial bitstreams. All SDRAM array traffic
/// (staging, eviction, invalidation) goes through this manager; callers
/// hold on to CompactFlash only for installing synthesized files.
class BitstreamManager {
 public:
  BitstreamManager(core::ReconfigManager& reconfig,
                   bitstream::CompactFlash& cf, bitstream::Sdram& sdram);

  BitstreamManager(const BitstreamManager&) = delete;
  BitstreamManager& operator=(const BitstreamManager&) = delete;

  /// The SDRAM array key for a (module, PRR) pair.
  static std::string key_for(const std::string& module_id,
                             const std::string& prr_name);

  /// Registers the prefetcher that receives restage and predicted-next
  /// hints (optional; without one, misses simply stay cold).
  void attach_prefetcher(PrefetchEngine* prefetch) { prefetch_ = prefetch; }

  // ---- Installation (CompactFlash backing store) -----------------------

  /// Stores `bs` as a CF file under its canonical name (idempotent).
  /// Every bitstream must be installed before it can be staged or loaded.
  std::string install(const bitstream::PartialBitstream& bs);
  bool installed(const std::string& module_id,
                 const std::string& prr_name) const;

  // ---- Residency -------------------------------------------------------

  bool resident(const std::string& key) const;
  bool pinned(const std::string& key) const;
  int resident_count() const { return static_cast<int>(entries_.size()); }

  /// Untimed boot-time staging (the measured interval has not started):
  /// installs `bs` and places it resident, evicting LRU entries if the
  /// cache is full. Replaces any stale array under the same key.
  std::string preload(const bitstream::PartialBitstream& bs);

  /// Drops a resident array (poisoned or known-stale). Pinned entries
  /// are left alone (the in-flight transfer still reads them). Returns
  /// whether the array was dropped.
  bool invalidate(const std::string& key);

  // ---- Timed operations ------------------------------------------------
  // Both require the blocking transfer path to be idle (the MicroBlaze
  // driver serializes every CF/SDRAM/ICAP transfer); callers drain via
  // transfer_busy() first.

  /// True while a reconfiguration or staging transfer holds the path.
  bool transfer_busy() const { return reconfig_.busy(); }

  /// Stages the installed (module, PRR) bitstream into SDRAM
  /// (vapres_cf2array), evicting LRU entries to make room, replacing a
  /// stale array in place. Returns the first-attempt cycles charged.
  sim::Cycles stage(const std::string& module_id, const std::string& prr_name,
                    core::ReconfigManager::DoneCallback on_done = {},
                    bool from_prefetch = false);

  /// Demand reconfiguration through the cache: array2icap on a warm hit
  /// (entry pinned for the transfer; a CF fallback taken by the retry
  /// machinery invalidates the poisoned array and queues a restage),
  /// cf2icap_streamed on a cold miss (plus a restage hint, so a repeated
  /// request finds the array warm). Returns the first-attempt cycles
  /// charged.
  sim::Cycles reconfigure(const std::string& module_id,
                          const std::string& prr_name,
                          core::ReconfigManager::DoneCallback on_done = {});

  // ---- Prediction ------------------------------------------------------

  /// The module the per-PRR history predicts will be requested after
  /// `module_id` on `prr_name` ("" when unknown).
  std::string predicted_next(const std::string& prr_name,
                             const std::string& module_id) const;

  const BitmanStats& stats() const { return stats_; }

  /// Bookkeeping entry point for the prefetcher (cancelled queued hints).
  void note_prefetch_cancelled(std::uint64_t n) {
    stats_.prefetch_cancelled += n;
  }

 private:
  // Checkpoint/restore overlays residency metadata (LRU ticks, pins,
  // prefetched flags), stats, and the per-PRR predictor tables
  // (snap/system_snapshot.cpp).
  friend class ::vapres::snap::SystemSnapshot;

  struct Entry {
    std::uint64_t last_use = 0;
    int pins = 0;
    bool prefetched = false;       ///< staged by the prefetch engine
    bool demand_hit_seen = false;  ///< already counted as prefetch_useful
  };

  void touch(Entry& e) { e.last_use = ++use_tick_; }
  /// Evicts LRU unpinned entries until `bytes` (plus in-flight
  /// reservations) fit. Throws ModelError when impossible.
  void ensure_capacity(std::int64_t bytes, const std::string& for_key);
  /// Records a completed load for the per-PRR predictor and hints the
  /// predicted next module to the prefetcher.
  void note_loaded(const std::string& prr_name, const std::string& module_id);
  /// Queues a background restage of (module, PRR) via the prefetcher.
  void request_restage(const std::string& module_id,
                       const std::string& prr_name);

  core::ReconfigManager& reconfig_;
  bitstream::CompactFlash& cf_;
  bitstream::Sdram& sdram_;
  BitmanStats stats_;
  PrefetchEngine* prefetch_ = nullptr;

  std::map<std::string, Entry> entries_;
  std::set<std::string> staging_;      ///< keys with a cf2array in flight
  std::int64_t reserved_bytes_ = 0;    ///< SDRAM held for in-flight staging
  std::uint64_t use_tick_ = 0;

  /// Per-PRR switch history: last loaded module and observed
  /// last -> next transitions (the predictor).
  std::map<std::string, std::string> last_module_;
  std::map<std::string, std::map<std::string, std::string>> next_after_;
};

}  // namespace vapres::bitman
