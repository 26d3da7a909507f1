// Reconfiguration manager: the vapres_cf2icap / vapres_array2icap /
// vapres_cf2array driver paths (Table 2, evaluated in Section V.B).
//
// Each path is a blocking software driver on the MicroBlaze: the manager
// computes the path's cycle cost from the calibrated storage/ICAP models
// (bitstream/calibration.hpp), marks the processor busy for that long,
// holds the ICAP port for the duration, and applies the configuration
// effect (loading the module into the target PRR) at completion.
//
// Self-healing: a transfer the ICAP reports corrupted or timed out (or
// whose bitstream fails its integrity check) is retried after an
// exponential backoff, up to RetryPolicy::max_attempts per source. When
// the SDRAM-array source exhausts its attempts, the driver falls back to
// the pristine CompactFlash file (SDRAM array -> CF) before giving up.
// Completion callbacks receive a ReconfigOutcome so callers — notably
// the ModuleSwitcher — can roll back on permanent failure.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "bitstream/storage.hpp"
#include "fabric/icap.hpp"
#include "obs/bus.hpp"
#include "proc/microblaze.hpp"
#include "sim/simulator.hpp"

namespace vapres::snap {
class SystemSnapshot;
}

namespace vapres::core {

/// Cycle decomposition of one reconfiguration call, matching the paper's
/// reporting (storage transfer vs. ICAP write percentages).
struct ReconfigBreakdown {
  double storage_cycles = 0;  ///< CF or SDRAM transfer
  double icap_cycles = 0;     ///< software-driven ICAP write

  double total_cycles() const { return storage_cycles + icap_cycles; }
  double storage_fraction() const {
    return total_cycles() > 0 ? storage_cycles / total_cycles() : 0.0;
  }
  double seconds_at(double clock_mhz) const {
    return total_cycles() / (clock_mhz * 1e6);
  }
};

/// Recovery policy for corrupt / timed-out transfers.
struct RetryPolicy {
  int max_attempts = 3;  ///< transfer attempts per source (>= 1)
  /// Backoff before attempt k+1 is `backoff_base_cycles << (k-1)` cycles.
  sim::Cycles backoff_base_cycles = 256;
  bool fallback_to_cf = true;  ///< SDRAM array -> CF after exhaustion
};

/// How a reconfiguration call ended, delivered to its callback.
struct ReconfigOutcome {
  bool success = true;
  int attempts = 1;   ///< total transfer attempts across all sources
  int fallbacks = 0;  ///< source fallbacks taken (0 or 1)

  bool ok() const { return success; }
};

class ReconfigManager {
 public:
  using DoneCallback = std::function<void(const ReconfigOutcome&)>;

  ReconfigManager(sim::Simulator& sim, proc::Microblaze& mb,
                  fabric::IcapPort& icap, bitstream::CompactFlash& cf,
                  bitstream::Sdram& sdram);

  /// Registers the configuration effect for a PRR (by instance name).
  void register_target(
      const std::string& prr_name,
      std::function<void(const bitstream::PartialBitstream&)> apply);

  // ---- Analytic estimates (benches assert the simulation matches) ------
  static ReconfigBreakdown estimate_cf2icap(std::int64_t bytes);
  static ReconfigBreakdown estimate_array2icap(std::int64_t bytes);
  static double estimate_cf2array_cycles(std::int64_t bytes);
  /// Double-buffered chunked cf2icap: the CF read of chunk k+1 overlaps
  /// the ICAP write of chunk k. The card read is ~20x slower per byte
  /// than the ICAP write, so only the final chunk's ICAP write is
  /// exposed; the rest hides behind the card. Storage share = full CF
  /// read + per-chunk flip overhead, ICAP share = the exposed tail.
  static ReconfigBreakdown estimate_cf2icap_streamed(std::int64_t bytes,
                                                     std::int64_t chunk_bytes);

  // ---- Timed operations -------------------------------------------------
  // Each returns the cycle cost charged to the MicroBlaze for the first
  // attempt and invokes `on_done` with the outcome once the transfer
  // finally completes (retries and fallbacks extend the busy time beyond
  // the returned first-attempt cost). Throws if a reconfiguration is
  // already in flight (the ICAP and the blocking driver serialize all
  // paths).

  sim::Cycles cf2icap(const std::string& filename, DoneCallback on_done = {});
  /// Pipelined variant of cf2icap (estimate_cf2icap_streamed timing):
  /// the cold-miss path of the bitman subsystem (docs/BITSTREAMS.md).
  sim::Cycles cf2icap_streamed(const std::string& filename,
                               std::int64_t chunk_bytes,
                               DoneCallback on_done = {});
  sim::Cycles array2icap(const std::string& key, DoneCallback on_done = {});
  /// Stages a CF file into SDRAM under `key`, replacing any stale array
  /// already staged there (system startup and cache restaging).
  sim::Cycles cf2array(const std::string& filename, const std::string& key,
                       DoneCallback on_done = {});

  bool busy() const { return busy_; }

  /// Simulation-time / MicroBlaze-cycle passthroughs so the bitman layer
  /// can stamp observability events without holding its own Simulator or
  /// processor reference.
  sim::Picoseconds now() const { return sim_.now(); }
  sim::Cycles mb_cycle() const { return mb_.cycle(); }

  const ReconfigBreakdown& last_breakdown() const { return last_; }
  int completed() const { return completed_; }

  void set_retry_policy(const RetryPolicy& policy);

  /// Recovery counters (lifetime totals).
  int retries() const { return retries_; }
  int fallbacks() const { return fallbacks_; }
  int failures() const { return failures_; }

  /// Readback verification: after writing, read the configuration back
  /// through the ICAP and compare (standard EAPR-era hardening against
  /// configuration upsets). Doubles the ICAP share of every subsequent
  /// timed transfer; the bitstream's integrity tag is checked at apply
  /// time either way.
  void set_verify_after_write(bool verify) { verify_ = verify; }
  bool verify_after_write() const { return verify_; }

 private:
  // Checkpoint/restore overlays the lifetime counters and last-breakdown
  // record; snapshots require !busy() (snap/system_snapshot.cpp).
  friend class ::vapres::snap::SystemSnapshot;

  /// One in-flight reconfiguration, surviving across retry attempts.
  struct Inflight {
    bitstream::PartialBitstream bs;
    ReconfigBreakdown cost;        // per-attempt cost for the current source
    std::string cf_fallback;       // CF filename, "" = no fallback possible
    bool on_fallback_source = false;
    int attempts_this_source = 0;
    ReconfigOutcome outcome;
    std::function<void(const bitstream::PartialBitstream&)> apply;
    DoneCallback on_done;
    // observability: one span per transfer, spanning retries/fallbacks
    obs::Span span;
    std::uint16_t path_code = 0;
    sim::Cycles started_cycle = 0;
  };

  sim::Cycles start(const bitstream::PartialBitstream& bs,
                    const ReconfigBreakdown& cost, bool sdram_source,
                    std::uint16_t path_code, DoneCallback on_done);
  sim::Cycles launch_attempt();
  void complete_attempt();
  void finish(bool success);

  sim::Simulator& sim_;
  proc::Microblaze& mb_;
  fabric::IcapPort& icap_;
  bitstream::CompactFlash& cf_;
  bitstream::Sdram& sdram_;
  std::map<std::string,
           std::function<void(const bitstream::PartialBitstream&)>>
      targets_;
  bool busy_ = false;
  bool verify_ = false;
  RetryPolicy policy_;
  ReconfigBreakdown last_;
  int completed_ = 0;
  int retries_ = 0;
  int fallbacks_ = 0;
  int failures_ = 0;
  std::unique_ptr<Inflight> inflight_;
};

}  // namespace vapres::core
