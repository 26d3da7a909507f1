// The complete VAPRES system (paper Figure 1).
//
// Controlling region: MicroBlaze, DCR bus (PLB-to-DCR bridge), ICAP,
// CompactFlash, SDRAM, and the reconfiguration manager. Data-processing
// region: one or more RSBs. The system owns the simulator and the clock
// domains; helpers cover bring-up, bitstream synthesis/staging, channel
// connection, and timed reconfiguration so examples and tests read like
// the paper's scenarios.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "bitman/cache.hpp"
#include "bitman/prefetch.hpp"
#include "bitstream/storage.hpp"
#include "comm/dcr.hpp"
#include "core/channel.hpp"
#include "core/params.hpp"
#include "core/reconfig.hpp"
#include "core/rsb.hpp"
#include "fabric/icap.hpp"
#include "hwmodule/library.hpp"
#include "proc/microblaze.hpp"
#include "sim/fault.hpp"
#include "sim/simulator.hpp"

namespace vapres::snap {
class SystemSnapshot;
}

namespace vapres::core {

/// Which storage a timed reconfiguration reads the bitstream from.
enum class ReconfigSource {
  kCompactFlash,  ///< classic read-all-then-write vapres_cf2icap
  kSdramArray,    ///< pre-staged vapres_array2icap (through the cache)
  kCfStream,      ///< pipelined chunked cf2icap (cold-miss streaming path)
  kManaged,       ///< bitman cache decides: array hit or streamed miss
};

class VapresSystem {
 public:
  explicit VapresSystem(
      SystemParams params,
      hwmodule::ModuleLibrary library = hwmodule::ModuleLibrary::standard());

  VapresSystem(const VapresSystem&) = delete;
  VapresSystem& operator=(const VapresSystem&) = delete;
  ~VapresSystem();

  const SystemParams& params() const { return params_; }
  const hwmodule::ModuleLibrary& library() const { return library_; }

  sim::Simulator& sim() { return sim_; }
  sim::ClockDomain& system_clock() { return *system_clock_; }
  proc::Microblaze& mb() { return *mb_; }
  comm::DcrBus& dcr() { return dcr_; }
  bitstream::CompactFlash& compact_flash() { return cf_; }
  bitstream::Sdram& sdram() { return *sdram_; }
  fabric::IcapPort& icap() { return icap_; }
  ReconfigManager& reconfig() { return *reconfig_; }
  bitman::BitstreamManager& bitman() { return *bitman_; }
  bitman::PrefetchEngine& prefetch() { return *prefetch_; }

  /// Counts a switch rollback or scrub repair against this system and
  /// forwards it to the process-wide FaultInjector scoreboard (same
  /// arguments). reconfig() counts its own retries and fallbacks.
  void note_recovery(sim::RecoveryEvent event, std::uint32_t track = 0,
                     std::uint64_t detail = 0);
  std::uint64_t recoveries(sim::RecoveryEvent event) const {
    return recoveries_[static_cast<std::size_t>(event)];
  }
  /// Counts a configuration-frame upset a scrubber found (and rewrote)
  /// on this system: the kConfigFrameUpset injections that landed here.
  void note_frame_repair() { ++frame_repairs_; }
  std::uint64_t frame_repairs() const { return frame_repairs_; }

  int num_rsbs() const { return static_cast<int>(rsbs_.size()); }
  Rsb& rsb(int index = 0);

  /// The floorplan in effect (explicit from params, or auto-stacked).
  const std::vector<fabric::ClbRect>& prr_floorplan() const {
    return floorplan_;
  }

  // ---- Bring-up and raw (untimed) control -----------------------------

  /// Boot-time site initialization: enables slice macros, PRR clocks, and
  /// consumer write enables on every site. Producer read enables stay off
  /// until a channel is connected.
  void bring_up_all_sites();

  /// Sets/clears single PRSocket bits by read-modify-write on the DCR bus
  /// (untimed; software-timed control goes through mb().dcr_write).
  void socket_set_bits(comm::DcrAddress addr, comm::DcrValue bits, bool set);

  /// Establishes a channel and enables the endpoint producer/consumer
  /// (FIFO_ren / FIFO_wen). Returns nullopt if no capacity.
  std::optional<ChannelId> connect(int rsb_index, ChannelEndpoint producer,
                                   ChannelEndpoint consumer);

  /// Quiesces (FIFO_ren off, pipeline flush) and releases a channel.
  void disconnect(int rsb_index, ChannelId id);

  // ---- Bitstream synthesis & staging -----------------------------------

  /// Runs the model's "bitgen" for (module, PRR) and stores the partial
  /// bitstream as a CF file. Returns the filename. Idempotent.
  std::string synthesize_to_cf(const std::string& module_id, int rsb_index,
                               int prr_index);

  /// Stages the (module, PRR) bitstream from CF into SDRAM, *timed*
  /// (vapres_cf2array), running the simulation until the copy completes.
  /// Returns the SDRAM key.
  std::string stage_to_sdram(const std::string& module_id, int rsb_index,
                             int prr_index);

  /// Untimed staging: synthesizes and places the bitstream directly into
  /// SDRAM (boot-time provisioning, before the measured interval starts).
  /// Returns the SDRAM key ("<module>@<prr-name>").
  std::string preload_sdram(const std::string& module_id, int rsb_index,
                            int prr_index);

  // ---- Timed reconfiguration -------------------------------------------

  /// Reconfigures a PRR with `module_id` via the chosen path, running the
  /// simulation until the configuration completes. Returns the cycles the
  /// call occupied the MicroBlaze.
  sim::Cycles reconfigure_now(int rsb_index, int prr_index,
                              const std::string& module_id,
                              ReconfigSource source =
                                  ReconfigSource::kSdramArray);

  // ---- Simulation helpers -----------------------------------------------

  /// Runs `n` system-clock cycles.
  void run_system_cycles(sim::Cycles n);

  /// Runs the simulation until the blocking transfer path is free (a
  /// background prefetch staging may hold it; demand callers drain
  /// before issuing their own transfer).
  void drain_transfer_path();

 private:
  // Checkpoint/restore walks every owned component to serialize and
  // overlay raw state (snap/system_snapshot.cpp).
  friend class ::vapres::snap::SystemSnapshot;

  std::vector<fabric::ClbRect> auto_floorplan() const;

  SystemParams params_;
  hwmodule::ModuleLibrary library_;
  sim::Simulator sim_;
  sim::ClockDomain* system_clock_;
  comm::DcrBus dcr_;
  bitstream::CompactFlash cf_;
  std::unique_ptr<bitstream::Sdram> sdram_;
  fabric::IcapPort icap_;
  std::unique_ptr<proc::Microblaze> mb_;
  std::unique_ptr<ReconfigManager> reconfig_;
  std::unique_ptr<bitman::BitstreamManager> bitman_;
  std::unique_ptr<bitman::PrefetchEngine> prefetch_;
  std::vector<fabric::ClbRect> floorplan_;
  std::vector<std::unique_ptr<Rsb>> rsbs_;
  std::array<std::uint64_t, sim::kNumRecoveryEvents> recoveries_{};
  std::uint64_t frame_repairs_ = 0;
};

}  // namespace vapres::core
