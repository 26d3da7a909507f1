#include "core/system.hpp"

#include "bitstream/bitgen.hpp"
#include "sim/check.hpp"
#include "sim/fault.hpp"

namespace vapres::core {

VapresSystem::VapresSystem(SystemParams params,
                           hwmodule::ModuleLibrary library)
    : params_(std::move(params)), library_(std::move(library)) {
  params_.validate();

  // Fault inject/recover events carry this system's simulation time.
  sim::FaultInjector::instance().set_time_source(sim_.now_ptr());

  system_clock_ = &sim_.create_domain("clk_sys", params_.system_clock_mhz);
  sdram_ = std::make_unique<bitstream::Sdram>(params_.sdram_bytes);
  mb_ = std::make_unique<proc::Microblaze>("microblaze", *system_clock_,
                                           dcr_);
  // Lets long driver calls (PR transfers) sleep the core instead of
  // ticking every busy cycle. mb_ is destroyed before sim_, so the wake
  // event is always cancelled in time.
  mb_->set_simulator(&sim_);
  reconfig_ = std::make_unique<ReconfigManager>(sim_, *mb_, icap_, cf_,
                                                *sdram_);
  bitman_ = std::make_unique<bitman::BitstreamManager>(*reconfig_, cf_,
                                                       *sdram_);
  prefetch_ = std::make_unique<bitman::PrefetchEngine>(*mb_, *bitman_);

  floorplan_ =
      params_.prr_rects.empty() ? auto_floorplan() : params_.prr_rects;

  int rect_cursor = 0;
  comm::DcrAddress dcr_base = 0x100;
  for (std::size_t r = 0; r < params_.rsbs.size(); ++r) {
    const RsbParams& rp = params_.rsbs[r];
    std::vector<fabric::ClbRect> rects(
        floorplan_.begin() + rect_cursor,
        floorplan_.begin() + rect_cursor + rp.num_prrs);
    rect_cursor += rp.num_prrs;
    rsbs_.push_back(std::make_unique<Rsb>(
        params_.name + ".rsb" + std::to_string(r), rp, params_.device, sim_,
        *system_clock_, dcr_, params_.prr_clock_a_mhz,
        params_.prr_clock_b_mhz, std::move(rects), dcr_base));
    dcr_base += 0x40;

    // Register every PRR as a configuration target.
    Rsb& rsb_ref = *rsbs_.back();
    for (int p = 0; p < rp.num_prrs; ++p) {
      Prr& prr = rsb_ref.prr(p);
      reconfig_->register_target(
          prr.name(), [this, &prr](const bitstream::PartialBitstream& bs) {
            prr.apply_bitstream(bs, library_);
          });
    }
  }
}

VapresSystem::~VapresSystem() {
  // The FaultInjector outlives this system; stop it from dereferencing
  // our (about-to-die) simulation clock.
  sim::FaultInjector::instance().set_time_source(nullptr);
}

void VapresSystem::note_recovery(sim::RecoveryEvent event,
                                 std::uint32_t track, std::uint64_t detail) {
  ++recoveries_[static_cast<std::size_t>(event)];
  sim::FaultInjector::instance().note_recovery(event, track, detail);
}

std::vector<fabric::ClbRect> VapresSystem::auto_floorplan() const {
  // Stack PRRs one per local clock region, filling the left half bottom-up
  // and then the right half, leaving the topmost-left region for the
  // controlling region (matching the prototype layout of Figure 8 in
  // spirit; the full placer lives in flow::Floorplanner).
  std::vector<fabric::ClbRect> rects;
  const int region_rows = params_.device.clock_region_rows();
  const int half_cols = params_.device.clock_region_width_clbs();
  int slot = 0;
  for (const RsbParams& rp : params_.rsbs) {
    for (int p = 0; p < rp.num_prrs; ++p) {
      const int rows_per_prr =
          (rp.prr_height_clbs + fabric::DeviceGeometry::kClockRegionRows - 1) /
          fabric::DeviceGeometry::kClockRegionRows;
      const int slots_per_half = region_rows / rows_per_prr;
      VAPRES_REQUIRE(slots_per_half > 0, "PRR taller than the device");
      const int half = slot / slots_per_half;
      const int pos = slot % slots_per_half;
      VAPRES_REQUIRE(half < 2,
                     "auto floorplan: too many PRRs for " +
                         params_.device.name());
      VAPRES_REQUIRE(rp.prr_width_clbs <= half_cols,
                     "PRR wider than a clock-region half");
      rects.push_back(fabric::ClbRect{
          pos * rows_per_prr * fabric::DeviceGeometry::kClockRegionRows,
          half * half_cols, rp.prr_height_clbs, rp.prr_width_clbs});
      ++slot;
    }
  }
  return rects;
}

Rsb& VapresSystem::rsb(int index) {
  VAPRES_REQUIRE(index >= 0 && index < num_rsbs(), "RSB index out of range");
  return *rsbs_[static_cast<std::size_t>(index)];
}

void VapresSystem::socket_set_bits(comm::DcrAddress addr,
                                   comm::DcrValue bits, bool set) {
  const comm::DcrValue old = dcr_.read(addr);
  dcr_.write(addr, set ? (old | bits) : (old & ~bits));
}

void VapresSystem::bring_up_all_sites() {
  for (auto& rsb_ptr : rsbs_) {
    Rsb& r = *rsb_ptr;
    for (int i = 0; i < r.num_ioms(); ++i) {
      socket_set_bits(r.iom_socket_address(i), PrSocket::kFifoWen, true);
    }
    for (int p = 0; p < r.num_prrs(); ++p) {
      socket_set_bits(r.prr_socket_address(p),
                      PrSocket::kSmEn | PrSocket::kClkEn | PrSocket::kFifoWen,
                      true);
    }
  }
}

std::optional<ChannelId> VapresSystem::connect(int rsb_index,
                                               ChannelEndpoint producer,
                                               ChannelEndpoint consumer) {
  Rsb& r = rsb(rsb_index);
  auto id = r.channels().establish(producer, consumer);
  if (!id) return std::nullopt;
  socket_set_bits(r.socket_address(consumer.box), PrSocket::kFifoWen, true);
  socket_set_bits(r.socket_address(producer.box), PrSocket::kFifoRen, true);
  return id;
}

void VapresSystem::disconnect(int rsb_index, ChannelId id) {
  Rsb& r = rsb(rsb_index);
  const comm::RouteSpec spec = r.channels().spec(id);
  // Quiesce: stop the producer draining, let in-flight words land.
  socket_set_bits(r.socket_address(spec.producer_box), PrSocket::kFifoRen,
                  false);
  run_system_cycles(static_cast<sim::Cycles>(spec.hops()) + 4);
  r.channels().release(id);
}

std::string VapresSystem::synthesize_to_cf(const std::string& module_id,
                                           int rsb_index, int prr_index) {
  Rsb& r = rsb(rsb_index);
  Prr& prr = r.prr(prr_index);
  const std::string filename =
      bitstream::bitstream_filename(module_id, prr.name());
  if (!cf_.contains(filename)) {
    const auto& info = library_.info(module_id);
    cf_.store(filename,
              bitstream::generate_partial_bitstream(
                  module_id, info.resources, prr.name(), prr.rect()));
  }
  return filename;
}

std::string VapresSystem::stage_to_sdram(const std::string& module_id,
                                         int rsb_index, int prr_index) {
  Rsb& r = rsb(rsb_index);
  synthesize_to_cf(module_id, rsb_index, prr_index);
  const std::string prr_name = r.prr(prr_index).name();
  const std::string key =
      bitman::BitstreamManager::key_for(module_id, prr_name);
  if (sdram_->contains(key)) return key;
  drain_transfer_path();
  bool done = false;
  bitman_->stage(module_id, prr_name,
                 [&done](const ReconfigOutcome&) { done = true; });
  const bool ok = sim_.run_until([&done] { return done; },
                                 sim::kPsPerSecond * 60);
  VAPRES_REQUIRE(ok, "cf2array staging did not complete");
  return key;
}

std::string VapresSystem::preload_sdram(const std::string& module_id,
                                        int rsb_index, int prr_index) {
  Rsb& r = rsb(rsb_index);
  const std::string filename =
      synthesize_to_cf(module_id, rsb_index, prr_index);
  const std::string key = bitman::BitstreamManager::key_for(
      module_id, r.prr(prr_index).name());
  if (!bitman_->resident(key)) bitman_->preload(cf_.read(filename));
  return key;
}

sim::Cycles VapresSystem::reconfigure_now(int rsb_index, int prr_index,
                                          const std::string& module_id,
                                          ReconfigSource source) {
  drain_transfer_path();
  const std::string prr_name = rsb(rsb_index).prr(prr_index).name();
  bool done = false;
  bool configured = false;
  auto on_done = [&done, &configured](const ReconfigOutcome& outcome) {
    done = true;
    configured = outcome.ok();
  };
  sim::Cycles charged = 0;
  switch (source) {
    case ReconfigSource::kSdramArray:
      // Pre-stage (untimed) then resolve through the cache: a warm hit
      // running the same array2icap driver as before the cache existed.
      preload_sdram(module_id, rsb_index, prr_index);
      charged = bitman_->reconfigure(module_id, prr_name, on_done);
      break;
    case ReconfigSource::kCompactFlash:
      charged = reconfig_->cf2icap(
          synthesize_to_cf(module_id, rsb_index, prr_index), on_done);
      break;
    case ReconfigSource::kCfStream:
      charged = reconfig_->cf2icap_streamed(
          synthesize_to_cf(module_id, rsb_index, prr_index),
          bitstream::Calibration::kStreamChunkBytes, on_done);
      break;
    case ReconfigSource::kManaged:
      synthesize_to_cf(module_id, rsb_index, prr_index);
      charged = bitman_->reconfigure(module_id, prr_name, on_done);
      break;
  }
  const bool ok = sim_.run_until([&done] { return done; },
                                 sim::kPsPerSecond * 60);
  VAPRES_REQUIRE(ok, "reconfiguration did not complete");
  VAPRES_REQUIRE(configured,
                 "reconfiguration of " + module_id + " failed permanently");
  return charged;
}

void VapresSystem::run_system_cycles(sim::Cycles n) {
  sim_.run_cycles(*system_clock_, n);
}

void VapresSystem::drain_transfer_path() {
  if (!reconfig_->busy()) return;
  const bool ok = sim_.run_until([this] { return !reconfig_->busy(); },
                                 sim::kPsPerSecond * 60);
  VAPRES_REQUIRE(ok, "bitstream transfer path did not drain");
}

}  // namespace vapres::core
