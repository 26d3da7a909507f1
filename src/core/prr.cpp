#include "core/prr.hpp"

#include "sim/check.hpp"

namespace vapres::core {

Prr::Prr(std::string name, int index, const fabric::ClbRect& rect,
         const RsbParams& params, const fabric::DeviceGeometry& device,
         sim::Simulator& sim, sim::ClockDomain& static_domain,
         double clock_a_mhz, double clock_b_mhz, comm::SwitchBox* box)
    : name_(std::move(name)),
      index_(index),
      rect_(rect),
      static_domain_(&static_domain) {
  const std::string violation = fabric::prr_legality_violation(rect_, device);
  VAPRES_REQUIRE(violation.empty(), violation);

  domain_ = &sim.create_domain(name_ + ".clk", clock_a_mhz);

  // Clock tree: BUFR in the PRR's (first) clock region, BUFGMUX selecting
  // between the two system-provided PRR frequencies.
  const auto regions = fabric::regions_spanned(rect_, device);
  fabric::Bufr bufr(regions.front());
  VAPRES_REQUIRE(bufr.can_drive(rect_, device),
                 name_ + ": BUFR cannot reach the whole PRR");
  fabric::Bufgmux mux(clock_a_mhz, clock_b_mhz);
  clock_tree_ =
      std::make_unique<fabric::PrrClockTree>(std::move(bufr), mux, *domain_);

  for (int c = 0; c < params.ki; ++c) {
    consumers_.push_back(std::make_unique<comm::ConsumerInterface>(
        name_ + ".c" + std::to_string(c), params.fifo_depth));
    static_domain.attach(consumers_.back().get());
  }
  for (int c = 0; c < params.ko; ++c) {
    producers_.push_back(std::make_unique<comm::ProducerInterface>(
        name_ + ".p" + std::to_string(c), params.fifo_depth,
        params.width_bits));
    static_domain.attach(producers_.back().get());
  }

  fsl_to_mb_ =
      std::make_unique<comm::FslLink>(name_ + ".r", params.fifo_depth);
  fsl_from_mb_ =
      std::make_unique<comm::FslLink>(name_ + ".t", params.fifo_depth);

  std::vector<comm::ConsumerInterface*> cons;
  for (auto& c : consumers_) cons.push_back(c.get());
  std::vector<comm::ProducerInterface*> prods;
  for (auto& p : producers_) prods.push_back(p.get());

  wrapper_ = std::make_unique<hwmodule::ModuleWrapper>(
      name_ + ".wrapper", cons, prods, fsl_to_mb_.get(), fsl_from_mb_.get());
  domain_->attach(wrapper_.get());

  socket_ = std::make_unique<PrSocket>(name_ + ".socket", box, prods, cons,
                                       fsl_to_mb_.get(), fsl_from_mb_.get(),
                                       wrapper_.get(), clock_tree_.get());

  // Stream counters sum across all of this PRR's channels; the sources
  // read the interfaces lazily, so the values stay live without any
  // per-cycle bookkeeping here.
  perf_ = std::make_unique<PerfCounters>(name_ + ".perf");
  perf_->set_source(PerfCounters::kSelWordsOut, [this] {
    std::uint64_t total = 0;
    for (const auto& p : producers_) total += p->words_sent();
    return total;
  });
  perf_->set_source(PerfCounters::kSelWordsIn, [this] {
    std::uint64_t total = 0;
    for (const auto& c : consumers_) total += c->words_received();
    return total;
  });
  perf_->set_source(PerfCounters::kSelStallCycles, [this] {
    std::uint64_t total = 0;
    for (const auto& p : producers_) total += p->stall_cycles();
    return total;
  });
  perf_->set_source(PerfCounters::kSelDiscarded, [this] {
    std::uint64_t total = 0;
    for (const auto& c : consumers_) total += c->words_discarded();
    return total;
  });
}

Prr::~Prr() {
  domain_->detach(wrapper_.get());
  for (auto& c : consumers_) static_domain_->detach(c.get());
  for (auto& p : producers_) static_domain_->detach(p.get());
}

comm::ConsumerInterface& Prr::consumer(int channel) {
  VAPRES_REQUIRE(channel >= 0 && channel < num_consumers(),
                 name_ + ": consumer channel out of range");
  return *consumers_[static_cast<std::size_t>(channel)];
}

comm::ProducerInterface& Prr::producer(int channel) {
  VAPRES_REQUIRE(channel >= 0 && channel < num_producers(),
                 name_ + ": producer channel out of range");
  return *producers_[static_cast<std::size_t>(channel)];
}

void Prr::apply_bitstream(const bitstream::PartialBitstream& bs,
                          const hwmodule::ModuleLibrary& library) {
  VAPRES_REQUIRE(bs.valid(), name_ + ": corrupt bitstream");
  VAPRES_REQUIRE(bs.target_prr == name_,
                 name_ + ": bitstream targets " + bs.target_prr);
  VAPRES_REQUIRE(bs.region == rect_,
                 name_ + ": bitstream region mismatch");
  VAPRES_REQUIRE(library.contains(bs.module_id),
                 name_ + ": module not in library: " + bs.module_id);
  const auto& info = library.info(bs.module_id);
  VAPRES_REQUIRE(info.resources.fits_in(capacity()),
                 name_ + ": module " + bs.module_id + " does not fit");
  wrapper_->load(library.instantiate(bs.module_id));
  loaded_module_ = bs.module_id;
  ++reconfigurations_;
}

}  // namespace vapres::core
