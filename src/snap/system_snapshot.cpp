#include "snap/system_snapshot.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "bitman/prefetch.hpp"
#include "bitstream/bitstream.hpp"
#include "comm/fifo.hpp"
#include "comm/flit.hpp"
#include "core/prsocket.hpp"
#include "obs/bus.hpp"
#include "obs/event.hpp"
#include "obs/metrics.hpp"
#include "sim/check.hpp"
#include "sim/fault.hpp"
#include "snap/format.hpp"

namespace vapres::snap {

namespace {

/// obs step code for a resumed protocol state (Figure 5 numbering).
std::uint16_t step_code_for(core::ModuleSwitcher::State s) {
  using St = core::ModuleSwitcher::State;
  switch (s) {
    case St::kReconfiguring:     return obs::ev::kStep1Reconfigure;
    case St::kQuiesceUpstream:   return obs::ev::kStep2QuiesceUpstream;
    case St::kRerouteUpstream:   return obs::ev::kStep3RerouteUpstream;
    case St::kSendFlush:         return obs::ev::kStep4SendFlush;
    case St::kCollectState:      return obs::ev::kStep5CollectState;
    case St::kInitNewModule:     return obs::ev::kStep6InitNewModule;
    case St::kWaitIomEos:        return obs::ev::kStep7WaitIomEos;
    case St::kQuiesceSrc:        return obs::ev::kStep8QuiesceSrc;
    case St::kRerouteDownstream: return obs::ev::kStep9RerouteDownstream;
    default:                     return 0;
  }
}

// Encoded sizes for the reader's list-count bound (SnapshotReader::count):
// an empty string or list is its 4-byte length.
constexpr std::size_t kStr = 4;
constexpr std::size_t kList = 4;

}  // namespace

// ---------------------------------------------------------------------------
// Field lists: one template per component, run over a SnapshotWriter by
// save() and over a SnapshotReader by the restore paths. A nested member
// of SystemSnapshot, so the components' friend declarations cover it.
// ---------------------------------------------------------------------------

struct SystemSnapshot::Fields {
  /// The component as a field list sees it: const when saving.
  template <class Ar, class T>
  using Ref = std::conditional_t<Ar::kLoading, T, const T>&;

  /// Writes `live`; restore requires the blob to carry the same value
  /// (construction parameters and fixed element counts).
  template <class Ar, class T>
  static void same(Ar& ar, const T& live, const char* what) {
    T v = live;
    if constexpr (std::is_same_v<T, std::string>) {
      ar.str(v);
    } else if constexpr (std::is_same_v<T, double>) {
      ar.f64(v);
    } else if constexpr (std::is_same_v<T, std::uint32_t>) {
      ar.u32(v);
    } else {
      ar.i64(v);
    }
    VAPRES_REQUIRE(v == live, std::string("restore: ") + what + " mismatch");
  }
  template <class Ar>
  static void same_count(Ar& ar, std::size_t live, const char* what) {
    same(ar, static_cast<std::uint32_t>(live), what);
  }

  // ---- meta: the construction fingerprint a restore must match.
  template <class Ar>
  static void meta(Ar& ar, const core::VapresSystem& sys) {
    const core::SystemParams& p = sys.params_;
    same(ar, p.name, "system name");
    same(ar, p.device.name(), "device");
    same(ar, p.system_clock_mhz, "system clock");
    same(ar, p.prr_clock_a_mhz, "PRR clock A");
    same(ar, p.prr_clock_b_mhz, "PRR clock B");
    same(ar, p.sdram_bytes, "SDRAM capacity");
    same_count(ar, p.rsbs.size(), "RSB count");
    for (const core::RsbParams& r : p.rsbs) {
      for (const int v : {r.num_prrs, r.num_ioms, r.width_bits, r.kr, r.kl,
                          r.ki, r.ko, r.fifo_depth, r.prr_height_clbs,
                          r.prr_width_clbs}) {
        same(ar, v, "RSB parameter");
      }
    }
    std::vector<fabric::ClbRect> floorplan = sys.floorplan_;
    ar.list(floorplan, 4 * 8, [&](auto& r) { rect(ar, r); });
    VAPRES_REQUIRE(floorplan == sys.floorplan_,
                   "restore: PRR floorplan mismatch");
  }

  template <class Ar>
  static void rect(Ar& ar, Ref<Ar, fabric::ClbRect> r) {
    ar.i64(r.row);
    ar.i64(r.col);
    ar.i64(r.height);
    ar.i64(r.width);
  }

  // ---- sim: kernel mode, global time, per-domain clock state.
  // KernelStats are deliberately excluded: restore wakes every component,
  // so edge-delivery accounting diverges while architectural state does
  // not (the quiescent() contract guarantees the extra edges are no-ops).

  /// Leads the section: restore applies the mode before the structural
  /// overlay and re-reads the whole section (clocks()) after it.
  template <class Ar>
  static void kernel_mode(Ar& ar, Ref<Ar, sim::Simulator> s) {
    bool activity_driven = s.activity_driven_;
    ar.boolean(activity_driven);
    if constexpr (Ar::kLoading) s.set_activity_driven(activity_driven);
  }

  template <class Ar>
  static void clocks(Ar& ar, Ref<Ar, sim::Simulator> s) {
    kernel_mode(ar, s);
    ar.u64(s.now_);
    same_count(ar, s.domains().size(), "clock-domain count");
    for (const auto& d : s.domains()) {
      same(ar, d->name_, "clock-domain order");
      ar.u64(d->period_ps_);
      ar.boolean(d->enabled_);
      ar.u64(d->cycle_count_);
      ar.u64(d->anchor_ps_);
    }
  }

  // ---- mb: busy-span machinery and lifetime counters.
  template <class Ar>
  static void microblaze(Ar& ar, Ref<Ar, proc::Microblaze> mb,
                         Ref<Ar, sim::Simulator> s) {
    ar.u64(mb.busy_pending_);
    ar.boolean(mb.busy_anchored_);
    ar.u64(mb.busy_last_cycle_);
    // Absolute remaining delay: at restore "now" need not be edge-aligned,
    // so re-arming through arm_busy_wake() would misplace the expiry edge.
    bool wake_armed = mb.busy_wake_.has_value();
    std::uint64_t wake_delay = 0;
    if (wake_armed && !s.events_.empty()) {
      wake_delay = s.events_.next_time() - s.now_;
    }
    ar.boolean(wake_armed);
    ar.u64(wake_delay);
    ar.u64(mb.total_busy_cycles_);
    ar.u64(mb.interrupts_serviced_);
    if constexpr (Ar::kLoading) {
      if (wake_armed) {
        proc::Microblaze* m = &mb;
        mb.busy_wake_ = s.schedule_after(wake_delay, [m] {
          m->busy_wake_.reset();
          m->wake();
        });
        mb.busy_wake_cycle_ = mb.busy_last_cycle_;
      }
    }
  }

  // ---- dcr / icap / reconfig.
  template <class Ar>
  static void dcr(Ar& ar, Ref<Ar, comm::DcrBus> bus) {
    ar.u64(bus.accesses_);
  }

  template <class Ar>
  static void icap(Ar& ar, Ref<Ar, fabric::IcapPort> port) {
    same(ar, port.port_clock_mhz_, "ICAP port clock");
    ar.i64(port.total_bytes_);
    ar.i64(port.transfers_);
    ar.i64(port.corrupted_);
    ar.i64(port.timed_out_);
  }

  template <class Ar>
  static void reconfig(Ar& ar, Ref<Ar, core::ReconfigManager> rc) {
    ar.boolean(rc.verify_);
    ar.i64(rc.policy_.max_attempts);
    ar.u64(rc.policy_.backoff_base_cycles);
    ar.boolean(rc.policy_.fallback_to_cf);
    ar.f64(rc.last_.storage_cycles);
    ar.f64(rc.last_.icap_cycles);
    ar.i64(rc.completed_);
    ar.i64(rc.retries_);
    ar.i64(rc.fallbacks_);
    ar.i64(rc.failures_);
  }

  // ---- recovery: the system's own recovery and frame-repair counts
  // (the process-wide scoreboard travels in the fault section).
  template <class Ar>
  static void recoveries(Ar& ar, Ref<Ar, core::VapresSystem> sys) {
    for (auto& n : sys.recoveries_) ar.u64(n);
    ar.u64(sys.frame_repairs_);
  }

  // ---- storage: CF files and SDRAM arrays (list order = deterministic),
  // replayed into the fresh stores through their public API.
  template <class Ar>
  static void partial_bitstream(Ar& ar,
                                Ref<Ar, bitstream::PartialBitstream> bs) {
    ar.str(bs.module_id);
    ar.str(bs.target_prr);
    rect(ar, bs.region);
    ar.i64(bs.size_bytes);
    ar.u32(bs.tag);
  }

  template <class Ar, class Store>
  static void stored_bitstreams(Ar& ar, Store& store) {
    std::vector<std::string> names;
    if constexpr (!Ar::kLoading) names = store.list();
    ar.list(names, kStr + 2 * kStr + 5 * 8 + 4, [&](auto& name) {
      ar.str(name);
      bitstream::PartialBitstream bs;
      if constexpr (!Ar::kLoading) bs = store.read(name);
      partial_bitstream(ar, bs);
      if constexpr (Ar::kLoading) store.store(name, bs);
    });
  }

  template <class Ar>
  static void storage(Ar& ar, core::VapresSystem& sys) {
    stored_bitstreams(ar, sys.cf_);
    stored_bitstreams(ar, *sys.sdram_);
  }

  // ---- bitman: cache residency metadata and predictor tables.
  template <class Ar>
  static void bitman_cache(Ar& ar, Ref<Ar, bitman::BitstreamManager> bm) {
    auto& st = bm.stats_;
    ar.u64(st.hits);
    ar.u64(st.misses);
    ar.u64(st.streamed_misses);
    ar.u64(st.evictions);
    ar.i64(st.evicted_bytes);
    ar.u64(st.staged);
    ar.u64(st.replaced);
    ar.u64(st.invalidations);
    ar.u64(st.prefetch_issued);
    ar.u64(st.prefetch_completed);
    ar.u64(st.prefetch_cancelled);
    ar.u64(st.prefetch_useful);
    ar.u64(bm.use_tick_);
    ar.entries(bm.entries_, kStr + 8 + 1 + 1, [&](auto& key, auto& e) {
      ar.str(key);
      ar.u64(e.last_use);
      ar.boolean(e.prefetched);
      ar.boolean(e.demand_hit_seen);
    });
    ar.entries(bm.last_module_, 2 * kStr, [&](auto& prr, auto& mod) {
      ar.str(prr);
      ar.str(mod);
    });
    ar.entries(bm.next_after_, kStr + kList, [&](auto& prr, auto& table) {
      ar.str(prr);
      ar.entries(table, 2 * kStr, [&](auto& last, auto& next) {
        ar.str(last);
        ar.str(next);
      });
    });
  }

  // ---- per-RSB fabric state: boxes, IOMs, PRRs, channels.
  template <class Ar>
  static void flit(Ar& ar, Ref<Ar, comm::Flit> f) {
    ar.u32(f.data);
    ar.boolean(f.valid);
  }

  template <class Ar>
  static void fifo(Ar& ar, Ref<Ar, comm::Fifo> f) {
    ar.words(f.words_);
    ar.u64(f.pushed_);
    ar.u64(f.popped_);
    ar.u64(f.fault_dropped_);
    ar.u64(f.fault_duplicated_);
    ar.i64(f.high_watermark_);
  }

  template <class Ar>
  static void fsl(Ar& ar, Ref<Ar, comm::FslLink> l) {
    fifo(ar, l.fifo_);
  }

  template <class Ar>
  static void producer(Ar& ar, Ref<Ar, comm::ProducerInterface> p) {
    fifo(ar, p.fifo_);
    ar.boolean(p.read_enable_);
    flit(ar, p.output_);
    flit(ar, p.next_output_);
    ar.boolean(p.pop_pending_);
    ar.u64(p.words_sent_);
    ar.u64(p.stall_cycles_);
  }

  template <class Ar>
  static void consumer(Ar& ar, Ref<Ar, comm::ConsumerInterface> c) {
    fifo(ar, c.fifo_);
    ar.boolean(c.write_enable_);
    ar.i64(c.hops_);
    ar.u8(c.policy_);
    ar.boolean(c.full_feedback_);
    ar.boolean(c.next_full_feedback_);
    flit(ar, c.pending_);
    ar.u64(c.words_received_);
    ar.u64(c.words_discarded_);
  }

  /// Switch boxes: input registers, mux selects, outputs, stuck latches.
  /// They lead the RSB section, and restore reads them twice: route
  /// programming after the first pass rewrites mux selects, and the
  /// second pass (after the channels) puts the saved state back.
  template <class Ar>
  static void boxes(Ar& ar, comm::SwitchFabric& fab) {
    same_count(ar, fab.num_boxes(), "switch-box count");
    for (int b = 0; b < fab.num_boxes(); ++b) {
      Ref<Ar, comm::SwitchBox> box = fab.box(b);
      for (std::size_t i = 0; i < box.regs_.size(); ++i) {
        flit(ar, box.regs_[i]);
        flit(ar, box.regs_next_[i]);
      }
      for (std::size_t o = 0; o < box.outputs_.size(); ++o) {
        ar.i64(box.selects_[o]);
        VAPRES_REQUIRE(box.selects_[o] >= -1 &&
                           box.selects_[o] < static_cast<int>(box.regs_.size()),
                       "restore: switch-box select out of range");
        flit(ar, box.outputs_[o]);
        ar.boolean(box.stuck_[o]);
      }
      ar.i64(box.stuck_events_);
      if constexpr (Ar::kLoading) {
        // The overlay may pair outputs with registers they do not show
        // (saved between a select and its commit): the next commit must
        // run in full.
        box.settled_ = false;
        box.stuck_count_ = static_cast<int>(
            std::count(box.stuck_.begin(), box.stuck_.end(), true));
      }
    }
  }

  /// A socket register restores through its DCR slave write (not via
  /// the bus, so DcrBus::accesses_ stays flat).
  template <class Ar, class Slave>
  static void dcr_register(Ar& ar, Slave& slave, std::uint32_t live) {
    ar.u32(live);
    if constexpr (Ar::kLoading) slave.dcr_write(live);
  }

  /// IOMs: socket write first (it toggles interface enables), then the
  /// raw source/sink state the write may have touched. `journaled`: the
  /// blob carries a scheduler section.
  template <class Ar>
  static void iom(Ar& ar, core::Iom& iom, bool journaled) {
    dcr_register(ar, iom.socket(), iom.socket().value());
    ar.u64(iom.history_limit_);
    fsl(ar, *iom.fsl_to_mb_);
    fsl(ar, *iom.fsl_from_mb_);
    same_count(ar, iom.sources_.size(), "IOM source count");
    for (auto& s : iom.sources_) {
      // A live generator is an opaque closure; only scheduler-installed
      // ones (counting word streams) can be rebuilt from its journal.
      bool generator = static_cast<bool>(s.generator);
      ar.boolean(generator);
      VAPRES_REQUIRE(!generator || journaled,
                     "snapshot: live source generator without a scheduler "
                     "journal (pass the owning scheduler)");
      ar.i64(s.interval_cycles);
      ar.u64(s.next_emit_cycle);
      bool has_pending = s.pending.has_value();
      comm::Word pending = s.pending.value_or(0);
      ar.boolean(has_pending);
      ar.u32(pending);
      if constexpr (Ar::kLoading) {
        s.pending = has_pending ? std::optional<comm::Word>(pending)
                                : std::nullopt;
      }
      ar.u64(s.words_emitted);
      ar.u64(s.stalls);
      producer(ar, *s.interface);
    }
    same_count(ar, iom.sinks_.size(), "IOM sink count");
    for (auto& k : iom.sinks_) {
      consumer(ar, *k.interface);
      ar.words(k.received);
      ar.u64(k.words_received);
      ar.u64(k.dropped);
      ar.u64(k.eos_seen);
      ar.boolean(k.have_last_arrival);
      ar.u64(k.last_arrival);
      ar.u64(k.max_gap);
    }
  }

  template <class Ar>
  static void wrapper(Ar& ar, Ref<Ar, hwmodule::ModuleWrapper> wr) {
    ar.u8(wr.phase_);
    ar.boolean(wr.in_reset_);
    ar.boolean(wr.isolated_);
    ar.u64(wr.words_processed_);
    ar.words(wr.state_out_);
    ar.u64(wr.state_cursor_);
    ar.i64(wr.load_remaining_);
    ar.words(wr.state_in_);
  }

  /// PRRs: module occupancy, socket/perf, wrapper protocol, module state
  /// (through the HwModule save/restore hooks), interfaces.
  template <class Ar>
  static void prr(Ar& ar, core::Prr& prr,
                  const hwmodule::ModuleLibrary& library) {
    hwmodule::ModuleWrapper& wr = *prr.wrapper_;
    bool loaded = wr.behavior_ != nullptr;
    ar.boolean(loaded);
    // loaded_module_ can outlive the module (blank_prr unloads the
    // wrapper but keeps the name), so it is its own field.
    ar.str(prr.loaded_module_);
    if constexpr (Ar::kLoading) {
      // The configuration effect; the reconfiguration count it bumps is
      // overlaid next.
      if (loaded) {
        prr.apply_bitstream(bitstream::PartialBitstream::create(
                                prr.loaded_module_, prr.name(), prr.rect()),
                            library);
      }
    }
    ar.i64(prr.reconfigurations_);
    dcr_register(ar, prr.socket(), prr.socket().value());
    std::uint8_t perf_select = static_cast<std::uint8_t>(prr.perf_->selected());
    ar.u8(perf_select);
    if constexpr (Ar::kLoading) prr.perf_->dcr_write(perf_select);
    wrapper(ar, wr);
    if (loaded) {
      hwmodule::ModuleBehavior& b = *wr.behavior_;
      VAPRES_REQUIRE(b.type_id() == prr.loaded_module_,
                     "snapshot: wrapper/module bookkeeping out of sync at " +
                         prr.name());
      std::vector<comm::Word> state = b.save_state();
      std::vector<comm::Word> extra = b.snapshot_extra();
      ar.words(state);
      ar.words(extra);
      if constexpr (Ar::kLoading) {
        if (!state.empty() || !b.save_state().empty()) b.restore_state(state);
        if (!extra.empty() || !b.snapshot_extra().empty()) {
          b.restore_extra(extra);
        }
      }
    }
    for (const auto& c : prr.consumers_) consumer(ar, *c);
    for (const auto& p : prr.producers_) producer(ar, *p);
    fsl(ar, *prr.fsl_to_mb_);
    fsl(ar, *prr.fsl_from_mb_);
  }

  template <class Ar>
  static void route_spec(Ar& ar, Ref<Ar, comm::RouteSpec> spec) {
    ar.i64(spec.producer_box);
    ar.i64(spec.producer_channel);
    ar.i64(spec.consumer_box);
    ar.i64(spec.consumer_channel);
    ar.list(spec.lanes, 8, [&](auto& lane) { ar.i64(lane); });
  }

  /// Re-establishes a saved route under its original ids: replaying
  /// ChannelManager::establish could pick different lanes than the saved
  /// establish/release interleaving did.
  static void reestablish(core::ChannelManager& cm, comm::SwitchFabric& fab,
                          const core::ChannelManager::Entry& e,
                          comm::BackpressurePolicy policy) {
    const comm::RouteSpec& spec = e.spec;
    fab.next_route_id_ = e.route;
    VAPRES_REQUIRE(fab.establish(spec, policy) == e.route,
                   "restore: route id diverged");
    for (int seg = 0; seg < spec.segments(); ++seg) {
      cm.lane_table(cm.physical_segment(spec, seg), spec.rightward())
          [static_cast<std::size_t>(
              spec.lanes[static_cast<std::size_t>(seg)])] = true;
    }
    cm.producers_used_.insert(
        core::ChannelEndpoint{spec.producer_box, spec.producer_channel});
    cm.consumers_used_.insert(
        core::ChannelEndpoint{spec.consumer_box, spec.consumer_channel});
  }

  /// Channels: id, spec, route id, policy, feedback pipeline.
  template <class Ar>
  static void channels(Ar& ar, core::ChannelManager& cm,
                       comm::SwitchFabric& fab) {
    ar.entries(cm.channels_, 4 + 4 * 8 + kList + 4 + 1 + kList + 1,
               [&](auto& id, auto& e) {
      ar.u32(id);
      route_spec(ar, e.spec);
      ar.u32(e.route);
      comm::BackpressurePolicy policy{};
      if constexpr (!Ar::kLoading) {
        policy = fab.routes_.at(e.route).consumer->policy_;
      }
      ar.u8(policy);
      if constexpr (Ar::kLoading) reestablish(cm, fab, e, policy);
      // Establishment built the pipeline freshly cleared.
      comm::SwitchFabric::FeedbackPipeline& fb =
          *fab.routes_.at(e.route).feedback;
      same_count(ar, fb.stages_.size(), "feedback stage count");
      for (auto&& stage : fb.stages_) ar.boolean(stage);
      ar.boolean(fb.output_);
    });
    ar.u32(cm.next_id_);
    ar.u32(fab.next_route_id_);
  }

  template <class Ar>
  static void rsb(Ar& ar, core::Rsb& rsb, bool journaled,
                  const hwmodule::ModuleLibrary& library) {
    boxes(ar, rsb.fabric());
    same_count(ar, rsb.num_ioms(), "IOM count");
    for (int i = 0; i < rsb.num_ioms(); ++i) iom(ar, rsb.iom(i), journaled);
    same_count(ar, rsb.num_prrs(), "PRR count");
    for (int p = 0; p < rsb.num_prrs(); ++p) prr(ar, rsb.prr(p), library);
    channels(ar, rsb.channels(), rsb.fabric());
  }

  // ---- fault: the process-wide injector (RNG stream + scoreboard).
  template <class Ar>
  static void faults(Ar& ar, Ref<Ar, sim::FaultInjector> fi) {
    ar.boolean(fi.enabled_);
    std::uint64_t rng = fi.rng_.state();
    ar.u64(rng);
    if constexpr (Ar::kLoading) fi.rng_.set_state(rng);
    for (auto& sp : fi.sites_) {
      ar.f64(sp.probability);
      ar.u64(sp.armed_at);
      ar.u64(sp.armed_count);
      ar.u64(sp.opportunities);
      ar.u64(sp.injected);
    }
    for (auto& rec : fi.recoveries_) ar.u64(rec);
    // A restored enabled injector must wake the per-commit sites of every
    // live system, not only the one being restored (which is woken whole
    // afterwards): a box asleep on another fabric would otherwise miss
    // its opportunities.
    if constexpr (Ar::kLoading) {
      if (fi.enabled_) fi.wake_commit_sites();
    }
  }

  // ---- obs: the process-wide metrics registry. Only nonzero values are
  // serialized: a restored process may carry extra zero-valued
  // registrations the baseline run lacks at the same point, and those
  // must not change the bytes of a later snapshot. Restore resets the
  // values first (registrations survive).
  template <class Ar>
  static void histogram(Ar& ar, Ref<Ar, obs::Histogram> h) {
    for (auto& b : h.buckets_) ar.u64(b);
    ar.u64(h.count_);
    ar.u64(h.sum_);
    ar.u64(h.min_);
    ar.u64(h.max_);
  }

  template <class Ar>
  static void metrics(Ar& ar) {
    obs::Registry& reg = obs::Registry::instance();
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, std::int64_t>> gauges;
    std::vector<std::string> histograms;
    if constexpr (Ar::kLoading) {
      reg.reset();
    } else {
      const obs::MetricsSnapshot ms = reg.snapshot();
      for (const auto& [name, v] : ms.counters) {
        if (v != 0) counters.emplace_back(name, v);
      }
      for (const auto& [name, v] : ms.gauges) {
        if (v != 0) gauges.emplace_back(name, v);
      }
      for (const auto& h : ms.histograms) {
        if (h.count > 0) histograms.push_back(h.name);
      }
    }
    ar.list(counters, kStr + 8, [&](auto& c) {
      ar.str(c.first);
      ar.u64(c.second);
      if constexpr (Ar::kLoading) reg.counter(c.first).add(c.second);
    });
    ar.list(gauges, kStr + 8, [&](auto& g) {
      ar.str(g.first);
      ar.i64(g.second);
      if constexpr (Ar::kLoading) reg.gauge(g.first).set(g.second);
    });
    ar.list(histograms, kStr + 8 * (obs::Histogram::kBuckets + 4),
            [&](auto& name) {
              ar.str(name);
              histogram(ar, reg.histogram(name));
            });
  }

  // ---- sched (optional): app records, occupancy, counters. Save fills
  // the journal from the live scheduler; both restore paths read it back
  // and apply what they adopt.
  static constexpr std::array kSchedCounters{
      &sched::ApplicationScheduler::first_id_,
      &sched::ApplicationScheduler::preemptions_,
      &sched::ApplicationScheduler::defrag_migrations_,
      &sched::ApplicationScheduler::migration_rollbacks_,
      &sched::ApplicationScheduler::retired_admitted_,
      &sched::ApplicationScheduler::retired_admitted_after_defrag_,
      &sched::ApplicationScheduler::retired_admitted_after_preempt_,
      &sched::ApplicationScheduler::retired_rejected_,
  };

  /// `App` holds each record: restore reads into an owned AppRecord,
  /// save refers to the live scheduler's records instead of copying them.
  template <class App>
  struct Journal {
    sched::ApplicationScheduler::Options opt;
    std::array<int, kSchedCounters.size()> counters{};
    std::vector<sched::PrrSlot> slots;  ///< FabricMap slots (rect unused)
    std::vector<std::vector<bool>> source_busy;  ///< [iom][channel]
    std::vector<std::vector<bool>> sink_busy;
    struct Record {
      App rec;
      /// Whether the source generator is still installed — a
      /// just-exhausted one is nulled only on its next commit, so this
      /// cannot be derived from word counts alone.
      bool generator_live = false;
    };
    std::vector<Record> records;
  };
  using SchedJournal = Journal<sched::AppRecord>;
  using LiveJournal = Journal<std::reference_wrapper<const sched::AppRecord>>;

  template <class Ar>
  static void app_record(Ar& ar, Ref<Ar, sched::AppRecord> rec) {
    ar.i64(rec.id);
    ar.str(rec.request.name);
    ar.list(rec.request.modules, kStr, [&](auto& m) { ar.str(m); });
    ar.i64(rec.request.priority);
    ar.i64(rec.request.source_interval_cycles);
    ar.u64(rec.request.source_words);
    ar.u8(rec.state);
    ar.u8(rec.verdict);
    ar.str(rec.reject_reason);
    ar.i64(rec.source.iom);
    ar.i64(rec.source.channel);
    ar.i64(rec.sink.iom);
    ar.i64(rec.sink.channel);
    ar.list(rec.prrs, 8, [&](auto& p) { ar.i64(p); });
    ar.list(rec.channels, 4, [&](auto& c) { ar.u32(c); });
    ar.list(rec.clocks_mhz, 8, [&](auto& c) { ar.f64(c); });
    ar.u64(rec.submitted_at);
    ar.u64(rec.launched_at);
    ar.u64(rec.stopped_at);
    ar.u64(rec.admission_mb_cycles);
    ar.u64(rec.base_words_emitted);
    ar.u64(rec.base_words_received);
    ar.u64(rec.final_words_in);
    ar.u64(rec.final_words_out);
    ar.i64(rec.migrations);
  }
  /// app_record's encoding with empty strings and lists.
  static constexpr std::size_t kRecordBytes =
      8 + kStr + kList + 3 * 8 + 2 + kStr + 4 * 8 + 3 * kList + 8 * 8 + 8;

  template <class Ar>
  static void busy_table(Ar& ar, Ref<Ar, std::vector<std::vector<bool>>> t) {
    ar.list(t, kList, [&](auto& row) {
      ar.list(row, 1, [&](auto&& busy) { ar.boolean(busy); });
    });
  }

  template <class Ar, class J>
  static void journal(Ar& ar, J& j) {
    ar.i64(j.opt.rsb_index);
    ar.u8(j.opt.policy);
    ar.boolean(j.opt.enable_defrag);
    ar.boolean(j.opt.enable_preemption);
    ar.u8(j.opt.source);
    for (auto& c : j.counters) ar.i64(c);
    ar.list(j.slots, 1 + 8 + 8 + kStr + 8 + 1, [&](auto& s) {
      ar.boolean(s.free);
      ar.i64(s.app_id);
      ar.i64(s.chain_pos);
      ar.str(s.module_id);
      ar.i64(s.module_slices);
      ar.boolean(s.migratable);
    });
    busy_table(ar, j.source_busy);
    busy_table(ar, j.sink_busy);
    ar.list(j.records, kRecordBytes + 1, [&](auto& entry) {
      app_record(ar, entry.rec);
      ar.boolean(entry.generator_live);
    });
  }

  static LiveJournal journal_of(const sched::ApplicationScheduler& sc,
                                core::VapresSystem& sys) {
    LiveJournal j;
    j.opt = sc.opt_;
    for (std::size_t i = 0; i < kSchedCounters.size(); ++i) {
      j.counters[i] = sc.*kSchedCounters[i];
    }
    for (int p = 0; p < sc.map_.num_slots(); ++p) {
      j.slots.push_back(sc.map_.slot(p));
    }
    j.source_busy = sc.source_busy_;
    j.sink_busy = sc.sink_busy_;
    core::Rsb& rsb = sys.rsb(sc.opt_.rsb_index);
    for (const sched::AppRecord& rec : sc.apps_) {
      const bool live =
          rec.running() &&
          static_cast<bool>(
              rsb.iom(rec.source.iom)
                  .sources_[static_cast<std::size_t>(rec.source.channel)]
                  .generator);
      j.records.push_back({std::cref(rec), live});
    }
    return j;
  }

  static SchedJournal read_journal(const SnapshotReader& r) {
    SchedJournal j;
    r.open_section("sched");
    journal(r, j);
    return j;
  }

  /// The fresh scheduler both restore paths start from: journaled
  /// options and counters applied, and every index a running record
  /// carries checked against the live fabric before either path uses it.
  static std::unique_ptr<sched::ApplicationScheduler> scheduler_for(
      const SchedJournal& j, core::VapresSystem& sys) {
    auto sc = std::make_unique<sched::ApplicationScheduler>(sys, j.opt);
    for (std::size_t i = 0; i < kSchedCounters.size(); ++i) {
      (*sc).*kSchedCounters[i] = j.counters[i];
    }
    VAPRES_REQUIRE(static_cast<int>(j.slots.size()) == sc->map_.num_slots(),
                   "restore: fabric-map size mismatch");
    const auto on_fabric = [](const std::vector<std::vector<bool>>& busy,
                              const sched::IomChannelRef& ref) {
      return ref.iom >= 0 && ref.iom < static_cast<int>(busy.size()) &&
             ref.channel >= 0 &&
             ref.channel < static_cast<int>(
                               busy[static_cast<std::size_t>(ref.iom)].size());
    };
    for (const SchedJournal::Record& entry : j.records) {
      const sched::AppRecord& rec = entry.rec;
      if (!rec.running()) continue;
      const auto app = [&rec](const char* what) {
        return "restore: app " + std::to_string(rec.id) + what;
      };
      VAPRES_REQUIRE(on_fabric(sc->source_busy_, rec.source) &&
                         on_fabric(sc->sink_busy_, rec.sink),
                     app(" names an IOM channel the fabric lacks"));
      VAPRES_REQUIRE(rec.request.modules.size() >= rec.prrs.size(),
                     app(" places more PRRs than it has modules"));
      for (const int p : rec.prrs) {
        VAPRES_REQUIRE(p >= 0 && p < sc->map_.num_slots(),
                       app(" names a PRR the fabric lacks"));
      }
    }
    return sc;
  }

  // ---- switch (optional, warm-only): the in-flight protocol journal.
  template <class Ar>
  static void switch_request(Ar& ar, Ref<Ar, core::SwitchRequest> req) {
    ar.i64(req.rsb_index);
    ar.i64(req.src_prr);
    ar.i64(req.dst_prr);
    ar.str(req.new_module_id);
    ar.u32(req.upstream);
    ar.u32(req.downstream);
    ar.i64(req.eos_iom);
    ar.u8(req.source);
  }

  /// The request leads the section: warm restart reads it first to
  /// construct the switcher, then reads the whole section into it.
  template <class Ar>
  static void switcher(Ar& ar, Ref<Ar, core::ModuleSwitcher> sw) {
    switch_request(ar, sw.req_);
    ar.u8(sw.state_);
    auto& t = sw.timeline_;
    ar.u64(t.started);
    ar.u64(t.reconfig_done);
    ar.u64(t.input_rerouted);
    ar.u64(t.state_collected);
    ar.u64(t.module_initialized);
    ar.u64(t.iom_eos_seen);
    ar.u64(t.completed);
    ar.u64(t.aborted);
    ar.boolean(sw.reconfig_complete_);
    ar.boolean(sw.reconfig_ok_);
    ar.words(sw.collected_state_);
    ar.words(sw.monitoring_);
    ar.boolean(sw.saw_header_);
    ar.i64(sw.expected_words_);
    ar.u32(sw.new_upstream_);
    ar.u32(sw.new_downstream_);
  }
};

// ---------------------------------------------------------------------------
// save
// ---------------------------------------------------------------------------

std::string SystemSnapshot::save(core::VapresSystem& sys, std::uint64_t epoch,
                                 const sched::ApplicationScheduler* sched,
                                 const core::ModuleSwitcher* switcher) {
  const bool warm = switcher != nullptr;

  // ---- Quiescence preconditions (cold snapshots only). A warm snapshot
  // journals an in-flight switch: the transfer path, MicroBlaze task list,
  // and event queue are allowed to be busy because a warm restart never
  // rebuilds them from the blob — it reconciles against the live fabric.
  if (!warm) {
    VAPRES_REQUIRE(!sys.reconfig_->busy_ && sys.reconfig_->inflight_ == nullptr,
                   "snapshot: reconfiguration in flight (drain first)");
    VAPRES_REQUIRE(!sys.icap_.busy_, "snapshot: ICAP transfer in flight");
    VAPRES_REQUIRE(sys.mb_->tasks_.empty(),
                   "snapshot: software tasks still registered");
    VAPRES_REQUIRE(sys.mb_->on_idle_ == nullptr,
                   "snapshot: busy-completion callback pending");
    VAPRES_REQUIRE(sys.mb_->intc_ == nullptr,
                   "snapshot: interrupt controller attached");
    VAPRES_REQUIRE(sys.prefetch_->pending() == 0 && !sys.prefetch_->staging(),
                   "snapshot: prefetch engine not idle");
    VAPRES_REQUIRE(sys.bitman_->staging_.empty() &&
                       sys.bitman_->reserved_bytes_ == 0,
                   "snapshot: bitman staging in flight");
    for (const auto& [key, e] : sys.bitman_->entries_) {
      VAPRES_REQUIRE(e.pins == 0, "snapshot: pinned cache entry " + key);
    }
    const bool wake_armed = sys.mb_->busy_wake_.has_value();
    VAPRES_REQUIRE(sys.sim_.events_.pending() == (wake_armed ? 1u : 0u),
                   "snapshot: pending events other than the busy wake");
    if (sys.mb_->busy_anchored_) {
      VAPRES_REQUIRE(wake_armed &&
                         sys.mb_->busy_wake_cycle_ == sys.mb_->busy_last_cycle_,
                     "snapshot: anchored busy span without its wake armed");
    }
  }

  SnapshotWriter w(epoch);
  const auto section = [&w](const std::string& name, const auto& fields) {
    w.begin_section(name);
    fields();
    w.end_section();
  };
  section("meta", [&] { Fields::meta(w, sys); });
  section("sim", [&] { Fields::clocks(w, sys.sim_); });
  section("mb", [&] { Fields::microblaze(w, *sys.mb_, sys.sim_); });
  section("dcr", [&] { Fields::dcr(w, sys.dcr_); });
  section("icap", [&] { Fields::icap(w, sys.icap_); });
  section("reconfig", [&] { Fields::reconfig(w, *sys.reconfig_); });
  section("recovery", [&] { Fields::recoveries(w, sys); });
  section("storage", [&] { Fields::storage(w, sys); });
  section("bitman", [&] { Fields::bitman_cache(w, *sys.bitman_); });
  for (int ri = 0; ri < sys.num_rsbs(); ++ri) {
    section("rsb" + std::to_string(ri), [&] {
      Fields::rsb(w, sys.rsb(ri), sched != nullptr, sys.library_);
    });
  }
  section("fault", [&] { Fields::faults(w, sim::FaultInjector::instance()); });
  section("obs", [&] { Fields::metrics(w); });
  if (sched != nullptr) {
    section("sched", [&] {
      const Fields::LiveJournal j = Fields::journal_of(*sched, sys);
      Fields::journal(w, j);
    });
  }
  if (switcher != nullptr) {
    section("switch", [&] { Fields::switcher(w, *switcher); });
  }
  return w.finish();
}

// ---------------------------------------------------------------------------
// blob probes
// ---------------------------------------------------------------------------

std::uint64_t SystemSnapshot::epoch(const std::string& blob) {
  return SnapshotReader(blob).epoch();
}

bool SystemSnapshot::has_scheduler(const std::string& blob) {
  return SnapshotReader(blob).has_section("sched");
}

bool SystemSnapshot::has_switch(const std::string& blob) {
  return SnapshotReader(blob).has_section("switch");
}

// ---------------------------------------------------------------------------
// cold restore
// ---------------------------------------------------------------------------

std::unique_ptr<core::VapresSystem> SystemSnapshot::restore_system(
    const std::string& blob, core::SystemParams params,
    hwmodule::ModuleLibrary library) {
  const SnapshotReader r(blob);
  VAPRES_REQUIRE(!r.has_section("switch"),
                 "cold restore refuses a warm snapshot (in-flight switch "
                 "journal); use warm_restart against the live fabric");
  const bool journaled = r.has_section("sched");

  // Sections are applied in dependency order, not blob order.
  auto sys = std::make_unique<core::VapresSystem>(std::move(params),
                                                  std::move(library));
  r.open_section("meta");
  Fields::meta(r, *sys);
  r.open_section("sim");
  Fields::kernel_mode(r, sys->sim_);
  r.open_section("storage");
  Fields::storage(r, *sys);

  // Per-RSB structural + raw restore: module loads, socket writes, route
  // re-establishment, then the switch-box overlay.
  for (int ri = 0; ri < sys->num_rsbs(); ++ri) {
    core::Rsb& rsb = sys->rsb(ri);
    const std::string name = "rsb" + std::to_string(ri);
    r.open_section(name);
    Fields::rsb(r, rsb, journaled, sys->library_);
    r.open_section(name);
    Fields::boxes(r, rsb.fabric());
  }

  // Clocks and global time after the socket CLK writes retuned the PRR
  // domains; the MicroBlaze busy wake is re-armed relative to that time.
  r.open_section("sim");
  Fields::clocks(r, sys->sim_);
  r.open_section("mb");
  Fields::microblaze(r, *sys->mb_, sys->sim_);
  r.open_section("dcr");
  Fields::dcr(r, sys->dcr_);
  r.open_section("icap");
  Fields::icap(r, sys->icap_);
  r.open_section("reconfig");
  Fields::reconfig(r, *sys->reconfig_);
  r.open_section("recovery");
  Fields::recoveries(r, *sys);
  r.open_section("bitman");
  Fields::bitman_cache(r, *sys->bitman_);
  r.open_section("fault");
  Fields::faults(r, sim::FaultInjector::instance());
  // Metrics last: no earlier step may disturb the restored values.
  r.open_section("obs");
  Fields::metrics(r);

  // ---- Wake everything: the first post-restore tick re-evaluates all
  // activity flags, so nothing sleeps through state it should act on.
  for (const auto& d : sys->sim_.domains()) {
    for (sim::Clocked* c : d->components_) {
      if (c != nullptr) c->wake();
    }
  }

  return sys;
}

// ---------------------------------------------------------------------------
// scheduler restore (cold path, over a just-restored system)
// ---------------------------------------------------------------------------

std::unique_ptr<sched::ApplicationScheduler> SystemSnapshot::restore_scheduler(
    const std::string& blob, core::VapresSystem& sys) {
  const SnapshotReader r(blob);
  VAPRES_REQUIRE(r.has_section("sched"),
                 "restore_scheduler: no scheduler section in snapshot");
  Fields::SchedJournal j = Fields::read_journal(r);
  auto sched = Fields::scheduler_for(j, sys);

  for (std::size_t p = 0; p < j.slots.size(); ++p) {
    const sched::PrrSlot& s = j.slots[p];
    if (!s.free) {
      sched->map_.occupy(static_cast<int>(p), s.app_id, s.chain_pos,
                         s.module_id, s.module_slices, s.migratable);
    }
  }
  const auto same_shape = [](const std::vector<std::vector<bool>>& a,
                             const std::vector<std::vector<bool>>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].size() != b[i].size()) return false;
    }
    return true;
  };
  VAPRES_REQUIRE(same_shape(j.source_busy, sched->source_busy_) &&
                     same_shape(j.sink_busy, sched->sink_busy_),
                 "restore: IOM channel-busy table shape mismatch");
  sched->source_busy_ = std::move(j.source_busy);
  sched->sink_busy_ = std::move(j.sink_busy);

  // Re-install each running app's counting source generator with its
  // remaining word budget — the exact closure the scheduler installs at
  // launch, resumed at word n0. Assigned directly (not via
  // set_source_generator, which would reset pending/next_emit_cycle).
  core::Rsb& rsb = sys.rsb(j.opt.rsb_index);
  for (const Fields::SchedJournal::Record& entry : j.records) {
    sched->apps_.push_back(entry.rec);
    if (entry.rec.running() && entry.generator_live) {
      const sched::AppRecord& rec = entry.rec;
      core::Iom& iom = rsb.iom(rec.source.iom);
      auto& src = iom.sources_[static_cast<std::size_t>(rec.source.channel)];
      const std::uint64_t limit = rec.request.source_words;
      const std::uint64_t n0 = (src.words_emitted - rec.base_words_emitted) +
                               (src.pending.has_value() ? 1 : 0);
      src.generator = [n = n0, limit]() mutable -> std::optional<comm::Word> {
        if (limit > 0 && n >= limit) return std::nullopt;
        // Mask below the all-ones EOS word so data is never EOS.
        return static_cast<comm::Word>((n++) & 0x7FFFFFFFu);
      };
      iom.wake();
    }
  }
  return sched;
}

// ---------------------------------------------------------------------------
// warm restart
// ---------------------------------------------------------------------------

WarmRestart SystemSnapshot::warm_restart(const std::string& blob,
                                         core::VapresSystem& sys) {
  const SnapshotReader r(blob);
  WarmRestart out;
  VAPRES_REQUIRE(r.has_section("sched"),
                 "warm_restart: no scheduler journal in snapshot");
  const Fields::SchedJournal j = Fields::read_journal(r);
  auto sched = Fields::scheduler_for(j, sys);

  // ---- Switch journal (optional): read before reconciling so adopted
  // apps can map journaled channel ids across a completed re-route.
  std::unique_ptr<core::ModuleSwitcher> sw;
  if (r.has_section("switch")) {
    core::SwitchRequest req;
    r.open_section("switch");
    Fields::switch_request(r, req);
    const int prrs = sys.rsb(req.rsb_index).num_prrs();
    VAPRES_REQUIRE(req.src_prr >= 0 && req.src_prr < prrs &&
                       req.dst_prr >= 0 && req.dst_prr < prrs,
                   "restore: switch journal names a PRR the fabric lacks");
    sw = std::make_unique<core::ModuleSwitcher>(sys, std::move(req));
    r.open_section("switch");
    Fields::switcher(r, *sw);
  }

  // Channel substitution: a crash after a re-route leaves journaled app
  // records naming the pre-switch channel while the fabric carries the
  // re-routed one.
  std::map<core::ChannelId, core::ChannelId> subst;
  if (sw != nullptr) {
    if (sw->new_upstream_ != 0) subst[sw->req_.upstream] = sw->new_upstream_;
    if (sw->new_downstream_ != 0) {
      subst[sw->req_.downstream] = sw->new_downstream_;
    }
  }

  // ---- Adopt the records that match the live fabric.
  core::Rsb& rsb = sys.rsb(j.opt.rsb_index);
  for (const Fields::SchedJournal::Record& entry : j.records) {
    sched::AppRecord rec = entry.rec;
    if (!rec.running()) {
      sched->apps_.push_back(std::move(rec));
      continue;
    }
    // Verify the journal against the live fabric: every placed module
    // must still occupy its PRR, every channel must still be routed.
    bool match = true;
    std::string why;
    for (std::size_t pos = 0; pos < rec.prrs.size(); ++pos) {
      core::Prr& prr = rsb.prr(rec.prrs[pos]);
      if (!prr.occupied() || prr.loaded_module() != rec.request.modules[pos]) {
        match = false;
        why = "PRR " + prr.name() + " no longer hosts " +
              rec.request.modules[pos];
        break;
      }
    }
    int live_channels = 0;
    if (match) {
      for (core::ChannelId& ch : rec.channels) {
        const auto it = subst.find(ch);
        if (it != subst.end()) ch = it->second;  // adopt re-routed id
        if (!rsb.channels().active(ch)) {
          match = false;
          why = "channel " + std::to_string(ch) + " is not routed";
          break;
        }
        ++live_channels;
      }
    }
    if (match) {
      // The fabric survived, so a live generator closure is still running
      // inside its IOM — nothing to re-install on warm restart.
      for (std::size_t pos = 0; pos < rec.prrs.size(); ++pos) {
        const int p = rec.prrs[pos];
        const sched::PrrSlot& slot = j.slots[static_cast<std::size_t>(p)];
        // Journaled slot metadata for this PRR, keyed by the owning app.
        if (!slot.free && slot.app_id == rec.id) {
          sched->map_.occupy(p, slot.app_id, slot.chain_pos, slot.module_id,
                             slot.module_slices, slot.migratable);
        } else {
          sched->map_.occupy(p, rec.id, static_cast<int>(pos),
                             rec.request.modules[pos], 0, false);
        }
      }
      sched->source_busy_[static_cast<std::size_t>(rec.source.iom)]
                         [static_cast<std::size_t>(rec.source.channel)] = true;
      sched->sink_busy_[static_cast<std::size_t>(rec.sink.iom)]
                       [static_cast<std::size_t>(rec.sink.channel)] = true;
      ++out.report.adopted_apps;
      out.report.adopted_channels += live_channels;
      out.report.notes.push_back("adopted app " + std::to_string(rec.id) +
                                 " (" + rec.request.name + ")");
    } else {
      // The fabric contradicts the journal: downgrade, never reset the
      // fabric side — whatever stream still flows there keeps flowing.
      rec.state = sched::AppState::kStopped;
      rec.reject_reason = "warm-restart mismatch: " + why;
      ++out.report.mismatches;
      out.report.notes.push_back("downgraded app " + std::to_string(rec.id) +
                                 ": " + why);
    }
    sched->apps_.push_back(std::move(rec));
  }

  // ---- In-flight switch: resume from the journaled step, or roll back.
  if (sw != nullptr) {
    using St = core::ModuleSwitcher::State;
    core::Rsb& srsb = sys.rsb(sw->req_.rsb_index);
    if (sw->state_ == St::kReconfiguring) {
      // The crash interrupted step 3: the new module is still outside the
      // processing path (no channel moved yet), so rollback is the safe
      // default — let any in-flight PR land, then discard its effect.
      sys.drain_transfer_path();
      core::Prr& dst = srsb.prr(sw->req_.dst_prr);
      if (dst.wrapper().loaded()) dst.wrapper().unload();
      dst.loaded_module_.clear();
      const comm::DcrValue clear_bits =
          core::PrSocket::kSmEn | core::PrSocket::kClkEn |
          core::PrSocket::kFifoWen | core::PrSocket::kFifoRen |
          core::PrSocket::kPrrReset;
      dst.socket().dcr_write(dst.socket().value() & ~clear_bits);
      sys.note_recovery(sim::RecoveryEvent::kSwitchRollback);
      obs::Registry::instance().counter("switch.rollbacks").add(1);
      out.report.switch_rolled_back = true;
      out.report.notes.push_back(
          "rolled back in-flight switch (crashed during PR of " +
          sw->req_.new_module_id + ")");
    } else if (sw->state_ == St::kDone || sw->state_ == St::kAborted ||
               sw->state_ == St::kIdle) {
      out.report.notes.push_back("journaled switch already terminal");
    } else {
      // Steps 4-9: the PR completed before the crash; the journaled
      // switcher finishes the protocol.
      sw->reconfig_complete_ = true;
      sw->obs_track_ = obs::EventBus::instance().track(
          srsb.prr(sw->req_.src_prr).name() + ".switch");
      sw->enter_step(step_code_for(sw->state_));
      sys.mb().add_task(sw.get());
      out.report.switch_resumed = true;
      out.report.notes.push_back("resumed in-flight switch at step " +
                                 std::to_string(step_code_for(sw->state_)));
      out.switcher = std::move(sw);
    }
  }

  out.scheduler = std::move(sched);
  return out;
}

}  // namespace vapres::snap
