#include "core/stats.hpp"

#include <sstream>

#include "sim/fault.hpp"

namespace vapres::core {

std::uint64_t SystemStats::total_discarded() const {
  std::uint64_t n = 0;
  for (const SiteStats& s : sites) n += s.words_discarded;
  return n;
}

double SystemStats::mb_utilization() const {
  return system_cycles == 0
             ? 0.0
             : static_cast<double>(mb_busy_cycles) /
                   static_cast<double>(system_cycles);
}

std::string SystemStats::to_string() const {
  std::ostringstream os;
  os << "=== system statistics @ cycle " << system_cycles << " ===\n";
  os << "MicroBlaze busy: " << mb_busy_cycles << " cycles ("
     << static_cast<int>(100.0 * mb_utilization()) << "%), DCR accesses: "
     << dcr_accesses << "\n";
  os << "ICAP: " << reconfigurations << " reconfigurations, " << icap_bytes
     << " bytes configured\n";
  os << "active channels: " << active_channels << ", words discarded: "
     << total_discarded() << "\n";
  os << "sim kernel: " << kernel.edges_delivered << " edges delivered, "
     << kernel.edges_skipped << " skipped, " << kernel.domain_sleeps
     << " domain sleeps, " << kernel.component_wakes << " wakes; cycles "
     << kernel.cycles_active << " active / " << kernel.cycles_quiescent
     << " quiescent\n";
  for (const DomainStats& d : domains) {
    os << "  domain " << d.name << " @ " << d.frequency_mhz << " MHz: "
       << d.cycles << " cycles (" << d.cycles_active << " active, "
       << d.cycles_quiescent << " quiescent), " << d.sleeps << " sleeps\n";
  }
  for (const SiteStats& s : sites) {
    os << "  " << s.name;
    if (s.is_prr) {
      os << " [" << (s.loaded_module.empty() ? "empty" : s.loaded_module)
         << ", " << s.reconfigurations << " PRs]";
    }
    os << ": in " << s.words_in << ", out " << s.words_out;
    if (s.stall_cycles > 0) os << ", stalled " << s.stall_cycles;
    if (s.words_discarded > 0) os << ", DISCARDED " << s.words_discarded;
    os << "\n";
  }
  for (const FifoStats& f : fifos) {
    if (f.pushed == 0) continue;
    os << "  fifo " << f.name << ": " << f.pushed << " pushed, " << f.popped
       << " popped, watermark " << f.high_watermark << "/" << f.capacity;
    if (f.fault_dropped > 0) os << ", fault-dropped " << f.fault_dropped;
    if (f.fault_duplicated > 0) os << ", fault-dup " << f.fault_duplicated;
    os << "\n";
  }
  const bitman::BitmanStats& bc = bitcache;
  if (bc.hits + bc.misses + bc.staged > 0) {
    os << "bitstream cache: " << bc.hits << " hits / " << bc.misses
       << " misses (" << static_cast<int>(100.0 * bc.hit_rate())
       << "% hit rate), " << bc.evictions << " evictions ("
       << bc.evicted_bytes << " bytes), " << bc.staged << " staged ("
       << bc.replaced << " replaced), " << bc.invalidations
       << " invalidated\n";
    os << "  prefetch: " << bc.prefetch_issued << " issued, "
       << bc.prefetch_completed << " completed, " << bc.prefetch_useful
       << " useful, " << bc.prefetch_cancelled << " cancelled; streamed "
       << "misses: " << bc.streamed_misses << "\n";
  }
  const RobustnessStats& rb = robustness;
  if (rb.faults_injected > 0 || rb.total_recoveries() > 0 ||
      rb.reconfig_failures > 0) {
    os << "robustness: " << rb.faults_injected << " faults injected, "
       << rb.total_recoveries() << " recoveries\n";
    os << "  icap: " << rb.icap_corrupted << " corrupted, "
       << rb.icap_timeouts << " timed out\n";
    os << "  reconfig: " << rb.reconfig_retries << " retries, "
       << rb.source_fallbacks << " source fallbacks, "
       << rb.reconfig_failures << " permanent failures\n";
    os << "  switching: " << rb.switch_rollbacks << " rollbacks\n";
    os << "  scrubber: " << rb.scrub_repairs << " repairs, stuck ports now: "
       << rb.stuck_ports << "\n";
    os << "  fifo faults: " << rb.fifo_words_dropped << " dropped, "
       << rb.fifo_words_duplicated << " duplicated\n";
  }
  return os.str();
}

namespace {

FifoStats fifo_stats(const comm::Fifo& f) {
  return FifoStats{f.name(),         f.total_pushed(),  f.total_popped(),
                   f.high_watermark(), f.capacity(),
                   f.fault_dropped(), f.fault_duplicated()};
}

}  // namespace

SystemStats collect_stats(VapresSystem& sys) {
  SystemStats stats;
  stats.system_cycles = sys.system_clock().cycle_count();
  stats.mb_busy_cycles = sys.mb().total_busy_cycles();
  stats.dcr_accesses = sys.dcr().total_accesses();
  stats.icap_bytes = sys.icap().total_bytes_configured();
  stats.reconfigurations = sys.icap().completed_transfers();
  stats.kernel = sys.sim().kernel_stats();
  stats.bitcache = sys.bitman().stats();
  for (const auto& d : sys.sim().domains()) {
    DomainStats ds;
    ds.name = d->name();
    ds.frequency_mhz = d->frequency_mhz();
    ds.cycles = d->cycle_count();
    ds.cycles_active = d->kernel_stats().cycles_active;
    ds.cycles_quiescent = d->kernel_stats().cycles_quiescent;
    ds.sleeps = d->kernel_stats().domain_sleeps;
    stats.domains.push_back(std::move(ds));
  }

  RobustnessStats& rb = stats.robustness;
  rb.icap_corrupted = sys.icap().corrupted_transfers();
  rb.icap_timeouts = sys.icap().timed_out_transfers();
  rb.reconfig_retries = sys.reconfig().retries();
  rb.source_fallbacks = sys.reconfig().fallbacks();
  rb.reconfig_failures = sys.reconfig().failures();
  rb.switch_rollbacks = sys.recoveries(sim::RecoveryEvent::kSwitchRollback);
  rb.scrub_repairs = sys.recoveries(sim::RecoveryEvent::kScrubRepair);

  std::uint64_t stuck_events = 0;
  for (int r = 0; r < sys.num_rsbs(); ++r) {
    Rsb& rsb = sys.rsb(r);
    stats.active_channels += rsb.channels().active_count();
    for (int i = 0; i < rsb.num_ioms(); ++i) {
      Iom& iom = rsb.iom(i);
      SiteStats site;
      site.name = iom.name();
      for (int c = 0; c < iom.num_consumers(); ++c) {
        site.words_in += iom.consumer(c).words_received();
        site.words_discarded += iom.consumer(c).words_discarded();
        stats.fifos.push_back(fifo_stats(iom.consumer(c).fifo()));
      }
      for (int c = 0; c < iom.num_producers(); ++c) {
        site.words_out += iom.producer(c).words_sent();
        site.stall_cycles += iom.producer(c).stall_cycles();
        stats.fifos.push_back(fifo_stats(iom.producer(c).fifo()));
      }
      stats.sites.push_back(site);
    }
    for (int p = 0; p < rsb.num_prrs(); ++p) {
      Prr& prr = rsb.prr(p);
      SiteStats site;
      site.name = prr.name();
      site.is_prr = true;
      site.loaded_module = prr.loaded_module();
      site.reconfigurations = prr.reconfiguration_count();
      for (int c = 0; c < prr.num_consumers(); ++c) {
        site.words_in += prr.consumer(c).words_received();
        site.words_discarded += prr.consumer(c).words_discarded();
        stats.fifos.push_back(fifo_stats(prr.consumer(c).fifo()));
      }
      for (int c = 0; c < prr.num_producers(); ++c) {
        site.words_out += prr.producer(c).words_sent();
        site.stall_cycles += prr.producer(c).stall_cycles();
        stats.fifos.push_back(fifo_stats(prr.producer(c).fifo()));
      }
      stats.sites.push_back(site);
    }
    comm::SwitchFabric& fabric = rsb.fabric();
    for (int b = 0; b < fabric.num_boxes(); ++b) {
      rb.stuck_ports +=
          static_cast<std::uint64_t>(fabric.box(b).stuck_output_count());
      stuck_events += static_cast<std::uint64_t>(fabric.box(b).stuck_events());
    }
  }
  for (const FifoStats& f : stats.fifos) {
    rb.fifo_words_dropped += f.fault_dropped;
    rb.fifo_words_duplicated += f.fault_duplicated;
  }
  // Faults that landed on this system, site by site: the process-wide
  // injector also counts every other system's.
  rb.faults_injected = rb.icap_corrupted + rb.icap_timeouts +
                       rb.fifo_words_dropped + rb.fifo_words_duplicated +
                       stuck_events + sys.frame_repairs();
  return stats;
}

std::string SchedulerAccounting::to_string() const {
  std::ostringstream os;
  os << "=== scheduler accounting ===\n";
  os << "submitted " << submitted << ", admitted " << admitted << " (defrag "
     << admitted_after_defrag << ", preempt " << admitted_after_preempt
     << "), rejected " << rejected << "\n";
  os << "preemptions " << preemptions << ", migrations " << defrag_migrations
     << " (+" << migration_rollbacks << " rolled back), fabric utilization "
     << static_cast<int>(100.0 * fabric_utilization) << "%\n";
  for (const AppAccounting& a : apps) {
    os << "  #" << a.app_id << " " << a.name << " prio " << a.priority << " ["
       << a.state << "/" << a.verdict << "] slices " << a.module_slices
       << ", words " << a.words_in << "->" << a.words_out << ", migrations "
       << a.migrations << ", admission " << a.admission_mb_cycles
       << " MB cycles, t=" << a.submitted_at << "/" << a.launched_at << "/"
       << a.stopped_at << "\n";
  }
  return os.str();
}

}  // namespace vapres::core
