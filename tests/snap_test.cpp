// Checkpoint/restore subsystem (snap/): byte-determinism of cold
// restore, warm-restart reconciliation against a live fabric, resume/
// rollback of an in-flight 9-step module switch from every journaled
// step, corrupt-blob rejection, reader hardening against single-byte
// edits, and byte-layout pins (ctest label: snap).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/scrubber.hpp"
#include "core/stats.hpp"
#include "core/switching.hpp"
#include "core/system.hpp"
#include "load/soak.hpp"
#include "obs/metrics.hpp"
#include "sched/scheduler.hpp"
#include "sim/check.hpp"
#include "sim/fault.hpp"
#include "snap/format.hpp"
#include "snap/system_snapshot.hpp"

namespace vapres::snap {
namespace {

using comm::Word;

/// The scheduler test floorplan: four PRRs, three IOMs, three lanes.
core::SystemParams quad_params() {
  core::SystemParams p;
  p.name = "snapsys";
  core::RsbParams& r = p.rsbs[0];
  r.num_prrs = 4;
  r.num_ioms = 3;
  r.ki = 1;
  r.ko = 1;
  r.kr = 3;
  r.kl = 3;
  p.prr_rects = {fabric::ClbRect{0, 0, 16, 10},
                 fabric::ClbRect{16, 0, 16, 4},
                 fabric::ClbRect{32, 0, 16, 10},
                 fabric::ClbRect{48, 0, 16, 4}};
  return p;
}

sched::AppRequest make_app(const std::string& name,
                           std::vector<std::string> modules,
                           int interval = 4, std::uint64_t words = 0) {
  sched::AppRequest req;
  req.name = name;
  req.modules = std::move(modules);
  req.priority = 1;
  req.source_interval_cycles = interval;
  req.source_words = words;
  return req;
}

/// Drives the system to the cold-snapshot barrier: no reconfiguration,
/// staging, or prefetch in flight (the same barrier load/soak.cpp uses).
void quiesce(core::VapresSystem& sys) {
  sys.drain_transfer_path();
  while (sys.prefetch().pending() > 0 || sys.prefetch().staging()) {
    sys.run_system_cycles(64);
  }
}

/// First byte offset where two blobs differ (for failure diagnostics).
std::string first_difference(const std::string& a, const std::string& b) {
  if (a == b) return "identical";
  const std::size_t n = std::min(a.size(), b.size());
  std::size_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  return "sizes " + std::to_string(a.size()) + "/" + std::to_string(b.size()) +
         ", first difference at byte " + std::to_string(i);
}

TEST(Snap, EpochAndSectionProbes) {
  core::VapresSystem sys(quad_params());
  sys.bring_up_all_sites();
  quiesce(sys);
  const std::string blob = SystemSnapshot::save(sys, 42);
  EXPECT_EQ(SystemSnapshot::epoch(blob), 42u);
  EXPECT_FALSE(SystemSnapshot::has_scheduler(blob));
  EXPECT_FALSE(SystemSnapshot::has_switch(blob));

  sched::ApplicationScheduler sched(sys);
  const std::string blob2 = SystemSnapshot::save(sys, 43, &sched);
  EXPECT_EQ(SystemSnapshot::epoch(blob2), 43u);
  EXPECT_TRUE(SystemSnapshot::has_scheduler(blob2));
  EXPECT_FALSE(SystemSnapshot::has_switch(blob2));
}

TEST(Snap, RejectsCorruptAndTruncatedBlobs) {
  core::VapresSystem sys(quad_params());
  sys.bring_up_all_sites();
  quiesce(sys);
  const std::string blob = SystemSnapshot::save(sys, 1);

  // Flip one byte in the middle of the payload: a section digest must
  // catch it.
  std::string corrupt = blob;
  corrupt[corrupt.size() / 2] ^= 0x40;
  EXPECT_THROW(SnapshotReader{corrupt}, ModelError);

  // Truncation at any of several points must be rejected, not read past.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{4}, blob.size() / 4, blob.size() - 1}) {
    EXPECT_THROW(SnapshotReader{blob.substr(0, keep)}, ModelError)
        << "truncated to " << keep << " bytes";
  }

  // Wrong magic.
  std::string magic = blob;
  magic[0] ^= 0xFF;
  EXPECT_THROW(SnapshotReader{magic}, ModelError);

  // A blob of the previous layout version is refused, not misread.
  std::string v1 = blob;
  v1.replace(4, 4, std::string("\x01\x00\x00\x00", 4));
  try {
    SnapshotReader{v1};
    ADD_FAILURE() << "version-1 blob accepted";
  } catch (const ModelError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported snapshot version 1"),
              std::string::npos)
        << e.what();
  }
}

// The system's own recovery counts travel in the blob: a cold-restored
// system reports the switch rollbacks, scrub repairs and frame repairs
// (part of its faults_injected) it had, instead of restarting at 0.
TEST(Snap, RecoveryCountsRoundTrip) {
  core::VapresSystem sys(quad_params());
  sys.bring_up_all_sites();
  {
    sim::ScopedFaultInjection faults(0x5EEDu);
    faults->arm(sim::FaultSite::kConfigFrameUpset, /*nth=*/0, /*count=*/2);
    core::ScrubberTask scrub(sys, /*period_cycles=*/500);
    scrub.start();
    sys.run_system_cycles(3000);
    sys.mb().remove_task(&scrub);
    ASSERT_EQ(scrub.frame_repairs(), 2u);
  }
  sys.note_recovery(sim::RecoveryEvent::kSwitchRollback);
  quiesce(sys);
  const core::SystemStats before = core::collect_stats(sys);
  ASSERT_EQ(before.robustness.scrub_repairs, 2u);
  ASSERT_EQ(before.robustness.switch_rollbacks, 1u);
  ASSERT_EQ(before.robustness.faults_injected, 2u);

  auto restored = SystemSnapshot::restore_system(
      SystemSnapshot::save(sys, 1), quad_params());
  const core::SystemStats after = core::collect_stats(*restored);
  EXPECT_EQ(after.robustness.scrub_repairs, 2u);
  EXPECT_EQ(after.robustness.switch_rollbacks, 1u);
  EXPECT_EQ(after.robustness.faults_injected, 2u);
}

TEST(Snap, ColdRestoreVerifiesParams) {
  core::VapresSystem sys(quad_params());
  sys.bring_up_all_sites();
  quiesce(sys);
  const std::string blob = SystemSnapshot::save(sys, 1);

  core::SystemParams wrong = quad_params();
  wrong.name = "otherbox";
  EXPECT_THROW(SystemSnapshot::restore_system(blob, wrong), ModelError);

  wrong = quad_params();
  wrong.rsbs[0].fifo_depth += 1;
  EXPECT_THROW(SystemSnapshot::restore_system(blob, wrong), ModelError);
}

// The tentpole determinism gate: checkpoint mid-stream, restore into a
// fresh system, run both the original and the restored system the same
// number of cycles — the two final snapshots must be byte-identical.
TEST(Snap, ColdRestoreIsByteDeterministic) {
  obs::Registry::instance().reset();
  core::VapresSystem sys(quad_params());
  sys.bring_up_all_sites();
  sched::ApplicationScheduler sched(sys);

  // One still-streaming finite app, one already-exhausted one, one
  // unbounded one — the generator re-install has to handle all three.
  const int a = sched.submit(make_app("finite", {"gain_x2"}, 4, 5000));
  const int b = sched.submit(make_app("done", {"passthrough"}, 4, 32));
  const int c = sched.submit(make_app("endless", {"gain_half"}, 8, 0));
  sched.run_admission();
  ASSERT_TRUE(sched.app(a).running());
  ASSERT_TRUE(sched.app(b).running());
  ASSERT_TRUE(sched.app(c).running());
  sys.run_system_cycles(2000);  // "done" has emitted all 32 words by now
  quiesce(sys);

  const std::string blob0 = SystemSnapshot::save(sys, 7, &sched);

  // Uninterrupted continuation.
  sys.run_system_cycles(5000);
  const std::string blob1 = SystemSnapshot::save(sys, 8, &sched);

  // Restore-then-run continuation.
  auto sys2 = SystemSnapshot::restore_system(blob0, quad_params());
  auto sched2 = SystemSnapshot::restore_scheduler(blob0, *sys2);
  sys2->run_system_cycles(5000);
  const std::string blob1r = SystemSnapshot::save(*sys2, 8, sched2.get());

  EXPECT_TRUE(blob1 == blob1r) << first_difference(blob1, blob1r);

  // The restored run's streams behaved identically in detail too.
  EXPECT_EQ(sched.app(a).running(), sched2->app(a).running());
  EXPECT_EQ(sched.received_words(c), sched2->received_words(c));
}

// Restoring twice from the same blob yields byte-identical snapshots
// immediately (no hidden dependence on pre-restore process state).
TEST(Snap, RestoreIsReproducible) {
  obs::Registry::instance().reset();
  core::VapresSystem sys(quad_params());
  sys.bring_up_all_sites();
  sched::ApplicationScheduler sched(sys);
  sched.submit(make_app("app", {"gain_x2"}, 4, 1000));
  sched.run_admission();
  sys.run_system_cycles(500);
  quiesce(sys);
  const std::string blob = SystemSnapshot::save(sys, 3, &sched);

  auto r1 = SystemSnapshot::restore_system(blob, quad_params());
  auto s1 = SystemSnapshot::restore_scheduler(blob, *r1);
  const std::string again1 = SystemSnapshot::save(*r1, 3, s1.get());

  auto r2 = SystemSnapshot::restore_system(blob, quad_params());
  auto s2 = SystemSnapshot::restore_scheduler(blob, *r2);
  const std::string again2 = SystemSnapshot::save(*r2, 3, s2.get());

  EXPECT_TRUE(blob == again1) << first_difference(blob, again1);
  EXPECT_TRUE(again1 == again2) << first_difference(again1, again2);
}

// SystemStats counters and obs::Registry metrics must round-trip the
// snapshot (kernel edge-delivery accounting is excluded by design: the
// restore wakes every component once).
TEST(Snap, StatsAndMetricsRoundTrip) {
  obs::Registry::instance().reset();
  core::VapresSystem sys(quad_params());
  sys.bring_up_all_sites();
  sched::ApplicationScheduler sched(sys);
  sched.submit(make_app("app", {"ma8", "gain_x2"}, 4, 2000));
  sched.run_admission();
  sys.run_system_cycles(3000);
  quiesce(sys);

  obs::Registry::instance().counter("test.extra.counter").add(17);
  obs::Registry::instance().gauge("test.extra.gauge").set(-4);
  obs::Registry::instance().histogram("test.extra.hist").record(123);
  obs::Registry::instance().histogram("test.extra.hist").record(99999);

  const std::string blob = SystemSnapshot::save(sys, 1, &sched);
  const core::SystemStats before = core::collect_stats(sys);
  const obs::MetricsSnapshot ms_before = obs::Registry::instance().snapshot();

  // Post-save drift the restore must erase.
  obs::Registry::instance().counter("test.extra.counter").add(1000);
  obs::Registry::instance().histogram("test.extra.hist").record(1);

  auto sys2 = SystemSnapshot::restore_system(blob, quad_params());
  const core::SystemStats after = core::collect_stats(*sys2);
  const obs::MetricsSnapshot ms_after = obs::Registry::instance().snapshot();

  // Registry: every nonzero metric identical, histograms to the raw
  // bucket (count/sum/min/max/percentiles all derive from them).
  std::map<std::string, std::uint64_t> counters_before, counters_after;
  for (const auto& [n, v] : ms_before.counters) {
    if (v != 0) counters_before[n] = v;
  }
  for (const auto& [n, v] : ms_after.counters) {
    if (v != 0) counters_after[n] = v;
  }
  EXPECT_EQ(counters_before, counters_after);
  for (const auto& h : ms_before.histograms) {
    if (h.count == 0) continue;
    SCOPED_TRACE(h.name);
    const obs::Histogram& restored =
        obs::Registry::instance().histogram(h.name);
    EXPECT_EQ(restored.count(), h.count);
    EXPECT_EQ(restored.sum(), h.sum);
    EXPECT_EQ(restored.min(), h.min);
    EXPECT_EQ(restored.max(), h.max);
    EXPECT_EQ(restored.percentile(0.50), h.p50);
    EXPECT_EQ(restored.percentile(0.99), h.p99);
  }

  // SystemStats: every counter the report prints, minus kernel activity.
  ASSERT_EQ(before.sites.size(), after.sites.size());
  for (std::size_t i = 0; i < before.sites.size(); ++i) {
    SCOPED_TRACE(before.sites[i].name);
    EXPECT_EQ(before.sites[i].loaded_module, after.sites[i].loaded_module);
    EXPECT_EQ(before.sites[i].reconfigurations,
              after.sites[i].reconfigurations);
    EXPECT_EQ(before.sites[i].words_in, after.sites[i].words_in);
    EXPECT_EQ(before.sites[i].words_out, after.sites[i].words_out);
    EXPECT_EQ(before.sites[i].words_discarded,
              after.sites[i].words_discarded);
    EXPECT_EQ(before.sites[i].stall_cycles, after.sites[i].stall_cycles);
  }
  ASSERT_EQ(before.fifos.size(), after.fifos.size());
  for (std::size_t i = 0; i < before.fifos.size(); ++i) {
    SCOPED_TRACE(before.fifos[i].name);
    EXPECT_EQ(before.fifos[i].pushed, after.fifos[i].pushed);
    EXPECT_EQ(before.fifos[i].popped, after.fifos[i].popped);
    EXPECT_EQ(before.fifos[i].high_watermark, after.fifos[i].high_watermark);
    EXPECT_EQ(before.fifos[i].fault_dropped, after.fifos[i].fault_dropped);
    EXPECT_EQ(before.fifos[i].fault_duplicated,
              after.fifos[i].fault_duplicated);
  }
  ASSERT_EQ(before.domains.size(), after.domains.size());
  for (std::size_t i = 0; i < before.domains.size(); ++i) {
    SCOPED_TRACE(before.domains[i].name);
    EXPECT_EQ(before.domains[i].frequency_mhz, after.domains[i].frequency_mhz);
    EXPECT_EQ(before.domains[i].cycles, after.domains[i].cycles);
  }
  EXPECT_EQ(before.active_channels, after.active_channels);
  EXPECT_EQ(before.dcr_accesses, after.dcr_accesses);
  EXPECT_EQ(before.mb_busy_cycles, after.mb_busy_cycles);
  EXPECT_EQ(before.system_cycles, after.system_cycles);
  EXPECT_EQ(before.icap_bytes, after.icap_bytes);
  EXPECT_EQ(before.reconfigurations, after.reconfigurations);
  EXPECT_EQ(before.robustness.faults_injected,
            after.robustness.faults_injected);
  EXPECT_EQ(before.robustness.icap_corrupted, after.robustness.icap_corrupted);
  EXPECT_EQ(before.robustness.icap_timeouts, after.robustness.icap_timeouts);
  EXPECT_EQ(before.robustness.reconfig_retries,
            after.robustness.reconfig_retries);
  EXPECT_EQ(before.robustness.source_fallbacks,
            after.robustness.source_fallbacks);
  EXPECT_EQ(before.robustness.reconfig_failures,
            after.robustness.reconfig_failures);
  EXPECT_EQ(before.robustness.switch_rollbacks,
            after.robustness.switch_rollbacks);
  EXPECT_EQ(before.robustness.fifo_words_dropped,
            after.robustness.fifo_words_dropped);
  EXPECT_EQ(before.robustness.fifo_words_duplicated,
            after.robustness.fifo_words_duplicated);
  EXPECT_EQ(before.robustness.stuck_ports, after.robustness.stuck_ports);
  EXPECT_EQ(before.bitcache.hits, after.bitcache.hits);
  EXPECT_EQ(before.bitcache.misses, after.bitcache.misses);
  EXPECT_EQ(before.bitcache.evictions, after.bitcache.evictions);
  EXPECT_EQ(before.bitcache.prefetch_issued, after.bitcache.prefetch_issued);
  EXPECT_EQ(before.bitcache.prefetch_useful, after.bitcache.prefetch_useful);
}

// ---- restore with injection enabled ----------------------------------------

/// Runs system B around a restore of system A. B streams, drains and lets
/// its switch boxes sleep; A's blob was saved with injection enabled and a
/// stuck-port window armed; restoring it re-enables injection, which must
/// wake B's boxes too — they are per-commit fault sites, and A's restore
/// wakes only A's components. B then streams again under the restored
/// injector. Returns B's stream, clocks and the stuck-port counters.
std::string run_neighbour_through_restore(bool activity) {
  core::VapresSystem a(quad_params());
  a.bring_up_all_sites();
  core::VapresSystem b(quad_params());
  b.sim().set_activity_driven(activity);
  b.bring_up_all_sites();
  core::Rsb& rsb = b.rsb();
  EXPECT_TRUE(b.connect(0, rsb.iom_producer(0), rsb.iom_consumer(2)));
  std::vector<Word> data;
  for (Word w = 1; w <= 64; ++w) data.push_back(w * 7);
  rsb.iom(0).set_source_data(data, 2);
  b.run_system_cycles(2000);

  std::string blob;
  {
    sim::ScopedFaultInjection faults(0xB0B);
    // Seven boxes of seven outputs: box 1's second output on B's second
    // cycle after the restore.
    faults->arm(sim::FaultSite::kSwitchBoxStuckPort, 7 * 7 + 7 + 1);
    blob = SystemSnapshot::save(a, 1);
  }
  b.run_system_cycles(200);  // boxes sleep again once injection is off
  comm::SwitchFabric& fabric = rsb.fabric();
  for (int i = 0; activity && i < fabric.num_boxes(); ++i) {
    EXPECT_FALSE(fabric.box(i).awake()) << "box " << i;
  }

  auto a2 = SystemSnapshot::restore_system(blob, quad_params());
  sim::FaultInjector& fi = sim::FaultInjector::instance();
  EXPECT_TRUE(fi.enabled());
  for (int i = 0; i < fabric.num_boxes(); ++i) {
    EXPECT_TRUE(fabric.box(i).awake()) << "box " << i;
  }
  b.run_system_cycles(500);
  rsb.iom(0).set_source_data(data, 3);
  b.run_system_cycles(2000);

  std::ostringstream os;
  os << "now=" << b.sim().now() << " cycles=" << b.system_clock().cycle_count()
     << " opportunities="
     << fi.opportunities(sim::FaultSite::kSwitchBoxStuckPort)
     << " injected=" << fi.injected(sim::FaultSite::kSwitchBoxStuckPort)
     << " box1.stuck1=" << fabric.box(1).output_stuck(1) << "\nwords=";
  for (Word w : rsb.iom(2).received()) os << w << ",";
  fi.disable();
  return os.str();
}

TEST(Snap, RestoreWithInjectionWakesAnotherSystemsBoxes) {
  const std::string fast = run_neighbour_through_restore(true);
  const std::string reference = run_neighbour_through_restore(false);
  EXPECT_EQ(fast, reference);
  EXPECT_NE(fast.find("injected=1 box1.stuck1=1"), std::string::npos) << fast;
}

// ---- warm restart ---------------------------------------------------------

TEST(Snap, WarmRestartAdoptsLiveAppsWithZeroStreamGaps) {
  obs::Registry::instance().reset();
  core::VapresSystem sys(quad_params());
  sys.bring_up_all_sites();
  sched::ApplicationScheduler sched(sys);
  const int a = sched.submit(make_app("left", {"gain_x2"}, 4, 0));
  const int b = sched.submit(make_app("right", {"gain_half"}, 4, 0));
  sched.run_admission();
  ASSERT_TRUE(sched.app(a).running());
  ASSERT_TRUE(sched.app(b).running());
  sys.run_system_cycles(1000);
  quiesce(sys);
  const std::string blob = SystemSnapshot::save(sys, 5, &sched);

  // Controller crash: the fabric (sys) lives on; the scheduler object is
  // abandoned. Reset the gap window, reconcile a fresh controller, keep
  // streaming — the output stream must never see a reset.
  core::Rsb& rsb = sys.rsb(0);
  rsb.iom(sched.app(a).sink.iom).reset_gap_stats(sched.app(a).sink.channel);
  rsb.iom(sched.app(b).sink.iom).reset_gap_stats(sched.app(b).sink.channel);

  WarmRestart wr = SystemSnapshot::warm_restart(blob, sys);
  ASSERT_NE(wr.scheduler, nullptr);
  EXPECT_EQ(wr.report.adopted_apps, 2);
  EXPECT_EQ(wr.report.mismatches, 0);
  EXPECT_FALSE(wr.report.switch_resumed);
  EXPECT_FALSE(wr.report.switch_rolled_back);

  const std::uint64_t words_before =
      wr.scheduler->app(a).running()
          ? rsb.iom(wr.scheduler->app(a).sink.iom)
                .words_received(wr.scheduler->app(a).sink.channel)
          : 0;
  sys.run_system_cycles(2000);

  // Both apps still run under the new controller and their sinks kept
  // receiving at the source rate (gap stays at the interval, no reset).
  EXPECT_TRUE(wr.scheduler->app(a).running());
  EXPECT_TRUE(wr.scheduler->app(b).running());
  const sched::AppRecord& ra = wr.scheduler->app(a);
  EXPECT_GT(rsb.iom(ra.sink.iom).words_received(ra.sink.channel), words_before);
  EXPECT_LE(rsb.iom(ra.sink.iom).max_output_gap(ra.sink.channel), 64u);
  const sched::AppRecord& rb = wr.scheduler->app(b);
  EXPECT_LE(rsb.iom(rb.sink.iom).max_output_gap(rb.sink.channel), 64u);

  // The adopted controller passes the same ledger checks a fresh one
  // would.
  EXPECT_EQ(wr.scheduler->running_apps().size(), 2u);
}

TEST(Snap, WarmRestartDowngradesMismatchedApps) {
  obs::Registry::instance().reset();
  core::VapresSystem sys(quad_params());
  sys.bring_up_all_sites();
  sched::ApplicationScheduler sched(sys);
  const int a = sched.submit(make_app("keeper", {"gain_x2"}, 4, 0));
  const int b = sched.submit(make_app("goner", {"gain_half"}, 4, 0));
  sched.run_admission();
  ASSERT_TRUE(sched.app(a).running() && sched.app(b).running());
  sys.run_system_cycles(500);
  quiesce(sys);
  const std::string blob = SystemSnapshot::save(sys, 6, &sched);

  // Between checkpoint and crash the fabric moved on: "goner" was torn
  // down, so the journal no longer matches the fabric for it.
  sched.stop(b);

  WarmRestart wr = SystemSnapshot::warm_restart(blob, sys);
  EXPECT_EQ(wr.report.adopted_apps, 1);
  EXPECT_EQ(wr.report.mismatches, 1);
  EXPECT_TRUE(wr.scheduler->app(a).running());
  EXPECT_FALSE(wr.scheduler->app(b).running());
  // The keeper's stream is untouched.
  sys.run_system_cycles(500);
  EXPECT_TRUE(wr.scheduler->app(a).running());
}

// ---- in-flight switch resume/rollback sweep -------------------------------

struct SwitchRig {
  std::unique_ptr<core::VapresSystem> sys;
  std::unique_ptr<sched::ApplicationScheduler> sched;
  core::ChannelId upstream = 0;
  core::ChannelId downstream = 0;

  SwitchRig() {
    core::SystemParams p = core::SystemParams::prototype();
    p.rsbs[0].prr_width_clbs = 4;  // small PRR: fast reconfiguration
    sys = std::make_unique<core::VapresSystem>(std::move(p));
    sys->bring_up_all_sites();
    sys->reconfigure_now(0, 0, "passthrough");
    sys->preload_sdram("gain_x2", 0, 1);
    sched = std::make_unique<sched::ApplicationScheduler>(*sys);
    core::Rsb& rsb = sys->rsb();
    upstream = *sys->connect(0, rsb.iom_producer(0), rsb.prr_consumer(0));
    downstream = *sys->connect(0, rsb.prr_producer(0), rsb.iom_consumer(0));
    rsb.iom(0).set_source_generator(
        [n = Word{0}]() mutable -> std::optional<Word> {
          return static_cast<Word>((n++) & 0x7FFFFFFFu);
        },
        /*interval=*/4);
  }

  core::SwitchRequest request() const {
    core::SwitchRequest req;
    req.src_prr = 0;
    req.dst_prr = 1;
    req.new_module_id = "gain_x2";
    req.upstream = upstream;
    req.downstream = downstream;
    req.eos_iom = 0;
    req.source = core::ReconfigSource::kSdramArray;
    return req;
  }

  /// Advances until the switcher first shows `target` (coarse chunks
  /// through the long PR step, single cycles through the fast protocol
  /// tail so no step is skipped over).
  bool run_to_state(core::ModuleSwitcher& sw,
                    core::ModuleSwitcher::State target) {
    using St = core::ModuleSwitcher::State;
    for (std::uint64_t budget = 0; budget < 80'000'000; ++budget) {
      if (sw.state() == target) return true;
      if (sw.finished()) return false;
      // Chunking through kReconfiguring would overshoot: the whole
      // protocol tail (steps 2..9) can complete inside one chunk. Only
      // kIdle is safe to cross coarsely.
      const std::uint64_t chunk = sw.state() == St::kIdle ? 1024 : 1;
      sys->run_system_cycles(chunk);
    }
    return false;
  }
};

TEST(Snap, WarmRestartRollsBackSwitchInterruptedDuringReconfig) {
  obs::Registry::instance().reset();
  SwitchRig rig;
  core::ModuleSwitcher sw(*rig.sys, rig.request());
  sw.begin();
  ASSERT_TRUE(
      rig.run_to_state(sw, core::ModuleSwitcher::State::kReconfiguring));

  const std::string blob =
      SystemSnapshot::save(*rig.sys, 9, rig.sched.get(), &sw);
  EXPECT_TRUE(SystemSnapshot::has_switch(blob));
  // A warm blob must be refused by the cold path.
  EXPECT_THROW(SystemSnapshot::restore_system(
                   blob, core::SystemParams::prototype()),
               ModelError);

  // Crash: the controller (and its switcher task) is gone.
  rig.sys->mb().remove_task(&sw);
  WarmRestart wr = SystemSnapshot::warm_restart(blob, *rig.sys);
  EXPECT_TRUE(wr.report.switch_rolled_back);
  EXPECT_FALSE(wr.report.switch_resumed);
  EXPECT_EQ(wr.switcher, nullptr);

  core::Rsb& rsb = rig.sys->rsb();
  // The spare PRR is not left stuck half-configured.
  EXPECT_FALSE(rsb.prr(1).occupied());
  EXPECT_EQ(rsb.prr(1).loaded_module(), "");
  // The original stream never moved and keeps flowing.
  EXPECT_TRUE(rsb.channels().active(rig.upstream));
  EXPECT_TRUE(rsb.channels().active(rig.downstream));
  const std::uint64_t before = rsb.iom(0).words_received(0);
  rig.sys->run_system_cycles(2000);
  EXPECT_GT(rsb.iom(0).words_received(0), before);
}

class SnapSwitchResume
    : public ::testing::TestWithParam<core::ModuleSwitcher::State> {};

TEST_P(SnapSwitchResume, ResumesFromJournaledStep) {
  obs::Registry::instance().reset();
  SwitchRig rig;
  core::ModuleSwitcher sw(*rig.sys, rig.request());
  sw.begin();
  ASSERT_TRUE(rig.run_to_state(sw, GetParam()))
      << "state " << static_cast<int>(GetParam()) << " never observed";

  const std::string blob =
      SystemSnapshot::save(*rig.sys, 9, rig.sched.get(), &sw);
  rig.sys->mb().remove_task(&sw);  // crash

  WarmRestart wr = SystemSnapshot::warm_restart(blob, *rig.sys);
  EXPECT_TRUE(wr.report.switch_resumed);
  ASSERT_NE(wr.switcher, nullptr);

  // The resumed switcher completes the protocol; the PRR is never left
  // stuck and the stream ends up on the new module.
  ASSERT_TRUE(rig.sys->sim().run_until([&] { return wr.switcher->finished(); },
                                       800'000'000'000ULL));
  EXPECT_TRUE(wr.switcher->done());
  core::Rsb& rsb = rig.sys->rsb();
  EXPECT_EQ(rsb.prr(1).loaded_module(), "gain_x2");
  EXPECT_FALSE(rsb.channels().active(rig.upstream));
  EXPECT_FALSE(rsb.channels().active(rig.downstream));
  // Output continues on the re-routed channel.
  const std::uint64_t before = rsb.iom(0).words_received(0);
  rig.sys->run_system_cycles(2000);
  EXPECT_GT(rsb.iom(0).words_received(0), before);
}

INSTANTIATE_TEST_SUITE_P(
    AllSteps, SnapSwitchResume,
    ::testing::Values(core::ModuleSwitcher::State::kQuiesceUpstream,
                      core::ModuleSwitcher::State::kRerouteUpstream,
                      core::ModuleSwitcher::State::kSendFlush,
                      core::ModuleSwitcher::State::kCollectState,
                      core::ModuleSwitcher::State::kInitNewModule,
                      core::ModuleSwitcher::State::kWaitIomEos,
                      core::ModuleSwitcher::State::kQuiesceSrc,
                      core::ModuleSwitcher::State::kRerouteDownstream));

// ---- reader hardening ------------------------------------------------------

/// Copies every section of `blob`, with byte `offset` of section `target`
/// set to 0xFF, into a fresh blob — digests recomputed, so the edit gets
/// past the container checks and reaches the section parsers.
std::string with_byte_set(const std::string& blob, const std::string& target,
                          std::size_t offset) {
  const SnapshotReader r(blob);
  SnapshotWriter w(r.epoch());
  for (const std::string& name : r.section_names()) {
    r.open_section(name);
    w.begin_section(name);
    for (std::size_t i = 0; r.remaining() > 0; ++i) {
      const std::uint8_t b = r.u8();
      w.u8(name == target && i == offset ? 0xFF : b);
    }
    w.end_section();
  }
  return w.finish();
}

std::size_t section_size(const std::string& blob, const std::string& name) {
  const SnapshotReader r(blob);
  r.open_section(name);
  return r.remaining();
}

// Every single-byte edit of the scheduler journal and of the RSB fabric
// state must either restore or be refused with ModelError: no crash, no
// other exception (an unchecked index or an unbounded count would be one).
TEST(SnapHardening, SingleByteEditsRestoreOrThrowModelError) {
  obs::Registry::instance().reset();
  core::VapresSystem sys(quad_params());
  sys.bring_up_all_sites();
  // Bounded sink histories keep the RSB section (and the sweep) small.
  for (int i = 0; i < sys.rsb(0).num_ioms(); ++i) {
    sys.rsb(0).iom(i).set_received_history_limit(16);
  }
  sched::ApplicationScheduler sched(sys);
  const int live = sched.submit(make_app("live", {"gain_x2"}, 4, 0));
  const int done = sched.submit(make_app("done", {"passthrough"}, 4, 16));
  sched.run_admission();
  ASSERT_TRUE(sched.app(live).running());
  ASSERT_TRUE(sched.app(done).running());
  sys.run_system_cycles(400);
  quiesce(sys);
  const std::string blob = SystemSnapshot::save(sys, 1, &sched);

  const auto attempt = [](const char* step, const std::string& section,
                          std::size_t offset, const auto& fn) {
    try {
      fn();
      return true;
    } catch (const ModelError&) {
      return false;
    } catch (const std::exception& e) {
      ADD_FAILURE() << step << ": " << section << " byte " << offset
                    << " threw a non-ModelError: " << e.what();
      return false;
    }
  };
  for (const std::string section : {"sched", "rsb0"}) {
    const std::size_t n = section_size(blob, section);
    ASSERT_GT(n, 0u);
    int refused = 0;
    for (std::size_t offset = 0; offset < n; ++offset) {
      const std::string edited = with_byte_set(blob, section, offset);
      std::unique_ptr<core::VapresSystem> restored;
      if (!attempt("restore_system", section, offset, [&] {
            restored = SystemSnapshot::restore_system(edited, quad_params());
          })) {
        ++refused;
        continue;
      }
      refused += !attempt("restore_scheduler", section, offset, [&] {
        SystemSnapshot::restore_scheduler(edited, *restored);
      });
      refused += !attempt("warm_restart", section, offset, [&] {
        SystemSnapshot::warm_restart(edited, *restored);
      });
    }
    // The sweep reached the parsers: some edits must be refused.
    EXPECT_GT(refused, 0) << section;
  }
}

// ---- layout pins -----------------------------------------------------------

// Size and FNV-1a digest of three reference blobs. The byte layout is a
// compatibility contract with every stored snapshot: changing a constant
// here requires bumping SnapshotWriter::kVersion.
struct LayoutPin {
  std::size_t size;
  std::uint64_t digest;
};

void expect_pinned(const std::string& blob, LayoutPin pin) {
  EXPECT_EQ(blob.size(), pin.size);
  EXPECT_EQ(fnv1a(blob.data(), blob.size()), pin.digest)
      << std::hex << "digest 0x" << fnv1a(blob.data(), blob.size());
}

/// Process-wide state a blob carries (metrics registry, fault injector)
/// back to a fixed start, so the pins do not depend on earlier tests.
void reset_process_state() {
  obs::Registry::instance().reset();
  sim::FaultInjector::instance().enable(0);
  sim::FaultInjector::instance().disable();
}

TEST(SnapLayout, ColdBlobWithSchedulerIsPinned) {
  reset_process_state();
  core::VapresSystem sys(quad_params());
  sys.bring_up_all_sites();
  sched::ApplicationScheduler sched(sys);
  sched.submit(make_app("finite", {"gain_x2"}, 4, 5000));
  sched.submit(make_app("done", {"passthrough"}, 4, 32));
  sched.submit(make_app("endless", {"ma8", "gain_half"}, 8, 0));
  sched.run_admission();
  sys.run_system_cycles(2000);
  quiesce(sys);
  expect_pinned(SystemSnapshot::save(sys, 7, &sched),
                {30502, 0xa3d3c05585a119d5ULL});
}

TEST(SnapLayout, WarmBlobWithSwitchIsPinned) {
  reset_process_state();
  SwitchRig rig;
  core::ModuleSwitcher sw(*rig.sys, rig.request());
  sw.begin();
  ASSERT_TRUE(
      rig.run_to_state(sw, core::ModuleSwitcher::State::kCollectState));
  const std::string blob =
      SystemSnapshot::save(*rig.sys, 9, rig.sched.get(), &sw);
  rig.sys->mb().remove_task(&sw);
  ASSERT_TRUE(SystemSnapshot::has_switch(blob));
  expect_pinned(blob, {3003835, 0x3d0b33c7e4694b25ULL});
}

TEST(SnapLayout, SoakResumeBlobIsPinned) {
  reset_process_state();
  std::string blob;
  load::SoakOptions opt;
  opt.lifetimes = 96;
  opt.seed = 3;
  opt.snapshot_at = 48;
  opt.snapshot_out = &blob;
  opt.stop_at_snapshot = true;
  load::run_soak(opt);
  ASSERT_FALSE(blob.empty());
  expect_pinned(blob, {39128, 0xfce0ddba31565df7ULL});
}

}  // namespace
}  // namespace vapres::snap
