#include "sched/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "bitstream/bitgen.hpp"
#include "core/prsocket.hpp"
#include "core/switching.hpp"
#include "obs/bus.hpp"
#include "obs/metrics.hpp"
#include "sim/check.hpp"

namespace vapres::sched {

namespace {

/// MicroBlaze cycles charged for one admission decision's bookkeeping
/// (placement scan + tables); the launch itself is timed for real.
sim::Cycles decision_cycles(int num_slots, int chain_length) {
  return 64 + 16 * static_cast<sim::Cycles>(num_slots) +
         32 * static_cast<sim::Cycles>(chain_length);
}

/// All scheduler decisions land on one trace lane: admissions are
/// serialized on the MicroBlaze, so spans never overlap within it.
std::uint32_t sched_track() {
  return obs::EventBus::instance().track("scheduler");
}

constexpr const char* kNoIomChannel = "all IOM source or sink channels busy";

/// The first free channel of an [iom][channel] busy table: the one IOM
/// search that admission and the probe share.
std::optional<IomChannelRef> first_free(
    const std::vector<std::vector<bool>>& busy) {
  for (std::size_t i = 0; i < busy.size(); ++i) {
    for (std::size_t c = 0; c < busy[i].size(); ++c) {
      if (!busy[i][c]) {
        return IomChannelRef{static_cast<int>(i), static_cast<int>(c)};
      }
    }
  }
  return std::nullopt;
}

/// Channels of an [iom][channel] busy table: the busy ones, or all.
int count_channels(const std::vector<std::vector<bool>>& busy,
                   bool busy_only) {
  int n = 0;
  for (const auto& iom : busy) {
    n += static_cast<int>(busy_only ? std::count(iom.begin(), iom.end(), true)
                                    : std::ssize(iom));
  }
  return n;
}

}  // namespace

ApplicationScheduler::ApplicationScheduler(core::VapresSystem& sys)
    : ApplicationScheduler(sys, Options{}) {}

ApplicationScheduler::ApplicationScheduler(core::VapresSystem& sys,
                                           Options options)
    : sys_(sys), opt_(options), analyzer_(sys.library()) {
  VAPRES_REQUIRE(opt_.rsb_index >= 0 && opt_.rsb_index < sys_.num_rsbs(),
                 "scheduler RSB index out of range");
  // Slice this RSB's portion out of the RSB-major floorplan.
  int offset = 0;
  for (int i = 0; i < opt_.rsb_index; ++i) {
    offset += sys_.params().rsbs[static_cast<std::size_t>(i)].num_prrs;
  }
  const int n = rsb().num_prrs();
  const auto& floorplan = sys_.prr_floorplan();
  std::vector<fabric::ClbRect> rects(
      floorplan.begin() + offset, floorplan.begin() + offset + n);
  map_ = FabricMap(std::move(rects));

  for (int i = 0; i < rsb().num_ioms(); ++i) {
    core::Iom& iom = rsb().iom(i);
    source_busy_.emplace_back(
        static_cast<std::size_t>(iom.num_producers()), false);
    sink_busy_.emplace_back(
        static_cast<std::size_t>(iom.num_consumers()), false);
  }
}

int ApplicationScheduler::submit(AppRequest request) {
  AppRecord rec;
  rec.id = num_apps();
  rec.request = std::move(request);
  rec.submitted_at = sys_.mb().cycle();
  apps_.push_back(std::move(rec));
  AppRecord& stored = apps_.back();
  obs::EventBus::instance().instant(
      obs::Subsystem::kSched, obs::ev::kSubmit, sched_track(),
      sys_.sim().now(), static_cast<std::uint64_t>(stored.id),
      static_cast<std::uint64_t>(stored.request.priority));
  if (opt_.source == core::ReconfigSource::kManaged) hint_request(stored);
  return stored.id;
}

void ApplicationScheduler::hint_request(const AppRecord& app) {
  // Guess the placement the admission pass would pick right now and warm
  // those (module, PRR) bitstreams while the request waits in the queue.
  // The guess can go stale — a wrong hint only costs background staging
  // time, never correctness.
  if (!assess(app.request).ok()) return;  // admission will reject
  const ChainPlan plan = plan_chain(app.request, app.id);
  if (!plan.ok) return;
  for (const MigrationStep& s : plan.steps) {
    install_bitstream(s.module_id, s.dst_prr);
    sys_.prefetch().hint(s.module_id, rsb().prr(s.dst_prr).name(), app.id);
  }
  for (std::size_t i = 0; i < plan.prrs.size(); ++i) {
    const std::string& m = app.request.modules[i];
    install_bitstream(m, plan.prrs[i]);
    sys_.prefetch().hint(m, rsb().prr(plan.prrs[i]).name(), app.id);
  }
}

int ApplicationScheduler::run_admission() {
  std::vector<int> queue;
  for (const AppRecord& a : apps_) {
    if (a.state == AppState::kQueued) queue.push_back(a.id);
  }
  std::stable_sort(queue.begin(), queue.end(), [this](int a, int b) {
    return record(a).request.priority > record(b).request.priority;
  });
  int launched = 0;
  for (int id : queue) {
    if (try_admit(record(id))) ++launched;
  }
  return launched;
}

void ApplicationScheduler::stop(int app_id) {
  AppRecord& a = record(app_id);
  VAPRES_REQUIRE(a.running(), "app " + std::to_string(app_id) +
                                  " is not running");
  teardown(a, AppState::kStopped);
}

int ApplicationScheduler::retire_terminal() {
  int retired = 0;
  while (!apps_.empty()) {
    const AppRecord& a = apps_.front();
    if (a.state == AppState::kQueued || a.state == AppState::kRunning) break;
    switch (a.verdict) {
      case AdmissionVerdict::kAdmitted:
        ++retired_admitted_;
        break;
      case AdmissionVerdict::kAdmittedAfterDefrag:
        ++retired_admitted_;
        ++retired_admitted_after_defrag_;
        break;
      case AdmissionVerdict::kAdmittedAfterPreempt:
        ++retired_admitted_;
        ++retired_admitted_after_preempt_;
        break;
      case AdmissionVerdict::kPending:
        break;
      default:
        ++retired_rejected_;
        break;
    }
    apps_.pop_front();
    ++first_id_;
    ++retired;
  }
  return retired;
}

AppRecord& ApplicationScheduler::record(int app_id) {
  VAPRES_REQUIRE(app_id >= first_id_ && app_id < num_apps(),
                 "app id " + std::to_string(app_id) +
                     " out of range or retired");
  return apps_[static_cast<std::size_t>(app_id - first_id_)];
}

const AppRecord& ApplicationScheduler::record(int app_id) const {
  VAPRES_REQUIRE(app_id >= first_id_ && app_id < num_apps(),
                 "app id " + std::to_string(app_id) +
                     " out of range or retired");
  return apps_[static_cast<std::size_t>(app_id - first_id_)];
}

const AppRecord& ApplicationScheduler::app(int app_id) const {
  return record(app_id);
}

std::vector<int> ApplicationScheduler::running_apps() const {
  std::vector<int> out;
  for (const AppRecord& a : apps_) {
    if (a.running()) out.push_back(a.id);
  }
  return out;
}

int ApplicationScheduler::queued_count() const {
  int n = 0;
  for (const AppRecord& a : apps_) {
    if (a.state == AppState::kQueued) ++n;
  }
  return n;
}

void ApplicationScheduler::adopt_masters(
    const bitstream::RelocatingStore& other) {
  store_.absorb(other);
}

ApplicationScheduler::AdmitProbe ApplicationScheduler::probe_admit(
    const AppRequest& request) const {
  AdmitProbe probe;
  auto blocked = [&](AdmissionVerdict v, std::string why) {
    probe.verdict = v;
    probe.reason = std::move(why);
    return probe;
  };

  const Assessment checked = assess(request);
  if (!checked.ok()) return blocked(checked.verdict, checked.reason);

  // Placement before IOMs (try_admit holds the channels first): a chain
  // that fits no PRR must read as a capability mismatch to the router,
  // not as a fabric that is only busy.
  probe.iom_available = first_free(source_busy_) && first_free(sink_busy_);
  const ChainPlan plan = plan_chain(request, -1);
  if (!plan.ok) {
    return blocked(plan.fail_verdict, plan.reason);
  }
  if (!probe.iom_available) {
    return blocked(AdmissionVerdict::kRejectedNoIomChannel, kNoIomChannel);
  }
  probe.admissible = true;
  probe.verdict = plan.steps.empty() ? AdmissionVerdict::kAdmitted
                                     : AdmissionVerdict::kAdmittedAfterDefrag;
  probe.prrs = plan.prrs;
  probe.defrag_migrations = static_cast<int>(plan.steps.size());
  int site_slices = 0;
  int need_slices = 0;
  for (std::size_t i = 0; i < plan.prrs.size(); ++i) {
    site_slices += map_.slot(plan.prrs[i]).rect.slices();
    need_slices += sys_.library().info(request.modules[i]).resources.slices;
  }
  if (site_slices > 0) {
    probe.fit_waste =
        static_cast<double>(site_slices - need_slices) / site_slices;
  }
  return probe;
}

bool ApplicationScheduler::source_done(int app_id) const {
  const AppRecord& a = app(app_id);
  if (!a.running() || a.request.source_words == 0) return false;
  return !sys_.rsb(opt_.rsb_index)
              .iom(a.source.iom)
              .source_active(a.source.channel);
}

std::vector<comm::Word> ApplicationScheduler::received_words(
    int app_id) const {
  const AppRecord& a = app(app_id);
  VAPRES_REQUIRE(a.launched_at != 0 || a.running(),
                 "app " + std::to_string(app_id) + " never launched");
  const core::Iom& iom = sys_.rsb(opt_.rsb_index).iom(a.sink.iom);
  const auto& all = iom.received(a.sink.channel);
  const std::uint64_t dropped = iom.received_dropped(a.sink.channel);
  // The app's words occupy absolute sink indices
  // [base_words_received, base + final_words_out); map them into the
  // retained window (words before `dropped` have been aged out).
  const std::uint64_t abs_end =
      a.running() ? dropped + all.size()
                  : a.base_words_received + a.final_words_out;
  const std::uint64_t lo =
      std::max<std::uint64_t>(a.base_words_received, dropped);
  const std::uint64_t hi = std::min<std::uint64_t>(
      std::max(abs_end, dropped), dropped + all.size());
  if (hi <= lo) return {};
  return std::vector<comm::Word>(
      all.begin() + static_cast<std::ptrdiff_t>(lo - dropped),
      all.begin() + static_cast<std::ptrdiff_t>(hi - dropped));
}

// ---- Admission -----------------------------------------------------------

bool ApplicationScheduler::try_admit(AppRecord& app) {
  const sim::Cycles t0 = sys_.mb().cycle();
  const int k = static_cast<int>(app.request.modules.size());
  sys_.mb().busy_for(decision_cycles(map_.num_slots(), k));

  auto& bus = obs::EventBus::instance();
  const std::uint32_t track = sched_track();
  obs::Span admission =
      obs::Span::begin(obs::Subsystem::kSched, obs::ev::kAdmission, track,
                       sys_.sim().now(), static_cast<std::uint64_t>(app.id));
  auto close_admission = [&]() {
    admission.end(
        sys_.sim().now(),
        &obs::Registry::instance().histogram("sched.admission.cycles"),
        static_cast<std::int64_t>(app.admission_mb_cycles));
  };

  auto reject = [&](AdmissionVerdict v, const std::string& why) {
    app.state = AppState::kRejected;
    app.verdict = v;
    app.reject_reason = why;
    app.admission_mb_cycles = sys_.mb().cycle() - t0;
    close_admission();
    bus.instant(obs::Subsystem::kSched, obs::ev::kReject, track,
                sys_.sim().now(), static_cast<std::uint64_t>(app.id),
                static_cast<std::uint64_t>(v));
    obs::Registry::instance().counter("sched.rejected").add();
    ++rejection_streak_;
    return false;
  };

  // 1-2. Spec and rate checks.
  Assessment checked = assess(app.request);
  if (!checked.ok()) return reject(checked.verdict, checked.reason);
  app.clocks_mhz = std::move(checked.clocks_mhz);

  // 3-5. IOM + placement, with preemption retries.
  bool preempted_any = false;
  for (;;) {
    const bool ioms_ok = allocate_ioms(app);
    ChainPlan plan;
    if (ioms_ok) {
      plan = plan_chain(app.request, app.id);
      if (plan.ok) {
        bool migration_failed = false;
        for (const MigrationStep& s : plan.steps) {
          if (!execute_migration(s)) {
            migration_failed = true;
            break;
          }
        }
        if (migration_failed) {
          // Completed relocations stay (the fabric only got tidier);
          // this admission gives up.
          free_ioms(app);
          return reject(
              AdmissionVerdict::kRejectedFragmented,
              "live relocation rolled back (permanent PR failure)");
        }
        if (!launch(app, plan.prrs)) {
          free_ioms(app);
          app.admission_mb_cycles = sys_.mb().cycle() - t0;
          close_admission();
          bus.instant(obs::Subsystem::kSched, obs::ev::kReject, track,
                      sys_.sim().now(), static_cast<std::uint64_t>(app.id),
                      static_cast<std::uint64_t>(app.verdict));
          obs::Registry::instance().counter("sched.rejected").add();
          ++rejection_streak_;
          return false;  // verdict + reason set by launch()
        }
        app.state = AppState::kRunning;
        app.verdict = preempted_any
                          ? AdmissionVerdict::kAdmittedAfterPreempt
                          : (plan.steps.empty()
                                 ? AdmissionVerdict::kAdmitted
                                 : AdmissionVerdict::kAdmittedAfterDefrag);
        app.launched_at = sys_.mb().cycle();
        app.admission_mb_cycles = app.launched_at - t0;
        rejection_streak_ = 0;
        // Queue wait + decision + launch, end to end — the latency an
        // external submitter observes (soak gates its p99).
        obs::Registry::instance()
            .histogram("sched.submit_to_launch.cycles")
            .record(app.launched_at - app.submitted_at);
        close_admission();
        bus.instant(obs::Subsystem::kSched, obs::ev::kLaunch, track,
                    sys_.sim().now(), static_cast<std::uint64_t>(app.id),
                    static_cast<std::uint64_t>(app.prrs.size()));
        obs::Registry::instance().counter("sched.launched").add();
        return true;
      }
      free_ioms(app);
      if (plan.fail_verdict == AdmissionVerdict::kRejectedNoPrrFit) {
        // Fabric-capability failure: no eviction can create a fit.
        return reject(plan.fail_verdict, plan.reason);
      }
    }
    const AdmissionVerdict blocked =
        ioms_ok ? plan.fail_verdict
                : AdmissionVerdict::kRejectedNoIomChannel;
    const std::string why = ioms_ok ? plan.reason : kNoIomChannel;
    if (!opt_.enable_preemption) return reject(blocked, why);
    const int victim = pick_victim(app.request.priority);
    if (victim < 0) {
      return reject(blocked, why + " (no lower-priority app to preempt)");
    }
    bus.instant(obs::Subsystem::kSched, obs::ev::kPreempt, track,
                sys_.sim().now(), static_cast<std::uint64_t>(victim),
                static_cast<std::uint64_t>(app.id));
    teardown(record(victim), AppState::kPreempted);
    ++preemptions_;
    obs::Registry::instance().counter("sched.preemptions").add();
    preempted_any = true;
  }
}

ApplicationScheduler::Assessment ApplicationScheduler::assess(
    const AppRequest& request) const {
  Assessment out;
  auto fail = [&out](AdmissionVerdict v, std::string why) {
    out.verdict = v;
    out.reason = std::move(why);
    return out;
  };

  // 1. Spec: a linear chain of known 1-in/1-out modules.
  if (request.modules.empty()) {
    return fail(AdmissionVerdict::kRejectedBadSpec, "empty module chain");
  }
  if (request.source_interval_cycles < 1) {
    return fail(AdmissionVerdict::kRejectedBadSpec,
                "source interval must be >= 1 cycle");
  }
  for (const std::string& m : request.modules) {
    if (!sys_.library().contains(m)) {
      return fail(AdmissionVerdict::kRejectedBadSpec, "unknown module " + m);
    }
    const hwmodule::NetlistInfo& info = sys_.library().info(m);
    if (info.num_inputs != 1 || info.num_outputs != 1) {
      return fail(AdmissionVerdict::kRejectedBadSpec,
                  "module " + m + " is not a 1-in/1-out chain stage");
    }
  }

  // 2. Rate: some ladder clock must sustain every stage at the requested
  // stream rate (flow::RateAnalyzer, Section IV). The library refuses
  // rate signatures below 1 at registration, so a valid chain always
  // analyzes and only the ladder can refuse it.
  try {
    const flow::RateReport report = analyzer_.analyze(request.to_kpn(0, 0));
    const double source_mwords_per_s =
        sys_.params().system_clock_mhz /
        static_cast<double>(request.source_interval_cycles);
    const auto chosen = report.assign_clocks(
        source_mwords_per_s,
        {sys_.params().prr_clock_a_mhz, sys_.params().prr_clock_b_mhz});
    for (std::size_t i = 0; i < request.modules.size(); ++i) {
      out.clocks_mhz.push_back(
          chosen.at(AppRequest::node_name(static_cast<int>(i))));
    }
  } catch (const ModelError& e) {
    return fail(AdmissionVerdict::kRejectedRateInfeasible, e.what());
  }
  return out;
}

ApplicationScheduler::ChainPlan ApplicationScheduler::plan_chain(
    const AppRequest& request, int app_id) const {
  ChainPlan plan;
  FabricMap copy = map_;
  // Live relocations one admission may spend.
  constexpr int kMaxDefragMigrations = 4;
  int budget = opt_.enable_defrag ? kMaxDefragMigrations : 0;
  const int k = static_cast<int>(request.modules.size());
  for (int i = 0; i < k; ++i) {
    const std::string& m = request.modules[i];
    const fabric::ResourceVector need = sys_.library().info(m).resources;
    int p = copy.find_free(need, opt_.policy);
    if (p < 0 && !copy.fits_somewhere(need)) {
      plan.fail_verdict = AdmissionVerdict::kRejectedNoPrrFit;
      plan.reason = "module " + m + " (" + std::to_string(need.slices) +
                    " slices) fits no PRR of this fabric";
      return plan;
    }
    if (p < 0 && budget > 0) {
      std::vector<MigrationStep> steps =
          DefragPlanner::plan(copy, need, opt_.policy, budget, &p);
      if (p >= 0) {
        budget -= static_cast<int>(steps.size());
        plan.steps.insert(plan.steps.end(), steps.begin(), steps.end());
      }
    }
    if (p < 0) {
      plan.fail_verdict = AdmissionVerdict::kRejectedFragmented;
      plan.reason = "module " + m + " (" + std::to_string(need.slices) +
                    " slices): capacity exists only in occupied or "
                    "too-small slots";
      return plan;
    }
    // Tentative occupancy; migratable=false so the planner never tries
    // to relocate a module that is not launched yet.
    copy.occupy(p, app_id, i, m, need.slices, /*migratable=*/false);
    plan.prrs.push_back(p);
  }
  plan.ok = true;
  return plan;
}

bool ApplicationScheduler::allocate_ioms(AppRecord& app) {
  const std::optional<IomChannelRef> source = first_free(source_busy_);
  const std::optional<IomChannelRef> sink = first_free(sink_busy_);
  if (!source || !sink) return false;
  app.source = *source;
  app.sink = *sink;
  source_busy_[static_cast<std::size_t>(app.source.iom)]
              [static_cast<std::size_t>(app.source.channel)] = true;
  sink_busy_[static_cast<std::size_t>(app.sink.iom)]
            [static_cast<std::size_t>(app.sink.channel)] = true;
  return true;
}

void ApplicationScheduler::free_ioms(const AppRecord& app) {
  source_busy_[static_cast<std::size_t>(app.source.iom)]
              [static_cast<std::size_t>(app.source.channel)] = false;
  sink_busy_[static_cast<std::size_t>(app.sink.iom)]
            [static_cast<std::size_t>(app.sink.channel)] = false;
}

int ApplicationScheduler::busy_source_channels() const {
  return count_channels(source_busy_, true);
}

int ApplicationScheduler::busy_sink_channels() const {
  return count_channels(sink_busy_, true);
}

int ApplicationScheduler::total_source_channels() const {
  return count_channels(source_busy_, false);
}

int ApplicationScheduler::total_sink_channels() const {
  return count_channels(sink_busy_, false);
}

int ApplicationScheduler::free_channel_pairs() const {
  return std::min(total_source_channels() - busy_source_channels(),
                  total_sink_channels() - busy_sink_channels());
}

std::vector<int> ApplicationScheduler::prr_owners() const {
  std::vector<int> owners;
  owners.reserve(static_cast<std::size_t>(map_.num_slots()));
  for (int i = 0; i < map_.num_slots(); ++i) {
    const PrrSlot& s = map_.slot(i);
    owners.push_back(s.free ? -1 : s.app_id);
  }
  return owners;
}

int ApplicationScheduler::pick_victim(int priority) const {
  int victim = -1;
  for (const AppRecord& a : apps_) {
    if (!a.running() || a.request.priority >= priority) continue;
    if (victim < 0) {
      victim = a.id;
      continue;
    }
    const AppRecord& v = record(victim);
    // Lowest priority first; youngest among equals (LIFO eviction).
    if (a.request.priority < v.request.priority ||
        (a.request.priority == v.request.priority && a.id > v.id)) {
      victim = a.id;
    }
  }
  return victim;
}

// ---- Migration (defragmentation) -----------------------------------------

bool ApplicationScheduler::execute_migration(const MigrationStep& step) {
  AppRecord& owner = record(step.app_id);
  VAPRES_REQUIRE(owner.running(), "relocation donor is not running");
  const sim::Cycles mig_t0 = sys_.mb().cycle();
  obs::Span mig = obs::Span::begin(
      obs::Subsystem::kSched, obs::ev::kMigrate, sched_track(),
      sys_.sim().now(), static_cast<std::uint64_t>(step.app_id));
  auto close_migration = [&]() {
    mig.end(sys_.sim().now(),
            &obs::Registry::instance().histogram("sched.migration.cycles"),
            static_cast<std::int64_t>(sys_.mb().cycle() - mig_t0));
  };
  int pos = -1;
  for (std::size_t i = 0; i < owner.prrs.size(); ++i) {
    if (owner.prrs[i] == step.src_prr) pos = static_cast<int>(i);
  }
  VAPRES_REQUIRE(pos == static_cast<int>(owner.prrs.size()) - 1,
                 "only tail-of-chain modules are hitlessly migratable");

  stage_bitstream(step.module_id, step.dst_prr);
  if (opt_.source == core::ReconfigSource::kManaged) {
    // Relocations pay the CF->SDRAM staging up front (timed) so the
    // live switch's PR runs the fast array path even on a cold cache.
    sys_.stage_to_sdram(step.module_id, opt_.rsb_index, step.dst_prr);
  }
  // Keep the module's clock choice across the move (the switcher
  // read-modify-writes the dst socket, preserving CLK_sel).
  set_prr_clock(step.dst_prr,
                owner.clocks_mhz[static_cast<std::size_t>(pos)]);

  core::SwitchRequest req;
  req.rsb_index = opt_.rsb_index;
  req.src_prr = step.src_prr;
  req.dst_prr = step.dst_prr;
  req.new_module_id = step.module_id;
  req.upstream = owner.channels[static_cast<std::size_t>(pos)];
  req.downstream = owner.channels[static_cast<std::size_t>(pos) + 1];
  req.eos_iom = owner.sink.iom;
  req.source = opt_.source;

  core::ModuleSwitcher sw(sys_, req);
  sw.begin();
  const bool done = sys_.sim().run_until([&sw] { return sw.finished(); },
                                         sim::kPsPerSecond * 120);
  VAPRES_REQUIRE(done, "live relocation did not finish");
  if (sw.aborted()) {
    // Rollback: the donor app keeps streaming on its old PRR; only the
    // scheduler's hope of a tidier fabric is gone.
    ++migration_rollbacks_;
    close_migration();
    return false;
  }
  owner.channels[static_cast<std::size_t>(pos)] = sw.new_upstream();
  owner.channels[static_cast<std::size_t>(pos) + 1] = sw.new_downstream();
  owner.prrs[static_cast<std::size_t>(pos)] = step.dst_prr;
  ++owner.migrations;
  map_.move(step.src_prr, step.dst_prr);
  blank_prr(step.src_prr);
  ++defrag_migrations_;
  close_migration();
  return true;
}

// ---- Launch / teardown ---------------------------------------------------

bitstream::PartialBitstream ApplicationScheduler::install_bitstream(
    const std::string& module_id, int prr) {
  core::Prr& target = rsb().prr(prr);
  const fabric::ClbRect& rect = target.rect();
  if (!store_.has_master(module_id, rect)) {
    const hwmodule::NetlistInfo& info = sys_.library().info(module_id);
    store_.add_master(bitstream::generate_partial_bitstream(
        module_id, info.resources, target.name(), rect));
  }
  const bitstream::PartialBitstream bs =
      store_.materialize(module_id, target.name(), rect);
  // The streaming FAR rewrite runs on the MicroBlaze.
  sys_.mb().busy_for(static_cast<sim::Cycles>(
      std::llround(bitstream::relocation_cycles(bs.size_bytes))));
  sys_.bitman().install(bs);
  return bs;
}

void ApplicationScheduler::stage_bitstream(const std::string& module_id,
                                           int prr) {
  const bitstream::PartialBitstream bs = install_bitstream(module_id, prr);
  // Under kManaged residency belongs to the cache and the prefetcher;
  // the other sources keep the pre-cache contract (array preloaded, so
  // the array path never misses).
  if (opt_.source != core::ReconfigSource::kManaged) {
    sys_.bitman().preload(bs);
  }
}

bool ApplicationScheduler::launch(AppRecord& app,
                                  const std::vector<int>& prrs) {
  core::Rsb& r = rsb();
  const int k = static_cast<int>(prrs.size());
  std::vector<int> configured;

  auto rollback = [&](AdmissionVerdict v, const std::string& why) {
    for (auto it = app.channels.rbegin(); it != app.channels.rend(); ++it) {
      sys_.disconnect(opt_.rsb_index, *it);
    }
    app.channels.clear();
    for (int p : configured) blank_prr(p);
    app.prrs.clear();
    app.state = AppState::kRejected;
    app.verdict = v;
    app.reject_reason = why;
    return false;
  };

  for (int i = 0; i < k; ++i) {
    const std::string& m = app.request.modules[static_cast<std::size_t>(i)];
    const int p = prrs[static_cast<std::size_t>(i)];
    try {
      stage_bitstream(m, p);
      sys_.reconfigure_now(opt_.rsb_index, p, m, opt_.source);
    } catch (const ModelError& e) {
      return rollback(AdmissionVerdict::kRejectedPrFailure,
                      "PR of " + m + " failed: " + e.what());
    }
    // Re-enable the site (eviction blanking clears its socket bits).
    sys_.socket_set_bits(r.prr_socket_address(p),
                         core::PrSocket::kSmEn | core::PrSocket::kClkEn |
                             core::PrSocket::kFifoWen,
                         true);
    set_prr_clock(p, app.clocks_mhz[static_cast<std::size_t>(i)]);
    configured.push_back(p);
  }

  // Route source -> chain -> sink.
  for (int i = 0; i <= k; ++i) {
    const core::ChannelEndpoint producer =
        i == 0 ? r.iom_producer(app.source.iom, app.source.channel)
               : r.prr_producer(prrs[static_cast<std::size_t>(i) - 1], 0);
    const core::ChannelEndpoint consumer =
        i == k ? r.iom_consumer(app.sink.iom, app.sink.channel)
               : r.prr_consumer(prrs[static_cast<std::size_t>(i)], 0);
    const std::optional<core::ChannelId> id =
        sys_.connect(opt_.rsb_index, producer, consumer);
    if (!id) {
      return rollback(AdmissionVerdict::kRejectedNoRoute,
                      "switch-box lane capacity exhausted");
    }
    app.channels.push_back(*id);
  }

  for (int i = 0; i < k; ++i) {
    const std::string& m = app.request.modules[static_cast<std::size_t>(i)];
    map_.occupy(prrs[static_cast<std::size_t>(i)], app.id, i, m,
                sys_.library().info(m).resources.slices,
                /*migratable=*/i == k - 1);
  }
  app.prrs = prrs;

  core::Iom& src_iom = r.iom(app.source.iom);
  app.base_words_emitted = src_iom.words_emitted(app.source.channel);
  app.base_words_received =
      r.iom(app.sink.iom).words_received(app.sink.channel);
  const std::uint64_t limit = app.request.source_words;
  src_iom.set_source_generator(
      [n = std::uint64_t{0}, limit]() mutable -> std::optional<comm::Word> {
        if (limit > 0 && n >= limit) return std::nullopt;
        // Mask below the all-ones EOS word so data is never EOS.
        return static_cast<comm::Word>((n++) & 0x7FFFFFFFu);
      },
      app.request.source_interval_cycles, app.source.channel);
  return true;
}

void ApplicationScheduler::teardown(AppRecord& app, AppState final_state) {
  VAPRES_REQUIRE(app.running(), "teardown of a non-running app");
  core::Rsb& r = rsb();
  core::Iom& src_iom = r.iom(app.source.iom);
  src_iom.stop_source(app.source.channel);
  app.final_words_in =
      src_iom.words_emitted(app.source.channel) - app.base_words_emitted;
  // Disconnect sink-side first; each disconnect quiesces its producer
  // and lets in-flight words land before the route is released.
  for (auto it = app.channels.rbegin(); it != app.channels.rend(); ++it) {
    sys_.disconnect(opt_.rsb_index, *it);
  }
  app.final_words_out =
      r.iom(app.sink.iom).words_received(app.sink.channel) -
      app.base_words_received;
  app.channels.clear();
  for (int p : app.prrs) {
    blank_prr(p);
    map_.release(p);
  }
  app.prrs.clear();
  free_ioms(app);
  // Queued prefetch hints for a torn-down app are dead weight; a staging
  // already in flight completes (the array may serve someone else).
  sys_.prefetch().cancel(app.id);
  app.stopped_at = sys_.mb().cycle();
  app.state = final_state;
  obs::EventBus::instance().instant(
      obs::Subsystem::kSched, obs::ev::kStop, sched_track(), sys_.sim().now(),
      static_cast<std::uint64_t>(app.id),
      static_cast<std::uint64_t>(final_state));
}

void ApplicationScheduler::blank_prr(int prr) {
  core::Rsb& r = rsb();
  const comm::DcrAddress addr = r.prr_socket_address(prr);
  // Isolate and gate the site, back to clock A.
  sys_.socket_set_bits(addr,
                       core::PrSocket::kSmEn | core::PrSocket::kClkEn |
                           core::PrSocket::kFifoWen |
                           core::PrSocket::kFifoRen |
                           core::PrSocket::kClkSel,
                       false);
  // Pulse the FIFO/FSL resets so no stale words leak into the next app.
  sys_.socket_set_bits(
      addr, core::PrSocket::kFifoReset | core::PrSocket::kFslReset, true);
  sys_.socket_set_bits(
      addr, core::PrSocket::kFifoReset | core::PrSocket::kFslReset, false);
  core::Prr& p = r.prr(prr);
  if (p.wrapper().loaded()) p.wrapper().unload();
}

void ApplicationScheduler::set_prr_clock(int prr, double mhz) {
  const bool use_b =
      std::abs(mhz - sys_.params().prr_clock_b_mhz) < 1e-9 &&
      std::abs(sys_.params().prr_clock_a_mhz -
               sys_.params().prr_clock_b_mhz) > 1e-9;
  sys_.socket_set_bits(rsb().prr_socket_address(prr),
                       core::PrSocket::kClkSel, use_b);
}

// ---- Accounting ----------------------------------------------------------

core::SchedulerAccounting ApplicationScheduler::accounting() const {
  core::SchedulerAccounting acc;
  acc.submitted = num_apps();
  acc.preemptions = preemptions_;
  acc.defrag_migrations = defrag_migrations_;
  acc.migration_rollbacks = migration_rollbacks_;
  acc.fabric_utilization = map_.utilization();
  // Retired records contribute to the totals but have no per-app row.
  acc.admitted = retired_admitted_;
  acc.admitted_after_defrag = retired_admitted_after_defrag_;
  acc.admitted_after_preempt = retired_admitted_after_preempt_;
  acc.rejected = retired_rejected_;
  for (const AppRecord& a : apps_) {
    core::AppAccounting row;
    row.app_id = a.id;
    row.name = a.request.name;
    row.priority = a.request.priority;
    row.state = state_name(a.state);
    row.verdict = verdict_name(a.verdict);
    row.submitted_at = a.submitted_at;
    row.launched_at = a.launched_at;
    row.stopped_at = a.stopped_at;
    row.admission_mb_cycles = a.admission_mb_cycles;
    row.migrations = a.migrations;
    for (const std::string& m : a.request.modules) {
      if (sys_.library().contains(m)) {
        row.module_slices += sys_.library().info(m).resources.slices;
      }
    }
    if (a.running()) {
      core::Rsb& r = sys_.rsb(opt_.rsb_index);
      row.words_in =
          r.iom(a.source.iom).words_emitted(a.source.channel) -
          a.base_words_emitted;
      row.words_out =
          r.iom(a.sink.iom).words_received(a.sink.channel) -
          a.base_words_received;
    } else {
      row.words_in = a.final_words_in;
      row.words_out = a.final_words_out;
    }
    switch (a.verdict) {
      case AdmissionVerdict::kAdmitted:
        ++acc.admitted;
        break;
      case AdmissionVerdict::kAdmittedAfterDefrag:
        ++acc.admitted;
        ++acc.admitted_after_defrag;
        break;
      case AdmissionVerdict::kAdmittedAfterPreempt:
        ++acc.admitted;
        ++acc.admitted_after_preempt;
        break;
      case AdmissionVerdict::kPending:
        break;
      default:
        ++acc.rejected;
        break;
    }
    acc.apps.push_back(std::move(row));
  }
  return acc;
}

}  // namespace vapres::sched
