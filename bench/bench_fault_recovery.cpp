// Ablation A4 — self-healing reconfiguration under injected faults.
//
// The Figure 5 no-interruption property is only worth having if it
// survives faulty partial reconfigurations. This bench replays the E3
// switching scenario while arming k consecutive ICAP bitstream
// corruptions (k = 0..4) and reports what the recovery machinery costs:
// the PR phase stretches by one backoff+attempt per injected fault
// (and one source fallback once the SDRAM attempts are exhausted), but
// the output-stream gap at the IOM must stay flat — retries happen on
// the spare PRR, outside the processing path, exactly like the clean
// PR. A second table prices the readback scrubber's MicroBlaze
// overhead across scrub periods. See docs/FAULTS.md for the policies.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <optional>

#include "core/scrubber.hpp"
#include "core/stats.hpp"
#include "core/switching.hpp"
#include "core/system.hpp"
#include "sim/clock.hpp"
#include "sim/fault.hpp"

namespace {

using namespace vapres;
using comm::Word;

core::SystemParams small_prr_params() {
  core::SystemParams p = core::SystemParams::prototype();
  p.rsbs[0].prr_width_clbs = 4;
  return p;
}

struct Result {
  sim::Cycles pr_cycles = 0;   ///< started -> reconfig_done
  sim::Cycles gap = 0;         ///< max output gap at the IOM
  int retries = 0;
  int fallbacks = 0;
  /// Kernel edge accounting for the whole run. While the injector is
  /// armed the switch boxes never sleep (docs/SIMULATOR.md §5), so the
  /// static domain never coasts until the drain.
  sim::KernelStats kernel;
};

Result run_faulty_switch(std::uint64_t injected_corruptions) {
  core::VapresSystem sys(small_prr_params());
  sys.bring_up_all_sites();
  sys.reconfigure_now(0, 0, "passthrough");
  sys.preload_sdram("offset_100", 0, 1);
  core::Rsb& rsb = sys.rsb();
  const auto up = *sys.connect(0, rsb.iom_producer(0), rsb.prr_consumer(0));
  const auto down =
      *sys.connect(0, rsb.prr_producer(0), rsb.iom_consumer(0));
  rsb.iom(0).set_source_generator(
      [n = 0]() mutable -> std::optional<Word> {
        return static_cast<Word>(n++);
      },
      /*interval=*/4);
  sys.run_system_cycles(200);
  rsb.iom(0).reset_gap_stats();

  sim::ScopedFaultInjection faults(0xBE7Cu);
  if (injected_corruptions > 0) {
    faults->arm(sim::FaultSite::kIcapBitstreamCorruption, /*nth=*/0,
                injected_corruptions);
  }

  core::SwitchRequest req;
  req.src_prr = 0;
  req.dst_prr = 1;
  req.new_module_id = "offset_100";
  req.upstream = up;
  req.downstream = down;
  core::ModuleSwitcher sw(sys, req);
  sw.begin();
  sys.sim().run_until([&] { return sw.finished(); }, sim::kPsPerSecond * 300);
  sys.run_system_cycles(1000);

  Result r;
  r.pr_cycles = sw.timeline().reconfig_done - sw.timeline().started;
  r.gap = rsb.iom(0).max_output_gap();
  r.retries = sys.reconfig().retries();
  r.fallbacks = sys.reconfig().fallbacks();
  r.kernel = sys.sim().kernel_stats();
  return r;
}

double scrub_utilization(sim::Cycles period) {
  core::VapresSystem sys(small_prr_params());
  sys.bring_up_all_sites();
  std::optional<core::ScrubberTask> scrub;
  if (period > 0) {
    scrub.emplace(sys, period);
    scrub->start();
  }
  sys.run_system_cycles(200'000);
  return core::collect_stats(sys).mb_utilization();
}

void print_tables() {
  std::printf("\n=== A4: recovery cost of injected ICAP faults "
              "(16x4-CLB PRR, input word / 4 cycles) ===\n");
  std::printf("%-10s %14s %14s | %8s %10s | %10s\n", "faults k",
              "PR [ms]", "PR vs clean", "retries", "fallbacks",
              "stream gap");
  const Result clean = run_faulty_switch(0);
  Result worst;
  for (std::uint64_t k = 0; k <= 4; ++k) {
    const Result r = run_faulty_switch(k);
    worst = r;
    std::printf("%-10llu %14.2f %13.2fx | %8d %10d | %10llu\n",
                static_cast<unsigned long long>(k),
                static_cast<double>(r.pr_cycles) / 100e3,
                static_cast<double>(r.pr_cycles) /
                    static_cast<double>(clean.pr_cycles),
                r.retries, r.fallbacks,
                static_cast<unsigned long long>(r.gap));
  }
  std::printf("\nShape check: PR time grows ~linearly with k (one extra "
              "attempt each,\nplus the slower CF source after 3); the "
              "stream gap does not move.\n");

  auto print_kernel = [](const char* label, const sim::KernelStats& ks) {
    const double total =
        static_cast<double>(ks.edges_delivered + ks.edges_skipped);
    std::printf("  %-6s delivered %12llu | skipped %12llu (%.1f%% elided) "
                "| %llu sleeps, %llu wakes\n",
                label,
                static_cast<unsigned long long>(ks.edges_delivered),
                static_cast<unsigned long long>(ks.edges_skipped),
                total > 0
                    ? 100.0 * static_cast<double>(ks.edges_skipped) / total
                    : 0.0,
                static_cast<unsigned long long>(ks.domain_sleeps),
                static_cast<unsigned long long>(ks.component_wakes));
  };
  std::printf("\n--- kernel edge accounting (armed injector keeps the "
              "switch boxes awake; see docs/SIMULATOR.md) ---\n");
  print_kernel("k=0", clean.kernel);
  print_kernel("k=4", worst.kernel);

  std::printf("\n--- readback-scrubber MicroBlaze overhead "
              "(idle system, 200k cycles) ---\n");
  std::printf("%-18s %16s\n", "period [cycles]", "MB utilization");
  std::printf("%-18s %15.3f%%\n", "off", 100.0 * scrub_utilization(0));
  for (sim::Cycles period : {10'000, 50'000, 100'000}) {
    std::printf("%-18llu %15.3f%%\n",
                static_cast<unsigned long long>(period),
                100.0 * scrub_utilization(period));
  }
  std::printf("\n");
}

void BM_SwitchWithFaults(benchmark::State& state) {
  const auto k = static_cast<std::uint64_t>(state.range(0));
  Result r;
  for (auto _ : state) r = run_faulty_switch(k);
  state.counters["pr_cycles"] = static_cast<double>(r.pr_cycles);
  state.counters["gap_cycles"] = static_cast<double>(r.gap);
}
BENCHMARK(BM_SwitchWithFaults)->Arg(0)->Arg(2)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_tables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
