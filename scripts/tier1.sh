#!/usr/bin/env bash
# Tier-1 gate: the standard build + full test suite (the exact command
# sequence from ROADMAP.md), then one pass of the scheduler/defrag tests
# under AddressSanitizer + UBSan — the sched label exercises live module
# relocation and preemption teardown, the paths most likely to hide
# lifetime bugs.
#
# Usage: scripts/tier1.sh [build-dir] [sanitizer-build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
SAN_BUILD="${2:-build-asan}"

echo "=== tier-1: standard build + full ctest ==="
cmake -B "$BUILD" -S .
cmake --build "$BUILD" -j
ctest --test-dir "$BUILD" --output-on-failure -j

echo
echo "=== tier-1: simulator throughput gate (bench_sim_speed) ==="
# Fails (non-zero exit) when the activity-driven kernel regresses below
# the acceptance thresholds; writes BENCH_sim_speed.json in the build dir.
cmake --build "$BUILD" -j --target bench_sim_speed
(cd "$BUILD" && ./bench/bench_sim_speed)

echo
echo "=== tier-1: bitstream cache gate (bench_bitstream_cache) ==="
# Fails (non-zero exit) when the bitman subsystem regresses: warm-hit
# latency within 10 % of the raw array path, >= 2x mean latency over the
# no-cache CF path on the fixed churn, hit rate >= 0.55, and a loss-free
# stream while prefetch stagings overlap it. Writes
# BENCH_bitstream_cache.json in the build dir.
cmake --build "$BUILD" -j --target bench_bitstream_cache
(cd "$BUILD" && ./bench/bench_bitstream_cache)

echo
echo "=== tier-1: tracing overhead gate (bench_trace_overhead) ==="
# Fails (non-zero exit) when disabled tracing hooks project to > 1 % of
# the traced-off wall time of a switch-heavy scenario. Writes
# BENCH_trace_overhead.json in the build dir.
cmake --build "$BUILD" -j --target bench_trace_overhead
(cd "$BUILD" && ./bench/bench_trace_overhead)

echo
echo "=== tier-1: sustained-load soak gate (bench_soak --quick) ==="
# 2000 seeded lifetimes through the full scheduler + fabric, replayed
# twice: fails (non-zero exit) on any invariant violation (resource
# leaks, accounting drift, word loss, stream gaps), on throughput under
# 20 lifetimes/s, p99 admission->launch over 32M MB cycles, an RSS
# plateau breach, or a digest mismatch between the two runs
# (determinism). --quick also runs the snap checkpoint/restore gates:
# restore-mid-soak digest equality over three seeds and the <= 5%
# checkpoint-overhead cap (docs/SNAPSHOT.md). Writes BENCH_soak.json in
# the build dir; the full 10^5-lifetime sweep is
# `bench_soak --lifetimes=100000 --sweep=3` (docs/LOADGEN.md).
cmake --build "$BUILD" -j --target bench_soak
(cd "$BUILD" && ./bench/bench_soak --quick)

echo
echo "=== tier-1: fleet routing gate (bench_fleet --quick) ==="
# One consolidated fabric vs the 4-fabric heterogeneous fleet on the
# same seeded multi-tenant workload: fails (non-zero exit) on any
# invariant violation, on an app lost in cross-fabric migration, when
# cost-based routing admits fewer apps than blind round-robin rotation,
# on a replay digest mismatch (determinism), or when agent crash churn
# loses an app, leaves a reconcile violation, or changes a routing
# decision vs the undisturbed run (docs/CONTROLPLANE.md). Writes
# BENCH_fleet.json in the build dir; the full comparison is
# `bench_fleet` and the multi-seed sweep `bench_fleet --sweep=K`
# (docs/FLEET.md).
cmake --build "$BUILD" -j --target bench_fleet
(cd "$BUILD" && ./bench/bench_fleet --quick)

echo
echo "=== tier-1: health monitor gate (bench_health --quick) ==="
# The same storm workload (short dense ICAP fault-storm phase) through
# monitor-off, observe-only, and remediating fleets: fails (non-zero
# exit) on any invariant violation, when health_tick() wall time
# exceeds 1% of the soak wall time, when the remediating fleet admits
# fewer apps than the monitor-off baseline or loses an app to a drain,
# when the storm injects no faults, or on a replay digest mismatch —
# health ticks and remediation decisions fold into the digest
# (docs/HEALTH.md). Writes BENCH_health.json in the build dir.
cmake --build "$BUILD" -j --target bench_health
(cd "$BUILD" && ./bench/bench_health --quick)

echo
echo "=== tier-1: benchmark driver smoke (perfbench soak + fleet + storm) ==="
# Builds the benchmark driver against the current library and runs it
# for about a second per workload. The driver's self-checks (invariant
# sweeps, repeat determinism, parity with load::run_soak and
# load::run_fleet_soak) run on every call, so a library change that
# breaks the benchmark fails here (non-zero exit). Storm is the one
# workload that runs the switch boxes' fault-injection path and checks
# that a fault was injected. The driver builds under .bench_build/
# (perfbench/run.py).
python3 perfbench/run.py --workload soak --seed 1 --seconds 1 --trace 0
python3 perfbench/run.py --workload fleet --seed 1 --seconds 1 --trace 0
python3 perfbench/run.py --workload storm --seed 2 --seconds 1 --trace 0

echo
echo "=== tier-1: Chrome trace export smoke (multi_app_server) ==="
# The exported trace_event JSON must parse and contain events — the
# format chrome://tracing / Perfetto loads (docs/OBSERVABILITY.md).
cmake --build "$BUILD" -j --target multi_app_server
TRACE_JSON="$BUILD/trace_smoke.json"
"$BUILD/examples/multi_app_server" --trace="$TRACE_JSON" > /dev/null
python3 - "$TRACE_JSON" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    d = json.load(f)
events = d["traceEvents"]
assert events, "trace has no events"
phases = {e["ph"] for e in events}
assert {"B", "E"} <= phases, f"no duration spans in trace: {phases}"
# The fixed-seed server run defragments with live relocations: every
# step of the 9-step switch protocol must appear as a named span.
begins = {e["name"] for e in events if e["ph"] == "B"}
missing = [s for s in ("step%d" % i for i in range(1, 10))
           if not any(n.startswith(s + ".") for n in begins)]
assert not missing, f"switch steps missing from trace: {missing}"
print(f"trace OK: {len(events)} events, all 9 switch steps present")
EOF

echo
echo "=== tier-1: sched/soak/fleet/snap/health/simkernel/fault tests under address,undefined ==="
# The soak smoke (soak_test, ~10^3 lifetimes, including the
# agent-crash-churn fleet run), the fleet router tests (fleet_test:
# cross-fabric migration rollback, master adoption, quota preemption,
# checkpoint/failover), the control-plane state-table tests
# (statedb_test: kill-at-every-journal-step migration sweeps, restart
# reconvergence), and the checkpoint/restore tests (snap_test: cold
# restore byte-determinism, warm-restart reconciliation, switch
# resume/rollback from every journaled step — docs/SNAPSHOT.md) ride
# along under ASan: sustained submit/stop churn, teardown-on-src +
# replay-on-dst moves, agent destroy/reconstruct cycles, and whole-
# system serialize/reconstruct round-trips are the workloads most
# likely to surface lifetime bugs the single-scenario sched tests miss.
# The kernel lockstep tests (simkernel_test) ride along too: fabric wires
# hold raw reader pointers into feedback pipelines that release()
# destroys, and a reader left registered is a use-after-free only ASan
# reports. The fault-label tests (fuzz, ICAP, injection, bitman,
# switching faults, switch boxes) ride along for the same reason: the
# injector keeps raw pointers to every live switch box (its per-commit
# sites), and a box left registered past its destruction is one too;
# switch_box_test registers boxes as those sites and cold-restores them.
cmake -B "$SAN_BUILD" -S . -DVAPRES_SANITIZE=address,undefined
cmake --build "$SAN_BUILD" -j --target scheduler_test defrag_test soak_test \
  fleet_test statedb_test snap_test health_test simkernel_test fuzz_test \
  icap_test fault_injection_test bitman_test switching_fault_test \
  switch_box_test
ctest --test-dir "$SAN_BUILD" \
  -L 'sched|soak|fleet|snap|health|simkernel|fault' --output-on-failure

echo
echo "tier-1: all green"
