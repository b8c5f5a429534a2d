#!/usr/bin/env bash
# Gate one bench run's artifacts on their hard invariants.
#
# Usage: scripts/check_bench.sh [DIR]
#
# DIR (default: the repository's build/, where the bench_smoke target
# writes) must hold all five artifacts of one bench run; a missing one
# fails the gate, so two runs are never mixed.
#
# BENCH_sim.json (fig_sim_throughput): fails when any config reports
# optimized_allocs_per_step > 0 -- the hot loop allocated.
#
# BENCH_dispatch.json (fig_dispatch): fails when its
# dispatch_microbench table is empty, or when any of its cells reports
# checksums_match: false -- the sorted-lane dispatch diverged from the
# seed algorithm (oracle::ReferenceQueueSim in tests/oracle/). That
# whole-run outputs still match the seed is pinned by golden tests
# (tests/test_sim_ab.cc).
#
# BENCH_cluster.json (fig12_cluster_scaleout): fails when any scale-out
# row reports bitidentical_jobs: false (the fleet's metrics depended on
# the thread count) or batched_matches_pernode: false (the batched
# cohort GEMM diverged from per-node forwards).
#
# BENCH_autoscale.json (fig_autoscale): fails when any acceptance check
# in the artifact's checks{} block is false -- the elastic fleet must
# hold QoS within 5 points of static max provisioning at a strictly
# lower bill and lower cost-normalized power, the flash-crowd row must
# actually scale out, the mixed-generation fleet must be billed, and
# every row must replay bit-identically across --jobs counts.
#
# BENCH_faults.json (fig_fault_resilience): fails when any check in
# the artifact's checks{} block is false -- warm recovery must return
# to the stable p99 faster than cold, a corrupt frame must be detected
# and fall back to a cold restart, and the fault run must replay
# bit-identically.
#
# These are hard invariants, so CI runs this after bench_smoke instead
# of trusting the benches' own exit codes alone (the artifacts are also
# what gets uploaded, so the gate checks exactly what a reader would
# download).
set -u

if [[ $# -gt 1 ]]; then
    echo "usage: scripts/check_bench.sh [DIR]" >&2
    exit 2
fi
dir=${1:-"$(cd "$(dirname "$0")/.." && pwd)/build"}

for name in sim dispatch cluster autoscale faults; do
    if [[ ! -f "$dir/BENCH_$name.json" ]]; then
        echo "check_bench: $dir/BENCH_$name.json not found -- run" \
            "bench_smoke first" >&2
        exit 1
    fi
done

python3 - "$dir" <<'EOF'
import json
import os
import sys

directory = sys.argv[1]
failures = 0


def load(name):
    path = os.path.join(directory, f"BENCH_{name}.json")
    with open(path) as f:
        return path, json.load(f)


def fail(message):
    global failures
    print(f"check_bench: FAIL {message}", file=sys.stderr)
    failures += 1


# BENCH_sim.json and BENCH_dispatch.json
path, root = load("sim")
configs = root.get("configs", [])
if not configs:
    fail(f"{path} has no configs")
for cfg in configs:
    name = cfg.get("name", "?")
    allocs = cfg.get("optimized_allocs_per_step")
    if not isinstance(allocs, (int, float)) or allocs > 0:
        fail(f"{name}: optimized_allocs_per_step is {allocs!r}")
    speed = cfg.get("optimized_steps_per_sec")
    print(f"check_bench: {name}: allocs/step={allocs} steps/s={speed}")

path, dispatch = load("dispatch")
cells = dispatch.get("dispatch_microbench", [])
if not cells:
    fail(f"{path} has no dispatch_microbench cells")
for cell in cells:
    name = f"{cell.get('cores')}c/{cell.get('pattern')}"
    if cell.get("checksums_match") is not True:
        fail(f"dispatch cell {name}: checksum mismatch")
print(f"check_bench: {len(cells)} dispatch microbench cells checked")

# BENCH_cluster.json
path, root = load("cluster")
rows = root.get("scale_out", [])
if not rows:
    fail(f"{path} has no scale_out rows")
for row in rows:
    name = f"{row.get('nodes')}n/{row.get('domains')}d"
    if row.get("bitidentical_jobs") is not True:
        fail(f"scale-out {name}: fleet metrics depend on --jobs "
             f"(bitidentical_jobs is {row.get('bitidentical_jobs')!r})")
    if row.get("batched_matches_pernode") is not True:
        fail(f"scale-out {name}: batched inference diverged from "
             f"per-node forwards")
    print(f"check_bench: scale-out {name}: "
          f"bitidentical_jobs={row.get('bitidentical_jobs')} "
          f"batched=pernode={row.get('batched_matches_pernode')} "
          f"fwd_speedup={row.get('forward_speedup')}")

# BENCH_autoscale.json
path, root = load("autoscale")
runs = root.get("runs", [])
if not runs:
    fail(f"{path} has no runs")
for run in runs:
    name = run.get("fleet", "?")
    if run.get("replay_bit_identical") is not True:
        fail(f"autoscale {name}: run is not bit-identical across --jobs "
             f"counts")
    print(f"check_bench: autoscale {name}: "
          f"qos={run.get('qos_pct')} dollars={run.get('dollars')} "
          f"cost_norm_w={run.get('cost_normalized_power_w')} "
          f"bitidentical={run.get('replay_bit_identical')}")
autoscale_checks = [
    "qos_within_5pts_of_static",
    "cheaper_than_static_max",
    "cost_normalized_power_below_static_max",
    "flashcrowd_scaled_out",
    "mixed_gen_billed",
    "replay_bit_identical",
]
checks = root.get("checks", {})
for key in autoscale_checks:
    if checks.get(key) is not True:
        fail(f"autoscale check {key} is {checks.get(key)!r}")

# BENCH_faults.json
path, root = load("faults")
fault_checks = [
    "warm_faster_than_cold",
    "corrupt_detected_cold_fallback",
    "replay_bit_identical",
]
checks = root.get("checks", {})
for key in fault_checks:
    if checks.get(key) is not True:
        fail(f"faults check {key} is {checks.get(key)!r}")

if failures:
    print(f"check_bench: {failures} invariant violation(s) in {directory}",
          file=sys.stderr)
    sys.exit(1)
print(f"check_bench: invariants hold in {directory}: sim, dispatch, "
      f"cluster ({len(rows)} scale-out rows), autoscale ({len(runs)} fleet "
      f"rows, {len(autoscale_checks)} acceptance checks), faults "
      f"({len(fault_checks)} acceptance checks)")
EOF
