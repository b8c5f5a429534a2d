#!/usr/bin/env bash
# Gate the bench artifacts on their hard invariants.
#
# Usage: scripts/check_bench.sh [BENCH_SIM_JSON] [BENCH_CLUSTER_JSON] \
#                               [BENCH_AUTOSCALE_JSON] [BENCH_FAULTS_JSON]
#
# BENCH_sim.json (fig_sim_throughput, augmented by fig_dispatch): fails
# when any config reports optimized_allocs_per_step > 0 -- the hot loop
# allocated -- when the dispatch_microbench table is missing or empty,
# or when any of its cells reports checksums_match: false -- the
# sorted-lane dispatch diverged from the seed algorithm
# (oracle::ReferenceQueueSim in tests/oracle/). That whole-run outputs
# still match the seed is pinned by golden tests (tests/test_sim_ab.cc).
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
# A path given on the command line must exist. With no argument for
# it, the cluster, autoscale or faults artifact is skipped with a
# notice when absent (a sim-only bench run); the sim artifact is
# always required.
#
# These are hard invariants, so CI runs this after bench_smoke instead
# of trusting the benches' own exit codes alone (the artifacts are also
# what gets uploaded, so the gate checks exactly what a reader would
# download).
set -u

cd "$(dirname "$0")/.."
# Defaults are where the bench_smoke target writes (it runs in the
# build root).
bench_json=${1:-build/BENCH_sim.json}
cluster_json=${2:-build/BENCH_cluster.json}
autoscale_json=${3:-build/BENCH_autoscale.json}
faults_json=${4:-build/BENCH_faults.json}

if [[ ! -f "$bench_json" ]]; then
    echo "check_bench: $bench_json not found -- run bench_smoke first" >&2
    exit 1
fi
for i in 2 3 4; do
    if [[ $# -ge $i && ! -f "${!i}" ]]; then
        echo "check_bench: ${!i} not found" >&2
        exit 1
    fi
done

python3 - "$bench_json" <<'EOF'
import json
import sys

path = sys.argv[1]
with open(path) as f:
    root = json.load(f)

configs = root.get("configs", [])
if not configs:
    print(f"check_bench: {path} has no configs", file=sys.stderr)
    sys.exit(1)

failures = 0
for cfg in configs:
    name = cfg.get("name", "?")
    allocs = cfg.get("optimized_allocs_per_step")
    if not isinstance(allocs, (int, float)) or allocs > 0:
        print(f"check_bench: FAIL {name}: "
              f"optimized_allocs_per_step is {allocs!r}",
              file=sys.stderr)
        failures += 1
    speed = cfg.get("optimized_steps_per_sec")
    print(f"check_bench: {name}: allocs/step={allocs} steps/s={speed}")

cells = root.get("dispatch_microbench", [])
if not cells:
    print(f"check_bench: FAIL {path} has no dispatch_microbench cells "
          f"(run fig_dispatch after fig_sim_throughput)", file=sys.stderr)
    failures += 1
for cell in cells:
    name = f"{cell.get('cores')}c/{cell.get('pattern')}"
    if cell.get("checksums_match") is not True:
        print(f"check_bench: FAIL dispatch cell {name}: checksum mismatch",
              file=sys.stderr)
        failures += 1
print(f"check_bench: {len(cells)} dispatch microbench cells checked")

if failures:
    print(f"check_bench: {failures} invariant violation(s)", file=sys.stderr)
    sys.exit(1)
print("check_bench: sim invariants hold")
EOF
sim_status=$?
if [[ $sim_status -ne 0 ]]; then
    exit "$sim_status"
fi

if [[ ! -f "$cluster_json" ]]; then
    echo "check_bench: $cluster_json not found -- skipping cluster invariants"
    exit 0
fi

python3 - "$cluster_json" <<'EOF'
import json
import sys

path = sys.argv[1]
with open(path) as f:
    root = json.load(f)

rows = root.get("scale_out", [])
if not rows:
    print(f"check_bench: {path} has no scale_out rows", file=sys.stderr)
    sys.exit(1)

failures = 0
for row in rows:
    name = f"{row.get('nodes')}n/{row.get('domains')}d"
    if row.get("bitidentical_jobs") is not True:
        print(f"check_bench: FAIL scale-out {name}: fleet metrics "
              f"depend on --jobs (bitidentical_jobs is "
              f"{row.get('bitidentical_jobs')!r})", file=sys.stderr)
        failures += 1
    if row.get("batched_matches_pernode") is not True:
        print(f"check_bench: FAIL scale-out {name}: batched inference "
              f"diverged from per-node forwards", file=sys.stderr)
        failures += 1
    print(f"check_bench: scale-out {name}: "
          f"bitidentical_jobs={row.get('bitidentical_jobs')} "
          f"batched=pernode={row.get('batched_matches_pernode')} "
          f"fwd_speedup={row.get('forward_speedup')}")

if failures:
    print(f"check_bench: {failures} invariant violation(s)", file=sys.stderr)
    sys.exit(1)
print(f"check_bench: cluster invariants hold ({len(rows)} scale-out rows)")
EOF
cluster_status=$?
if [[ $cluster_status -ne 0 ]]; then
    exit "$cluster_status"
fi

if [[ ! -f "$autoscale_json" ]]; then
    echo "check_bench: $autoscale_json not found -- skipping autoscale invariants"
    exit 0
fi

python3 - "$autoscale_json" <<'EOF'
import json
import sys

path = sys.argv[1]
with open(path) as f:
    root = json.load(f)

runs = root.get("runs", [])
if not runs:
    print(f"check_bench: {path} has no runs", file=sys.stderr)
    sys.exit(1)

failures = 0
for run in runs:
    name = run.get("fleet", "?")
    if run.get("replay_bit_identical") is not True:
        print(f"check_bench: FAIL autoscale {name}: run is not "
              f"bit-identical across --jobs counts", file=sys.stderr)
        failures += 1
    print(f"check_bench: autoscale {name}: "
          f"qos={run.get('qos_pct')} dollars={run.get('dollars')} "
          f"cost_norm_w={run.get('cost_normalized_power_w')} "
          f"bitidentical={run.get('replay_bit_identical')}")

checks = root.get("checks", {})
required = [
    "qos_within_5pts_of_static",
    "cheaper_than_static_max",
    "cost_normalized_power_below_static_max",
    "flashcrowd_scaled_out",
    "mixed_gen_billed",
    "replay_bit_identical",
]
for key in required:
    if checks.get(key) is not True:
        print(f"check_bench: FAIL autoscale check {key} is "
              f"{checks.get(key)!r}", file=sys.stderr)
        failures += 1

if failures:
    print(f"check_bench: {failures} invariant violation(s)", file=sys.stderr)
    sys.exit(1)
print(f"check_bench: autoscale invariants hold ({len(runs)} fleet rows, "
      f"{len(required)} acceptance checks)")
EOF
autoscale_status=$?
if [[ $autoscale_status -ne 0 ]]; then
    exit "$autoscale_status"
fi

if [[ ! -f "$faults_json" ]]; then
    echo "check_bench: $faults_json not found -- skipping fault invariants"
    exit 0
fi

python3 - "$faults_json" <<'EOF'
import json
import sys

path = sys.argv[1]
with open(path) as f:
    root = json.load(f)

checks = root.get("checks", {})
required = [
    "warm_faster_than_cold",
    "corrupt_detected_cold_fallback",
    "replay_bit_identical",
]
failures = 0
for key in required:
    if checks.get(key) is not True:
        print(f"check_bench: FAIL faults check {key} is "
              f"{checks.get(key)!r}", file=sys.stderr)
        failures += 1

if failures:
    print(f"check_bench: {failures} invariant violation(s)", file=sys.stderr)
    sys.exit(1)
print(f"check_bench: fault invariants hold ({len(required)} acceptance "
      f"checks)")
EOF
