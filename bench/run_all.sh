#!/bin/sh
# Smoke-run every figure/table bench in compressed (default) mode.
# Fails on the first nonzero exit. Used by the `bench_smoke` CMake
# target and usable standalone:
#
#   BENCH_DIR=build/bench bench/run_all.sh
#
# Every bench runs with its defaults: each takes only the flags its own
# code reads (see its --help), so there is no flag they all accept.
set -eu

if [ $# -ne 0 ]; then
    echo "run_all: takes no arguments (set BENCH_DIR to pick the build)" >&2
    exit 2
fi
BENCH_DIR="${BENCH_DIR:-build/bench}"
if [ ! -d "$BENCH_DIR" ]; then
    echo "run_all: bench dir '$BENCH_DIR' not found" \
         "(set BENCH_DIR or build first)" >&2
    exit 1
fi

BENCHES="
tab1_counter_selection
tab2_service_capacity
tab3_overhead
fig01_pmc_vs_ipc
fig04_power_model
fig05_twigs_fixed_load
fig06_masstree_mapping
fig07_learning_curve
fig08_transfer_single
fig09_transfer_coloc
fig10_varying_load_single
fig11_varying_load_coloc
fig12_coloc_mapping
fig12_cluster_scaleout
fig_fault_resilience
fig_autoscale
fig13_twigc_fixed_load
memx_memory_complexity
abl_design_knobs
perf_kernels
fig_sim_throughput
fig_dispatch
fig_serve
"

failures=0
for b in $BENCHES; do
    exe="$BENCH_DIR/$b"
    if [ ! -x "$exe" ]; then
        echo "run_all: missing bench binary $exe" >&2
        exit 1
    fi
    echo "== $b =="
    if ! "$exe"; then
        echo "run_all: $b FAILED" >&2
        failures=$((failures + 1))
        exit 1
    fi
done
echo "run_all: all benches passed"
