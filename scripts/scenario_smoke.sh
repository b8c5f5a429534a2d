#!/usr/bin/env bash
# Smoke-run every shipped scenario file at reduced step counts.
#
# Usage: scripts/scenario_smoke.sh [BUILD_DIR] [STEPS]
#
# Each scenarios/*.json is run through twig_sim --scenario (twig_sim
# executes both single-node and cluster topologies), overriding the
# file's schedule with a small --steps so the whole sweep finishes in
# seconds. A run fails the smoke if it exits non-zero or if its output
# carries no metrics (no QoS line). Fault scenarios (faults_*.json)
# additionally must report a fault-event summary, proving the schedule
# actually fired within the reduced step budget. A deployed fleet is
# smoked at scale too: a one-node donor is trained and checkpointed,
# then 512 exploit-only replicas warm-start from it (no per-node power
# profiling, so setup takes seconds) and must print metrics, the same
# bytes stepped on one thread and on four. A
# 500-step Twig-S run's --sim-profile table must carry an
# `unattributed` row (wall time outside every simulator and agent
# phase) below 5 %, so the profile keeps accounting for the agent's
# own work; only a failure prints the table, whose cycle counts vary
# from run to run. Finally, invalid input (unknown service, missing
# file, non-finite load, a fleet flag on a single-node run, an
# unreadable checkpoint, a misspelled key in a scenario or --faults
# file, a key the fault's kind does not read, a repeated key) must exit
# 2 with a message: never a crash, never a silently ignored flag or
# key.
set -u

cd "$(dirname "$0")/.."
build_dir=${1:-build}
steps=${2:-60}
sim="$build_dir/tools/twig_sim"

if [[ ! -x "$sim" ]]; then
    echo "scenario_smoke: $sim not found -- build the project first" >&2
    exit 1
fi

failures=0
for scenario in scenarios/*.json; do
    printf '== %s (steps=%s)\n' "$scenario" "$steps"
    if ! out=$("$sim" --scenario "$scenario" --steps "$steps" 2>&1); then
        printf '%s\n' "$out"
        echo "scenario_smoke: FAIL $scenario (non-zero exit)" >&2
        failures=$((failures + 1))
        continue
    fi
    printf '%s\n' "$out"
    if ! grep -q "QoS" <<<"$out"; then
        echo "scenario_smoke: FAIL $scenario (no metrics in output)" >&2
        failures=$((failures + 1))
        continue
    fi
    case "$scenario" in
    scenarios/faults_*.json)
        if ! grep -Eq 'fault events: [1-9]' <<<"$out"; then
            echo "scenario_smoke: FAIL $scenario (fault schedule did not fire)" >&2
            failures=$((failures + 1))
        fi
        ;;
    scenarios/autoscale_*.json)
        if ! grep -Eq 'scale events: [1-9]' <<<"$out"; then
            echo "scenario_smoke: FAIL $scenario (autoscaler never acted)" >&2
            failures=$((failures + 1))
        fi
        ;;
    scenarios/fleet_mixed_gen.json)
        if ! grep -Eq 'fleet bill \$[0-9]' <<<"$out"; then
            echo "scenario_smoke: FAIL $scenario (no cost-model bill in output)" >&2
            failures=$((failures + 1))
        fi
        ;;
    esac
done

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
fleet_services=(--service masstree --service img-dnn)
# 10 steps: the horizon defaults to --steps, and Twig's compressed
# preset needs a horizon of at least 10.
printf '== warm 512-node fleet from a one-node donor\n'
out4=
if ! out=$("$sim" "${fleet_services[@]}" --nodes 1 --steps 200 \
    --save-checkpoint "$tmp/donor.ckpt" 2>&1) ||
    ! out=$("$sim" "${fleet_services[@]}" --nodes 512 --domains 8 \
        --policy p2c-latency --checkpoint "$tmp/donor.ckpt" --steps 10 2>&1) ||
    ! out4=$("$sim" "${fleet_services[@]}" --nodes 512 --domains 8 \
        --policy p2c-latency --checkpoint "$tmp/donor.ckpt" --steps 10 \
        --jobs 4 2>&1); then
    printf '%s\n' "$out" "$out4"
    echo "scenario_smoke: FAIL warm 512-node fleet (non-zero exit)" >&2
    failures=$((failures + 1))
else
    printf '%s\n' "$out"
    if ! grep -q "QoS" <<<"$out"; then
        echo "scenario_smoke: FAIL warm 512-node fleet (no metrics in output)" >&2
        failures=$((failures + 1))
    fi
    if [[ "$out4" != "$out" ]]; then
        printf '%s\n' "$out4"
        echo "scenario_smoke: FAIL warm 512-node fleet (--jobs 4 output differs from --jobs 1)" >&2
        failures=$((failures + 1))
    fi
fi

printf '== Twig-S control-interval profile (500 steps)\n'
if ! out=$("$sim" --service masstree --manager twig --steps 500 \
    --sim-profile 2>&1); then
    printf '%s\n' "$out"
    echo "scenario_smoke: FAIL Twig-S --sim-profile (non-zero exit)" >&2
    failures=$((failures + 1))
else
    unattributed=$(awk '$1 == "unattributed" { sub(/%$/, "", $NF); print $NF }' \
        <<<"$out")
    if [[ -z "$unattributed" ]]; then
        printf '%s\n' "$out"
        echo "scenario_smoke: FAIL Twig-S --sim-profile (no unattributed row)" >&2
        failures=$((failures + 1))
    elif ! awk -v u="$unattributed" 'BEGIN { exit !(u < 5) }'; then
        printf '%s\n' "$out"
        echo "scenario_smoke: FAIL Twig-S --sim-profile (unattributed" \
            "${unattributed}% of wall time, want < 5%)" >&2
        failures=$((failures + 1))
    else
        echo "unattributed below 5% of wall time"
    fi
fi

expect_usage_error() {
    local out status
    out=$("$sim" "$@" 2>&1)
    status=$?
    if [[ $status -ne 2 || -z "$out" ]]; then
        printf '%s\n' "$out"
        echo "scenario_smoke: FAIL twig_sim $* (exit $status, want 2" \
            "with a message)" >&2
        failures=$((failures + 1))
        return
    fi
    printf '== twig_sim %s -> exit 2: %s\n' "$*" "$out"
}
expect_usage_error --service nosuch --steps 3
expect_usage_error --scenario scenarios/does_not_exist.json
expect_usage_error --service masstree --load nan --steps 3
expect_usage_error --service masstree --policy wrr --steps 3
expect_usage_error --scenario scenarios/fig12_cluster.json --steps 3 \
    --checkpoint does_not_exist.ckpt
echo '{"name": "misspelled", "services": [{"service": "masstree",' \
    '"patern": "diurnal"}]}' >"$tmp/misspelled.json"
expect_usage_error --scenario "$tmp/misspelled.json" --steps 3
echo '{"events": [{"type": "node_crash", "at": 2, "nodde": 1}]}' \
    >"$tmp/misspelled_faults.json"
expect_usage_error --scenario scenarios/fig12_cluster.json --steps 3 \
    --faults "$tmp/misspelled_faults.json"
# A node_crash reads neither key: it must not run as a crash that never
# restarts.
echo '{"events": [{"type": "node_crash", "at": 5, "node": 1,' \
    '"duration": 10, "multiplier": 3.0}]}' >"$tmp/foreign_key_faults.json"
expect_usage_error --service masstree --manager static --nodes 2 --steps 20 \
    --faults "$tmp/foreign_key_faults.json"
echo '{"name": "repeated", "steps": 20, "services":' \
    '[{"service": "masstree"}], "steps": 30}' >"$tmp/repeated.json"
expect_usage_error --scenario "$tmp/repeated.json" --steps 3

if [[ $failures -gt 0 ]]; then
    echo "scenario_smoke: $failures check(s) failed" >&2
    exit 1
fi
echo "scenario_smoke: all scenarios and usage errors OK"
