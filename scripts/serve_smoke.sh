#!/usr/bin/env bash
# Loopback smoke for the live serving front-end: start twig_serve on
# an ephemeral port, fire twig_loadgen at it, and check that both
# sides agree and shut down cleanly.
#
# Usage: scripts/serve_smoke.sh [BUILD_DIR]
#
# Asserts, end to end: the daemon binds and prints its port; the load
# generator connects, gets every offered request acked, and exits 0;
# the daemon accepts the same number of requests, writes a final
# checkpoint, and reports a clean shutdown after SIGTERM (exit 0) —
# the graceful-shutdown contract under a real signal, not just the
# in-process test. The checkpoint then warm-starts a fleet through
# twig_sim --checkpoint (exit 0 and a QoS line), and a copy with one
# flipped byte is refused (exit 2, naming the checksum).
set -u

cd "$(dirname "$0")/.."
build_dir=${1:-build}
serve="$build_dir/tools/twig_serve"
loadgen="$build_dir/tools/twig_loadgen"
sim="$build_dir/tools/twig_sim"

for exe in "$serve" "$loadgen" "$sim"; do
    if [[ ! -x "$exe" ]]; then
        echo "serve_smoke: $exe not found -- build the project first" >&2
        exit 1
    fi
done

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
serve_log="$workdir/serve.log"
ckpt="$workdir/final.ckpt"

"$serve" --scenario scenarios/serve.json --interval-ms 20 \
    --final-checkpoint "$ckpt" >"$serve_log" 2>&1 &
serve_pid=$!

# Wait for the daemon to report its (ephemeral) port. Generous budget:
# fleet construction is slow under sanitizers.
port=""
for _ in $(seq 1 300); do
    port=$(grep -oE 'listening on 127\.0\.0\.1:[0-9]+' "$serve_log" |
        grep -oE '[0-9]+$' || true)
    [[ -n "$port" ]] && break
    if ! kill -0 "$serve_pid" 2>/dev/null; then
        echo "serve_smoke: daemon died before listening" >&2
        cat "$serve_log" >&2
        exit 1
    fi
    sleep 0.1
done
if [[ -z "$port" ]]; then
    echo "serve_smoke: daemon never reported a port" >&2
    cat "$serve_log" >&2
    kill "$serve_pid" 2>/dev/null
    exit 1
fi
echo "serve_smoke: daemon up on port $port"

if ! loadgen_out=$("$loadgen" --port "$port" --rps 100000 \
    --connections 4 --duration-s 1 2>&1); then
    printf '%s\n' "$loadgen_out"
    echo "serve_smoke: FAIL (twig_loadgen exited non-zero)" >&2
    kill "$serve_pid" 2>/dev/null
    exit 1
fi
printf '%s\n' "$loadgen_out"

offered=$(grep -oE 'offered [0-9]+' <<<"$loadgen_out" | grep -oE '[0-9]+')
acked=$(grep -oE 'acked +[0-9]+' <<<"$loadgen_out" | grep -oE '[0-9]+')
if [[ -z "$offered" || "$offered" -eq 0 || "$offered" != "$acked" ]]; then
    echo "serve_smoke: FAIL (offered=$offered acked=$acked)" >&2
    kill "$serve_pid" 2>/dev/null
    exit 1
fi

# Graceful shutdown under a real signal.
kill -TERM "$serve_pid"
if ! wait "$serve_pid"; then
    echo "serve_smoke: FAIL (daemon exited non-zero on SIGTERM)" >&2
    cat "$serve_log" >&2
    exit 1
fi
cat "$serve_log"

if ! grep -q "clean shutdown" "$serve_log"; then
    echo "serve_smoke: FAIL (no clean-shutdown line)" >&2
    exit 1
fi
if ! grep -qE "accepted $offered requests" "$serve_log"; then
    echo "serve_smoke: FAIL (daemon did not accept all $offered offered requests)" >&2
    exit 1
fi
if [[ ! -s "$ckpt" ]]; then
    echo "serve_smoke: FAIL (no final checkpoint written)" >&2
    exit 1
fi

# The shutdown checkpoint is the format twig_sim deploys.
if ! sim_out=$("$sim" --scenario scenarios/serve.json --checkpoint "$ckpt" \
    --steps 20 2>&1) || ! grep -q "QoS" <<<"$sim_out"; then
    printf '%s\n' "$sim_out"
    echo "serve_smoke: FAIL (twig_sim could not deploy the final checkpoint)" >&2
    exit 1
fi
printf '%s\n' "$sim_out"

# A copy with one flipped byte (inside the last parameter) is refused.
flipped="$workdir/flipped.ckpt"
cp "$ckpt" "$flipped"
at=$(($(wc -c <"$flipped") - 3))
byte=$(od -An -tu1 -j "$at" -N1 "$flipped" | tr -d ' ')
printf "\\$(printf '%03o' $((byte ^ 1)))" |
    dd of="$flipped" bs=1 seek="$at" conv=notrunc status=none
"$sim" --scenario scenarios/serve.json --checkpoint "$flipped" \
    --steps 20 >"$workdir/flipped.log" 2>&1
rc=$?
if [[ $rc -ne 2 ]] || ! grep -q "checksum" "$workdir/flipped.log"; then
    cat "$workdir/flipped.log" >&2
    echo "serve_smoke: FAIL (a corrupt checkpoint was not refused: exit $rc)" >&2
    exit 1
fi
cat "$workdir/flipped.log"
echo "serve_smoke: OK (offered=$offered acked=$acked, checkpoint $(wc -c <"$ckpt") bytes, redeployed and corruption refused)"
