#!/usr/bin/env bash
# Crash-recovery end-to-end check: run the quickstart co-simulation
# with periodic checkpointing enabled, SIGKILL it mid-run, resume from
# the newest on-disk image and verify the resumed run reproduces the
# uninterrupted reference bit-for-bit (final tick, packet counts and
# the full statistics dump).
#
# With --remote the detailed network lives in a rasim-nocd worker
# managed by rasim-supervisor, and the drill has two phases. Phase A
# SIGKILLs the *worker* mid-run: the supervisor respawns it on its old
# endpoint and the client survives in place, rebuilding the server
# from its recovery lineage (base image + journal replay) — the run
# finishes and must match the reference. Phase B SIGKILLs the *client*
# mid-run and resumes it from the newest paired client+server
# checkpoint image against the still-supervised fleet. The client
# speaks the one-frame-per-quantum Step transport with idle elision,
# so the kills land between (or inside) quantum exchanges while the
# hosted fabric holds traffic in flight; the bit-identical outcomes
# prove that no in-flight exchange leaks into a checkpoint or a
# recovery replay.
#
# Usage: scripts/kill_and_resume.sh [build-dir] [--remote]
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="$repo/build"
remote=0
for arg in "$@"; do
    case "$arg" in
      --remote) remote=1 ;;
      *) build="$arg" ;;
    esac
done
jobs="$(nproc 2>/dev/null || echo 2)"

cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build" -j "$jobs" \
    --target quickstart rasim-nocd rasim-supervisor

quickstart="$build/examples/quickstart"
nocd="$build/src/ipc/rasim-nocd"
supervisor="$build/src/ipc/rasim-supervisor"
work="$(mktemp -d)"
sup_pid=""
cleanup() {
    [ -n "$sup_pid" ] && kill "$sup_pid" 2> /dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

# A workload long enough (~10 s) that the SIGKILL lands mid-run, well
# after the first periodic image hits the disk.
args=(system.ops_per_core=20000 checkpoint.interval_quanta=4)

registry="$work/registry"

start_fleet() {
    "$supervisor" --endpoints "unix:$work/nocd.sock" --worker "$nocd" \
        --registry "$registry" --backoff-base-ms 20 \
        --backoff-max-ms 200 > "$work/supervisor.log" 2>&1 &
    sup_pid=$!
    for _ in $(seq 1 200); do
        grep -q "listening on" "$work/supervisor.log" 2> /dev/null \
            && return 0
        sleep 0.05
    done
    echo "error: the supervised worker did not come up" >&2
    cat "$work/supervisor.log" >&2
    exit 1
}

kill_worker() {
    local pid
    pid="$(awk '$1 == "worker" && $2 == 0 {print $6}' "$registry")"
    [ -n "$pid" ] && [ "$pid" -gt 0 ] && kill -9 "$pid" 2> /dev/null \
        || true
}

if [ "$remote" = 1 ]; then
    # The worker fleet outlives any single worker: the supervisor
    # respawns a SIGKILLed rasim-nocd on the same endpoint, and the
    # client's retry budget is sized to outlast that respawn window.
    # health.degrade=false keeps a genuinely lost backend fatal, so
    # phase A really proves recovery, not degradation.
    args+=(network.backend=remote "remote.socket=unix:$work/nocd.sock"
           "network.remote.registry=$registry"
           network.remote.ckpt_quanta=16
           network.remote.retry.max_attempts=30
           network.remote.retry.base_ms=2
           network.remote.retry.max_ms=50
           network.remote.retry.deadline_ms=0
           network.remote.retry.breaker_failures=0
           health.degrade=false remote.connect_timeout_ms=500
           remote.quantum_timeout_ms=2000)
    start_fleet
fi

echo "== reference run (uninterrupted) =="
"$quickstart" "${args[@]}" > "$work/reference.log"

# Everything from the finish line onward — final tick, packet counts,
# latencies and the full statistics dump — must match the reference
# exactly; wall-clock quantities are deliberately kept out of stats.
# The health.* counters are transport weather, not simulation results:
# a recovered client legitimately records the reconnects, failovers
# and registry-mirrored restarts its drill needed, which the
# uninterrupted reference never did.
extract() {
    sed -n '/^finished at tick/,$p' "$1" |
        grep -Ev '\.health\.(reconnects|retries|failovers|backoff_ms_total|breaker_trips|standby_prime_failures|reprimes|heartbeat_misses|attestation_mismatches|worker_restarts)'
}

if [ "$remote" = 1 ]; then
    echo "== phase A: worker killed mid-run, client survives in place =="
    "$quickstart" "${args[@]}" > "$work/survived.log" 2>&1 &
    pid=$!
    sleep 2
    kill -0 "$pid" 2> /dev/null || {
        echo "error: run completed before the worker could be killed" >&2
        exit 1
    }
    kill_worker
    wait "$pid" || {
        echo "error: client did not survive the worker SIGKILL" >&2
        tail -20 "$work/survived.log" >&2
        exit 1
    }
    if ! diff <(extract "$work/reference.log") \
              <(extract "$work/survived.log"); then
        echo "error: survived run diverged from the reference" >&2
        exit 1
    fi
    reconnects="$(awk '$1 ~ /\.health\.reconnects$/ {sum += $2} END {print sum + 0}' \
        "$work/survived.log")"
    if [ "${reconnects%.*}" -lt 1 ]; then
        echo "error: the worker kill landed after the run ended;" \
             "phase A proved nothing" >&2
        exit 1
    fi
    echo "client survived the worker kill and matches the reference"
fi

echo "== checkpointing run, killed mid-flight =="
"$quickstart" "${args[@]}" checkpoint.dir="$work/ckpt" \
    > "$work/killed.log" 2>&1 &
pid=$!
# Wait for the first retained checkpoint image, then kill -9: no
# destructors, no flush — exactly the crash the tmp+rename protocol
# is supposed to survive.
for _ in $(seq 1 600); do
    compgen -G "$work/ckpt/ckpt-*.ckpt" > /dev/null && break
    sleep 0.05
done
compgen -G "$work/ckpt/ckpt-*.ckpt" > /dev/null || {
    echo "error: no checkpoint image appeared before the run ended" >&2
    cat "$work/killed.log" >&2
    exit 1
}
kill -9 "$pid" 2> /dev/null || true
wait "$pid" 2> /dev/null || true
if grep -q "finished at tick" "$work/killed.log"; then
    echo "error: run completed before it could be killed" >&2
    exit 1
fi
echo "killed pid $pid with $(ls "$work/ckpt" | wc -l) image(s) on disk"

echo "== resumed run =="
# Under --remote the supervised fleet is still up: the resumed client
# opens a fresh session and pushes the paired server-side image into
# it over CkptLoad.
"$quickstart" "${args[@]}" checkpoint.dir="$work/ckpt" \
    --restore="$work/ckpt" > "$work/resumed.log"

if ! diff <(extract "$work/reference.log") <(extract "$work/resumed.log"); then
    echo "error: resumed run diverged from the uninterrupted reference" >&2
    exit 1
fi
echo "resumed run matches the uninterrupted reference"
