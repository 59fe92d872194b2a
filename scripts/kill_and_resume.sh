#!/usr/bin/env bash
# Crash-recovery end-to-end check: run the quickstart co-simulation
# with periodic checkpointing enabled, SIGKILL it mid-run, resume from
# the newest on-disk image and verify the resumed run reproduces the
# uninterrupted reference bit-for-bit (final tick, packet counts and
# the full statistics dump).
#
# With --remote the detailed network lives in a rasim-nocd server that
# a shell respawn loop in this script restarts on its address whenever
# it dies, and the drill has two phases. Phase A SIGKILLs the *server*
# mid-run: the loop restarts it on the same endpoint and the client
# survives in place, rebuilding the server from its recovery lineage
# (base image + journal replay) — the run finishes and must match the
# reference. Phase B SIGKILLs the *client* mid-run and resumes it from
# the newest paired client+server checkpoint image against the
# still-running server. The client
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
    --target quickstart rasim-nocd

quickstart="$build/examples/quickstart"
nocd="$build/src/ipc/rasim-nocd"
work="$(mktemp -d)"
respawn_pid=""
cleanup() {
    if [ -n "$respawn_pid" ]; then
        kill "$respawn_pid" 2> /dev/null || true
        wait "$respawn_pid" 2> /dev/null || true
    fi
    rm -rf "$work"
}
trap cleanup EXIT

# A workload long enough (~10 s) that the SIGKILL lands mid-run, well
# after the first periodic image hits the disk.
args=(system.ops_per_core=20000 checkpoint.interval_quanta=4)

endpoint="unix:$work/nocd.sock"

# Keep one rasim-nocd serving $endpoint: a SIGKILLed server is started
# again on the same address, its pid published in $work/nocd.pid.
start_server() {
    (
        trap 'kill "$child" 2> /dev/null; exit 0' TERM
        while :; do
            "$nocd" "$endpoint" >> "$work/nocd.log" 2>&1 &
            child=$!
            echo "$child" > "$work/nocd.pid"
            wait "$child" 2> /dev/null || true
            sleep 0.02
        done
    ) &
    respawn_pid=$!
    for _ in $(seq 1 200); do
        grep -q "listening on" "$work/nocd.log" 2> /dev/null && return 0
        sleep 0.05
    done
    echo "error: rasim-nocd did not come up" >&2
    cat "$work/nocd.log" >&2
    exit 1
}

kill_server() {
    local pid
    pid="$(cat "$work/nocd.pid" 2> /dev/null || echo 0)"
    [ "$pid" -gt 0 ] && kill -9 "$pid" 2> /dev/null || true
}

if [ "$remote" = 1 ]; then
    # The respawn loop restarts a SIGKILLed rasim-nocd on the same
    # endpoint, and the client's retry budget is sized to outlast that
    # respawn window.
    # health.degrade=false keeps a genuinely lost backend fatal, so
    # phase A really proves recovery, not degradation.
    args+=(network.backend=remote "remote.socket=$endpoint"
           network.remote.ckpt_quanta=16
           network.remote.retry.max_attempts=30
           network.remote.retry.base_ms=2
           network.remote.retry.max_ms=50
           network.remote.retry.deadline_ms=0
           health.degrade=false remote.connect_timeout_ms=500
           remote.quantum_timeout_ms=2000)
    start_server
fi

echo "== reference run (uninterrupted) =="
"$quickstart" "${args[@]}" > "$work/reference.log"

# Everything from the finish line onward — final tick, packet counts,
# latencies and the full statistics dump — must match the reference
# exactly; wall-clock quantities are deliberately kept out of stats.
# The health.* counters are transport weather, not simulation results:
# a recovered client legitimately records the reconnects and retries
# its drill needed, which the uninterrupted reference never did.
extract() {
    sed -n '/^finished at tick/,$p' "$1" |
        grep -Ev '\.health\.(reconnects|retries|backoff_ms_total|attestation_mismatches)'
}

if [ "$remote" = 1 ]; then
    echo "== phase A: server killed mid-run, client survives in place =="
    "$quickstart" "${args[@]}" > "$work/survived.log" 2>&1 &
    pid=$!
    sleep 2
    kill -0 "$pid" 2> /dev/null || {
        echo "error: run completed before the server could be killed" >&2
        exit 1
    }
    kill_server
    wait "$pid" || {
        echo "error: client did not survive the server SIGKILL" >&2
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
        echo "error: the server kill landed after the run ended;" \
             "phase A proved nothing" >&2
        exit 1
    fi
    echo "client survived the server kill and matches the reference"
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
# Under --remote the server is still up: the resumed client
# opens a fresh session and pushes the paired server-side image into
# it over CkptLoad.
"$quickstart" "${args[@]}" checkpoint.dir="$work/ckpt" \
    --restore="$work/ckpt" > "$work/resumed.log"

if ! diff <(extract "$work/reference.log") <(extract "$work/resumed.log"); then
    echo "error: resumed run diverged from the uninterrupted reference" >&2
    exit 1
fi
echo "resumed run matches the uninterrupted reference"
