#!/usr/bin/env bash
# Crash-anywhere soak: the recovery differential, end-to-end over real
# processes. One rasim-nocd serves one endpoint, and a shell respawn
# loop in this script restarts it on that address whenever it dies
# (restarting a dead server is the caller's job, not the client's).
# The quickstart co-simulation runs against it once fault-free (the
# baseline), then once per seed while this script SIGKILLs the server
# at seed-derived moments. The client's recovery lineage (a cold open
# of the base image plus journal replay, on whichever process answers)
# carries it across, and every killed run must reproduce the
# baseline's headline results exactly.
#
# On a mismatch the offending seed is printed so the failure can be
# replayed: scripts/crash_anywhere_soak.sh <build-dir> <seed>.
#
# Usage: scripts/crash_anywhere_soak.sh [build-dir] [seed ...]
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-"$repo/build"}"
shift || true
seeds=("$@")
[ "${#seeds[@]}" -eq 0 ] && seeds=(1 5 31337)
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

# The headline block is the differential claim; the health counters
# (reconnects, retries, ...) are failure weather that
# legitimately differs between a calm run and a massacred one.
extract() {
    sed -n '/^finished at tick/,/^reciprocal table/p' "$1"
}

# A workload long enough (~10 s) that every kill in the schedule lands
# while the run is still in flight.
args=(system.ops_per_core=20000 network.backend=remote
      "remote.socket=$endpoint"
      network.remote.ckpt_quanta=16)

# Deterministic retry sized for a respawn window: no wall-clock
# deadline and backed-off attempts that comfortably outlast a restart,
# so no kill streak can shed the recovery lineage.
retry_args=(
    network.remote.retry.max_attempts=30
    network.remote.retry.base_ms=2
    network.remote.retry.max_ms=50
    network.remote.retry.deadline_ms=0
)

# Seed-derived kill schedule: three kills per run, each a sleep in
# deciseconds before the next SIGKILL. An LCG keeps the schedule
# reproducible per seed.
kill_schedule() { # <seed>
    local s="$1" k
    for k in 1 2 3; do
        s=$(( (s * 1103515245 + 12345) % 2147483648 ))
        echo "$(( (s % 8) + 3 ))"
    done
}

health_counter() { # <log> <name> — summed health counter value
    awk -v n="$2" '$1 ~ ("\\.health\\." n "$") {sum += $2} END {print sum + 0}' "$1"
}

start_server

echo "== baseline: fault-free remote run =="
"$quickstart" "${args[@]}" "${retry_args[@]}" > "$work/baseline.log"

for seed in "${seeds[@]}"; do
    echo "== crash run, seed=$seed =="
    "$quickstart" "${args[@]}" "${retry_args[@]}" \
        > "$work/crash-$seed.log" 2>&1 &
    client=$!
    while read -r sleep_ds; do
        sleep "0.$sleep_ds"
        kill -0 "$client" 2> /dev/null || break
        echo "   kill: rasim-nocd"
        kill_server
    done < <(kill_schedule "$seed")
    if ! wait "$client"; then
        echo "error: the client did not survive the kill schedule" >&2
        echo "error: replay with seed $seed" >&2
        tail -20 "$work/crash-$seed.log" >&2
        exit 1
    fi
    if ! diff <(extract "$work/baseline.log") \
              <(extract "$work/crash-$seed.log"); then
        echo "error: crash run diverged from the fault-free baseline" >&2
        echo "error: replay with seed $seed" >&2
        exit 1
    fi
    reconnects="$(health_counter "$work/crash-$seed.log" reconnects)"
    if [ "${reconnects%.*}" -lt 1 ]; then
        echo "error: seed $seed landed no kill mid-run (reconnects=0);" \
             "the soak proved nothing" >&2
        exit 1
    fi
done

echo "crash-anywhere soak passed: every killed run matches the baseline"
