#!/usr/bin/env bash
# Crash-anywhere soak: the self-healing differential, end-to-end over
# real processes. A rasim-supervisor manages a two-worker rasim-nocd
# fleet; the quickstart co-simulation runs against it once fault-free
# (the baseline), then once per seed while this script SIGKILLs
# workers at seed-derived moments — single kills of either worker and
# a double kill that takes the whole fleet down at once. The
# supervisor respawns every corpse on its old endpoint, the client's
# recovery lineage (a cold open of the base image plus journal replay,
# on whichever worker answers) carries it across, and every killed run
# must reproduce the baseline's headline results exactly.
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
# Defaults chosen so the schedules cover single kills of both workers
# AND a double kill (seed 5's first target is 2 = whole fleet down).
[ "${#seeds[@]}" -eq 0 ] && seeds=(1 5 31337)
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

ep0="unix:$work/worker-0.sock"
ep1="unix:$work/worker-1.sock"
registry="$work/registry"

start_fleet() {
    "$supervisor" --endpoints "$ep0,$ep1" --worker "$nocd" \
        --registry "$registry" --backoff-base-ms 20 \
        --backoff-max-ms 200 > "$work/supervisor.log" 2>&1 &
    sup_pid=$!
    # The workers inherit the supervisor's stdout: wait until both
    # announce their listening sockets.
    for _ in $(seq 1 200); do
        [ "$(grep -c "listening on" "$work/supervisor.log" \
            2> /dev/null || true)" -ge 2 ] && return 0
        sleep 0.05
    done
    echo "error: the worker fleet did not come up" >&2
    cat "$work/supervisor.log" >&2
    exit 1
}

worker_pid() { # <idx> — live pid from the registry, 0 while down
    awk -v i="$1" '$1 == "worker" && $2 == i {print $6}' "$registry"
}

kill_worker() { # <idx>
    local pid
    pid="$(worker_pid "$1")"
    [ -n "$pid" ] && [ "$pid" -gt 0 ] && kill -9 "$pid" 2> /dev/null \
        || true
}

# The headline block is the differential claim; the health counters
# (reconnects, failovers, retries, ...) are failure weather that
# legitimately differs between a calm run and a massacred one.
extract() {
    sed -n '/^finished at tick/,/^reciprocal table/p' "$1"
}

# A workload long enough (~10 s) that every kill in the schedule lands
# while the run is still in flight.
args=(system.ops_per_core=20000 network.backend=remote
      "remote.socket=$ep0"
      "network.remote.endpoints=$ep0,$ep1"
      "network.remote.registry=$registry"
      network.remote.ckpt_quanta=16)

# Deterministic retry sized for a supervisor respawn window: no
# wall-clock deadline, backed-off attempts that comfortably outlast
# the 20-200 ms restart backoff, breaker off so no kill streak can
# shed the recovery lineage.
retry_args=(
    network.remote.retry.max_attempts=30
    network.remote.retry.base_ms=2
    network.remote.retry.max_ms=50
    network.remote.retry.deadline_ms=0
    network.remote.retry.breaker_failures=0
)

# Seed-derived kill schedule: three kills per run, each "<sleep-ds>
# <target>" where target 0/1 kills that worker and 2 kills both (the
# double failure). An LCG keeps the schedule reproducible per seed.
kill_schedule() { # <seed>
    local s="$1" k
    for k in 1 2 3; do
        s=$(( (s * 1103515245 + 12345) % 2147483648 ))
        echo "$(( (s % 8) + 3 )) $(( s % 3 ))"
    done
}

health_counter() { # <log> <name> — summed health counter value
    awk -v n="$2" '$1 ~ ("\\.health\\." n "$") {sum += $2} END {print sum + 0}' "$1"
}

start_fleet

echo "== baseline: fault-free supervised run =="
"$quickstart" "${args[@]}" "${retry_args[@]}" > "$work/baseline.log"

for seed in "${seeds[@]}"; do
    echo "== crash run, seed=$seed =="
    "$quickstart" "${args[@]}" "${retry_args[@]}" \
        > "$work/crash-$seed.log" 2>&1 &
    client=$!
    while read -r sleep_ds target; do
        sleep "0.$sleep_ds"
        kill -0 "$client" 2> /dev/null || break
        if [ "$target" = 2 ]; then
            echo "   double kill: both workers"
            kill_worker 0
            kill_worker 1
        else
            echo "   kill: worker $target"
            kill_worker "$target"
        fi
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

echo "== supervisor teardown on SIGTERM =="
kill -TERM "$sup_pid"
for _ in $(seq 1 100); do
    kill -0 "$sup_pid" 2> /dev/null || break
    sleep 0.05
done
if kill -0 "$sup_pid" 2> /dev/null; then
    echo "error: rasim-supervisor did not exit within 5s of SIGTERM" >&2
    exit 1
fi
wait "$sup_pid" || {
    echo "error: rasim-supervisor exited non-zero after SIGTERM" >&2
    exit 1
}
sup_pid=""
grep -q "rasim-supervisor exiting" "$work/supervisor.log" || {
    echo "error: supervisor left no exit line" >&2
    cat "$work/supervisor.log" >&2
    exit 1
}

echo "crash-anywhere soak passed: every killed run matches the baseline"
