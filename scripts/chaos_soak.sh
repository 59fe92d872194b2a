#!/usr/bin/env bash
# Chaos soak: the fault-tolerance differential, end-to-end over a real
# socket. Run the quickstart co-simulation against a rasim-nocd server
# once fault-free (the baseline), then once per seed with the client's
# transport chaos injector armed (torn frames, short reads, CRC
# corruption, stalls, cold disconnects) and deterministic retry — every
# chaos run must produce the identical headline results. A further run
# exercises server-side chaos (the daemon tears its own replies), and a
# final check SIGTERMs the daemon and expects it to stop within 5 s
# with status 0.
#
# On a mismatch the offending seed is printed so the failure can be
# replayed exactly.
#
# Usage: scripts/chaos_soak.sh [build-dir] [seed ...]
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-"$repo/build"}"
shift || true
seeds=("$@")
[ "${#seeds[@]}" -eq 0 ] && seeds=(1 22695477 987654321)
jobs="$(nproc 2>/dev/null || echo 2)"

cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build" -j "$jobs" --target quickstart rasim-nocd

quickstart="$build/examples/quickstart"
nocd="$build/src/ipc/rasim-nocd"
work="$(mktemp -d)"
server_pid=""
cleanup() {
    [ -n "$server_pid" ] && kill "$server_pid" 2> /dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

start_server() { # <socket> <log> [server key=value ...]
    local socket="$1" log="$2"
    shift 2
    "$nocd" "unix:$socket" "$@" > "$log" 2>&1 &
    server_pid=$!
    for _ in $(seq 1 100); do
        grep -q "listening on" "$log" && return 0
        sleep 0.05
    done
    echo "error: rasim-nocd did not come up" >&2
    cat "$log" >&2
    exit 1
}

stop_server() {
    [ -n "$server_pid" ] || return 0
    kill "$server_pid" 2> /dev/null || true
    wait "$server_pid" 2> /dev/null || true
    server_pid=""
}

# The headline block (finish tick through the reciprocal-table summary)
# is the differential claim; transport/health counters — retries,
# reconnects, backoff — legitimately differ between a chaotic and a
# calm run and live outside it.
extract() {
    sed -n '/^finished at tick/,/^reciprocal table/p' "$1"
}

args=(system.ops_per_core=2000 network.backend=remote)

# Deterministic retry in its bit-reproducible configuration: no
# wall-clock deadline (the one nondeterministic input) and a generous
# attempt budget.
# A short journal (frequent base refreshes) keeps each recovery replay
# small, and the attempt budget exceeds the fault cap: even if every
# remaining fault lands inside one retry round, the round survives.
retry_args=(
    network.remote.retry.max_attempts=12
    network.remote.retry.base_ms=0.05
    network.remote.retry.max_ms=0.5
    network.remote.retry.deadline_ms=0
    network.remote.ckpt_quanta=16
)

chaos_args() { # <seed>
    echo fault.transport.enabled=1 \
        "fault.transport.seed=$1" \
        fault.transport.torn_frame=0.01 \
        fault.transport.short_read=0.005 \
        fault.transport.corrupt=0.01 \
        fault.transport.delay=0.01 \
        fault.transport.delay_ms=0.05 \
        fault.transport.stall=0.005 \
        fault.transport.stall_ms=0.1 \
        fault.transport.disconnect=0.005 \
        fault.transport.min_gap_ops=25 \
        fault.transport.max_faults=10
}

socket="$work/nocd.sock"
echo "== baseline: fault-free remote run =="
start_server "$socket" "$work/nocd.log"
"$quickstart" "${args[@]}" remote.socket="unix:$socket" \
    > "$work/baseline.log"

for seed in "${seeds[@]}"; do
    echo "== chaos run, seed=$seed =="
    # shellcheck disable=SC2046
    "$quickstart" "${args[@]}" remote.socket="unix:$socket" \
        "${retry_args[@]}" $(chaos_args "$seed") \
        > "$work/chaos-$seed.log"
    if ! diff <(extract "$work/baseline.log") \
              <(extract "$work/chaos-$seed.log"); then
        echo "error: chaos run diverged from the fault-free baseline" >&2
        echo "error: replay with fault.transport.seed=$seed" >&2
        exit 1
    fi
done
stop_server

echo "== server-side chaos: the daemon tears its own replies =="
chaotic="$work/nocd-chaos.sock"
start_server "$chaotic" "$work/nocd-chaos.log" \
    fault.transport.enabled=1 fault.transport.seed=7 \
    fault.transport.torn_frame=0.01 fault.transport.min_gap_ops=20 \
    fault.transport.max_faults=10
"$quickstart" "${args[@]}" remote.socket="unix:$chaotic" \
    "${retry_args[@]}" > "$work/server-chaos.log"
if ! diff <(extract "$work/baseline.log") \
          <(extract "$work/server-chaos.log"); then
    echo "error: run against a chaotic server diverged (server seed=7)" >&2
    exit 1
fi

echo "== SIGTERM stops rasim-nocd =="
kill -TERM "$server_pid"
for _ in $(seq 1 100); do
    kill -0 "$server_pid" 2> /dev/null || break
    sleep 0.05
done
if kill -0 "$server_pid" 2> /dev/null; then
    echo "error: rasim-nocd did not stop within 5s of SIGTERM" >&2
    exit 1
fi
wait "$server_pid" || {
    echo "error: rasim-nocd exited non-zero after SIGTERM" >&2
    exit 1
}
server_pid=""
grep -q "exiting" "$work/nocd-chaos.log" || {
    echo "error: stopped daemon left no exit line" >&2
    cat "$work/nocd-chaos.log" >&2
    exit 1
}

echo "chaos soak passed: every seeded run matches the baseline"
