#!/usr/bin/env bash
# Out-of-process backend smoke test: start a rasim-nocd server, run the
# quickstart co-simulation once against the in-process backend and once
# against the remote one, on each router organisation (noc.router), and
# verify the headline results — finish tick, packet counts, latencies
# and the reciprocal-table observation count — match exactly. This is
# the differential claim of the remote backend, exercised end-to-end
# over a real socket.
#
# Usage: scripts/remote_smoke.sh [build-dir]
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-"$repo/build"}"
jobs="$(nproc 2>/dev/null || echo 2)"

cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build" -j "$jobs" --target quickstart rasim-nocd

quickstart="$build/examples/quickstart"
nocd="$build/src/ipc/rasim-nocd"
work="$(mktemp -d)"
socket="$work/nocd.sock"
server_pid=""
cleanup() {
    [ -n "$server_pid" ] && kill "$server_pid" 2> /dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

args=(system.ops_per_core=2000)

echo "== rasim-nocd =="
"$nocd" "unix:$socket" > "$work/nocd.log" 2>&1 &
server_pid=$!
for _ in $(seq 1 100); do
    grep -q "listening on" "$work/nocd.log" && break
    sleep 0.05
done
grep -q "listening on" "$work/nocd.log" || {
    echo "error: rasim-nocd did not come up" >&2
    cat "$work/nocd.log" >&2
    exit 1
}

# The headline block: everything from the finish line through the
# reciprocal-table summary must be identical. (The full stats dump is
# not comparable across backends: the client exports transport
# counters, the in-process network exports router internals.)
extract() {
    sed -n '/^finished at tick/,/^reciprocal table/p' "$1"
}
for router in vc deflection; do
    echo "== noc.router=$router: in-process reference run =="
    "$quickstart" "${args[@]}" noc.router="$router" \
        > "$work/inproc-$router.log"
    echo "== noc.router=$router: remote run (network.backend=remote) =="
    "$quickstart" "${args[@]}" noc.router="$router" \
        network.backend=remote remote.socket="unix:$socket" \
        > "$work/remote-$router.log"
    if ! diff <(extract "$work/inproc-$router.log") \
        <(extract "$work/remote-$router.log")
    then
        echo "error: noc.router=$router: remote run diverged from the" \
            "in-process reference" >&2
        exit 1
    fi
    echo "noc.router=$router: remote run matches the in-process reference"
done
