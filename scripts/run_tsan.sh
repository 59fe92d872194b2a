#!/usr/bin/env bash
# Build the simulator (and the test-only object oracle the noc
# differentials link) with ThreadSanitizer and run the test labels
# that exercise concurrency: sim (engine unit/property tests), noc
# (serial-vs-parallel differentials of the soa kernel, whose flat
# occupancy arrays rely on the single-writer-per-phase discipline TSan
# validates, and of the oracle), cosim (overlapped bridge determinism)
# and ipc (the multiplexing rasim-nocd daemon — session threads, drain
# and watchdog, and the multi-session soak).
#
# Usage: scripts/run_tsan.sh [build-dir]
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-"$repo/build-tsan"}"
jobs="$(nproc 2>/dev/null || echo 2)"

cmake -B "$build" -S "$repo" -DRASIM_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build" -j "$jobs"

# halt_on_error keeps CI red on the first race instead of drowning
# the log; second_deadlock_stack aids lock-order reports.
export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1 ${TSAN_OPTIONS:-}"

ctest --test-dir "$build" --output-on-failure -L 'sim|noc|cosim|ipc'
