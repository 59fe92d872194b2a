#!/usr/bin/env python3
"""Co-simulation benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record [--seeds 1,2,...]

Run from the root of a source checkout. The first run builds an optimised
harness under .bench_build/perfbench from this directory's CMakeLists.txt
(which compiles ../src); later runs rebuild only what changed.

Each run repeats the workload's co-simulation until --seconds are spent
and checks every rep's output (see check_reps). With --trace 0 it prints
the end-to-end metrics; with --trace 1 it alternates untraced and traced
reps and prints the per-layer metrics, and the traced spans of the last
rep are written to .bench_build/perfbench/trace-<workload>-seed<N>.json.
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.

Simulation seeds (sim.seed) come from references.json's seed_pool,
starting at index --seed modulo the pool size, so --seed 0-9 start at
sim.seed 0-9. A traced run simulates that one seed. An untraced run
walks the pool from there, one seed per round of reps, so its median
covers many inputs rather than one seed's straggler core; seed-to-seed
spread in a short run's simulated length is several percent. The pool
holds only seeds on which every workload runs clean: the coherence
protocol livelocks on a few seeds (livelocked_sim_seeds), a simulator
bug the benchmark must not measure. Every pool seed has a recorded stats
digest for every workload.

The host's speed swings far more than the simulator's run-to-run
noise, so run_s and setup_s are scaled to a reference host speed: the
harness times a fixed calibration loop before and after every rep, and
each rep's time is multiplied by references.json's calib_reference_s
over the mean of the two. A median of these compares the simulator,
not the load on the host at that moment; host.calib_ms (per-layer)
shows the raw host speed.

--record re-runs every workload on every pool seed (or on --seeds) and
rewrites the digests in references.json; do that only for a change that
is meant to alter simulated results.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# Compiler temporaries stay inside the checkout too.
ENV = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
HARNESS = os.path.join(BUILD, "perfbench_harness")
REFERENCES = os.path.join(HERE, "references.json")

WORKLOADS = ["noc_fft256", "host_tuned256", "rpc_water16", "par_fft512"]

# A run must finish within 180 s; the first one in a checkout also
# builds and may take 900 s.
RUN_DEADLINE_S = 170
BUILD_DEADLINE_S = 880

# (name, unit) in print order. The end-to-end set is what a researcher
# waiting for a co-simulation sees; the per-layer set splits it.
END_TO_END = [("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
PER_LAYER = [
    ("trace.run_ms", "ms"),
    ("cosim.host_ms", "ms"),
    ("cosim.net_ms", "ms"),
    ("cosim.self_ms", "ms"),
    ("cosim.quanta", "count"),
    ("cosim.self_us_per_quantum", "us"),
    ("noc.kernel.compute_ms", "ms"),
    ("noc.kernel.commit_ms", "ms"),
    ("noc.kernel.ns_per_router_cycle", "ns"),
    ("noc.cycles_run", "count"),
    ("noc.active_cycle_frac", "frac"),
    ("noc.orch_ms", "ms"),
    ("engine.phase_ms", "ms"),
    ("engine.phases", "count"),
    ("engine.us_per_phase", "us"),
    ("remote.rpc_round_trips", "count"),
    ("remote.elided_quanta", "count"),
    ("remote.spec_hits", "count"),
    ("remote.spec_rebases", "count"),
    ("remote.retries", "count"),
    ("remote.reconnects", "count"),
    ("remote.us_per_quantum", "us"),
    ("remote.overhead_us_per_quantum", "us"),
    ("mem.l1_accesses", "count"),
    ("mem.l1_miss_rate", "frac"),
    ("mem.dir_msgs", "count"),
    ("cpu.ops_issued", "count"),
    ("cpu.stall_retries", "count"),
    ("abstractnet.est_err_mean", "cycles"),
    ("abstractnet.est_err_stdev", "cycles"),
    ("noc.offered_load", "pkt/node/cycle"),
    ("trace.overhead_frac", "frac"),
    ("host.calib_ms", "ms"),
    ("failed_frac", "frac"),
]


class BenchError(Exception):
    """A run that cannot produce a result; the message names why."""


def build():
    """Configure once, then bring the harness up to date. Returns True
    when the build started from an empty build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "cosim",
                                       "full_system.hh")):
        raise BenchError("no simulator sources under %s/src; run from "
                         "the root of a full checkout" % ROOT)
    fresh = not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt"))
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if fresh:
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target",
                  "perfbench_harness", "-j", "3"])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=log, env=ENV,
                                    timeout=BUILD_DEADLINE_S).returncode
            except subprocess.TimeoutExpired:
                rc = "timeout"
            if rc != 0:
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                raise BenchError("build failed (%s): %s\n%s"
                                 % (rc, " ".join(cmd), tail))
    return fresh


def source_fingerprint():
    """Commit when this is a git checkout, and a digest of the simulator
    and benchmark sources either way (the benchmark's checkout is not a
    git repository)."""
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, _, files in sorted(os.walk(os.path.join(ROOT, top))):
            for name in sorted(files):
                path = os.path.join(d, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return {"git_commit": commit, "source_sha256": h.hexdigest()}


def run_harness(workload, seeds, seconds, trace, deadline, min_rounds=2):
    """Run the harness once, round r simulating sim.seed
    seeds[r mod len(seeds)]; return its parsed JSON lines and the path
    of the trace it writes."""
    pid = os.getpid()
    # Relative to the checkout root (the harness's cwd), which keeps the
    # Unix socket path short whatever the checkout's location.
    socket = os.path.join(".bench_build", "perfbench",
                          "nocd-%d.sock" % pid)
    trace_out = os.path.join(BUILD, "trace-%s-seed%d.json"
                             % (workload, seeds[0]))
    what = "workload %s sim.seed %s" % (workload,
                                        ",".join(map(str, seeds)))
    cmd = [HARNESS, "--workload", workload,
           "--seeds", ",".join(map(str, seeds)),
           "--seconds", str(seconds), "--trace", str(int(trace)),
           "--min-rounds", str(min_rounds), "--socket", socket,
           "--trace-out", trace_out]
    timeout = max(10.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=ENV, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("%s: no result within %.0f s (hung "
                         "co-simulation?)" % (what, timeout))
    finally:
        sock_path = os.path.join(ROOT, socket)
        if os.path.exists(sock_path):
            os.unlink(sock_path)
    if proc.returncode != 0:
        raise BenchError("%s: harness exited %d\n%s"
                         % (what, proc.returncode, proc.stderr[-3000:]))
    lines = [json.loads(l) for l in proc.stdout.splitlines()
             if l.startswith("{")]
    if not lines or lines[-1].get("type") != "end":
        raise BenchError("%s: harness output incomplete" % what)
    return lines, trace_out


def digest_kind(rep):
    """Traced reps must reproduce the untraced stats exactly; the remote
    workload's in-process twin has its own stats tree."""
    return "twin" if rep["kind"] == "twin" else "plain"


def load_references():
    with open(REFERENCES) as f:
        return json.load(f)


def check_reps(workload, reps, references):
    """Per rep: the harness's own output checks (cores done, packet
    conservation, forwarded == delivered, no health trips, no warnings,
    trace attribution), plus the stats digest against the recorded
    reference for this workload and sim seed. Marks each rep's "ok" and
    prints each failure."""
    for rep in reps:
        seed = rep["seed"]
        problems = list(rep["failed"])
        ref = references.get(workload, {}).get(digest_kind(rep), {}).get(
            str(seed))
        if rep["digest"] != ref:
            problems.append("digest_reference (got %s, want %s)"
                            % (rep["digest"], ref))
        rep["ok"] = not problems
        if problems:
            print("perfbench: FAILED workload %s sim.seed %d rep %d (%s): %s"
                  % (workload, seed, rep["index"], rep["kind"],
                     ", ".join(problems)))


def median_of(reps, field):
    return statistics.median(r["fields"][field] for r in reps)


def scaled_median(reps, field, calib_ref):
    """Median over reps of a time scaled to the reference host speed:
    the rep's time times calib_ref over the calibration time measured
    around that rep (Calibrator in harness.cc)."""
    return statistics.median(
        r["fields"][field] * calib_ref / r["fields"]["calib_s"]
        for r in reps)


def end_to_end_metrics(plain, end, calib_ref):
    return {
        "run_s": scaled_median(plain, "run_s", calib_ref),
        "setup_s": scaled_median(plain, "setup_s", calib_ref),
        "peak_rss_mb": end["peak_rss_mb"],
    }


def per_layer_metrics(plain, traced, twin, parallel):
    """Medians over traced reps. The remote workload's fabric runs inside
    the server, out of the decorator's reach, so its kernel split comes
    from the in-process twin of the same configuration."""
    m = {}
    med = median_of
    m["trace.run_ms"] = med(traced, "run_s") * 1e3
    for f in ("cosim.host_ms", "cosim.net_ms", "cosim.self_ms",
              "cosim.quanta"):
        m[f] = med(traced, f)
    m["cosim.self_us_per_quantum"] = statistics.median(
        r["fields"]["cosim.self_ms"] * 1e3 / r["fields"]["cosim.quanta"]
        for r in traced)
    fabric = twin or traced
    for f in ("noc.kernel.compute_ms", "noc.kernel.commit_ms",
              "noc.kernel.ns_per_router_cycle", "noc.cycles_run",
              "noc.active_cycle_frac", "noc.orch_ms"):
        m[f] = med(fabric, f)
    if parallel:
        phases = med(traced, "noc.kernel.phases")
        m["engine.phase_ms"] = statistics.median(
            r["fields"]["noc.kernel.compute_ms"]
            + r["fields"]["noc.kernel.commit_ms"] for r in traced)
        m["engine.phases"] = phases
        m["engine.us_per_phase"] = (m["engine.phase_ms"] * 1e3 / phases
                                    if phases else 0.0)
    else:
        m["engine.phase_ms"] = m["engine.phases"] = 0.0
        m["engine.us_per_phase"] = 0.0
    for f in ("remote.rpc_round_trips", "remote.elided_quanta",
              "remote.spec_hits", "remote.spec_rebases", "remote.retries",
              "remote.reconnects"):
        m[f] = med(traced, f)
    if twin:
        quanta = m["cosim.quanta"]
        m["remote.us_per_quantum"] = m["cosim.net_ms"] * 1e3 / quanta
        m["remote.overhead_us_per_quantum"] = (
            (m["cosim.net_ms"] - med(twin, "cosim.net_ms")) * 1e3 / quanta)
    else:
        m["remote.us_per_quantum"] = 0.0
        m["remote.overhead_us_per_quantum"] = 0.0
    for f in ("mem.l1_accesses", "mem.l1_miss_rate", "mem.dir_msgs",
              "cpu.ops_issued", "cpu.stall_retries",
              "abstractnet.est_err_mean", "abstractnet.est_err_stdev",
              "noc.offered_load"):
        m[f] = med(traced, f)
    m["trace.overhead_frac"] = (med(traced, "run_s")
                                / med(plain, "run_s") - 1.0)
    m["host.calib_ms"] = med(plain + traced, "calib_s") * 1e3
    return m


def bench(args):
    start = time.monotonic()
    fresh = build()
    deadline = start + (BUILD_DEADLINE_S if fresh else RUN_DEADLINE_S)
    refs = load_references()
    pool = refs["seed_pool"]
    first = args.seed % len(pool)
    seeds = pool[first:] + pool[:first]
    if args.trace:
        seeds = seeds[:1]
    lines, trace_out = run_harness(args.workload, seeds, args.seconds,
                                   args.trace, deadline)

    fingerprint = {k: v for l in lines if l["type"] == "fingerprint"
                   for k, v in l.items() if k != "type"}
    fingerprint.update(source_fingerprint())
    print("fingerprint: " + json.dumps(fingerprint, sort_keys=True))

    reps = [l for l in lines if l["type"] == "rep"]
    end = lines[-1]
    check_reps(args.workload, reps, refs["digests"])
    failed = sum(not r["ok"] for r in reps)
    by_kind = lambda k: [r for r in reps if r["kind"] == k and r["ok"]]
    plain = by_kind("plain")
    if not plain or (args.trace and not by_kind("traced")):
        raise BenchError("every rep failed")
    if args.trace:
        values = per_layer_metrics(plain, by_kind("traced"),
                                   by_kind("twin"),
                                   fingerprint["engine_workers"] > 0)
        values["failed_frac"] = failed / len(reps)
        units = PER_LAYER
        print("trace: %s (spans of the last traced rep)"
              % os.path.relpath(trace_out, ROOT))
    else:
        values = end_to_end_metrics(plain, end, refs["calib_reference_s"])
        units = END_TO_END
    print("workload %s --seed %d (sim.seed %s): %d reps, %d failed, "
          "caches start empty"
          % (args.workload, args.seed,
             ",".join(str(r["seed"]) for r in reps if r["kind"] == "plain"),
             len(reps), failed))
    for name, unit in units:
        print("  %-32s %16.6f %s" % (name, values[name], unit))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units},
    }))


def record(seeds):
    """Rewrite references.json from one traced round per workload and
    seed (the traced round also covers the remote workload's twin)."""
    build()
    doc = load_references()
    digests = {}
    for workload in WORKLOADS:
        for seed in seeds:
            lines, _ = run_harness(workload, [seed], 0, True,
                                   time.monotonic() + RUN_DEADLINE_S,
                                   min_rounds=1)
            reps = [l for l in lines if l["type"] == "rep"]
            for rep in reps:
                if rep["failed"]:
                    raise BenchError("workload %s seed %d: %s failed: %s"
                                     % (workload, seed, rep["kind"],
                                        rep["failed"]))
                kind = digest_kind(rep)
                got = digests.setdefault(workload, {}).setdefault(
                    kind, {}).setdefault(str(seed), rep["digest"])
                if got != rep["digest"]:
                    raise BenchError("workload %s seed %d: traced and "
                                     "untraced digests differ"
                                     % (workload, seed))
            print("recorded %s seed %d" % (workload, seed), flush=True)
    doc["digests"] = digests
    with open(REFERENCES, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true")
    p.add_argument("--seeds", default=None,
                   help="comma-separated sim seeds for --record "
                        "(default: the seed pool)")
    args = p.parse_args()
    try:
        if args.record:
            if args.seeds:
                seeds = [int(s) for s in args.seeds.split(",")]
            else:
                seeds = load_references()["seed_pool"]
            record(seeds)
        elif args.workload is None:
            p.error("--workload is required")
        else:
            bench(args)
    except BenchError as e:
        msg = str(e)
        if args.workload and args.workload not in msg:
            msg = "workload %s: %s" % (args.workload, msg)
        print("perfbench: " + msg, file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
