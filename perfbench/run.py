#!/usr/bin/env python3
"""The GLocks simulator benchmark.

    python3 perfbench/run.py --workload paper_grid [--seed 1] [--seconds 10]
                             [--trace 0|1]

Run from the repository root. Builds perfbench/ (which compiles the
simulator from src/) into .bench_build/, runs the named workload in a
closed loop for --seconds, checks every simulated point against the serial
reference kernel, prints each metric by name with its unit, and ends with
one JSON line: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics; --trace 1 makes a separate
phase-traced run and reports the per-layer metrics instead. See
perfbench/README.md for the workloads and what each metric should move.
"""
import argparse
import collections
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "glocks_perfbench")

REGISTRY = ["SCTR", "MCTR", "DBLL", "PRCO", "ACTR", "RAYTR", "OCEAN", "QSORT"]

# Each workload is one grid of simulator points. `seed_offsets` are added
# to --seed; `sweep` sends untraced passes through exec::run_sweep.
WORKLOADS = {
    "paper_grid": dict(workloads=REGISTRY, locks=["mcs", "glock"],
                       cores=[32], seed_offsets=[0], scale=1.0, jobs=1,
                       sweep=False, accuracy="fig08"),
    "glock_256": dict(workloads=["SCTR", "MCTR", "DBLL", "PRCO"],
                      locks=["glock"], cores=[256], seed_offsets=[0],
                      scale=0.25, jobs=1, sweep=False, accuracy=None),
    "sweep_mix": dict(workloads=REGISTRY, locks=["tatas", "mcs", "glock"],
                      cores=[16, 32], seed_offsets=[0, 1], scale=0.25,
                      jobs=3, sweep=True, accuracy=None),
}

END_TO_END = {
    "wall_s": "s",
    "sim_mcycles_per_s": "Mcycles/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Self time of the traced runner's spans, by span name.
SPAN_METRICS = {
    "workloads.make": "workloads.make_s",
    "workloads.setup": "workloads.setup_s",
    "harness.build": "harness.build_s",
    "sim.run": "sim.run_s",
    "workloads.verify": "workloads.verify_s",
    "harness.collect": "harness.collect_s",
    "power.estimate": "power.estimate_s",
    "harness.teardown": "harness.teardown_s",
    "point": "trace.glue_s",
    "pass": "trace.glue_s",
}

PER_LAYER = {name: "s" for name in SPAN_METRICS.values()}
PER_LAYER.update({
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
    "sim.ticks_executed": "count",
    "sim.ticks_skipped": "count",
    "sim.skip_frac": "ratio",
    "sim.cycles_stepped": "count",
    "sim.cycles_skipped": "count",
    "sim.clock_jumps": "count",
    "sim.wakes": "count",
    "sim.ns_per_tick": "ns",
    "sim.ns_per_cycle": "ns",
    "core.ticks": "count",
    "core.wakes": "count",
    "core.uops": "count",
    "core.lock_cycles": "cycles",
    "core.memory_cycles": "cycles",
    "core.gline_spin_cycles": "cycles",
    "mem.l1_ticks": "count",
    "mem.dir_ticks": "count",
    "mem.sync_station_ticks": "count",
    "mem.l1_accesses": "count",
    "mem.l1_misses": "count",
    "mem.l1_hit_rate": "ratio",
    "mem.dir_requests": "count",
    "mem.invalidations_sent": "count",
    "mem.deferred_requests": "count",
    "mem.pool_acquires": "count",
    "mem.pool_reuse_rate": "ratio",
    "mem.pool_high_water": "count",
    "noc.mesh_ticks": "count",
    "noc.router_ticks_per_hop": "ratio",
    "noc.packets": "count",
    "noc.hops": "count",
    "noc.bytes_request": "bytes",
    "noc.bytes_reply": "bytes",
    "noc.bytes_coherence": "bytes",
    "noc.express_hits": "count",
    "noc.express_declined": "count",
    "noc.express_materialized": "count",
    "noc.express_hit_rate": "ratio",
    "gline.ticks": "count",
    "gline.signals": "count",
    "gline.acquires": "count",
    "gline.secondary_passes": "count",
    "locks.acquires": "count",
    "exec.jobs": "count",
    "exec.busy_s": "s",
    "exec.efficiency": "ratio",
    "exec.point_p50_s": "s",
    "exec.slowest_point_s": "s",
})

def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds glocks_perfbench; build output goes to
    stderr so the last line of stdout stays the result."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found at " + os.path.join(ROOT, "src"))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "glocks_perfbench", "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def spans_path(name, seed):
    return os.path.join(BUILD_DIR, "spans", "%s-seed%d.jsonl" % (name, seed))


def run_binary(spec, seed, seconds, trace, spans_file, extra=()):
    """Runs glocks_perfbench on one grid; returns its raw JSON result."""
    seeds = [seed + off for off in spec["seed_offsets"]]
    cmd = [BINARY,
           "--workloads", ",".join(spec["workloads"]),
           "--locks", ",".join(spec["locks"]),
           "--cores", ",".join(str(c) for c in spec["cores"]),
           "--seeds", ",".join(str(s) for s in seeds),
           "--scale", repr(spec["scale"]),
           "--jobs", str(spec["jobs"]),
           "--sweep", "1" if spec["sweep"] else "0",
           "--seconds", repr(float(seconds)),
           "--trace", "1" if trace else "0"]
    if trace:
        os.makedirs(os.path.dirname(spans_file), exist_ok=True)
        cmd += ["--spans", spans_file]
    cmd += list(extra)
    r = subprocess.run(cmd, capture_output=True, text=True)
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail("glocks_perfbench exited with code %d" % r.returncode)
    return json.loads(lines[-1])


def timed_passes(raw, traced):
    """Passes that count as timed successes; all of them if none do, so a
    failing run still reports (with correct=false)."""
    same = [p for p in raw["passes"] if p["traced"] == traced]
    ok = [p for p in same if p["ok"]]
    return ok or same


def end_to_end(raw):
    passes = timed_passes(raw, traced=False)
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "sim_mcycles_per_s": statistics.median(
            p["sim_cycles"] / p["wall_s"] / 1e6 for p in passes),
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def fig08_error_pp(raw, reference):
    """Mean absolute error, in percentage points, of the measured GL-vs-MCS
    execution-time reduction against the paper's Figure 8 values."""
    cycles = {(p["workload"], p["lock"]): p["cycles"] for p in raw["points"]}
    errors = []
    for name, paper_pct in reference["reduction_pct"].items():
        if (name, "mcs") not in cycles:
            continue
        mcs, gl = cycles[(name, "mcs")], cycles[(name, "glock")]
        errors.append(abs(100.0 * (1.0 - gl / mcs) - paper_pct))
    return sum(errors) / len(errors)


def covered(parent, children):
    """Length of the parent's interval that its children's union covers."""
    total, reach = 0.0, parent["start"]
    for c in sorted(children, key=lambda s: s["start"]):
        start, end = max(c["start"], reach), min(c["end"], parent["end"])
        if end > start:
            total += end - start
            reach = end
    return total


def span_self_times(spans):
    """Per pass: {span name: summed self time}, plus the point spans."""
    by_pass = {}
    for s in spans:
        by_pass.setdefault(s["pass"], []).append(s)
    out = []
    for _, group in sorted(by_pass.items()):
        children = {}
        for s in group:
            children.setdefault(s["parent"], []).append(s)
        selfs = {}
        for s in group:
            own = s["end"] - s["start"] - covered(s, children.get(s["id"], []))
            metric = SPAN_METRICS[s["name"]]
            selfs[metric] = selfs.get(metric, 0.0) + own
        root = next(s for s in group if s["parent"] < 0)
        points = [s["end"] - s["start"] for s in group if s["name"] == "point"]
        out.append((selfs, root["end"] - root["start"], points))
    return out


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(spec, raw, spans):
    # Empty when every traced pass failed its checks (correct=false).
    c = raw["counts"] or collections.defaultdict(int)
    passes = span_self_times(spans)
    m = {}
    for metric in set(SPAN_METRICS.values()):
        m[metric] = statistics.median(p[0].get(metric, 0.0) for p in passes)
    traced_wall = statistics.median(p[1] for p in passes)
    untraced_wall = statistics.median(
        p["wall_s"] for p in timed_passes(raw, traced=False))
    m["trace.wall_s"] = traced_wall
    m["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    ticks = c["sim.ticks_executed"]
    m["sim.skip_frac"] = ratio(c["sim.ticks_skipped"],
                               ticks + c["sim.ticks_skipped"])
    m["sim.ns_per_tick"] = ratio(m["sim.run_s"] * 1e9, ticks)
    m["sim.ns_per_cycle"] = ratio(
        m["sim.run_s"] * 1e9, c["sim.cycles_stepped"] + c["sim.cycles_skipped"])
    m["mem.l1_hit_rate"] = ratio(c["mem.l1_hits"], c["mem.l1_accesses"])
    m["mem.pool_reuse_rate"] = ratio(c["mem.pool_reuses"],
                                     c["mem.pool_acquires"])
    m["noc.router_ticks_per_hop"] = ratio(c["noc.router_ticks"], c["noc.hops"])
    m["noc.express_hit_rate"] = ratio(
        c["noc.express_hits"],
        c["noc.express_hits"] + c["noc.express_declined"] +
        c["noc.express_materialized"])
    jobs = spec["jobs"]
    busy = [sum(p[2]) for p in passes]
    m["exec.jobs"] = jobs
    m["exec.busy_s"] = statistics.median(busy)
    m["exec.efficiency"] = statistics.median(
        b / (jobs * p[1]) for b, p in zip(busy, passes))
    m["exec.point_p50_s"] = statistics.median(d for p in passes for d in p[2])
    m["exec.slowest_point_s"] = statistics.median(max(p[2]) for p in passes)
    # The rest are glocks_perfbench's layer counters, reported as they are.
    for name in PER_LAYER:
        if name not in m:
            m[name] = c[name]
    return m


def measure(spec, seed, seconds, trace, spans_file, extra=()):
    """One benchmark run: (raw glocks_perfbench result, {metric: value})."""
    raw = run_binary(spec, seed, seconds, trace, spans_file, extra)
    if not trace:
        return raw, end_to_end(raw)
    with open(spans_file) as f:
        spans = [json.loads(line) for line in f]
    return raw, per_layer(spec, raw, spans)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    build()
    spec = WORKLOADS[args.workload]
    spans_file = spans_path(args.workload, args.seed)
    raw, metrics = measure(spec, args.seed, args.seconds, args.trace,
                           spans_file)
    units = PER_LAYER if args.trace else END_TO_END

    meta = dict(raw["meta"], commit=git_commit(), workload=args.workload,
                seed=args.seed, seconds=args.seconds, trace=args.trace)
    print("perfbench meta " + json.dumps(meta, sort_keys=True))
    for failure in raw["failures"]:
        print("perfbench FAILED " + failure)
    print("reference check took %.3f s (serial kernel, %d jobs)" % (
        raw["reference_s"], raw["meta"]["ref_jobs"]))
    for name in sorted(metrics):
        print("%-28s %16.6g %s" % (name, metrics[name], units[name]))
    print("%-28s %16.6g %s  (%d of %d point runs)" % (
        "failed_frac", raw["failed"] / raw["attempted"], "ratio",
        raw["failed"], raw["attempted"]))
    if spec["accuracy"] != "fig08":
        print("fig08_err_pp: not given; this workload has no paper "
              "reference, so the model is unvalidated here")
    elif raw["failed"]:
        print("fig08_err_pp: not given; points failed their checks")
    else:
        with open(os.path.join(HERE, "fig08_reference.json")) as f:
            reference = json.load(f)
        print("%-28s %16.6g %s  (paper Fig. 8, %s)" % (
            "fig08_err_pp", fig08_error_pp(raw, reference), "pp",
            reference["source"]))
    if args.trace:
        print("spans written to " + os.path.relpath(spans_file, ROOT))

    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in sorted(metrics.items())},
    }))


if __name__ == "__main__":
    main()
