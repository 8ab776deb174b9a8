#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It builds the workload harness
and the servers under test with dune, runs one workload through
perfbench/harness.exe, checks every answer, and prints a human-readable
table on stderr and one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json; with --trace 1 the per-layer ones. Per-layer numbers
come from the reports the in-process calls return, the servers' STATS
(read before and after the timed window) and /proc; trace.overhead_pct
is the time spent reading them as a share of the timed phase.

Workloads. The served tables are Galaxy rows of a fixed seed and the
paper suite is fixed; --seed draws the query streams and written rows.

  paper-suite  In process, one caller: Q1-Q7 of Galaxy (2,000 rows) and
               TPC-H (3,000 rows), each under DIRECT, SKETCHREFINE
               (tau = 10%) and progressive shading, with a 1,000-node
               branch-and-bound budget per ILP. Passes repeat until the
               time is up (at least three); each cell is reported at
               its median pass.
  serve-hot    pkgq_server --method sketchrefine on Galaxy 20,000 rows,
               two closed-loop connections replaying 64 distinct
               queries: a working set that fits the result cache.
  serve-rw     pkgq_server --method sketchrefine --wal on Galaxy 5,000
               rows: one closed-loop reader of fresh queries and one
               open-loop writer at 1.5 writes/s alternating a 50-row
               APPEND with a DELETE of the same rows. fsync on, a
               checkpoint every 8 records. Ends with SIGKILL and three
               timed restarts on the WAL directory.

A workload through pkgq_shard (two spawned shards, one connection) was
left out: its coordinator and shards need more than the two cores the
benchmark runs on, and its figures moved by a quarter between runs
whenever another tenant took a core.

Every timing is normalized by a reference task timed next to it (see
REFERENCE_MS below). Served timings are taken in windows of the timed
phase and reported at the best quartile of windows.

The benchmark's own tests: python3 perfbench/test_bench.py
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

WORKLOADS = ("paper-suite", "serve-hot", "serve-rw")
BUILD_TARGETS = [
    "perfbench/harness.exe",
    "bin/pkgq_server.exe",
]
CLK_TCK = os.sysconf("SC_CLK_TCK")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Interrupted(Exception):
    pass


def on_signal(signum, _frame):
    raise Interrupted(f"signal {signum}")


def process_group_alive(pgid):
    try:
        os.killpg(pgid, 0)
        return True
    except ProcessLookupError:
        return False
    except PermissionError:
        return True


def stop_group(proc):
    """Kill the harness's process group (the harness and every server it
    spawned) and wait until all are gone."""
    pgid = proc.pid
    if proc.poll() is None or process_group_alive(pgid):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        pass
    deadline = time.time() + 30
    while process_group_alive(pgid) and time.time() < deadline:
        time.sleep(0.05)


def build(root):
    cmd = ["dune", "build", "--root", ".", "-j", "2"] + BUILD_TARGETS
    r = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT, text=True, timeout=850)
    if r.returncode != 0:
        log(r.stdout[-4000:])
        raise SystemExit(f"build failed ({' '.join(cmd)})")


def run_harness(root, args, run_dir):
    exe = os.path.join(root, "_build", "default", "perfbench", "harness.exe")
    bindir = os.path.join(root, "_build", "default", "bin")
    env = {k: v for k, v in os.environ.items() if not k.startswith("PKGQ_")}
    cmd = [exe, args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--dir", run_dir, "--bin", bindir]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(150, 4 * args.seconds + 60))
    except subprocess.TimeoutExpired:
        raise SystemExit("harness did not finish in time")
    finally:
        stop_group(proc)
    if err.strip():
        log(err.strip()[-2000:])
    if proc.returncode != 0:
        raise SystemExit(f"harness exited with {proc.returncode}")
    lines = [ln for ln in out.splitlines() if ln.strip()]
    if not lines:
        raise SystemExit("harness printed nothing")
    return json.loads(lines[-1])


# ---------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------

class Gate:
    """The correctness gate and the fixed-work guard of one run."""

    def __init__(self):
        self.violations = []

    def require(self, ok, what):
        if not ok:
            self.violations.append(what)


def stat_delta(phase, key, index=0):
    """A STATS key's change over the timed phase in one process, or
    None when the process does not report it."""
    before = phase["stats_before"][index] if phase["stats_before"] else {}
    after = phase["stats_after"][index] if phase["stats_after"] else {}
    if key not in after:
        return None
    return after[key] - before.get(key, 0.0)


def ratio(num, den):
    if num is None or den is None or den == 0:
        return None
    return num / den


def quality_ratios(quality, gate):
    """Approximation ratios of served answers against DIRECT."""
    out = []
    for q in quality:
        gate.require(q["served"], "a quality-sample query got no package")
        objs = q["objectives"]
        if len(objs) < 1:
            continue
        best = stats.best_objective(objs, q["maximize"])
        o = objs[0]
        if abs(o - best) <= 1e-5 * max(1.0, abs(best)):
            o = best
        out.append(stats.obj_ratio(o, best, q["maximize"]))
    return out


def timing_metrics(lat, what="query", note=True):
    n = len(lat)
    if note and not stats.tail_supported(n, 0.90):
        log(f"note: {what} p90 over {n} samples keeps "
            f"{stats.beyond(n, 0.90)} beyond it (fewer than 10)")
    return {
        f"{what}_p50_ms": stats.percentile(lat, 0.50),
        f"{what}_p90_ms": stats.percentile(lat, 0.90),
        f"{what}_geomean_ms": stats.geomean([max(x, 1e-6) for x in lat]),
    }


# The machine the benchmark shares slows down and speeds up by a third
# for seconds at a time. Every timing is therefore taken next to a run
# of a fixed reference task (perfbench/harness.ml, reference_task: the
# benchmark's own code, so no change to the program moves it), timed in
# the harness's process with the system under test idle: before every
# cell of the paper suite, after every set-up, and once a second in a
# short pause of the served load. A time t measured while the task took
# r ms is reported as t * REFERENCE_MS / r, the time it would have taken
# with the machine at its nominal speed.
REFERENCE_MS = 3.9
RATES = ("qps",)


def normalized(name, value, reference_ms):
    f = REFERENCE_MS / reference_ms
    return value / f if name in RATES else value * f


def slices(phase, span=1):
    """Per-window figures of a served phase, normalized. A window is
    the load between two of the harness's once-a-second pauses, or `span`
    such spans together; it holds the requests answered in it."""
    pauses = phase["pauses"]  # [quiet at ms, resumed at ms, SUT ticks, reference ms]
    answers = sorted(zip(phase["done_ms"], phase["latencies_ms"]))
    single = []
    i = 0
    for j, (a, b) in enumerate(zip(pauses, pauses[1:])):
        start, end = a[1], b[0]
        while i < len(answers) and answers[i][0] < start:
            i += 1
        lat = []
        while i < len(answers) and answers[i][0] <= end:
            lat.append(answers[i][1])
            i += 1
        # one reference time is noisy; take the median of the seven around
        ref = stats.median([p[3] for p in pauses[max(0, j - 3):j + 4]])
        single.append((end - start, lat, b[2] - a[2], ref))
    out = []
    for k in range(0, len(single) - span + 1, span):
        group = single[k:k + span]
        lat = [x for g in group for x in g[1]]
        if not lat:
            continue
        active_ms = sum(g[0] for g in group)
        w = timing_metrics(lat, note=False)
        w["qps"] = 1000 * len(lat) / active_ms
        w["cpu_ms_per_query"] = (1000 * sum(g[2] for g in group) / CLK_TCK
                                 / len(lat))
        ref = stats.median([g[3] for g in group])
        out.append({k: normalized(k, v, ref) for k, v in w.items()})
    return out


# Windows are reported at their best quartile: the 75th percentile of
# rates and the 25th of times, which discounts windows in which the
# machine stalled the system outright.
def best_quartile(windows, name):
    vals = [w[name] for w in windows]
    return stats.percentile(vals, 0.75 if name in RATES else 0.25)


def setup_seconds(d):
    """The median of the run's set-ups, each normalized by the reference
    task timed right after it."""
    s = d["setups"]
    return stats.median([normalized("setup_s", t, r) for t, r in
                         zip(s["setup_s"], s["setup_reference_ms"])])


def paper_suite(d, gate):
    cells = d["cells"]
    completed = sum(len(c["ms"]) for c in cells)
    # Each cell is timed once per pass and reported at its median pass.
    # The reference task runs before every cell; a cell's time is
    # normalized by the median of the seven reference times around it
    # in the order the cells ran (cell by cell, pass after pass).
    n = len(cells)
    refs = [c["reference_ms"][p] for p in range(len(cells[0]["ms"]))
            for c in cells]

    def reference(i, p):
        k = p * n + i
        return stats.median(refs[max(0, k - 3):k + 4])

    def per_cell(i, key):
        return stats.median([normalized(key, t, reference(i, p))
                             for p, t in enumerate(cells[i][key])])

    ms = [per_cell(i, "ms") for i in range(n)]
    e2e = {"setup_s": setup_seconds(d), "qps": 1000 * n / sum(ms)}
    e2e.update(timing_metrics(ms))
    e2e["cpu_ms_per_query"] = sum(per_cell(i, "cpu_ms") for i in range(n)) / n
    # the first pass's peak: later passes run on a heap grown by earlier ones
    e2e["peak_rss_mb"] = d["pass_rss_kb"][0] / 1024

    # quality: each cell against the best any method found on its query
    by_query = {}
    for c in cells:
        by_query.setdefault(c["name"].rsplit("/", 1)[0], []).append(c)
    ratios = []
    failed_cells = 0
    for q, cs in by_query.items():
        solved = [c for c in cs if isinstance(c["objective"], (int, float))]
        for c in cs:
            gate.require(c["stable"], f"{c['name']}: answers differ between passes")
            gate.require(not c["wall_stop"], f"{c['name']}: stopped on a wall clock")
            if c["status"] in ("failed", "infeasible", "degraded"):
                failed_cells += 1
            elif c["status"] in ("optimal", "feasible"):
                gate.require(c["feasible"], f"{c['name']}: package is infeasible")
        if not solved:
            continue
        maximize = cs[0]["maximize"]
        best = stats.best_objective([c["objective"] for c in solved], maximize)
        for c in solved:
            ratios.append(stats.obj_ratio(c["objective"], best, maximize))
        proven = [c for c in solved
                  if c["name"].endswith("/direct") and c["status"] == "optimal"]
        for p in proven:
            for c in solved:
                better = (c["objective"] > p["objective"] if maximize
                          else c["objective"] < p["objective"])
                gate.require(
                    not better or abs(c["objective"] - p["objective"])
                    <= 1e-6 * max(1.0, abs(p["objective"])),
                    f"{c['name']} beats the proven DIRECT optimum")
    e2e["obj_ratio"] = stats.geomean(ratios)

    # per layer, from Eval.report counters and the benchmark's own timers
    nodes = sum(c["nodes"] for c in cells)
    pivots = sum(c["pivots"] for c in cells)
    busy_ms = sum(ms)

    def method_ms(m):
        return sum(t for t, c in zip(ms, cells) if c["name"].endswith("/" + m))

    layer = {
        "ilp.nodes": nodes,
        "ilp.us_per_node": 1000 * busy_ms / nodes if nodes else None,
        "pkg.ilp_calls": sum(c["ilp_calls"] for c in cells),
        "lp.pivots": pivots,
        "lp.us_per_pivot": 1000 * busy_ms / pivots if pivots else None,
        "lp.pivots_per_query": pivots / n,
        "pkg.direct_ms": method_ms("direct"),
        "pkg.sketchrefine_ms": method_ms("sketchrefine"),
        "pkg.progressive_ms": method_ms("progressive"),
        "pkg.partition_s": stats.median(d["partition_s"]),
        "pkg.failed_cells": failed_cells,
        "paql.compile_ms": (stats.median(d["compile_ms"])
                            if d["compile_ms"] else None),
    }

    # the counters come back in the reports: reading them costs nothing
    layer["trace.overhead_pct"] = 0.0
    return e2e, layer, completed, 0


def served(d, gate, workload):
    """End-to-end and per-layer metrics of the served workloads."""
    timed = d["timed"]
    warm = d["warm"]
    for part, t in (("warm-up", warm), ("timed", timed)):
        gate.require(t["check_failures"] == 0,
                     f"{part}: {t['check_failures']} packages failed the recheck")
        gate.require(t["wall_stops"] == 0,
                     f"{part}: {t['wall_stops']} answers stopped on a wall clock")
    gate.require(d.get("mismatches", 0) == 0,
                 f"{d.get('mismatches')} of {d.get('compared')} answers "
                 "differ from the reference")
    attempted = warm["answered"] + warm["infeasible"] + warm["failed"] \
        + timed["answered"] + timed["infeasible"] + timed["failed"]
    failed = warm["failed"] + timed["failed"] + warm["check_failures"] \
        + timed["check_failures"] + d.get("mismatches", 0)

    main = d["phase"]
    lat = main["latencies_ms"]
    completed = len(lat)
    gate.require(completed >= 1, "no query completed")
    # serve-rw writes every 2/3 s; two-second windows hold whole cycles
    span = 2 if workload == "serve-rw" else 1
    windows = slices(main, span)
    gate.require(len(windows) >= 4, "fewer than four measurement windows")
    e2e = {"setup_s": setup_seconds(d)}
    for name in ("qps", "query_p50_ms", "query_p90_ms", "query_geomean_ms",
                 "cpu_ms_per_query"):
        e2e[name] = best_quartile(windows, name)
    e2e["peak_rss_mb"] = d["sut_rss_kb"] / 1024
    # The median, not the geometric mean: a sample of fresh queries
    # holds MINIMIZE objectives near zero whose ratios explode.
    e2e["obj_ratio"] = stats.median(quality_ratios(d["quality"], gate))

    layer = {}
    q = completed

    hits = stat_delta(main, "result_hits") or 0.0
    misses = stat_delta(main, "result_misses") or 0.0
    layer["service.result_hit_rate"] = ratio(hits, hits + misses)
    phits = stat_delta(main, "plan_hits") or 0.0
    pmiss = stat_delta(main, "plan_misses") or 0.0
    layer["service.plan_hit_rate"] = ratio(phits, phits + pmiss)
    layer["service.queue_wait_ms"] = ratio(
        stat_delta(main, "stage.queue_wait.sum_ms"),
        stat_delta(main, "stage.queue_wait.count"))
    server_ms = ratio(stat_delta(main, "stage.total.sum_ms"),
                      stat_delta(main, "stage.total.count"))
    mean_lat = sum(lat) / len(lat) if lat else None
    layer["service.server_ms"] = server_ms
    layer["service.wire_ms"] = (mean_lat - server_ms
                                if server_ms is not None else None)

    pivots = stat_delta(main, "gauge.solver_pivots")
    layer["lp.pivots"] = pivots
    layer["lp.pivots_per_query"] = ratio(pivots, q)
    layer["lp.warm_hit_rate"] = ratio(
        stat_delta(main, "gauge.solver_warm_hits"),
        stat_delta(main, "gauge.solver_warm_attempts"))
    solve_ms = stat_delta(main, "stage.solve.sum_ms")
    layer["lp.us_per_pivot"] = ratio(
        1000 * solve_ms if solve_ms is not None else None, pivots)
    for stage in ("plan", "partition", "sketch", "refine"):
        layer[f"pkg.stage.{stage}_ms"] = ratio(
            stat_delta(main, f"stage.{stage}.sum_ms"), q)

    # the load generator must not be what is measured
    layer["loadgen.cpu_share"] = main["loadgen_cpu_s"] / main["elapsed_s"]
    gaps = main["gaps_ms"]
    layer["loadgen.late_p99_ms"] = stats.percentile(gaps, 0.99) if gaps else None

    if workload == "serve-rw":
        writes = main["write_ms"]
        n_writes = len(writes)
        gate.require(n_writes >= 1, "no write completed")
        attempted += n_writes
        layer["store.write_p50_ms"] = stats.percentile(writes, 0.50)
        layer["store.write_p90_ms"] = stats.percentile(writes, 0.90)
        layer["store.space_amp"] = d["wal_bytes"] / d["live_csv_bytes"]
        layer["store.recovery_s"] = stats.median(d["recovery_s"])
        layer["store.wal_records"] = stat_delta(main, "wal_records")
        layer["store.checkpoints"] = stat_delta(main, "checkpoints") or 0
        layer["store.checkpoint_ms"] = ratio(
            stat_delta(main, "stage.checkpoint.sum_ms"),
            stat_delta(main, "stage.checkpoint.count"))
        layer["store.write_amp"] = ratio(main["sut_write_bytes"],
                                         d["user_write_bytes"])
        layer["service.invalidations_per_write"] = ratio(
            stat_delta(main, "result_invalidated") or 0, n_writes)
        late = main["write_late_ms"]
        layer["loadgen.late_p99_ms"] = stats.percentile(late, 0.99)
        # the open loop must keep up: lateness may not grow over the run
        quarter = max(1, len(late) // 4)
        period_ms = 1000 / d["write_rate"]
        gate.require(
            stats.median(late[-quarter:])
            <= stats.median(late[:quarter]) + period_ms / 2,
            "the writer fell behind its schedule")
        # durability: acked writes survive SIGKILL
        gate.require(d["live_rows"] == d["expected_rows"],
                     f"served rows {d['live_rows']} != acked {d['expected_rows']}")
        for rows in d["recovered_rows"]:
            gate.require(rows == d["expected_rows"],
                         f"recovered rows {rows} != acked {d['expected_rows']}")

    layer["trace.overhead_pct"] = 100 * main["trace_s"] / main["elapsed_s"]
    return e2e, layer, attempted, failed


def compute(d, workload):
    gate = Gate()
    gate.require(d["n_errors"] == 0, f"{d['n_errors']} errors: {d['errors'][:3]}")
    if workload == "paper-suite":
        e2e, layer, attempted, failed = paper_suite(d, gate)
    else:
        e2e, layer, attempted, failed = served(d, gate, workload)
    return gate, e2e, layer, attempted, failed


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)

    root = os.getcwd()
    for need in ("dune-project", "bin", "lib"):
        if not os.path.exists(os.path.join(root, need)):
            raise SystemExit(f"not a source checkout: {need} is missing")
    spec = load_spec(root)
    build(root)

    run_dir = os.path.join(root, ".perfbench", f"run-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        d = run_harness(root, args, run_dir)
    except Interrupted as e:
        raise SystemExit(f"interrupted: {e}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    gate, e2e, layer, attempted, failed = compute(d, args.workload)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = layer if args.trace else e2e
    metrics = {}
    absent = []
    for m in wanted:
        v = source.get(m["name"])
        if v is None or (isinstance(v, float) and not math.isfinite(v)):
            absent.append(m["name"])
            v = 0.0
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}

    log(f"== {args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace}")
    for name, m in metrics.items():
        log(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
    if absent:
        log(f"  absent (not measured on this workload): {', '.join(absent)}")
    for v in gate.violations:
        log(f"  VIOLATION: {v}")
    result = {
        "correct": not gate.violations,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
