"""Benchmark of `semicascade run` on the numpy/scipy path.

    python3 perfbench/run.py --workload rotation-walk --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
`src` directory. With `--trace 0` the benchmark times set-up probes and then
runs whole rounds of one `semicascade run` child each, one child at a time,
until `--seconds` have passed, and reports the end-to-end metrics. With
`--trace 1` each round runs one untraced child and one traced replay
(perfbench/inproc.py) and reports the per-layer metrics. Every analysis of
every child is checked against the oracles in perfbench/oracles.py. The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, str(NPROC))

import numpy as np  # noqa: E402  (after the thread limits above)
import scipy  # noqa: E402

import oracles  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 90

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.import_s": "s", "cli.load_config_s": "s", "cli.write_s": "s",
    "ulam.build_s": "s", "ulam.bank_s": "s", "ulam.step_us": "us",
    "ulam.nnz": "count",
    "ergodic.convergence_s": "s", "ergodic.limit_measures_s": "s",
    "ergodic.kernel_projection_s": "s", "ergodic.kernel_projection_rounds": "count",
    "ergodic.kernel_projection_gflop": "GFLOP",
    "ergodic.kernel_projection_gflops": "GFLOP/s",
    "topology.graph_s": "s", "topology.scc_s": "s",
    "topology.unique_minimal_set_s": "s", "topology.proximality_s": "s",
    "topology.transitivity_s": "s", "topology.n_sccs": "count",
    "measures.stationary_s": "s", "measures.stationary_iterations": "count",
    "tame.tameness_s": "s", "tame.covering_s": "s", "tame.covering_centers": "count",
    "simplex.solve_s": "s", "simplex.solves": "count", "simplex.pivots": "count",
    "simplex.us_per_pivot": "us",
    "systems.orbit_s": "s", "systems.periodic_orbits_s": "s",
    "trace.overhead_s": "s", "trace.unspanned_s": "s",
}


class Child:
    """Children run one at a time, spawned and timed by perfbench/spawn.py."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.env["SEMICASCADE_NO_NUMBA"] = "1"  # pin the numpy kernel path
        self.env.pop("SEMICASCADE_OUTPUT_DIR", None)
        self.spawner = subprocess.Popen([sys.executable, str(HERE / "spawn.py")],
                                        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                        text=True)

    def run(self, argv, log_name):
        """(wall seconds from spawn to exit, peak RSS in MB, exit code)."""
        req = {"argv": [sys.executable] + argv, "cwd": str(self.workdir),
               "env": self.env, "log": str(self.workdir / log_name),
               "timeout": CHILD_TIMEOUT_S}
        self.spawner.stdin.write(json.dumps(req) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        return reply["wall_s"], reply["peak_rss_mb"], reply["exit_code"]

    def close(self):
        self.spawner.stdin.close()
        self.spawner.wait(timeout=CHILD_TIMEOUT_S)
        self.spawner.stdout.close()


class Ledger:
    """Operations attempted and failed; one operation is one analysis of one run."""

    def __init__(self, analyses, known_fault):
        self.analyses = analyses
        self.known_fault = known_fault
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.problems = {}

    def check(self, outdir, exp, exit_code, q=None):
        self.attempted += len(self.analyses)
        try:
            results = oracles.read_report(outdir) if exit_code == 0 else None
        except (OSError, ValueError, KeyError) as exc:
            results, exit_code = None, "unreadable report: %s" % exc
        for analysis in self.analyses:
            if results is None:
                problems = ["run exited with %s" % exit_code]
            else:
                problems = oracles.check(analysis, exp, outdir, results, q)
            if problems:
                self.failed += 1
                self.unexpected += analysis != self.known_fault
                self.problems.setdefault(analysis, problems)


def median(values):
    return float(statistics.median(values))


def fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def timed_run(child, cfg, exp, ledger, seconds):
    probe = [str(HERE / "inproc.py"), "setup", cfg, "about.json"]
    setups = []
    for i in range(SETUP_REPEATS + 1):  # the first probe warms the file cache
        wall, _, code = child.run(probe, "setup.log")
        if code != 0:
            ledger.problems.setdefault("setup", ["set-up probe exited with %s" % code])
            ledger.unexpected += 1
        if i:
            setups.append(wall)
    walls, rss = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        out = fresh(child.workdir / "out")
        wall, peak, code = child.run(["-m", "semicascade", "run", cfg], "run.log")
        ledger.check(out, exp, code)
        walls.append(wall)
        rss.append(peak)
    samples = {"run_s": walls, "setup_s": setups, "peak_rss_mb": rss}
    try:
        about = json.loads((child.workdir / "about.json").read_text())
    except (OSError, ValueError):
        about = {}
    return {k: median(v) for k, v in samples.items()}, samples, about


def _spans_by_id(spans):
    return {s[0]: {"name": s[1], "dur": s[3] - s[2], "parent": s[4]} for s in spans}


def span_table(spans):
    """Per span name: calls, total time and self time (total less child spans)."""
    by_id = _spans_by_id(spans)
    covered = {}
    for s in by_id.values():
        if s["parent"] is not None:
            covered[s["parent"]] = covered.get(s["parent"], 0.0) + s["dur"]
    table = {}
    for sid, s in by_id.items():
        row = table.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s["dur"]
        row["self_s"] += s["dur"] - covered.get(sid, 0.0)
    return table


def layer_metrics(trace, overhead_s):
    """Per-layer metrics of one traced replay."""
    table = span_table(trace["spans"])
    total = lambda name: table.get(name, {}).get("total_s", 0.0)
    own = lambda name: table.get(name, {}).get("self_s", 0.0)
    count = lambda name: trace["counters"].get(name, 0)
    by_id = _spans_by_id(trace["spans"])
    # the CLI's own schedule walk for the defect series belongs to convergence
    cli_walks = sum(s["dur"] for s in by_id.values()
                    if s["name"] == "ergodic.apply_schedules_batch"
                    and s["parent"] is not None
                    and by_id[s["parent"]]["name"] == "cli.run_analyses")
    rounds = count("ergodic.kernel_projection_rounds")
    cells = count("kernel_cells")
    # each round squares B, updates Q and takes a residual: 3 dense products,
    # plus the first residual and the final idempotency product
    gflop = (3 * rounds + 2) * 2.0 * cells ** 3 / 1e9 if rounds else 0.0
    kp_s = total("ergodic.kernel_projection_estimate")
    solve_s = total("simplex.solve_minimax_on_simplex")
    pivots = count("simplex.pivots")
    return {
        "cli.import_s": total("cli.import"),
        "cli.load_config_s": total("cli.load_config"),
        "cli.write_s": own("cli.main"),
        "ulam.build_s": total("ulam.build_partition") + total("ulam.build_transfer_matrix"),
        "ulam.bank_s": total("ulam.sample_test_bank"),
        "ulam.step_us": trace["step_us"],
        "ulam.nnz": count("ulam.nnz"),
        "ergodic.convergence_s": total("ergodic.convergence_diagnostic") + cli_walks,
        "ergodic.limit_measures_s": total("ergodic.limit_measure_per_point"),
        "ergodic.kernel_projection_s": kp_s,
        "ergodic.kernel_projection_rounds": rounds,
        "ergodic.kernel_projection_gflop": gflop,
        "ergodic.kernel_projection_gflops": gflop / kp_s if kp_s else 0.0,
        "topology.graph_s": total("topology.graph_from_transfer"),
        "topology.scc_s": total("topology.minimal_invariant_sets"),
        "topology.unique_minimal_set_s": total("topology.unique_minimal_set_check"),
        "topology.proximality_s": total("topology.proximality_graph"),
        "topology.transitivity_s": total("topology.transitivity_defect"),
        "topology.n_sccs": count("topology.n_sccs"),
        "measures.stationary_s": total("measures.stationary_measures"),
        "measures.stationary_iterations": count("measures.stationary_iterations"),
        "tame.tameness_s": total("tame.tameness_profile"),
        "tame.covering_s": total("tame.covering_profile"),
        "tame.covering_centers": count("tame.covering_centers"),
        "simplex.solve_s": solve_s,
        "simplex.solves": count("simplex.solves"),
        "simplex.pivots": pivots,
        "simplex.us_per_pivot": solve_s / pivots * 1e6 if pivots else 0.0,
        "systems.orbit_s": total("systems.orbit_batch"),
        "systems.periodic_orbits_s": total("systems.periodic_orbits"),
        "trace.overhead_s": overhead_s,
        "trace.unspanned_s": own("cli.run_analyses"),
    }


def traced_run(child, cfg, exp, ledger, seconds, workload):
    rounds, tables = [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        out = fresh(child.workdir / "out")
        wall, _, code = child.run(["-m", "semicascade", "run", cfg], "run.log")
        ledger.check(out, exp, code)
        out = fresh(child.workdir / "out")
        trace_path = child.workdir / ("trace-%d.json" % len(rounds))
        traced_wall, _, code = child.run([str(HERE / "inproc.py"), "trace", cfg,
                                          trace_path.name], "trace.log")
        q_path = Path(str(trace_path) + ".q.npy")
        q = np.load(q_path) if q_path.exists() else None
        ledger.check(out, exp, code, q)
        q_path.unlink(missing_ok=True)
        try:
            with open(trace_path) as fh:
                trace = json.load(fh)
        except (OSError, ValueError):  # the traced child failed; the ledger has it
            trace = {"spans": [], "counters": {}, "step_us": 0.0, "post_s": 0.0,
                     "environment": {}}
        rounds.append(layer_metrics(trace, traced_wall - trace["post_s"] - wall))
        tables.append(span_table(trace["spans"]))
    metrics = {k: median([r[k] for r in rounds]) for k in PER_LAYER}
    print_table(workload, tables)
    return metrics, {"rounds": rounds}, trace["environment"]


def print_table(workload, tables):
    names = sorted({n for t in tables for n in t},
                   key=lambda n: -median([t.get(n, {}).get("self_s", 0.0) for t in tables]))
    main_s = median([t.get("cli.main", {}).get("total_s", 0.0) for t in tables])
    print("self time per span, %s, median of %d traced rounds (cli.main %.3f s)"
          % (workload, len(tables), main_s))
    print("%-38s %6s %10s %10s %7s" % ("span", "calls", "total_s", "self_s", "%main"))
    for name in names:
        col = lambda key: median([t.get(name, {}).get(key, 0) for t in tables])
        print("%-38s %6d %10.4f %10.4f %6.1f%%" % (
            name, col("calls"), col("total_s"), col("self_s"),
            100.0 * col("self_s") / main_s if main_s else 0.0))


def environment(child_about):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    return {"nproc": NPROC, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
            "blas_threads": child_about.get("blas_threads"),
            "numba_importable": importlib.util.find_spec("numba") is not None,
            "use_numba": child_about.get("use_numba")}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "semicascade" / "cli.py").is_file():
        print("error: no semicascade sources under %s" % SRC, file=sys.stderr)
        return 2
    oracles.self_test()

    workdir = fresh(WORK / ("%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)))
    config = make_config(args.workload, args.seed, str(workdir / "out"))
    cfg = str(workdir / "config.json")
    with open(cfg, "w") as fh:
        json.dump(config, fh, indent=2)
    exp = oracles.expectations(config)

    spec = WORKLOADS[args.workload]
    ledger = Ledger(spec["analyses"], spec["known_fault"])
    child = Child(workdir)
    try:
        if args.trace:
            metrics, samples, about = traced_run(child, cfg, exp, ledger,
                                                 args.seconds, args.workload)
            units = PER_LAYER
        else:
            metrics, samples, about = timed_run(child, cfg, exp, ledger, args.seconds)
            units = END_TO_END
    finally:
        child.close()

    env = environment(about)
    for analysis, problems in sorted(ledger.problems.items()):
        known = " (known fault)" if analysis == spec["known_fault"] else ""
        print("failed %s%s: %s" % (analysis, known, "; ".join(problems[:3])))
    print("environment: %s" % json.dumps(env, sort_keys=True))
    result = {"correct": ledger.unexpected == 0, "attempted": ledger.attempted,
              "failed": ledger.failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    with open(workdir / "result.json", "w") as fh:
        json.dump(dict(result, environment=env, config=config, samples=samples,
                       problems=ledger.problems), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
