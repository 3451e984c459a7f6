"""Command-line front end: config-driven runs, system catalog, plot data.

Subcommands:
  run <config.json>      execute the configured analyses, write CSV side
                         files and then a JSON report into the output dir
  systems                print the machine-readable family catalog
  plotdata <report> <analysis>
                         extract plot-ready CSV from an existing report

Exit codes: 0 done (or stdout closed by its reader), 2 config/usage/
input-file error (message names the offending field or file) or a failed
write to stdout, 3 resource budget exceeded. The report is deterministic
for a fixed config and seed except for its timestamp field.
The environment variable SEMICASCADE_OUTPUT_DIR overrides the configured
output directory.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import os
import sys
from datetime import datetime, timezone
from typing import NamedTuple

import numpy as np

## topology, measures, ergodic and tame are imported in the function that
## first calls them, so a run loads only the analysis modules it runs
from . import systems, ulam
from .errors import BUDGETS, InputError, ResourceBudgetError

CONFIG_SCHEMA = "semicascade-config-v1"
REPORT_SCHEMA = "semicascade-report-v1"
OUTPUT_DIR_ENV = "SEMICASCADE_OUTPUT_DIR"


class ConfigError(Exception):
    """Config rejected; message names the field."""


def _require(cond, field, message):
    if not cond:
        raise ConfigError("config field %s %s" % (field, message))


def _check_keys(obj, field, allowed):
    _require(isinstance(obj, dict), field, "must be an object")
    for key in obj:
        if key not in allowed:
            raise ConfigError("config field %s.%s is not recognized (allowed: %s)"
                              % (field, key, ", ".join(sorted(allowed))))


def _is_number(obj):
    return isinstance(obj, (int, float)) and not isinstance(obj, bool)


def _is_int(obj):
    return isinstance(obj, int) and not isinstance(obj, bool)


#: kind -> (what it accepts, the message if not[, item kind]); a list kind
#: then checks each item against its item kind, naming it field[i]
KINDS = {
    "fraction": (lambda v: _is_number(v) or isinstance(v, str),
                 'must be a number or a "p/q" string'),
    "number": (_is_number, "must be a number"),
    "int": (_is_int, "must be an integer"),
    "positive_int": (lambda v: _is_int(v) and v > 0, "must be a positive integer"),
    "positive_number": (lambda v: _is_number(v) and math.isfinite(v) and v > 0,
                        "must be a positive number"),
    "nonnegative_number": (lambda v: _is_number(v) and math.isfinite(v) and v >= 0,
                           "must be a finite nonnegative number"),
    "nonnegative_int": (lambda v: _is_int(v) and v >= 0, "must be a nonnegative integer"),
    "cancellation_terms": (lambda v: _is_int(v) and 2 <= v <= BUDGETS["cancellation"].cap,
                           "must be an integer from 2 to %d" % BUDGETS["cancellation"].cap),
    "strategy": (lambda v: v in ("fixed", "adversarial"), "must be fixed or adversarial"),
    "lengths": (lambda v: isinstance(v, list) and len(v) >= 2,
                "must be a list of at least two lengths", "positive_int"),
    "epsilons": (lambda v: isinstance(v, list) and v, "must be a nonempty list",
                 "positive_number"),
    "coordinate": (lambda v: _is_number(v) and 0.0 <= v < 1.0, "coordinates must lie in [0,1)"),
    "path": (lambda v: isinstance(v, str) and v, "must be a nonempty string"),
}

#: section -> field -> (default, kind), and top-level field -> (default, kind);
#: a default of None makes the field required. Checks run in this order.
CONFIG_FIELDS = {
    "partition": {"cells_per_axis": (None, "positive_int"),
                  "samples_per_cell": (3, "positive_int")},
    "horizons": {"orbit_n": (4096, "positive_int"),
                 "schedule_lengths": ([64, 128, 256, 512, 1024, 2048, 4096], "lengths"),
                 "proximality_horizon": (1024, "positive_int"),
                 "covering_horizon": (256, "positive_int")},
    "tolerances": {"tol": (1e-2, "positive_number"), "eps": (1e-3, "positive_number"),
                   "support_threshold": (1e-12, "nonnegative_number")},
    "banks": {"test_functions": (8, "positive_int"), "grid_size": (256, "positive_int")},
    "options": {"max_period": (2, "positive_int"),
                "proximality_points": (100, "positive_int"),
                "tameness_k_max": (6, "cancellation_terms"),
                "tameness_strategy": ("fixed", "strategy"),
                "covering_eps": ([0.5, 0.2, 0.1, 0.05, 0.02], "epsilons"),
                "kernel_rounds": (64, "positive_int"),  # accepted, read by nothing
                "convergence_probe": (0.3, "coordinate"),
                "limit_probe_count": (16, "positive_int")},
    "seed": (0, "nonnegative_int"),
    "output_dir": (".", "path"),
}


def _check(value, field, kind):
    accepts, message, *item_kind = KINDS[kind]
    _require(accepts(value), field, message)
    for i, item in enumerate(value if item_kind else ()):
        _check(item, "%s[%d]" % (field, i), item_kind[0])
    return value


def _build_system(section):
    _check_keys(section, "system", {"family", "params"})
    family = section.get("family")
    _require(isinstance(family, str), "system.family", "must be a string")
    params = section.get("params", {})
    _require(isinstance(params, dict), "system.params", "must be an object")
    row = systems.FAMILY_TABLE.get(family)
    if row is None:
        raise ConfigError("config field system.family has unknown value %r (see the "
                          "systems subcommand for the catalog)" % family)
    _check_keys(params, "system.params", {key for key, _, _ in row.params})
    for key, kind, _ in row.params:
        field = "system.params.%s" % key
        _require(key in params, field, "is required")
        _check(params[key], field, kind)
    try:
        return row.build(*(params[key] for key, _, _ in row.params))
    except InputError as exc:
        raise ConfigError("config field system.params is invalid: %s" % exc)


def _read_json(path, what):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError("%s file %s does not exist" % (what, path))
    except (OSError, ValueError) as exc:  # a directory, not UTF-8, not JSON
        raise ConfigError("%s file %s is not valid JSON: %s" % (what, path, exc))


def load_config(path):
    return validate_config(_read_json(path, "config"))


def validate_config(raw):
    """Normalize a raw config dict; unknown keys anywhere are rejected.

    The first fault found is the one reported: schema, system, then the
    CONFIG_FIELDS rows in table order, with analyses after the partition.
    """
    _check_keys(raw, "(top level)", {"schema", "system", "analyses", *CONFIG_FIELDS})
    _require(raw.get("schema") == CONFIG_SCHEMA, "schema",
             "must equal %r" % CONFIG_SCHEMA)
    for key in ("system", "partition", "analyses"):
        _require(key in raw, key, "is required")
    spec = _build_system(raw["system"])
    config = {"schema": CONFIG_SCHEMA, "system": raw["system"], "spec": spec}
    for name, fields in CONFIG_FIELDS.items():
        if name == "horizons":
            analyses = raw["analyses"]
            _require(isinstance(analyses, list) and analyses, "analyses",
                     "must be a nonempty list")
            for a in analyses:
                _require(a in ANALYSES, "analyses", "contains unknown analysis %r "
                         "(allowed: %s)" % (a, ", ".join(ANALYSES)))
            config["analyses"] = list(analyses)
        if not isinstance(fields, dict):  # a top-level field
            config[name] = _check(raw.get(name, fields[0]), name, fields[1])
            continue
        given = raw.get(name, {})
        _check_keys(given, name, set(fields))
        section = config[name] = {}
        for key, (default, kind) in fields.items():
            field, value = "%s.%s" % (name, key), given.get(key, default)
            if key == "convergence_probe":
                ## one coordinate per axis; the scalar default names the same
                ## coordinate on every axis
                if spec.dimension > 1 and key not in given:
                    value = [value] * spec.dimension
                coords = value if isinstance(value, list) else [value]
                _require(len(coords) == spec.dimension, field,
                         "must have one coordinate per dimension (%d)" % spec.dimension)
                for c in coords:
                    _check(c, field, kind)
            else:
                _check(value, field, kind)
            section[key] = value
    return config


# ---------------------------------------------------------------------------
# analysis orchestration


def _probe_grid(count, dimension):
    if dimension == 1:
        return systems.equispaced_points(count, 1)
    side = max(2, int(round(math.sqrt(count))))
    return systems.equispaced_points(side, 2)


class SharedResults:
    """The results that the analyses of one run share, each built on first read."""

    def __init__(self, config):
        self.config, self.spec = config, config["spec"]
        self.horizons, self.tolerances = config["horizons"], config["tolerances"]
        self.options = config["options"]

    def context(self, horizon, tolerance):
        return {"resolution": self.config["partition"]["cells_per_axis"],
                "horizon": horizon, "tolerance": tolerance}

    @functools.cached_property
    def partition(self):
        part = self.config["partition"]
        return ulam.build_partition(self.spec, part["cells_per_axis"],
                                    part["samples_per_cell"], seed=self.config["seed"])

    @functools.cached_property
    def transfer(self):
        return ulam.build_transfer_matrix(self.partition, self.spec)

    @functools.cached_property
    def graph(self):
        from . import topology
        return topology.graph_from_transfer(self.transfer)

    @functools.cached_property
    def bank(self):
        return ulam.sample_test_bank(self.partition, self.config["banks"]["test_functions"])

    @functools.cached_property
    def stationary(self):
        from . import measures
        return measures.stationary_measures(self.graph)

    @functools.cached_property
    def projection(self):
        from . import ergodic
        return ergodic.kernel_projection_estimate(self.stationary)


def _plain(value):
    """A record field as a JSON value: numpy to Python, tuples to lists, keys to str."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _entry(record, drop=(), **extra):
    """A result record's fields as a report entry, less those in drop, plus extra."""
    fields = {k: v for k, v in record._asdict().items() if k not in drop}
    return _plain(dict(fields, **extra))


def _convergence(run):
    from . import ergodic
    lengths, tol = run.horizons["schedule_lengths"], run.tolerances["tol"]
    schedules = ergodic.cesaro_ladder(lengths)
    probe = run.options["convergence_probe"]
    coords = np.asarray(probe if isinstance(probe, list) else [probe])
    mu0 = np.zeros(run.transfer.n_cells)
    mu0[int(run.partition.cell_of_points(coords[None, :])[0])] = 1.0
    report = ergodic.convergence_diagnostic(run.transfer, schedules, mu0, run.bank, tol=tol)
    return _entry(report, drop=("limit", "consecutive_defects"),
                  defect_vs_n=[[sch.max_power + 1, d] for sch, d
                               in zip(schedules[1:], report.consecutive_defects)],
                  context=run.context(max(lengths), tol))


def _unique_minimal_set(run):
    from . import topology
    check = topology.unique_minimal_set_check(run.graph, max_period=run.options["max_period"])
    witnesses = [{"period": orb.period, "points": [[str(c) for c in pt.coords] for pt in orb.points]}
                 for orb in check.witnesses]
    return _entry(check, drop=("minimal_sets", "witnesses"), witnesses=witnesses,
                  context=run.context(None, None))


def _uniqueness_verdicts(entry, results):
    verdict = str(entry["verdict"]).lower()
    lines = ["unique minimal set per orbit closure: %s (backend %s)"
             % (verdict, entry["backend_used"])]
    if "convergence" in results:
        convergence = results["convergence"]["verdict"]
        consistent = not entry["verdict"] or convergence == "converged"
        lines.append("uniqueness %s alongside convergence %s -- %s"
                     % (verdict, convergence, "consistent" if consistent else "tension"))
    return lines


def _proximality(run):
    from . import topology
    pts = _probe_grid(run.options["proximality_points"], run.spec.dimension)
    horizon, eps = run.horizons["proximality_horizon"], run.tolerances["eps"]
    pg = topology.proximality_graph(run.spec, pts, horizon, eps)
    return _entry(topology.transitivity_defect(pg), n_points=pts.shape[0],
                  context=run.context(horizon, eps))


def _measures(run):
    from . import measures
    threshold = run.tolerances["support_threshold"]
    minimality = measures.support_minimality_check(run.stationary, threshold=threshold)
    center = measures.attraction_center_vs_minimal_union(run.stationary, threshold=threshold)
    return _entry(run.stationary, drop=("measures", "graph"),
                  n_measures=len(run.stationary.measures),
                  class_ids=run.graph.minimal_sets.terminal_scc_ids,
                  support_minimality=minimality,
                  attraction_center=_entry(center, drop=("support_union", "minimal_union"),
                                           n_support_union=len(center.support_union),
                                           n_minimal_union=len(center.minimal_union)),
                  context=run.context(None, threshold))


def _tameness(run):
    from . import tame
    fn_entry = ulam.trig_bank(2, run.spec.dimension)[1]  # first nonconstant
    grid = _probe_grid(run.config["banks"]["grid_size"], run.spec.dimension)
    k_max = run.options["tameness_k_max"]
    profile = tame.tameness_profile(run.spec, fn_entry, k_max, grid,
                                    strategy=run.options["tameness_strategy"])
    return _entry(profile, drop=("coefficients",), context=run.context(k_max, None))


def _tameness_verdicts(entry, results):
    last_k = max(entry["defect_per_k"], key=int)
    return ["cancellation defect at K=%s: %.3g (%s strategy)"
            % (last_k, entry["defect_per_k"][last_k], entry["strategy"])]


def _covering(run):
    from . import tame
    horizon = run.horizons["covering_horizon"]
    profile = tame.covering_profile(run.spec, horizon, run.options["covering_eps"])
    return _entry(profile, context=run.context(horizon, None))


def _limit_measures(run):
    from . import ergodic
    probes = _probe_grid(run.options["limit_probe_count"], run.spec.dimension)
    limits = ergodic.limit_measure_per_point(run.projection, probes, run.horizons["orbit_n"])
    rows = [_entry(res, drop=("measure", "support_cells"), probe=pt)
            for pt, res in zip(probes, limits)]
    return {"probes": rows, "context": run.context(run.horizons["orbit_n"], None)}


def _measure_rows(mu):
    ## rows are made as the writer reads them, so no table of n_cells rows is held
    return itertools.chain([["cell", "weight"]],
                           zip(itertools.count(), map("%.17g".__mod__, mu.tolist())))


class Analysis(NamedTuple):
    """How `run` reports one analysis, and the rows `plotdata` emits for it."""

    entry: object  # SharedResults -> report entry, context included
    verdicts: object  # (entry, the results so far) -> verdict lines
    plot_rows: object  # entry -> CSV rows, header first
    ## (SharedResults, plot rows) -> (file name, CSV rows) pairs that `run`
    ## writes; a lazy iterable is read only as the file is written
    side_tables: object = lambda run, rows: ()


#: one row per analysis; this order, not the config's, orders the results
ANALYSIS_TABLE = {
    "convergence": Analysis(
        _convergence,
        lambda entry, results: ["schedule convergence: %s (tol=%g)"
                                % (entry["verdict"], entry["context"]["tolerance"])],
        lambda entry: [["n", "defect"]] + entry["defect_vs_n"],
        lambda run, rows: [("convergence_defects.csv", rows)]),
    "unique_minimal_set": Analysis(
        _unique_minimal_set,
        _uniqueness_verdicts,
        lambda entry: [["verdict", "graph_verdict", "backend"],
                       [entry["verdict"], entry["graph_verdict"], entry["backend_used"]]]),
    "proximality": Analysis(
        _proximality,
        lambda entry, results: ["proximality transitivity defect: %g%s"
                                % (entry["defect"], " (vacuous)" if entry["vacuous"] else "")],
        lambda entry: [["defect", "n_two_step_triples", "n_violations"],
                       [entry["defect"], entry["n_two_step_triples"], entry["n_violations"]]]),
    "measures": Analysis(
        _measures,
        lambda entry, results: ["stationary supports minimal: %s; support union equals "
                                "terminal-class union: %s"
                                % (str(all(entry["support_minimality"])).lower(),
                                   str(entry["attraction_center"]["equal"]).lower())],
        lambda entry: [["measure", "class_id", "index"]] +
                      [[i, cid, i] for i, cid in enumerate(entry["class_ids"])],
        lambda run, rows: (("measure_%d.csv" % i, _measure_rows(mu))
                           for i, mu in enumerate(run.stationary.measures))),
    "tameness": Analysis(
        _tameness,
        _tameness_verdicts,
        lambda entry: [["K", "defect"]] +
                      [[int(k), "%.17g" % v]
                       for k, v in sorted(entry["defect_per_k"].items(), key=lambda kv: int(kv[0]))],
        lambda run, rows: [("tameness.csv", rows)]),
    "covering": Analysis(
        _covering,
        lambda entry, results: ["covering counts at horizon %d: %s"
                                % (entry["horizon"], entry["counts"])],
        lambda entry: [["horizon", "epsilon", "count"]] +
                      [[entry["horizon"], "%.17g" % e, c]
                       for e, c in zip(entry["eps_list"], entry["counts"])],
        lambda run, rows: [("covering.csv", rows)]),
    "kernel_projection": Analysis(
        lambda run: _entry(run.projection, drop=("absorption", "stationary", "graph"),
                           context=run.context(None, None)),
        lambda entry, results: ["projection residuals: vq=%.3g idem=%.3g (%s)"
                                % (entry["residual_vq"], entry["residual_idem"],
                                   entry["stop_reason"])],
        lambda entry: [["residual_vq", "residual_idem"],
                       [entry["residual_vq"], entry["residual_idem"]]]),
    "limit_measures": Analysis(
        _limit_measures,
        lambda entry, results: ["single-class limit measures: %d of %d probes"
                                % (sum(r["ergodic"] for r in entry["probes"]),
                                   len(entry["probes"]))],
        lambda entry: [["probe", "ergodic", "mass_in_class"]] +
                      [["%r" % r["probe"], int(r["ergodic"]), "%.17g" % r["mass_in_class"]]
                       for r in entry["probes"]]),
}

ANALYSES = tuple(ANALYSIS_TABLE)


def run_analyses(config):
    """Execute the configured analyses.

    Returns the report dict and an iterator of (file name, CSV rows) side
    tables, whose rows are made only as the iterator is read.
    """
    run = SharedResults(config)
    results, verdicts, side_tables = {}, [], []
    for name, row in ANALYSIS_TABLE.items():
        if name in config["analyses"]:
            entry = results[name] = row.entry(run)
            verdicts += row.verdicts(entry, results)
            side_tables.append(row.side_tables(run, row.plot_rows(entry)))
    report = {
        "schema": REPORT_SCHEMA,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "config": {k: v for k, v in config.items() if k != "spec"},
        "system_description": config["spec"].describe(),
        "results": results,
        "verdict_lines": verdicts,
    }
    return report, itertools.chain.from_iterable(side_tables)


def _output_dir(path, field):
    ## the environment overrides the given directory, which is made up front
    path = os.environ.get(OUTPUT_DIR_ENV) or path
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError("%s %s is not a usable directory: %s" % (field, path, exc))
    return path


def _write_output(path, write):
    ## every output file goes through here, so an unwritable path is exit 2
    try:
        with open(path, "w", newline="") as fh:
            write(fh)
    except OSError as exc:
        raise ConfigError("output file %s cannot be written: %s" % (path, exc))


def _print_lines(lines):
    ## stdout fails like an output file, with exit 2, but a closed pipe ends quietly
    try:
        print(*lines, sep="\n", flush=True)  # a failed write can first surface at the flush
    except OSError as exc:
        if not isinstance(exc, BrokenPipeError):
            raise ConfigError("standard output cannot be written: %s" % exc)


def cmd_run(args):
    config = load_config(args.config)
    out_dir = _output_dir(config["output_dir"], "output_dir")
    report, side_tables = run_analyses(config)
    ## the report goes last, so a run that cannot write a side table leaves none
    for name, rows in side_tables:
        _write_output(os.path.join(out_dir, name), lambda fh: csv.writer(fh).writerows(rows))
    report_path = os.path.join(out_dir, "report.json")
    _write_output(report_path,
                  lambda fh: fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n"))
    _print_lines([*report["verdict_lines"], "report written to %s" % report_path])
    return 0


def cmd_systems(_args):
    _print_lines([json.dumps(systems.systems_catalog(), indent=2, sort_keys=True)])
    return 0


def cmd_plotdata(args):
    report = _read_json(args.report, "report")
    results = report.get("results", {}) if isinstance(report, dict) else None
    if not isinstance(results, dict):
        raise ConfigError("report file %s has no results object" % args.report)
    if args.analysis not in results:
        raise ConfigError("analysis %r is not present in the report (has: %s)"
                          % (args.analysis, ", ".join(sorted(results)) or "none"))
    try:  # the rows `run` wrote its side tables from, made from the entry read back
        rows = ANALYSIS_TABLE[args.analysis].plot_rows(results[args.analysis])
    except (LookupError, TypeError, AttributeError, ValueError) as exc:
        raise ConfigError("analysis %r in report file %s is malformed: %r" % (args.analysis, args.report, exc))
    out_dir = _output_dir(args.output_dir, "--output-dir")
    path = os.path.join(out_dir, "plot_%s.csv" % args.analysis)
    _write_output(path, lambda fh: csv.writer(fh).writerows(rows))
    _print_lines(["plot data written to %s" % path])
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="semicascade",
        description="Discretized analyses of iterated interval and torus maps.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run the analyses described by a JSON config")
    p_run.add_argument("config", help="path to a %s file" % CONFIG_SCHEMA)
    p_run.set_defaults(func=cmd_run)
    p_sys = sub.add_parser("systems", help="print the bundled system catalog")
    p_sys.set_defaults(func=cmd_systems)
    p_plot = sub.add_parser("plotdata", help="extract plot CSV from a report")
    p_plot.add_argument("report", help="path to a report.json from a run")
    p_plot.add_argument("analysis", help="analysis id, e.g. convergence")
    p_plot.add_argument("--output-dir", default=".", dest="output_dir")
    p_plot.set_defaults(func=cmd_plotdata)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InputError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ResourceBudgetError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
