"""Command-line front end: config-driven runs, system catalog, plot data.

Subcommands:
  run <config.json>      execute the configured analyses, write CSV side
                         files and then a JSON report into the output dir
  systems                print the machine-readable family catalog
  plotdata <report> <analysis>
                         extract plot-ready CSV from an existing report

Exit codes: 0 done, 2 config/usage/input-file error (message names the
offending field or file), 3 resource budget exceeded. The report is
deterministic for a fixed config and seed except for its timestamp field.
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

from . import ergodic, measures, systems, tame, topology, ulam
from .errors import InputError, ResourceBudgetError

CONFIG_SCHEMA = "semicascade-config-v1"
REPORT_SCHEMA = "semicascade-report-v1"
OUTPUT_DIR_ENV = "SEMICASCADE_OUTPUT_DIR"

DEFAULTS = {
    "horizons": {"orbit_n": 4096, "schedule_lengths": [64, 128, 256, 512, 1024, 2048, 4096],
                 "proximality_horizon": 1024, "covering_horizon": 256},
    "tolerances": {"tol": 1e-2, "eps": 1e-3, "support_threshold": 1e-12},
    "banks": {"test_functions": 8, "grid_size": 256},
    "options": {"max_period": 2, "proximality_points": 100,
                "tameness_k_max": 6, "tameness_strategy": "fixed",
                "covering_eps": [0.5, 0.2, 0.1, 0.05, 0.02],
                "kernel_rounds": 64, "convergence_probe": 0.3,
                "limit_probe_count": 16},
    "seed": 0,
    "output_dir": ".",
}


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


def _positive_int(obj, field):
    _require(isinstance(obj, int) and not isinstance(obj, bool) and obj > 0,
             field, "must be a positive integer")
    return obj


def _positive_number(obj, field):
    _require(_is_number(obj) and math.isfinite(obj) and obj > 0,
             field, "must be a positive number")
    return float(obj)


def _merged_section(config, name):
    section = config.get(name, {})
    _check_keys(section, name, set(DEFAULTS[name]))
    merged = dict(DEFAULTS[name])
    merged.update(section)
    return merged


#: what each config kind of a system parameter accepts, and the message if not
_PARAM_KINDS = {
    "fraction": (lambda v: _is_number(v) or isinstance(v, str),
                 'must be a number or a "p/q" string'),
    "number": (_is_number, "must be a number"),
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "must be an integer"),
}


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
        accepts, message = _PARAM_KINDS[kind]
        _require(accepts(params[key]), field, message)
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
    """Normalize a raw config dict; unknown keys anywhere are rejected."""
    _check_keys(raw, "(top level)", {"schema", "system", "partition", "analyses",
                                     "horizons", "tolerances", "banks", "options",
                                     "seed", "output_dir"})
    _require(raw.get("schema") == CONFIG_SCHEMA, "schema",
             "must equal %r" % CONFIG_SCHEMA)
    _require("system" in raw, "system", "is required")
    _require("partition" in raw, "partition", "is required")
    _require("analyses" in raw, "analyses", "is required")

    spec = _build_system(raw["system"])

    part_sec = raw["partition"]
    _check_keys(part_sec, "partition", {"cells_per_axis", "samples_per_cell"})
    m = _positive_int(part_sec.get("cells_per_axis", 0), "partition.cells_per_axis")
    s = _positive_int(part_sec.get("samples_per_cell", 3), "partition.samples_per_cell")

    analyses = raw["analyses"]
    _require(isinstance(analyses, list) and analyses, "analyses",
             "must be a nonempty list")
    for a in analyses:
        _require(a in ANALYSES, "analyses",
                 "contains unknown analysis %r (allowed: %s)" % (a, ", ".join(ANALYSES)))

    horizons = _merged_section(raw, "horizons")
    _positive_int(horizons["orbit_n"], "horizons.orbit_n")
    _require(isinstance(horizons["schedule_lengths"], list) and
             len(horizons["schedule_lengths"]) >= 2,
             "horizons.schedule_lengths", "must be a list of at least two lengths")
    for i, n in enumerate(horizons["schedule_lengths"]):
        _positive_int(n, "horizons.schedule_lengths[%d]" % i)
    _positive_int(horizons["proximality_horizon"], "horizons.proximality_horizon")
    _positive_int(horizons["covering_horizon"], "horizons.covering_horizon")

    tolerances = _merged_section(raw, "tolerances")
    for key in ("tol", "eps"):
        _positive_number(tolerances[key], "tolerances.%s" % key)
    threshold = tolerances["support_threshold"]
    _require(_is_number(threshold) and math.isfinite(threshold) and threshold >= 0,
             "tolerances.support_threshold", "must be a finite nonnegative number")

    banks = _merged_section(raw, "banks")
    _positive_int(banks["test_functions"], "banks.test_functions")
    _positive_int(banks["grid_size"], "banks.grid_size")

    options = _merged_section(raw, "options")
    _positive_int(options["max_period"], "options.max_period")
    _positive_int(options["proximality_points"], "options.proximality_points")
    k_max = options["tameness_k_max"]
    _require(isinstance(k_max, int) and not isinstance(k_max, bool)
             and 2 <= k_max <= tame.MAX_CANCELLATION_TERMS,
             "options.tameness_k_max",
             "must be an integer from 2 to %d" % tame.MAX_CANCELLATION_TERMS)
    _require(options["tameness_strategy"] in ("fixed", "adversarial"),
             "options.tameness_strategy", "must be fixed or adversarial")
    _require(isinstance(options["covering_eps"], list) and options["covering_eps"],
             "options.covering_eps", "must be a nonempty list")
    for i, e in enumerate(options["covering_eps"]):
        _positive_number(e, "options.covering_eps[%d]" % i)
    _positive_int(options["kernel_rounds"], "options.kernel_rounds")
    if spec.dimension > 1 and "convergence_probe" not in raw.get("options", {}):
        ## the scalar default names the same coordinate on every axis
        options["convergence_probe"] = [options["convergence_probe"]] * spec.dimension
    probe = options["convergence_probe"]
    probe_list = probe if isinstance(probe, list) else [probe]
    _require(len(probe_list) == spec.dimension, "options.convergence_probe",
             "must have one coordinate per dimension (%d)" % spec.dimension)
    for c in probe_list:
        _require(_is_number(c) and 0.0 <= c < 1.0,
                 "options.convergence_probe", "coordinates must lie in [0,1)")
    _positive_int(options["limit_probe_count"], "options.limit_probe_count")

    seed = raw.get("seed", DEFAULTS["seed"])
    _require(isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0,
             "seed", "must be a nonnegative integer")
    output_dir = raw.get("output_dir", DEFAULTS["output_dir"])
    _require(isinstance(output_dir, str) and output_dir, "output_dir",
             "must be a nonempty string")

    return {
        "schema": CONFIG_SCHEMA,
        "system": raw["system"],
        "spec": spec,
        "partition": {"cells_per_axis": m, "samples_per_cell": s},
        "analyses": list(analyses),
        "horizons": horizons,
        "tolerances": tolerances,
        "banks": banks,
        "options": options,
        "seed": seed,
        "output_dir": output_dir,
    }


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
        return topology.graph_from_transfer(self.transfer)

    @functools.cached_property
    def bank(self):
        return ulam.sample_test_bank(self.partition, self.config["banks"]["test_functions"])

    @functools.cached_property
    def stationary(self):
        return measures.stationary_measures(self.graph)

    @functools.cached_property
    def projection(self):
        return ergodic.kernel_projection_estimate(self.stationary)


def _convergence(run):
    lengths, tol = run.horizons["schedule_lengths"], run.tolerances["tol"]
    schedules = [ergodic.cesaro_schedule(n) for n in lengths]
    probe = run.options["convergence_probe"]
    coords = np.asarray(probe if isinstance(probe, list) else [probe])
    mu0 = np.zeros(run.transfer.n_cells)
    mu0[int(run.partition.cell_of_points(coords[None, :])[0])] = 1.0
    report = ergodic.convergence_diagnostic(run.transfer, schedules, mu0, run.bank, tol=tol)
    entry = report.as_jsonable()
    entry.pop("limit")  # vectors live in CSV side files, not the report
    entry["defect_vs_n"] = [[int(sch.max_power + 1), float(d)] for sch, d
                            in zip(schedules[1:], report.consecutive_defects)]
    entry["context"] = run.context(max(lengths), tol)
    return entry


def _unique_minimal_set(run):
    check = topology.unique_minimal_set_check(run.graph, max_period=run.options["max_period"])
    return dict(check.as_jsonable(), context=run.context(None, None))


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
    pts = _probe_grid(run.options["proximality_points"], run.spec.dimension)
    horizon, eps = run.horizons["proximality_horizon"], run.tolerances["eps"]
    pg = topology.proximality_graph(run.spec, pts, horizon, eps)
    return dict(topology.transitivity_defect(pg).as_jsonable(), n_points=int(pts.shape[0]),
                context=run.context(horizon, eps))


def _measures(run):
    threshold = run.tolerances["support_threshold"]
    minimality = measures.support_minimality_check(run.stationary, threshold=threshold)
    center = measures.attraction_center_vs_minimal_union(run.stationary, threshold=threshold)
    return dict(run.stationary.as_jsonable(),
                support_minimality=[bool(v) for v in minimality],
                attraction_center=center.as_jsonable(),
                context=run.context(None, threshold))


def _tameness(run):
    fn_entry = ulam.trig_bank(2, run.spec.dimension)[1]  # first nonconstant
    grid = _probe_grid(run.config["banks"]["grid_size"], run.spec.dimension)
    k_max = run.options["tameness_k_max"]
    profile = tame.tameness_profile(run.spec, fn_entry, k_max, grid,
                                    strategy=run.options["tameness_strategy"])
    return dict(profile.as_jsonable(), context=run.context(k_max, None))


def _tameness_verdicts(entry, results):
    last_k = max(entry["defect_per_k"], key=int)
    return ["cancellation defect at K=%s: %.3g (%s strategy)"
            % (last_k, entry["defect_per_k"][last_k], entry["strategy"])]


def _covering(run):
    horizon = run.horizons["covering_horizon"]
    profile = tame.covering_profile(run.spec, horizon, run.options["covering_eps"])
    return dict(profile.as_jsonable(), context=run.context(horizon, None))


def _limit_measures(run):
    probes = _probe_grid(run.options["limit_probe_count"], run.spec.dimension)
    limits = ergodic.limit_measure_per_point(run.projection, probes, run.horizons["orbit_n"])
    rows = [{"probe": [float(c) for c in pt],
             "ergodic": res.ergodic,
             "dominant_class": res.dominant_class,
             "mass_in_class": res.mass_in_class,
             "route": res.route} for pt, res in zip(probes, limits)]
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
        lambda run: {"residual_vq": run.projection.residual_vq,
                     "residual_idem": run.projection.residual_idem,
                     "stop_reason": run.projection.stop_reason,
                     "context": run.context(None, None)},
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


def table_rows(analysis, entry):
    """CSV rows, header first, for one analysis entry of a report.

    A lookup into ANALYSIS_TABLE. `run` writes its convergence, tameness
    and covering side tables from the entry it puts in the report, and
    `plotdata` from the entry it reads back, so both emit the same bytes.
    """
    return ANALYSIS_TABLE[analysis].plot_rows(entry)


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
    for line in report["verdict_lines"]:
        print(line)
    print("report written to %s" % report_path)
    return 0


def cmd_systems(_args):
    print(json.dumps(systems.systems_catalog(), indent=2, sort_keys=True))
    return 0


def cmd_plotdata(args):
    report = _read_json(args.report, "report")
    results = report.get("results", {}) if isinstance(report, dict) else None
    if not isinstance(results, dict):
        raise ConfigError("report file %s has no results object" % args.report)
    if args.analysis not in results:
        raise ConfigError("analysis %r is not present in the report (has: %s)"
                          % (args.analysis, ", ".join(sorted(results)) or "none"))
    try:
        rows = table_rows(args.analysis, results[args.analysis])
    except (LookupError, TypeError, AttributeError) as exc:
        raise ConfigError("analysis %r in report file %s is malformed: %r" % (args.analysis, args.report, exc))
    out_dir = _output_dir(args.output_dir, "--output-dir")
    path = os.path.join(out_dir, "plot_%s.csv" % args.analysis)
    _write_output(path, lambda fh: csv.writer(fh).writerows(rows))
    print("plot data written to %s" % path)
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
