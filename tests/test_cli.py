"""CLI contract: configs, exit codes, artifacts, determinism, plot data."""

import builtins
import contextlib
import gc
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import semicascade
from semicascade import cli, ergodic, measures, systems, tame, topology


def _base_config(out_dir):
    return {
        "schema": cli.CONFIG_SCHEMA,
        "system": {"family": "circle_rotation", "params": {"alpha": systems.GOLDEN}},
        "partition": {"cells_per_axis": 16, "samples_per_cell": 3},
        "analyses": list(cli.ANALYSES),
        "horizons": {"orbit_n": 512, "schedule_lengths": [64, 128, 256, 512],
                     "proximality_horizon": 128, "covering_horizon": 64},
        "banks": {"test_functions": 8, "grid_size": 128},
        "options": {"max_period": 2, "proximality_points": 36,
                    "tameness_k_max": 4, "tameness_strategy": "fixed",
                    "covering_eps": [0.5, 0.1], "kernel_rounds": 32,
                    "convergence_probe": 0.3, "limit_probe_count": 8},
        "seed": 0,
        "output_dir": str(out_dir),
    }


def _write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """One full run shared by the artifact, determinism and plotdata tests."""
    tmp_path = tmp_path_factory.mktemp("clirun")
    out_dir = tmp_path / "out"
    cfg = _base_config(out_dir)
    code = cli.main(["run", _write_config(tmp_path, cfg)])
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    return tmp_path, out_dir, cfg, report


# ---------------------------------------------------------------------------
# run


def test_run_writes_report_and_side_tables(finished_run, capsys):
    _, out_dir, _, report = finished_run
    assert report["schema"] == cli.REPORT_SCHEMA
    assert set(report["results"]) == set(cli.ANALYSES)
    assert report["system_description"].startswith("circle_rotation(")
    assert len(report["verdict_lines"]) >= len(cli.ANALYSES)
    for name in ("convergence_defects.csv", "measure_0.csv", "tameness.csv",
                 "covering.csv"):
        assert (out_dir / name).exists(), name
    header = (out_dir / "convergence_defects.csv").read_text().splitlines()[0]
    assert header == "n,defect"
    ## every analysis result carries its context triple
    for entry in report["results"].values():
        assert set(entry["context"]) == {"resolution", "horizon", "tolerance"}
    ## the tameness work block counts the sign patterns and pivots of each K
    work = report["results"]["tameness"]["work"]
    assert list(work) == ["2", "3", "4"]
    assert [w["sign_patterns"] for w in work.values()] == [2, 4, 8]
    assert all(w["pivots"] > 0 for w in work.values())


def test_run_prints_verdict_lines(tmp_path, capsys):
    cfg = _base_config(tmp_path / "out")
    cfg["analyses"] = ["convergence", "unique_minimal_set"]
    code = cli.main(["run", _write_config(tmp_path, cfg)])
    out = capsys.readouterr().out
    assert code == 0
    assert "schedule convergence: converged" in out
    assert "unique minimal set per orbit closure: true" in out
    assert "consistent" in out
    assert "report written to" in out


def test_run_deterministic_except_timestamp(finished_run, tmp_path):
    _, _, cfg, report = finished_run
    out2 = tmp_path / "out2"
    cfg2 = dict(cfg, output_dir=str(out2))
    code = cli.main(["run", _write_config(tmp_path, cfg2, "config2.json")])
    assert code == 0
    first = json.loads(json.dumps(report))
    second = json.loads((out2 / "report.json").read_text())
    assert first["timestamp"] != "" and second["timestamp"] != ""
    del first["timestamp"], second["timestamp"]
    first["config"]["output_dir"] = second["config"]["output_dir"] = ""
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_one_scc_decomposition_per_run(tmp_path, monkeypatch):
    ## every analysis that needs the terminal classes shares one decomposition
    calls = []
    decompose = topology.minimal_invariant_sets

    def spy(graph):
        calls.append(graph)
        return decompose(graph)

    monkeypatch.setattr(topology, "minimal_invariant_sets", spy)
    cfg = _base_config(tmp_path / "out")
    cfg["system"] = {"family": "north_south", "params": {"kappa": 0.5}}
    cfg["analyses"] = ["unique_minimal_set", "measures", "kernel_projection",
                       "limit_measures"]
    report, _ = cli.run_analyses(cli.validate_config(cfg))
    assert set(report["results"]) == set(cfg["analyses"])
    assert len(calls) == 1


def test_one_stationary_solve_per_run(tmp_path, monkeypatch):
    ## measures and kernel_projection share one set of stationary measures
    calls = []
    solve = measures.stationary_measures

    def spy(graph):
        calls.append(graph)
        return solve(graph)

    monkeypatch.setattr(measures, "stationary_measures", spy)
    cfg = _base_config(tmp_path / "out")
    cfg["system"] = {"family": "north_south", "params": {"kappa": 0.5}}
    cfg["analyses"] = ["measures", "kernel_projection"]
    report, _ = cli.run_analyses(cli.validate_config(cfg))
    assert set(report["results"]) == set(cfg["analyses"])
    assert len(calls) == 1


@pytest.mark.parametrize("analyses,estimates", [
    (list(cli.ANALYSES), 1),
    (["unique_minimal_set", "measures", "proximality", "tameness", "covering"], 0),
], ids=["all_analyses", "torus_wildness_analyses"])
def test_one_projection_per_run(tmp_path, monkeypatch, analyses, estimates):
    ## kernel_projection and limit_measures share one projection; a run
    ## without them (the torus-wildness analyses) never builds one
    calls = {"estimate": 0, "stationary": 0}
    estimate, solve = ergodic.kernel_projection_estimate, measures.stationary_measures

    def spy_estimate(*args):
        calls["estimate"] += 1
        return estimate(*args)

    def spy_solve(*args):
        calls["stationary"] += 1
        return solve(*args)

    monkeypatch.setattr(ergodic, "kernel_projection_estimate", spy_estimate)
    monkeypatch.setattr(measures, "stationary_measures", spy_solve)
    cfg = _base_config(tmp_path / "out")
    cfg["analyses"] = analyses
    report, _ = cli.run_analyses(cli.validate_config(cfg))
    assert set(report["results"]) == set(analyses)
    assert calls == {"estimate": estimates, "stationary": 1}


def test_output_dir_env_override(tmp_path, monkeypatch):
    cfg = _base_config(tmp_path / "ignored")
    cfg["analyses"] = ["measures"]
    forced = tmp_path / "forced"
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(forced))
    code = cli.main(["run", _write_config(tmp_path, cfg)])
    assert code == 0
    assert (forced / "report.json").exists()
    assert not (tmp_path / "ignored").exists()


# ---------------------------------------------------------------------------
# config rejection (exit 2, message names the field)


def _expect_config_error(tmp_path, capsys, cfg, fragment):
    code = cli.main(["run", _write_config(tmp_path, cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")
    assert fragment in err, err


def test_rejects_missing_file(tmp_path, capsys):
    code = cli.main(["run", str(tmp_path / "absent.json")])
    err = capsys.readouterr().err
    assert code == 2 and "does not exist" in err


def test_rejects_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code = cli.main(["run", str(path)])
    err = capsys.readouterr().err
    assert code == 2 and "not valid JSON" in err


def test_rejects_wrong_schema(tmp_path, capsys):
    cfg = _base_config(tmp_path)
    cfg["schema"] = "something-else"
    _expect_config_error(tmp_path, capsys, cfg, "config field schema")


def test_rejects_unknown_top_level_key(tmp_path, capsys):
    cfg = _base_config(tmp_path)
    cfg["bogus"] = 1
    _expect_config_error(tmp_path, capsys, cfg, "(top level).bogus is not recognized")


def test_rejects_bad_partition(tmp_path, capsys):
    cfg = _base_config(tmp_path)
    cfg["partition"] = {"samples_per_cell": 3}
    _expect_config_error(tmp_path, capsys, cfg,
                         "config field partition.cells_per_axis")


def test_rejects_unknown_analysis(tmp_path, capsys):
    cfg = _base_config(tmp_path)
    cfg["analyses"] = ["convergence", "mystery"]
    _expect_config_error(tmp_path, capsys, cfg, "unknown analysis 'mystery'")


def test_rejects_unknown_family(tmp_path, capsys):
    cfg = _base_config(tmp_path)
    cfg["system"] = {"family": "horseshoe", "params": {}}
    _expect_config_error(tmp_path, capsys, cfg, "system.family has unknown value")


def test_rejects_missing_required_param(tmp_path, capsys):
    cfg = _base_config(tmp_path)
    cfg["system"] = {"family": "circle_rotation", "params": {}}
    _expect_config_error(tmp_path, capsys, cfg, "system.params.alpha is required")


def test_rejects_out_of_range_param(tmp_path, capsys):
    cfg = _base_config(tmp_path)
    cfg["system"] = {"family": "north_south", "params": {"kappa": 2.0}}
    _expect_config_error(tmp_path, capsys, cfg, "system.params is invalid")


def test_rejects_probe_dimension_mismatch(tmp_path, capsys):
    cfg = _base_config(tmp_path)
    cfg["options"]["convergence_probe"] = [0.3, 0.4]
    _expect_config_error(tmp_path, capsys, cfg, "options.convergence_probe")


def test_rejects_infinite_support_threshold(tmp_path, capsys):
    ## json.load reads Infinity, and a threshold of inf empties every support
    cfg = _base_config(tmp_path)
    cfg["tolerances"] = {"support_threshold": float("inf")}
    _expect_config_error(tmp_path, capsys, cfg, "config field tolerances.support_threshold")


def test_omitted_probe_defaults_per_dimension(tmp_path, capsys):
    cfg = _base_config(tmp_path / "out")
    cfg["system"] = {"family": "toral_automorphism",
                     "params": {"m11": 2, "m12": 1, "m21": 1, "m22": 1}}
    cfg["partition"] = {"cells_per_axis": 8, "samples_per_cell": 3}
    cfg["analyses"] = ["convergence"]
    del cfg["options"]["convergence_probe"]
    code = cli.main(["run", _write_config(tmp_path, cfg)])
    assert code == 0, capsys.readouterr().err
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["config"]["options"]["convergence_probe"] == [0.3, 0.3]


@pytest.mark.parametrize("section", ["horizons", "tolerances", "banks", "options"])
@pytest.mark.parametrize("value", [5, [["max_period", 2]]], ids=["number", "pairs"])
def test_rejects_section_not_an_object(tmp_path, capsys, section, value):
    cfg = _base_config(tmp_path)
    cfg[section] = value
    _expect_config_error(tmp_path, capsys, cfg,
                         "config field %s must be an object" % section)


@pytest.mark.parametrize("value", ["6", None, True, 1, 2.5])
def test_rejects_bad_tameness_k_max(tmp_path, capsys, value):
    ## the type is checked before the value is compared
    cfg = _base_config(tmp_path)
    cfg["options"]["tameness_k_max"] = value
    _expect_config_error(tmp_path, capsys, cfg, "config field options.tameness_k_max")


def test_rejects_tameness_k_max_above_cap(tmp_path, capsys, monkeypatch):
    ## a K past the sign-pattern cap is a config error, found before any
    ## analysis runs
    def never(*args, **kwargs):
        raise AssertionError("an analysis ran")

    monkeypatch.setattr(cli, "run_analyses", never)
    cfg = _base_config(tmp_path / "out")
    cfg["options"]["tameness_k_max"] = tame.MAX_CANCELLATION_TERMS + 1
    _expect_config_error(tmp_path, capsys, cfg, "config field options.tameness_k_max")
    cfg["options"]["tameness_k_max"] = tame.MAX_CANCELLATION_TERMS
    assert cli.validate_config(cfg)["options"]["tameness_k_max"] == 14


def test_rejects_single_schedule(tmp_path, capsys):
    cfg = _base_config(tmp_path)
    cfg["horizons"]["schedule_lengths"] = [64]
    _expect_config_error(tmp_path, capsys, cfg, "horizons.schedule_lengths")


# ---------------------------------------------------------------------------
# config properties: valid configs round-trip, single-field corruptions exit 2

CONFIG_SETTINGS = settings(max_examples=150, deadline=None)
POSITIVE_INT = st.integers(1, 1 << 20)
POSITIVE_NUMBER = st.one_of(st.integers(1, 1000), st.floats(1e-9, 1e3))
COORDINATE = st.floats(0.0, 1.0, exclude_max=True)
FAMILY_PARAMS = {
    "circle_rotation": st.fixed_dictionaries(
        {"alpha": st.one_of(st.floats(0.01, 0.99), st.sampled_from(["1/3", "2/7", "0.25"]))}),
    "doubling": st.just({}),
    "north_south": st.fixed_dictionaries({"kappa": st.floats(0.01, 0.99)}),
    "tent": st.fixed_dictionaries(
        {"slope": st.one_of(st.floats(1.01, 2.0), st.sampled_from(["3/2", "2"]))}),
    "toral_automorphism": st.sampled_from([{"m11": 2, "m12": 1, "m21": 1, "m22": 1},
                                           {"m11": 1, "m12": 1, "m21": 0, "m22": 1}]),
}
WRONG_TYPES = [None, True, False, "x"]


def _section_fields(dimension):
    probe = (st.lists(COORDINATE, min_size=2, max_size=2) if dimension == 2
             else st.one_of(COORDINATE, st.lists(COORDINATE, min_size=1, max_size=1)))
    return {
        "partition": {"samples_per_cell": st.integers(1, 5)},
        "horizons": {"orbit_n": POSITIVE_INT,
                     "schedule_lengths": st.lists(POSITIVE_INT, min_size=2, max_size=6),
                     "proximality_horizon": POSITIVE_INT, "covering_horizon": POSITIVE_INT},
        "tolerances": {"tol": POSITIVE_NUMBER, "eps": POSITIVE_NUMBER,
                       "support_threshold": st.one_of(st.just(0), st.floats(0.0, 1.0))},
        "banks": {"test_functions": POSITIVE_INT, "grid_size": POSITIVE_INT},
        "options": {"max_period": POSITIVE_INT, "proximality_points": POSITIVE_INT,
                    "tameness_k_max": st.integers(2, 14),
                    "tameness_strategy": st.sampled_from(["fixed", "adversarial"]),
                    "covering_eps": st.lists(POSITIVE_NUMBER, min_size=1, max_size=5),
                    "kernel_rounds": POSITIVE_INT, "convergence_probe": probe,
                    "limit_probe_count": POSITIVE_INT},
    }


@st.composite
def valid_configs(draw):
    ## every optional section and field may be left to its default
    family = draw(st.sampled_from(sorted(FAMILY_PARAMS)))
    dimension = 2 if family == "toral_automorphism" else 1
    ## a fresh params dict: the corruption test writes into it, and
    ## sampled_from and just hand every example the same objects
    cfg = {"schema": cli.CONFIG_SCHEMA,
           "system": {"family": family, "params": dict(draw(FAMILY_PARAMS[family]))},
           "partition": {"cells_per_axis": draw(st.integers(1, 64))},
           "analyses": draw(st.lists(st.sampled_from(cli.ANALYSES), min_size=1, max_size=8))}
    for section, fields in _section_fields(dimension).items():
        chosen = draw(st.lists(st.sampled_from(sorted(fields)), unique=True))
        if chosen or draw(st.booleans()):
            cfg.setdefault(section, {}).update({k: draw(fields[k]) for k in chosen})
    if draw(st.booleans()):
        cfg["seed"] = draw(st.integers(0, 2**31))
    if draw(st.booleans()):
        cfg["output_dir"] = draw(st.sampled_from(["out", "runs/a"]))
    return cfg


def _corruptions(family, dimension):
    ## (path, bad value) pairs: wrong types, then values out of range
    positive = WRONG_TYPES + [0, -3]
    bad_probe = [[0.3, 1.0], [0.3]] if dimension == 2 else [1.0, -0.1, [0.3, 0.4]]
    fields = {
        ("schema",): [None, True, "semicascade-config-v0"],
        ("system", "family"): [None, True, "horseshoe"],
        ("partition", "cells_per_axis"): positive + [2.5],
        ("partition", "samples_per_cell"): positive,
        ("analyses",): WRONG_TYPES + [[], ["mystery"], "measures"],
        ("horizons", "orbit_n"): positive,
        ("horizons", "schedule_lengths"): WRONG_TYPES + [[], [64], [64, 0], [64, "x"]],
        ("horizons", "proximality_horizon"): positive,
        ("horizons", "covering_horizon"): positive,
        ("tolerances", "tol"): WRONG_TYPES + [0, -1.0, float("inf"), float("nan")],
        ("tolerances", "eps"): WRONG_TYPES + [0, -1.0],
        ("tolerances", "support_threshold"): WRONG_TYPES + [-1e-3, float("inf"),
                                                            float("nan")],
        ("banks", "test_functions"): positive,
        ("banks", "grid_size"): positive,
        ("options", "max_period"): positive,
        ("options", "proximality_points"): positive,
        ("options", "tameness_k_max"): WRONG_TYPES + ["6", 1, 0, 2.5, 15],
        ("options", "tameness_strategy"): WRONG_TYPES + ["random"],
        ("options", "covering_eps"): WRONG_TYPES + [[], [0.1, -0.1], [0.1, True]],
        ("options", "kernel_rounds"): positive,
        ("options", "convergence_probe"): WRONG_TYPES + bad_probe,
        ("options", "limit_probe_count"): positive,
        ("seed",): WRONG_TYPES + [-1, 1.5],
        ("output_dir",): [None, True, 5, ""],
    }
    params = {"circle_rotation": {"alpha": WRONG_TYPES + [0, 1.5, "1/0", [0.5]]},
              "north_south": {"kappa": WRONG_TYPES + ["0.5", 0, 1.0]},
              "tent": {"slope": WRONG_TYPES + [1.0, 2.5, "5/2"]},
              "toral_automorphism": {"m11": WRONG_TYPES + ["2", 2.5, 5]},
              "doubling": {}}[family]
    for key, values in params.items():
        fields[("system", "params", key)] = values
    return [(path, value) for path, values in fields.items() for value in values]


def _normal_form(config):
    return {k: v for k, v in config.items() if k != "spec"}


@CONFIG_SETTINGS
@given(valid_configs())
def test_valid_config_normal_form_validates_to_itself(raw):
    config = cli.validate_config(raw)
    normal = _normal_form(config)
    ## the normal form is what a report records; read it back as JSON
    again = cli.validate_config(json.loads(json.dumps(normal)))
    assert _normal_form(again) == normal
    assert again["spec"] == config["spec"]


@CONFIG_SETTINGS
@given(st.data())
def test_single_field_corruption_exits_2_naming_the_field(data):
    cfg = data.draw(valid_configs())
    family = cfg["system"]["family"]
    dimension = 2 if family == "toral_automorphism" else 1
    path, value = data.draw(st.sampled_from(_corruptions(family, dimension)))
    with tempfile.TemporaryDirectory() as tmp:
        cfg["output_dir"] = os.path.join(tmp, "out")
        node = cfg
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = value
        config_path = os.path.join(tmp, "config.json")
        with open(config_path, "w") as fh:
            json.dump(cfg, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["run", config_path])
    field = "system.params" if path[:2] == ("system", "params") else ".".join(path)
    assert code == 2, (path, value)
    assert "config field %s" % field in err.getvalue(), (path, value, err.getvalue())


def test_budget_exhaustion_exits_3(tmp_path, capsys):
    cfg = _base_config(tmp_path / "out")
    cfg["system"] = {"family": "toral_automorphism",
                     "params": {"m11": 2, "m12": 1, "m21": 1, "m22": 1}}
    cfg["partition"] = {"cells_per_axis": 8192, "samples_per_cell": 5}
    cfg["options"]["convergence_probe"] = [0.3, 0.4]
    code = cli.main(["run", _write_config(tmp_path, cfg)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:")


def test_measure_budget_exits_3_naming_both_counts(tmp_path, capsys):
    ## the half-turn at 2^16 cells with s = 1 has 32,768 two-cell classes:
    ## 2^31 dense measure entries, refused before any vector is made
    cfg = _base_config(tmp_path / "out")
    cfg["system"] = {"family": "circle_rotation", "params": {"alpha": "1/2"}}
    cfg["partition"] = {"cells_per_axis": 1 << 16, "samples_per_cell": 1}
    cfg["analyses"] = ["measures"]
    code = cli.main(["run", _write_config(tmp_path, cfg)])
    err = capsys.readouterr().err
    assert code == 3
    assert "32768 terminal classes x 65536 cells" in err, err
    assert "over the budget of %d" % measures.MEASURE_ENTRY_BUDGET in err, err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("matrix,verdict", [
    ((0, 1, -1, 0), "true (backend graph)"),  # A^4 = I
    ((1, 1, 0, 1), "true (backend graph)"),  # parabolic shear
    ((0, 1, 1, 0), "true (backend graph)"),  # det -1, trace 0: A^2 = I
    ((2, 1, 1, 1), "false (backend exact_periodic)"),  # the cat map
    (None, "false (backend exact_periodic)"),  # doubling
], ids=["order-4", "shear", "swap", "cat", "doubling"])
def test_exact_route_only_for_hyperbolic_maps(tmp_path, capsys, matrix, verdict):
    ## every orbit closure of a non-hyperbolic toral map is one minimal set,
    ## so periodic orbits there falsify nothing; the graph verdict stands
    cfg = _base_config(tmp_path / "out")
    cfg["analyses"] = ["unique_minimal_set"]
    if matrix is None:
        cfg["system"] = {"family": "doubling"}
    else:
        cfg["system"] = {"family": "toral_automorphism",
                         "params": dict(zip(("m11", "m12", "m21", "m22"), matrix))}
        cfg["options"]["convergence_probe"] = [0.3, 0.4]
    assert cli.main(["run", _write_config(tmp_path, cfg)]) == 0
    assert "unique minimal set per orbit closure: %s" % verdict in capsys.readouterr().out


def test_periodic_search_over_budget_exits_3_promptly(tmp_path, capsys):
    ## 2^1 + ... + 2^40 lattice points; the search is refused before it starts
    cfg = _base_config(tmp_path / "out")
    cfg["system"] = {"family": "doubling"}
    cfg["analyses"] = ["unique_minimal_set"]
    cfg["options"]["max_period"] = 40
    start = time.perf_counter()
    code = cli.main(["run", _write_config(tmp_path, cfg)])
    elapsed = time.perf_counter() - start
    assert code == 3
    assert "over the budget of %d" % systems.PERIODIC_LATTICE_BUDGET in capsys.readouterr().err
    assert elapsed < 10.0


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# systems catalog


def test_systems_subcommand(capsys):
    assert cli.main(["systems"]) == 0
    catalog = json.loads(capsys.readouterr().out)
    assert [entry["family"] for entry in catalog] == list(systems.FAMILIES)


def test_systems_subcommand_prints_the_pinned_catalog(capsys):
    ## the catalog's bytes are pinned; its keys, order and texts are public
    pinned = os.path.join(os.path.dirname(__file__), "data", "systems_catalog.json")
    assert cli.main(["systems"]) == 0
    with open(pinned, "rb") as fh:
        assert capsys.readouterr().out.encode() == fh.read()


def test_system_params_checked_in_table_order(tmp_path, capsys):
    ## each parameter's type is checked before the next one's presence:
    ## a bad m11 is named although m12 is missing
    cfg = _base_config(tmp_path / "out")
    cfg["system"] = {"family": "toral_automorphism",
                     "params": {"m11": "x", "m21": 1, "m22": 1}}
    _expect_config_error(tmp_path, capsys, cfg,
                         "config field system.params.m11 must be an integer")


CATALOG_PARAMS = {"circle_rotation": {"alpha": "1/3"}, "doubling": {},
                  "north_south": {"kappa": 0.5}, "tent": {"slope": "3/2"},
                  "toral_automorphism": {"m11": 2, "m12": 1, "m21": 1, "m22": 1}}


def test_catalog_params_are_the_config_keys():
    ## the catalog's param names, each given a value, are a valid config; every
    ## one is required, and no other key is accepted
    def validate(params):
        cli.validate_config({"schema": cli.CONFIG_SCHEMA, "partition": {"cells_per_axis": 4},
                             "analyses": ["measures"],
                             "system": {"family": entry["family"], "params": params}})

    for entry in systems.systems_catalog():
        params = CATALOG_PARAMS[entry["family"]]
        assert set(params) == set(entry["params"])
        validate(params)
        for key in params:
            with pytest.raises(cli.ConfigError, match="system.params.%s is required" % key):
                validate({k: v for k, v in params.items() if k != key})
        with pytest.raises(cli.ConfigError, match="is not recognized"):
            validate(dict(params, matrix=0))


def _module_entry(*args, env=None):
    ## the child imports the same package as this process, installed or not
    package_root = os.path.dirname(os.path.dirname(semicascade.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "semicascade", *args],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path, **(env or {})))


def _without_timestamp(report_bytes):
    stripped, count = re.subn(rb'\n  "timestamp": "[^"]*",', b"", report_bytes)
    assert count == 1
    return stripped


def test_module_entry_point(finished_run, tmp_path):
    ## `python -m semicascade` writes what an in-process cli.main writes, byte
    ## for byte but for the timestamp, and keeps its exit codes
    proc = _module_entry("systems")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)
    run_dir, out_dir, _, _ = finished_run
    child_out = tmp_path / "out"
    proc = _module_entry("run", str(run_dir / "config.json"),
                         env={cli.OUTPUT_DIR_ENV: str(child_out)})
    assert proc.returncode == 0, proc.stderr
    names = sorted(p.name for p in out_dir.iterdir())
    assert sorted(p.name for p in child_out.iterdir()) == names
    for name in names:
        ours, theirs = (out_dir / name).read_bytes(), (child_out / name).read_bytes()
        if name == "report.json":
            ours, theirs = _without_timestamp(ours), _without_timestamp(theirs)
        assert theirs == ours, name
    bad = dict(_base_config(tmp_path / "bad"), seed=-1)
    proc = _module_entry("run", _write_config(tmp_path, bad, "bad.json"))
    assert proc.returncode == 2
    assert "seed" in proc.stderr
    assert not (tmp_path / "bad").exists()


def test_process_entry_freezes_after_import_before_main(monkeypatch):
    ## run() freezes the heap once, with the CLI, numpy and scipy loaded and
    ## before main starts, and returns main's exit code
    from semicascade import __main__ as entry

    events = []
    real_import = builtins.__import__

    def traced_import(name, globals=None, locals=None, fromlist=(), level=0):
        if globals is not None and globals.get("__name__") == entry.__name__:
            events.append(("import", name))
        return real_import(name, globals, locals, fromlist, level)

    def freeze():
        loaded = ("semicascade.cli", "numpy", "scipy.sparse")
        events.append(("freeze", all(name in sys.modules for name in loaded)))

    def main():
        events.append(("main", None))
        return 7

    monkeypatch.setattr(builtins, "__import__", traced_import)
    monkeypatch.setattr(gc, "freeze", freeze)
    monkeypatch.setattr(cli, "main", main)
    assert entry.run() == 7
    assert events == [("import", "cli"), ("freeze", True), ("main", None)]


def test_in_process_main_leaves_the_collector_alone(capsys):
    frozen, enabled = gc.get_freeze_count(), gc.isenabled()
    assert cli.main(["systems"]) == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)


# ---------------------------------------------------------------------------
# plotdata


@pytest.mark.parametrize("analysis,header", [
    ("convergence", "n,defect"),
    ("tameness", "K,defect"),
    ("covering", "horizon,epsilon,count"),
    ("measures", "measure,class_id,index"),
    ("limit_measures", "probe,ergodic,mass_in_class"),
    ("proximality", "defect,n_two_step_triples,n_violations"),
    ("unique_minimal_set", "verdict,graph_verdict,backend"),
    ("kernel_projection", "residual_vq,residual_idem"),
])
def test_plotdata_per_analysis(finished_run, tmp_path, analysis, header):
    _, out_dir, _, _ = finished_run
    code = cli.main(["plotdata", str(out_dir / "report.json"), analysis,
                     "--output-dir", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / ("plot_%s.csv" % analysis)).read_text().splitlines()
    assert lines[0] == header
    assert len(lines) >= 2


@pytest.mark.parametrize("side_table,analysis", [
    ("convergence_defects.csv", "convergence"),
    ("tameness.csv", "tameness"),
    ("covering.csv", "covering"),
])
def test_plotdata_matches_run_side_table(finished_run, tmp_path, side_table, analysis):
    ## run writes these tables from the entry it reports, plotdata from the
    ## entry it reads back: one builder, the same bytes
    _, out_dir, _, _ = finished_run
    cli.main(["plotdata", str(out_dir / "report.json"), analysis,
              "--output-dir", str(tmp_path)])
    plotted = (tmp_path / ("plot_%s.csv" % analysis)).read_bytes()
    assert plotted == (out_dir / side_table).read_bytes()


def test_plotdata_tameness_sorted_numerically(finished_run, tmp_path):
    _, out_dir, _, report = finished_run
    cli.main(["plotdata", str(out_dir / "report.json"), "tameness",
              "--output-dir", str(tmp_path)])
    lines = (tmp_path / "plot_tameness.csv").read_text().splitlines()[1:]
    ks = [int(ln.split(",")[0]) for ln in lines]
    assert ks == sorted(ks)
    assert ks == sorted(int(k) for k in report["results"]["tameness"]["defect_per_k"])


def test_plotdata_missing_analysis(finished_run, tmp_path, capsys):
    _, out_dir, cfg, _ = finished_run
    code = cli.main(["plotdata", str(out_dir / "report.json"), "convergence",
                     "--output-dir", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    bare = dict(_base_config(tmp_path / "o2"), analyses=["measures"])
    cfgpath = _write_config(tmp_path, bare, "bare.json")
    assert cli.main(["run", cfgpath]) == 0
    capsys.readouterr()
    code = cli.main(["plotdata", str(tmp_path / "o2" / "report.json"),
                     "convergence", "--output-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "not present in the report" in err


def test_plotdata_missing_report(tmp_path, capsys):
    code = cli.main(["plotdata", str(tmp_path / "nope.json"), "convergence"])
    err = capsys.readouterr().err
    assert code == 2 and "does not exist" in err


@pytest.mark.parametrize("argv,fragment", [
    (["run", "{d}"], "config file {d} "),
    (["run", "{d}/latin1.json"], "config file {d}/latin1.json"),
    (["run", "{d}/to_file.json"], "output_dir {d}/taken"),
    (["plotdata", "{d}", "covering"], "report file {d} "),
    (["plotdata", "{d}/latin1.json", "covering"], "report file {d}/latin1.json"),
    (["plotdata", "{d}/list.json", "covering"], "report file {d}/list.json"),
    (["plotdata", "{d}/empty_entry.json", "covering"], "'covering' in report file {d}/empty_entry.json"),
], ids=["run-directory", "run-not-utf8", "run-output-dir-is-a-file", "plotdata-directory",
        "plotdata-not-utf8", "plotdata-list-report", "plotdata-empty-entry"])
def test_malformed_file_input_exits_2_naming_it(tmp_path, capsys, monkeypatch, argv, fragment):
    (tmp_path / "latin1.json").write_bytes(b'{"schema": "caf\xe9"}')
    (tmp_path / "list.json").write_text("[]")
    (tmp_path / "empty_entry.json").write_text('{"results": {"covering": {}}}')
    (tmp_path / "taken").write_text("")
    _write_config(tmp_path, dict(_base_config(tmp_path / "taken"), analyses=["measures"]), "to_file.json")
    ## an unusable output_dir is refused before any analysis runs
    monkeypatch.setattr(cli, "run_analyses", lambda config: pytest.fail("the analyses ran"))
    code = cli.main([a.format(d=tmp_path) for a in argv])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error:"), err
    assert fragment.format(d=tmp_path) in err, err


def test_unwritable_side_table_leaves_no_report(tmp_path, capsys):
    ## report.json is written after every side table, so it exists only
    ## when the whole run's output does
    cfg = dict(_base_config(tmp_path / "out"), analyses=["measures", "tameness"])
    (tmp_path / "out" / "tameness.csv").mkdir(parents=True)
    code = cli.main(["run", _write_config(tmp_path, cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert "output file %s " % (tmp_path / "out" / "tameness.csv") in err, err
    assert not (tmp_path / "out" / "report.json").exists()


def test_run_traced_peak_with_many_measure_tables(tmp_path, capsys):
    ## the half-turn at 512 cells with s = 1 writes 256 measure tables of 512
    ## rows; streamed, the run's traced peak was 1.3 MB, and 13.0 MB with
    ## every row of every table held in lists
    cfg = _base_config(tmp_path / "out")
    cfg["system"] = {"family": "circle_rotation", "params": {"alpha": "1/2"}}
    cfg["partition"] = {"cells_per_axis": 512, "samples_per_cell": 1}
    cfg["analyses"] = ["measures"]
    path = _write_config(tmp_path, cfg)
    assert cli.main(["run", path]) == 0  # warm up lazy imports and caches
    tracemalloc.start()
    try:
        code = cli.main(["run", path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert len(os.listdir(tmp_path / "out")) == 257
    assert peak < 4 << 20, peak


@pytest.mark.parametrize("argv,blocked", [
    (["run", "{d}/config.json"], "out/report.json"),
    (["run", "{d}/config.json"], "out/tameness.csv"),
    (["plotdata", "{report}", "covering", "--output-dir", "{d}/out"], "out/plot_covering.csv"),
], ids=["report", "side-table", "plotdata"])
def test_output_path_that_is_a_directory_exits_2_naming_it(finished_run, tmp_path, capsys,
                                                            argv, blocked):
    _write_config(tmp_path, dict(_base_config(tmp_path / "out"), analyses=["tameness"]))
    (tmp_path / blocked).mkdir(parents=True)
    report = finished_run[1] / "report.json"
    code = cli.main([a.format(d=tmp_path, report=report) for a in argv])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error:"), err
    assert "output file %s " % (tmp_path / blocked) in err, err
