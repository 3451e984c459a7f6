"""`semicascade run` output pinned byte for byte on one config per family.

Each config runs all eight analyses at 16 cells per axis. The pinned files
in tests/data/run_golden/<name>/ are the report (timestamp taken out), the
printed stdout and every side CSV. A change that means to alter these
outputs regenerates them with

    PYTHONPATH=src python tests/test_run_golden.py

and says why in its description.
"""

import contextlib
import io
import json
import os
import pathlib
import re
import tempfile

import pytest

from semicascade import cli, systems

GOLDEN_DIR = pathlib.Path(__file__).parent / "data" / "run_golden"

SYSTEMS = {
    "circle_rotation": ({"family": "circle_rotation", "params": {"alpha": systems.GOLDEN}}, 3),
    "half_turn": ({"family": "circle_rotation", "params": {"alpha": "1/2"}}, 1),
    "doubling": ({"family": "doubling", "params": {}}, 3),
    "north_south": ({"family": "north_south", "params": {"kappa": 0.5}}, 3),
    "tent": ({"family": "tent", "params": {"slope": 1.7}}, 3),
    "toral_automorphism": ({"family": "toral_automorphism",
                            "params": {"m11": 2, "m12": 1, "m21": 1, "m22": 1}}, 3),
}


def golden_config(name):
    system, samples = SYSTEMS[name]
    return {
        "schema": cli.CONFIG_SCHEMA,
        "system": system,
        "partition": {"cells_per_axis": 16, "samples_per_cell": samples},
        ## listed backwards: the verdict lines still come in ANALYSES order
        "analyses": list(reversed(cli.ANALYSES)),
        "horizons": {"schedule_lengths": [64, 128, 256], "covering_horizon": 64,
                     "proximality_horizon": 256, "orbit_n": 256},
        "options": {"proximality_points": 16, "tameness_k_max": 4},
        "output_dir": "out",
    }


def run_outputs(name, work_dir):
    """{file name: bytes} of one in-process run, with the printed stdout."""
    (work_dir / "config.json").write_text(json.dumps(golden_config(name)))
    stdout, cwd = io.StringIO(), os.getcwd()
    os.chdir(work_dir)
    try:
        with contextlib.redirect_stdout(stdout):
            assert cli.main(["run", "config.json"]) == 0
    finally:
        os.chdir(cwd)
    outputs = {"stdout.txt": stdout.getvalue().encode()}
    for path in sorted((work_dir / "out").iterdir()):
        outputs[path.name] = path.read_bytes()
    outputs["report.json"], count = re.subn(rb'\n  "timestamp": "[^"]*",', b"",
                                            outputs["report.json"])
    assert count == 1
    return outputs


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_run_outputs_match_the_pinned_files(name, tmp_path, monkeypatch):
    monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
    outputs = run_outputs(name, tmp_path)
    pinned = {p.name: p.read_bytes() for p in (GOLDEN_DIR / name).iterdir()}
    assert sorted(outputs) == sorted(pinned)
    for file_name, data in pinned.items():
        assert outputs[file_name] == data, file_name


def _regenerate():
    os.environ.pop(cli.OUTPUT_DIR_ENV, None)
    for name in sorted(SYSTEMS):
        with tempfile.TemporaryDirectory() as tmp:
            outputs = run_outputs(name, pathlib.Path(tmp))
        target = GOLDEN_DIR / name
        target.mkdir(parents=True, exist_ok=True)
        for old in target.iterdir():
            old.unlink()
        for file_name, data in outputs.items():
            (target / file_name).write_bytes(data)
        print("%s: %d files" % (name, len(outputs)))


if __name__ == "__main__":
    _regenerate()
