"""Byte-identity of short ``simulate`` runs against committed digests.

``tests/data/simulate_digests.json`` holds the exit code and the sha256 of
the stdout and of the trajectory CSV of ``nreflect simulate`` on
two-reflection L = 6 with H_1 and H_6, two-reflection L = 16 with H_1 and
H_16, three-reflection L = 3 with H_2, bcl L = 2 with H_2 and z3 L = 3 with
H_2 from the seeded state, and two-reflection L = 6 with H_3 from a state
file whose parts include +0.0 and -0.0, over 200 RK4 steps.  The vector
field and the monitors are compiled from exact spin polynomials, and float
addition depends on the order of the summed terms, so any change to that
order (or to the exact terms) fails here; a signed zero that flips in the
state or a monitor changes the CSV's bytes.

Re-record (only when a trajectory is meant to change) with::

    PYTHONPATH=src python tests/test_simulate_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from nreflect.cli import main

DATA = Path(__file__).parent / "data" / "simulate_digests.json"
MODELS = {
    "two-L6": {"case": "two-reflection", "params": {"a": "1", "b": "2", "c": "3"},
               "z": ["1", "2", "4", "5", "7", "8"]},
    "two-L16": {"case": "two-reflection", "z": [str(1 + 3 * i) for i in range(16)]},
    "three-L3": {"case": "three-reflection", "params": {"a": "1", "b": "3", "c": "-1", "d": "1"},
                 "z": ["2", "5", "9"]},
    "bcl-L2": {"case": "bcl", "z": ["1", "2"]},
    "z3-L3": {"case": "z3", "z": ["1", "2", "4"]},
}
# [re, im] pairs, as ``simulate --state`` reads them
STATES = {
    "signed-zeros": [[0.5, -0.0], [-0.0, 1.25], [-0.0, -0.75], [1.5, 0.0], [0.0, -0.5], [-0.0, 0.0],
                     [-1.0, -0.0], [0.0, 0.75], [-0.0, -1.5], [0.25, 0.0], [-0.0, -0.25], [0.0, 2.0],
                     [-0.75, -0.0], [0.0, -1.0], [-0.0, 0.5], [1.0, 0.0], [-0.0, 0.0], [0.0, -0.0]],
}
RUNS = (("two-L6", 1, None), ("two-L6", 6, None), ("two-L16", 1, None), ("two-L16", 16, None),
        ("three-L3", 2, None), ("bcl-L2", 2, None), ("z3-L3", 2, None), ("two-L6", 3, "signed-zeros"))


def commands() -> dict:
    """Name -> (model config, Hamiltonian index, initial state or None for the seeded one)."""
    return {f"{name} H{h}" + (f" {state}" if state else ""): (MODELS[name], h, STATES.get(state))
            for name, h, state in RUNS}


def digest(config, h, state=None) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path, csv = Path(tmp) / "model.json", Path(tmp) / "run.csv"
        path.write_text(json.dumps(config))
        argv = ["simulate", "--config", str(path), "--hamiltonian", str(h), "--t", "0.05",
                "--dt", "2.5e-4", "--seed", "7", "--out", str(csv)]
        if state is not None:
            (Path(tmp) / "state.json").write_text(json.dumps(state))
            argv += ["--state", str(Path(tmp) / "state.json")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return {"exit": code, "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
                "csv_sha256": hashlib.sha256(csv.read_bytes()).hexdigest()}


RECORDED = json.loads(DATA.read_text()) if DATA.exists() else {}


def test_every_run_is_recorded():
    assert sorted(RECORDED) == sorted(commands())


@pytest.mark.parametrize("name", sorted(commands()))
def test_simulate_output_is_byte_identical(name):
    assert digest(*commands()[name]) == RECORDED[name]


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    table = {name: digest(*spec) for name, spec in commands().items()}
    DATA.write_text(json.dumps(table, sort_keys=True, indent=1) + "\n")
    sys.stdout.write(f"recorded {len(table)} digests to {DATA}\n")
