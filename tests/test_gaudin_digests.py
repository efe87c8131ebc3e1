"""Byte-identity of every ``gaudin`` report against committed digests.

``tests/data/gaudin_digests.json`` holds the exit code and the sha256 of the
stdout of ``nreflect gaudin <subcommand>`` for all seven subcommands on the
two-reflection, three-reflection, bcl, z3 and plain models at L = 2, 3, 4,
and on two larger models (two-reflection at L = 16, z3 at L = 8), at a fixed
seed and a small sample count.  Any change to the residue
extraction, the generating matrix B, the sampler or the rendering that moves
a single byte of a report fails here.

Re-record (only when a report is meant to change) with::

    PYTHONPATH=src python tests/test_gaudin_digests.py
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

from nreflect.cli import GAUDIN_SUBCOMMANDS, main

DATA = Path(__file__).parent / "data" / "gaudin_digests.json"
SEED = "7"
SAMPLES = "2"
SITES = ["1", "2", "4", "5"]
MODELS = {
    "two": {"case": "two-reflection", "params": {"a": "1", "b": "2", "c": "3"}, "z": SITES},
    "three": {"case": "three-reflection", "params": {"a": "1", "b": "3", "c": "-1", "d": "1"},
              "z": ["2", "5", "9", "13"]},
    "bcl": {"case": "bcl", "z": SITES},
    "z3": {"case": "z3", "z": SITES},
    "plain": {"case": "plain", "z": SITES},
}
LARGE = {
    "two-L16": {"case": "two-reflection", "z": [str(1 + 3 * i) for i in range(16)]},
    "z3-L8": {"case": "z3", "z": [str(1 + 3 * i) for i in range(8)]},
}


def commands() -> dict:
    """Name -> (model config, argv after ``--config <path>``)."""
    models = {f"{name}-L{L}": dict(config, z=config["z"][:L])
              for name, config in MODELS.items() for L in (2, 3, 4)}
    models.update(LARGE)
    return {f"{sub} {name}": (config, ["gaudin", sub, "--seed", SEED, "--samples", SAMPLES])
            for name, config in models.items() for sub in GAUDIN_SUBCOMMANDS}


def digest(config, argv) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(json.dumps(config))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--config", str(path)])
    return {"exit": code, "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


RECORDED = json.loads(DATA.read_text()) if DATA.exists() else {}


def test_every_command_is_recorded():
    assert sorted(RECORDED) == sorted(commands())


@pytest.mark.parametrize("name", sorted(commands()))
def test_gaudin_report_is_byte_identical(name):
    assert digest(*commands()[name]) == RECORDED[name]


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    table = {name: digest(*spec) for name, spec in commands().items()}
    DATA.write_text(json.dumps(table, sort_keys=True, indent=1) + "\n")
    sys.stdout.write(f"recorded {len(table)} digests to {DATA}\n")
