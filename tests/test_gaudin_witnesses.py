"""The report entries of the four structural identities, witnesses included.

Every committed ``gaudin`` digest is of an exact-zero report, so none of
them pins the witness of a nonzero residual: its row, column and value.
Here ``residual_entry`` of rbb, lax, mk and trbrackets is recorded at one
fixed pair for (p, q) in {(1, 1), (2, 2), (3, 2)}, on three models, each
untampered and with the g1-sign tamper, whose residuals are nonzero.

Re-record (only when an entry is meant to change) with::

    PYTHONPATH=src python tests/test_gaudin_witnesses.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from nreflect.gaudin import GaudinModel, model_from_config, sampled_residual
from nreflect.reflection import tamper
from nreflect.reporting import residual_entry

DATA = Path(__file__).parent / "data" / "gaudin_witness_digests.json"
PAIR = (Fraction(5, 3), Fraction(-7, 2))
POWERS = ((1, 1), (2, 2), (3, 2))
SUBS = ("rbb", "lax", "mk", "trbrackets")
CONFIGS = {
    "two-L3": {"case": "two-reflection", "params": {"a": 1, "b": 2, "c": 3}, "z": [1, 2, 4]},
    "z3-L2": {"case": "z3", "z": [1, 2]},
    "three-L2": {"case": "three-reflection", "params": {"a": 1, "b": 3, "c": -1, "d": 1}, "z": [2, 5]},
}


def models() -> dict:
    """Name -> model, for every config untampered and g1-sign tampered."""
    out = {}
    for name, config in CONFIGS.items():
        model = model_from_config(config)
        out[name] = model
        out[f"{name}[g1-sign]"] = GaudinModel(sites=model.sites, case=tamper(model.case, "g1-sign"))
    return out


MODELS = models()
NAMES = [f"{sub} {name} p={p} q={q}" for name in MODELS for sub in SUBS for p, q in POWERS]


def entry(name: str) -> dict:
    sub, model, p, q = name.split()
    return residual_entry(PAIR, sampled_residual(MODELS[model], sub, *PAIR, int(p[2:]), int(q[2:])))


def digest(name: str) -> str:
    return hashlib.sha256(json.dumps(entry(name), sort_keys=True).encode()).hexdigest()


RECORDED = json.loads(DATA.read_text()) if DATA.exists() else {}


def test_every_entry_is_recorded_and_some_are_nonzero():
    assert sorted(RECORDED) == sorted(NAMES)
    statuses = [entry(name)["status"] for name in NAMES]
    assert 0 < statuses.count("nonzero") < len(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_entry_is_byte_identical(name):
    assert digest(name) == RECORDED[name]


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps({name: digest(name) for name in NAMES}, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"recorded {len(NAMES)} entries in {DATA}\n")
