"""Skipped/kept verdicts of ``spectral_scan`` against committed digests.

For the two-reflection, three-reflection, bcl, z3 and plain models at L = 2
and L = 3, this file scans every value ``sample_fraction`` can return (511
rationals) as a probe, one at a time, and records "0" where the scan skips
the probe and "1" where it keeps it.  A sha256 of that verdict string is
compared with ``tests/data/spectral_scan_digests.json``.  Every site, every
preimage of a site under tau, every pole of tau and of the weights g^(j)
with a small numerator and denominator is in that list, so a change to the
rule that decides where B(lam) is undefined at a probe fails here.

Re-record (only when the probe domain is meant to change) with::

    PYTHONPATH=src python tests/test_spectral_scan_digests.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from nreflect.dynamics import PhaseState, spectral_scan
from nreflect.gaudin import model_from_config

DATA = Path(__file__).parent / "data" / "spectral_scan_digests.json"
VALUES = sorted({Fraction(p, q) for p in range(-20, 21) for q in range(1, 21)})
MODELS = {
    "two": {"case": "two-reflection", "params": {"a": "1", "b": "2", "c": "3"}, "z": ["1", "2", "4"]},
    "three": {"case": "three-reflection", "params": {"a": "1", "b": "3", "c": "-1", "d": "1"},
              "z": ["2", "5", "9"]},
    "bcl": {"case": "bcl", "z": ["1", "2", "4"]},
    "z3": {"case": "z3", "z": ["1", "2", "4"]},
    "plain": {"case": "plain", "z": ["1", "2", "4"]},
}


def configs() -> dict:
    return {f"{name}-L{L}": dict(config, z=config["z"][:L])
            for name, config in MODELS.items() for L in (2, 3)}


def digest(config) -> dict:
    model = model_from_config(config)
    state = PhaseState(tuple(complex(1 + j, 2 - j) / 4 for j in range(3 * model.L)))
    verdicts = []
    for index, x in enumerate(VALUES):
        try:
            (entry,) = spectral_scan(model, state, [x])
        except Exception as exc:
            return {"error": type(exc).__name__, "at": index}
        verdicts.append("0" if entry.get("skipped") else "1")
    text = "".join(verdicts)
    return {"points": len(VALUES), "skipped": text.count("0"),
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


RECORDED = json.loads(DATA.read_text()) if DATA.exists() else {}


def test_every_model_is_recorded():
    assert sorted(RECORDED) == sorted(configs())


@pytest.mark.parametrize("name", sorted(configs()))
def test_probe_domain_is_unchanged(name):
    assert digest(configs()[name]) == RECORDED[name]


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    table = {name: digest(config) for name, config in configs().items()}
    DATA.write_text(json.dumps(table, sort_keys=True, indent=1) + "\n")
    sys.stdout.write(f"recorded {len(table)} digests to {DATA}\n")
