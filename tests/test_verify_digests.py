"""Byte-identity of every ``verify`` report against committed digests.

``tests/data/verify_digests.json`` holds the exit code and the sha256 of the
stdout of ``nreflect verify <subject>`` for every subject on every catalog
label (plus the base-r ``cybe`` variants and the ``g1-sign`` tamper), at a
fixed seed and a small sample count.  Any change to the exact arithmetic,
the sampler or the rendering that moves a single byte of a report fails here.

The ``linear-k-N3-*`` labels, whose data lie in Q(zeta_3), are also recorded
away from their catalog defaults, at theta = 5/7 and at theta = -3 (seed 13,
6 samples, where the first draw is a pole lam = nu); ``symmetry`` and the
tamper pin nonzero Q(zeta_3) witnesses.  At theta = -3, det k = theta^3 +
nu^3 vanishes at nu = 3, which seed 536 draws: there ``nre``, ``compact``,
``rbar-cybe`` and ``nunitarity`` pin the sampler's redraw on a singular
k^(j)(nu).

Re-record (only when a report is meant to change) with::

    PYTHONPATH=src python tests/test_verify_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from nreflect.cli import VERIFY_SUBJECTS, main
from nreflect.reflection import CATALOG

DATA = Path(__file__).parent / "data" / "verify_digests.json"
SEED = "7"
SAMPLES = "2"
CYCLOTOMIC = {  # name suffix -> the verify arguments before --case
    "nre": ["nre"], "compact": ["compact"], "symmetry": ["symmetry"],
    "symmetry omega=z^2": ["symmetry", "--omega", "z^2"], "nunitarity": ["nunitarity"],
    "rbar-cybe": ["rbar-cybe"], "nre tamper": ["nre", "--tamper", "g1-sign"],
}


def commands() -> dict:
    """Name -> argv of every recorded command."""
    base = ["--seed", SEED, "--samples", SAMPLES]
    cmds = {
        "cybe rational n=2": ["verify", "cybe", "--r", "rational", "--n", "2", *base],
        "cybe rational n=3": ["verify", "cybe", "--r", "rational", "--n", "3", *base],
        "cybe trig": ["verify", "cybe", "--r", "trig", *base],
    }
    for label in sorted(CATALOG):
        for subject in VERIFY_SUBJECTS:
            if subject != "cybe":
                cmds[f"{subject} {label}"] = ["verify", subject, "--case", label, *base]
        cmds[f"nre {label} tamper"] = ["verify", "nre", "--case", label, "--tamper", "g1-sign", *base]
    for label in sorted(CATALOG):
        for theta in ("5/7", "-3") if label.startswith("linear-k-N3-") else ():
            for name, subject in CYCLOTOMIC.items():
                cmds[f"{name} {label} theta={theta}"] = [
                    "verify", *subject, "--case", label, "--params", f"theta={theta}", "--seed", "13", "--samples", "6"]
            for subject in ("nre", "compact", "rbar-cybe", "nunitarity") if theta == "-3" else ():
                cmds[f"{subject} {label} theta=-3 singular"] = [
                    "verify", subject, "--case", label, "--params", "theta=-3", "--seed", "536", "--samples", "6"]
    return cmds


def digest(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"exit": code, "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


RECORDED = json.loads(DATA.read_text()) if DATA.exists() else {}


def test_every_command_is_recorded():
    assert sorted(RECORDED) == sorted(commands())


@pytest.mark.parametrize("name", sorted(commands()))
def test_verify_report_is_byte_identical(name):
    assert digest(commands()[name]) == RECORDED[name]


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    table = {name: digest(argv) for name, argv in commands().items()}
    DATA.write_text(json.dumps(table, sort_keys=True, indent=1) + "\n")
    sys.stdout.write(f"recorded {len(table)} digests to {DATA}\n")
