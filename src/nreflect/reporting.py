"""Deterministic JSON verification reports.

A report records the case, the seed, every sample point and a per-sample
status: "exact-zero", or "nonzero" with a witness entry.  Identical inputs
produce byte-identical output (sorted keys, exact scalar rendering, no
timestamps).
"""

from __future__ import annotations

import json

from .linalg import Matrix
from .scalars import scalar_to_str


def render_sample(point) -> list:
    """Exact scalars as :func:`scalar_to_str` renders them, labels such as
    "H_1" as they are."""
    return [_render(x) for x in point]


def residual_entry(point, residual) -> dict:
    entry = {"sample": render_sample(point)}
    if isinstance(residual, Matrix):
        witness = residual.first_nonzero()
        if witness is None:
            entry["status"] = "exact-zero"
        else:
            i, j, val = witness
            entry["status"] = "nonzero"
            entry["witness"] = {"row": i, "col": j, "value": _render(val)}
    else:
        if not residual:
            entry["status"] = "exact-zero"
        else:
            entry["status"] = "nonzero"
            entry["witness"] = {"value": _render(residual)}
    return entry


def _render(value):
    try:
        return scalar_to_str(value)
    except (TypeError, ValueError):
        return str(value)


def build_report(subject: str, case: str, seed: int, entries: list, extra: dict | None = None) -> dict:
    """A report passes only if it has at least one entry and every entry
    passed; with no entries it fails and says why."""
    passed = bool(entries) and all(e.get("status", "pass") in ("exact-zero", "pass") for e in entries)
    report = {
        "subject": subject,
        "case": case,
        "seed": seed,
        "samples": len(entries),
        "results": entries,
        "verdict": "pass" if passed else "fail",
    }
    if not entries:
        report["reason"] = "nothing was checked"
    if extra:
        report.update(extra)
    return report


def dumps(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"
