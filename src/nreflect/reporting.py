"""Deterministic JSON verification reports.

A report records the case, the seed, every sample point and a per-sample
status: "exact-zero", or "nonzero" with a witness entry.  Every value, an
exact scalar, a spin polynomial or a label such as "H_1", is written as
``str`` renders it; for a ``Cyclotomic`` that is the form its ``__str__``
owns and ``scalar_from_str`` parses.  Identical inputs produce
byte-identical output (sorted keys, exact values, no timestamps).
"""

from __future__ import annotations

import json


def residual_entry(point, residual) -> dict:
    """A matrix (``Matrix`` or ``SpinRows``) is witnessed by its
    ``first_nonzero`` entry, a scalar or a spin polynomial by its value."""
    entry = {"sample": [str(x) for x in point], "status": "exact-zero"}
    if hasattr(residual, "first_nonzero"):
        witness = residual.first_nonzero()
        if witness is not None:
            i, j, val = witness
            entry.update(status="nonzero", witness={"row": i, "col": j, "value": str(val)})
    elif residual:
        entry.update(status="nonzero", witness={"value": str(residual)})
    return entry


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
