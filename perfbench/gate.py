"""Correctness gate: judge each command's outcome against this commit's
recorded results.

A command fails when it raises, exits with another code than recorded,
reports another verdict, reports another number of samples than requested,
or (for ``simulate``) shows a drift of 1e-8 or more or another number of
CSV rows.  At a seed with recorded digests its stdout bytes must also match;
``simulate`` bytes are never compared, because a legitimate change to the
integrator or logging moves the last float digits.
"""

from __future__ import annotations

import json
import os

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")
DRIFT_LIMIT = 1e-8


def load_expected(path: str = EXPECTED_PATH) -> dict:
    with open(path) as handle:
        return json.load(handle)


def digests_for(expected: dict, workload: str, seed: int, commands) -> dict:
    """{command id: digest} recorded for this workload and seed, or {}."""
    recorded = expected["workloads"][workload]
    listed = recorded["digests"].get(str(seed))
    if listed is None:
        return {}
    ids = [command.id for command in commands if command.kind != "simulate"]
    if ids != recorded["ids"]:
        raise ValueError(f"{workload}: command list differs from the one the digests were recorded for")
    return dict(zip(ids, listed))


def problems(command, outcome: dict, expect: dict, digest=None) -> list:
    """Why ``outcome`` is wrong; an empty list means the command passed."""
    found = []
    if outcome["error"] is not None:
        found.append(f"raised {outcome['error']}")
    if outcome["exit"] != expect["exit"]:
        found.append(f"exit code {outcome['exit']}, expected {expect['exit']} "
                     f"(stderr: {outcome['stderr'].strip()!r})")
    if command.kind == "report":
        if outcome["verdict"] != expect["verdict"]:
            found.append(f"verdict {outcome['verdict']!r}, expected {expect['verdict']!r}")
        if command.samples is not None and outcome["samples"] != command.samples:
            found.append(f"{outcome['samples']} samples reported, {command.samples} expected")
    if command.kind == "simulate":
        drifts = outcome["drifts"]
        if not drifts or max(drifts) >= DRIFT_LIMIT:
            found.append(f"drifts {drifts} not all below {DRIFT_LIMIT}")
        if outcome["csv_rows"] != command.csv_rows:
            found.append(f"{outcome['csv_rows']} CSV rows, expected {command.csv_rows}")
    if digest is not None and outcome["digest"] != digest:
        found.append(f"stdout digest {outcome['digest']}, recorded {digest}")
    return found


def judge(workload: str, commands, outcomes, expected: dict, digests: dict) -> list:
    """[(command id, [problems])] for every failed command of one pass."""
    expects = expected["workloads"][workload]["expect"]
    failed = []
    for command, outcome in zip(commands, outcomes):
        if outcome["id"] != command.id:
            raise ValueError(f"outcome {outcome['id']!r} does not belong to command {command.id!r}")
        found = problems(command, outcome, expects[command.id], digests.get(command.id))
        if found:
            failed.append((command.id, found))
    return failed
