"""Record the expected results the correctness gate compares against.

    python3 perfbench/record.py --seeds 0-10

Runs one full-scale pass of every workload at each seed, then writes
``expected.json``: per command its exit code and verdict, and per seed the
digest of every command's stdout (``simulate`` excluded).  The verdicts must
agree across all seeds; expected failures (a tampered case, a candidate that
does not solve the identity) are recorded as such.  Run it only at a commit
whose outputs are the reference.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record(seeds: list) -> dict:
    """Record every workload at every seed in ``seeds``."""
    expected = {"reference_seeds": seeds, "workloads": {}}
    os.makedirs(run.WORK, exist_ok=True)
    for workload in workloads.WORKLOADS:
        expect, digests, ids = {}, {}, None
        for seed in seeds:
            workdir = tempfile.mkdtemp(prefix=f"record-{workload}-", dir=run.WORK)
            try:
                runner = run.Runner(workload, seed, workdir, time.monotonic() + 3600)
                commands = workloads.build(workload, seed, "full", workdir)
                outcomes = runner.spawn()["outcomes"]
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            for command, outcome in zip(commands, outcomes):
                if outcome["error"] is not None:
                    raise RuntimeError(f"{command.id} raised {outcome['error']} at seed {seed}")
                seen = {"exit": outcome["exit"], "verdict": outcome.get("verdict")}
                if expect.setdefault(command.id, seen) != seen:
                    raise RuntimeError(f"{command.id}: {seen} at seed {seed}, {expect[command.id]} before")
            exact = [(c.id, o["digest"]) for c, o in zip(commands, outcomes) if c.kind != "simulate"]
            ids = [cid for cid, _ in exact]
            digests[str(seed)] = [digest for _, digest in exact]
            print(f"{workload} seed {seed}: {len(outcomes)} commands", flush=True)
        expected["workloads"][workload] = {"expect": expect, "ids": ids, "digests": digests}
    with open(gate.EXPECTED_PATH, "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return expected


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1", help="a seed or an inclusive range like 0-10")
    args = parser.parse_args(argv)
    record(seed_range(args.seeds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
