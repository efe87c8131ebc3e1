"""Every metric of every workload in one table.

    python3 perfbench/report.py [--seed N]

For each workload, at the ``run_seconds`` of ``BENCHMARK.json``: one
untraced run (the end-to-end metrics) and one traced run (the per-layer
metrics and ``trace_overhead``), each printed with its unit and sample
count, then whether the gate passed every command.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        seconds = json.load(handle)["run_seconds"]
    ok = True
    for workload in workloads.WORKLOADS:
        for traced in (False, True):
            out = run.measure(workload, args.seed, seconds, traced)
            result = out["result"]
            for line in out["lines"]:
                print(line)
            print(f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}\n",
                  flush=True)
            ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
