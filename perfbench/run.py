"""nreflect benchmark: time to certificate on four seeded CLI workloads.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass of a workload runs its fixed
command list in a fresh worker process (``worker.py``) that drives
``nreflect.cli.main`` in-process, one command after the other.  Passes
repeat while another one still fits in ``--seconds``; every reported time
is the median over passes.  Every command's output goes through the
correctness gate (``gate.py``).

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (``layers.py``) and the tracing
overhead.

Before the result, stdout carries a machine and load block, one line per
metric with its unit and sample count, and one line per failed command.
The last line is the result: a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
sys.path.insert(0, HERE)

import gate  # noqa: E402
import layers  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"wall_s": "s", "cmd_s_p50": "s", "slowest_cmd_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
MIN_SETUPS = 15
TIME_LIMIT_S = 170.0  # a run must end within 180 s


class RunFailed(Exception):
    """A worker process did not deliver a result."""


def machine_block() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": model, "load1_start": os.getloadavg()[0]}


class Runner:
    """Spawns worker processes for one workload and seed."""

    def __init__(self, workload: str, seed: int, workdir: str, deadline: float):
        self.workload, self.seed = workload, seed
        self.workdir = workdir
        self.deadline = deadline
        # nreflect imports numpy but does no heavy linear algebra with it:
        # keep numpy's thread pool to the one worker thread
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

    def spawn(self, *extra) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 1:
            raise RunFailed("time limit reached")
        spawned = time.monotonic()
        argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", self.workload,
                "--seed", str(self.seed), "--workdir", self.workdir,
                "--spawned", repr(spawned), *extra]
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise RunFailed("worker exceeded the time limit") from exc
        if proc.returncode != 0 or not proc.stdout.strip():
            raise RunFailed(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(runner: Runner, seconds: float, traced: bool) -> tuple:
    """(untraced passes, traced passes, set-up samples).

    A new pass (for ``traced``, a new untraced-plus-traced pair) starts only
    if one more of the same length still ends within ``seconds``; there is
    always at least one."""
    started = time.monotonic()
    plain, tracing, setup_only = [], [], []
    while True:
        begun = time.monotonic()
        plain.append(runner.spawn())
        if traced:
            path = os.path.join(runner.workdir, f"spans-{len(tracing)}")
            result = runner.spawn("--trace-out", path)
            result["trace"] = path
            tracing.append(result)
        now = time.monotonic()
        if now - started + (now - begun) > seconds:
            break
    if not traced:
        while len(plain) + len(setup_only) < MIN_SETUPS:
            setup_only.append(runner.spawn("--setup-only"))
    setups = [r["setup_s"] * r["setup_speed"] for r in plain + setup_only]
    return plain, tracing, setups


def scaled_times(result: dict) -> list:
    """Command wall times of one pass at reference CPU speed."""
    return [o["seconds"] * o["speed"] for o in result["outcomes"]]


def end_to_end(workload: str, commands, plain: list, setups: list) -> dict:
    heaviest = [c.id for c in commands].index(workloads.HEAVIEST[workload])
    times = [scaled_times(p) for p in plain]
    return {
        "wall_s": statistics.median(sum(t) for t in times),
        "cmd_s_p50": statistics.median(statistics.median(t) for t in times),
        "slowest_cmd_s": statistics.median(t[heaviest] for t in times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["rss_kb"] / 1024 for p in plain),
    }


def per_layer(plain: list, tracing: list) -> tuple:
    """(metrics, span invariant violations) of the traced passes."""
    values, broken = [], []
    for result in tracing:
        spans = layers.Spans(result["trace"])
        broken += spans.check()
        values.append(layers.metrics(spans))
    out = {name: statistics.median(v[name] for v in values) for name in values[0]}
    untraced = statistics.median(sum(scaled_times(p)) for p in plain)
    out["trace_overhead"] = out["traced_wall_s"] / untraced - 1
    return out, broken


def measure(workload: str, seed: int, seconds: float, traced: bool,
            expected: dict | None = None) -> dict:
    """Run one workload and return the result object plus report lines."""
    expected = expected if expected is not None else gate.load_expected()
    machine = machine_block()
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    try:
        runner = Runner(workload, seed, workdir, time.monotonic() + TIME_LIMIT_S)
        commands = workloads.build(workload, seed, "full", workdir)
        plain, tracing, setups = run_passes(runner, seconds, traced)
        digests = gate.digests_for(expected, workload, seed, commands)
        failures = []
        for result in plain + tracing:
            failures += gate.judge(workload, commands, result["outcomes"], expected, digests)
        if traced:
            metrics, broken = per_layer(plain, tracing)
            units = layers.UNITS
        else:
            metrics, broken = end_to_end(workload, commands, plain, setups), []
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    machine["load1_end"] = os.getloadavg()[0]
    machine["raw_pass_wall_s"] = statistics.median(sum(o["seconds"] for o in p["outcomes"]) for p in plain)
    machine["speed_factor"] = statistics.median(o["speed"] for p in plain for o in p["outcomes"])
    attempted = sum(len(r["outcomes"]) for r in plain + tracing)
    lines = [f"# nreflect benchmark: workload={workload} seed={seed} "
             f"trace={int(traced)} passes={len(plain)} untraced + {len(tracing)} traced, "
             f"{len(commands)} commands per pass, stdout digests {'checked' if digests else 'none recorded for this seed'}",
             "machine " + json.dumps(machine, sort_keys=True)]
    lines += [f"{name:28s} {value:>14.6g} {units[name]:6s} {_sample_note(name, traced, plain, tracing, setups, commands)}"
              for name, value in metrics.items()]
    lines += [f"FAILED {cid}: {'; '.join(found)}" for cid, found in failures]
    lines += [f"TRACE INVARIANT BROKEN: {message}" for message in broken]
    result = {"correct": not failures and not broken, "attempted": attempted,
              "failed": len(failures),
              "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}}
    return {"lines": lines, "result": result}


def _sample_note(name, traced, plain, tracing, setups, commands) -> str:
    if traced:
        return f"(median of {len(tracing)} traced passes)"
    if name == "setup_s":
        return f"(median of {len(setups)} set-ups)"
    if name == "cmd_s_p50":
        return f"(median over {len(commands)} commands, median of {len(plain)} passes)"
    return f"(median of {len(plain)} passes)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "nreflect", "cli.py")):
        sys.stderr.write(f"error: no nreflect sources under {os.path.join(ROOT, 'src')}\n")
        return 2
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunFailed as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    for line in out["lines"]:
        print(line)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
