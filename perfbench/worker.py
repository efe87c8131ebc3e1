"""One pass of a workload in a fresh interpreter.

Imports ``nreflect`` from the checkout's ``src``, builds the workload's
inputs, then drives ``nreflect.cli.main`` in-process as a closed loop: one
command at a time, each started when the previous one has finished.  Prints
one JSON object on stdout: set-up time, peak RSS, and per command its wall
time and what the gate needs to judge its output.

Every command and the set-up are timed together with the CPU speed the
``SpeedSampler`` saw during them, so that ``run.py`` can report times at a
reference speed.

    python3 perfbench/worker.py --workload W --seed S --workdir DIR
        --spawned T [--setup-only] [--trace-out PATH]
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def import_cli():
    """``nreflect.cli`` from this checkout's ``src``, never an installed copy."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import nreflect.cli

    if not os.path.abspath(nreflect.cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"nreflect was imported from {nreflect.cli.__file__}, not from {SRC}")
    return nreflect.cli


# The probe loop's time on the reference machine when no other tenant slows
# it down (2 cores, Python 3.11.7; about the fastest decile of 2000 timings).
REFERENCE_PROBE_S = 0.00056
PROBE_INTERVAL_S = 0.02


def _probe_loop():
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
    return total


class SpeedSampler:
    """Tracks how fast this CPU runs Python right now.

    On a shared host the same work takes from 1x to 2x as long within
    seconds.  The sampler times a fixed Fraction-arithmetic loop three times
    between measured intervals and, from a SIGALRM timer, every 20 ms inside
    them.  ``stop()`` returns the interval's own time (the probes' time taken
    out) and its speed factor: the mean of reference time over probe time,
    which turns a wall time into the time at reference speed.  In a traced
    pass each in-interval probe is also recorded as a ``probe`` span.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples: list = []
        self.inside = 0.0
        self.previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._between()

    def _probe(self) -> tuple:
        start = time.perf_counter()
        _probe_loop()
        end = time.perf_counter()
        self.samples.append(end - start)
        return start, end

    def _between(self):
        for _ in range(3):
            self._probe()

    def _on_alarm(self, signum, frame):
        start, end = self._probe()
        self.inside += end - start
        if self.tracer is not None:
            self.tracer.record("probe", start, end)

    def start(self) -> float:
        """Begin a measured interval; returns its ``perf_counter`` start."""
        self.samples = self.samples[-3:]
        self.inside = 0.0
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return time.perf_counter()

    def stop(self, started: float) -> tuple:
        """(own seconds, speed factor) of the interval begun at ``started``."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        own = time.perf_counter() - started - self.inside
        self._between()
        factor = sum(REFERENCE_PROBE_S / p for p in self.samples) / len(self.samples)
        return own, factor

    def close(self):
        signal.signal(signal.SIGALRM, self.previous)


def run_command(main, command, sampler: SpeedSampler, tracer=None, index=-1) -> dict:
    """Run one command; a command that raises is recorded, not propagated."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    if tracer is not None:
        tracer.command = index
    started = sampler.start()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(command.argv))
    except Exception as exc:  # the pass goes on; the gate counts the failure
        error = f"{type(exc).__name__}: {exc}"
    seconds, speed = sampler.stop(started)
    outcome = describe(command, code, out.getvalue(), err.getvalue(), error, seconds)
    outcome["speed"] = speed
    return outcome


def describe(command, code, stdout, stderr, error, seconds) -> dict:
    """The facts about one finished command that the gate checks."""
    outcome = {"id": command.id, "seconds": seconds, "exit": code, "error": error,
               "digest": hashlib.sha256(stdout.encode()).hexdigest()[:16],
               "stderr": stderr[-300:]}
    if command.kind == "report":
        try:
            report = json.loads(stdout)
            outcome["verdict"] = report.get("verdict")
            outcome["samples"] = report.get("samples")
        except ValueError:
            outcome["verdict"] = outcome["samples"] = None
    elif command.kind == "simulate":
        outcome["drifts"] = [float(line.rsplit(": ", 1)[1]) for line in stdout.splitlines()
                             if line.startswith("drift ")]
        try:
            with open(command.csv) as handle:
                outcome["csv_rows"] = sum(1 for _ in handle)
            os.remove(command.csv)
        except OSError:
            outcome["csv_rows"] = None
    return outcome


def peak_rss_kb() -> int:
    """Peak resident memory of this process.  ``VmHWM`` starts afresh at
    exec; ``ru_maxrss`` would also count the parent's size at fork."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_pass(main, commands, tracer=None) -> list:
    sampler = SpeedSampler(tracer)
    try:
        return [run_command(main, command, sampler, tracer, index)
                for index, command in enumerate(commands)]
    finally:
        sampler.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() in the parent just before this process started")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", default=None, help="trace this pass; write spans to PATH.*")
    args = parser.parse_args(argv)

    # set-up: from the spawn to the sampler's start, then the sampled import
    # of nreflect and construction of the inputs
    before_sampler = time.monotonic()
    sampler = SpeedSampler()
    started = sampler.start()
    cli = import_cli()
    commands = workloads.build(args.workload, args.seed, "full", args.workdir)
    own, speed = sampler.stop(started)
    sampler.close()
    result = {"setup_s": before_sampler - args.spawned + own, "setup_speed": speed}
    if not args.setup_only:
        tracer = None
        if args.trace_out:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        try:
            result["outcomes"] = run_pass(cli.main, commands, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        result["rss_kb"] = peak_rss_kb()
        if tracer is not None:
            tracer.dump(args.trace_out, result["outcomes"])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
