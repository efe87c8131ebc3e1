"""The four benchmark workloads as fixed, seeded lists of CLI commands.

Every command is an argv for ``nreflect.cli.main``.  The workload seed
becomes the ``--seed`` of every command (and so also the seed of the
``simulate`` initial state); nothing else in a command depends on the seed.
A workload is sized only through ``--samples``, ``--t`` and the model size
L, never by dropping cases.  ``scale="tiny"`` shrinks those knobs for the
self-test and keeps every command.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Optional

WORKLOADS = ("reflect-cyclotomic", "reflect-rational", "gaudin-exact", "flow-rk4")

VERIFY_SUBJECTS = ("nre", "compact", "symmetry", "nunitarity", "rbar-cybe")
CYCLOTOMIC_CASES = ("linear-k-N3-diag-th0", "linear-k-N3-diag-th2",
                    "linear-k-N3-shift-th0", "linear-k-N3-shift-th2")
# Every catalog case whose matrices stay rational (the N = 3 linear-k cases
# are the only ones with Q(zeta_3) entries).
RATIONAL_CASES = ("id-2refl", "id-3refl",
                  "linear-k-N2-diag-th0", "linear-k-N2-diag-th2",
                  "linear-k-N2-shift-th0", "linear-k-N2-shift-th2",
                  "trig-2refl-id", "trig-2refl-tau",
                  "trig-3refl-id", "trig-3refl-poly-1", "trig-3refl-poly-2",
                  "trig-3refl-tau-nu", "trig-3refl-tau-tau2", "trig-3refl-tau2-nu",
                  "trivial")

TWO_REFLECTION = {"a": "1", "b": "2", "c": "3"}
THREE_REFLECTION = {"a": "1", "b": "3", "c": "-1", "d": "1"}
GAUDIN_MODELS = {
    "two-L3": {"case": "two-reflection", "params": TWO_REFLECTION, "z": ["1", "2", "4"]},
    "two-L4": {"case": "two-reflection", "params": TWO_REFLECTION, "z": ["1", "2", "4", "5"]},
    "three-L3": {"case": "three-reflection", "params": THREE_REFLECTION, "z": ["2", "5", "9"]},
    "z3-L2": {"case": "z3", "z": ["1", "2"]},
}
GAUDIN_SUBCOMMANDS = ("residue-equality", "involution", "hamiltonians", "rbb", "lax", "mk", "trbrackets")
SAMPLED_GAUDIN = ("rbb", "lax", "mk", "trbrackets")

FLOW_MODELS = {
    "two-L6": {"case": "two-reflection", "params": TWO_REFLECTION,
               "z": ["1", "2", "4", "5", "7", "8"]},
    # the acceptance-12 model
    "bcl-L2": {"case": "bcl", "z": ["1", "2"]},
}
FLOW_RUNS = (("two-L6", (1, 3, 6)), ("bcl-L2", (1, 2)))
# The CLI reports each conserved quantity's drift relative to its initial
# value, and a seeded state can start any H_k close to 0.  At dt = 5e-4 one
# seed in 60 (H_2 starting at 0.11) drifted 2e-8; dt = 2.5e-4 cuts RK4 drift
# 16-fold, so the 1e-8 gate holds for such states too.
FLOW_DT = "2.5e-4"
FLOW_LOG_EVERY = 100

SIZES = {
    "full": {"cyclotomic_samples": 20, "rational_samples": 50, "gaudin_samples": 8, "flow_t": "2.5"},
    "tiny": {"cyclotomic_samples": 1, "rational_samples": 2, "gaudin_samples": 1, "flow_t": "0.05"},
}

HEAVIEST = {
    "reflect-cyclotomic": "verify rbar-cybe --case linear-k-N3-shift-th2",
    "reflect-rational": "verify rbar-cybe --case id-3refl --params n=3",
    "gaudin-exact": "gaudin residue-equality two-L4",
    "flow-rk4": "simulate two-L6 --hamiltonian 6",
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its output must look like."""

    id: str
    argv: tuple
    kind: str                   # "report" (JSON), "text" (hamiltonians) or "simulate"
    samples: Optional[int] = None  # entries the report must hold
    csv: Optional[str] = None      # simulate: trajectory path
    csv_rows: Optional[int] = None  # simulate: header plus logged rows


def build(workload: str, seed: int, scale: str, workdir: str) -> list:
    """The command list of ``workload``; writes model configs into ``workdir``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    size = SIZES[scale]
    if workload == "reflect-cyclotomic":
        return _verify_matrix(CYCLOTOMIC_CASES, size["cyclotomic_samples"], seed)
    if workload == "reflect-rational":
        return _reflect_rational(size["rational_samples"], seed)
    if workload == "gaudin-exact":
        return _gaudin(size["gaudin_samples"], seed, workdir)
    return _flow(size["flow_t"], seed, workdir)


def _verify(words, samples, seed):
    argv = ("verify",) + tuple(words) + ("--samples", str(samples), "--seed", str(seed))
    return Command(id=" ".join(("verify",) + tuple(words)), argv=argv, kind="report", samples=samples)


def _verify_matrix(cases, samples, seed):
    return [_verify((subject, "--case", case), samples, seed)
            for case in cases for subject in VERIFY_SUBJECTS]


def _reflect_rational(samples, seed):
    extra = [
        ("cybe", "--r", "rational", "--n", "2"),
        ("cybe", "--r", "rational", "--n", "3"),
        ("cybe", "--r", "trig"),
        ("equivalence", "--case", "id-2refl"),
        ("equivalence", "--case", "id-3refl"),
        ("rbar-cybe", "--case", "id-2refl", "--params", "n=3"),
        ("rbar-cybe", "--case", "id-3refl", "--params", "n=3"),
        ("nre", "--case", "id-2refl", "--tamper", "g1-sign"),
    ]
    return _verify_matrix(RATIONAL_CASES, samples, seed) + [_verify(w, samples, seed) for w in extra]


def _write_config(workdir, name, config):
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w") as handle:
        json.dump(config, handle)
    return path


def _gaudin(samples, seed, workdir):
    commands = []
    for name, config in GAUDIN_MODELS.items():
        path = _write_config(workdir, name, config)
        L = len(config["z"])
        for sub in GAUDIN_SUBCOMMANDS:
            argv = ("gaudin", sub, "--config", path, "--seed", str(seed))
            if sub in SAMPLED_GAUDIN:
                argv += ("--samples", str(samples))
                expect = samples
            elif sub == "involution":
                expect = L * (L - 1) // 2
            elif sub == "residue-equality":
                expect = L
            else:
                expect = None
            commands.append(Command(id=f"gaudin {sub} {name}", argv=argv,
                                    kind="text" if sub == "hamiltonians" else "report",
                                    samples=expect))
    return commands


def csv_rows(t: str, dt: str, log_every: int) -> int:
    """Header plus the rows the CLI writes for a run of round(t/dt) steps."""
    steps = round(float(t) / float(dt))
    return 1 + len(set(range(0, steps + 1, log_every)) | {steps})


def _flow(t, seed, workdir):
    commands = []
    for name, hamiltonians in FLOW_RUNS:
        path = _write_config(workdir, name, FLOW_MODELS[name])
        for h in hamiltonians:
            out = os.path.join(workdir, f"{name}-H{h}.csv")
            argv = ("simulate", "--config", path, "--hamiltonian", str(h), "--t", t,
                    "--dt", FLOW_DT, "--log-every", str(FLOW_LOG_EVERY), "--out", out,
                    "--seed", str(seed))
            commands.append(Command(id=f"simulate {name} --hamiltonian {h}", argv=argv,
                                    kind="simulate", csv=out,
                                    csv_rows=csv_rows(t, FLOW_DT, FLOW_LOG_EVERY)))
    return commands
