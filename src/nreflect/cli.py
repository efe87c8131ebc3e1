"""Command-line entry point.

Subcommands
-----------
catalog list                 enumerate cataloged reflection cases
verify <subject> ...         exact residual checks at seeded rational samples
gaudin <subcommand> ...      exact model-level identity checks / dumps
simulate ...                 RK4 flow with conservation monitoring (CSV out)

Exit codes: 0 pass, 1 verification failure, 2 configuration error,
3 runtime numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import dynamics, gaudin, reporting
from .errors import NReflectError
from .reflection import CATALOG, case_by_label, n_unitarity_entry, sampled_check, tamper
from .reflection import nre_residual  # noqa: F401 - perfbench/test_perfbench.py reads it off this module
from .rmatrix import cybe_residual, rational_r, trig_r
from .sampling import DEFAULT_SAMPLES, DEFAULT_SEED, SplitMix64, sample_evaluated
from .scalars import scalar_from_str, scalar_to_str, zeta

VERIFY_SUBJECTS = ("cybe", "nre", "nunitarity", "compact", "symmetry", "equivalence", "rbar-cybe")
GAUDIN_SUBCOMMANDS = ("hamiltonians", "involution", "residue-equality", "rbb", "lax", "mk", "trbrackets")


def _parse_params(text):
    params = {}
    if not text:
        return params
    for piece in text.split(","):
        if "=" not in piece:
            raise ValueError(f"parameter {piece!r} is not of the form name=value")
        name, value = piece.split("=", 1)
        params[name.strip()] = scalar_from_str(value)
    return params


def _at_least_one(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def _emit(report: dict, out_path) -> None:
    payload = reporting.dumps(report)
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)


def _exit_code(report: dict) -> int:
    return 0 if report.get("verdict") == "pass" else 1


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _refuse_unread_options(args) -> None:
    """Exit 2 on a verify option the subject would not read."""
    if args.subject == "cybe":
        unread = ("case", "params", "tamper", "omega")
    else:
        unread = ("r", "n") + (() if args.subject == "symmetry" else ("omega",))
    given = [f"--{name}" for name in unread if getattr(args, name) is not None]
    if given:
        raise NReflectError(f"verify {args.subject} does not take {', '.join(given)}")
    if args.r == "trig" and args.n not in (None, 2):
        raise NReflectError(f"the trigonometric r acts on C^2 x C^2, so --n must be 2, got {args.n}")


def cmd_verify(args) -> int:
    _refuse_unread_options(args)
    extra = None
    if args.subject == "cybe":
        r = trig_r() if args.r == "trig" else rational_r(args.n or 2)
        label, arity, evaluate = r.label, 3, lambda *pt: cybe_residual(r, *pt)
    else:
        case = case_by_label(args.case or "id-2refl", _parse_params(args.params))
        if args.tamper:
            case = tamper(case, args.tamper)
        omega = None
        if args.subject == "symmetry":
            omega = scalar_from_str(args.omega, order=case.N) if args.omega else zeta(case.N)
            extra = {"omega": scalar_to_str(omega)}
        label = case.label
        arity, evaluate = sampled_check(case, args.subject, omega)
    samples = sample_evaluated(SplitMix64(args.seed), args.samples, arity, evaluate)
    if args.subject == "nunitarity":
        entries = [n_unitarity_entry(case, nu) for (nu,), _frame in samples]
    else:
        entries = [reporting.residual_entry(point, value) for point, value in samples]
    report = reporting.build_report(args.subject, label, args.seed, entries, extra=extra)
    _emit(report, args.out)
    return _exit_code(report)


# ---------------------------------------------------------------------------
# gaudin
# ---------------------------------------------------------------------------

def _load_model(path):
    with open(path) as handle:
        config = json.load(handle)
    return gaudin.model_from_config(config)


def cmd_gaudin(args) -> int:
    model = _load_model(args.config)
    sub = args.subcommand

    if sub == "hamiltonians":
        text = gaudin.hamiltonians_text(model)
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(text + "\n")
        else:
            sys.stdout.write(text + "\n")
        return 0

    sites = range(1, model.L + 1)
    if sub == "involution":
        checks = (((f"H_{i}", f"H_{k}"), gaudin.involution_residual(model, i, k))
                  for i in sites for k in sites if i < k)
    elif sub == "residue-equality":
        checks = (((f"H_{m}",), gaudin.hamiltonian_residue(model, m) - gaudin.hamiltonian_explicit(model, m))
                  for m in sites)
    else:
        checks = sample_evaluated(SplitMix64(args.seed), args.samples, 2, lambda lam, mu: gaudin.sampled_residual(
            model, sub, lam, mu, args.power, args.power_q))
    entries = [reporting.residual_entry(point, value) for point, value in checks]
    report = reporting.build_report(f"gaudin-{sub}", model.case.label, args.seed, entries,
                                    extra={"sites": [scalar_to_str(z) for z in model.sites]})
    _emit(report, args.out)
    return _exit_code(report)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def default_initial_state(model, seed: int) -> dynamics.PhaseState:
    """Deterministic state on the bounded slice s+ = Sx + i Sy,
    s- = -Sx + i Sy, sz = 2i Sz with seeded real spin vectors."""
    rng = SplitMix64(seed)
    values = []
    for _ in range(model.L):
        sx, sy, sz = (rng.randint(-20, 20) / 10 or 0.5 for _ in range(3))
        values += [complex(sx, sy), complex(-sx, sy), 2j * sz]
    return dynamics.PhaseState(tuple(values))


def _load_state(path) -> dynamics.PhaseState:
    with open(path) as handle:
        raw = json.load(handle)
    return dynamics.PhaseState(tuple(complex(re, im) for re, im in raw))


def cmd_simulate(args) -> int:
    model = _load_model(args.config)
    state = _load_state(args.state) if args.state else default_initial_state(model, args.seed)
    traj = dynamics.rk4_simulate(model, args.hamiltonian, state, t_end=args.t, dt=args.dt,
                                 log_every=args.log_every)
    dynamics.write_csv(traj, args.out, model)
    keys = sorted(traj.conserved)
    for key in keys:
        sys.stdout.write(f"drift {key}: {traj.drift(key):.3e}\n")
    if not traj.ok:
        sys.stderr.write(traj.message + "\n")
        sys.stdout.write(f"aborted at t = {traj.times[-1]!r}\n")
        return 3
    return 0


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def cmd_catalog(args) -> int:
    if args.action != "list":  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown catalog action {args.action!r}")
    for label in sorted(CATALOG):
        case = case_by_label(label)
        descriptor = {
            "label": case.label,
            "family": case.family,
            "N": case.N,
            "n": case.n,
            "r": case.base_r.kind,
            "params": {key: scalar_to_str(val) for key, val in sorted(case.params.items())},
        }
        sys.stdout.write(json.dumps(descriptor, sort_keys=True) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nreflect",
        description="Exact checks for generalized reflection structures and the induced Gaudin models.")
    sub = parser.add_subparsers(dest="command", required=True)

    cat = sub.add_parser("catalog", help="catalog of reflection cases")
    cat.add_argument("action", choices=["list"])
    cat.set_defaults(func=cmd_catalog)

    ver = sub.add_parser("verify", help="run an exact residual check")
    ver.add_argument("subject", choices=VERIFY_SUBJECTS)
    ver.add_argument("--case", default=None, help="catalog label (see catalog list); default id-2refl")
    ver.add_argument("--params", default=None, help="overrides, e.g. a=1,b=5/3,c=3")
    ver.add_argument("--r", default=None, choices=["rational", "trig"],
                     help="base r-matrix for the cybe subject; default rational")
    ver.add_argument("--n", type=_at_least_one, default=None, help="factor size for the cybe r; default 2")
    ver.add_argument("--samples", type=_at_least_one, default=DEFAULT_SAMPLES)
    ver.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    ver.add_argument("--tamper", default=None, choices=["g1-sign"],
                     help="deliberately break the case (negative testing)")
    ver.add_argument("--omega", default=None, help="scalar for the symmetry check; defaults to zeta_N")
    ver.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
    ver.set_defaults(func=cmd_verify)

    gau = sub.add_parser("gaudin", help="exact model-level checks")
    gau.add_argument("subcommand", choices=GAUDIN_SUBCOMMANDS)
    gau.add_argument("--config", required=True, help="model config JSON path")
    gau.add_argument("--samples", type=_at_least_one, default=10)
    gau.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    gau.add_argument("--power", type=_at_least_one, default=2, help="p >= 1 for lax/mk/trbrackets")
    gau.add_argument("--power-q", dest="power_q", type=_at_least_one, default=2, help="q >= 1 for trbrackets")
    gau.add_argument("--out", default=None)
    gau.set_defaults(func=cmd_gaudin)

    sim = sub.add_parser("simulate", help="integrate a Hamiltonian flow")
    sim.add_argument("--config", required=True)
    sim.add_argument("--hamiltonian", type=int, default=1)
    sim.add_argument("--t", type=float, required=True)
    sim.add_argument("--dt", type=float, required=True)
    sim.add_argument("--out", required=True, help="trajectory CSV path")
    sim.add_argument("--log-every", dest="log_every", type=int, default=100)
    sim.add_argument("--state", default=None, help="JSON [[re, im], ...] initial state")
    sim.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (NReflectError, KeyError, ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
