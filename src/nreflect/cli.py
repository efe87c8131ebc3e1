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
from .reflection import (
    CATALOG,
    build_rbar,
    case_by_label,
    equivalence_residual,
    n_unitarity,
    nre_residual,
    point_frame,
    symmetry_relation_residual,
    tamper,
)
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

def _resolve_r(args):
    if args.r == "trig":
        return trig_r()
    return rational_r(args.n)


def _residual_entries(rng, count, arity, residual) -> list:
    return [reporting.residual_entry(pt, value)
            for pt, value in sample_evaluated(rng, count, arity, residual)]


def cmd_verify(args) -> int:
    rng = SplitMix64(args.seed)
    count = args.samples

    if args.subject == "cybe":
        r = _resolve_r(args)
        entries = _residual_entries(rng, count, 3, lambda *pt: cybe_residual(r, *pt))
        report = reporting.build_report("cybe", r.label, args.seed, entries)
        _emit(report, args.out)
        return _exit_code(report)

    case = case_by_label(args.case, _parse_params(args.params))
    if args.tamper:
        case = tamper(case, args.tamper)

    if args.subject in ("nre", "compact"):  # compact names the form nre_residual computes
        entries = _residual_entries(rng, count, 2, lambda lam, nu: nre_residual(case, lam, nu))
        report = reporting.build_report(args.subject, case.label, args.seed, entries)
    elif args.subject == "nunitarity":
        # sampled where the frame of rbar evaluates, so that k^(N) is checked
        # on the domain of the induced matrix
        samples = sample_evaluated(rng, count, 1, lambda nu: point_frame(case, nu))
        report = n_unitarity(case, [nu for (nu,), _ in samples])
        report["seed"] = args.seed
    elif args.subject == "symmetry":
        omega = scalar_from_str(args.omega, order=case.N) if args.omega else zeta(case.N)
        entries = _residual_entries(rng, count, 2,
                                    lambda lam, nu: symmetry_relation_residual(case, omega, lam, nu))
        report = reporting.build_report("symmetry", case.label, args.seed, entries,
                                        extra={"omega": scalar_to_str(omega)})
    elif args.subject == "equivalence":
        entries = _residual_entries(rng, count, 2, lambda lam, mu: equivalence_residual(case, lam, mu))
        report = reporting.build_report("equivalence", case.label, args.seed, entries)
    elif args.subject == "rbar-cybe":
        rbar = build_rbar(case)
        entries = _residual_entries(rng, count, 3, lambda *pt: cybe_residual(rbar, *pt))
        report = reporting.build_report("rbar-cybe", case.label, args.seed, entries)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown subject {args.subject!r}")

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
    rng = SplitMix64(args.seed)
    sub = args.subcommand

    if sub == "hamiltonians":
        text = gaudin.hamiltonians_text(model)
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(text + "\n")
        else:
            sys.stdout.write(text + "\n")
        return 0

    entries = []
    if sub == "involution":
        for i in range(1, model.L + 1):
            for k in range(i + 1, model.L + 1):
                residual = gaudin.involution_residual(model, i, k)
                entry = {"sample": [f"H_{i}", f"H_{k}"]}
                if residual.is_zero():
                    entry["status"] = "exact-zero"
                else:
                    entry.update(status="nonzero", witness={"value": str(residual)})
                entries.append(entry)
    elif sub == "residue-equality":
        for m in range(1, model.L + 1):
            diff = gaudin.hamiltonian_residue(model, m) - gaudin.hamiltonian_explicit(model, m)
            entry = {"sample": [f"H_{m}"]}
            if diff.is_zero():
                entry["status"] = "exact-zero"
            else:
                entry.update(status="nonzero", witness={"value": str(diff)})
            entries.append(entry)
    elif sub in ("rbb", "lax", "mk", "trbrackets"):
        entries = _residual_entries(rng, args.samples, 2, lambda lam, mu: gaudin.sampled_residual(
            model, sub, lam, mu, args.power, args.power_q))
    else:  # pragma: no cover
        raise ValueError(f"unknown gaudin subcommand {sub!r}")

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
    if args.dt <= 0 or args.t <= 0:
        raise NReflectError("dt and t must be positive")
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
    ver.add_argument("--case", default="id-2refl", help="catalog label (see catalog list)")
    ver.add_argument("--params", default="", help="overrides, e.g. a=1,b=5/3,c=3")
    ver.add_argument("--r", default="rational", choices=["rational", "trig"],
                     help="base r-matrix for the cybe subject")
    ver.add_argument("--n", type=int, default=2, help="factor size for the rational r")
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
