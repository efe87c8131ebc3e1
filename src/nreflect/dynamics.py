"""Floating-point Hamiltonian flows generated by the Gaudin Hamiltonians.

The flow of a quadratic Hamiltonian H is x_dot = {x, H} for every spin
coordinate x; trajectories are integrated with fixed-step classical RK4 and
monitored through the conserved quantities: the other Hamiltonians, the
Casimirs, and det B(lam) at fixed exact probe points (isospectrality; B is
traceless, so det B fixes its spectrum).  B is read only through
:func:`nreflect.gaudin.site_values`, which also decides where it has a pole.

A run compiles its RK4 step, and all its monitors, each into one generated
straight-line function over locals, with every spin polynomial's terms in
``monomials()`` order, which float addition depends on; the step forms the
two terms of each +- pair in its field (the bracket is antisymmetric) as one
product, which can change no float but the sign of a zero.

Spin coordinates are independent complex variables, matching the algebra
layer; no reality projection is applied.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import ModelError
from .gaudin import GaudinModel, _check_site, site_values
from .sampling import POLE_ERRORS, first_admissible
from .scalars import to_complex
from .spinalg import KINDS, SpinPoly, bracket_partials, casimir, partials


@dataclass
class PhaseState:
    """Complex values for (s_1^+, s_1^-, s_1^z, s_2^+, ...) at time t."""

    values: tuple
    t: float = 0.0

    def __post_init__(self):
        self.values = tuple(complex(v) for v in self.values)
        if any(not (math.isfinite(v.real) and math.isfinite(v.imag)) for v in self.values):
            raise ModelError("phase-state entries must be finite")
        if len(self.values) % 3:
            raise ModelError("phase state length must be 3 L")


def _terms(poly: SpinPoly, name: str) -> str:
    """The terms ``(c)*x*...`` of ``poly`` in ``monomials()`` order, flat
    variable i written ``name.format(i)``."""
    parts = []
    for expo, coeff in poly.monomials():
        factors = "".join(f"*{name.format(idx)}" * e for idx, e in enumerate(expo) if e)
        parts.append(f"({to_complex(coeff)!r})" + factors)
    return " + ".join(parts) if parts else "0j"


def _compile(params: str, lines: list, namespace: dict):
    """The function of ``params`` with the body ``lines`` and the globals ``namespace``."""
    exec(f"def generated({params}):\n" + "".join(f"    {line}\n" for line in lines), namespace)  # noqa: S102
    return namespace.pop("generated")


def _unpack(dim: int) -> str:
    return "".join(f"v{i}, " for i in range(dim)) + "= v"


def hamiltonian_for(model: GaudinModel, selection) -> SpinPoly:
    """An index picks the model's H_i; a SpinPoly passes through if it lives
    on the model's sites."""
    if isinstance(selection, SpinPoly):
        if any(len(expo) > 3 * model.L for expo, _ in selection.monomials()):
            raise ModelError(f"the Hamiltonian uses a site beyond the model's {model.L}")
        return selection
    _check_site(model, selection)
    return model.hamiltonians[selection - 1]


def vector_field(model: GaudinModel, hamiltonian: SpinPoly) -> list:
    """{x, H} for every coordinate x, as exact spin polynomials; H is
    differentiated once."""
    dh = partials(hamiltonian)
    return [bracket_partials(partials(SpinPoly.generator(j, kind)), dh)
            for j in range(1, model.L + 1) for kind in KINDS]


def _folded(fields: list) -> list:
    """Lines ``t{k} = ...`` forming each product (c)*x*... of ``fields``, and
    each prefix of one, once with the sign of c whose shadow leads with a
    positive part; then ``dv{i} = `` field i as +- those locals in
    ``monomials()`` order, over the flat variables ``v{i}``."""
    products, sums = {}, []
    for poly in fields:
        terms = []
        for expo, coeff in poly.monomials():
            c = to_complex(coeff)
            sign = "-" if any(expo) and (c.real, c.imag) < (0, 0) else "+"
            term = key = f"({to_complex(-coeff) if sign == '-' else c!r})"
            for idx in (idx for idx, e in enumerate(expo) for _ in range(e)):
                key += f"*v{idx}"
                term = products.setdefault(key, (f"t{len(products)}", f"{term}*v{idx}"))[0]
            terms.append((sign, term))
        if terms[1:] and terms[0][0] == "-" and terms[1][0] == "+":
            terms[:2] = terms[1::-1]  # -t0 + t1 is t1 - t0, exactly
        (sign, first), *rest = terms or [("+", "0j")]
        sums.append(f"dv{len(sums)} = {'-' if sign == '-' else ''}{first}" + "".join(f" {s} {t}" for s, t in rest))
    return [f"{name} = {expr}" for name, expr in products.values()] + sums


def compile_rk4_step(fields: list):
    """``step(v, dt)``: one classical RK4 step of x_dot = fields(x) from the
    state values ``v`` as one straight-line function, the stage derivatives
    dv, dp, dq, dr and every combination held in locals.  Each stage forms
    each product once up to sign (``_folded``): rounding is symmetric in
    sign, a - t is a + (-t) and no sum is regrouped, so only a zero's sign
    could differ.  0.5 * dt and dt / 6.0 are formed once per step."""
    dim = len(fields)
    body = _folded(fields)  # a coefficient's repr holds no "v"
    lines = [_unpack(dim), "half = 0.5 * dt", "sixth = dt / 6.0"]
    for point, ahead, scale in (("v", "p", "half"), ("p", "q", "half"), ("q", "r", "dt"), ("r", None, None)):
        lines += [line.replace("v", point) for line in body]
        if ahead:
            lines += [f"{ahead}{i} = v{i} + {scale} * d{point}{i}" for i in range(dim)]
    update = ", ".join(f"v{i} + sixth * (dv{i} + 2 * dp{i} + 2 * dq{i} + dr{i})" for i in range(dim))
    return _compile("v, dt", lines + [f"return [{update}]"], {})


# ---------------------------------------------------------------------------
# probes and conserved quantities
# ---------------------------------------------------------------------------

def default_probes(model: GaudinModel, offsets=(3, 5, 7)):
    """Rational probe points z_max + offset, bumped past any exact pole of B
    (by the sampler's rule: a point is skipped where B cannot be evaluated)."""
    rational_sites = [z for z in model.sites if isinstance(z, Fraction)]
    base = max(rational_sites) if rational_sites else Fraction(0)
    probes = []
    for offset in offsets:
        start = base + Fraction(offset)
        candidates = ((x,) for x in (start + bump for bump in itertools.count()) if x not in probes)
        (probe,), _ = first_admissible(candidates, lambda lam: site_values(model, lam))
        probes.append(probe)
    return tuple(probes)


def _det_b(model: GaudinModel, probe, name: str, namespace: dict) -> str:
    """det B at an exact probe as one expression over the flat variables
    ``name.format(i)``, each entry of B summed from 0j over the sites; binds
    the site values, and each one times 0.5, in ``namespace``.  Raises
    PoleError where B is undefined at the probe."""
    b00 = b01 = b10 = "0j"
    for m, c in enumerate(site_values(model, probe)):
        coeff, value = f"c{len(namespace)}", to_complex(c)
        namespace.update({coeff: value, f"{coeff}h": value * 0.5})
        b00 += f" + {coeff}h * {name.format(3 * m + 2)}"
        b01 += f" + {coeff} * {name.format(3 * m)}"
        b10 += f" + {coeff} * {name.format(3 * m + 1)}"
    # B is traceless for the su(2) block structure: B11 = -B00
    return f"-(b00 := {b00}) * b00 - ({b01}) * ({b10})"


def compile_monitors(model: GaudinModel, probes):
    """One function of the state values returning [H_1..H_L, C_1..C_L, det B
    at each probe]."""
    namespace = {}
    polys = [*model.hamiltonians, *(casimir(j) for j in range(1, model.L + 1))]
    values = [_terms(poly, "v{}") for poly in polys] + [_det_b(model, probe, "v{}", namespace) for probe in probes]
    return _compile("v", [_unpack(3 * model.L), f"return [{', '.join(values)}]"], namespace)


def spectral_scan(model: GaudinModel, state: PhaseState, probes) -> list:
    """(lam, tr B, det B, eigenvalues) at each exact probe; a probe where B
    is undefined (the sampler's rule) is skipped with a warning entry naming
    the pole.  tr B is 0: B is traceless."""
    results = []
    for probe in probes:
        lam = complex(to_complex(probe))
        namespace = {}
        try:
            det_b = _det_b(model, probe, "v[{}]", namespace)
        except POLE_ERRORS as exc:
            results.append({"lam": lam, "skipped": True, "warning": str(exc)})
            continue
        tr, det = 0j, _compile("v", [f"return {det_b}"], namespace)(list(state.values))
        disc = (tr * tr - 4 * det) ** 0.5
        eigs = ((tr + disc) / 2, (tr - disc) / 2)
        results.append({"lam": lam, "trB": tr, "detB": det, "eigenvalues": eigs})
    return results


# ---------------------------------------------------------------------------
# RK4 integration
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """Logged rows (times, states, conserved series), plus for every
    monitored quantity its initial value and its largest deviation from it
    over every step, logged or not."""

    times: list = field(default_factory=list)
    states: list = field(default_factory=list)
    conserved: dict = field(default_factory=dict)
    probes: tuple = ()
    ok: bool = True
    message: str = ""
    initial: dict = field(default_factory=dict)
    max_change: dict = field(default_factory=dict)

    def drift(self, key: str) -> float:
        """Max relative drift of a monitored quantity along the trajectory."""
        baseline = abs(self.initial[key])
        top = self.max_change[key]
        return top / baseline if baseline > 1e-300 else top


def rk4_simulate(model: GaudinModel, selection, initial: PhaseState, t_end: float,
                 dt: float, log_every: int = 1) -> Trajectory:
    """Classical fixed-step RK4 for x_dot = {x, H}.

    The step and one monitor pass over each H_k, each Casimir, and det B
    at the default probes are compiled once per run; the monitors run at
    every step, keeping the largest drift of each.  A run of no step, where
    t_end / dt rounds to 0, is refused with ModelError.  A row is logged every
    ``log_every`` steps and at the last step, so memory grows with the
    number of logged rows only.  A non-finite state aborts the run and logs
    the last good state.
    """
    if not (0 < dt < math.inf and 0 < t_end < math.inf):
        raise ModelError(f"dt and t_end must be positive and finite, got dt = {dt}, t_end = {t_end}")
    if not t_end / dt < math.inf:
        raise ModelError(f"t_end / dt must be a finite step count, got t_end = {t_end}, dt = {dt}")
    steps = round(t_end / dt)
    if not steps:
        raise ModelError(f"t_end / dt rounds to 0 steps, got t_end = {t_end}, dt = {dt}")
    if log_every < 1:
        raise ModelError(f"log_every must be at least 1, got {log_every}")
    advance = compile_rk4_step(vector_field(model, hamiltonian_for(model, selection)))
    dim = 3 * model.L
    if len(initial.values) != dim:
        raise ModelError(f"initial state has {len(initial.values)} values, model needs {dim}")
    probes = default_probes(model)
    monitor = compile_monitors(model, probes)
    keys = [f"{kind}{j}" for kind in "HC" for j in range(1, model.L + 1)] + [f"detB@{idx}" for idx in range(len(probes))]
    traj = Trajectory(probes=probes, conserved={key: [] for key in keys})

    def log(t, vals, values):
        traj.times.append(t)
        traj.states.append(tuple(vals))
        for column, q in zip(traj.conserved.values(), values):
            column.append(q)

    vals = list(initial.values)
    t = initial.t
    first = values = monitor(vals)
    top = [0.0] * len(keys)
    log(t, vals, values)
    for step in range(1, steps + 1):
        new_vals = advance(vals, dt)
        if not all(map(cmath.isfinite, new_vals)):
            traj.ok = False
            traj.message = f"non-finite state at t = {t + dt:.6g}; keeping last good state"
            if traj.times[-1] != t:
                log(t, vals, values)
            break
        vals = new_vals
        t = initial.t + step * dt
        values = monitor(vals)
        top = [change if change > was else was
               for was, change in zip(top, map(abs, map(operator.sub, values, first)))]
        if step % log_every == 0 or step == steps:
            log(t, vals, values)
    traj.initial = dict(zip(keys, first))
    traj.max_change = dict(zip(keys, top))
    return traj


def convergence_order(model: GaudinModel, selection, initial: PhaseState, t_end: float,
                      dts: Sequence[float]) -> dict:
    """Richardson estimate of the global order from endpoint states at
    successively halved steps, plus per-run energy-drift figures."""
    if len(dts) < 3:
        raise ValueError("need at least three step sizes")
    finals, drifts = [], []
    for dt in dts:
        traj = rk4_simulate(model, selection, initial, t_end, dt, log_every=100)
        finals.append(traj.states[-1])
        drifts.append(max(traj.drift(key) for key in list(traj.conserved)[:model.L]))  # H_1..H_L come first
    gaps = [max(abs(a - b) for a, b in zip(x, y)) for x, y in zip(finals, finals[1:])]
    orders = [math.log2(d1 / d2) for d1, d2 in zip(gaps, gaps[1:]) if d2 != 0]
    return {"orders": orders, "order": min(orders) if orders else float("nan"),
            "drifts": drifts}


def _complex_str(value: complex) -> str:
    sign = "+" if value.imag >= 0 else "-"
    return f"{value.real!r}{sign}{abs(value.imag)!r}j"


def write_csv(traj: Trajectory, path, model: GaudinModel) -> None:
    """One row per logged step.  CSV schema: t, H_1..H_L, C_1..C_L, then
    per-probe detB_re, detB_im, in the order of ``traj.conserved``.  H and
    C columns hold complex literals "re+imj"."""
    import csv

    L = model.L
    header = ["t"] + [f"H_{i}" for i in range(1, L + 1)] + [f"C_{j}" for j in range(1, L + 1)]
    for idx in range(len(traj.probes)):
        header += [f"probe{idx}_detB_re", f"probe{idx}_detB_im"]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for t, *values in zip(traj.times, *traj.conserved.values()):
            row = [repr(t)] + [_complex_str(q) for q in values[:2 * L]]
            for det in values[2 * L:]:
                row += [repr(det.real), repr(det.imag)]
            writer.writerow(row)
