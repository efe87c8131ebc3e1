"""Floating-point Hamiltonian flows generated by the Gaudin Hamiltonians.

The flow of a quadratic Hamiltonian H is x_dot = {x, H} for every spin
coordinate x; trajectories are integrated with fixed-step classical RK4 and
monitored through the conserved quantities: the other Hamiltonians, the
Casimirs, and det B(lam) at fixed exact probe points (isospectrality; B is
traceless, so det B fixes its spectrum).  B is read only through
:func:`nreflect.gaudin.site_values`, which also decides where it has a pole.

Spin coordinates are independent complex variables, matching the algebra
layer; no reality projection is applied.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ModelError
from .gaudin import GaudinModel, hamiltonian_explicit, site_values
from .sampling import POLE_ERRORS, first_admissible
from .scalars import to_complex
from .spinalg import KINDS, SpinPoly, casimir, poisson_bracket, var_index


@dataclass
class PhaseState:
    """Complex values for (s_1^+, s_1^-, s_1^z, s_2^+, ...) at time t."""

    values: tuple
    t: float = 0.0

    def __post_init__(self):
        self.values = tuple(complex(v) for v in self.values)
        if any(not (math.isfinite(v.real) and math.isfinite(v.imag)) for v in self.values):
            raise ValueError("phase-state entries must be finite")
        if len(self.values) % 3:
            raise ValueError("phase state length must be 3 L")

    @property
    def sites(self) -> int:
        return len(self.values) // 3

    def value(self, j: int, kind: str) -> complex:
        return self.values[var_index(j, kind)]


def compile_spinpoly(poly: SpinPoly):
    """Compile a spin polynomial to a fast numeric callable of the flat
    coordinate vector."""
    parts = []
    for expo, coeff in sorted(poly.terms.items()):
        factors = "".join(f"*v[{idx}]" * e for idx, e in enumerate(expo))
        parts.append(f"({to_complex(coeff)!r})" + factors)
    source = " + ".join(parts) if parts else "0j"
    return eval(f"lambda v: {source}", {}, {})  # noqa: S307 - source built from exact terms


def hamiltonian_for(model: GaudinModel, selection) -> SpinPoly:
    """An index picks H_i; a SpinPoly passes through."""
    if isinstance(selection, SpinPoly):
        return selection
    return hamiltonian_explicit(model, selection)


def vector_field_callables(model: GaudinModel, hamiltonian: SpinPoly):
    """Compiled {x, H} for every coordinate x."""
    compiled = []
    for idx in range(3 * model.L):
        j, k = divmod(idx, 3)
        gen = SpinPoly.generator(model.L, j + 1, KINDS[k])
        compiled.append(compile_spinpoly(poisson_bracket(gen, hamiltonian)))
    return compiled


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


def probe_evaluator(model: GaudinModel, probe):
    """callable(state values) -> det B at an exact probe (tr B is identically
    0); raises PoleError where B is undefined at the probe."""
    coeffs = [to_complex(c) for c in site_values(model, probe)]

    def evaluate(vals):
        b00 = 0j
        b01 = 0j
        b10 = 0j
        for m, c in enumerate(coeffs):
            base = 3 * m
            b00 += c * 0.5 * vals[base + 2]
            b01 += c * vals[base]
            b10 += c * vals[base + 1]
        # B is traceless for the su(2) block structure: B11 = -B00
        return -b00 * b00 - b01 * b10

    return evaluate


def spectral_scan(model: GaudinModel, state: PhaseState, probes) -> list:
    """(lam, tr B, det B, eigenvalues) at each exact probe; a probe where B
    is undefined (the sampler's rule) is skipped with a warning entry naming
    the pole.  tr B is 0: B is traceless."""
    results = []
    for probe in probes:
        lam = complex(to_complex(probe))
        try:
            det_b = probe_evaluator(model, probe)
        except POLE_ERRORS as exc:
            results.append({"lam": lam, "skipped": True, "warning": str(exc)})
            continue
        tr, det = 0j, det_b(list(state.values))
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

    def final_state(self) -> PhaseState:
        return PhaseState(self.states[-1], t=self.times[-1])


def rk4_simulate(model: GaudinModel, selection, initial: PhaseState, t_end: float,
                 dt: float, log_every: int = 1) -> Trajectory:
    """Classical fixed-step RK4 for x_dot = {x, H}.

    Monitors each H_k, each Casimir, and det B at the default probes at
    every step, keeping the largest drift of each; logs a row every
    ``log_every`` steps and at the last step, so memory grows with the
    number of logged rows only.  A non-finite state aborts the run and logs the last good
    state.
    """
    if not (0 < dt < math.inf and 0 < t_end < math.inf):
        raise ModelError(f"dt and t_end must be positive and finite, got dt = {dt}, t_end = {t_end}")
    if log_every < 1:
        raise ModelError(f"log_every must be at least 1, got {log_every}")
    h = hamiltonian_for(model, selection)
    fields = vector_field_callables(model, h)
    dim = 3 * model.L
    if len(initial.values) != dim:
        raise ModelError(f"initial state has {len(initial.values)} values, model needs {dim}")
    probes = default_probes(model)

    monitors = {}
    for i in range(1, model.L + 1):
        monitors[f"H{i}"] = compile_spinpoly(hamiltonian_explicit(model, i))
    for j in range(1, model.L + 1):
        monitors[f"C{j}"] = compile_spinpoly(casimir(model.L, j))
    for idx, probe in enumerate(probes):
        monitors[f"detB@{idx}"] = probe_evaluator(model, probe)

    steps = round(t_end / dt)
    traj = Trajectory(probes=probes, conserved={key: [] for key in monitors})

    def observe(vals):
        values = {key: fn(vals) for key, fn in monitors.items()}
        for key, q in values.items():
            change = abs(q - traj.initial[key])
            if change > traj.max_change[key]:
                traj.max_change[key] = change
        return values

    def log(t, vals, values):
        traj.times.append(t)
        traj.states.append(tuple(vals))
        for key, q in values.items():
            traj.conserved[key].append(q)

    vals = list(initial.values)
    t = initial.t
    traj.initial = {key: fn(vals) for key, fn in monitors.items()}
    traj.max_change = dict.fromkeys(monitors, 0.0)
    values = traj.initial
    log(t, vals, values)
    for step in range(1, steps + 1):
        k1 = [f(vals) for f in fields]
        mid1 = [v + 0.5 * dt * d for v, d in zip(vals, k1)]
        k2 = [f(mid1) for f in fields]
        mid2 = [v + 0.5 * dt * d for v, d in zip(vals, k2)]
        k3 = [f(mid2) for f in fields]
        end = [v + dt * d for v, d in zip(vals, k3)]
        k4 = [f(end) for f in fields]
        new_vals = [v + dt / 6.0 * (a + 2 * b + 2 * c + d)
                    for v, a, b, c, d in zip(vals, k1, k2, k3, k4)]
        if any(not (math.isfinite(v.real) and math.isfinite(v.imag)) for v in new_vals):
            traj.ok = False
            traj.message = f"non-finite state at t = {t + dt:.6g}; keeping last good state"
            if traj.times[-1] != t:
                log(t, vals, values)
            break
        vals = new_vals
        t = initial.t + step * dt
        values = observe(vals)
        if step % log_every == 0 or step == steps:
            log(t, vals, values)
    return traj


def convergence_order(model: GaudinModel, selection, initial: PhaseState, t_end: float,
                      dts: Sequence[float]) -> dict:
    """Richardson estimate of the global order from endpoint states at
    successively halved steps, plus per-run energy-drift figures."""
    if len(dts) < 3:
        raise ValueError("need at least three step sizes")
    finals = []
    drifts = []
    for dt in dts:
        traj = rk4_simulate(model, selection, initial, t_end, dt, log_every=100)
        finals.append(np.asarray(traj.final_state().values))
        keys = [key for key in traj.conserved if key.startswith("H")]
        drifts.append(max(traj.drift(key) for key in keys))
    orders = []
    for i in range(len(finals) - 2):
        d1 = float(np.max(np.abs(finals[i] - finals[i + 1])))
        d2 = float(np.max(np.abs(finals[i + 1] - finals[i + 2])))
        if d2 == 0:
            continue
        orders.append(math.log2(d1 / d2))
    return {"orders": orders, "order": min(orders) if orders else float("nan"),
            "drifts": drifts}


def _complex_str(value: complex) -> str:
    sign = "+" if value.imag >= 0 else "-"
    return f"{value.real!r}{sign}{abs(value.imag)!r}j"


def write_csv(traj: Trajectory, path, model: GaudinModel) -> None:
    """One row per logged step.  CSV schema: t, H_1..H_L, C_1..C_L, then
    per-probe detB_re, detB_im.  H and C columns hold complex literals
    "re+imj"."""
    import csv

    L = model.L
    header = ["t"] + [f"H_{i}" for i in range(1, L + 1)] + [f"C_{j}" for j in range(1, L + 1)]
    for idx in range(len(traj.probes)):
        header += [f"probe{idx}_detB_re", f"probe{idx}_detB_im"]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row_idx, t in enumerate(traj.times):
            row = [repr(t)]
            for i in range(1, L + 1):
                row.append(_complex_str(traj.conserved[f"H{i}"][row_idx]))
            for j in range(1, L + 1):
                row.append(_complex_str(traj.conserved[f"C{j}"][row_idx]))
            for idx in range(len(traj.probes)):
                det = traj.conserved[f"detB@{idx}"][row_idx]
                row += [repr(det.real), repr(det.imag)]
            writer.writerow(row)
