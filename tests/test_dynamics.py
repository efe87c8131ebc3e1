import dis
import gc
import math
import struct
import sys
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from nreflect import dynamics
from nreflect.cli import default_initial_state
from nreflect.dynamics import (
    PhaseState,
    compile_monitors,
    convergence_order,
    default_probes,
    rk4_simulate,
    spectral_scan,
    write_csv,
)
from nreflect.errors import ModelError
from nreflect.gaudin import hamiltonian_explicit, model_from_config, site_values
from nreflect.scalars import to_complex, zeta
from nreflect.spinalg import SpinPoly, casimir, s_minus, s_plus, s_z

F = Fraction


def bcl_model(z=(1, 2)):
    return model_from_config({"case": "bcl", "z": list(z)})


def generic_state(model, seed=1.0):
    values = []
    for j in range(model.L):
        values += [0.4 + 0.1 * j * seed, 0.7 - 0.05 * j, 0.9 + 0.2 * j]
    return PhaseState(tuple(complex(v) for v in values))


def compact_state(spins=((0.8, -0.3, 0.5), (-0.2, 0.9, -0.6)), scale=5.0):
    """State on the bounded slice s+ = Sx + i Sy, s- = -Sx + i Sy, sz = 2i Sz
    (real spin vectors S), where the flow stays on spheres."""
    values = []
    for (sx, sy, sz) in spins:
        values += [complex(scale * sx, scale * sy),
                   complex(-scale * sx, scale * sy),
                   2j * scale * sz]
    return PhaseState(tuple(values))


def evaluated(polys, values):
    """The spin polynomials at the flat coordinates ``values`` (3 per site),
    by the monitor pass that ``rk4_simulate`` compiles: the monitors of a
    stand-in model whose Hamiltonians are ``polys``, with no probe."""
    model = SimpleNamespace(L=-(-len(values) // 3), hamiltonians=tuple(polys))
    return compile_monitors(model, ())(list(values))[:len(polys)]


def vector_field(model, hamiltonian, state):
    """The derivatives {x, H} at the state, through the emitter RK4 steps with."""
    return evaluated(dynamics.vector_field(model, hamiltonian), state.values)


class TestVectorField:
    def test_casimir_generates_no_flow(self):
        model = bcl_model()
        state = generic_state(model)
        derivs = vector_field(model, casimir(1), state)
        assert all(abs(d) < 1e-15 for d in derivs)

    def test_sz_flow_sign(self):
        # H = s_1^z: ds+/dt = {s+, sz} = -2 s+ by the generator table
        model = bcl_model()
        state = generic_state(model)
        derivs = vector_field(model, s_z(1), state)
        assert abs(derivs[0] - (-2) * state.values[0]) < 1e-15
        assert abs(derivs[1] - 2 * state.values[1]) < 1e-15

    def test_matches_finite_differences(self):
        # independent oracle: assemble the flow from numeric gradients of H
        # and the bracket table {x_a, x_b} evaluated at the state
        model = bcl_model()
        state = generic_state(model)
        h = hamiltonian_explicit(model, 1)
        eps = 1e-6
        vals = list(state.values)

        def grad(idx):
            up = list(vals)
            down = list(vals)
            up[idx] += eps
            down[idx] -= eps
            (h_up,), (h_down,) = evaluated([h], up), evaluated([h], down)
            return (h_up - h_down) / (2 * eps)

        derivs = vector_field(model, h, state)
        for site in range(model.L):
            base = 3 * site
            sp, sm, sz_val = vals[base], vals[base + 1], vals[base + 2]
            gp, gm, gz = grad(base), grad(base + 1), grad(base + 2)
            expected = {
                base: gm * sz_val - 2 * gz * sp,        # {s+, s-} = sz, {s+, sz} = -2 s+
                base + 1: -gp * sz_val + 2 * gz * sm,   # {s-, s+} = -sz, {s-, sz} = +2 s-
                base + 2: 2 * (gp * sp - gm * sm),      # {sz, s+-} = +-2 s+-
            }
            for idx, want in expected.items():
                assert abs(derivs[idx] - want) < 1e-6


class TestRk4:
    def test_zero_hamiltonian_is_constant(self):
        model = bcl_model()
        state = generic_state(model)
        traj = rk4_simulate(model, SpinPoly(), state, t_end=0.1, dt=0.01)
        assert traj.ok
        assert traj.states[0] == traj.states[-1]

    @pytest.mark.parametrize("h", [s_z(3), s_z(1) * s_z(3)], ids=["silent-zero-flow", "index-past-state"])
    def test_hamiltonian_beyond_model_sites(self, h):
        # on L = 2, s_3 is no coordinate: the first would flow by zero, the
        # second would read past the end of the state
        model = bcl_model()
        with pytest.raises(ModelError, match="beyond the model's 2"):
            rk4_simulate(model, h, generic_state(model), t_end=0.1, dt=0.01)

    def test_invalid_dt(self):
        model = bcl_model()
        with pytest.raises(ModelError):
            rk4_simulate(model, 1, generic_state(model), t_end=1.0, dt=0.0)

    @pytest.mark.parametrize("t_end,dt", [(1e-9, 1e-3), (0.5e-3, 1e-3)])
    def test_a_run_of_no_step_is_refused(self, t_end, dt):
        # round(t_end / dt) = 0: a run would monitor nothing and report zero drift
        model = bcl_model()
        with pytest.raises(ModelError, match=f"rounds to 0 steps, got t_end = {t_end}, dt = {dt}$"):
            rk4_simulate(model, 1, generic_state(model), t_end=t_end, dt=dt)

    @pytest.mark.parametrize("flow", [1, 2])
    def test_conservation_under_each_flow(self, flow):
        model = bcl_model()
        traj = rk4_simulate(model, flow, compact_state(), t_end=2.0, dt=1e-3, log_every=10)
        assert traj.ok
        for key in ("H1", "H2", "C1", "C2", "detB@0", "detB@1", "detB@2"):
            assert traj.drift(key) < 1e-8, key

    def test_halving_dt_cuts_global_error_by_two_to_the_fourth(self):
        # Richardson-style check: successive endpoint differences shrink by
        # about 2^4 when dt halves.  (The energy drift itself superconverges
        # at order ~5 for these flows, so the order-4 window applies to the
        # trajectory error.)
        model = bcl_model()
        state = compact_state()
        finals = []
        for dt in (4e-3, 2e-3, 1e-3):
            traj = rk4_simulate(model, 1, state, t_end=5.0, dt=dt, log_every=10**9)
            finals.append(traj.states[-1])
        d1 = max(abs(a - b) for a, b in zip(finals[0], finals[1]))
        d2 = max(abs(a - b) for a, b in zip(finals[1], finals[2]))
        assert 12 <= d1 / d2 <= 20, d1 / d2

    def test_convergence_order(self):
        model = bcl_model()
        result = convergence_order(model, 1, compact_state(), t_end=2.0, dts=(4e-3, 2e-3, 1e-3))
        assert result["order"] >= 3.8

    def test_nan_abort_keeps_last_state(self):
        # blow-up flow: H = exp-free quartic via (s1z)^2 pushes s+ exponentially;
        # huge dt forces overflow to inf within a few steps
        model = bcl_model()
        big = PhaseState((1e150, 1e150, 1e150, 1e150, 1e150, 1e150))
        h = s_z(1) * s_z(1) * s_z(1)
        traj = rk4_simulate(model, h, big, t_end=1.0, dt=0.5)
        assert not traj.ok
        assert "non-finite" in traj.message
        assert all(math.isfinite(v.real) for v in traj.states[-1])


def walk(poly, vals):
    """poly at vals without generated code: each term c * x * ... left to
    right in monomials() order, the terms summed left to right."""
    total = None
    for expo, coeff in poly.monomials():
        term = to_complex(coeff)
        for idx, e in enumerate(expo):
            for _ in range(e):
                term = term * vals[idx]
        total = term if total is None else total + term
    return 0j if total is None else total


def walked_det_b(coeffs, vals):
    b00 = b01 = b10 = 0j
    for m, c in enumerate(coeffs):
        b00 += c * 0.5 * vals[3 * m + 2]
        b01 += c * vals[3 * m]
        b10 += c * vals[3 * m + 1]
    return -b00 * b00 - b01 * b10


def oracle_rk4(model, h, state, t_end, dt):
    """RK4 with every row logged, by walking the exact polynomials; returns
    the trajectory's fields and the first rejected (non-finite) state."""
    fields = dynamics.vector_field(model, h)
    polys = {f"H{i}": hi for i, hi in enumerate(model.hamiltonians, start=1)}
    polys.update({f"C{j}": casimir(j) for j in range(1, model.L + 1)})
    coeffs = [[to_complex(c) for c in site_values(model, probe)] for probe in default_probes(model)]

    def monitors(vals):
        values = {key: walk(poly, vals) for key, poly in polys.items()}
        values.update({f"detB@{idx}": walked_det_b(c, vals) for idx, c in enumerate(coeffs)})
        return values

    def field(vals):
        return [walk(f, vals) for f in fields]

    vals = list(state.values)
    initial = monitors(vals)
    out = {"times": [state.t], "states": [tuple(vals)], "conserved": {key: [q] for key, q in initial.items()},
           "initial": initial, "max_change": dict.fromkeys(initial, 0.0), "rejected": None}
    for step in range(1, round(t_end / dt) + 1):
        k1 = field(vals)
        k2 = field([v + 0.5 * dt * d for v, d in zip(vals, k1)])
        k3 = field([v + 0.5 * dt * d for v, d in zip(vals, k2)])
        k4 = field([v + dt * d for v, d in zip(vals, k3)])
        new = [v + dt / 6.0 * (a + 2 * b + 2 * c + d) for v, a, b, c, d in zip(vals, k1, k2, k3, k4)]
        if not all(math.isfinite(x.real) and math.isfinite(x.imag) for x in new):
            out["rejected"] = new
            break
        vals = new
        out["times"].append(state.t + step * dt)
        out["states"].append(tuple(vals))
        for key, q in monitors(vals).items():
            out["conserved"][key].append(q)
            change = abs(q - initial[key])
            if change > out["max_change"][key]:
                out["max_change"][key] = change
    return out


def bit_patterns(value):
    """``value`` with every float and complex replaced by the bytes of its
    IEEE parts, which tell -0.0 from 0.0 where == cannot."""
    if isinstance(value, dict):
        return {key: bit_patterns(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [bit_patterns(item) for item in value]
    value = complex(value)
    return struct.pack("<dd", value.real, value.imag)


def assert_bitwise_equal(traj, want):
    for name in ("times", "states", "conserved", "initial", "max_change"):
        assert bit_patterns(getattr(traj, name)) == bit_patterns(want[name]), name
    assert traj.ok == (want["rejected"] is None)


TWO_L6 = {"case": "two-reflection", "params": {"a": "1", "b": "2", "c": "3"}, "z": ["1", "2", "4", "5", "7", "8"]}
Z3_L3 = {"case": "z3", "z": ["1", "2", "4"]}
SIGNED_ZEROS = (complex(0.5, -0.0), complex(-0.0, 1.25), complex(-0.0, -0.75), complex(1.5, 0.0),
                complex(0.0, -0.5), complex(-0.0, 0.0))


def complex_coefficient_hamiltonian():
    """A quadratic H over Q(zeta_3) on three sites: its flow's coefficients
    have nonzero imaginary parts of both signs."""
    w = zeta(3)
    return w * s_plus(1) * s_minus(2) + w ** 2 * s_z(1) * s_z(3) + (1 - 2 * w) * s_minus(1) * s_plus(3)


class TestCompiledStep:
    """The generated RK4 step and monitor pass against the walked oracle,
    compared by the bit patterns of every float, and the Python calls and
    operations a step makes."""

    @pytest.mark.parametrize("config, h", [
        ({"case": "bcl", "z": ["1", "2"]}, 2),
        ({"case": "two-reflection", "params": {"a": "1", "b": "2", "c": "3"}, "z": ["1", "2", "4"]}, 2),
        (Z3_L3, 3),
        (Z3_L3, complex_coefficient_hamiltonian()),
    ], ids=["bcl-L2", "two-L3", "z3-L3", "z3-L3-complex-H"])
    def test_matches_walked_oracle(self, config, h):
        model = model_from_config(config)
        state = generic_state(model)
        traj = rk4_simulate(model, h, state, t_end=0.3, dt=0.02)
        assert traj.ok and len(traj.times) == 16
        assert_bitwise_equal(traj, oracle_rk4(model, dynamics.hamiltonian_for(model, h), state, 0.3, 0.02))

    @pytest.mark.parametrize("state", ["seeded", "zero", "negative-zero", "signed-zeros"])
    @pytest.mark.parametrize("config, h", [(TWO_L6, 6), (TWO_L6, 3), (Z3_L3, 2), (Z3_L3, complex_coefficient_hamiltonian())],
                             ids=["two-L6-H6", "two-L6-H3", "z3-L3-H2", "z3-L3-complex-H"])
    def test_signed_zeros_match_walked_oracle(self, config, h, state):
        # the CLI's state at seed 1 holds -0.0: it draws sz < 0 at site 1, and
        # 2j * sz has real part -0.0
        model = model_from_config(config)
        dim = 3 * model.L
        values = {"seeded": default_initial_state(model, 1).values, "zero": (0j,) * dim,
                  "negative-zero": (complex(-0.0, -0.0),) * dim, "signed-zeros": (SIGNED_ZEROS * dim)[:dim]}[state]
        start = PhaseState(values)
        traj = rk4_simulate(model, h, start, t_end=0.1, dt=0.02)
        assert traj.ok and len(traj.times) == 6
        assert_bitwise_equal(traj, oracle_rk4(model, dynamics.hamiltonian_for(model, h), start, 0.1, 0.02))

    def test_abort_on_a_non_finite_imaginary_part_only(self):
        # H = s_1^z scales s_1^- by about 8221 per step at dt = 10; the third
        # step overflows only the imaginary part of s_1^-, in the last update
        model = bcl_model()
        state = PhaseState((0, complex(1.0, 4.4e296), 0.5, 0, 0, 0))
        want = oracle_rk4(model, s_z(1), state, 100.0, 10.0)
        rejected = want["rejected"]
        assert all(math.isfinite(x.real) for x in rejected)
        assert not all(math.isfinite(x.imag) for x in rejected)
        traj = rk4_simulate(model, s_z(1), state, t_end=100.0, dt=10.0)
        assert not traj.ok and "non-finite state at t = 30" in traj.message
        assert_bitwise_equal(traj, want)
        assert len(traj.times) == 3

    @staticmethod
    def calls_per_step(model, h):
        rk4_simulate(model, h, generic_state(model), t_end=0.01, dt=0.01)  # builds the model's H_i
        counts = []
        for steps in (20, 40):
            calls = 0

            def profile(frame, event, arg):
                nonlocal calls
                calls += event == "call"

            # a collection inside the window could close some earlier, unfinished
            # generator, which is one more call
            gc.collect()
            gc.disable()
            sys.setprofile(profile)
            try:
                rk4_simulate(model, h, generic_state(model), t_end=steps * 0.01, dt=0.01)
            finally:
                sys.setprofile(None)
                gc.enable()
            counts.append(calls)
        return (counts[1] - counts[0]) / 20

    def test_each_product_is_multiplied_once_up_to_sign(self):
        # host-independent: each stage of H_6's flow on two-L6 has 60 terms,
        # which are 30 products up to sign over 25 prefixes (c)*x_i
        model = model_from_config(TWO_L6)
        step = dynamics.compile_rk4_step(dynamics.vector_field(model, model.hamiltonians[5]))
        before_311 = {"BINARY_MULTIPLY": "*", "BINARY_TRUE_DIVIDE": "/"}
        ops = Counter(op.argrepr if op.opname == "BINARY_OP" else before_311.get(op.opname, op.opname)
                      for op in dis.get_instructions(step))
        # 4 stages of 55 products; half * dv_i, half * dp_i and dt * dq_i at the
        # stage points and 2 * dp_i, 2 * dq_i, sixth * (...) in the update, for
        # 18 coordinates; half = 0.5 * dt
        assert ops["*"] == 4 * 55 + 3 * 18 + 3 * 18 + 1 == 329
        assert ops["/"] == 1  # sixth = dt / 6.0
        assert ops["UNARY_NEGATIVE"] == 0  # every field here has a positive term to lead with

    def test_python_calls_per_step_do_not_grow_with_L(self):
        # host-independent: the fields and the monitors are one call each,
        # whatever the number of sites
        two_l6 = model_from_config({"case": "two-reflection", "params": {"a": "1", "b": "2", "c": "3"},
                                    "z": ["1", "2", "4", "5", "7", "8"]})
        small = self.calls_per_step(bcl_model(), 1)
        assert 0 < small == self.calls_per_step(two_l6, 6)


class TestSpectralScan:
    def test_eigenvalue_identity(self):
        model = bcl_model()
        state = generic_state(model)
        for entry in spectral_scan(model, state, default_probes(model)):
            mu1, mu2 = entry["eigenvalues"]
            for mu in (mu1, mu2):
                assert abs(mu * mu - entry["trB"] * mu + entry["detB"]) < 1e-10

    def test_isospectral_along_trajectory(self):
        model = bcl_model()
        state = compact_state()
        traj = rk4_simulate(model, 1, state, t_end=1.0, dt=1e-3, log_every=200)
        probes = default_probes(model)
        initial = spectral_scan(model, PhaseState(traj.states[0]), probes)
        for logged in traj.states[1:]:
            later = spectral_scan(model, PhaseState(logged), probes)
            for first, now in zip(initial, later):
                for mu0, mu1 in zip(sorted(first["eigenvalues"], key=abs),
                                    sorted(now["eigenvalues"], key=abs)):
                    assert abs(mu1 - mu0) <= 1e-7 * max(1.0, abs(mu0))

    def test_zero_state(self):
        model = bcl_model()
        zero = PhaseState((0,) * 6)
        for entry in spectral_scan(model, zero, default_probes(model)):
            assert entry["trB"] == 0 and entry["detB"] == 0
            assert entry["eigenvalues"] == (0, 0)

    def test_pole_proximity_skipped(self):
        # two-reflection tau(nu) = (nu + 2)/(3 nu - 1): a probe at the site 1
        # and one at the tau pole 1/3 are skipped, each naming its pole
        model = model_from_config({"case": "two-reflection", "z": ["1", "2"]})
        state = generic_state(model)
        at_site, at_tau_pole, kept = spectral_scan(model, state, [F(1), F(1, 3), F(5)])
        assert at_site["skipped"] and "tau^0(lam) = z_1" in at_site["warning"]
        assert at_tau_pole["skipped"] and "pole at nu = 1/3" in at_tau_pole["warning"]
        assert "skipped" not in kept and kept["lam"] == 5


class TestProbesAndCsv:
    def test_default_probes_avoid_poles(self):
        model = bcl_model(z=(1, 2))
        assert default_probes(model) == (F(5), F(7), F(9))

    def test_probe_bumping(self):
        # probes z_max + 3 = 5 collides with the site at 5 via tau = -nu? no;
        # use a site at 5 directly so the candidate must bump
        model = bcl_model(z=(1, 2, 5))
        probes = default_probes(model)
        assert F(5) not in probes and len(set(probes)) == 3

    def test_probe_exclusion_catches_only_poles(self, monkeypatch):
        model = bcl_model(z=(1, 2))
        # tau(nu) = -nu: candidates -2 and -1 map onto the sites 2 and 1
        assert default_probes(model, offsets=(-4,)) == (F(0),)

        def broken(model, lam):
            raise TypeError("not a pole")

        monkeypatch.setattr(dynamics, "site_values", broken)
        with pytest.raises(TypeError):
            default_probes(model)

    def test_csv_format(self, tmp_path):
        model = bcl_model()
        traj = rk4_simulate(model, 1, generic_state(model), t_end=0.05, dt=0.01, log_every=2)
        out = tmp_path / "traj.csv"
        write_csv(traj, out, model)
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "t"
        assert header[1:3] == ["H_1", "H_2"]
        assert header[3:5] == ["C_1", "C_2"]
        assert header[5:] == [f"probe{idx}_detB_{part}" for idx in range(3) for part in ("re", "im")]
        assert len(lines) == 1 + 4  # steps 0, 2, 4 and the last step 5

    def test_log_every_bounds_rows_not_drift(self):
        # rows are kept every log_every steps, while the drift is a running
        # maximum over every step, so both match the fully logged run
        model = bcl_model()
        full = rk4_simulate(model, 1, generic_state(model), t_end=0.5, dt=0.01)
        thin = rk4_simulate(model, 1, generic_state(model), t_end=0.5, dt=0.01, log_every=7)
        assert len(full.times) == 51
        assert thin.times == [full.times[i] for i in (*range(0, 51, 7), 50)]
        assert thin.states == [full.states[i] for i in (*range(0, 51, 7), 50)]
        assert sorted(thin.conserved) == sorted(full.conserved)
        assert all(thin.drift(key) == full.drift(key) for key in full.conserved)
        assert all(full.drift(key) > 0 for key in ("H2", "detB@0"))
        with pytest.raises(ModelError):
            rk4_simulate(model, 1, generic_state(model), t_end=0.5, dt=0.01, log_every=0)


def test_phase_state_helpers():
    state = PhaseState((1, 2, 3, 4, 5, 6))
    assert state.values == tuple(complex(v) for v in range(1, 7))
    with pytest.raises(ValueError, match="finite"):
        PhaseState((float("nan"), 0, 0))
    with pytest.raises(ValueError, match="3 L"):
        PhaseState((1, 2))


def test_flow_builds_each_hamiltonian_once(monkeypatch):
    # the flow, its H monitors and repeated runs all read model.hamiltonians
    from nreflect import gaudin

    built = []
    original = gaudin.hamiltonian_explicit

    def counted(model, i):
        built.append(i)
        return original(model, i)

    monkeypatch.setattr(gaudin, "hamiltonian_explicit", counted)
    model = bcl_model(z=(1, 2, 4))
    convergence_order(model, 2, generic_state(model), t_end=0.02, dts=(0.01, 0.005, 0.0025))
    assert built == [1, 2, 3]
    with pytest.raises(ModelError, match="H_0"):
        rk4_simulate(model, 0, generic_state(model), t_end=0.02, dt=0.01)
