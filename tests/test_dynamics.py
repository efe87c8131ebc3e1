import math
from fractions import Fraction

import pytest

from nreflect import dynamics
from nreflect.dynamics import (
    PhaseState,
    compile_spinpoly,
    convergence_order,
    default_probes,
    rk4_simulate,
    spectral_scan,
    vector_field_callables,
    write_csv,
)
from nreflect.errors import ModelError
from nreflect.gaudin import hamiltonian_explicit, model_from_config
from nreflect.spinalg import SpinPoly, casimir, s_z

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


def vector_field(model, hamiltonian, state):
    """The derivatives {x, H} at the state, by the compiled fields RK4 steps with."""
    return [f(list(state.values)) for f in vector_field_callables(model, hamiltonian)]


class TestVectorField:
    def test_casimir_generates_no_flow(self):
        model = bcl_model()
        state = generic_state(model)
        derivs = vector_field(model, casimir(2, 1), state)
        assert all(abs(d) < 1e-15 for d in derivs)

    def test_sz_flow_sign(self):
        # H = s_1^z: ds+/dt = {s+, sz} = -2 s+ by the generator table
        model = bcl_model()
        state = generic_state(model)
        derivs = vector_field(model, s_z(2, 1), state)
        assert abs(derivs[0] - (-2) * state.values[0]) < 1e-15
        assert abs(derivs[1] - 2 * state.values[1]) < 1e-15

    def test_matches_finite_differences(self):
        # independent oracle: assemble the flow from numeric gradients of H
        # and the bracket table {x_a, x_b} evaluated at the state
        model = bcl_model()
        state = generic_state(model)
        h = hamiltonian_explicit(model, 1)
        h_fn = compile_spinpoly(h)
        eps = 1e-6
        vals = list(state.values)

        def grad(idx):
            up = list(vals)
            down = list(vals)
            up[idx] += eps
            down[idx] -= eps
            return (h_fn(up) - h_fn(down)) / (2 * eps)

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
        traj = rk4_simulate(model, SpinPoly.zero(2), state, t_end=0.1, dt=0.01)
        assert traj.ok
        assert traj.states[0] == traj.states[-1]

    def test_invalid_dt(self):
        model = bcl_model()
        with pytest.raises(ModelError):
            rk4_simulate(model, 1, generic_state(model), t_end=1.0, dt=0.0)

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
        h = s_z(2, 1) * s_z(2, 1) * s_z(2, 1)
        traj = rk4_simulate(model, h, big, t_end=1.0, dt=0.5)
        assert not traj.ok
        assert "non-finite" in traj.message
        assert all(math.isfinite(v.real) for v in traj.states[-1])


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
    assert state.sites == 2
    assert state.value(2, "z") == 6
    with pytest.raises(ValueError):
        PhaseState((float("nan"), 0, 0))
