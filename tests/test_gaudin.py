from fractions import Fraction

import pytest

from nreflect.errors import ModelError, PoleError
from nreflect import gaudin
from nreflect.gaudin import (
    SpinRows,
    big_B,
    case_for_config,
    hamiltonian_explicit,
    hamiltonian_residue,
    hamiltonians_text,
    involution_residual,
    model_from_config,
    residue_sum_check,
    s_pair,
    sampled_residual,
    site_values,
)
from nreflect.rmatrix import rational_r
from nreflect.sampling import DEFAULT_SEED, SplitMix64, sample_evaluated
from nreflect.scalars import zeta
from nreflect.spinalg import SpinPoly, casimir, poisson_bracket, s_minus, s_plus, s_z

F = Fraction


def two_reflection_model(z=(1, 2)):
    return model_from_config({"case": "two-reflection", "params": {"a": 1, "b": 2, "c": 3}, "z": list(z)})


def three_reflection_model(z=(2, 5)):
    return model_from_config({"case": "three-reflection", "params": {"a": 1, "b": 3, "c": -1, "d": 1}, "z": list(z)})


def bcl_model(z=(1, 2)):
    return model_from_config({"case": "bcl", "z": list(z)})


def z3_model(z=(1, 2)):
    return model_from_config({"case": "z3", "z": list(z)})


def spin_block(m):
    """ell_m = [[s_m^z/2, s_m^+], [s_m^-, -s_m^z/2]]."""
    return ((F(1, 2) * s_z(m), s_plus(m)), (s_minus(m), F(-1, 2) * s_z(m)))


def block_sum(terms):
    """sum c ell_m over the (c, m) pairs, entry by entry: for c = 1/x the
    single-site block ell_m / x at the shifted argument x != 0."""
    return tuple(tuple(sum((c * spin_block(m)[i][j] for c, m in terms), SpinPoly()) for j in range(2))
                 for i in range(2))


def B_at(model, lam):
    return big_B(site_values(model, lam))


class TestModelValidation:
    def test_distinct_sites(self):
        with pytest.raises(ModelError, match="mutually distinct"):
            two_reflection_model(z=(1, 1))

    def test_orbit_coincidence_rejected(self):
        # bcl has tau = -nu, so sites 1 and -1 collide through the orbit
        with pytest.raises(ModelError, match="orbits"):
            bcl_model(z=(1, -1))

    def test_site_at_weight_pole_rejected(self):
        # three-reflection weights blow up at nu = 1 for these parameters
        with pytest.raises(ModelError):
            three_reflection_model(z=(1, 2))

    def test_fixed_point_rejected(self):
        with pytest.raises(ModelError):
            bcl_model(z=(0, 2))

    def test_bad_kind(self):
        with pytest.raises(ModelError, match="unknown model kind"):
            model_from_config({"case": "spam", "z": [1]})

    def test_length_mismatch(self):
        with pytest.raises(ModelError):
            model_from_config({"case": "bcl", "L": 3, "z": [1, 2]})


class TestLocalLax:
    # B of the one-site model with no reflection is the local block ell_1 / (lam - z_1)
    def test_entry(self):
        model = model_from_config({"case": "plain", "z": [0]})
        ell = B_at(model, F(2))
        assert type(ell) is SpinRows
        assert ell[0][0] == F(1, 4) * s_z(1)
        assert ell[0][1] == F(1, 2) * s_plus(1)

    def test_pole_at_zero(self):
        with pytest.raises(PoleError):
            B_at(model_from_config({"case": "plain", "z": [0]}), F(0))

    def test_local_poisson_relation(self):
        # {ell_a(1,lam), ell_b(1,mu)} = [P/(lam-mu), ell_a + ell_b], checked
        # entrywise as spin polynomials at (lam, mu) = (2, 3), with the
        # entrywise references of the matrix oracle
        from test_oracle_matrix import ref_kron, ref_mul

        lam, mu = F(2), F(3)
        ea, eb = block_sum([(1 / lam, 1)]), block_sum([(1 / mu, 1)])
        eye = ((F(1), F(0)), (F(0), F(1)))
        lhs = [[poisson_bracket(x, y) for x in ra for y in rb] for ra in ea for rb in eb]
        r_val = rational_r(2)(lam, mu).rows
        total = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(ref_kron(ea, eye), ref_kron(eye, eb))]
        rhs = [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(ref_mul(r_val, total), ref_mul(total, r_val))]
        assert lhs == rhs and any(f for row in lhs for f in row)


class TestSpinRows:
    def test_product_trace_and_row_major_witness(self):
        zero = SpinPoly()
        a = SpinRows(((zero, s_plus(1)), (s_minus(2), s_z(1))))
        b = SpinRows(((s_z(2), zero), (zero, SpinPoly.const(3))))
        assert a * b == ((zero, 3 * s_plus(1)), (s_minus(2) * s_z(2), 3 * s_z(1)))
        assert a * SpinRows.identity(2) == a == SpinRows.identity(2) * a
        assert (a * b).trace() == 3 * s_z(1) and SpinRows.identity(3).trace() == 3
        # row by row, as Matrix.first_nonzero: (0, 1) comes before (1, 0)
        assert a.first_nonzero() == (0, 1, s_plus(1))
        assert SpinRows(((zero, zero), (s_z(1), zero))).first_nonzero() == (1, 0, s_z(1))
        assert not a.is_zero() and SpinRows(((zero, zero), (zero, zero))).is_zero()


class TestBigB:
    def test_trivial_structure_is_plain_sum(self):
        model = model_from_config({"case": "plain", "z": [1, 2]})
        lam = F(5)
        expected = block_sum([(1 / (lam - 1), 1), (1 / (lam - 2), 2)])
        assert B_at(model, lam) == expected

    def test_bcl_single_site(self):
        model = model_from_config({"case": "bcl", "z": [1]})
        lam = F(5)
        expected = block_sum([(1 / (lam - 1), 1), (-1 / (-lam - 1), 1)])
        assert B_at(model, lam) == expected

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            B_at(bcl_model(), F(1))

    def test_symbolic_root_set(self):
        # c_m has poles at z_m, at tau(z_m) (tau is an involution) and at the
        # weight pole a/c = 1/3; together they are the poles of B
        model = two_reflection_model(z=(1, 2))
        tau = model.case.tau
        for zm, c in zip(model.sites, model.site_coefficients):
            assert {root for root, _ in c.roots} == {zm, tau(zm), F(1, 3)}

    def test_symbolic_matches_fixed_evaluation(self):
        # sum_m c_m(lam) ell_m from the rational functions c_m, and the defining
        # double sum over sites and orbit points, both give B_at
        model = three_reflection_model()
        case = model.case
        for lam in (F(7), F(-3, 2), F(11, 5)):
            sites = list(enumerate(zip(model.sites, model.site_coefficients), start=1))
            from_coefficients = block_sum([(c.eval_at(lam), m) for m, (_, c) in sites])
            by_definition = block_sum([(case.weights(j, lam) / (point - zm), m)
                                       for m, (zm, _) in sites for j, point in enumerate(case.orbit(lam))])
            fixed = B_at(model, lam)
            assert from_coefficients == fixed
            assert by_definition == fixed

    def test_site_values_raise_at_every_pole_of_B(self):
        # every term's pole is a pole of B, including the weight pole
        model = two_reflection_model(z=(1, 2))
        for lam in (F(1), F(2), model.case.tau(F(2)), F(1, 3)):
            with pytest.raises(PoleError):
                site_values(model, lam)


class TestHamiltonians:
    def test_bcl_closed_form(self):
        model = bcl_model(z=(1, 2))
        h1 = hamiltonian_residue(model, 1)
        expected = F(-2, 3) * s_pair(1, 2) + F(1, 2) * casimir(1)
        assert h1 == expected

    def test_two_reflection_pair_coefficient(self):
        model = two_reflection_model(z=(1, 2))
        h1 = hamiltonian_explicit(model, 1)
        # coefficient of s1+ s2-: 1/(1-2) + 7/((1-3)(2+3-6)) = 5/2
        ((expo, _),) = (s_plus(1) * s_minus(2)).monomials()
        assert dict(h1.monomials())[expo] == F(5, 2)

    @pytest.mark.parametrize("builder,z", [
        (two_reflection_model, (1, 2)),
        (two_reflection_model, (1, 2, 4)),
        (three_reflection_model, (2, 5)),
        (three_reflection_model, (2, 5, 9)),
        (bcl_model, (1, 2)),
        (z3_model, (1, 2)),
    ])
    def test_residue_equals_explicit(self, builder, z):
        model = builder(z=z)
        for m in range(1, model.L + 1):
            assert hamiltonian_residue(model, m) == hamiltonian_explicit(model, m)

    def test_z3_pair_coefficient(self):
        # coefficient of S_12 is 1/(1-2) + 1/(1-2w) + 1/(1-2w^2) with w = zeta_3
        model = z3_model(z=(1, 2))
        w = zeta(3)
        expected = 1 / (1 - F(2)) + 1 / (1 - 2 * w) + 1 / (1 - 2 * w**2)
        h1 = hamiltonian_explicit(model, 1)
        probe = s_plus(1) * s_minus(2)
        ((expo, _),) = probe.monomials()
        assert dict(h1.monomials())[expo] == expected


class TestInvolution:
    @pytest.mark.parametrize("builder,z", [
        (two_reflection_model, (1, 2, 4)),
        (three_reflection_model, (2, 5, 9)),
        (bcl_model, (1, 2, 4)),
        (z3_model, (1, 2, 4)),
    ])
    def test_hamiltonians_commute(self, builder, z):
        model = builder(z=z)
        for i in range(1, model.L + 1):
            for k in range(i + 1, model.L + 1):
                assert involution_residual(model, i, k).is_zero()

    def test_each_hamiltonian_is_differentiated_once(self, monkeypatch):
        calls = []
        differentiate = gaudin.partials
        monkeypatch.setattr(gaudin, "partials", lambda f: calls.append(f) or differentiate(f))
        model = two_reflection_model(z=(1, 2, 4, 5, 7, 8, 10, 11))
        for i in range(1, model.L + 1):
            for k in range(i + 1, model.L + 1):
                assert involution_residual(model, i, k).is_zero()
        assert len(calls) == model.L

    def test_tampered_model_hamiltonian_fails(self):
        # involution reads the model's cached partials: each must be its own H_i's
        model = two_reflection_model(z=(1, 2, 4))
        h1, h2, h3 = model.hamiltonians
        model.__dict__["hamiltonians"] = (h1, h2 + s_plus(2) * s_minus(3), h3)
        assert not involution_residual(model, 1, 2).is_zero()
        assert not involution_residual(model, 2, 3).is_zero()
        assert involution_residual(model, 1, 3).is_zero()

    def test_tampered_hamiltonian_fails(self):
        model = two_reflection_model(z=(1, 2, 4))
        h1 = hamiltonian_explicit(model, 1)
        h2 = hamiltonian_explicit(model, 2)
        monomial = s_z(2) * s_z(3)  # the first term of S_23
        ((expo, _),) = monomial.monomials()
        coeffs = dict(h2.monomials())
        h2_broken = h2 + (1 - coeffs[expo]) * monomial
        assert dict(h2_broken.monomials()) == {**coeffs, expo: F(1)}
        assert not poisson_bracket(h1, h2_broken).is_zero()

    def test_hamiltonians_commute_with_casimirs(self):
        model = two_reflection_model(z=(1, 2, 4))
        for i in range(1, 4):
            h = hamiltonian_explicit(model, i)
            for j in range(1, 4):
                assert poisson_bracket(h, casimir(j)).is_zero()


class TestResidueTheorem:
    def test_total_residue_vanishes(self):
        # per pair (m, k): finite residues plus infinity of c_m c_k sum to 0
        for model in (two_reflection_model((1, 2)), three_reflection_model((2, 5)), bcl_model((1, 2))):
            totals = residue_sum_check(model)
            assert sorted(totals) == [(1, 1), (1, 2), (2, 2)]
            assert all(not total for total in totals.values())


def seeded_structural_pairs(model, sub, count=5, p=2, q=2):
    """[((lam, mu), residual)] of ``sub`` at seeded sample pairs."""
    rng = SplitMix64(DEFAULT_SEED)
    return list(sample_evaluated(rng, count, 2, lambda lam, mu: sampled_residual(model, sub, lam, mu, p, q)))


class TestStructuralIdentities:
    @pytest.mark.parametrize("builder,z", [
        (two_reflection_model, (1, 2)),
        (three_reflection_model, (2, 5)),
    ])
    def test_rbb(self, builder, z):
        model = builder(z=z)
        for _, residual in seeded_structural_pairs(model, "rbb", count=3):
            assert residual.is_zero()

    def test_rbb_trivial_structure(self):
        model = model_from_config({"case": "plain", "z": [1, 2]})
        assert sampled_residual(model, "rbb", F(5), F(7)).is_zero()

    def test_trB_brackets(self):
        model = two_reflection_model(z=(1, 2))
        assert sampled_residual(model, "trbrackets", F(5), F(7), 2, 2).is_zero()
        assert sampled_residual(model, "trbrackets", F(5), F(7), 2, 3).is_zero()
        # rbar has a pole at lam = mu, so the bracket there is taken of B(5) directly
        b = B_at(model, F(5))
        assert poisson_bracket((b * b).trace(), (b * b).trace()).is_zero()
        assert not (b * b).trace().is_zero()

    def test_lax(self):
        model = two_reflection_model(z=(1, 2))
        assert sampled_residual(model, "lax", F(5), F(7), 2).is_zero()

    def test_lax_p1(self):
        # tr B(lam) = 0, so the residual is [B(mu), M] with the spin-free M = tr_a(rbar_ba)
        model = two_reflection_model(z=(1, 2))
        assert sampled_residual(model, "lax", F(5), F(7), 1).is_zero()

    def test_mk(self):
        model = three_reflection_model(z=(2, 5))
        for _, residual in seeded_structural_pairs(model, "mk", count=3):
            assert residual.is_zero()

    @pytest.mark.parametrize("sub,p,q", [
        ("lax", 0, 2),
        ("mk", -1, 2),
        ("trbrackets", 0, 2),
        ("trbrackets", 2, 0),
    ], ids=["lax-p0", "mk-p-1", "trbrackets-p0", "trbrackets-q0"])
    def test_power_below_one_is_a_model_error(self, sub, p, q):
        # tr B^0 = 2 and B^-1 would need a spin-polynomial inverse: neither is a check
        with pytest.raises(ModelError, match="at least 1"):
            sampled_residual(bcl_model(), sub, F(5), F(7), p, q)

    def test_unknown_identity(self):
        with pytest.raises(ValueError, match="unknown structural identity"):
            sampled_residual(bcl_model(), "spam", F(5), F(7))


class TestOneFramePerPoint:
    """B(lam), B(mu) and both rbar matrices of a sample pair come from one
    point frame at lam and one at mu, whichever identity is asked for."""

    @pytest.mark.parametrize("sub", ["rbb", "lax", "trbrackets", "mk"])
    def test_two_frames_per_call(self, sub, monkeypatch):
        evaluated = []
        original = gaudin.point_frame

        def counted(case, nu):
            evaluated.append(nu)
            return original(case, nu)

        monkeypatch.setattr(gaudin, "point_frame", counted)
        model = three_reflection_model(z=(2, 5))
        assert sampled_residual(model, sub, F(7), F(-3, 2)).is_zero()
        assert sorted(evaluated) == [F(-3, 2), F(7)]


class TestConfig:
    def test_case_for_config_z3_constraint(self):
        case = case_for_config("z3", {})
        w = zeta(3)
        assert case.params["a"] == w
        assert case.tau(F(1)) == w

    def test_exact_string_params(self):
        model = model_from_config({"case": "two-reflection",
                                   "params": {"a": "1", "b": "5/2", "c": "3"},
                                   "z": ["1", "2"]})
        assert model.case.params["b"] == F(5, 2)

    def test_bad_scalar(self):
        with pytest.raises(ModelError):
            model_from_config({"case": "bcl", "z": ["spam"]})

    def test_hamiltonian_dump_mentions_bcl_coupling(self):
        model = bcl_model(z=(1, 2))
        text = hamiltonians_text(model)
        assert "s1+*s2-" in text
