from fractions import Fraction

import pytest

from nreflect.errors import ModelError, PoleError
from nreflect.gaudin import (
    GaudinModel,
    big_B_at,
    case_for_config,
    hamiltonian_explicit,
    hamiltonian_residue,
    hamiltonians_text,
    involution_residual,
    lax_residual,
    m_matrix,
    mk_residual,
    model_from_config,
    rbb_inputs,
    rbb_residual,
    residue_sum_check,
    s_pair,
    site_values,
    trB_bracket_residual,
)
from nreflect.linalg import Matrix
from nreflect.reflection import identity_k_two_reflection, trivial_case
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


def spin_block(L, m):
    """ell_m = [[s_m^z/2, s_m^+], [s_m^-, -s_m^z/2]]."""
    return Matrix([[F(1, 2) * s_z(L, m), s_plus(L, m)], [s_minus(L, m), F(-1, 2) * s_z(L, m)]])


def local_block(L, m, x):
    """ell_m / x, the single-site block at the shifted argument x != 0."""
    return spin_block(L, m).scale(1 / x)


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
        ell = big_B_at(model, F(2))
        assert ell[0, 0] == F(1, 4) * s_z(1, 1)
        assert ell[0, 1] == F(1, 2) * s_plus(1, 1)

    def test_pole_at_zero(self):
        with pytest.raises(PoleError):
            big_B_at(model_from_config({"case": "plain", "z": [0]}), F(0))

    def test_local_poisson_relation(self):
        # {ell_a(1,lam), ell_b(1,mu)} = [P/(lam-mu), ell_a + ell_b], checked
        # entrywise as spin polynomials at (lam, mu) = (2, 3)
        from nreflect.gaudin import _bracket_matrix
        from nreflect.linalg import commutator, tensor_pair

        model = bcl_model()
        lam, mu = F(2), F(3)
        ea, eb = local_block(model.L, 1, lam), local_block(model.L, 1, mu)
        eye = Matrix.identity(2)
        lhs = _bracket_matrix(model.L, ea, eb)
        r_val = rational_r(2)(lam, mu)
        rhs = commutator(r_val, tensor_pair(ea, eye) + tensor_pair(eye, eb))
        assert (lhs - rhs).is_zero()


class TestBigB:
    def test_trivial_structure_is_plain_sum(self):
        model = model_from_config({"case": "plain", "z": [1, 2]})
        lam = F(5)
        expected = local_block(2, 1, lam - 1) + local_block(2, 2, lam - 2)
        assert big_B_at(model, lam) == expected

    def test_bcl_single_site(self):
        model = model_from_config({"case": "bcl", "z": [1]})
        lam = F(5)
        expected = local_block(1, 1, lam - 1) - local_block(1, 1, -lam - 1)
        assert big_B_at(model, lam) == expected

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            big_B_at(bcl_model(), F(1))

    def test_symbolic_root_set(self):
        # c_m has poles at z_m, at tau(z_m) (tau is an involution) and at the
        # weight pole a/c = 1/3; together they are the poles of B
        model = two_reflection_model(z=(1, 2))
        tau = model.case.tau
        for zm, c in zip(model.sites, model.site_coefficients):
            assert {root for root, _ in c.roots} == {zm, tau(zm), F(1, 3)}

    def test_symbolic_matches_fixed_evaluation(self):
        # sum_m c_m(lam) ell_m from the rational functions c_m, and the defining
        # double sum over sites and orbit points, both give big_B_at
        model = three_reflection_model()
        case = model.case
        for lam in (F(7), F(-3, 2), F(11, 5)):
            from_coefficients = None
            by_definition = None
            for m, (zm, c) in enumerate(zip(model.sites, model.site_coefficients), start=1):
                term = spin_block(model.L, m).scale(c.eval_at(lam))
                from_coefficients = term if from_coefficients is None else from_coefficients + term
                for j, point in enumerate(case.orbit(lam)):
                    term = local_block(model.L, m, point - zm).scale(case.weights(j, lam))
                    by_definition = term if by_definition is None else by_definition + term
            fixed = big_B_at(model, lam)
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
        expected = F(-2, 3) * s_pair(2, 1, 2) + F(1, 2) * casimir(2, 1)
        assert h1 == expected

    def test_two_reflection_pair_coefficient(self):
        model = two_reflection_model(z=(1, 2))
        h1 = hamiltonian_explicit(model, 1)
        # coefficient of s1+ s2-: 1/(1-2) + 7/((1-3)(2+3-6)) = 5/2
        (expo,) = (s_plus(2, 1) * s_minus(2, 2)).terms
        assert h1.terms[expo] == F(5, 2)

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
        probe = s_plus(2, 1) * s_minus(2, 2)
        (expo,) = probe.terms
        assert h1.terms[expo] == expected


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

    def test_tampered_hamiltonian_fails(self):
        model = two_reflection_model(z=(1, 2, 4))
        h1 = hamiltonian_explicit(model, 1)
        h2 = hamiltonian_explicit(model, 2)
        expo = next(iter(s_pair(3, 2, 3).terms))
        broken = dict(h2.terms)
        broken[expo] = F(1)
        h2_broken = SpinPoly(model.L, broken)
        assert not poisson_bracket(h1, h2_broken).is_zero()

    def test_hamiltonians_commute_with_casimirs(self):
        model = two_reflection_model(z=(1, 2, 4))
        for i in range(1, 4):
            h = hamiltonian_explicit(model, i)
            for j in range(1, 4):
                assert poisson_bracket(h, casimir(3, j)).is_zero()


class TestResidueTheorem:
    def test_total_residue_vanishes(self):
        # per pair (m, k): finite residues plus infinity of c_m c_k sum to 0
        for model in (two_reflection_model((1, 2)), three_reflection_model((2, 5)), bcl_model((1, 2))):
            totals = residue_sum_check(model)
            assert sorted(totals) == [(1, 1), (1, 2), (2, 2)]
            assert all(not total for total in totals.values())


def seeded_structural_pairs(model, count=5):
    rng = SplitMix64(DEFAULT_SEED)
    return [pt for pt, _ in sample_evaluated(rng, count, 2, lambda lam, mu: rbb_inputs(model, lam, mu))]


class TestStructuralIdentities:
    @pytest.mark.parametrize("builder,z", [
        (two_reflection_model, (1, 2)),
        (three_reflection_model, (2, 5)),
    ])
    def test_rbb(self, builder, z):
        model = builder(z=z)
        for lam, mu in seeded_structural_pairs(model, count=3):
            assert rbb_residual(model, lam, mu).is_zero()

    def test_rbb_trivial_structure(self):
        model = model_from_config({"case": "plain", "z": [1, 2]})
        assert rbb_residual(model, F(5), F(7)).is_zero()

    def test_trB_brackets(self):
        model = two_reflection_model(z=(1, 2))
        assert trB_bracket_residual(model, 2, 2, F(5), F(7)).is_zero()
        assert trB_bracket_residual(model, 2, 3, F(5), F(7)).is_zero()
        assert trB_bracket_residual(model, 2, 2, F(5), F(5)).is_zero()

    def test_lax(self):
        model = two_reflection_model(z=(1, 2))
        assert lax_residual(model, F(5), F(7), 2).is_zero()

    def test_lax_p1(self):
        model = two_reflection_model(z=(1, 2))
        m = m_matrix(model, F(5), F(7), 1)
        # spin-independent: tr_a(rbar_ba) of a permutation-type matrix is scalar
        assert all(not isinstance(entry, SpinPoly) or set(entry.terms) <= {(0,) * 6}
                   for row in m.rows for entry in row)
        assert lax_residual(model, F(5), F(7), 1).is_zero()

    def test_mk(self):
        model = three_reflection_model(z=(2, 5))
        for lam, nu in seeded_structural_pairs(model, count=3):
            assert mk_residual(model, lam, nu, 2).is_zero()

    @pytest.mark.parametrize("check", [
        lambda model: lax_residual(model, F(5), F(7), 0),
        lambda model: m_matrix(model, F(5), F(7), 0),
        lambda model: mk_residual(model, F(5), F(7), -1),
        lambda model: trB_bracket_residual(model, 0, 2, F(5), F(7)),
        lambda model: trB_bracket_residual(model, 2, 0, F(5), F(7)),
    ], ids=["lax-p0", "m-p0", "mk-p-1", "trbrackets-p0", "trbrackets-q0"])
    def test_power_below_one_is_a_model_error(self, check):
        # tr B^0 = 2 and B^-1 would need a spin-polynomial inverse: neither is a check
        with pytest.raises(ModelError, match="at least 1"):
            check(bcl_model())


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
