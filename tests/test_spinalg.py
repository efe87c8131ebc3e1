import copy
from fractions import Fraction

import pytest

import nreflect.gaudin
from nreflect.errors import DegreeError
from nreflect.gaudin import model_from_config, s_pair, sampled_residual
from nreflect.sampling import SplitMix64
from nreflect.scalars import to_complex, zeta
from nreflect.spinalg import (
    MAX_EXPONENT,
    SpinPoly,
    casimir,
    partials,
    poisson_bracket,
    s_minus,
    s_plus,
    s_z,
)
from test_dynamics import evaluated

F = Fraction


class TestGeneratorTable:
    def test_plus_minus(self):
        assert poisson_bracket(s_plus(1), s_minus(1)) == s_z(1)

    def test_locality(self):
        assert poisson_bracket(s_z(1), s_plus(2)).is_zero()

    def test_z_with_plus(self):
        assert poisson_bracket(s_z(1), s_plus(1)) == 2 * s_plus(1)
        assert poisson_bracket(s_z(1), s_minus(1)) == -2 * s_minus(1)

    def test_leibniz_example(self):
        # {s+ s-, sz} = s+ {s-, sz} + {s+, sz} s- = s+(2s-) + (-2s+)s- = 0
        f = s_plus(1) * s_minus(1)
        assert poisson_bracket(f, s_z(1)).is_zero()


class TestCasimir:
    def test_commutes_with_generators(self):
        c = casimir(1)
        for g in (s_plus(1), s_minus(1), s_z(1)):
            assert poisson_bracket(c, g).is_zero()

    def test_disjoint_site(self):
        assert poisson_bracket(casimir(1), s_z(2)).is_zero()

    def test_value(self):
        # flat coordinates (s1+, s1-, s1z) = (1, 3, 2): C = sz^2/2 + 2 s+ s- = 8
        assert evaluated([casimir(1)], [1, 3, 2]) == [8]


def exact_value(poly, values):
    """sum of coeff * prod values[i]^e over the terms, in exact arithmetic."""
    total = F(0)
    for expo, coeff in poly.monomials():
        term = coeff
        for value, e in zip(values, expo):
            term = term * value**e
        total = total + term
    return total


class TestEvaluateGradient:
    """Numeric evaluation goes through the monitors that ``simulate`` compiles."""

    def test_single_variable(self):
        assert evaluated([s_z(1)], [0, 0, 5]) == [5]

    def test_gradient(self):
        f = s_plus(1) * s_minus(1)
        (site, (d_plus, d_minus, d_z)), = partials(f).items()
        assert site == 1
        assert d_plus == s_minus(1)
        assert d_minus == s_plus(1)
        assert d_z.is_zero()

    def test_missing_variable(self):
        with pytest.raises(ValueError, match="not enough values to unpack"):
            evaluated([s_z(1)], [1])

    def test_numeric_matches_exact(self):
        rng = SplitMix64(5)
        f = _random_quadratic(rng, 2)
        values = [F(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(6)]
        (numeric,) = evaluated([f], [complex(v) for v in values])
        assert abs(to_complex(exact_value(f, values)) - numeric) < 1e-12

    def test_cyclotomic_coefficients(self):
        f = zeta(3) * s_z(1)
        (value,) = evaluated([f], [0.0, 0.0, 2.0])
        assert abs(value - 2 * to_complex(zeta(3))) < 1e-12


def _random_quadratic(rng, sites):
    gens = [SpinPoly.generator(j, k) for j in range(1, sites + 1) for k in "+-z"]
    poly = SpinPoly.const(F(rng.randint(-3, 3)))
    for _ in range(4):
        a = gens[rng.randint(0, len(gens) - 1)]
        b = gens[rng.randint(0, len(gens) - 1)]
        coeff = F(rng.randint(-4, 4), rng.randint(1, 4))
        poly = poly + coeff * a * b
    for _ in range(2):
        a = gens[rng.randint(0, len(gens) - 1)]
        poly = poly + F(rng.randint(-4, 4)) * a
    return poly


class TestBracketProperties:
    def test_antisymmetry(self):
        rng = SplitMix64(0xA5)
        for _ in range(100):
            f = _random_quadratic(rng, 2)
            g = _random_quadratic(rng, 2)
            assert (poisson_bracket(f, g) + poisson_bracket(g, f)).is_zero()

    def test_jacobi(self):
        rng = SplitMix64(0x1ACB)
        for _ in range(100):
            sites = rng.randint(1, 3)
            f = _random_quadratic(rng, sites)
            g = _random_quadratic(rng, sites)
            h = _random_quadratic(rng, sites)
            total = (poisson_bracket(f, poisson_bracket(g, h))
                     + poisson_bracket(g, poisson_bracket(h, f))
                     + poisson_bracket(h, poisson_bracket(f, g)))
            assert total.is_zero()

    def test_leibniz(self):
        rng = SplitMix64(0x1EB)
        for _ in range(100):
            f = _random_quadratic(rng, 2)
            g = _random_quadratic(rng, 2)
            h = _random_quadratic(rng, 2)
            lhs = poisson_bracket(f * g, h)
            rhs = f * poisson_bracket(g, h) + poisson_bracket(f, h) * g
            assert (lhs - rhs).is_zero()


def test_str_rendering():
    f = F(5, 2) * s_z(1) * s_z(2) + s_plus(1) * s_minus(2)
    text = str(f)
    assert "5/2*s1z*s2z" in text and "s1+*s2-" in text


def _padded(key, width=9):
    return key + (0,) * (width - len(key))


def _exponents(poly):
    return [expo for expo, _ in poly.monomials()]


class TestTrimmedKeys:
    """``SpinPoly.monomials`` reads the packed keys as exponent tuples
    without trailing zeros, in the order of the zero-padded tuples."""

    def test_constant_key_is_empty(self):
        assert _exponents(SpinPoly.const(F(3))) == [()]
        assert _exponents(s_z(2)) == [(0, 0, 0, 0, 0, 1)]

    def test_no_key_ends_in_zero(self):
        rng = SplitMix64(0x7123)
        for _ in range(60):
            f, g = _random_quadratic(rng, rng.randint(1, 3)), _random_quadratic(rng, rng.randint(1, 3))
            results = [f + g, f - g, f * g, poisson_bracket(f, g)]
            results += [d for trio in partials(f).values() for d in trio]
            for poly in results:
                keys = _exponents(poly)
                assert all(not key or key[-1] for key in keys)
                assert [_padded(key) for key in keys] == sorted(_padded(key) for key in keys)

    def test_cancelling_sum_drops_the_key(self):
        f = s_plus(1) * s_z(3) + s_minus(2)
        assert (f - s_plus(1) * s_z(3)).monomials() == s_minus(2).monomials()
        assert (partials(f)[3][2] * s_minus(1)).monomials() == [((1, 1), F(1))]


class TestPower:
    def test_negative_exponent_raises(self):
        with pytest.raises(ValueError, match="no inverse"):
            s_z(1) ** -1

    def test_zeroth_power_is_one(self):
        assert s_z(1) ** 0 == SpinPoly.const(1)
        assert s_z(1) ** 1 == s_z(1)

    def test_square_is_one_product(self, monkeypatch):
        calls = []
        product = SpinPoly.__mul__

        def counted(self, other):
            calls.append(other)
            return product(self, other)

        monkeypatch.setattr(SpinPoly, "__mul__", counted)
        square = s_z(1) ** 2
        assert len(calls) == 1
        assert square.monomials() == [((0, 0, 2), F(1))]

    def test_powers_equal_repeated_products(self):
        f = s_plus(1) + 2 * s_z(2)
        expected = SpinPoly.const(1)
        for k in range(8):
            assert f**k == expected
            expected = expected * f


class TestExponentOverflow:
    """Each variable owns a fixed field of the packed key.  An exponent up to
    MAX_EXPONENT is kept exactly; one past it raises DegreeError, never
    carrying into the next variable's field."""

    def test_largest_exponent_by_power_and_product(self):
        top = s_z(1) ** MAX_EXPONENT
        assert top.monomials() == [((0, 0, MAX_EXPONENT), F(1))]
        assert (s_z(1) ** 100 * s_z(1) ** (MAX_EXPONENT - 100)) == top
        assert (top * s_plus(2)).monomials() == [((0, 0, MAX_EXPONENT, 1), F(1))]
        assert (top * s_minus(1)).monomials() == [((0, 1, MAX_EXPONENT), F(1))]

    def test_past_the_field_by_power(self):
        with pytest.raises(DegreeError, match="s1z"):
            s_z(1) ** (MAX_EXPONENT + 1)

    def test_past_the_field_by_product(self):
        neighbour = s_plus(2) * 3
        f = s_z(1) ** 100 * neighbour
        with pytest.raises(DegreeError, match="s1z"):
            f * (s_z(1) ** 100 + s_minus(1))
        assert f.monomials() == [((0, 0, 100, 1), F(3))]
        assert neighbour.monomials() == [((0, 0, 0, 1), F(3))]

    def test_past_the_field_by_bracket(self):
        with pytest.raises(DegreeError, match="s1z"):
            poisson_bracket(s_z(1) ** MAX_EXPONENT * s_plus(1), s_z(1) ** MAX_EXPONENT * s_minus(1))


class TestDifferentiatedOnce:
    """Each operand of a bracket routine is differentiated once, not once
    per pairing: one ``partials`` call per matrix entry, and each call reads
    the terms of its polynomial once."""

    @pytest.fixture
    def partials_calls(self, monkeypatch):
        calls = []

        def counted(f):
            calls.append(f)
            return partials(f)

        monkeypatch.setattr(nreflect.gaudin, "partials", counted)
        return calls

    def test_rbb(self, partials_calls):
        model = model_from_config({"case": "two-reflection", "z": ["1", "2"]})
        assert sampled_residual(model, "rbb", F(5), F(7)).is_zero()
        assert len(partials_calls) == 4 + 4  # the entries of B(lam) and of B(mu)

    def test_lax(self, partials_calls):
        model = model_from_config({"case": "two-reflection", "z": ["1", "2"]})
        assert sampled_residual(model, "lax", F(5), F(7), 2).is_zero()
        assert len(partials_calls) == 1 + 4  # tr B(lam)^2 and the entries of B(mu)

    def test_partials_reads_the_terms_once(self):
        class CountedTerms(dict):
            reads = 0

            def items(self):
                CountedTerms.reads += 1
                return super().items()

        f = casimir(1) * s_pair(2, 3) + s_z(2) * s_minus(3)
        counted = copy.copy(f)  # shares f's denominator; only the terms are counted
        counted.terms = CountedTerms(counted.terms)
        got = partials(counted)
        assert CountedTerms.reads == 1
        assert got.keys() == {1, 2, 3}
        for site, trio in got.items():
            assert trio == partials(f)[site]
