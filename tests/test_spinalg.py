from fractions import Fraction

import pytest

from nreflect.sampling import SplitMix64
from nreflect.scalars import to_complex, zeta
from nreflect.spinalg import (
    SpinPoly,
    casimir,
    poisson_bracket,
    s_minus,
    s_plus,
    s_z,
    var_index,
)

F = Fraction


class TestGeneratorTable:
    def test_plus_minus(self):
        assert poisson_bracket(s_plus(1, 1), s_minus(1, 1)) == s_z(1, 1)

    def test_locality(self):
        assert poisson_bracket(s_z(2, 1), s_plus(2, 2)).is_zero()

    def test_z_with_plus(self):
        assert poisson_bracket(s_z(1, 1), s_plus(1, 1)) == 2 * s_plus(1, 1)
        assert poisson_bracket(s_z(1, 1), s_minus(1, 1)) == -2 * s_minus(1, 1)

    def test_leibniz_example(self):
        # {s+ s-, sz} = s+ {s-, sz} + {s+, sz} s- = s+(2s-) + (-2s+)s- = 0
        f = s_plus(1, 1) * s_minus(1, 1)
        assert poisson_bracket(f, s_z(1, 1)).is_zero()


class TestCasimir:
    def test_commutes_with_generators(self):
        c = casimir(1, 1)
        for g in (s_plus(1, 1), s_minus(1, 1), s_z(1, 1)):
            assert poisson_bracket(c, g).is_zero()

    def test_disjoint_site(self):
        assert poisson_bracket(casimir(2, 1), s_z(2, 2)).is_zero()

    def test_value(self):
        got = casimir(1, 1).evaluate({(1, "z"): F(2), (1, "+"): F(1), (1, "-"): F(3)})
        assert got == 8


class TestEvaluateGradient:
    def test_single_variable(self):
        assert s_z(1, 1).evaluate({(1, "z"): F(5)}) == 5

    def test_gradient(self):
        f = s_plus(1, 1) * s_minus(1, 1)
        assert f.diff(var_index(1, "+")) == s_minus(1, 1)
        assert f.diff(var_index(1, "-")) == s_plus(1, 1)
        assert f.diff(var_index(1, "z")).is_zero()

    def test_missing_variable(self):
        with pytest.raises(KeyError, match="s1z"):
            s_z(1, 1).evaluate({(1, "+"): F(1)})

    def test_numeric_matches_exact(self):
        rng = SplitMix64(5)
        f = _random_quadratic(rng, 2)
        assign_exact = {(j, k): F(rng.randint(-5, 5), rng.randint(1, 5))
                        for j in (1, 2) for k in "+-z"}
        exact = f.evaluate(assign_exact)
        numeric = f.evaluate({key: complex(v) for key, v in assign_exact.items()})
        assert abs(to_complex(exact) - numeric) < 1e-12

    def test_cyclotomic_coefficients(self):
        f = zeta(3) * s_z(1, 1)
        value = f.evaluate({(1, "z"): 2.0})
        assert abs(value - 2 * to_complex(zeta(3))) < 1e-12


def _random_quadratic(rng, sites):
    gens = [SpinPoly.generator(sites, j, k) for j in range(1, sites + 1) for k in "+-z"]
    poly = SpinPoly.const(sites, F(rng.randint(-3, 3)))
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
    f = F(5, 2) * s_z(2, 1) * s_z(2, 2) + s_plus(2, 1) * s_minus(2, 2)
    text = str(f)
    assert "5/2*s1z*s2z" in text and "s1+*s2-" in text
