"""The spin Poisson bracket against sympy.

An independent oracle for ``nreflect.spinalg.poisson_bracket``: sympy
differentiates and multiplies, and the bracket is the Poisson tensor of
the generator table contracted with the two gradients,

    {f, g} = sum_{a, b} (df/dx_a) (dg/dx_b) {x_a, x_b},

over every pair of generators at the same site.
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from nreflect.sampling import SplitMix64  # noqa: E402
from nreflect.spinalg import KINDS, SpinPoly, poisson_bracket  # noqa: E402

F = Fraction
SITES = 3
SYMBOLS = [sympy.Symbol(f"s{j}{kind}") for j in range(1, SITES + 1) for kind in KINDS]


def generator_table(j):
    """{x_a, x_b} for the generators (s_j^+, s_j^-, s_j^z) of one site."""
    p, m, z = SYMBOLS[3 * (j - 1):3 * j]
    half = {(p, m): z, (z, p): 2 * p, (z, m): -2 * m}
    table = {}
    for (a, b), value in half.items():
        table[a, b] = value
        table[b, a] = -value
    return table


def to_sympy(poly):
    total = sympy.Integer(0)
    for expo, coeff in poly.monomials():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for sym, e in zip(SYMBOLS, expo):
            term *= sym**e
        total += term
    return total


def oracle_bracket(f, g):
    total = sympy.Integer(0)
    for j in range(1, SITES + 1):
        for (a, b), value in generator_table(j).items():
            total += sympy.diff(f, a) * sympy.diff(g, b) * value
    return sympy.expand(total)


def random_poly(rng, sites):
    """Up to four terms, each a product of up to three generators."""
    gens = [SpinPoly.generator(j, k) for j in range(1, sites + 1) for k in KINDS]
    poly = SpinPoly()
    for _ in range(rng.randint(1, 4)):
        term = SpinPoly.const(F(rng.randint(-5, 5), rng.randint(1, 5)))
        for _ in range(rng.randint(0, 3)):
            term = term * gens[rng.randint(0, len(gens) - 1)]
        poly = poly + term
    return poly


def test_bracket_matches_the_generator_table():
    rng = SplitMix64(0xB7AC)
    for _ in range(60):
        f = random_poly(rng, rng.randint(1, SITES))
        g = random_poly(rng, rng.randint(1, SITES))
        got = to_sympy(poisson_bracket(f, g))
        assert sympy.expand(got - oracle_bracket(to_sympy(f), to_sympy(g))) == 0


def test_generator_brackets():
    for j in range(1, SITES + 1):
        for (a, b), value in generator_table(j).items():
            f = SpinPoly.generator(j, KINDS[SYMBOLS.index(a) % 3])
            g = SpinPoly.generator(j, KINDS[SYMBOLS.index(b) % 3])
            assert sympy.expand(to_sympy(poisson_bracket(f, g)) - value) == 0
