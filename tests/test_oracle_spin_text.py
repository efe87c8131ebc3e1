"""The text of a spin polynomial reads back as the same polynomial.

sympy parses ``str(p)`` (z a symbol, each spin variable renamed to a
sympy identifier) and the result is compared with the polynomial built
from ``p.monomials()``, for fixed and drawn polynomials over Q, Q(zeta_3)
and Q(zeta_4).  Both sides are written in the power basis of Q(zeta_N),
so they agree as polynomials in z exactly when the text is right.
"""

import re
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nreflect.scalars import cyclotomic, euler_phi, zeta  # noqa: E402
from nreflect.spinalg import SpinPoly, s_minus, s_plus, s_z, var_name  # noqa: E402

PROFILE = settings(max_examples=60, deadline=None, derandomize=True, database=None)
Z = sympy.Symbol("z")
GENERATORS = [gen(j) for j in (1, 2) for gen in (s_plus, s_minus, s_z)]

FIXED = [
    Fraction(-1, 2) * s_minus(1) * s_z(2) * s_z(2) + 3 * s_plus(1) - Fraction(2, 7),
    -s_z(1) + s_plus(2) * s_minus(2) * s_z(3),
    # the spin witness that tests/test_reporting.py pins as text
    (zeta(3) * s_z(1) * s_plus(2) - Fraction(1, 2) * s_minus(1) + (1 - 2 * zeta(3))
     + cyclotomic(3, [Fraction(-1, 2), Fraction(2, 3)]) * s_z(2) * s_z(2)),
    (1 - 2 * zeta(3)) * s_plus(1) - (zeta(3) + 1) * s_z(1) * s_z(1) * s_z(1) + zeta(3),
    cyclotomic(3, [Fraction(-3, 4), -1]) * s_minus(2) - zeta(3, 2) * s_z(1),
]


def name(var: str) -> str:
    """s2+ -> s2p, s2- -> s2m: one sympy identifier per spin variable."""
    return re.sub(r"s(\d+)([-+z])", lambda m: f"s{m[1]}{'pmz'['+-z'.index(m[2])]}", var)


def to_sympy(c):
    if isinstance(c, Fraction):
        return sympy.Rational(c.numerator, c.denominator)
    return sum(sympy.Rational(x, c.den) * Z**k for k, x in enumerate(c.num))


def assert_reads_back(poly: SpinPoly):
    expected = sum((to_sympy(c) * sympy.Mul(*(sympy.Symbol(name(var_name(i))) ** e for i, e in enumerate(expo)))
                    for expo, c in poly.monomials()), sympy.Integer(0))
    read = sympy.sympify(name(str(poly)).replace("^", "**"), locals={"z": Z})
    assert sympy.expand(read - expected) == 0, str(poly)


@pytest.mark.parametrize("poly", FIXED, ids=range(len(FIXED)))
def test_fixed_polynomials_read_back(poly):
    assert_reads_back(poly)


@st.composite
def polynomials(draw):
    order = draw(st.sampled_from((1, 3, 4)))
    rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    coefficients = (rationals if order == 1 else
                    st.lists(rationals, min_size=1, max_size=euler_phi(order)).map(lambda c: cyclotomic(order, c)))
    poly = SpinPoly.const(Fraction(0))
    for _ in range(draw(st.integers(1, 4))):
        term = SpinPoly.const(draw(coefficients))
        for gen in draw(st.lists(st.sampled_from(GENERATORS), max_size=3)):
            term = term * gen
        poly = poly + term
    return poly


@PROFILE
@given(polynomials())
def test_drawn_polynomials_read_back(poly):
    assert_reads_back(poly)
