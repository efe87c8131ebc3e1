"""Q(zeta_N) arithmetic against sympy polynomial arithmetic modulo Phi_N.

An independent oracle for the integer-vector core in ``nreflect.scalars``:
every result is compared coordinate by coordinate with sympy's remainder
modulo sympy's own cyclotomic polynomial.
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from nreflect.sampling import SplitMix64  # noqa: E402
from nreflect.scalars import Cyclotomic, cyclotomic, cyclotomic_polynomial, euler_phi  # noqa: E402

X = sympy.Symbol("x")
ORDERS = (3, 4, 5, 6, 8, 12)


def coords(value, order):
    """Power-basis coordinates of a scalar, as Fractions."""
    if isinstance(value, Cyclotomic):
        assert value.order == order
        return list(value.coeffs)
    return [Fraction(value)] + [Fraction(0)] * (euler_phi(order) - 1)


def to_sympy(value, order):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coords(value, order))],
                      X, domain=sympy.QQ)


def from_sympy(poly, order):
    low_first = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
    return low_first + [Fraction(0)] * (euler_phi(order) - len(low_first))


def random_element(rng, order):
    coeffs = [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(euler_phi(order))]
    return cyclotomic(order, coeffs)


@pytest.mark.parametrize("order", range(1, 31))
def test_cyclotomic_polynomial_matches_sympy(order):
    expected = [Fraction(int(c)) for c in reversed(sympy.Poly(sympy.cyclotomic_poly(order, X), X).all_coeffs())]
    assert list(cyclotomic_polynomial(order)) == expected


@pytest.mark.parametrize("order", ORDERS)
def test_field_operations_match_sympy(order):
    phi = sympy.Poly(sympy.cyclotomic_poly(order, X), X, domain=sympy.QQ)
    rng = SplitMix64(0x5EED ^ order)
    for _ in range(40):
        u, v = random_element(rng, order), random_element(rng, order)
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        su, sv, sq = to_sympy(u, order), to_sympy(v, order), to_sympy(q, order)
        cases = [
            (u + v, su + sv), (u - v, su - sv), (u * v, su * sv),
            (u + q, su + sq), (q - u, sq - su), (u * q, su * sq),
            (u**3, su**3),
        ]
        if v:
            sv_inv = sympy.invert(sv, phi)
            cases += [(u / v, su * sv_inv), (v**-2, sv_inv**2)]
            cases.append((v.inverse() if isinstance(v, Cyclotomic) else 1 / v, sv_inv))
        if q:
            cases.append((u / q, su * sympy.invert(sq, phi)))
        for ours, theirs in cases:
            assert coords(ours, order) == from_sympy(theirs.rem(phi), order)
