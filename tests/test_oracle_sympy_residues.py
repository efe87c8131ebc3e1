"""Residues of scalar rational functions against sympy.

An independent oracle for ``RatFun.residue`` and
``RatFun.residue_at_infinity``, and for the residues res_{z_m}(c_m c_k) of
the Gaudin site coefficients from which ``hamiltonian_residue`` assembles
H_m.  sympy builds c_m from the closed forms of tau and g^(1), not from
``nreflect``'s rational functions.
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from nreflect.gaudin import model_from_config  # noqa: E402
from nreflect.ratfun import Poly, RatFun  # noqa: E402
from nreflect.sampling import SplitMix64  # noqa: E402

X = sympy.Symbol("x")


def rational(value):
    return sympy.Rational(value.numerator, value.denominator)


def random_split_linear(rng):
    """(ours, sympy expression) for num / prod (x - root)^mult."""
    roots = {}
    for _ in range(rng.randint(1, 3)):
        roots[Fraction(rng.randint(-6, 6), rng.randint(1, 3))] = rng.randint(1, 3)
    num = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(1, 7))]
    expr = sum(rational(c) * X**i for i, c in enumerate(num))
    for root, mult in roots.items():
        expr = expr / (X - rational(root)) ** mult
    return RatFun(Poly(num), roots.items()), expr, sorted(roots)


def test_residues_match_sympy_on_random_split_linear_functions():
    rng = SplitMix64(0x0DD5)
    for _ in range(8):
        ours, expr, roots = random_split_linear(rng)
        for root in roots:
            assert ours.residue(root) == sympy.residue(expr, X, rational(root))
        at_infinity = -sympy.residue(expr.subs(X, 1 / X) / X**2, X, 0)
        assert ours.residue_at_infinity() == at_infinity


def test_site_coefficient_residues_match_sympy_on_two_reflection_l3():
    a, b, c = 1, 2, 3
    z = (1, 2, 4)
    model = model_from_config({"case": "two-reflection", "params": {"a": a, "b": b, "c": c}, "z": list(z)})
    tau = (a * X + b) / (c * X - a)
    g1 = -sympy.Integer(a * a + b * c) / (a - c * X) ** 2
    expected = [1 / (X - zm) + g1 / (tau - zm) for zm in z]
    cs = model.site_coefficients
    for m, zm in enumerate(z):
        for k in range(len(z)):
            theirs = sympy.residue(expected[m] * expected[k], X, zm)
            assert (cs[m] * cs[k]).residue(Fraction(zm)) == theirs
        # no product of two other coefficients has a pole at z_m
        others = [e for i, e in enumerate(expected) if i != m]
        assert all(sympy.denom(sympy.cancel(p * q)).subs(X, zm) for p in others for q in others)
