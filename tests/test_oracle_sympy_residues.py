"""Residues of scalar rational functions against sympy.

An independent oracle for ``RatFun.residue`` and
``RatFun.residue_at_infinity``, for the residues res_{z_m}(c_m c_k) of the
Gaudin site coefficients that ``residue_sum_check`` sums, and for the
coefficients of H_m that ``hamiltonian_residue`` reads off the point frame
at z_m: the coefficient of S_mk is res_{z_m}(c_m c_k) and that of C_m is
(1/2) res_{z_m}(c_m^2).  sympy builds c_m from the closed forms of tau and
the weights g^(j), not from ``nreflect``'s rational functions or frames.
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from nreflect.gaudin import hamiltonian_residue, model_from_config  # noqa: E402
from nreflect.ratfun import Poly, RatFun  # noqa: E402
from nreflect.sampling import SplitMix64  # noqa: E402
from nreflect.spinalg import casimir, s_minus, s_pair, s_plus  # noqa: E402

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


def coefficient(h, probe):
    """The coefficient in h of the one monomial of ``probe``."""
    ((key, _),) = probe.monomials()
    return dict(h.monomials()).get(key, 0)


def two_reflection_coefficients(a, b, c, z):
    tau = (a * X + b) / (c * X - a)
    g1 = -sympy.Integer(a * a + b * c) / (a - c * X) ** 2
    return [1 / (X - zm) + g1 / (tau - zm) for zm in z]


def three_reflection_coefficients(a, b, c, d, z):
    tau = (a * X + b) / (c * X + d)
    tau2 = sympy.cancel(tau.subs(X, tau))
    det = sympy.Integer(a * d - b * c)
    g1, g2 = det / (d + c * X) ** 2, det / (a - c * X) ** 2
    return [1 / (X - zm) + g1 / (tau - zm) + g2 / (tau2 - zm) for zm in z]


@pytest.mark.parametrize("kind,params,z,expected", [
    ("two-reflection", {"a": 1, "b": 2, "c": 3}, (1, 2, 4), two_reflection_coefficients(1, 2, 3, (1, 2, 4))),
    ("three-reflection", {"a": 1, "b": 3, "c": -1, "d": 1}, (2, 5, 9),
     three_reflection_coefficients(1, 3, -1, 1, (2, 5, 9))),
], ids=["two-reflection-L3", "three-reflection-L3"])
def test_hamiltonian_coefficients_are_sympy_residues(kind, params, z, expected):
    model = model_from_config({"case": kind, "params": params, "z": list(z)})
    for m, zm in enumerate(z, start=1):
        h = hamiltonian_residue(model, m)
        pair_coefficients = {k: coefficient(h, s_plus(m) * s_minus(k)) for k in range(1, len(z) + 1) if k != m}
        casimir_coefficient = coefficient(h, s_plus(m) * s_minus(m)) / 2
        for k, ours in pair_coefficients.items():
            assert ours == sympy.residue(expected[m - 1] * expected[k - 1], X, zm)
        assert casimir_coefficient == sympy.residue(expected[m - 1] ** 2, X, zm) / 2
        # H_m holds nothing but these couplings
        rebuilt = casimir_coefficient * casimir(m)
        for k, ours in pair_coefficients.items():
            rebuilt = rebuilt + ours * s_pair(m, k)
        assert h == rebuilt
