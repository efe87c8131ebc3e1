"""Differential property tests of the spin polynomials' integer form.

A ``SpinPoly`` keeps integer numerators over one common denominator.  Each
operation here is checked against ``Ref``, a test-only polynomial that
keeps a canonical ``Fraction`` or ``Cyclotomic`` per term (the form the
integer numerators replaced): sums, differences, products, scaling by
ints, Fractions and Q(zeta_3) and Q(zeta_4) scalars, division by a
scalar, powers, ``partials`` and ``bracket_partials``.  Every result must
be in lowest terms (den > 0, gcd of den and every numerator 1), held over
Q exactly when its coefficients are rational, and equal polynomials built
by different routes must be ``==`` with equal hashes.
"""

from fractions import Fraction
from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nreflect.errors import DegreeError, OrderMismatchError  # noqa: E402
from nreflect.gaudin import SpinRows  # noqa: E402
from nreflect.linalg import Matrix  # noqa: E402
from nreflect.scalars import ZERO, Cyclotomic, cyclotomic, euler_phi, zeta  # noqa: E402
from nreflect.spinalg import (  # noqa: E402
    KINDS,
    MAX_EXPONENT,
    SpinPoly,
    _product_sum,
    bracket_partials,
    casimir,
    partials,
    poisson_bracket,
    s_minus,
    s_pair,
    s_plus,
    s_z,
)

PROFILE = settings(max_examples=40, deadline=None, derandomize=True, database=None)
VARIABLES = 6  # two sites


# ---------------------------------------------------------------------------
# the reference: one canonical scalar per term
# ---------------------------------------------------------------------------

def _strip(expo) -> tuple:
    expo = list(expo)
    while expo and not expo[-1]:
        expo.pop()
    return tuple(expo)


def _add(a, b) -> tuple:
    n = max(len(a), len(b))
    return _strip(x + y for x, y in zip(a + (0,) * (n - len(a)), b + (0,) * (n - len(b))))


class Ref:
    """Exponent tuple (no trailing zeros) -> nonzero Fraction or Cyclotomic."""

    def __init__(self, terms=()):
        self.terms = {}
        for expo, coeff in terms:
            self.put(_strip(expo), coeff)

    def put(self, expo, coeff):
        new = self.terms.get(expo, ZERO) + coeff
        if new:
            self.terms[expo] = new
        else:
            self.terms.pop(expo, None)

    def __add__(self, other):
        out = Ref(self.terms.items())
        for expo, coeff in other.terms.items():
            out.put(expo, coeff)
        return out

    def __neg__(self):
        return Ref((expo, -coeff) for expo, coeff in self.terms.items())

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Ref):
            return Ref((expo, coeff * other) for expo, coeff in self.terms.items())
        out = Ref()
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                out.put(_add(e1, e2), c1 * c2)
        return out

    def monomials(self) -> list:
        return sorted(self.terms.items())


def ref_generator(j, kind):
    return Ref([((0,) * (3 * (j - 1) + KINDS.index(kind)) + (1,), Fraction(1))])


def ref_partials(f: Ref) -> dict:
    sites = {}
    for expo, coeff in f.terms.items():
        for index, e in enumerate(expo):
            if e:
                j, kind = divmod(index, 3)
                trio = sites.setdefault(j + 1, (Ref(), Ref(), Ref()))
                lowered = expo[:index] + (e - 1,) + expo[index + 1:]
                trio[kind].put(_strip(lowered), e * coeff)
    return sites


def ref_bracket(df: dict, dg: dict) -> Ref:
    out = Ref()
    for j in df.keys() & dg.keys():
        (fp, fm, fz), (gp, gm, gz) = df[j], dg[j]
        sp, sm, sz = (ref_generator(j, kind) for kind in KINDS)
        out = out + (fp * gm - fm * gp) * sz + (fz * gp - fp * gz) * sp * 2 - (fz * gm - fm * gz) * sm * 2
    return out


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

rationals = st.fractions(min_value=-12, max_value=12, max_denominator=9)


@st.composite
def scalars(draw, order):
    """A scalar of Q(zeta_order); a drawn vector is often rational, or 0."""
    if order == 1:
        return draw(rationals)
    return cyclotomic(order, draw(st.lists(rationals, min_size=1, max_size=euler_phi(order))))


@st.composite
def polys(draw, order, max_terms=4):
    """(SpinPoly, Ref) of up to ``max_terms`` terms over two sites, each
    exponent at most 2, coefficients in Q(zeta_order)."""
    terms = draw(st.lists(st.tuples(st.lists(st.integers(0, 2), min_size=VARIABLES, max_size=VARIABLES),
                                    scalars(order)), max_size=max_terms))
    poly = SpinPoly()
    for expo, coeff in terms:
        monomial = SpinPoly.const(1)
        for index, e in enumerate(expo):
            if e:
                monomial = monomial * SpinPoly.generator(index // 3 + 1, KINDS[index % 3]) ** e
        poly = poly + coeff * monomial
    return poly, Ref(terms)


orders = st.sampled_from((1, 3, 4))


@st.composite
def pairs(draw):
    order = draw(orders)
    return order, draw(polys(order)), draw(polys(order))


def assert_lowest_terms(poly: SpinPoly):
    assert poly.den > 0
    numerators = list(poly.terms.values())
    if poly.order == 1:
        assert all(type(c) is int and c for c in numerators)
        flat = numerators
    else:
        assert all(type(v) is tuple and len(v) == euler_phi(poly.order) and any(v) for v in numerators)
        assert any(any(v[1:]) for v in numerators), "a polynomial with rational coefficients is held over Q"
        flat = [c for v in numerators for c in v]
    assert gcd(poly.den, *flat) == 1


def assert_matches(poly: SpinPoly, ref: Ref):
    assert_lowest_terms(poly)
    assert poly.monomials() == ref.monomials()


# ---------------------------------------------------------------------------
# the operations
# ---------------------------------------------------------------------------

@PROFILE
@given(pairs())
def test_ring_operations(args):
    _, (f, rf), (g, rg) = args
    assert_matches(f, rf)
    assert_matches(f + g, rf + rg)
    assert_matches(f - g, rf - rg)
    assert_matches(-f, -rf)
    assert_matches(f * g, rf * rg)


@PROFILE
@given(st.data())
def test_scaling_and_division(data):
    order = data.draw(orders)
    f, rf = data.draw(polys(order))
    for s in (data.draw(st.integers(-9, 9)), data.draw(rationals), data.draw(scalars(order))):
        assert_matches(f * s, rf * s)
        assert_matches(s * f, rf * s)
        if s:
            inverse = s.inverse() if isinstance(s, Cyclotomic) else 1 / Fraction(s)
            assert_matches(f / s, rf * inverse)
            assert f / s * s == f


@PROFILE
@given(st.data())
def test_powers(data):
    order = data.draw(orders)
    f, rf = data.draw(polys(order, max_terms=3))
    expected = Ref([((), Fraction(1))])
    for k in range(4):
        assert_matches(f ** k, expected)
        expected = expected * rf


@PROFILE
@given(pairs())
def test_partials_and_bracket(args):
    _, (f, rf), (g, rg) = args
    df, rdf = partials(f), ref_partials(rf)
    assert df.keys() == {j for j, trio in rdf.items() if any(d.terms for d in trio)}
    for j, trio in df.items():
        for d, rd in zip(trio, rdf[j]):
            assert_matches(d, rd)
    assert_matches(bracket_partials(df, partials(g)), ref_bracket(rdf, ref_partials(rg)))


@PROFILE
@given(pairs())
def test_equal_values_have_equal_data_and_hashes(args):
    order, (f, _), (g, _) = args
    w = zeta(order) if order > 1 else Fraction(3, 7)
    routes = [(f + g) - g, (f * w) * (1 / w), f * 2 - f, (f * g + f) - f * g, (f - g) + g, f / 3 * 3]
    for poly in routes:
        assert_lowest_terms(poly)
        assert poly == f
        assert hash(poly) == hash(f)


@pytest.mark.parametrize("value", [Fraction(1, 2), Fraction(0), 1, -3, zeta(3), zeta(5, 2) / 7])
def test_a_constant_hashes_as_its_scalar(value):
    poly = SpinPoly.const(value)
    for route in (poly, s_z(1) + poly - s_z(1), (s_plus(2) + poly) * 1 - s_plus(2)):
        assert route == value and hash(route) == hash(value)
    assert len({poly, value}) == 1
    rows = SpinRows(((poly, SpinPoly()),))
    assert hash(rows) == hash(((value, 0),)) and rows == ((value, 0),)
    with pytest.raises(TypeError, match="^Matrix needs exact scalar entries of one field$"):
        Matrix([[poly, 0]])


# ---------------------------------------------------------------------------
# edge cases
# ---------------------------------------------------------------------------

class TestEdges:
    def test_full_cancellation_is_the_zero_polynomial(self):
        w = zeta(3)
        f = Fraction(2, 3) * s_plus(1) * s_z(2) + w * s_minus(1)
        for zero in (f - f, f + (-f), f * 0, f * Fraction(0), (s_plus(1) * w) * w * w - s_plus(1)):
            assert zero.is_zero() and not zero
            assert (zero.terms, zero.den, zero.order) == ({}, 1, 1)
            assert zero == SpinPoly() == 0
            assert hash(zero) == hash(SpinPoly())

    def test_cyclotomic_cancelling_to_a_rational_is_held_over_q(self):
        w = zeta(3)
        f = w * s_z(1) + w * s_plus(2)
        assert f.order == 3
        g = f * (w * w)  # w^3 = 1
        assert g.order == 1 and g == s_z(1) + s_plus(2)
        assert g.monomials() == [((0, 0, 0, 1), Fraction(1)), ((0, 0, 1), Fraction(1))]

    def test_degree_error_at_the_guard_bit(self):
        top = s_z(1) ** MAX_EXPONENT * Fraction(1, 3)
        with pytest.raises(DegreeError, match="s1z"):
            top * s_z(1)
        with pytest.raises(DegreeError, match="s1z"):
            top * zeta(4) * (s_z(1) * zeta(4))
        with pytest.raises(DegreeError, match="s1z"):
            poisson_bracket(s_z(1) ** MAX_EXPONENT * s_plus(1), s_z(1) ** MAX_EXPONENT * s_minus(1))
        # an exponent that reaches the guard bit only in a cancelled term does not raise
        assert (top * s_plus(2) - top * s_plus(2)).is_zero()

    def test_pair_coupling_from_its_keys(self):
        for i, k in ((1, 2), (3, 1), (2, 7)):
            products = Fraction(1, 2) * s_z(i) * s_z(k) + s_plus(i) * s_minus(k) + s_minus(i) * s_plus(k)
            assert_lowest_terms(s_pair(i, k))
            assert s_pair(i, k) == products and hash(s_pair(i, k)) == hash(products)
        assert s_pair(2, 2) == casimir(2)
        with pytest.raises(IndexError):
            s_pair(0, 1)

    def test_two_orders_meet(self):
        f3, f4 = zeta(3) * s_z(1), zeta(4) * s_z(2)
        for meet in (lambda: f3 + f4, lambda: f3 - f4, lambda: f3 * f4, lambda: f3 * zeta(4),
                     lambda: f3 / zeta(4), lambda: poisson_bracket(f3 * s_plus(2), f4),
                     lambda: bracket_partials(partials(f3 * s_plus(1)), partials(f4 * s_minus(1)))):
            with pytest.raises(OrderMismatchError):
                meet()
        # a rational polynomial meets either field
        assert (f3 + s_z(2)).order == 3 and (f4 * s_z(2)).order == 4


@pytest.mark.parametrize("order", [3, 5])
@pytest.mark.parametrize("top", [3, 2**200 + 1, 2**213])
def test_extremal_operands_reach_the_packing_bound(order, top):
    # one-term operands whose numerators are all +-top over denominator 1: the middle
    # coordinate of their convolution sums phi products top^2, and quads of one key add their
    # scales, so each accumulated middle coordinate is phi * sum |scale| * top^2, the bound
    # the packing width is chosen from; a term-by-term Cyclotomic product is the reference
    full = cyclotomic(order, [top] * euler_phi(order))
    x, y = s_z(1) * full, s_plus(2) * full
    shift = next(iter(s_minus(1).terms))
    for quads in ([(1, 0, x, y)], [(1, 0, -x, -y)], [(1, 0, x, y), (2, 0, -x, -y)],
                  [(-1, shift, x, y), (-2, shift, x, y), (-3, shift, -x, -y)]):
        expo = (s_z(1) * s_plus(2) * (s_minus(1) if quads[0][1] else 1)).monomials()[0][0]
        coefficient = sum((scale * left.monomials()[0][1] * right.monomials()[0][1] for scale, _, left, right in quads),
                          ZERO)
        result = _product_sum(quads)
        assert result.monomials() == [(expo, coefficient)]
        assert_lowest_terms(result)
    assert (x * y).monomials() == [((s_z(1) * s_plus(2)).monomials()[0][0], full * full)]
