"""Property tests for Q(zeta_N): field axioms with mixed rational operands,
the canonical form (rational values demote to Fraction, one lowest-terms
representation per element) and the text round trip."""

from fractions import Fraction
from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nreflect.scalars import (  # noqa: E402
    Cyclotomic,
    cyclotomic,
    euler_phi,
    scalar_from_str,
    scalar_to_str,
    zeta,
)

ORDERS = (3, 4, 5, 6, 8, 12)
PROFILE = settings(max_examples=40, deadline=None, derandomize=True, database=None)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=40)
mixed_rationals = st.one_of(st.integers(-50, 50), rationals)


@st.composite
def elements(draw, order):
    """Elements of Q(zeta_N); a drawn coordinate vector is often rational."""
    phi = euler_phi(order)
    coeffs = draw(st.lists(rationals, min_size=1, max_size=phi))
    return cyclotomic(order, coeffs)


def field(order):
    return st.tuples(elements(order), elements(order), elements(order), mixed_rationals)


def assert_canonical(value):
    if isinstance(value, Cyclotomic):
        assert any(value.num[1:]), "a rational value must demote to Fraction"
        assert value.den > 0 and gcd(value.den, *value.num) == 1
        assert len(value.num) == euler_phi(value.order)
        assert hash(value) == hash((value.order, value.coeffs))
    else:
        assert type(value) is Fraction


@pytest.mark.parametrize("order", ORDERS)
def test_ring_axioms(order):
    @PROFILE
    @given(field(order))
    def check(args):
        u, v, w, q = args
        assert (u + v) + w == u + (v + w)
        assert u + v == v + u and u * v == v * u
        assert (u * v) * w == u * (v * w)
        assert u * (v + w) == u * v + u * w
        assert u + q == q + u and u * q == q * u
        assert (u + q) - q == u and q - (q - u) == u
        assert u * (v - w) == u * v - u * w
        for value in (u + v, u - v, u * v, u + q, u - q, q - u, u * q, -u):
            assert_canonical(value)

    check()


@pytest.mark.parametrize("order", ORDERS)
def test_division_and_inverse(order):
    @PROFILE
    @given(field(order))
    def check(args):
        u, v, _, q = args
        if u:
            assert u * (1 / u) == 1 and type(u * (1 / u)) is Fraction
            assert (v / u) * u == v
            assert u**-2 * u**2 == 1
            assert_canonical(1 / u)
            assert_canonical(v / u)
        if q:
            assert (u / q) * q == u
            assert_canonical(u / q)

    check()


@pytest.mark.parametrize("order", ORDERS)
def test_rational_values_demote(order):
    @PROFILE
    @given(elements(order), mixed_rationals)
    def check(u, q):
        assert type(u - u) is Fraction and u - u == 0
        assert type(u + (q - u)) is Fraction and u + (q - u) == q
        assert type(u * 0) is Fraction and u * 0 == 0
        assert type(zeta(order) ** order) is Fraction and zeta(order) ** order == 1

    check()


@pytest.mark.parametrize("order", ORDERS)
def test_text_round_trip(order):
    @PROFILE
    @given(st.one_of(elements(order), rationals))
    def check(u):
        text = scalar_to_str(u)
        back = scalar_from_str(text, order=order)
        assert back == u and type(back) is type(u)
        assert scalar_to_str(back) == text

    check()
