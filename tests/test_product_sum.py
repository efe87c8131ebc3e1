"""Property tests for ``linalg.product_sum``: sum sign * a * b over (sign, a,
b) terms has the same data (one lowest-terms form) as the fold of ``*``,
``+`` and ``-`` over the same terms.  The operands run over Q and
Q(zeta_N) for N = 3, 4, 5, 8, rational and cyclotomic matrices mixed,
with negative numerators and numerators of 200 bits and more; extremal
operands put an accumulated coordinate exactly at the bound the packing
width is chosen from, and one sum reaches its width only once folded
mod Phi_N."""

from fractions import Fraction
from math import isqrt

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nreflect.errors import OrderMismatchError, ShapeError  # noqa: E402
from nreflect.linalg import Matrix, product_sum  # noqa: E402
from nreflect.scalars import cyclotomic, euler_phi, zeta  # noqa: E402
from nreflect.spinalg import s_plus, s_z  # noqa: E402
from test_combination import assert_lowest_terms, data  # noqa: E402

PROFILE = settings(max_examples=60, deadline=None, derandomize=True, database=None)
ORDERS = (1, 3, 4, 5, 8)
BIG = 2**200

numerators = st.one_of(st.integers(-20, 20), st.integers(BIG, 2**230), st.integers(-2**230, -BIG))
denominators = st.one_of(st.integers(1, 12), st.integers(BIG, BIG + 2**20))
rationals = st.builds(Fraction, numerators, denominators)


def elements(order):
    """Q(zeta_order): rationals too (a drawn vector is often rational)."""
    return st.lists(rationals, min_size=1, max_size=euler_phi(order)).map(lambda c: cyclotomic(order, c))


def matrices(draw, order, nrows, ncols):
    """A rational matrix or, over a cyclotomic field, possibly a cyclotomic one."""
    entries = rationals if order == 1 or draw(st.booleans()) else elements(order)
    entries = st.one_of(st.just(Fraction(0)), entries)
    return Matrix(draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                                min_size=nrows, max_size=nrows)))


@st.composite
def term_lists(draw):
    """1-4 (sign, a, b) terms whose products share one shape, over Q(zeta_order)."""
    order = draw(st.sampled_from(ORDERS))
    nrows, ncols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        inner = draw(st.integers(1, 3))
        terms.append((draw(st.sampled_from((1, -1))), matrices(draw, order, nrows, inner),
                      matrices(draw, order, inner, ncols)))
    return terms


def fold(terms):
    out = None
    for sign, a, b in terms:
        p = a * b
        out = (p if sign > 0 else -p) if out is None else (out + p if sign > 0 else out - p)
    return out


@PROFILE
@given(term_lists())
def test_product_sum_is_the_fold_of_products(terms):
    result = product_sum(terms)
    assert data(result) == data(fold(terms))
    assert_lowest_terms(result)


@PROFILE
@given(term_lists())
def test_full_cancellation_is_zero(terms):
    cancelled = terms + [(-sign, a, b) for sign, a, b in terms]
    result = product_sum(cancelled)
    assert result.is_zero()
    assert data(result) == data(fold(cancelled))


def full(order, nrows, ncols, value):
    """Every entry value * (1 + z + ... + z^(phi-1)): each numerator is value."""
    entry = cyclotomic(order, [value] * euler_phi(order))
    return Matrix([[entry] * ncols for _ in range(nrows)])


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("top", [3, 2**200 + 1, 2**213])
def test_extremal_operands_reach_the_packing_bound(order, top):
    # dense rows of k entries whose numerators are all +-top: the middle
    # coordinate of each convolution sums phi products, so every output
    # entry collects k * phi * top^2 per term, the bound itself
    k = 3
    a, b = full(order, 2, k, top), full(order, k, 3, top)
    for terms in ([(1, a, b)], [(-1, a, -b)], [(1, a, b), (-1, -a, b)], [(-1, a, b), (1, -a, b)]):
        assert data(product_sum(terms)) == data(fold(terms))
    mixed = Matrix([[top, -top, top]]), full(order, k, 2, -top)
    assert data(product_sum([(1, *mixed)])) == data(fold([(1, *mixed)]))


def test_coordinate_past_the_digit_bound_after_the_fold():
    # over Q(zeta_3) a row and a column of k entries t (1 - zeta): the product's digits k t^2 (1, -2, 1)
    # stay within the digit bound phi k top top' = 2 k t^2, and the fold mod Phi_N turns them into
    # -3 k t^2 zeta, 1.5 times the bound.  t puts the bound at 63 bits and the folded coordinate at 64, so
    # only a width that holds the bound times the fold factor 2 reads it back
    k, phi = 3, euler_phi(3)
    t = isqrt((2**63 - 1) // (phi * k))
    assert (phi * k * t * t).bit_length() == 63 and (3 * k * t * t).bit_length() == 64
    unit = cyclotomic(3, [t, -t])
    row, col = Matrix([[unit] * k]), Matrix([[unit]] * k)
    for terms in ([(1, row, col)], [(-1, row, -col)], [(1, -row, col), (-1, row, col)]):
        assert data(product_sum(terms)) == data(fold(terms))
    assert product_sum([(1, row, col)])[0, 0] == cyclotomic(3, [0, -3 * k * t * t])


def test_rational_times_cyclotomic():
    w = zeta(5)
    a = Matrix([[Fraction(1, 2), 0], [Fraction(-3), Fraction(5, 7)]])
    b = Matrix([[w, 1 + w], [Fraction(2), -w]])
    terms = [(1, a, b), (-1, b, a), (1, a, a)]
    result = product_sum(terms)
    assert result._order == 5
    assert data(result) == data(fold(terms))
    assert result[0, 0] == w / 2 - (w / 2 - 3 * (1 + w)) + Fraction(1, 4)


def test_ring_entries_are_refused():
    # no operand of ring entries can be formed: Matrix refuses spin polynomials wherever they stand
    for rows in ([[s_plus(1), 0], [s_z(1), Fraction(1, 2)]], [[Fraction(2), 0], [zeta(3), s_z(2)]]):
        with pytest.raises(TypeError, match="^Matrix needs exact scalar entries of one field$"):
            Matrix(rows)


def test_two_orders_are_refused():
    # Q(zeta_3) and Q(zeta_4) entries are refused even where their products would not meet
    third = Matrix([[zeta(3), 0], [0, 0]])
    fourth = Matrix([[0, 0], [0, zeta(4)]])
    fourth_shifted = Matrix([[0, 0], [0, 1 + zeta(4)]])
    for terms in ([(1, third, third), (-1, fourth, fourth_shifted)], [(1, third, fourth)],
                  [(1, third, third), (1, Matrix([[zeta(4), 0], [0, 0]]), Matrix.identity(2))]):
        with pytest.raises(OrderMismatchError):
            product_sum(terms)


def test_mismatched_shapes_raise():
    with pytest.raises(ShapeError):
        product_sum([(1, Matrix.identity(2), Matrix.identity(3))])
    with pytest.raises(ShapeError):
        product_sum([(1, Matrix.identity(2), Matrix.identity(2)), (1, Matrix.identity(3), Matrix.identity(3))])
    with pytest.raises(ShapeError):
        product_sum([(1, Matrix([[1, 2]]), Matrix([[1], [2]])), (-1, Matrix([[1], [2]]), Matrix([[1, 2]]))])
