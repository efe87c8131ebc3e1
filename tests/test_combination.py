"""Property tests for ``linalg.combination``: sum c * m over (scalar,
matrix) pairs equals an entrywise reference in ``Fraction``/``Cyclotomic``
arithmetic, built with ``Matrix(rows)``, with the same data (one normal
form), for int, Fraction and Q(zeta_3), Q(zeta_4) coefficients on rational
and cyclotomic matrices.  ``+``, ``-`` and ``scale`` of exact matrices are
combinations, so the reference does not use them."""

from fractions import Fraction
from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nreflect.errors import OrderMismatchError, ShapeError  # noqa: E402
from nreflect.linalg import Matrix, combination  # noqa: E402
from nreflect.scalars import cyclotomic, euler_phi, zeta  # noqa: E402
from nreflect.spinalg import s_plus, s_z  # noqa: E402

PROFILE = settings(max_examples=60, deadline=None, derandomize=True, database=None)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
sparse_rationals = st.one_of(st.just(Fraction(0)), rationals)


def elements(order):
    """Q(zeta_order): rationals too (a drawn vector is often rational)."""
    return st.lists(rationals, min_size=1, max_size=euler_phi(order)).map(lambda c: cyclotomic(order, c))


def coefficients(order):
    scalars = [st.integers(-9, 9), rationals, st.just(0), st.just(Fraction(0))]
    return st.one_of(*scalars, *([elements(order)] if order > 1 else []))


@st.composite
def pair_lists(draw):
    """1-4 (coefficient, matrix) pairs of one shape over Q(zeta_order); each
    matrix is rational or, over a cyclotomic field, may be cyclotomic."""
    order = draw(st.sampled_from((1, 3, 4)))
    nrows, ncols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    pairs = []
    for _ in range(draw(st.integers(1, 4))):
        entries = sparse_rationals if order == 1 or draw(st.booleans()) else elements(order)
        rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
        pairs.append((draw(coefficients(order)), Matrix(rows)))
    return pairs


def reference(pairs):
    """sum c * m entry by entry over canonical scalars."""
    nrows, ncols = pairs[0][1].nrows, pairs[0][1].ncols
    return Matrix([[sum((c * m[i, j] for c, m in pairs), Fraction(0)) for j in range(ncols)] for i in range(nrows)])


def data(m):
    return m.nrows, m.ncols, m._order, m._den, m._sparse


def assert_lowest_terms(m):
    assert m._den > 0
    assert gcd(m._den, *(c for row in m._sparse for vec in row.values() for c in vec)) == 1
    assert all(any(vec) for row in m._sparse for vec in row.values())


@PROFILE
@given(pair_lists())
def test_combination_is_the_entrywise_sum(pairs):
    result = combination(pairs)
    assert data(result) == data(reference(pairs))
    assert result == reference(pairs)
    assert_lowest_terms(result)


@PROFILE
@given(pair_lists())
def test_full_cancellation_is_zero(pairs):
    result = combination(pairs + [(-c, m) for c, m in pairs])
    assert result.is_zero()
    assert data(result) == data(reference(pairs + [(-c, m) for c, m in pairs])) == (result.nrows, result.ncols, 1, 1,
                                                                                  [{} for _ in range(result.nrows)])


def test_rational_matrix_with_cyclotomic_coefficient():
    w = cyclotomic(3, [0, 1])
    m = Matrix([[Fraction(1, 2), 0], [0, Fraction(-3)]])
    result = combination([(w, m), (Fraction(1, 3), m)])
    assert result._order == 3
    assert data(result) == data(reference([(w, m), (Fraction(1, 3), m)]))
    assert result[0, 0] == w / 2 + Fraction(1, 6)


def test_zero_coefficients_keep_shape_and_hold_zero_over_q():
    m = Matrix([[cyclotomic(4, [1, 1]), 0]])
    result = combination([(0, m), (Fraction(0), m)])
    assert result.is_zero()
    assert data(result) == (1, 2, 1, 1, [{}]) == data(reference([(0, m), (Fraction(0), m)]))


def test_ring_entries_are_refused():
    # a matrix of ring entries is refused where it would be built, and a ring coefficient by combination
    with pytest.raises(TypeError, match="^Matrix needs exact scalar entries of one field$"):
        Matrix([[s_plus(1), 0], [s_z(1), Fraction(1, 2)]])
    exact = Matrix([[Fraction(1, 2), 0], [0, 1]])
    for pairs in ([(s_z(2), exact)], [(1, exact), (s_plus(1), exact)]):
        with pytest.raises(TypeError, match="^combination needs exact scalar entries of one field$"):
            combination(pairs)
    with pytest.raises(TypeError, match="^combination needs exact scalar entries of one field$"):
        exact.scale(s_z(1))


def test_two_orders_are_refused():
    third, fourth = Matrix([[zeta(3), 0]]), Matrix([[0, zeta(4)]])
    for pairs in ([(1, third), (1, fourth)], [(zeta(4), third)], [(zeta(3), Matrix([[1, 2]])), (zeta(4), third)]):
        with pytest.raises(OrderMismatchError):
            combination(pairs)


def test_mismatched_shapes_raise():
    with pytest.raises(ShapeError):
        combination([(1, Matrix.identity(2)), (1, Matrix.identity(3))])
    with pytest.raises(ShapeError):
        combination([(1, Matrix([[1, 2]])), (1, Matrix([[1], [2]]))])
