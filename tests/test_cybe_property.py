"""``cybe_residual`` against the residual by its definition on drawn pair-leg
matrices: A, B, C and D on C^n x C^n for n = 1, 2 and 3, over Q or Q(zeta_3)
(the four operands' fields mixed), sparse or dense, with small numerators
and numerators of 100 bits and more, so that the slots are 64, 128 and
192 bits wide and more.  The catalog's r-matrices have few sparsity
patterns and vanishing residuals; these draws mostly have neither, and a
floor on the draws with a nonzero residual keeps the comparison from
passing on vanishing residuals alone."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nreflect.linalg import Matrix  # noqa: E402
from nreflect.scalars import cyclotomic  # noqa: E402
from test_combination import assert_lowest_terms, data  # noqa: E402
from test_cybe_oracle import kernel_and_oracle  # noqa: E402

PROFILE = settings(max_examples=150, deadline=None, derandomize=True, database=None)

numerators = st.one_of(st.integers(-9, 9), st.integers(2**100, 2**140), st.integers(-2**140, -2**100))
rationals = st.builds(Fraction, numerators, st.one_of(st.integers(1, 12), st.integers(2**60, 2**70)))


@st.composite
def pair_matrix(draw, n, cyclotomic_entries, density):
    """An n^2 x n^2 matrix whose entries are nonzero with probability about
    ``density``, over Q(zeta_3) where ``cyclotomic_entries`` (a drawn vector
    may still be rational)."""
    def entry():
        if not draw(st.integers(0, 99)) < density:
            return 0
        if cyclotomic_entries:
            return cyclotomic(3, draw(st.lists(rationals, min_size=1, max_size=2)))
        return draw(rationals)
    return Matrix([[entry() for _ in range(n * n)] for _ in range(n * n)])


@st.composite
def quadruples(draw):
    n, density = draw(st.sampled_from((2, 3, 3, 1))), draw(st.sampled_from((40, 15, 100)))
    return [draw(pair_matrix(n, draw(st.booleans()), density)) for _ in range(4)]


def test_kernel_is_the_definition_on_drawn_matrices():
    seen = {"draws": 0, "nonzero": 0}

    @PROFILE
    @given(quadruples())
    def check(matrices):
        residual, oracle = kernel_and_oracle(*matrices)
        assert data(residual) == data(oracle)
        assert_lowest_terms(residual)
        seen["draws"] += 1
        seen["nonzero"] += not oracle.is_zero()

    check()
    assert seen["draws"] >= 150 and seen["nonzero"] >= 60, seen
