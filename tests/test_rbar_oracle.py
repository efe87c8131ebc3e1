"""An independent oracle for the induced matrix rbar and the reflection
residual: the definition summed term by term,

    rbar_ab(lam, nu) = sum_j g^(j)(nu) k_b^(j)(nu) r_ab(lam, tau^j(nu)) k_b^(j)(nu)^-1,

each term a base r-matrix evaluation conjugated by 1 x k^(j)(nu) and its
inverse (for j = 0 too), scaled by g^(j)(nu), and the terms added with
``+``.  The iterated products k^(j) are built here, not read from the
package.  Every catalog case, ``id-3refl`` at n = 3 and a tampered case
are compared exactly at seeded points, for rbar and for the compact form
of the reflection residual.

:func:`scalar_functional_residual` is a second route to the residual of
the identity-k cases over the rational r, read by ``tests/test_reflection.py``
and ``tests/test_acceptance.py``.
"""

from fractions import Fraction

import pytest

from nreflect.linalg import Matrix, tensor_pair
from nreflect.reflection import CATALOG, case_by_label, nre_residual, rbar_matrix, tamper
from nreflect.sampling import DEFAULT_SEED, SplitMix64, sample_evaluated
from nreflect.scalars import ZERO, as_scalar

F = Fraction

CASES = sorted(CATALOG) + ["id-3refl-n3", "linear-k-N3-diag-th2[tampered:g1-sign]"]


def build(name):
    if name == "id-3refl-n3":
        return case_by_label("id-3refl", {"n": 3})
    if name.endswith("[tampered:g1-sign]"):
        return tamper(case_by_label(name.split("[")[0]), "g1-sign")
    return case_by_label(name)


def oracle_rbar(case, lam, nu) -> Matrix:
    """sum_j g^(j)(nu) (1 x k^(j)) r(lam, tau^j(nu)) (1 x k^(j))^-1, term by term."""
    lam, nu = as_scalar(lam), as_scalar(nu)
    eye = Matrix.identity(case.n)
    kj = eye  # k^(0)
    total = None
    for j, point in enumerate(case.orbit(nu)):
        term = tensor_pair(eye, kj) * case.base_r(lam, point) * tensor_pair(eye, kj.inverse())
        term = term.scale(case.weights(j, nu))
        total = term if total is None else total + term
        kj = kj * case.k(point)  # k^(j+1)(nu) = k^(j)(nu) k(tau^j(nu))
    return total


def oracle_compact(case, lam, nu) -> Matrix:
    """rbar_ab(lam, nu) k_a(lam) - k_a(lam) rbar_ab(tau(lam), nu) from the oracle."""
    lam = as_scalar(lam)
    k_a = tensor_pair(case.k(lam), Matrix.identity(case.n))
    return oracle_rbar(case, lam, nu) * k_a - k_a * oracle_rbar(case, case.tau(lam), nu)


def scalar_functional_residual(case, lam, nu):
    """For identity-k cases with the rational base r, the reflection residual
    collapses to sum_j g^(j)(nu) [1/(lam - tau^j(nu)) - 1/(tau(lam) - tau^j(nu))]."""
    lam, nu = as_scalar(lam), as_scalar(nu)
    total = ZERO
    tl = case.tau(lam)
    for j, point in enumerate(case.orbit(nu)):
        g = case.weights(j, nu)
        total = total + g * (1 / (lam - point) - 1 / (tl - point))
    return total


def seeded(evaluate, count=5, seed=DEFAULT_SEED):
    return list(sample_evaluated(SplitMix64(seed), count, 2, evaluate))


@pytest.mark.parametrize("name", CASES)
def test_rbar_matches_the_term_by_term_sum(name):
    case = build(name)
    samples = seeded(lambda lam, nu: rbar_matrix(case, lam, nu))
    assert len(samples) == 5
    for (lam, nu), rbar in samples:
        assert rbar == oracle_rbar(case, lam, nu), (name, lam, nu)


@pytest.mark.parametrize("name", CASES)
def test_nre_residual_matches_the_compact_form_of_the_oracle(name):
    case = build(name)
    samples = seeded(lambda lam, nu: nre_residual(case, lam, nu))
    assert len(samples) == 5
    for (lam, nu), residual in samples:
        assert residual == oracle_compact(case, lam, nu), (name, lam, nu)


def test_the_tampered_case_is_caught_by_both_routes():
    case = build("linear-k-N3-diag-th2[tampered:g1-sign]")
    for (lam, nu), residual in seeded(lambda lam, nu: nre_residual(case, lam, nu)):
        assert not residual.is_zero(), (lam, nu)
        assert not oracle_compact(case, lam, nu).is_zero(), (lam, nu)


def test_the_oracle_reproduces_a_known_value():
    # id-2refl at (1, 0): rbar = -4/3 P (see tests/test_reflection.py)
    case = case_by_label("id-2refl")
    assert oracle_rbar(case, F(1), F(0)) == rbar_matrix(case, F(1), F(0))
    assert oracle_rbar(case, F(1), F(0))[0, 0] == F(-4, 3)
