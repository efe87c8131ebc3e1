"""An independent oracle for the induced matrix rbar and the reflection
residual: the definition summed term by term,

    rbar_ab(lam, nu) = sum_j g^(j)(nu) k_b^(j)(nu) r_ab(lam, tau^j(nu)) k_b^(j)(nu)^-1,

each term a base r-matrix evaluation conjugated by 1 x k^(j)(nu) and its
inverse (for j = 0 too), scaled by g^(j)(nu), and the terms added with
``+``.  The iterated products k^(j) are built here, not read from the
package.  Every catalog case, ``id-3refl`` at n = 3 and a tampered case
are compared exactly at seeded points, for rbar and for the compact form
of the reflection residual; rbar also at points whose numerators and
denominators are about 2^200, rational and, for the rational base r,
cyclotomic.  Frames built directly, over Q and Q(zeta_N) for every N the
matrix oracle takes, with every numerator +-top, reach the widest sums
that rbar's integer arithmetic has to hold.

:func:`scalar_functional_residual` is a second route to the residual of
the identity-k cases over the rational r, read by ``tests/test_reflection.py``
and ``tests/test_acceptance.py``.
"""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from nreflect.linalg import Matrix, tensor_pair
from nreflect.reflection import CATALOG, PointFrame, case_by_label, nre_residual, rbar_at, rbar_matrix, tamper
from nreflect.sampling import DEFAULT_SEED, POLE_ERRORS, SplitMix64, sample_evaluated
from nreflect.scalars import ZERO, as_scalar, cyclotomic, euler_phi, zeta

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


def big_fraction(rng):
    """A rational whose numerator and denominator are about 2^200."""
    def big():
        return 2**200 + sum(rng.next_u64() << (64 * k) for k in range(3))
    return F((-1) ** rng.randint(0, 1) * big(), big())


def big_points(case, count, cyclotomic_lam=False):
    """``count`` admissible (lam, nu) of big rationals; with ``cyclotomic_lam``,
    lam = x + y zeta_N' for big rationals x and y, N' = 3 for a case whose
    matrices lie over Q(zeta_3) and 5 otherwise."""
    rng, out = SplitMix64(DEFAULT_SEED), []
    root = zeta(3 if case.N == 3 and case.family == "linear-k" else 5)
    while len(out) < count:
        lam, nu = big_fraction(rng), big_fraction(rng)
        if cyclotomic_lam:
            lam = lam + big_fraction(rng) * root
        try:
            out.append((lam, nu, rbar_matrix(case, lam, nu)))
        except POLE_ERRORS:
            continue
    return out


@pytest.mark.parametrize("name", CASES[:-1])
def test_rbar_matches_the_oracle_at_big_points(name):
    case = build(name)
    for lam, nu, rbar in big_points(case, 3):
        assert rbar == oracle_rbar(case, lam, nu), (name, lam, nu)


@pytest.mark.parametrize("name", [name for name in CASES[:-1] if build(name).base_r.kind == "rational"])
def test_rbar_matches_the_oracle_at_big_cyclotomic_lam(name):
    case = build(name)
    for lam, nu, rbar in big_points(case, 2, cyclotomic_lam=True):
        assert rbar == oracle_rbar(case, lam, nu), (name, lam, nu)


def conjugated_sum(frame, coefficients):
    """sum_j g_j sum_i f_ji (1 x left_j) M_i (1 x right_j) for a frame whose
    ks[j] is (left_j, right_j) or None (both the identity), by Kronecker
    products and matrix products."""
    n = frame.ks[1][0].nrows
    eye = Matrix.identity(n)
    total = None
    for g, point, kj in zip(frame.weights, frame.orbit, frame.ks):
        left, right = (eye, eye) if kj is None else kj
        for f, m in zip(coefficients(None, point), frame.basis):
            term = (tensor_pair(eye, left) * m * tensor_pair(eye, right)).scale(g * f)
            total = term if total is None else total + term
    return total


@pytest.mark.parametrize("order", (1, 3, 4, 5, 6, 8))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_rbar_of_a_direct_frame_reaches_the_packing_bound(order, n):
    # every numerator of every factor, weight and coefficient is +-top with one sign per
    # operand, so no sum cancels before it is reduced mod Phi_N: the largest
    # unreduced coordinates the integer arithmetic of rbar can meet at these tops.
    # The lower-triangular left factor of k^(2) tells the two sides of leg b apart.
    def dense(size, x):
        return Matrix([[x] * size for _ in range(size)])

    def lower(size, x):
        return Matrix([[x if i >= j else ZERO for j in range(size)] for i in range(size)])

    for top in (3, 3 * 2**200):
        entry = cyclotomic(order, [top] * euler_phi(order))
        for sign in (1, -1):
            weight = entry * sign
            basis = (dense(n * n, entry), lower(n * n, entry))
            ks = (None, (dense(n, entry), dense(n, -entry)), (lower(n, entry), dense(n, weight)))
            frame = PointFrame((F(0), F(1), F(2)), (weight, entry, weight), ks, basis)
            case = SimpleNamespace(base_r=SimpleNamespace(coefficients=lambda lam, point: (entry, weight)))
            assert rbar_at(case, F(0), frame) == conjugated_sum(frame, case.base_r.coefficients), (top, sign)
