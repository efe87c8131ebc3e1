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
that rbar's integer arithmetic has to hold.  Every catalog label is also
compared at each of the 511 values the sampler can draw (the same value or
the same exception class, and the same n-unitarity entry), and the families
with non-identity k at drawn parameters.

:func:`scalar_functional_residual` is a second route to the residual of
the identity-k cases over the rational r, read by ``tests/test_reflection.py``
and ``tests/test_acceptance.py``.
"""

from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from nreflect.errors import ConstraintError, PoleError
from nreflect.linalg import LegTable, Matrix, tensor_pair
from nreflect.reflection import (CATALOG, PointFrame, case_by_label, n_unitarity_entry, nre_residual, point_frame,
                                 rbar_at, rbar_matrix, tamper)
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
    """sum_j g^(j)(nu) (1 x k^(j)) r(lam, tau^j(nu)) (1 x k^(j))^-1, term by
    term, with every g^(j)(nu) and k^(j)(nu) and its inverse formed before
    the first term, the order in which the domain of rbar is defined."""
    lam, nu = as_scalar(lam), as_scalar(nu)
    eye = Matrix.identity(case.n)
    orbit = case.orbit(nu)
    weights = [case.weights(j, nu) for j in range(case.N)]
    ks = [eye]  # k^(j+1)(nu) = k^(j)(nu) k(tau^j(nu))
    for point in orbit[:-1]:
        ks.append(ks[-1] * case.k(point))
    pairs = [(kj, kj.inverse()) for kj in ks]
    total = None
    for g, point, (kj, kj_inv) in zip(weights, orbit, pairs):
        term = (tensor_pair(eye, kj) * case.base_r(lam, point) * tensor_pair(eye, kj_inv)).scale(g)
        total = term if total is None else total + term
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


@pytest.mark.parametrize("order", (1, 3, 4, 5, 6, 8))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_rbar_of_a_direct_compiled_frame_reaches_the_packing_bound(order, n):
    # every coefficient of every compiled numerator, weight and base-r coefficient is +-top
    # with one sign per operand, at nu = 1 and nu = -1 with the numerators' signs alternating
    # by degree, so that no sum cancels: the largest numerators the frame's integer Horner
    # pass and rbar's dot products meet at these tops, checked against the terms evaluated
    # with field arithmetic and added with +
    for top in (3, 3 * 2**200):
        entry = cyclotomic(order, [top] * euler_phi(order))
        for nu in (F(1), F(-1)):
            coeffs = tuple(entry * nu**d for d in range(3))
            terms = [[{c: coeffs for c in range(n * n) if not lower or c <= r} for r in range(n * n)]
                     for lower in (False, True, False, True)]
            for sign in (1, -1):
                weight = entry * sign
                table = SimpleNamespace(identity_k=False, table=LegTable(terms, [0, 2]))
                frame = PointFrame((nu, nu), (weight, entry), (weight, entry), table)
                case = SimpleNamespace(base_r=SimpleNamespace(coefficients=lambda lam, point: (entry, weight)))
                want = None
                for t, term in enumerate(terms):
                    value = sum((x * nu**d for d, x in enumerate(coeffs)), ZERO)
                    m = Matrix([[value if c in term[r] else ZERO for c in range(n * n)] for r in range(n * n)])
                    m = m.scale(frame.scaled[t // 2] * (entry, weight)[t % 2])
                    want = m if want is None else want + m
                assert rbar_at(case, F(0), frame) == want, (top, nu, sign)


@pytest.mark.parametrize("name", [name for name in CASES[:-1] if name.startswith("linear-k")])
def test_rbar_matches_the_oracle_at_cyclotomic_nu(name):
    # a frame at a point over Q(zeta_N) evaluates the compiled numerators with field arithmetic,
    # also where the point's field is not the table's
    case = build(name)
    for nu in (F(2, 3) + zeta(3), F(-5, 7) * zeta(3) + 1, F(1, 3) + 2 * zeta(4 if case.N == 2 else 3)):
        assert rbar_matrix(case, F(1, 7), nu) == oracle_rbar(case, F(1, 7), nu), (name, nu)


# every value ``sample_fraction`` can return
SUPPORT = sorted({F(p, q) for p in range(-20, 21) for q in range(1, 21)})
LAM0 = F(1001, 997)


def outcome(evaluate, *args):
    """("value", evaluate(*args)), or ("raises", the exception class)."""
    try:
        return "value", evaluate(*args)
    except POLE_ERRORS as exc:
        return "raises", type(exc)


def oracle_unitarity_entry(case, nu):
    """n_unitarity_entry at nu with k^(N) multiplied out from ``case.k``."""
    entry = {"sample": [str(nu)]}
    try:
        kn = Matrix.identity(case.n)
        for point in case.orbit(nu):
            kn = kn * case.k(point)
    except PoleError as exc:
        return dict(entry, status="fail", reason=str(exc))
    f = kn[0, 0]
    if kn != Matrix.identity(case.n).scale(f):
        return dict(entry, status="fail", reason="k^(N) is not a scalar multiple of the identity")
    if case.expected_f is not None and f != case.expected_f(nu):
        return dict(entry, status="fail", f=str(f), expected_f=str(case.expected_f(nu)))
    return dict(entry, status="pass", f=str(f))


@pytest.mark.parametrize("label", sorted(CATALOG))
def test_rbar_matches_the_oracle_on_the_whole_sampler_support(label):
    # the compiled frame against k^(j) multiplied out and inverted by elimination, at every
    # point the sampler can draw: the same value, or the same exception class; and the
    # n-unitarity entry, reason texts included
    case = case_by_label(label)
    for nu in SUPPORT:
        got = outcome(lambda: rbar_at(case, LAM0, point_frame(case, nu)))
        assert got == outcome(oracle_rbar, case, LAM0, nu), (label, nu)
        assert n_unitarity_entry(case, nu) == oracle_unitarity_entry(case, nu), (label, nu)


PARAMETERS = settings(max_examples=12, deadline=None, derandomize=True, database=None)
small = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def compare_compiled(case, nus=(F(5, 3), F(-7, 2), F(11, 5))):
    """rbar and, where it is defined, k^(N) of the compiled case against the
    oracle at three points."""
    for nu in nus:
        got = outcome(lambda: rbar_at(case, LAM0, point_frame(case, nu)))
        assert got == outcome(oracle_rbar, case, LAM0, nu), (case.label, case.params, nu)
        if got[0] == "value":
            kn = Matrix.identity(case.n)
            for point in case.orbit(nu):
                kn = kn * case.k(point)
            assert case.compiled[1](nu) == kn, (case.label, case.params, nu)


def drawn(label, params):
    """The case of ``label`` at ``params``; None where it refuses them."""
    try:
        return case_by_label(label, params)
    except ConstraintError:
        return None


@pytest.mark.parametrize("label", [label for label in sorted(CATALOG) if label.startswith("linear-k")
                                   or label == "trig-2refl-tau" or label.startswith("trig-3refl")])
def test_compiled_k_at_drawn_parameters(label):
    # theta of linear-k, (a, b, c) of trig-2refl-tau, and (a, c, d) of trig-3refl with
    # b = -(a^2 + ad + d^2)/c solving the order-three constraint; refused draws are skipped
    accepted = []

    @PARAMETERS
    @given(small, small, small)
    def run(a, c, d):
        if label.startswith("linear-k"):
            case = drawn(label, {"theta": a})
        elif label == "trig-2refl-tau":
            case = drawn(label, {"a": a, "b": c, "c": d})
        else:
            case = drawn(label, {"a": a, "b": -(a * a + a * d + d * d) / c, "c": c, "d": d}) if c else None
        if case is not None:
            compare_compiled(case)
            accepted.append(case)

    run()
    assert len(accepted) >= 8
