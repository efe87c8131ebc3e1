"""Data over Q(zeta_N) evaluated at rational points, on integers.

``RatFun.eval_at``, ``MobiusMap.__call__`` and the rational r's scalar
1/(lam - mu) take a Q(zeta_N) coefficient or point as its phi(N) integer
numerators over one denominator and normalize each value once.  The oracle
tests compare them, with ``==`` and by type, against plain ``Cyclotomic``
field arithmetic written out here, for N in {1, 3, 4, 5, 8, 12} (phi from 1
to 4), at seeded points as ``sample_fraction`` draws them, at points where a
denominator factor is negative, with coefficients wider than 64 bits, and at
the poles, where both sides must raise PoleError with the same text.

The count guards pin what the integer paths save: at a rational point no
``Cyclotomic`` arithmetic method runs, neither in the orbit, the frame and
rbar of a ``linear-k-N3`` case, and compiling k and building its table
make no ``Poly`` product and no ``Cyclotomic`` arithmetic at all.
"""

import random
from fractions import Fraction as F

import pytest

from nreflect.errors import PoleError
from nreflect.ratfun import Poly, RatFun
from nreflect.reflection import CATALOG, MobiusMap, case_by_label, point_frame, rbar_at
from nreflect.rmatrix import rational_r
from nreflect.sampling import SplitMix64, sample_fraction
from nreflect.scalars import Cyclotomic, cyclotomic, euler_phi, zeta

ORDERS = (1, 3, 4, 5, 8, 12)


def scalar(rng, order, bits=5):
    """A seeded element of Q(zeta_order) with numerators of up to ``bits`` bits."""
    top = 1 << bits
    return cyclotomic(order, [F(rng.randint(-top, top), rng.randint(1, 12)) for _ in range(euler_phi(order))])


def point(rng):
    """A rational point as ``sample_fraction`` draws one."""
    return F(rng.randint(-20, 20), rng.randint(1, 20))


def field_value(f, x):
    """sum_i c_i x^i / prod (x - root)^mult in field arithmetic."""
    den = F(1)
    for root, mult in f.roots:
        if x == root:
            raise PoleError(f"rational function has a pole at {x}")
        den = den * (x - root) ** mult
    return sum((c * x**i for i, c in enumerate(f.num.coeffs)), F(0)) / den


def outcome(evaluate, *args):
    """(type, value) of the value, or the PoleError's text."""
    try:
        value = evaluate(*args)
    except PoleError as exc:
        return "pole", str(exc)
    return type(value), value


def mobius_value(a, b, c, d, nu):
    """(a nu + b) / (c nu + d) in field arithmetic."""
    if not c * nu + d:
        raise PoleError(f"Mobius map has a pole at nu = {nu}")
    return (a * nu + b) / (c * nu + d)


def random_ratfun(rng, order, bits=5):
    coeffs = [scalar(rng, order, bits) for _ in range(rng.randint(1, 4))]
    roots = [(point(rng), rng.randint(1, 2)) for _ in range(rng.randint(0, 2))]
    return RatFun(Poly(coeffs), roots)


@pytest.mark.parametrize("order", ORDERS)
class TestOracle:
    def test_ratfun_eval_at(self, order):
        rng = random.Random(order)
        for _ in range(40):
            f = random_ratfun(rng, order)
            xs = [point(rng) for _ in range(4)] + [root for root, _ in f.roots]
            for x in xs:
                assert outcome(f.eval_at, x) == outcome(field_value, f, x)

    def test_ratfun_eval_at_with_negative_factors_and_wide_coefficients(self, order):
        """Roots above and below the point, so that factors p v - u q of
        both signs and a negative denominator occur; coefficients of 100 and
        of 127 bits, whose coordinates need slots wider than 64 bits (the
        127-bit ones right at a slot boundary)."""
        rng = random.Random(100 + order)
        for bits in (100, 127):
            for _ in range(20):
                f = random_ratfun(rng, order, bits)
                f = RatFun(f.num, [(F(7, 3), 1), (F(-5, 2), 3)])
                for x in (F(-19, 4), F(0), F(2), F(3), F(-2, 7), F(20), F(1, 20)):
                    assert outcome(f.eval_at, x) == outcome(field_value, f, x)
        top = cyclotomic(order, [F((1 << 127) - 1)] * euler_phi(order))
        f = RatFun(Poly([top, -top]), [(F(1, 3), 1)])
        for x in (F(-1), F(0), F(1, 2), F(2)):
            assert outcome(f.eval_at, x) == outcome(field_value, f, x)

    def test_rational_values_demote_to_fraction(self, order):
        z = zeta(order) if order > 1 else F(1, 3)
        for f, x, value in ((RatFun(Poly([-z, 2 * z])), F(1, 2), F(0)),
                            (RatFun(Poly([1 - z, z])), F(1), F(1)),
                            (RatFun(Poly([1 - z, z]), [(F(3), 2)]), F(1), F(1, 4)),
                            (RatFun(Poly([z])), F(5), z)):
            assert outcome(f.eval_at, x) == outcome(field_value, f, x) == (type(value), value)

    def test_mobius_map(self, order):
        rng = random.Random(200 + order)
        for _ in range(30):
            a, b = scalar(rng, order), scalar(rng, order)
            c, d = F(rng.randint(-9, 9) or 1, rng.randint(1, 5)), F(rng.randint(-9, 9), rng.randint(1, 5))
            if not a * d - b * c:
                continue
            t = MobiusMap(a, b, c, d)
            for nu in [point(rng) for _ in range(4)] + [-d / c, -d / c + 1, -d / c - 1]:
                assert outcome(t, nu) == outcome(mobius_value, a, b, c, d, nu)

    def test_rational_r_scalar(self, order):
        rng, coefficients = random.Random(300 + order), rational_r(2).coefficients
        for _ in range(30):
            lam, mu = point(rng), scalar(rng, order)
            pairs = [(lam, mu), (mu, lam), (mu, scalar(rng, order)), (mu + 1, mu), (mu, mu - F(2, 3))]
            for x, y in pairs:
                if x != y:
                    (value,) = coefficients(x, y)
                    expected = 1 / (x - y)
                    assert (type(value), value) == (type(expected), expected)
            with pytest.raises(PoleError, match="rational"):
                coefficients(mu, mu)


ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
              "__rtruediv__", "__neg__", "__pow__", "inverse")


def no_field_arithmetic(monkeypatch):
    def refuse(*args):
        raise AssertionError("Cyclotomic arithmetic at a rational point")
    for name in ARITHMETIC:
        monkeypatch.setattr(Cyclotomic, name, refuse)


class TestCounts:
    def test_rational_points_take_no_field_arithmetic(self, monkeypatch):
        z = zeta(3)
        case = case_by_label("linear-k-N3-diag-th2", {"theta": F(5, 7)})
        lam, mu, nu = F(-3, 4), z * F(2, 5), F(11, 3)
        k_entry, weight = case.k[1][1], case.weights.gs[2]
        expected = (case.tau(lam), k_entry.eval_at(nu), weight.eval_at(nu), case.k(nu),
                    rational_r(3).coefficients(lam, mu), rational_r(3).coefficients(mu, z))
        fresh = case_by_label("linear-k-N3-diag-th2", {"theta": F(5, 7)})  # no integer form built yet
        no_field_arithmetic(monkeypatch)
        assert (fresh.tau(lam), fresh.k[1][1].eval_at(nu), fresh.weights.gs[2].eval_at(nu), fresh.k(nu),
                rational_r(3).coefficients(lam, mu), rational_r(3).coefficients(mu, z)) == expected

    @pytest.mark.parametrize("label", sorted(label for label in CATALOG if not case_by_label(label).identity_k))
    def test_compile_makes_no_poly_product_and_no_field_arithmetic(self, monkeypatch, label):
        # compiling k and building its table run on integers: no Poly product, no Cyclotomic arithmetic
        case = case_by_label(label)

        def refuse(*args):
            raise AssertionError("a Poly product in the compile")
        monkeypatch.setattr(Poly, "__mul__", refuse)
        monkeypatch.setattr(Poly, "__rmul__", refuse)
        no_field_arithmetic(monkeypatch)
        case.compiled, case.table

    @pytest.mark.parametrize("label", sorted(label for label in CATALOG if label.startswith("linear-k-N3")))
    def test_frames_at_rational_draws_take_no_field_arithmetic(self, monkeypatch, label):
        # the orbit, the frame and rbar at seeded rational draws, on a fresh case whose iterates, compile and
        # table are built under the guard; the draw where k^(j)(nu) is singular is redrawn, as the sampler does
        case, rng, frames = case_by_label(label), SplitMix64(7), 0
        no_field_arithmetic(monkeypatch)
        for _ in range(20):
            lam, nu = sample_fraction(rng), sample_fraction(rng)
            if nu != -case.params["theta"] and lam != nu:
                case.orbit(nu)
                frames += rbar_at(case, lam, point_frame(case, nu)).nrows == 9
        assert frames >= 15
