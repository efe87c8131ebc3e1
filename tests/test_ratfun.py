from fractions import Fraction

import pytest

from nreflect.errors import PoleError
from nreflect.ratfun import Poly, RatFun
from nreflect.sampling import SplitMix64

F = Fraction


def simple_pole(root, coeff=F(1)):
    return RatFun(Poly.const(coeff), [(F(root), 1)])


class TestPoly:
    def test_trim_and_degree(self):
        assert Poly([F(1), F(0), F(0)]).degree == 0
        assert Poly([]).degree == -1
        assert Poly.linear(F(2), F(3)).degree == 1

    def test_eval_and_derivative(self):
        p = Poly([F(1), F(2), F(3)])  # 1 + 2x + 3x^2
        assert p.eval_at(F(2)) == 17
        assert p.derivative() == Poly([F(2), F(6)])

    def test_divmod_linear(self):
        p = Poly([F(-1), F(0), F(1)])  # x^2 - 1
        q, r = p.divmod_linear(F(1))
        assert q == Poly([F(1), F(1)]) and r == 0

    def test_divmod_by(self):
        p = Poly([F(1), F(0), F(0), F(2)])  # 2x^3 + 1
        d = Poly([F(-1), F(1)])  # x - 1
        q, r = p.divmod_by(d)
        assert q * d + r == p


class TestRatFunArith:
    def test_sum_of_simple_poles(self):
        f = simple_pole(1) + simple_pole(-1)
        # 1/(x-1) + 1/(x+1) = 2x / ((x-1)(x+1))
        assert f.num == Poly([F(0), F(2)])
        assert f.roots == ((F(-1), 1), (F(1), 1))

    def test_full_cancellation(self):
        f = RatFun(Poly([F(-1), F(1)]), [(F(1), 1)])  # (x-1)/(x-1)
        assert f.num == Poly([F(1)]) and f.roots == ()

    def test_square_of_pole(self):
        f = simple_pole(2) * simple_pole(2)
        assert f.num == Poly([F(1)]) and f.roots == ((F(2), 2),)

    def test_eval_and_pole(self):
        f = simple_pole(1)
        assert f.eval_at(F(3)) == F(1, 2)
        with pytest.raises(PoleError):
            f.eval_at(F(1))

    def test_subtraction_cancels(self):
        f = simple_pole(1) + simple_pole(2)
        assert (f - f).is_zero()

    def test_over_linears_constant_factor(self):
        # 1 / (0*x + 5) is just the constant 1/5
        f = RatFun.over_linears(Poly.const(F(1)), [(F(0), F(5))])
        assert f.roots == () and f.eval_at(F(7)) == F(1, 5)

    def test_div_scalar(self):
        f = simple_pole(1).div_scalar(F(2))
        assert f.eval_at(F(3)) == F(1, 4)
        with pytest.raises(ZeroDivisionError):
            f.div_scalar(F(0))


class TestResidues:
    def test_simple(self):
        assert simple_pole(1).residue(F(1)) == 1

    def test_order_two_at_zero(self):
        # (1 + x)/x^2: residue at 0 is 1
        f = RatFun(Poly([F(1), F(1)]), [(F(0), 2)])
        assert f.residue(F(0)) == 1

    def test_order_two_with_extra_pole(self):
        # x/((x-2)^2 (x-3)): g = x/(x-3), g'(2) = -3
        f = RatFun(Poly([F(0), F(1)]), [(F(2), 2), (F(3), 1)])
        assert f.residue(F(2)) == -3

    def test_not_a_pole_returns_zero(self):
        assert simple_pole(1).residue(F(5)) == 0

    def test_linearity(self):
        rng = SplitMix64(99)
        for _ in range(20):
            f = _random_ratfun(rng)
            g = _random_ratfun(rng)
            z0 = F(rng.randint(-3, 3))
            c = F(rng.randint(-5, 5), rng.randint(1, 5))
            lhs = (f.scale(c) + g).residue(z0)
            assert lhs == c * f.residue(z0) + g.residue(z0)


def _random_ratfun(rng, max_degree=8):
    roots = {}
    den_degree = rng.randint(1, 4)
    while sum(roots.values()) < den_degree:
        roots[F(rng.randint(-3, 3))] = rng.randint(1, 2)
    num_degree = rng.randint(0, max_degree - sum(roots.values()))
    num = Poly([F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(num_degree + 1)])
    return RatFun(num, roots.items())


def test_residue_theorem_on_random_functions():
    # sum over finite poles plus the residue at infinity vanishes; the
    # infinity side comes from polynomial long division, an independent path
    rng = SplitMix64(0xC0FFEE)
    checked = 0
    while checked < 50:
        f = _random_ratfun(rng)
        if f.is_zero() or not f.roots:
            continue
        total = sum((f.residue(root) for root, _ in f.roots), start=F(0))
        assert total + f.residue_at_infinity() == 0
        checked += 1


@pytest.mark.parametrize("f", [
    RatFun(Poly([F(1), F(2)])),
    RatFun(Poly.const(F(5))),
    RatFun(Poly()),
    RatFun(Poly([F(-2), F(1)]), [(F(2), 1)]),  # (x - 2)/(x - 2) cancels to 1
])
def test_residue_at_infinity_without_finite_poles_is_zero(f):
    assert not f.roots
    assert f.residue_at_infinity() == 0


def test_derivative_quotient_rule():
    f = RatFun(Poly([F(0), F(1)]), [(F(2), 2), (F(3), 1)])
    x = F(5)
    h = F(1, 1000)
    numeric = (f.eval_at(x + h) - f.eval_at(x - h)) / (2 * h)
    exact = f.derivative().eval_at(x)
    assert abs(float(numeric - exact)) < 1e-3
