from fractions import Fraction

import pytest

from nreflect.errors import OrderMismatchError
from nreflect.sampling import SplitMix64
from nreflect.scalars import (
    _inverse_parts,
    _mul_reduce,
    cyclotomic,
    cyclotomic_polynomial,
    euler_phi,
    scalar_from_str,
    scalar_to_str,
    to_complex,
    zeta,
)


def frac(p, q=1):
    return Fraction(p, q)


class TestCyclotomicPolynomial:
    def test_order_one(self):
        assert cyclotomic_polynomial(1) == (frac(-1), frac(1))

    def test_order_three(self):
        assert cyclotomic_polynomial(3) == (frac(1), frac(1), frac(1))

    def test_order_four(self):
        assert cyclotomic_polynomial(4) == (frac(1), frac(0), frac(1))

    def test_order_six(self):
        assert cyclotomic_polynomial(6) == (frac(1), frac(-1), frac(1))

    def test_order_twelve(self):
        assert cyclotomic_polynomial(12) == (frac(1), frac(0), frac(-1), frac(0), frac(1))

    def test_degrees(self):
        assert [euler_phi(n) for n in (1, 2, 3, 4, 6, 8)] == [1, 1, 2, 2, 2, 4]


class TestFieldOps:
    def test_zeta3_times_zeta3_squared(self):
        z = zeta(3)
        assert z * z * z == 1
        assert z * zeta(3, 2) == 1

    def test_invert_zeta4(self):
        z = zeta(4)
        assert 1 / z == -z  # zeta_4^2 = -1

    def test_one_plus_zeta_product(self):
        # (1 + z)(1 + z^2) over Q(zeta_3); oracle: polynomial product reduced
        # mod Phi_3 gives 1 + z + z^2 + z^3 = 1 + (-1) + 1 = 1
        z = zeta(3)
        assert (1 + z) * (1 + zeta(3, 2)) == 1

    def test_demotion_to_fraction(self):
        z = zeta(3)
        value = z + zeta(3, 2)  # equals -1
        assert isinstance(value, Fraction) and value == -1
        assert isinstance(zeta(2), Fraction) and zeta(2) == -1

    def test_division_and_pow(self):
        z = zeta(6)
        assert z**6 == 1
        assert z**-1 == z**5
        assert (3 / (1 + z)) * (1 + z) == 3

    @pytest.mark.parametrize("order", (3, 4, 5, 8))
    def test_pow_equals_repeated_products(self, order):
        x = cyclotomic(order, [frac(1, 2), frac(-2), frac(3)][:euler_phi(order)])
        product = frac(1)
        for k in range(10):
            assert x**k == product
            product = product * x
        inverse = 1 / x
        product = frac(1)
        for k in range(1, 4):
            product = product * inverse
            assert x**-k == product

    @pytest.mark.parametrize("order,num", [(1, (-6,)), (1, (7,)), (3, (2, -5)), (4, (-1, -1)),
                                           (5, (3, 0, -2, 1)), (8, (0, 0, 0, -4))])
    def test_inverse_parts(self, order, num):
        # the rule Cyclotomic.inverse and Matrix.inverse share: num * others is the
        # norm, a positive int, for every order (over Q the sign moves to others)
        others, norm = _inverse_parts(order, num)
        assert norm > 0
        assert list(_mul_reduce(order, num, others)) == [norm] + [0] * (len(num) - 1)

    def test_zero_inversion(self):
        assert zeta(3) * 0 == 0
        with pytest.raises(ZeroDivisionError):
            zeta(3) / (zeta(3) - zeta(3))
        with pytest.raises(ZeroDivisionError):
            zeta(3) / 0

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatchError):
            zeta(3) + zeta(4)


class TestToComplex:
    def test_zeta3(self):
        value = to_complex(zeta(3))
        assert abs(value - complex(-0.5, 0.8660254037844386)) < 1e-12

    def test_embedded_rational(self):
        assert to_complex(frac(7, 2)) == 3.5 + 0j

    def test_zeta6(self):
        value = to_complex(zeta(6))
        assert abs(value - complex(0.5, 0.8660254037844386)) < 1e-12


def random_element(rng, order):
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(euler_phi(order))]
    return cyclotomic(order, coeffs)


@pytest.mark.parametrize("order", [2, 3, 4, 6])
def test_field_axioms_randomized(order):
    rng = SplitMix64(0xC0FFEE ^ order)
    for _ in range(250):  # 4 orders x 250 = 1000 seeded samples
        u = random_element(rng, order)
        v = random_element(rng, order)
        w = random_element(rng, order)
        assert (u + v) + w == u + (v + w)
        assert (u * v) * w == u * (v * w)
        assert u * (v + w) == u * v + u * w
        if u:
            assert u * (1 / u) == 1


@pytest.mark.parametrize("order", [3, 4, 6])
def test_to_complex_is_ring_homomorphism(order):
    rng = SplitMix64(0xBEEF ^ order)
    for _ in range(100):
        u = random_element(rng, order)
        v = random_element(rng, order)
        assert abs(to_complex(u + v) - (to_complex(u) + to_complex(v))) < 1e-12
        assert abs(to_complex(u * v) - to_complex(u) * to_complex(v)) < 1e-12


class TestRendering:
    def test_fraction_roundtrip(self):
        assert scalar_to_str(frac(-5, 3)) == "-5/3"
        assert scalar_from_str("-5/3") == frac(-5, 3)
        assert scalar_from_str("7") == 7

    def test_cyclotomic_roundtrip(self):
        value = 1 + 2 * zeta(3)
        text = scalar_to_str(value)
        assert text == "1 + 2*z"
        assert scalar_from_str(text, order=3) == value

    def test_negative_coefficient(self):
        value = frac(1, 2) - zeta(4)
        assert scalar_from_str(scalar_to_str(value), order=4) == value

    def test_z_power(self):
        assert scalar_from_str("z^2", order=6) == zeta(6, 2)

    def test_bad_input(self):
        with pytest.raises(ValueError):
            scalar_from_str("z", order=None)
        with pytest.raises(ValueError):
            scalar_from_str("spam")
