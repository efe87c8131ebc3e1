from fractions import Fraction

import pytest

from nreflect.errors import ConstraintError, PoleError
from nreflect.linalg import Matrix, permutation_operator, swap_pair
from nreflect.rmatrix import MAX_FACTOR_SIZE, cybe_residual, rational_r, skew_residual, trig_r
from nreflect.sampling import DEFAULT_SEED, SplitMix64, sample_evaluated
from nreflect.scalars import zeta

F = Fraction


class TestRationalR:
    def test_value_at_sample(self):
        r = rational_r(2)
        assert r(F(3), F(1)) == permutation_operator(2).scale(F(1, 2))

    def test_pole(self):
        with pytest.raises(PoleError):
            rational_r(2)(F(5), F(5))

    def test_skew_symmetry(self):
        r = rational_r(2)
        # P/(2-5) + swap(P/(5-2)) = -P/3 + P/3
        assert skew_residual(r, F(2), F(5)).is_zero()

    def test_factor_size_bound(self):
        # the largest factor size is built; one more is refused before anything is built
        assert rational_r(MAX_FACTOR_SIZE)(F(3), F(1)) == permutation_operator(MAX_FACTOR_SIZE).scale(F(1, 2))
        with pytest.raises(ConstraintError, match=f"^factor size n must be at most {MAX_FACTOR_SIZE}, got"):
            rational_r(MAX_FACTOR_SIZE + 1)


class TestTrigR:
    def test_value_at_sample(self):
        expected = Matrix([[F(-3), 0, 0, 0],
                           [0, F(3), F(-4), 0],
                           [0, F(-8), F(3), 0],
                           [0, 0, 0, F(-3)]]).scale(F(1, 2))
        assert trig_r()(F(2), F(1)) == expected

    def test_pole(self):
        with pytest.raises(PoleError):
            trig_r()(F(1), F(1))

    def test_a_point_outside_q_is_refused(self):
        # its points are rational: a Q(zeta_3) point is a ConstraintError that names the pair, also inside the
        # Yang-Baxter residual, and not an unpacking failure
        with pytest.raises(ConstraintError, match=r"^trigonometric r-matrix at points not in Q: \(1 \+ z, 1\)$"):
            trig_r()(zeta(3) + 1, F(1))
        with pytest.raises(ConstraintError, match=r"not in Q: \(2, z\)$"):
            cybe_residual(trig_r(), F(2), zeta(3), F(5))

    def test_skew_symmetry(self):
        assert skew_residual(trig_r(), F(2), F(1)).is_zero()


class TestCybeResidual:
    def test_rational_vanishes(self):
        assert cybe_residual(rational_r(2), F(1), F(2), F(3)).is_zero()

    def test_trig_vanishes(self):
        assert cybe_residual(trig_r(), F(2), F(3), F(5)).is_zero()

    def test_broken_r_fails(self):
        perm = permutation_operator(2)
        broken = lambda lam, mu: perm.scale(1 / (lam - 2 * mu))  # noqa: E731
        assert not cybe_residual(broken, F(1), F(2), F(3)).is_zero()

    @pytest.mark.parametrize("r", [rational_r(2), rational_r(3), trig_r()],
                             ids=["rational-n2", "rational-n3", "trig"])
    def test_seeded_samples(self, r):
        rng = SplitMix64(DEFAULT_SEED)
        for triple, residual in sample_evaluated(rng, 25, 3, lambda *pt: cybe_residual(r, *pt)):
            assert residual.is_zero()
            assert skew_residual(r, triple[0], triple[1]).is_zero()


def test_swap_pair_matches_conjugation():
    r = trig_r()(F(2), F(7))
    p = permutation_operator(2)
    assert swap_pair(r) == p * r * p


def test_sampler_determinism():
    a = list(sample_evaluated(SplitMix64(DEFAULT_SEED), 5, 2, lambda *pt: pt))
    b = list(sample_evaluated(SplitMix64(DEFAULT_SEED), 5, 2, lambda *pt: pt))
    assert a == b
