"""Deterministic sampling of exact rational spectral points.

Identity checks in this package are Schwartz-Zippel style: every identity in
scope is a rational function of low total degree, so exact evaluation at a
handful of random rational points certifies it with overwhelming confidence.

There is one rejection rule: the sampler draws a point and evaluates the
check there.  It redraws only if the evaluation raises ``PoleError`` or
``SingularMatrixError``, that is, exactly at the points where some quantity
the check needs is undefined.  Every evaluator raises one of the two where
it hits a pole, so no separate domain predicate is needed; any other
exception is a fault and propagates.  The generator is a self-contained
64-bit splitmix so reports are reproducible across platforms and Python
versions.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PoleError, SamplingError, SingularMatrixError

DEFAULT_SEED = 0xC0FFEE
DEFAULT_SAMPLES = 25

_MASK = (1 << 64) - 1


class SplitMix64:
    def __init__(self, seed: int = DEFAULT_SEED):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi]; bias is irrelevant for sampling."""
        return lo + self.next_u64() % (hi - lo + 1)


def sample_fraction(rng: SplitMix64) -> Fraction:
    """Random rational with numerator in [-20, 20], denominator in [1, 20]."""
    return Fraction(rng.randint(-20, 20), rng.randint(1, 20))


POLE_ERRORS = (PoleError, SingularMatrixError)


def first_admissible(points, evaluate):
    """(point, evaluate(*point)) at the first point where ``evaluate`` does not
    raise a pole error; SamplingError where there is none."""
    for point in points:
        try:
            return point, evaluate(*point)
        except POLE_ERRORS:
            continue
    raise SamplingError("rejection sampling did not find an admissible point")


def sample_evaluated(rng, count, arity, evaluate, max_tries=10_000):
    """Yield ``count`` pairs (point, evaluate(*point)) at seeded points of
    ``arity`` rationals; a point is redrawn only where ``evaluate`` raises a
    pole error.  Lazy, so a caller can consume each value before the next
    point is drawn."""
    for _ in range(count):
        draws = (tuple(sample_fraction(rng) for _ in range(arity)) for _ in range(max_tries))
        yield first_admissible(draws, evaluate)
