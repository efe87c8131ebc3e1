"""The sampler's one rejection rule: a point is redrawn only where the
check's evaluation raises a pole error; any other exception propagates."""

import pytest

from nreflect.errors import PoleError, SingularMatrixError
from nreflect.sampling import SplitMix64, first_admissible, sample_evaluated


@pytest.mark.parametrize("error", [PoleError, SingularMatrixError])
def test_pole_errors_redraw(error):
    seen = []

    def evaluate(x, y):
        seen.append((x, y))
        if len(seen) < 3:
            raise error("pole")
        return x + y

    ((point, value),) = sample_evaluated(SplitMix64(5), 1, 2, evaluate)
    assert len(seen) == 3 and point == seen[-1] and value == sum(point)


@pytest.mark.parametrize("error", [TypeError, ZeroDivisionError])
def test_other_errors_propagate(error):
    def evaluate(x):
        raise error("a fault, not a pole")

    with pytest.raises(error):
        list(sample_evaluated(SplitMix64(5), 1, 1, evaluate))


def test_first_admissible_point_keeps_its_value():
    def reciprocal(x):
        if not x:
            raise PoleError("x = 0")
        return 1 / x

    assert first_admissible([(0,), (2,), (4,)], reciprocal) == ((2,), 0.5)


def test_no_admissible_point():
    def evaluate(x):
        raise PoleError("everywhere")

    with pytest.raises(RuntimeError):
        list(sample_evaluated(SplitMix64(5), 1, 1, evaluate, max_tries=4))
