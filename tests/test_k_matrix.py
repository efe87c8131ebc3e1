"""k(nu) summed from its entries' integer numerators, against its definition
entry by entry.

``KMatrix.__call__`` scales each nonzero entry's numerators
(``RatFun._numerators``) to one lcm and normalizes the matrix once.  The
oracle is the definition written out: each entry normalized by
``RatFun.eval_at``, the rows put through the ``Matrix`` constructor.  k and
k^(N) of every cataloged case must equal it, or raise the same error with
the same text, at every value ``sample_fraction`` draws, at points over
Q(zeta_3) and Q(zeta_4) and at every pole of an entry.  The count guard
pins what the sum saves: at rational draws neither k nor k^(N) constructs
a ``Fraction`` or enters the ``Matrix`` constructor.
"""

from fractions import Fraction as F

import pytest

from nreflect.errors import NReflectError
from nreflect.linalg import Matrix
from nreflect.reflection import CATALOG, case_by_label
from nreflect.sampling import SplitMix64, sample_fraction
from nreflect.scalars import ZERO, zeta

SUPPORT = sorted({F(p, q) for p in range(-20, 21) for q in range(1, 21)})  # every sample_fraction draw


def definition(k, nu):
    """k at nu as each entry's value, through the Matrix constructor."""
    return Matrix([[f.eval_at(nu) if f else ZERO for f in row] for row in k])


def outcome(evaluate, *args):
    """("value", the matrix) or (the error's class name, its text)."""
    try:
        return "value", evaluate(*args)
    except NReflectError as exc:
        return type(exc).__name__, str(exc)


def cyclotomic_points(order):
    rng = SplitMix64(40 + order)
    return [zeta(order)] + [sample_fraction(rng) + sample_fraction(rng) * zeta(order, power)
                            for power in (1, order - 1) for _ in range(6)]


@pytest.mark.parametrize("label", sorted(CATALOG))
def test_k_and_its_power_are_the_definition(label):
    case = case_by_label(label)
    for k in (case.k, None if case.identity_k else case.compiled[1]):
        if k is None:
            continue
        poles = sorted({root for row in k for f in row for root, _ in f.roots}, key=str)
        for nu in SUPPORT + cyclotomic_points(3) + cyclotomic_points(4) + poles:
            assert outcome(k, nu) == outcome(definition, k, nu), nu
        assert all(outcome(k, nu)[0] == "PoleError" for nu in poles)


@pytest.mark.parametrize("label", sorted(label for label in CATALOG if not case_by_label(label).identity_k))
def test_k_at_rational_draws_builds_no_fraction_and_no_matrix(monkeypatch, label):
    case, rng = case_by_label(label), SplitMix64(41)
    draws, ks = [sample_fraction(rng) for _ in range(40)], (case.k, case.compiled[1])
    calls, values = [], 0
    fraction_new, matrix_init = F.__new__, Matrix.__init__
    monkeypatch.setattr(F, "__new__", lambda cls, *args, **kw: calls.append("Fraction") or fraction_new(cls, *args, **kw))
    monkeypatch.setattr(Matrix, "__init__", lambda *args: calls.append("Matrix") or matrix_init(*args))
    for nu in draws:
        for k in ks:
            values += outcome(k, nu)[0] == "value"
    assert calls == []
    assert values >= 60
