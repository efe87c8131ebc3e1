"""The integer compile of k against the ``Poly`` reference, and the orbit
against tau applied step by step.

``compile_k`` forms P_j, adj P_j, det P_j and the table numerators
(1 x P_j) M (1 x adj P_j) as integer coordinate polynomials, each P_j the
product of the factors k(tau^i(nu)) scaled by a polynomial s_j rather than
by the monic denominator q_j of the reference (``tests/poly_compile.py``).
So k^(j) = P_j / s_j must equal the reference's P_j / q_j, and det P_j and
each table entry must equal the reference's times (s_j / q_j)^n, checked as
polynomial identities; k^(N) must equal the reference's ``KMatrix``.
``tests/test_rbar_oracle.py`` runs the same check,
``poly_compile.check_against_reference``, at drawn parameters.

The count guards of ``tests/test_cyclotomic_points.py`` pin what the
integer compile saves.

``KSolution.orbit`` applies tau step by step on its integer form, where c
and d are rational, to a rational point or, where c = 0 (tau with Q(zeta_N)
coefficients), to any point; the orbit oracle checks that it returns the
points of tau applied step by step in field arithmetic, or raises
PoleError with the same text (``gaudin`` copies it into a ``ModelError``),
at every point ``sample_fraction`` draws and at tau's poles, and that the
first N points of a rational draw take no field arithmetic wherever no
step needs it.
"""

import dataclasses
from fractions import Fraction as F

import pytest

from nreflect.errors import PoleError
from nreflect.gaudin import MODEL_KINDS, case_for_config
from nreflect.reflection import CATALOG, MobiusMap, case_by_label
from nreflect.scalars import Cyclotomic, zeta

import poly_compile

NON_IDENTITY = [label for label in sorted(CATALOG) if not case_by_label(label).identity_k]
SUPPORT = sorted({F(p, q) for p in range(-20, 21) for q in range(1, 21)})  # every sample_fraction draw


@pytest.mark.parametrize("label", NON_IDENTITY)
def test_compile_matches_the_poly_reference(label):
    poly_compile.check_against_reference(case_by_label(label))


@pytest.mark.parametrize("label, params", [
    ("linear-k-N3-shift-th2", {"theta": F(2**70 + 1, 3)}),
    ("linear-k-N3-diag-th2", {"theta": F(-5, 2**65 + 7)}),
    ("linear-k-N2-diag-th2", {"theta": F(2**130 - 1)}),
    ("trig-3refl-tau-nu", {"a": F(2**40), "b": -F(2**80 + 2**40 + 1, 3), "c": F(3), "d": F(1)}),
])
def test_compile_wider_than_64_bits(label, params):
    # coefficients of 65 to 130 bits: the compile's first ring of 64-bit digits overflows, and it compiles again
    # with wider digits
    case = case_by_label(label, params)
    assert case.compiled[2].width > 64
    poly_compile.check_against_reference(case)


def stepwise(tau, nu, count):
    """[nu, tau(nu), ...], tau applied to the last point count - 1 times."""
    points = [nu]
    for _ in range(count - 1):
        points.append(tau(points[-1]))
    return points


def outcome(evaluate, *args):
    """("points", the value) or ("pole", the PoleError's text)."""
    try:
        return "points", evaluate(*args)
    except PoleError as exc:
        return "pole", str(exc)


def hand_built(tau, N):
    """A case of N-fold orbits under tau with Q(zeta_3) coefficients."""
    return dataclasses.replace(case_by_label(f"linear-k-N{N}-diag-th2"), label=f"hand-built-N{N}", tau=tau, N=N)


# (id, case, whether the first N points of a rational draw take no field arithmetic): every catalog and
# model tau is rational or, as for linear-k-N3 and z3, has c = 0
ORBIT_CASES = ([(label, case_by_label(label), True) for label in sorted(CATALOG) if label != "trivial"]
               + [(f"gaudin-{kind}", case_for_config(kind, {}), True) for kind in MODEL_KINDS if kind != "plain"]
               # a pole at 0 on the first step and at 1 on the second, which starts from a Q(zeta_3) point
               # with c != 0, so it takes field arithmetic
               + [("hand-built-N3", hand_built(MobiusMap(zeta(3), -zeta(3), 1, 0), 3), False),
                  # rational c != 0 and d: the one step from a rational point is the integer form, the pole at
                  # -2 included
                  ("hand-built-N2", hand_built(MobiusMap(zeta(3), 1, 1, 2), 2), True)])
FIELD_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
                    "__rtruediv__", "inverse")


@pytest.mark.parametrize("case, integer", [entry[1:] for entry in ORBIT_CASES], ids=[entry[0] for entry in ORBIT_CASES])
def test_orbit_is_tau_step_by_step(case, integer, monkeypatch):
    assert case.N >= 2
    tau, poles = case.tau, []
    if tau.c:  # tau's pole and, where rational, the point tau maps to it: a pole on the second step
        poles.append(-tau.d / tau.c)
        inverse = outcome(MobiusMap(tau.d, -tau.b, -tau.c, tau.a), poles[0])
        poles += [inverse[1]] if inverse[0] == "points" and type(inverse[1]) is F else []
    for nu in SUPPORT + [p for p in poles if type(p) is F and p not in SUPPORT]:
        for count in range(1, case.N + 2):
            assert outcome(case.orbit, nu, count) == outcome(stepwise, tau, nu, count), (nu, count)
    calls = []
    for name in FIELD_ARITHMETIC:
        original = getattr(Cyclotomic, name)
        monkeypatch.setattr(Cyclotomic, name, lambda *args, name=name, original=original: calls.append(name)
                            or original(*args))
    for nu in SUPPORT:
        outcome(case.orbit, nu)
    assert (calls == []) == integer, calls[:3]
