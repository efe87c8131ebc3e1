"""The leg formulas of ``gaudin.sampled_residual`` against the generic route.

The reference builds B_a = B x 1 and B_b = 1 x B, the commutators with
rbar and the partial trace tr_a as whole matrices, with the entrywise
helpers of the matrix oracle on ``SpinPoly`` entries, and compares every
entry of rbb, lax, mk and trbrackets at p in {1, 2, 3}, on the models of
the witness guard, untampered and g1-sign tampered.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from nreflect.gaudin import big_B, sampled_residual, site_values
from nreflect.linalg import swap_pair
from nreflect.reflection import point_frame, rbar_at
from nreflect.spinalg import poisson_bracket
from test_gaudin_witnesses import MODELS, PAIR
from test_oracle_matrix import ref_kron, ref_mul, ref_partial_trace, ref_sum

EYE = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]


def combine(*signed):
    """sum sign * m over the (sign, entry list) pairs, entry by entry."""
    first = signed[0][1]
    return [[ref_sum(sign * m[i][j] for sign, m in signed) for j in range(len(first[0]))] for i in range(len(first))]


def commutator(a, b):
    return combine((1, ref_mul(a, b)), (-1, ref_mul(b, a)))


def power(b, p):
    out = EYE
    for _ in range(p):
        out = ref_mul(out, b)
    return out


def trace(m):
    return ref_sum(m[i][i] for i in range(len(m)))


def reference(model, sub, lam, mu, p, q):
    case = model.case
    at_lam, at_mu = point_frame(case, lam), point_frame(case, mu)
    b_lam = [list(row) for row in big_B(site_values(model, lam))]
    b_mu = [list(row) for row in big_B(site_values(model, mu))]
    rbar_ab = rbar_at(case, lam, at_mu).rows
    rbar_ba = swap_pair(rbar_at(case, mu, at_lam)).rows
    if sub == "trbrackets":
        return poisson_bracket(trace(power(b_lam, p)), trace(power(b_mu, q)))
    if sub == "rbb":
        bracket = [[poisson_bracket(x, y) for x in ra for y in rb] for ra in b_lam for rb in b_mu]
        return combine((1, bracket), (-1, commutator(rbar_ab, ref_kron(b_lam, EYE))),
                       (1, commutator(rbar_ba, ref_kron(EYE, b_mu))))

    def m_at(rbar):  # M(lam, nu) = p tr_a(B_a(lam)^(p-1) rbar_ba(nu, lam))
        return combine((p, ref_partial_trace(ref_mul(ref_kron(power(b_lam, p - 1), EYE), rbar), 2, "a")))

    m = m_at(rbar_ba)
    if sub == "mk":
        return combine((1, m), (-1, m_at(swap_pair(rbar_at(case, case.tau(mu), at_lam)).rows)))
    t = trace(power(b_lam, p))
    return combine((1, [[poisson_bracket(t, x) for x in row] for row in b_mu]), (-1, commutator(b_mu, m)))


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("sub", ["rbb", "lax", "mk", "trbrackets"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_leg_formulas_match_the_generic_route(name, sub, p):
    model, q = MODELS[name], 4 - p
    residual = sampled_residual(model, sub, *PAIR, p, q)
    want = reference(model, sub, *PAIR, p, q)
    if sub == "trbrackets":
        assert residual == want
        return
    assert residual == tuple(tuple(row) for row in want)
