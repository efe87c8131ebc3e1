"""The classical Yang-Baxter equation for rbar of ``id-2refl``, in sympy.

For k = 1 the induced matrix is

    rbar_ab(lam, mu) = f(lam, mu) P,
    f(lam, mu) = 1/(lam - mu) + g1(mu)/(lam - tau(mu)),

with tau(mu) = (a mu + b)/(c mu - a) and g1(mu) = -(a^2 + bc)/(a - c mu)^2.
sympy builds rbar from these closed forms, with lam, mu, nu and a, b, c all
symbols, places it on the factors of (C^2)^x3 by Kronecker products, and
brings every entry of the CYBE residual over one denominator, whose
numerator expands to the zero polynomial; with the sign of g1 flipped it
does not.  At seeded rational points and
parameters the same sympy matrices match ``rbar_matrix`` and its
``embed_pair`` placements entry by entry, so the symbolic proof speaks about
the matrices nreflect computes.
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from nreflect.linalg import embed_pair  # noqa: E402
from nreflect.reflection import identity_k_two_reflection, rbar_matrix  # noqa: E402
from nreflect.sampling import SplitMix64, sample_fraction  # noqa: E402

LAM, MU, NU, A, B, C = sympy.symbols("lam mu nu a b c")
P = sympy.Matrix(4, 4, lambda row, col: 1 if col == 2 * (row % 2) + row // 2 else 0)
EYE = sympy.eye(2)
P_AB = sympy.kronecker_product(P, EYE)
P_BC = sympy.kronecker_product(EYE, P)
P_AC = P_AB * P_BC * P_AB


def f(lam, mu, sign=1):
    tau = (A * mu + B) / (C * mu - A)
    g1 = -sign * (A**2 + B * C) / (A - C * mu) ** 2
    return sympy.together(1 / (lam - mu) + g1 / (lam - tau))


def placed(sign=1):
    """rbar on (ab, lam, mu), (ac, lam, nu), (bc, mu, nu), (cb, nu, mu); P is
    symmetric under the swap, so the cb placement is P_bc."""
    return {"ab": f(LAM, MU, sign) * P_AB, "ac": f(LAM, NU, sign) * P_AC,
            "bc": f(MU, NU, sign) * P_BC, "cb": f(NU, MU, sign) * P_BC}


def commutator(x, y):
    return x * y - y * x


def vanishes(expr) -> bool:
    return sympy.expand(sympy.fraction(sympy.together(expr))[0]) == 0


@pytest.mark.parametrize("sign,holds", [(1, True), (-1, False)])
def test_cybe_residual_of_rbar_vanishes_symbolically(sign, holds):
    r = placed(sign)
    residual = commutator(r["ab"], r["ac"] + r["bc"]) - commutator(r["ac"], r["cb"])
    assert all(vanishes(entry) for entry in set(residual)) == holds


def test_sympy_rbar_is_the_computed_rbar():
    rng = SplitMix64(0xCB)
    checked = 0
    while checked < 4:
        a, b, c, lam, mu, nu = (sample_fraction(rng) for _ in range(6))
        values = {A: a, B: b, C: c, LAM: lam, MU: mu, NU: nu}
        try:
            case = identity_k_two_reflection(a, b, c)
            ours = {"ab": rbar_matrix(case, lam, mu), "ac": rbar_matrix(case, lam, nu),
                    "bc": rbar_matrix(case, mu, nu), "cb": rbar_matrix(case, nu, mu)}
            theirs = {key: m.subs({s: sympy.Rational(v.numerator, v.denominator) for s, v in values.items()})
                      for key, m in placed().items()}
        except (ZeroDivisionError, ValueError):  # a pole or a degenerate draw
            continue
        if any(entry.has(sympy.zoo, sympy.nan) for m in theirs.values() for entry in m):
            continue
        for key, m in ours.items():
            got = embed_pair(m, key)
            want = [[Fraction(int(x.p), int(x.q)) for x in theirs[key].row(i)] for i in range(8)]
            assert [list(row) for row in got.rows] == want, key
        checked += 1
