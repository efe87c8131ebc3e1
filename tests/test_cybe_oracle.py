"""``cybe_residual`` against the classical Yang-Baxter residual by its definition.

The oracle places r on the factors of (C^n)^x3 and computes

    [r_ab(l,m), r_ac(l,n)] + [r_ab(l,m), r_bc(m,n)] - [r_ac(l,n), r_cb(n,m)]

with six ``Matrix.__mul__`` products, two sums and three differences,
term by term, whatever ``cybe_residual`` does to save work.  The two must
be the same matrix at seeded points for the base r-matrices, for the
induced rbar of every cataloged case and for subjects whose residual is
not zero (two g1-sign tampers and the candidate ``trig-3refl-poly-2``),
since a residual that vanishes hides a wrong sign or a dropped term.
"""

import pytest

from nreflect.linalg import embed_pair
from nreflect.reflection import CATALOG, build_rbar, case_by_label, tamper
from nreflect.rmatrix import cybe_residual, rational_r, trig_r
from nreflect.sampling import SplitMix64, sample_evaluated

POINTS = 3
SEED = 0xCB


def by_definition(r, lam, mu, nu):
    r_ab = embed_pair(r(lam, mu), "ab")
    r_ac = embed_pair(r(lam, nu), "ac")
    r_bc = embed_pair(r(mu, nu), "bc")
    r_cb = embed_pair(r(nu, mu), "cb")
    return (r_ab * r_ac - r_ac * r_ab) + (r_ab * r_bc - r_bc * r_ab) - (r_ac * r_cb - r_cb * r_ac)


def compared(r):
    """(oracle, cybe_residual) at POINTS seeded points where r has no pole."""
    evaluate = lambda lam, mu, nu: (by_definition(r, lam, mu, nu), cybe_residual(r, lam, mu, nu))
    return [pair for _, pair in sample_evaluated(SplitMix64(SEED), POINTS, 3, evaluate)]


SOLUTIONS = {
    "rational-n2": lambda: rational_r(2),
    "rational-n3": lambda: rational_r(3),
    "trig": trig_r,
    **{f"rbar[{label}]": (lambda label=label: build_rbar(case_by_label(label))) for label in sorted(CATALOG)},
    "rbar[id-3refl-n3]": lambda: build_rbar(case_by_label("id-3refl", {"n": 3})),
}

NONZERO = {
    "rbar[linear-k-N3-shift-th2-g1-sign]": lambda: build_rbar(tamper(case_by_label("linear-k-N3-shift-th2"), "g1-sign")),
    "rbar[id-2refl-g1-sign]": lambda: build_rbar(tamper(case_by_label("id-2refl"), "g1-sign")),
    "rbar[trig-3refl-poly-2]": lambda: build_rbar(case_by_label("trig-3refl-poly-2")),
}


@pytest.mark.parametrize("name", sorted(SOLUTIONS))
def test_residual_is_the_definition(name):
    for oracle, residual in compared(SOLUTIONS[name]()):
        assert residual == oracle


@pytest.mark.parametrize("name", sorted(NONZERO))
def test_nonzero_residual_is_the_definition(name):
    pairs = compared(NONZERO[name]())
    assert all(not oracle.is_zero() for oracle, _ in pairs)
    for oracle, residual in pairs:
        assert residual == oracle
