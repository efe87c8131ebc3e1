"""Base r-matrices and the Yang-Baxter residual checker.

r-matrices are represented as exact evaluators that raise ``PoleError`` at
their poles; identities about them are certified by evaluation at seeded
rational sample points (see :mod:`nreflect.sampling`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .errors import PoleError
from .linalg import Basis, Matrix, combination, embed_pair, permutation_operator, product_sum, swap_pair
from .scalars import Scalar, as_scalar


@dataclass(frozen=True)
class RMatrixFun:
    """Matrix-valued function of two spectral parameters on C^n x C^n.

    A base r-matrix is a combination sum_i f_i(lam, mu) M_i of constant
    matrices: ``coefficients(lam, mu)`` gives the scalars f_i and raises
    PoleError at a pole, ``basis`` holds the M_i, and ``evaluate`` is the
    one :func:`~nreflect.linalg.combination` of the two.  A constructed
    r-matrix has only ``evaluate``."""

    kind: str  # "rational" | "trigonometric" | "constructed"
    evaluate: Callable[[Scalar, Scalar], Matrix]  # raises PoleError at a pole
    label: str = ""
    coefficients: Optional[Callable[[Scalar, Scalar], tuple]] = None
    basis: tuple = ()

    def __call__(self, lam, mu) -> Matrix:
        return self.evaluate(as_scalar(lam), as_scalar(mu))


def _combined(kind: str, label: str, coefficients, basis: tuple) -> RMatrixFun:
    """The r-matrix sum_i coefficients(lam, mu)[i] basis[i]."""
    return RMatrixFun(kind=kind, label=label, coefficients=coefficients, basis=Basis(basis),
                      evaluate=lambda lam, mu: combination(zip(coefficients(lam, mu), basis)))


def _check_diagonal(label, lam, mu) -> None:
    if lam == mu:
        raise PoleError(f"{label} r-matrix has a pole at ({lam}, {mu})")


def rational_r(n: int) -> RMatrixFun:
    """P/(lam - mu) on C^n x C^n.  Where the points are rational, lam = p/q
    and mu = r/s, the scalar is qs/(ps - rq), normalized once; a point over
    Q(zeta_N) takes field arithmetic."""
    label = f"rational (n={n})"

    def coefficients(lam, mu):
        _check_diagonal(label, lam, mu)
        if type(lam) is Fraction and type(mu) is Fraction:
            q, s = lam.denominator, mu.denominator
            return (Fraction(q * s, lam.numerator * s - mu.numerator * q),)
        return (1 / (lam - mu),)

    return _combined("rational", label, coefficients, (permutation_operator(n),))


def trig_r() -> RMatrixFun:
    """The standard 4x4 trigonometric solution (n = 2):

        1/(2 (lam - nu)) [[-s, 0, 0, 0], [0, s, -4 nu, 0], [0, -4 lam, s, 0], [0, 0, 0, -s]]

    with s = lam + nu, as s/(2 (lam - nu)) diag(-1, 1, 1, -1) plus
    -2 nu/(lam - nu) and -2 lam/(lam - nu) times the units at (1, 2) and
    (2, 1), counted from 0.  The points are rational: for lam = p/q and
    nu = r/s the three scalars are (ps + rq)/(2d), -2rq/d and -2ps/d over
    d = ps - rq, each normalized once."""

    def unit(i, j):
        return Matrix([[int((r, c) == (i, j)) for c in range(4)] for r in range(4)])

    def coefficients(lam, nu):
        _check_diagonal("trigonometric", lam, nu)
        ps, rq = lam.numerator * nu.denominator, nu.numerator * lam.denominator
        d = ps - rq
        return (Fraction(ps + rq, 2 * d), Fraction(-2 * rq, d), Fraction(-2 * ps, d))

    return _combined("trigonometric", "trigonometric", coefficients,
                     (Matrix.diagonal([-1, 1, 1, -1]), unit(1, 2), unit(2, 1)))


def cybe_residual(r: Callable[[Scalar, Scalar], Matrix], lam, mu, nu) -> Matrix:
    """[r_ab(l,m), r_ac(l,n)] + [r_ab(l,m), r_bc(m,n)] - [r_ac(l,n), r_cb(n,m)].

    Exactly zero iff the classical Yang-Baxter equation holds at the sample;
    r(a, b) may be any function returning an n^2 x n^2 matrix.
    Built as [r_ab, s] - [r_ac, r_cb] with s = r_ac + r_bc: one
    :func:`~nreflect.linalg.product_sum` of four signed products instead
    of six.
    """
    r_ab = embed_pair(r(lam, mu), "ab")
    r_ac = embed_pair(r(lam, nu), "ac")
    r_bc = embed_pair(r(mu, nu), "bc")
    r_cb = embed_pair(r(nu, mu), "cb")
    s = r_ac + r_bc
    return product_sum([(1, r_ab, s), (-1, s, r_ab), (-1, r_ac, r_cb), (1, r_cb, r_ac)])


def skew_residual(r: RMatrixFun, lam, mu) -> Matrix:
    """r_ab(lam, mu) + P r(mu, lam) P; zero iff r is skew-symmetric."""
    return r(lam, mu) + swap_pair(r(mu, lam))
