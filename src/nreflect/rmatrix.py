"""Base r-matrices and the Yang-Baxter residual checker.

r-matrices are represented as exact evaluators that raise ``PoleError`` at
their poles; identities about them are certified by evaluation at seeded
rational sample points (see :mod:`nreflect.sampling`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import PoleError
from .linalg import Matrix, commutator, embed_pair, permutation_operator, swap_pair
from .scalars import Scalar, as_scalar


@dataclass(frozen=True)
class RMatrixFun:
    """Matrix-valued function of two spectral parameters on C^n x C^n."""

    kind: str  # "rational" | "trigonometric" | "constructed"
    evaluate: Callable[[Scalar, Scalar], Matrix]  # raises PoleError at a pole
    label: str = ""

    def __call__(self, lam, mu) -> Matrix:
        return self.evaluate(as_scalar(lam), as_scalar(mu))


def _check_diagonal(label, lam, mu) -> None:
    if lam == mu:
        raise PoleError(f"{label} r-matrix has a pole at ({lam}, {mu})")


def rational_r(n: int) -> RMatrixFun:
    """P/(lam - mu) on C^n x C^n."""
    perm = permutation_operator(n)

    label = f"rational (n={n})"

    def evaluate(lam, mu):
        _check_diagonal(label, lam, mu)
        return perm.scale(1 / (lam - mu))

    return RMatrixFun(kind="rational", evaluate=evaluate, label=label)


def trig_r() -> RMatrixFun:
    """The standard 4x4 trigonometric solution (n = 2)."""

    def evaluate(lam, nu):
        _check_diagonal("trigonometric", lam, nu)
        pref = 1 / (2 * (lam - nu))
        s = lam + nu
        zero = as_scalar(0)
        rows = [[-s, zero, zero, zero],
                [zero, s, -4 * nu, zero],
                [zero, -4 * lam, s, zero],
                [zero, zero, zero, -s]]
        return Matrix(rows).scale(pref)

    return RMatrixFun(kind="trigonometric", evaluate=evaluate, label="trigonometric")


def cybe_residual(r: Callable[[Scalar, Scalar], Matrix], lam, mu, nu) -> Matrix:
    """[r_ab(l,m), r_ac(l,n)] + [r_ab(l,m), r_bc(m,n)] - [r_ac(l,n), r_cb(n,m)].

    Exactly zero iff the classical Yang-Baxter equation holds at the sample;
    r(a, b) may be any function returning an n^2 x n^2 matrix.
    Built as [r_ab, r_ac + r_bc] - [r_ac, r_cb], the same matrix from four
    dense products instead of six.
    """
    r_ab = embed_pair(r(lam, mu), "ab")
    r_ac = embed_pair(r(lam, nu), "ac")
    r_bc = embed_pair(r(mu, nu), "bc")
    r_cb = embed_pair(r(nu, mu), "cb")
    return commutator(r_ab, r_ac + r_bc) - commutator(r_ac, r_cb)


def skew_residual(r: RMatrixFun, lam, mu) -> Matrix:
    """r_ab(lam, mu) + P r(mu, lam) P; zero iff r is skew-symmetric."""
    return r(lam, mu) + swap_pair(r(mu, lam))
