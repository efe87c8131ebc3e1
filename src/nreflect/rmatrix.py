"""Base r-matrices and the Yang-Baxter residual checker.

r-matrices are represented as exact evaluators that raise ``PoleError`` at
their poles; identities about them are certified by evaluation at seeded
rational sample points (see :mod:`nreflect.sampling`).  The Yang-Baxter residual
sums four pair-leg matrices in Kronecker slots (:func:`cybe_residual`).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, islice, zip_longest
from typing import Callable, Optional

from .errors import ConstraintError, PoleError, ShapeError
from .linalg import Basis, Matrix, _matrix, _pair_factor, combination, permutation_operator, swap_pair
from .scalars import Cyclotomic, Scalar, _canonical, _inverse_parts, _one_field, _pack, _ring, as_scalar, euler_phi

MAX_FACTOR_SIZE = 16  # the largest n of C^n: the CYBE residual sums into n^5 ints of n^2 slots each
READ_BYTES = 1 << 17  # the most bytes the CYBE residual reads back at once, unless one sum is larger


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
    """P/(lam - mu) on C^n x C^n, ConstraintError for n > MAX_FACTOR_SIZE.  At
    rational points, lam = p/q and mu = r/s, the scalar is qs/(ps - rq),
    normalized once, and over Q(zeta_N) lam - mu is one integer vector, over dd', inverted once."""
    if n > MAX_FACTOR_SIZE:
        raise ConstraintError(f"factor size n must be at most {MAX_FACTOR_SIZE}, got {n}")
    label = f"rational (n={n})"

    def coefficients(lam, mu):
        _check_diagonal(label, lam, mu)
        if type(lam) is Fraction and type(mu) is Fraction:
            q, s = lam.denominator, mu.denominator
            return (Fraction(q * s, lam.numerator * s - mu.numerator * q),)
        order = _one_field(*(x.order for x in (lam, mu) if type(x) is Cyclotomic))
        (a, da), (b, db) = ((x.num, x.den) if type(x) is Cyclotomic else ((x.numerator,), x.denominator)
                            for x in (lam, mu))
        others, norm = _inverse_parts(order, [x * db - y * da for x, y in zip_longest(a, b, fillvalue=0)])
        return (_canonical(order, [da * db * c for c in others], norm),)

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
    r(a, b) may be any function returning an n^2 x n^2 matrix.  The six
    products are summed from the four pair-leg matrices in Kronecker slots
    over the leg c (slots and width rule: :func:`_cybe_kernel`), not as a
    :func:`~nreflect.linalg.product_sum` on (C^n)^x3, which multiplies them one by one."""
    return _cybe_kernel(r(lam, mu), r(lam, nu), r(mu, nu), r(nu, mu))


def _cybe_kernel(a: Matrix, b: Matrix, c: Matrix, d: Matrix) -> Matrix:
    """The residual from A, B, C, D = r(l,m), r(l,n), r(m,n), r(n,m): entry
    (ijk, i'j'k') at Kronecker slot k n + k' of one int per (i, j, i', j'), a
    slot one group of the shared ring (:func:`~nreflect.scalars._ring`), whose
    digit bound is 2 phi n sum |f| top top' over the six products (f the
    factor to the lcm).  Each sum is folded mod Phi_N packed, and the sums that
    are not 0 before or after the fold are read back, as many at once as fit
    in READ_BYTES.  OrderMismatchError for two cyclotomic orders, ShapeError
    unless all four are n^2 x n^2."""
    n = _pair_factor(a, "cybe_residual")
    if any((m.nrows, m.ncols) != (a.nrows, a.ncols) for m in (b, c, d)):
        raise ShapeError(f"cybe_residual needs four {a.nrows}x{a.ncols} pair-leg matrices")
    order = _one_field(a._order, b._order, c._order, d._order)
    nn, cube, n4, flat = n * n, n**3, n**4, chain.from_iterable
    den = math.lcm(a._den * b._den, a._den * c._den, b._den * d._den)
    fab, fac, fbd = den // (a._den * b._den), den // (a._den * c._den), den // (b._den * d._den)
    ta, tb, tc, td = (max(map(abs, flat(flat(map(dict.values, m._sparse)))), default=0) for m in (a, b, c, d))
    ring = _ring(order, 2 * euler_phi(order) * n * (fab * ta * tb + fac * ta * tc + fbd * tb * td))
    width, slot = ring.width, ring.span * ring.width  # bits per digit, bits per slot

    def entries(m):  # (row // n, row % n, col // n, col % n, packed numerator) per nonzero entry
        return [(*divmod(r, n), *divmod(col, n), vec[0] if len(vec) == 1 else _pack(vec, width))
                for r, row in enumerate(m._sparse) for col, vec in row.items()]
    # A_ab B_ac + A_ab C_bc - B_ac A_ab - C_bc A_ab - B_ac D_cb + D_cb B_ac: sum t adds x y to acc[o + o'] =
    # acc[k n^4 + i n^3 + j n^2 + i' n + j'] over (o, x) in left[t][z], (o', y) in right[t][z], as (A_ab B_ac)[ijk,
    # i'j'k'] = sum_x A[ij, xj'] B[xk, i'k']; k = 0 but in the B-D sums: an entry times a row over k' fills a sum per k
    left, right = [[[] for _ in range(n)] for _ in range(6)], [[defaultdict(int) for _ in range(n)] for _ in range(6)]
    for u, k, v, k2, x in entries(b):  # B[uk, vk'] at slot k n + k'; B[ik, i'z] D[zj, k'j']; D[kj, zj'] B[iz, i'k']
        right[0][u][v * n] += (y := fab * x << slot * (k * n + k2))
        right[2][v][u * cube] += y
        left[4][k2].append((k * n4 + u * cube + v * n, -fbd * x))
        right[5][k][u * cube + v * n] += x << slot * k2
    for u, k, v, k2, x in entries(c):
        right[1][u][v] += (y := fac * x << slot * (k * n + k2))
        right[3][v][u * nn] += y
    for z, j, k2, j2, x in entries(d):
        right[4][z][j * nn + j2] += x << slot * k2
        left[5][k2].append((z * n4 + j * nn + j2, fbd * x))
    for u, v, s, t, p in entries(a):  # A[ij, xj'] B[xk, i'k'], A[ij, i'y] C[yk, j'k'], B[ik, xk'] A[xj, i'j'], ...
        left[0][s].append((u * cube + v * nn + t, p))
        left[1][t].append((u * cube + v * nn + s * n, p))
        left[2][u].append((v * nn + s * n + t, -p))
        left[3][v].append((u * cube + s * n + t, -p))
    acc = [0] * (n4 * n)
    for ls, rs in zip(flat(left), flat(right)):
        rs = list(rs.items())
        for o, x in ls:
            for o2, y in rs:
                acc[o + o2] += x * y
    for key in compress(range(n4, len(acc)), islice(acc, n4, None)):
        acc[key % n4] += acc[key] << key // n4 * n * slot
    keys = list(compress(range(n4), acc))
    sums = [ring.fold(acc[key]) for key in keys]
    keys, sums, out = list(compress(keys, sums)), list(filter(None, sums)), [{} for _ in range(cube)]
    step = max(1, READ_BYTES * 8 // (nn * slot))  # sums a read-back
    for start in range(0, len(sums), step):
        for at, vec in ring.vectors(sums[start:start + step], nn).items():  # the nonzero entries only
            (hi, lo), (k, k2) = divmod(keys[start + at // nn], nn), divmod(at % nn, n)  # hi = i n + j, lo = i' n + j'
            out[hi * n + k][lo * n + k2] = vec
    return _matrix(order, den, out, cube, cube)


def skew_residual(r: RMatrixFun, lam, mu) -> Matrix:
    """r_ab(lam, mu) + P r(mu, lam) P; zero iff r is skew-symmetric."""
    return r(lam, mu) + swap_pair(r(mu, lam))
