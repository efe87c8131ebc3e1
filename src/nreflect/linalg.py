"""Dense exact linear algebra over scalars (or any commutative ring), and
tensor-leg operations on (C^n)^x2 and (C^n)^x3 that read the factor size n
from the matrix shape.

Entries only need ``+``, ``-``, ``*`` and truthiness; inversion and
determinants additionally need ``/``.  Matrix products skip zero entries,
which keeps permutation-built operators at desk scale essentially free.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ShapeError, SingularMatrixError
from .scalars import ZERO, ONE, scalar_to_str

PLACEMENTS = ("ab", "ac", "bc", "ba", "ca", "cb")


class Matrix:
    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(row) for row in rows)
        if not self.rows or any(len(r) != len(self.rows[0]) for r in self.rows):
            raise ShapeError("rows must be non-empty and of equal length")

    @staticmethod
    def identity(dim):
        return Matrix([[ONE if i == j else ZERO for j in range(dim)] for i in range(dim)])

    @staticmethod
    def diagonal(entries):
        n = len(entries)
        return Matrix([[entries[i] if i == j else ZERO for j in range(n)] for i in range(n)])

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0])

    def __getitem__(self, idx):
        i, j = idx
        return self.rows[i][j]

    # -- ring operations ----------------------------------------------------

    def _same_shape(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ShapeError(f"shape mismatch {self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}")

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._same_shape(other)
        return Matrix([[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._same_shape(other)
        return Matrix([[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self):
        return Matrix([[-a for a in row] for row in self.rows])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ShapeError(f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
            bt = other.rows
            out = []
            for row in self.rows:
                acc = [ZERO] * other.ncols
                for k, a in enumerate(row):
                    if not a:
                        continue
                    brow = bt[k]
                    for j, b in enumerate(brow):
                        if b:
                            acc[j] = acc[j] + a * b
                out.append(acc)
            return Matrix(out)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, s):
        return Matrix([[s * a for a in row] for row in self.rows])

    def __pow__(self, exponent: int):
        if self.nrows != self.ncols:
            raise ShapeError("matrix power needs a square matrix")
        if exponent < 0:
            return self.inverse() ** (-exponent)
        acc = Matrix.identity(self.nrows)
        base = self
        while exponent:
            if exponent & 1:
                acc = acc * base
            exponent >>= 1
            if exponent:
                base = base * base
        return acc

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def is_zero(self) -> bool:
        return all(not a for row in self.rows for a in row)

    def first_nonzero(self):
        """(row, col, value) of the first nonzero entry, or None."""
        for i, row in enumerate(self.rows):
            for j, a in enumerate(row):
                if a:
                    return (i, j, a)
        return None

    # -- linear algebra ------------------------------------------------------

    def trace(self):
        if self.nrows != self.ncols:
            raise ShapeError("trace needs a square matrix")
        total = ZERO
        for i in range(self.nrows):
            total = total + self.rows[i][i]
        return total

    def inverse(self, label: str = "matrix"):
        """Gauss-Jordan inverse over the exact field; entries auto-normalize,
        so no fraction-free bookkeeping is needed."""
        if self.nrows != self.ncols:
            raise ShapeError("inverse needs a square matrix")
        n = self.nrows
        work = [list(row) + [ONE if i == j else ZERO for j in range(n)]
                for i, row in enumerate(self.rows)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if work[r][col]), None)
            if pivot is None:
                raise SingularMatrixError(f"{label} is singular (column {col})")
            work[col], work[pivot] = work[pivot], work[col]
            inv = 1 / work[col][col]
            work[col] = [a * inv for a in work[col]]
            for r in range(n):
                if r == col or not work[r][col]:
                    continue
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
        return Matrix([row[n:] for row in work])

    def kron(self, other):
        """Tensor (Kronecker) product."""
        out = []
        for ra in self.rows:
            for rb in other.rows:
                out.append([a * b for a in ra for b in rb])
        return Matrix(out)

    def pretty(self, render=None) -> str:
        render = render or (lambda x: scalar_to_str(x) if isinstance(x, (int, Fraction)) or hasattr(x, "coeffs") else str(x))
        cells = [[render(a) for a in row] for row in self.rows]
        widths = [max(len(cells[i][j]) for i in range(self.nrows)) for j in range(self.ncols)]
        lines = ["[" + "  ".join(c.rjust(w) for c, w in zip(row, widths)) + "]" for row in cells]
        return "\n".join(lines)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols})"


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return a * b - b * a


# ---------------------------------------------------------------------------
# tensor-leg operations
# ---------------------------------------------------------------------------

def permutation_operator(n: int) -> Matrix:
    """P on C^n x C^n with P(e_i x e_j) = e_j x e_i."""
    dim = n * n
    rows = [[ZERO] * dim for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            rows[i * n + j][j * n + i] = ONE
    return Matrix(rows)


def _pair_factor(m: Matrix, what: str) -> int:
    """n for an n^2 x n^2 matrix on C^n x C^n; ShapeError otherwise."""
    n = math.isqrt(m.nrows)
    if m.ncols != m.nrows or n * n != m.nrows:
        raise ShapeError(f"{what} needs an n^2 x n^2 pair-leg matrix, got {m.nrows}x{m.ncols}")
    return n


def embed_pair(m: Matrix, placement: str, n: int) -> Matrix:
    """Place a pair-leg operator on the named ordered pair of the factors
    a, b, c, acting as the identity on the remaining leg.  Reversed placements (ba,
    ca, cb) are handled by the same index bookkeeping."""
    if placement not in PLACEMENTS:
        raise ShapeError(f"placement must be one of {PLACEMENTS}, got {placement!r}")
    if m.nrows != n * n or m.ncols != n * n:
        raise ShapeError(f"expected a {n * n}x{n * n} pair-leg matrix, got {m.nrows}x{m.ncols}")
    first, second = "abc".index(placement[0]), "abc".index(placement[1])
    spare = 3 - first - second
    dim = n**3
    rows = [[ZERO] * dim for _ in range(dim)]
    for ri in range(dim):
        x = (ri // (n * n), (ri // n) % n, ri % n)
        mrow = m.rows[x[first] * n + x[second]]
        for k, val in enumerate(mrow):
            if not val:
                continue
            y = [0, 0, 0]
            y[first], y[second] = divmod(k, n)
            y[spare] = x[spare]
            rows[ri][y[0] * n * n + y[1] * n + y[2]] = val
    return Matrix(rows)


def swap_pair(m: Matrix) -> Matrix:
    """Conjugation P m P on a pair-leg matrix, done by index relabelling."""
    n = _pair_factor(m, "swap_pair")
    dim = n * n
    rows = [[ZERO] * dim for _ in range(dim)]
    for i1 in range(n):
        for i2 in range(n):
            src_row = m.rows[i1 * n + i2]
            dst = rows[i2 * n + i1]
            for j1 in range(n):
                for j2 in range(n):
                    val = src_row[j1 * n + j2]
                    if val:
                        dst[j2 * n + j1] = val
    return Matrix(rows)


def partial_trace(m: Matrix, leg: str) -> Matrix:
    """Trace a pair-leg matrix over leg "a" (first factor) or "b" (second)."""
    n = _pair_factor(m, "partial_trace")
    out = [[ZERO] * n for _ in range(n)]
    if leg == "a":
        for j1 in range(n):
            for j2 in range(n):
                total = ZERO
                for i in range(n):
                    total = total + m.rows[i * n + j1][i * n + j2]
                out[j1][j2] = total
    elif leg == "b":
        for i1 in range(n):
            for i2 in range(n):
                total = ZERO
                for j in range(n):
                    total = total + m.rows[i1 * n + j][i2 * n + j]
                out[i1][i2] = total
    else:
        raise ShapeError(f"leg must be 'a' or 'b', got {leg!r}")
    return Matrix(out)


def tensor_pair(a: Matrix, b: Matrix) -> Matrix:
    """a x b on C^n x C^n (both factors n x n)."""
    if a.nrows != a.ncols or b.nrows != b.ncols or a.nrows != b.nrows:
        raise ShapeError("tensor_pair needs two square matrices of equal size")
    return a.kron(b)
