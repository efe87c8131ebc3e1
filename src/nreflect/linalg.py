"""Exact linear algebra over the scalars of one field, and tensor-leg
operations on (C^n)^x2 and (C^n)^x3 that read the factor size n
from the matrix shape.

Every matrix is stored as sparse rows mapping a column to a nonzero entry.
A matrix of exact scalars (``Fraction``s, possibly with ``Cyclotomic``s)
keeps the normal form a ``SpinPoly`` keeps: one field Q(zeta_N), held over
Q (N = 1) wherever every value is rational, an entry the phi(N) integer
numerators of its value over one positive denominator in lowest terms for
the whole matrix, as FLINT's ``fmpq_mat``/``nf_elem`` do.  So equal
matrices have equal data, ``==`` compares it, and two cyclotomic orders
raise OrderMismatchError wherever they meet.  Arithmetic runs on the
integers, a product reducing mod Phi_N once per entry with the table of
:mod:`nreflect.scalars`, and canonical scalars are built only where
entries are read: ``rows``, ``m[i, j]``, ``trace`` and ``first_nonzero``.
``inverse`` is one fraction-free elimination over Z: a Q(zeta_N) matrix is
inverted through its rational regular representation, phi(N) times its
size.  Two kernels each make one pass with one normalization:
:func:`combination` sums scaled matrices, and ``+``, ``-`` and ``scale``
are combinations; :func:`product_sum` sums signed products, as in the
reflection residual (:mod:`nreflect.rmatrix` has its own Yang-Baxter sum).  A
:class:`LegTable` holds pair-leg matrices compiled, indexed per entry,
each numerator the integer coefficients of a polynomial in nu, such as
the constant basis of a base r-matrix or the conjugated
(1 x P(nu)) m (1 x adj P(nu)) of a reflection case.  Its
``at`` evaluates all of them at a rational nu in one packed Horner pass,
into :class:`LegValues` over one denominator on the same index, whose
``combination`` of scalar weights is one dot per entry.  The kernels that
read an operand many times pack each Q(zeta_N) numerator vector into one
integer, so a coordinate convolution is one integer product (Kronecker
substitution; D. Harvey, "Faster polynomial multiplication via multipoint
Kronecker substitution", J. Symbolic Comput. 44, 2009); a single-use
product (``*``, ``scale``, ``kron``) stays schoolbook, as packing measured
slower there.  A matrix holds nothing else: polynomial entries, such as
the ``SpinPoly``s of the Gaudin B, are refused with TypeError, and the
layer that owns their ring multiplies them (:mod:`nreflect.gaudin`).
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import reduce
from typing import NamedTuple

from .errors import ShapeError, SingularMatrixError
from .scalars import (ONE, ZERO, Cyclotomic, _canonical, _content, _fold, _mul_reduce, _one_field, _over, _pack, _power,
                      _power_rows, _ring, _unpack, _width, euler_phi)

PLACEMENTS = ("ab", "ac", "bc", "ba", "ca", "cb")


class Matrix:
    """A matrix of exact scalars as sparse rows ``{column: value}`` of its
    nonzero entries: ``_order`` is N (1 over Q) and a value is a vector of
    integer numerators over ``_den``.  Rows of ints, Fractions and
    Cyclotomics are in normal form over their lcm (:func:`~nreflect.scalars._over`);
    TypeError for any other entry, even a zero polynomial."""

    __slots__ = ("nrows", "ncols", "_order", "_den", "_sparse")

    def __init__(self, rows):
        rows = tuple(tuple(row) for row in rows)
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise ShapeError("rows must be non-empty and of equal length")
        if any(type(a) not in (Fraction, int, Cyclotomic) for row in rows for a in row):
            raise TypeError("Matrix needs exact scalar entries of one field")
        self.nrows, self.ncols = len(rows), len(rows[0])
        self._order, vectors, self._den = _over([a for row in rows for a in row if a])
        vectors = iter(vectors)
        self._sparse = [{j: tuple(next(vectors)) for j, a in enumerate(row) if a} for row in rows]

    @staticmethod
    def identity(dim):
        return _matrix(1, 1, [{i: (1,)} for i in range(dim)], dim, dim)

    @staticmethod
    def diagonal(entries):
        n = len(entries)
        return Matrix([[entries[i] if i == j else ZERO for j in range(n)] for i in range(n)])

    @property
    def rows(self):
        """The entries, row by row, with ``ZERO`` in the gaps: canonical
        ``Fraction``/``Cyclotomic`` values built on each read."""
        cols, order, den = range(self.ncols), self._order, self._den
        return tuple(tuple([_canonical(order, r[j], den) if j in r else ZERO for j in cols]) for r in self._sparse)

    def __getitem__(self, idx):
        i, j = idx
        val = self._sparse[i].get(range(self.ncols)[j])
        return ZERO if val is None else _canonical(self._order, val, self._den)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        return combination(((1, self), (1, other))) if isinstance(other, Matrix) else NotImplemented

    def __sub__(self, other):
        return combination(((1, self), (-1, other))) if isinstance(other, Matrix) else NotImplemented

    def __neg__(self):
        return self.scale(-ONE)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return self.scale(other)
        if self.ncols != other.nrows:
            raise ShapeError(f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        order = _one_field(self._order, other._order)
        return _matrix(order, self._den * other._den, _product(order, self._sparse, other._sparse),
                       self.nrows, other.ncols)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, s):
        return combination(((s, self),))

    def __pow__(self, exponent: int):
        if self.nrows != self.ncols:
            raise ShapeError("matrix power needs a square matrix")
        if exponent < 0:
            return self.inverse() ** (-exponent)
        if not exponent:
            return Matrix.identity(self.nrows)
        return _power(self, exponent)

    def __eq__(self, other):
        """Equal values: equal data, both matrices in normal form."""
        if not isinstance(other, Matrix):
            return NotImplemented
        return ((self.nrows, self.ncols, self._order, self._den, self._sparse)
                == (other.nrows, other.ncols, other._order, other._den, other._sparse))

    def __hash__(self):
        return hash(self.rows)

    def is_zero(self) -> bool:
        return self.first_nonzero() is None

    def first_nonzero(self):
        """(row, col, value) of the first nonzero entry, or None."""
        for i, row in enumerate(self._sparse):
            if row:
                j = min(row)
                return (i, j, self[i, j])
        return None

    # -- linear algebra ------------------------------------------------------

    def trace(self):
        if self.nrows != self.ncols:
            raise ShapeError("trace needs a square matrix")
        return sum((self[i, i] for i in range(1, self.nrows)), self[0, 0])

    def inverse(self, label: str = "matrix"):
        """The inverse, by one fraction-free elimination over Z
        (:func:`_eliminate`) of the rational regular representation R(A)
        (:func:`_regular`): an entry a of A becomes the phi(N) x phi(N)
        block whose column t holds the coordinates of a zeta^t, and over Q,
        R(A) is A.  R is a ring homomorphism, so R(A)^-1 = R(A^-1), and each
        entry of A^-1 is column 0 of its block.  A singular matrix is
        refused with SingularMatrixError naming ``label`` and the first
        column where Gauss-Jordan over the field finds no pivot: field
        column k lies in the span of those before it exactly when column
        phi k of R(A) does."""
        if self.nrows != self.ncols:
            raise ShapeError("inverse needs a square matrix")
        order, n = self._order, self.nrows
        phi = euler_phi(order)
        right, den = _eliminate(_regular(order, self._sparse, n), phi, label, self._den)
        # the block of row i: its phi rows, read column by column
        out = [{j: vec for j, vec in enumerate(zip(*right[i * phi:(i + 1) * phi])) if any(vec)} for i in range(n)]
        return _matrix(order, den, out, n, n)

    def kron(self, other):
        """Tensor (Kronecker) product."""
        order, nb = _one_field(self._order, other._order), other.ncols
        out = [{ja * nb + jb: _times(order, x, y) for ja, x in ra.items() for jb, y in rb.items()}
               for ra in self._sparse for rb in other._sparse]
        return _matrix(order, self._den * other._den, out, self.nrows * other.nrows, self.ncols * nb)

    def pretty(self) -> str:
        cells = [[str(a) for a in row] for row in self.rows]
        widths = [max(len(cells[i][j]) for i in range(self.nrows)) for j in range(self.ncols)]
        return "\n".join("[" + "  ".join(c.rjust(w) for c, w in zip(row, widths)) + "]" for row in cells)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols})"


# ---------------------------------------------------------------------------
# sparse rows and the integer form
# ---------------------------------------------------------------------------

def _regular(order, sparse, n):
    """The dense integer rows of the rational regular representation of the
    n x n sparse rows of numerator vectors over Q(zeta_order): row
    i phi + s, column j phi + t holds coordinate s of a_ij zeta^t."""
    phi = euler_phi(order)
    rows = [[0] * (n * phi) for _ in range(n * phi)]
    for i, row in enumerate(sparse):
        for j, vec in row.items():
            for t in range(phi):
                if t:
                    vec = _fold(_power_rows(order), (0,) + tuple(vec), phi)  # times zeta
                for s, c in enumerate(vec):
                    rows[i * phi + s][j * phi + t] = c
    return rows


def _eliminate(rows, phi, label, scale):
    """(X, d) with scale M^-1 e_(j phi) = column j of X / d for the dense
    square integer rows M, by fraction-free Gauss-Jordan elimination.  Each
    row of M has its content c_i divided out first (M = D M', D = diag(c_i),
    M^-1 = M'^-1 D^-1), so elimination starts from [M' | C D^-1 E], C the
    lcm of the c_i and E the columns e_(j phi).  The pivot of a column is
    the first row at or below it with a nonzero entry f there, and every
    other such row becomes p row - f (pivot row), p the pivot, with its
    content divided out, where Bareiss divides by the previous pivot (Math.
    Comp. 22, 1968).  Row i ends as d_i e_i beside d_i C times row i of
    M^-1 E.  SingularMatrixError names ``label`` and column c // phi for
    the first column c without a pivot."""
    size = len(rows)
    contents = [math.gcd(*row) or 1 for row in rows]
    content = math.lcm(*contents)
    rows = [(row if c == 1 else [x // c for x in row])
            + [content // c if i == j * phi else 0 for j in range(size // phi)]
            for i, (row, c) in enumerate(zip(rows, contents))]
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col]), None)
        if pivot is None:
            raise SingularMatrixError(f"{label} is singular (column {col // phi})")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        top = rows[col]
        p = top[col]
        for r, row in enumerate(rows):
            f = row[col]
            if f and r != col:
                row = [p * x - f * y for x, y in zip(row, top)]
                g = math.gcd(*row)
                rows[r] = [x // g for x in row] if g > 1 else row  # g = 0: a zero row, M is singular
    lcm = math.lcm(*(row[i] for i, row in enumerate(rows)))
    # the sign of d_i goes with its factor
    return [[x * (scale * lcm // row[i]) for x in row[size:]] for i, row in enumerate(rows)], lcm * content


def _matrix(order, den, sparse, nrows, ncols):
    """The matrix of the nonzero numerator vectors ``sparse`` over den in
    normal form: held over Q (order 1, 1-tuples) when no coordinate past the
    first is nonzero, and den and the numerators divided by their gcd, so
    equal matrices have equal data."""
    m = object.__new__(Matrix)
    if order != 1 and not any(any(vec[1:]) for row in sparse for vec in row.values()):
        order, sparse = 1, [{j: vec[:1] for j, vec in row.items()} for row in sparse]
    g = _content(den, map(dict.values, sparse))
    if g != 1:
        den //= g
        sparse = [{j: tuple(c // g for c in vec) for j, vec in row.items()} for row in sparse]
    m.nrows, m.ncols = nrows, ncols
    m._order, m._den, m._sparse = order, den, sparse
    return m


def _times(order, x, y):
    """The product of two numerator vectors of Q(zeta_order), either of
    which may be a rational one of length 1, by schoolbook multiplication:
    ``kron`` and ``combination`` use each vector once, and packing it, as
    :func:`product_sum` does, measured slower there."""
    if len(x) == 1:
        return tuple(x[0] * c for c in y)
    if len(y) == 1:
        return tuple(c * y[0] for c in x)
    return tuple(_mul_reduce(order, x, y))


def _accumulate(out, sa, sb, factor=1):
    """Add factor times the product of two sparse row lists whose values are
    1-tuples of ints (rational numerators, or packed vectors) to ``out``,
    one dict of plain ints per output row."""
    for acc, ra in zip(out, sa):
        for k, (x,) in ra.items():
            x *= factor
            for j, (y,) in sb[k].items():
                acc[j] = acc.get(j, 0) + x * y


def _product(order, sa, sb):
    """Sparse rows of the product of two sparse row lists over Q(zeta_order):
    integer dot products of the coordinate convolutions, each output entry
    reduced mod Phi_N once.  Rational vectors may have length 1.  A
    product reads each operand once, so the vectors stay unpacked: packing
    them, as :func:`product_sum` does, measured slower here."""
    if order == 1:
        out = [{} for _ in sa]
        _accumulate(out, sa, sb)
        return [{j: (c,) for j, c in acc.items() if c} for acc in out]
    out = []
    phi = euler_phi(order)
    table = _power_rows(order)
    for ra in sa:
        acc = {}
        for k, x in ra.items():
            for j, y in sb[k].items():
                c = acc.get(j)
                if c is None:
                    c = acc[j] = [0] * (2 * phi - 1)
                for s, xs in enumerate(x):
                    if xs:
                        for t, yt in enumerate(y, s):
                            c[t] += xs * yt
        out.append({j: vec for j, c in acc.items() if any(vec := tuple(_fold(table, c, phi)))})
    return out


def combination(pairs) -> Matrix:
    """sum c * m over the (exact scalar, matrix of exact scalars) pairs, at
    least one, all over one field, in one pass over the integer numerators:
    one lcm of the denominators, each coefficient folded into the
    numerators, one normalization (:func:`_matrix`).  ``+``, ``-`` and
    ``scale`` of exact matrices are combinations.  A rational coefficient
    multiplies the integers directly, and not at all when its folded factor
    is 1; a cyclotomic one multiplies each vector by :func:`_times`.  Over
    Q(zeta_N) a rational matrix's 1-tuples are padded once, and sums are
    taken coordinatewise.  TypeError for a coefficient that is no exact
    scalar, OrderMismatchError for two cyclotomic orders."""
    pairs = list(pairs)
    nrows, ncols = pairs[0][1].nrows, pairs[0][1].ncols
    orders, terms = [], []
    for c, m in pairs:
        if m.nrows != nrows or m.ncols != ncols:
            raise ShapeError(f"shape mismatch {nrows}x{ncols} vs {m.nrows}x{m.ncols}")
        kind = type(c)
        if not (kind is Cyclotomic or kind is Fraction or kind is int):
            raise TypeError("combination needs exact scalar entries of one field")
        if kind is Cyclotomic:  # never zero
            orders += (c.order, m._order)
            terms.append((c.num, c.den * m._den, m))
        else:
            orders.append(m._order)
            if c:
                terms.append((c.numerator, c.denominator * m._den, m))
    order = _one_field(*orders)
    den = math.lcm(*(d for _, d, _ in terms))
    out = None  # the first term's scaled rows, then the sums
    if order == 1:
        for c, d, m in terms:
            c *= den // d
            if out is None:
                out = [{j: (x * c,) for j, (x,) in row.items()} for row in m._sparse]
                continue
            for acc, row in zip(out, m._sparse):
                for j, (x,) in row.items():
                    x = acc.get(j, (0,))[0] + x * c
                    if x:
                        acc[j] = (x,)
                    else:
                        del acc[j]
        return _matrix(1, den, out or [{} for _ in range(nrows)], nrows, ncols)
    pad = (0,) * (euler_phi(order) - 1)
    for num, d, m in terms:
        factor, rows = den // d, m._sparse
        if type(num) is not int:
            num = [x * factor for x in num]
            rows = [{j: _times(order, vec, num) for j, vec in row.items()} for row in rows]
        else:
            factor *= num
            if m._order == 1:
                rows = [{j: (x * factor,) + pad for j, (x,) in row.items()} for row in rows]
            elif factor != 1:
                rows = [{j: tuple([x * factor for x in vec]) for j, vec in row.items()} for row in rows]
            elif out is None:  # the sums start from these rows, so they are copied
                rows = list(map(dict, rows))
        if out is None:
            out = rows
            continue
        for acc, row in zip(out, rows):
            for j, vec in row.items():
                old = acc.get(j)
                if old is not None:
                    vec = tuple(map(operator.add, old, vec))
                    if not any(vec):
                        del acc[j]
                        continue
                acc[j] = vec
    return _matrix(order, den, out or [{} for _ in range(nrows)], nrows, ncols)


def product_sum(terms) -> Matrix:
    """sum sign * a * b over the (sign, a, b) terms, at least one, each sign
    1 or -1 and every matrix of exact scalars over one field, in one pass:
    one lcm of the denominators, each scale factor folded into the
    numerators, one accumulator per row, one gcd normalization.  An operand
    is read once per row of the other, so over Q(zeta_N) each of its
    numerator vectors is packed into one int of the shared ring
    (:func:`~nreflect.scalars._ring`), its digit bound from the largest
    numerators, the longest row of each a, phi(N) and the scale factors;
    the packed sums are folded mod Phi_N and read back at once.
    OrderMismatchError for two cyclotomic orders."""
    terms = list(terms)
    nrows, ncols = terms[0][1].nrows, terms[0][2].ncols
    for _, a, b in terms:
        if a.ncols != b.nrows or (a.nrows, b.ncols) != (nrows, ncols):
            raise ShapeError(f"cannot sum the {a.nrows}x{a.ncols} by {b.nrows}x{b.ncols} product "
                             f"into {nrows}x{ncols}")
    order = _one_field(*(m._order for _, a, b in terms for m in (a, b)))
    den = math.lcm(*(a._den * b._den for _, a, b in terms))
    scaled = [(sign * (den // (a._den * b._den)), a, b) for sign, a, b in terms]
    matrices = {id(m): m for _, a, b in terms for m in (a, b)}
    packed = {key: m._sparse for key, m in matrices.items()}  # a 1-tuple is its own packed form
    if order != 1:
        top = {key: max((max(map(abs, vec)) for row in m._sparse for vec in row.values()), default=0)
               for key, m in matrices.items()}
        ring = _ring(order, euler_phi(order) * sum(abs(factor) * top[id(a)] * top[id(b)] * max(map(len, a._sparse))
                                                   for factor, a, b in scaled))
        packed.update((key, [{j: (_pack(vec, ring.width),) for j, vec in row.items()} for row in m._sparse])
                      for key, m in matrices.items() if m._order != 1)
    out = [{} for _ in range(nrows)]
    for factor, a, b in scaled:
        _accumulate(out, packed[id(a)], packed[id(b)], factor)
    if order == 1:
        return _matrix(1, den, [{j: (c,) for j, c in acc.items() if c} for acc in out], nrows, ncols)
    vectors, at = ring.vectors([ring.fold(c) for acc in out for c in acc.values()]), itertools.count()
    return _matrix(order, den, [{j: vec for j, g in zip(acc, at) if (vec := vectors.get(g))} for acc in out],
                   nrows, ncols)


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return a * b - b * a


# ---------------------------------------------------------------------------
# tensor-leg operations
# ---------------------------------------------------------------------------

def permutation_operator(n: int) -> Matrix:
    """P on C^n x C^n with P(e_i x e_j) = e_j x e_i."""
    dim = n * n
    return _matrix(1, 1, [{(r % n) * n + r // n: (1,)} for r in range(dim)], dim, dim)


def _pair_factor(m: Matrix, what: str) -> int:
    """n for an n^2 x n^2 matrix on C^n x C^n; ShapeError otherwise."""
    n = math.isqrt(m.nrows)
    if m.ncols != m.nrows or n * n != m.nrows:
        raise ShapeError(f"{what} needs an n^2 x n^2 pair-leg matrix, got {m.nrows}x{m.ncols}")
    return n


def embed_pair(m: Matrix, placement: str) -> Matrix:
    """Place a pair-leg operator on the named ordered pair of the factors
    a, b, c, acting as the identity on the remaining leg.  Reversed placements (ba,
    ca, cb) are handled by the same index bookkeeping."""
    if placement not in PLACEMENTS:
        raise ShapeError(f"placement must be one of {PLACEMENTS}, got {placement!r}")
    n = _pair_factor(m, "embed_pair")
    weight = [n * n, n, 1]  # of the legs a, b and c in an index on (C^n)^x3
    first, second = (weight["abc".index(leg)] for leg in placement)
    spare = n**3 // (first * second)  # the weight of the third leg
    out = [None] * n**3
    for s in range(n):  # pair index k, spare leg s: row or column k // n first + k % n second + s spare
        place = [k // n * first + k % n * second + s * spare for k in range(n * n)]
        for k, row in enumerate(m._sparse):
            out[place[k]] = {place[c]: val for c, val in row.items()}
    return _matrix(m._order, m._den, out, n**3, n**3)


def swap_pair(m: Matrix) -> Matrix:
    """Conjugation P m P on a pair-leg matrix, done by index relabelling."""
    n = _pair_factor(m, "swap_pair")
    swapped = [(r % n) * n + r // n for r in range(n * n)]  # i1 n + i2 -> i2 n + i1
    out = [{swapped[k]: val for k, val in m._sparse[r].items()} for r in swapped]
    return _matrix(m._order, m._den, out, n * n, n * n)


def partial_trace(m: Matrix, leg: str) -> Matrix:
    """Trace a pair-leg matrix over leg "a" (first factor) or "b" (second)."""
    n = _pair_factor(m, "partial_trace")
    if leg not in ("a", "b"):
        raise ShapeError(f"leg must be 'a' or 'b', got {leg!r}")
    pairs = [divmod(r, n) for r in range(n * n)]  # (traced, kept) leg of a pair index
    legs = pairs if leg == "a" else [(kept, traced) for traced, kept in pairs]
    out = [{} for _ in range(n)]
    for (t, i), row in zip(legs, m._sparse):
        for c, val in row.items():
            s, j = legs[c]
            if s == t:
                old = out[i].get(j)
                out[i][j] = val if old is None else tuple(map(operator.add, old, val))
    out = [{j: vec for j, vec in row.items() if any(vec)} for row in out]
    return _matrix(m._order, m._den, out, n, n)


class LegTable:
    """Pair-leg matrices T_t over one common denominator ``den``, indexed
    per entry: the entries of row r are at the columns cols[r], entry e
    holds nums[k] for a <= k < b, (a, b) = bounds[e], and nums[k] is
    coordinate u of T_t[r, c] over Q(zeta_order), index[k] = t phi + u,
    phi = phi(order).  Factor pair j of a frame reads the terms from
    offsets[j] on.  The table is compiled: each nums[k] is the integer
    coefficients of that coordinate as a polynomial in nu, highest degree
    first, all of one length, and :meth:`at` evaluates them into the
    :class:`LegValues` that a frame combines."""

    __slots__ = ("order", "den", "terms", "offsets", "cols", "bounds", "index", "nums", "_top", "_packed")

    def __init__(self, terms, offsets=(), order=None, den=1):
        """The table whose term t holds at (r, c) the polynomial terms[t][r][c]
        in nu, given as sparse rows over one field: its exact scalar
        coefficients, lowest degree first, put over one denominator here,
        or, with ``order``, an integer coordinate polynomial of
        :class:`~nreflect.ratfun._Packed` over ``den``.  Factor pair j reads
        the terms from offsets[j] on, or from term 0 without offsets.  Each
        coordinate's integers, padded to the highest degree, are indexed
        where one is nonzero.  TypeError for ring coefficients,
        OrderMismatchError for two cyclotomic orders."""
        if order is None:
            values = [x for term in terms for row in term for coeffs in row.values() for x in coeffs]
            if any(type(x) not in (Fraction, int, Cyclotomic) for x in values):
                raise TypeError("LegTable needs exact scalar coefficients of one field")
            order, numerators, den = _over(values)
            numerators = iter(numerators)
            terms = [[{c: tuple(zip(*[next(numerators) for _ in coeffs])) for c, coeffs in row.items()} for row in term]
                     for term in terms]
        phi, rows = euler_phi(order), [{} for _ in terms[0]]
        length = max((len(poly) for term in terms for row in term for x in row.values() for poly in x), default=1)
        for t, term in enumerate(terms):
            for entries, row in zip(rows, term):
                for c, x in row.items():
                    ts, nums = entries.setdefault(c, ([], []))
                    for u, poly in enumerate(x, t * phi):
                        if any(poly):
                            ts.append(u)
                            nums.append((0,) * (length - len(poly)) + poly[::-1])
        self.order, self.den, self.terms, self.offsets = order, den, len(terms), offsets or itertools.repeat(0)
        self.cols, self.bounds, self.index, self.nums = [list(row) for row in rows], [], [], []
        for row in rows:
            for ts, nums in row.values():
                self.bounds.append((len(self.index), len(self.index) + len(ts)))
                self.index += ts
                self.nums += nums
        self._top, self._packed = max((sum(map(abs, coeffs)) for coeffs in self.nums), default=0), {}

    def at(self, nu) -> "LegValues":
        """The table's values at nu, on its index.  At nu = p/q each value is
        the homogeneous sum sum_d c_d p^d q^(D - d) over den q^D, D the
        degree, in one integer Horner pass over every numerator at once:
        the coefficients of each degree are packed w bits apart into one
        int (Kronecker substitution), w :func:`~nreflect.scalars._width` of
        the largest absolute coefficient sum times 2^(D bits(max(|p|, q))),
        read back by :func:`~nreflect.scalars._unpack`.  A point over Q(zeta_N)
        takes field arithmetic, and each term's values are tabled again as
        constant polynomials."""
        if type(nu) is not Fraction:
            phi, terms = euler_phi(self.order), [[{} for _ in self.cols] for _ in range(self.terms)]
            units = [_canonical(self.order, [int(u == v) for v in range(phi)], self.den) for u in range(phi)]
            for (r, c), (a, b) in zip(((r, c) for r, cols in enumerate(self.cols) for c in cols), self.bounds):
                for t_u, coeffs in zip(self.index[a:b], self.nums[a:b]):
                    (t, u), value = divmod(t_u, phi), reduce(lambda acc, x: acc * nu + x, coeffs, ZERO)
                    terms[t][r][c] = (terms[t][r].get(c, (ZERO,))[0] + value * units[u],)
            return LegTable(terms, self.offsets).at(ONE)
        p, q = nu.numerator, nu.denominator
        degree = len(self.nums[0]) - 1 if self.nums else 0
        width = _width(self._top << degree * max(abs(p), q).bit_length())
        acc, power = 0, 1
        for row in self._packed.get(width) or self._packed.setdefault(width, [_pack(c, width) for c in zip(*self.nums)]):
            acc, power = acc * p + row * power, power * q
        return LegValues(self, self.den * q**degree, _unpack([acc], width, len(self.nums)))


class LegValues(NamedTuple):
    """A compiled :class:`LegTable`'s values at one point: integer
    numerators on the table's index, over one denominator ``den``."""

    table: LegTable
    den: int
    nums: list

    def combination(self, terms) -> Matrix:
        """sum_j g_j sum_i f_ji T_(offsets[j] + i) over one pair of integer
        parts per factor pair, over Q or the table's field: g_j a scalar's
        (:func:`~nreflect.scalars._parts`), f_j a base r's f_j0, ...
        (:attr:`~nreflect.rmatrix.RMatrixFun.parts`).  The weight w_t of a
        term sums its products g_j f_ji on the integer numerators, g_j scaled
        to one lcm L of the products of denominators; coordinate c of an
        entry is one dot of its numerators with the coordinates c of the
        w_t zeta^u, over L den.  Over Q each w_t is one int, summed directly.
        The content is divided out of the flat sums, cheaper than dividing
        each built vector in :func:`_matrix`.  OrderMismatchError for two
        cyclotomic orders."""
        table, terms = self.table, list(zip(terms, self.table.offsets))
        order = _one_field(table.order, *(x[0] for pair, _ in terms for x in pair))
        den = math.lcm(*(gd * fd for ((_, _, gd), (_, _, fd)), _ in terms))
        terms = [([x * (den // (gd * fd)) for x in g], fs, offset) for ((_, g, gd), (_, fs, fd)), offset in terms]
        if order == 1:
            coords = [[0] * table.terms]  # coords[c][t stride + u]: coordinate c of w_t zeta^u
            for (g,), fs, offset in terms:
                for t, (f,) in enumerate(fs, offset):
                    coords[0][t] += g * f
        else:
            phi, stride = euler_phi(order), euler_phi(table.order)
            weights = [[0] * phi for _ in range(table.terms)]
            for g, fs, offset in terms:
                for t, f in enumerate(fs, offset):
                    for s, c in enumerate(_times(order, g, f)):
                        weights[t][s] += c
            coords = [[0] * (table.terms * stride) for _ in range(phi)]
            for t, w in enumerate(weights):
                for u in range(stride):
                    if u:
                        w = [a + w[-1] * z for a, z in zip([0] + w[:-1], _power_rows(order)[0])]
                    for c, x in enumerate(w):
                        coords[c][t * stride + u] = x
        flats = []
        for column in coords:
            sums = list(itertools.accumulate(map(operator.mul, map(column.__getitem__, table.index), self.nums), initial=0))
            flats.append([sums[b] - sums[a] for a, b in table.bounds])
        den *= self.den
        content = math.gcd(den, *itertools.chain.from_iterable(flats))
        if content != 1:
            den //= content
            flats = [[x // content for x in flat] for flat in flats]
        values = zip(*flats)
        out = [{c: vec for c in cols if any(vec := next(values))} for cols in table.cols]
        return _matrix(order, den, out, len(out), len(out))


def tensor_pair(a: Matrix, b: Matrix) -> Matrix:
    """a x b on C^n x C^n (both factors n x n)."""
    if a.nrows != a.ncols or b.nrows != b.ncols or a.nrows != b.nrows:
        raise ShapeError("tensor_pair needs two square matrices of equal size")
    return a.kron(b)
