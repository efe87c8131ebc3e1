"""Oracle for the integer matrix form: every operation on exact-scalar
matrices is compared with a test-local entrywise reference over
``Fraction``/``Cyclotomic``, for Q and Q(zeta_N), N in {3, 4, 5, 6, 8}.
Inputs mix rational and cyclotomic entries and many zeros; some results
cancel to the zero matrix, some demote to rationals.  Every result must
also be in canonical form: no entry read back is a zero or rational
``Cyclotomic``, and the stored numerators are in lowest terms.  Rows of
spin polynomials (``nreflect.gaudin.SpinRows``), which a ``Matrix``
refuses, are checked against the same references."""

from fractions import Fraction
from itertools import combinations
from math import gcd
from types import SimpleNamespace

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import Phase, given, settings, strategies as st  # noqa: E402

from nreflect.errors import OrderMismatchError, SingularMatrixError  # noqa: E402
from nreflect.gaudin import SpinRows  # noqa: E402
from nreflect.linalg import (  # noqa: E402
    PLACEMENTS,
    LegTable,
    Matrix,
    embed_pair,
    partial_trace,
    swap_pair,
    tensor_pair,
)
from nreflect.ratfun import Poly  # noqa: E402
from nreflect.reflection import PointFrame, _conjugated, rbar_at  # noqa: E402
from nreflect.scalars import ONE, ZERO, Cyclotomic, cyclotomic, euler_phi, zeta  # noqa: E402
from nreflect.spinalg import SpinPoly, s_minus, s_plus, s_z  # noqa: E402

ORDERS = (1, 3, 4, 5, 6, 8)
PROFILE = settings(max_examples=15, deadline=None, derandomize=True, database=None)
# the 27 x 27 references of embed_pair dominate the pair-leg test
PAIR_LEG_PROFILE = settings(PROFILE, max_examples=8)
# each example runs some twenty spin-matrix operations, so shrinking a
# failure would take minutes; report the failing example as drawn
NO_SHRINK_PROFILE = settings(PROFILE, phases=[phase for phase in Phase if phase is not Phase.shrink])

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)
# numerators and denominators of 200 to 230 bits, either sign
wide = st.integers(2**200, 2**230)
wide_rationals = st.builds(lambda p, q, negative: Fraction(-p if negative else p, q), wide, wide, st.booleans())


def field_elements(order, coordinates):
    """Rationals drawn from ``coordinates`` and, over Q(zeta_N), elements
    with such coordinates, often rational."""
    if order == 1:
        return coordinates
    elements = st.lists(coordinates, min_size=1, max_size=euler_phi(order)).map(lambda c: cyclotomic(order, c))
    return st.one_of(coordinates, elements)


def scalars(order):
    """Zero, a rational, or (over Q(zeta_N)) an element that is often rational."""
    return st.one_of(st.just(ZERO), field_elements(order, rationals))


def entries(order, nrows, ncols, element=None):
    row = st.lists(scalars(order) if element is None else element, min_size=ncols, max_size=ncols)
    return st.lists(row, min_size=nrows, max_size=nrows)


def square(order, sizes=(1, 2, 3), count=2):
    """``count`` n x n entry lists of one drawn size n."""
    return st.sampled_from(sizes).flatmap(
        lambda n: st.tuples(*(entries(order, n, n) for _ in range(count))))


# -- the entrywise reference --------------------------------------------------

def ref_sum(values):
    """The sum of the nonzero values, ZERO when there is none.  Sparse rows
    store no zero, so a matrix adds only nonzero entries and products of
    them: a rational plus a zero spin polynomial stays a rational."""
    return sum((v for v in values if v), ZERO)


def ref_mul(a, b):
    return [[ref_sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def ref_kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def ref_embed(m, placement, n):
    """Entry (x, y) of the operator on legs (first, second): m at the pair
    indices of those legs when the spare leg's indices agree."""
    first, second = "abc".index(placement[0]), "abc".index(placement[1])
    spare = 3 - first - second

    def legs(r):
        return (r // (n * n), r // n % n, r % n)

    out = []
    for r in range(n**3):
        x = legs(r)
        row = []
        for c in range(n**3):
            y = legs(c)
            row.append(m[x[first] * n + x[second]][y[first] * n + y[second]] if x[spare] == y[spare] else ZERO)
        out.append(row)
    return out


def ref_swap(m, n):
    return [[m[i2 * n + i1][j2 * n + j1] for j1 in range(n) for j2 in range(n)]
            for i1 in range(n) for i2 in range(n)]


def ref_partial_trace(m, n, leg):
    if leg == "a":
        return [[ref_sum(m[i * n + j1][i * n + j2] for i in range(n)) for j2 in range(n)] for j1 in range(n)]
    return [[ref_sum(m[i1 * n + j][i2 * n + j] for j in range(n)) for i2 in range(n)] for i1 in range(n)]


def ref_det(a):
    if len(a) == 1:
        return a[0][0]
    return sum(((-1) ** j * a[0][j] * ref_det([row[:j] + row[j + 1:] for row in a[1:]])
                for j in range(len(a))), ZERO)


def ref_inverse(a, det):
    """The adjugate over the determinant."""
    n = len(a)
    if n == 1:
        return [[1 / det]]
    minor = lambda i, j: [row[:j] + row[j + 1:] for k, row in enumerate(a) if k != i]  # noqa: E731
    return [[(-1) ** (i + j) * ref_det(minor(j, i)) / det for j in range(n)] for i in range(n)]


def ref_singular_column(a):
    """The first column c whose leading c + 1 columns are linearly dependent:
    where Gauss-Jordan elimination over the field finds no pivot.  None for
    an invertible matrix."""
    n = len(a)
    for c in range(n):
        if not any(ref_det([[a[r][j] for j in range(c + 1)] for r in rows]) for rows in combinations(range(n), c + 1)):
            return c
    return None


def ref_first_nonzero(m):
    return next(((i, j, v) for i, row in enumerate(m) for j, v in enumerate(row) if v), None)


# -- checks ---------------------------------------------------------------------

def assert_canonical(m: Matrix):
    """Entries read back are Fractions or irrational Cyclotomics, and the
    integer form stores no zero vector over a positive denominator in
    lowest terms."""
    for row in m.rows:
        for value in row:
            if isinstance(value, Cyclotomic):
                assert any(value.num[1:]), "a rational value must read back as a Fraction"
            else:
                assert type(value) is Fraction
    assert m._order is not None, "an exact-scalar matrix must be in the integer form"
    assert (m._order == 1) == (not any(isinstance(value, Cyclotomic) for row in m.rows for value in row))
    assert m._den > 0
    vectors = [vec for row in m._sparse for vec in row.values()]
    assert all(any(vec) and len(vec) in (1, euler_phi(m._order)) for vec in vectors)
    assert gcd(m._den, *(c for vec in vectors for c in vec)) == 1


def check(m: Matrix, ref):
    assert m.rows == tuple(tuple(row) for row in ref)
    assert m == Matrix(ref)
    assert_canonical(m)
    assert m.first_nonzero() == ref_first_nonzero(ref)
    assert m.is_zero() == (ref_first_nonzero(ref) is None)


@pytest.mark.parametrize("order", ORDERS)
def test_ring_operations(order):
    @PROFILE
    @given(square(order, count=2), scalars(order))
    def run(pair, s):
        a, b = pair
        A, B = Matrix(a), Matrix(b)
        check(A, a)
        check(A * B, ref_mul(a, b))
        check(A + B, [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])
        check(A - B, [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])
        check(-A, [[-x for x in row] for row in a])
        check(A.scale(s), [[s * x for x in row] for row in a])
        check(s * A, [[s * x for x in row] for row in a])
        check(A.kron(B), ref_kron(a, b))
        zero = [[ZERO] * len(a) for _ in a]
        for cancelled in (A - A, A + (-A), A * Matrix(zero), A.scale(ZERO), A.scale(s) - A.scale(s)):
            check(cancelled, zero)
        assert A.trace() == sum((a[i][i] for i in range(len(a))), ZERO)
        assert all(A[i, j] == a[i][j] for i in range(len(a)) for j in range(len(a)))
        assert (A == B) == (a == b)

    run()


@pytest.mark.parametrize("order", ORDERS[1:])
def test_results_that_demote_to_rationals(order):
    z = zeta(order)

    @PROFILE
    @given(square(1, count=2))
    def run(pair):
        a, b = pair
        A, B = Matrix(a).scale(z), Matrix(b).scale(z ** -1)
        assert A._order == (1 if A.is_zero() else order)  # the zero matrix is held over Q
        check(A * B, ref_mul(a, b))
        check(A.kron(B), ref_kron(a, b))
        check(A.scale(z ** -1), a)
        check(A + Matrix(b).scale(-z), [[(x - y) * z for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])

    run()


@pytest.mark.parametrize("order", ORDERS)
def test_pair_leg_operations(order):
    @PAIR_LEG_PROFILE
    @given(st.sampled_from((1, 2, 3)).flatmap(
        lambda n: st.tuples(st.just(n), entries(order, n * n, n * n), square(order, sizes=(n,)))))
    def run(drawn):
        n, m, (a, b) = drawn
        M = Matrix(m)
        for placement in PLACEMENTS:
            check(embed_pair(M, placement), ref_embed(m, placement, n))
        check(swap_pair(M), ref_swap(m, n))
        for leg in "ab":
            check(partial_trace(M, leg), ref_partial_trace(m, n, leg))
        check(tensor_pair(Matrix(a), Matrix(b)), ref_kron(a, b))

    run()


def conjugated(left, m, right, nu=ONE):
    """(1 x left(nu)) m (1 x right(nu)) for n x n rows of polynomials: the
    numerators the compile forms, tabled, evaluated at nu and read with
    weight 1."""
    table = LegTable([_conjugated(left, Matrix(m), right)], [0])
    return table.at(nu).combination([(ONE, (ONE,))])


def at(rows, nu):
    return [[p.eval_at(nu) for p in row] for row in rows]


@pytest.mark.parametrize("order", ORDERS)
def test_leg_conjugation(order):
    # the one term of the compiled numerators of (1 x L) M (1 x R), L = L0 + nu L1 and R constant,
    # is (1 x L(nu)) M (1 x R) at a rational nu and, over Q(zeta_N), at nu + zeta_N, and a
    # point frame's rbar with unit weights and coefficients reads it
    @PAIR_LEG_PROFILE
    @given(st.sampled_from((1, 2, 3)).flatmap(lambda n: st.tuples(
        st.just(n), entries(order, n * n, n * n), square(order, sizes=(n,), count=3), rationals)))
    def run(drawn):
        n, m, (left0, left1, right), nu = drawn
        eye = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
        left = [[Poly([a, b]) for a, b in zip(r0, r1)] for r0, r1 in zip(left0, left1)]
        right = [[Poly([a]) for a in row] for row in right]
        unit = SimpleNamespace(base_r=SimpleNamespace(coefficients=lambda lam, point: (ONE,)))
        table = LegTable([_conjugated(left, Matrix(m), right)], [0])
        for point in (nu,) if order == 1 else (nu, nu + zeta(order)):
            on_b = ref_mul(ref_mul(ref_kron(eye, at(left, point)), m), ref_kron(eye, at(right, point)))
            frame = PointFrame((point,), (ONE,), (ONE,), SimpleNamespace(identity_k=False, table=table))
            check(rbar_at(unit, ZERO, frame), on_b)
            check(conjugated(left, m, right, point), on_b)

    run()


@pytest.mark.parametrize("order", ORDERS)
def test_compiled_table_reaches_the_packing_bound(order):
    # numerators of degree 6 at nu = 255, -255 and 1/255, one coefficient +-(2^b - 7) and the
    # others +-1, signed so that every term of a sum has one sign: the slot width
    # b + 6 bits(255) + 1 is 64, 65, 128, 129 and 249 for b = 15, 16, 79, 80 and 200, each
    # sum is above 2^(b + 47), so the 64- and 128-bit slots are filled up to their sign bit
    # and the 65- and 129-bit ones need the next size, and neighbouring slots of either sign
    # must not borrow from each other
    phi = euler_phi(order)
    for bits in (15, 16, 79, 80, 200):
        for nu in (Fraction(255), Fraction(-255), Fraction(1, 255)):
            lead, sign = (6 if nu.denominator == 1 else 0), (1 if nu > 0 else -1)
            signs = [1, -1, 1, 1, -1, -1]
            rows = [{c: tuple(cyclotomic(order, [s * sign**d * (2**bits - 7 if d == lead else 1)] * phi)
                              for d in range(7)) for c, s in enumerate(signs)}]
            table = LegTable([rows], [0])
            p, q = nu.numerator, nu.denominator
            want = [sum(x * p**d * q**(6 - d) for d, x in enumerate(reversed(coeffs))) for coeffs in table.nums]
            assert min(map(abs, want)) > 2 ** (bits + 47)
            assert table.at(nu).nums == want, (order, bits, nu)
            assert table.at(nu).den == table.den * q**6


def test_spin_polynomial_tables_and_inverse_are_refused():
    # only matrices of exact scalars are formed, so only they are tabled or inverted, and only exact
    # coefficients compiled
    m = [[SPINS[(i + j) % 4] if (i * j) % 3 else Fraction(i - j, 2) for j in range(4)] for i in range(4)]
    for rows in (m, [[s_z(1), ONE], [ZERO, Fraction(2)]], [[Poly([ONE, ONE]), ZERO]], [[ONE, SpinPoly()]], [[Poly()]]):
        with pytest.raises(TypeError, match="^Matrix needs exact scalar entries of one field$"):
            Matrix(rows)
    with pytest.raises(TypeError, match="^LegTable needs exact scalar coefficients of one field$"):
        LegTable([[{0: (ONE, s_z(1))}]], [0])


def check_inverse(a, label="matrix"):
    """Matrix(a).inverse() is the adjugate over the determinant, and a
    singular matrix is refused naming the label and the column without a
    pivot."""
    det = ref_det(a)
    if not det:
        with pytest.raises(SingularMatrixError) as refused:
            Matrix(a).inverse(label=label)
        assert str(refused.value) == f"{label} is singular (column {ref_singular_column(a)})"
        return
    assert ref_singular_column(a) is None
    inverse = Matrix(a).inverse(label=label)
    check(inverse, ref_inverse(a, det))
    assert Matrix(a) * inverse == Matrix.identity(len(a))


@pytest.mark.parametrize("order", ORDERS)
def test_inverse(order):
    @PROFILE
    @given(square(order, sizes=(1, 2, 3, 4), count=1))
    def run(single):
        check_inverse(single[0])

    run()


@pytest.mark.parametrize("order", ORDERS)
def test_inverse_of_wide_entries(order):
    # entries of 200 to 230 bits among small ones and zeros
    element = st.one_of(scalars(order), field_elements(order, wide_rationals))

    @PROFILE
    @given(st.sampled_from((1, 2, 3, 4)).flatmap(lambda n: entries(order, n, n, element)))
    def run(a):
        check_inverse(a, label="k^(1)(nu)")

    run()


@pytest.mark.parametrize("order", ORDERS)
def test_singular_matrices_of_full_looking_rank(order):
    # every entry nonzero, one row a combination of the others, placed anywhere
    element = field_elements(order, st.one_of(rationals, wide_rationals).filter(bool))

    @PROFILE
    @given(st.sampled_from((2, 3, 4)).flatmap(lambda n: st.tuples(
        entries(order, n - 1, n, element), st.lists(element, min_size=n - 1, max_size=n - 1),
        st.integers(0, n - 1))))
    def run(drawn):
        rows, coefficients, position = drawn
        dependent = [ref_sum(c * row[j] for c, row in zip(coefficients, rows)) for j in range(len(rows[0]))]
        a = rows[:position] + [dependent] + rows[position:]
        assert not ref_det(a)
        check_inverse(a, label="k^(2)(nu)")

    run()


def test_orders_that_differ_do_not_mix():
    # a matrix of exact scalars lies in one field: two cyclotomic orders are refused wherever they meet
    third, fourth = Matrix([[zeta(3), ZERO]]), Matrix([[ZERO, zeta(4)]])
    for mixed in (lambda: Matrix([[zeta(3)]]) * Matrix([[zeta(4)]]), lambda: Matrix([[zeta(3)]]).scale(zeta(4)),
                  lambda: third + fourth, lambda: third - fourth, lambda: third.kron(fourth),
                  lambda: Matrix([[zeta(3), zeta(4)]])):
        with pytest.raises(OrderMismatchError):
            mixed()
    # equal data over two fields is not equal values: zeta_3 and zeta_4 both store (0, 1)
    assert Matrix([[zeta(3)]]) != Matrix([[zeta(4)]])


# -- matrices of spin polynomials ------------------------------------------------

SPINS = (s_z(1), s_plus(1), s_minus(2), s_z(2))


def spin_entries(nrows, ncols):
    """Zeros, rationals and small spin polynomials, at least one of them a
    spin polynomial, so that the matrix is never an exact-scalar one."""
    term = st.tuples(rationals.filter(bool), st.sampled_from(SPINS)).map(lambda t: t[0] * t[1])
    entry = st.one_of(st.just(ZERO), rationals, st.lists(term, min_size=1, max_size=2).map(sum))
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    return st.lists(row, min_size=nrows, max_size=nrows).filter(
        lambda rows: any(isinstance(value, SpinPoly) and value for r in rows for value in r))


def as_spin_rows(entries):
    return SpinRows(tuple(x if isinstance(x, SpinPoly) else SpinPoly.const(x) for x in row) for row in entries)


def check_spin(m: SpinRows, ref):
    """m agrees with the reference, holds spin polynomials only, and
    witnesses its first nonzero entry as the reference does, row by row."""
    assert type(m) is SpinRows and all(type(value) is SpinPoly for row in m for value in row)
    assert m == tuple(tuple(row) for row in ref)
    assert m.first_nonzero() == ref_first_nonzero(ref)
    assert m.is_zero() == (ref_first_nonzero(ref) is None)


def test_spin_polynomial_matrix_by_scalar_matrix():
    # rows of SpinPoly entries multiply, by one another and by exact scalars as constant polynomials,
    # as the reference does; a Matrix refuses them.  Hypothesis seeds the derandomized examples from
    # the source of run, decorator line included, so that line keeps its name while the name now
    # carries no shrink phase.
    PROFILE = NO_SHRINK_PROFILE  # noqa: N806

    @PROFILE
    @given(spin_entries(2, 2), spin_entries(2, 2), spin_entries(3, 3), scalars(3))
    def run(a, b, c, s):
        A, B, C = as_spin_rows(a), as_spin_rows(b), as_spin_rows(c)
        exact = [[zeta(3), Fraction(1, 2)], [ZERO, s]]
        E = as_spin_rows(exact)
        check_spin(A, a)
        check_spin(A * B, ref_mul(a, b))
        check_spin(B * A, ref_mul(b, a))
        check_spin(A * E, ref_mul(a, exact))
        check_spin(E * A, ref_mul(exact, a))
        check_spin(C * C * C, ref_mul(ref_mul(c, c), c))
        check_spin(SpinRows.identity(3) * C, c)
        assert A.trace() == ref_sum((a[0][0], a[1][1])) and C.trace() == ref_sum(c[i][i] for i in range(3))
        # products that cancel everywhere
        zero = [[ZERO] * 2 for _ in range(2)]
        check_spin(A * as_spin_rows(zero), zero)
        with pytest.raises(TypeError, match="^Matrix needs exact scalar entries of one field$"):
            Matrix(a)

    run()


