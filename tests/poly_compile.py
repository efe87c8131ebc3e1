"""The reference compile of k: every product a ``Poly`` product with exact
scalar coefficients, Q(zeta_N) ones as ``Cyclotomic``s.

For k^(j)(nu) = k(nu) k(tau(nu)) ... k(tau^(j-1)(nu)) = P_j(nu) / q_j(nu),
:func:`compile_k` returns the terms (P_j, the roots of q_j, adj P_j,
det P_j) for j = 1, ..., N - 1 and k^(N) as a ``KMatrix``, and
:func:`conjugated` the numerators (1 x P_j) M (1 x adj P_j) of the table
that :func:`reference_table` builds.
Each factor k(tau^j(nu)) is k's entries composed with tau^j by
:func:`mobius`.  The integer compile, ``nreflect.ratfun.compile_k``, is
checked against these by :func:`check_against_reference`: its k^(j) =
P_j / s_j must equal P_j / q_j here, its det P_j and table entries those
here times (s_j / q_j)^n, as polynomials, and its k^(N) the KMatrix here.
"""

import itertools

from fractions import Fraction

from nreflect.linalg import LegTable, Matrix
from nreflect.ratfun import Poly, RatFun, _poly, _times, _times_roots
from nreflect.reflection import KMatrix, KSolution
from nreflect.scalars import ONE, euler_phi


def mobius(f: RatFun, a, b, c, d) -> RatFun:
    """f((a x + b) / (c x + d)) for ad - bc != 0, as a rational function
    of x: with T = a x + b, B = c x + d, a numerator of degree D and M
    roots u_k counted with multiplicity, it is sum_i f_i T^i B^(D - i),
    by a homogeneous Horner pass from f_D T + f_(D-1) B, times
    B^(M - D) over prod_k (T - u_k B)."""
    top, bottom, coeffs = Poly.linear(a, b), Poly.linear(c, d), f.num.coeffs
    num, power = f.num, bottom
    if len(coeffs) > 1:
        num = _times(top, coeffs[-1]) + _times(bottom, coeffs[-2])
    for coeff in reversed(coeffs[:-2]):
        power = power * bottom
        num = num * top + _times(power, coeff)
    factors = [(a - root * c, b - root * d) for root, mult in f.roots for _ in range(mult)]
    for _ in range(len(factors) - f.num.degree):
        num = num * bottom
    return RatFun.over_linears(num, factors + [(c, d)] * (f.num.degree - len(factors)))


def adjugate(rows) -> tuple:
    """(adj m, det m) of the square matrix m of polynomial rows, by
    cofactors, det m as a RatFun."""
    def det(rows):  # Laplace expansion along the first row
        if len(rows) < 2:
            return rows[0][0] if rows else Poly.const(ONE)
        terms = [(j, entry * det([r[:j] + r[j + 1:] for r in rows[1:]])) for j, entry in enumerate(rows[0]) if entry]
        return sum((-term if j % 2 else term for j, term in terms), Poly())

    n = len(rows)
    adj = [[det([r[:i] + r[i + 1:] for k, r in enumerate(rows) if k != j]) for j in range(n)] for i in range(n)]
    adj = [[-d if (i + j) % 2 else d for j, d in enumerate(row)] for i, row in enumerate(adj)]
    return adj, RatFun(sum((rows[0][j] * adj[j][0] for j in range(n)), Poly()))


def conjugated(left: list, m: Matrix, right: list) -> list:
    """(1 x left) m (1 x right) for n x n rows of polynomials, as sparse rows
    of coefficient tuples: entry (a x, c y) of m, times left[b][x] and
    right[y][d], goes to (a b, c d)."""
    n, out = len(left), [{} for _ in range(m.nrows)]
    for r, row in enumerate(m.rows):
        a, x = divmod(r, n)
        for col, value in enumerate(row):
            c, y = divmod(col, n)
            for b, d in itertools.product(range(n), repeat=2) if value else ():
                entry = out[a * n + b]
                entry[c * n + d] = entry.get(c * n + d, Poly()) + left[b][x] * right[y][d] * value
    return [{c: p.coeffs for c, p in row.items() if p} for row in out]


def over_one_denominator(fs) -> tuple:
    """([p_1, ...], roots) with each f_i = p_i / prod (x - root)^mult over
    the lcm of the f_i's denominators, given by its (root, mult) pairs."""
    union = {}
    for f in fs:
        for root, mult in f.roots:
            union[root] = max(union.get(root, 0), mult)
    return ([_times_roots(f.num, [(r, m - f.multiplicity(r)) for r, m in union.items()]) for f in fs],
            list(union.items()))


def factor(case: KSolution, j: int) -> tuple:
    """(A, roots): k(tau^j(nu)) = A(nu) / prod (nu - root)^mult."""
    t, n = case.tau.iterate(j), case.n
    nums, roots = over_one_denominator([mobius(f, t.a, t.b, t.c, t.d) if j and f else f for row in case.k for f in row])
    return [nums[i * n:(i + 1) * n] for i in range(n)], roots


def compile_k(case: KSolution) -> tuple:
    """(terms, k^(N)): for j = 1, ..., N - 1 the term (P_j, the roots of
    q_j, adj P_j, det P_j), and k^(N) as a KMatrix."""
    rows, roots, terms = None, [], []
    for j in range(case.N):
        A, extra = factor(case, j)
        rows = A if rows is None else [[sum((a * b for a, b in zip(row, col)), Poly()) for col in zip(*A)]
                                       for row in rows]
        roots = roots + extra
        if j < case.N - 1:
            terms.append((rows, roots, *adjugate(rows)))
    return tuple(terms), KMatrix(tuple(RatFun(p, roots) for p in row) for row in rows)


def reference_table(case: KSolution, terms: tuple) -> LegTable:
    """The table of the reference compile's terms: the base r's matrices M_i,
    then (1 x P_j) M_i (1 x adj P_j) for j = 1, ..., N - 1."""
    basis = case.base_r.basis
    out = [[{c: (x,) for c, x in enumerate(row) if x} for row in m.rows] for m in basis]
    for rows, _, adj, _ in terms:
        out += [conjugated(rows, m, adj) for m in basis]
    return LegTable(out, [j * len(basis) for j in range(case.N)])


def power(p, n):
    out = Poly([ONE])
    for _ in range(n):
        out = out * p
    return out


def scale_poly(case, j):
    """s_j of the integer compile as a Poly: D^j times its linear factors."""
    (_, (den, factors), _, _), ring = case.compiled[0][j - 1], case.compiled[2]
    out = Poly([Fraction(den)])
    for x in ring.read(factors):
        out = out * _poly(ring.order, x)
    return out


def table_polys(table):
    """{(term, row, column): Poly} of a LegTable's nonzero entries."""
    out, phi = {}, euler_phi(table.order)
    entries = [(r, c) for r, cols in enumerate(table.cols) for c in cols]
    for (r, c), (a, b) in zip(entries, table.bounds):
        coords = {}
        for t_u, coeffs in zip(table.index[a:b], table.nums[a:b]):
            t, u = divmod(t_u, phi)
            coords.setdefault(t, [(0,) * len(coeffs)] * phi)[u] = coeffs[::-1]
        for t, vectors in coords.items():
            out[t, r, c] = _poly(table.order, vectors, table.den)
    return out


def check_against_reference(case):
    """k^(N), each P_j, det P_j and every table entry of the integer compile
    against the Poly reference; see the module docstring."""
    terms, kn, ring = case.compiled
    reference, reference_kn = compile_k(case)
    assert kn == reference_kn, case.label
    n, basis = case.n, len(case.base_r.basis)
    table, expected = table_polys(case.table), table_polys(reference_table(case, reference))
    assert set(table) == set(expected), case.label
    for key in table:
        if key[0] < basis:
            assert table[key] == expected[key], (case.label, key)
    for j, ((rows, _, _, det), (ref_rows, roots, _, ref_det)) in enumerate(zip(terms, reference), 1):
        s, q = scale_poly(case, j), RatFun(Poly([ONE]), roots).denominator_poly()
        rows = ring.read(rows)
        for i, row in enumerate(ref_rows):
            for l, p in enumerate(row):
                assert _poly(ring.order, rows[i * n + l]) * q == p * s, (case.label, j, i, l)
        sn, qn = power(s, n), power(q, n)
        assert not det.roots and not ref_det.roots and det.num * qn == ref_det.num * sn, (case.label, j)
        for key in table:
            if j * basis <= key[0] < (j + 1) * basis:
                assert table[key] * qn == expected[key] * sn, (case.label, j, key)
