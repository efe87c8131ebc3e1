"""Generalized (N-fold) reflection structures over a base r-matrix.

A case bundles a Mobius action tau on the spectral parameter, weight
functions g^(j) with g^(0) = 1, and a matrix function k(nu).  The defining
residual, for the base r-matrix r, is

    sum_j g^(j)(nu) k_b^(j)(nu) r_ab(lam, tau^j(nu)) k_b^(j)(nu)^-1 k_a(lam)
  - k_a(lam) sum_j g^(j)(nu) k_b^(j)(nu) r_ab(tau(lam), tau^j(nu)) k_b^(j)(nu)^-1

with the iterated products k^(j)(nu) = k^(j-1)(nu) k(tau^(j-1)(nu)) and
k^(0) = 1.  Cases with vanishing residual induce a (generally non
skew-symmetric) solution rbar of the classical Yang-Baxter equation
(:func:`build_rbar`); :func:`nre_residual` computes the residual in the
compact form rbar_ab(lam, nu) k_a(lam) - k_a(lam) rbar_ab(tau(lam), nu).
k is data, a :class:`KMatrix` of :class:`~nreflect.ratfun.RatFun` entries,
compiled once per case on integers (:func:`~nreflect.ratfun.compile_k`):
k^(j) = P_j / s_j with P_j, adj P_j and det P_j integer polynomials in nu
over Q(zeta_N), and, for the matrices M_i of the base r = sum_i f_i M_i,
(1 x k^(j)) M_i (1 x k^(j))^-1 = (1 x P_j) M_i (1 x adj P_j) / det P_j, the
numerators in one :class:`~nreflect.linalg.LegTable`.  One
:func:`point_frame` holds what rbar needs at nu, and raises ``PoleError``
or ``SingularMatrixError`` outside the case's domain: the orbit and the
weights g^(j)(nu) and g^(j)(nu) / det P_j(nu), with no elimination and no
product of k.  At a rational nu the orbit, the weights, k(nu), det P_j(nu)
and the base-r scalars are evaluated on integers, over Q and Q(zeta_N)
alike, one normalization per value (per matrix for k), and :func:`rbar_at`
takes one dot per entry over one lcm.
"""

from __future__ import annotations

import inspect
import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable, Optional

from .errors import ConstraintError, PoleError, UnsupportedCaseError
from .linalg import LegTable, LegValues, Matrix, _matrix, permutation_operator, product_sum, tensor_pair
from .ratfun import Poly, RatFun, compile_k
from .reporting import build_report
from .rmatrix import RMatrixFun, cybe_residual, rational_r, trig_r
from .scalars import (ONE, ZERO, Cyclotomic, Scalar, _canonical, _mul_reduce, _one_field, _over, as_scalar, euler_phi,
                      zeta)


# ---------------------------------------------------------------------------
# Mobius maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MobiusMap:
    """nu -> (a nu + b) / (c nu + d) with ad - bc != 0.  A map with rational
    c, d also keeps its coefficients as integer numerators (A, B, C, D) over
    one denominator, A and B as phi(N) ints each over Q(zeta_N)."""

    a: Scalar
    b: Scalar
    c: Scalar
    d: Scalar
    _integers: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in "abcd":
            object.__setattr__(self, name, as_scalar(getattr(self, name)))
        if not (self.a * self.d - self.b * self.c):
            raise ConstraintError("degenerate Mobius map: ad - bc = 0")
        if type(self.c) is Fraction and type(self.d) is Fraction:
            order, (a, b, (c, *_), (d, *_)), _ = _over((self.a, self.b, self.c, self.d))
            object.__setattr__(self, "_integers", (a[0], b[0], c, d, 1) if order == 1 else (a, b, c, d, order))

    @staticmethod
    def identity():
        return MobiusMap(ONE, ZERO, ZERO, ONE)

    def __call__(self, nu):
        """The image of nu; PoleError where c nu + d = 0.  With rational c, d at
        a rational point, :func:`_image` of the integer form; else field arithmetic."""
        nu = as_scalar(nu)
        if self._integers is not None and type(nu) is Fraction:
            return _image(self._integers, nu, nu)
        den = self.c * nu + self.d
        if not den:
            raise PoleError(f"Mobius map has a pole at nu = {nu}")
        return (self.a * nu + self.b) / den

    def compose(self, other: "MobiusMap") -> "MobiusMap":
        """self after other: (self.compose(other))(x) = self(other(x))."""
        return MobiusMap(self.a * other.a + self.b * other.c,
                         self.a * other.b + self.b * other.d,
                         self.c * other.a + self.d * other.c,
                         self.c * other.b + self.d * other.d)

    def iterate(self, j: int) -> "MobiusMap":
        if j < 0:
            raise ValueError("iterate needs j >= 0")
        out = MobiusMap.identity()
        for _ in range(j):
            out = self.compose(out)
        return out


def _image(form: tuple, nu: Fraction, at):
    """(A p + B q) / (C p + D q) at nu = p/q, normalized once, for a map's integer form (A, B, C, D, N); PoleError
    where C p + D q = 0 names the point ``at``."""
    (a, b, c, d, order), p, q = form, nu.numerator, nu.denominator
    if not (den := c * p + d * q):
        raise PoleError(f"Mobius map has a pole at nu = {at}")
    if order == 1:
        return Fraction(a * p + b * q, den)
    return _canonical(order, [(x * p + y * q) * (1 if den > 0 else -1) for x, y in zip(a, b)], abs(den))


# ---------------------------------------------------------------------------
# weight families and k-matrix cases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightFamily:
    """g^(0), ..., g^(N-1) as exact rational functions of nu; g^(0) = 1."""

    gs: tuple

    def __post_init__(self):
        if not self.gs or self.gs[0] != RatFun.const(ONE):
            raise ConstraintError("weight family must start with g^(0) = 1")

    def __call__(self, j: int, nu) -> Scalar:
        return self.gs[j].eval_at(as_scalar(nu))


class KMatrix(tuple):
    """k as data: rows of :class:`~nreflect.ratfun.RatFun` entries, each raising PoleError at its poles where k is
    called at a point.  k(nu) puts the integer numerators of its nonzero entries over one lcm, normalized once."""

    def __call__(self, nu) -> Matrix:
        nu, values, orders, dens = as_scalar(nu), [], [], []
        for i, row in enumerate(self):
            for j, f in enumerate(row):
                if f and any((value := f._numerators(nu))[1]):
                    values.append((i, j, value))
                    orders.append(value[0])
                    dens.append(value[2])
        order, den = _one_field(*orders), math.lcm(*dens)
        rows, pad = [{} for _ in self], [0] * (euler_phi(order) - 1)
        for i, j, (entry_order, nums, entry_den) in values:
            scale = den // entry_den
            rows[i][j] = tuple([c * scale for c in nums] + pad if entry_order == 1 else [c * scale for c in nums])
        return _matrix(order, den, rows, len(rows), len(rows))

    @staticmethod
    def identity(n: int) -> "KMatrix":
        one, zero = RatFun.const(ONE), RatFun.const(ZERO)
        return KMatrix(tuple(one if i == j else zero for j in range(n)) for i in range(n))


@dataclass(frozen=True)
class KSolution:
    """A candidate solution of the N-fold reflection residual."""

    label: str
    family: str
    n: int
    N: int
    base_r: RMatrixFun
    tau: MobiusMap
    weights: WeightFamily
    k: KMatrix
    params: dict = field(default_factory=dict)
    expected_f: Optional[Callable] = None

    def orbit(self, nu, count: Optional[int] = None):
        """[nu, tau(nu), ..., tau^(count-1)(nu)]; PoleError on a tau pole names the point tau meets it at.  Up to
        N points from a Fraction are :func:`_image` of the :attr:`iterates`, where tau has them."""
        count, points = self.N if count is None else count, [as_scalar(nu)]
        forms = self.iterates if count <= self.N and type(points[0]) is Fraction else None
        for j in range(count - 1):
            points.append(self.tau(points[-1]) if forms is None else _image(forms[j], points[0], points[-1]))
        return points

    @cached_property
    def iterates(self) -> Optional[list]:
        """The integer forms of tau^j = (a^j nu + b_j) / d^j, 0 < j < N, composed on integers where tau has
        Q(zeta_N) coefficients, c = 0 and a rational d."""
        (a, b, c, d, order), forms = self.tau._integers or (0,) * 5, [self.tau._integers]
        if order < 2 or c:
            return None
        for A, B, _, D, _ in itertools.islice(forms, self.N - 2):
            B = [x + y * D for x, y in zip(_mul_reduce(order, a, B), b)]
            forms.append((_mul_reduce(order, a, A), B, 0, d * D, order))
        return forms

    @cached_property
    def identity_k(self) -> bool:
        return all(not f.roots and f.num.coeffs == ((ONE,) if i == j else ()) for i, row in enumerate(self.k)
                   for j, f in enumerate(row))

    @cached_property
    def poles(self) -> frozenset:
        """The points where an entry of k has a pole."""
        return frozenset(root for row in self.k for f in row for root, _ in f.roots)

    @cached_property
    def compiled(self) -> tuple:
        """:func:`~nreflect.ratfun.compile_k` of this case, k^(N) a :class:`KMatrix`, built on the first frame."""
        terms, kn, ring = compile_k(self)
        return terms, KMatrix(kn), ring

    @cached_property
    def table(self) -> LegTable:
        """The :class:`~nreflect.linalg.LegTable` of the compile's integer numerators (1 x P_j) M_i (1 x adj P_j),
        j < N, of the base r's matrices M_i, term j B + i for B matrices, built on the first rbar."""
        basis, (terms, _, ring), den = self.base_r.basis, self.compiled, math.lcm(*(m._den for m in self.base_r.basis))
        ms = [[{c: [x * (den // m._den) for x in vec] for c, vec in row.items()} for row in m._sparse] for m in basis]
        table = [[{c: tuple((x,) for x in vec) for c, vec in row.items()} for row in m] for m in ms] + [
            term for rows, _, adj, _ in terms for term in ring.conjugated(rows, ms, adj, self.n)]
        return LegTable(table, [j * len(basis) for j in range(self.N)], ring.order, den)

    @cached_property
    def reparametrization(self) -> "EquivalenceTransform":
        """:func:`equivalence_transform` of this case, built on the first read."""
        return equivalence_transform(self)


@dataclass(frozen=True)
class PointFrame:
    """What the induced matrix needs at one point nu, for j < N: the orbit
    tau^j(nu), the weights g^(j)(nu), and g^(j)(nu) / det P_j(nu).  ``table``
    holds (1 x P_j) M_i (1 x adj P_j) at nu, the case's compiled table read
    once per frame, or, for identity k, the base r-matrix's own table."""

    orbit: tuple
    weights: tuple
    scaled: tuple
    case: KSolution

    @cached_property
    def table(self) -> LegValues:
        if self.case.identity_k:
            return self.case.base_r.basis.table
        return self.case.table.at(self.orbit[0])


def point_frame(case: KSolution, nu) -> PointFrame:
    """The frame at nu; raises PoleError at a pole of tau^j, g^(j) or k and,
    where det P_j(nu) = 0, the SingularMatrixError of inverting k^(j)(nu)."""
    orbit = tuple(case.orbit(nu))
    weights = tuple(case.weights(j, nu) for j in range(case.N))
    if case.identity_k:
        return PointFrame(orbit, weights, weights, case)
    [case.k(point) for point in orbit[:-1] if point in case.poles]  # k's own PoleError
    scaled = [weights[0]]  # then each g / det P_j(nu), normalized once
    for j, (*_, det), g in zip(itertools.count(1), case.compiled[0], weights[1:]):
        if not (value := det.eval_at(orbit[0])):
            math.prod(map(case.k, orbit[:j]), start=Matrix.identity(case.n)).inverse(label=f"k^({j})(nu)")
        scaled.append(g / value if type(g) is not Cyclotomic or type(value) is not Fraction else _canonical(
            g.order, [x * value.denominator * (1 if value > 0 else -1) for x in g.num], g.den * abs(value.numerator)))
    return PointFrame(orbit, weights, tuple(scaled), case)


def n_unitarity_entry(case: KSolution, nu, frame: Optional[PointFrame] = None) -> dict:
    """The report entry of the check k^(N)(nu) = f(nu) 1 at nu; never raises
    on failure.  k^(N)(nu) is the compiled product, read at the orbit of
    the frame at nu or, without one (the frame is undefined where some
    k^(j)(nu) is singular), at the orbit built here; a pole of k on the
    orbit raises k's own PoleError first."""
    entry = {"sample": [str(nu)]}
    try:
        orbit = case.orbit(nu) if frame is None else frame.orbit
        [case.k(point) for point in orbit if point in case.poles]
        kn = Matrix.identity(case.n) if case.identity_k else case.compiled[1](orbit[0])
    except PoleError as exc:
        entry.update(status="fail", reason=str(exc))
        return entry
    f = kn[0, 0]
    if kn == Matrix.identity(case.n).scale(f):
        entry.update(status="pass", f=str(f))
        if case.expected_f is not None and f != case.expected_f(nu):
            entry.update(status="fail", expected_f=str(case.expected_f(nu)))
    else:
        entry.update(status="fail", reason="k^(N) is not a scalar multiple of the identity")
    return entry


def n_unitarity(case: KSolution, points) -> dict:
    """Check k^(N)(nu) = f(nu) 1 at each point; never raises on failure."""
    return build_report("nunitarity", case.label, 0, [n_unitarity_entry(case, nu) for nu in points])


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------

def rbar_at(case: KSolution, lam, frame: PointFrame) -> Matrix:
    """sum_j g^(j)(nu) k_b^(j)(nu) r_ab(lam, tau^j(nu)) k_b^(j)(nu)^-1 from the
    frame at nu, as sum_j g^(j)(nu) sum_i f_i(lam, tau^j(nu)) times the
    conjugated M_i: one combination of the frame's table."""
    lam, coefficients = as_scalar(lam), case.base_r.coefficients
    return frame.table.combination([(g, coefficients(lam, point)) for g, point in zip(frame.scaled, frame.orbit)])


def rbar_matrix(case: KSolution, lam, nu) -> Matrix:
    """The induced matrix rbar_ab(lam, nu) = sum_j g^(j) k_b^(j) r_ab(lam, tau^j(nu)) k_b^(j)^-1."""
    return rbar_at(case, as_scalar(lam), point_frame(case, nu))


def nre_residual(case: KSolution, lam, nu) -> Matrix:
    """LHS - RHS of the N-fold reflection residual at exact points, in the
    compact form rbar_ab(lam, nu) k_a(lam) - k_a(lam) rbar_ab(tau(lam), nu):
    both terms share the frame at nu, the two products are one
    :func:`~nreflect.linalg.product_sum`, and an identity k_a multiplies
    nothing."""
    lam = as_scalar(lam)
    frame = point_frame(case, nu)
    k = None if case.identity_k else case.k(lam)
    lhs = rbar_at(case, lam, frame)
    rhs = rbar_at(case, case.tau(lam), frame)
    if k is None:
        return lhs - rhs
    k_a = tensor_pair(k, Matrix.identity(case.n))
    return product_sum(((1, lhs, k_a), (-1, k_a, rhs)))


def symmetry_relation_residual(case: KSolution, omega, lam, nu) -> Matrix:
    """r_ab(l, n) - omega k_a k_b r_ab(tau l, tau n) k_b^-1 k_a^-1 (needs
    omega^N = 1); for identity k, k is neither evaluated nor inverted nor
    applied.  k(l) and k(n) are inverted by elimination: reading them from
    the adjugate and determinant of k's numerator measured slower."""
    r = case.base_r
    omega = as_scalar(omega)
    if omega**case.N != 1:
        raise ConstraintError(f"omega^{case.N} != 1 for omega = {omega}")
    lam, nu = as_scalar(lam), as_scalar(nu)
    ka, kb = (None, None) if case.identity_k else (case.k(lam), case.k(nu))
    inner = r(case.tau(lam), case.tau(nu))
    if ka is not None:
        k_ab_inv = tensor_pair(ka.inverse(label="k(lam)"), kb.inverse(label="k(nu)"))
        inner = tensor_pair(ka, kb) * inner * k_ab_inv
    return r(lam, nu) - inner.scale(omega)


def build_rbar(case: KSolution) -> RMatrixFun:
    """Evaluator for the induced matrix rbar.  It solves the classical
    Yang-Baxter equation only for cases whose reflection residual vanishes;
    ``verify nre`` and ``verify rbar-cybe`` check both."""
    return RMatrixFun(kind="constructed", label=f"rbar[{case.label}]",
                      evaluate=lambda lam, mu: rbar_matrix(case, lam, mu))


def tamper(case: KSolution, mode: str) -> KSolution:
    """Deliberately broken variants, for negative tests and CLI demos."""
    if mode == "g1-sign":
        if case.N < 2:
            raise ValueError("g1-sign tamper needs N >= 2")
        gs = list(case.weights.gs)
        gs[1] = -gs[1]
        return replace(case, label=f"{case.label}[tampered:g1-sign]",
                       weights=WeightFamily(tuple(gs)), expected_f=None)
    raise ConstraintError(f"unknown tamper mode {mode!r}")


# ---------------------------------------------------------------------------
# equivalence transforms (identity-k rational families, c != 0)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquivalenceTransform:
    """Reparametrization p and prefactor relating rbar to the rational r:
    rbar(lam, mu) = prefactor(mu) * r(p(lam) - p(mu)), with

        p(mu) = -(1/(N c)) sum_{j<N} tau^j(mu),

    c the lower-left coefficient of tau.  The prefactor equals p'(mu):
    matching the simple pole at lam = mu forces that normalization.  Both
    evaluate a rational function and raise PoleError at its poles."""

    p: Callable[[Scalar], Scalar]
    prefactor: Callable[[Scalar], Scalar]


def equivalence_transform(case: KSolution) -> EquivalenceTransform:
    """p and p' as rational functions, for the identity-k rational families
    with c != 0; UnsupportedCaseError for any other case."""
    if case.family not in ("id-2refl", "id-3refl"):
        raise UnsupportedCaseError(f"no equivalence transform for family {case.family!r}")
    c = case.params["c"]
    if not c:
        raise UnsupportedCaseError("reparametrization needs c != 0")
    orbit = (case.tau.iterate(j) for j in range(case.N))
    p = sum(map(_mobius, orbit), RatFun.const(ZERO))
    p = p.scale(-1 / (case.N * c))
    return EquivalenceTransform(p.eval_at, p.derivative().eval_at)


def equivalence_residual(case: KSolution, lam, mu) -> Matrix:
    """rbar(lam, mu) - prefactor(mu) r(p(lam) - p(mu)), exactly, with the
    case's transform built on the first call."""
    transform = case.reparametrization
    lam, mu = as_scalar(lam), as_scalar(mu)
    lhs = rbar_matrix(case, lam, mu)
    point = lam
    try:
        p_lam = transform.p(point)
        point = mu
        diff, prefactor = p_lam - transform.p(point), transform.prefactor(point)
    except PoleError:
        raise PoleError(f"reparametrization has a pole at mu = {point}") from None
    if not diff:
        raise PoleError(f"p(lam) = p(mu) at ({lam}, {mu})")
    return lhs - permutation_operator(case.n).scale(prefactor / diff)


def sampled_check(case: KSolution, subject: str, omega=None) -> tuple:
    """(arity, evaluate) of the ``verify`` subject checked on ``case``: the
    sampler draws points of ``arity`` rationals and redraws where
    ``evaluate`` raises a pole error.  ``compact`` names the form
    :func:`nre_residual` computes; ``nunitarity`` is sampled where the frame
    of rbar evaluates, so that k^(N) is checked on the domain of the induced
    matrix; ``symmetry`` uses ``omega``, zeta_N by default; ``rbar-cybe``
    shares one frame at mu and one at nu among its four rbar matrices.
    Nothing about the case is evaluated before the first call of ``evaluate``."""
    if subject in ("nre", "compact"):
        return 2, lambda lam, nu: nre_residual(case, lam, nu)
    if subject == "nunitarity":
        return 1, lambda nu: point_frame(case, nu)
    if subject == "symmetry":
        omega = zeta(case.N) if omega is None else omega
        return 2, lambda lam, nu: symmetry_relation_residual(case, omega, lam, nu)
    if subject == "equivalence":
        return 2, lambda lam, mu: equivalence_residual(case, lam, mu)
    if subject == "rbar-cybe":
        def rbar_cybe(lam, mu, nu):
            frames = {mu: point_frame(case, mu), nu: point_frame(case, nu)}
            return cybe_residual(lambda a, b: rbar_at(case, a, frames[b]), lam, mu, nu)
        return 3, rbar_cybe
    raise ValueError(f"unknown verify subject {subject!r}")


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def linear_k_case(N: int, theta, G: Matrix, g_label: str = "G") -> KSolution:
    """k(nu) = theta 1 + nu G with G^N = 1, tau scaling by the primitive
    N-th root of unity, constant weights omega^j.  Satisfies the N-fold
    unitarity product with f(nu) = theta^N + (-1)^(N-1) nu^N."""
    theta = as_scalar(theta)
    n = G.nrows
    if G**N != Matrix.identity(n):
        raise ConstraintError(f"G^{N} != identity for the supplied G")
    omega = zeta(N)
    tau = MobiusMap(omega, ZERO, ZERO, ONE)
    weights = WeightFamily(tuple(RatFun.const(omega**j) for j in range(N)))
    k = KMatrix(tuple(RatFun(Poly([theta if i == j else ZERO, G[i, j]])) for j in range(n)) for i in range(n))

    sign = ONE if N % 2 else -ONE
    expected_f = RatFun(Poly([theta**N] + [ZERO] * (N - 1) + [sign])).eval_at
    label = f"linear-k-N{N}-{g_label}-th{theta}"
    return KSolution(label=label, family="linear-k", n=n, N=N, base_r=rational_r(n),
                     tau=tau, weights=weights, k=k,
                     params={"theta": theta}, expected_f=expected_f)


def diag_roots_G(N: int) -> Matrix:
    """diag(1, omega, ..., omega^(N-1)) with omega = zeta_N; size N."""
    return Matrix.diagonal([zeta(N, j) for j in range(N)])


def cyclic_shift_G(N: int) -> Matrix:
    """The N x N cyclic shift; G^N = 1 over the rationals."""
    rows = [[ONE if j == (i + 1) % N else ZERO for j in range(N)] for i in range(N)]
    return Matrix(rows)


def _mobius(t: MobiusMap) -> RatFun:
    return RatFun.over_linears(Poly.linear(t.a, t.b), [(t.c, t.d)])


def _diagonal(*entries) -> KMatrix:
    return KMatrix(tuple(f if i == j else RatFun.const(ZERO) for j, f in enumerate(entries))
                   for i in range(len(entries)))


def identity_k_two_reflection(a=1, b=2, c=3, n: int = 2) -> KSolution:
    """k = 1 with tau(nu) = (a nu + b)/(c nu - a) and
    g^(1)(nu) = -(a^2 + bc)/(a - c nu)^2; tau is an involution."""
    a, b, c = as_scalar(a), as_scalar(b), as_scalar(c)
    if not (a * a + b * c):
        raise ConstraintError("degenerate parameters: a^2 + bc = 0")
    tau = MobiusMap(a, b, c, -a)
    g1 = RatFun.over_linears(Poly.const(-(a * a + b * c)), [(-c, a), (-c, a)])
    weights = WeightFamily((RatFun.const(ONE), g1))
    return KSolution(label="id-2refl", family="id-2refl", n=n, N=2,
                     base_r=rational_r(n), tau=tau, weights=weights,
                     k=KMatrix.identity(n), params={"a": a, "b": b, "c": c},
                     expected_f=lambda nu: ONE)


def identity_k_three_reflection(a=1, b=3, c=-1, d=1, n: int = 2) -> KSolution:
    """k = 1 with tau(nu) = (a nu + b)/(c nu + d) constrained by
    a^2 + ad + bc + d^2 = 0 (which makes tau of order three) and weights
    g^(1) = (ad - bc)/(d + c nu)^2, g^(2) = (ad - bc)/(a - c nu)^2."""
    a, b, c, d = (as_scalar(x) for x in (a, b, c, d))
    constraint = a * a + a * d + b * c + d * d
    if constraint:
        raise ConstraintError(f"a^2 + ad + bc + d^2 = {constraint} != 0")
    tau = MobiusMap(a, b, c, d)
    det = a * d - b * c
    g1 = RatFun.over_linears(Poly.const(det), [(c, d), (c, d)])
    g2 = RatFun.over_linears(Poly.const(det), [(-c, a), (-c, a)])
    weights = WeightFamily((RatFun.const(ONE), g1, g2))
    return KSolution(label="id-3refl", family="id-3refl", n=n, N=3,
                     base_r=rational_r(n), tau=tau, weights=weights,
                     k=KMatrix.identity(n), params={"a": a, "b": b, "c": c, "d": d},
                     expected_f=lambda nu: ONE)


def trig_two_reflection(a=1, b=2, c=3, which: str = "identity") -> KSolution:
    """Trigonometric base r with tau(nu) = (a nu + b)/(c nu - a) and
    g^(1)(nu) = -(a^2 + bc) nu / ((c nu - a)(a nu + b)).

    The weight numerator a^2 + bc (= -det tau) is forced by the a = 0, b = c
    specialization, where tau(nu) = 1/nu must reproduce g^(1) = -1.
    """
    a, b, c = as_scalar(a), as_scalar(b), as_scalar(c)
    if not (a * a + b * c):
        raise ConstraintError("degenerate parameters: a^2 + bc = 0")
    tau = MobiusMap(a, b, c, -a)
    g1 = RatFun.over_linears(Poly.linear(-(a * a + b * c), ZERO), [(c, -a), (a, b)])
    weights = WeightFamily((RatFun.const(ONE), g1))

    if which == "identity":
        k = KMatrix.identity(2)
    elif which == "tau":
        k = _diagonal(_mobius(tau), RatFun(Poly.linear(ONE, ZERO)))
    else:
        raise ValueError(f"unknown trig 2-reflection solution {which!r}")
    return KSolution(label=f"trig-2refl-{'id' if which == 'identity' else 'tau'}",
                     family="trig-2refl", n=2, N=2, base_r=trig_r(), tau=tau,
                     weights=weights, k=k, params={"a": a, "b": b, "c": c})


TRIG3_KINDS = ("id", "tau-nu", "tau2-nu", "tau-tau2", "poly-1", "poly-2")


def trig_three_reflection(a=1, b=3, c=-1, d=1, which: str = "id") -> KSolution:
    """Trigonometric base r, tau of order three (a^2 + ad + bc + d^2 = 0),
    weights g^(1) = (a+d)^2 nu/((a nu + b)(c nu + d)) and
    g^(2) = (a+d)^2 nu/((d nu - b)(a - c nu)).

    Six diagonal candidates are cataloged; the residual checks report which
    of them actually solve the reflection identity.
    """
    a, b, c, d = (as_scalar(x) for x in (a, b, c, d))
    constraint = a * a + a * d + b * c + d * d
    if constraint:
        raise ConstraintError(f"a^2 + ad + bc + d^2 = {constraint} != 0")
    tau = MobiusMap(a, b, c, d)
    s2 = (a + d) ** 2
    g1 = RatFun.over_linears(Poly.linear(s2, ZERO), [(a, b), (c, d)])
    g2 = RatFun.over_linears(Poly.linear(s2, ZERO), [(d, -b), (-c, a)])
    weights = WeightFamily((RatFun.const(ONE), g1, g2))

    nu, tau1, tau2 = RatFun(Poly.linear(ONE, ZERO)), _mobius(tau), _mobius(tau.iterate(2))
    quadratic = RatFun(Poly.linear(c, -a) * Poly.linear(d, -b))
    builders = {
        "id": KMatrix.identity(2),
        "tau-nu": _diagonal(tau1, nu),
        "tau2-nu": _diagonal(tau2, nu),
        "tau-tau2": _diagonal(tau1, tau2),
        "poly-1": _diagonal(RatFun(Poly.linear(a, b).scale(a + d)), quadratic),
        "poly-2": _diagonal(quadratic, RatFun(Poly.linear(c, d).scale(a + d))),
    }
    if which not in builders:
        raise ValueError(f"unknown trig 3-reflection candidate {which!r}")
    return KSolution(label=f"trig-3refl-{which}", family="trig-3refl", n=2, N=3,
                     base_r=trig_r(), tau=tau, weights=weights, k=builders[which],
                     params={"a": a, "b": b, "c": c, "d": d})


def trivial_case(n: int = 2) -> KSolution:
    """The empty structure: N = 1, tau = id, g = (1), k = 1; rbar = r."""
    return KSolution(label="trivial", family="trivial", n=n, N=1,
                     base_r=rational_r(n), tau=MobiusMap.identity(),
                     weights=WeightFamily((RatFun.const(ONE),)),
                     k=KMatrix.identity(n), params={},
                     expected_f=lambda nu: ONE)


def _linear_k_builder(N, g_kind, theta_default):
    def build(theta=theta_default):
        G = diag_roots_G(N) if g_kind == "diag" else cyclic_shift_G(N)
        return linear_k_case(N, theta, G, g_label=g_kind)
    return build


# label -> builder; the parameters a case accepts, and their defaults, are
# the builder's keyword parameters that the entry does not fix itself
CATALOG: dict = {}
for _N in (2, 3):
    for _g in ("diag", "shift"):
        for _th in (0, 2):
            CATALOG[f"linear-k-N{_N}-{_g}-th{_th}"] = _linear_k_builder(_N, _g, _th)
CATALOG["id-2refl"] = identity_k_two_reflection
CATALOG["id-3refl"] = identity_k_three_reflection
CATALOG["trig-2refl-id"] = partial(trig_two_reflection, which="identity")
CATALOG["trig-2refl-tau"] = partial(trig_two_reflection, which="tau")
for _kind in TRIG3_KINDS:
    CATALOG[f"trig-3refl-{_kind}"] = partial(trig_three_reflection, which=_kind)
CATALOG["trivial"] = trivial_case


def case_by_label(label: str, params: Optional[dict] = None) -> KSolution:
    """The cataloged case with ``params`` overriding its defaults; an unknown
    label, an unknown parameter name or a factor size n that is not a
    positive integer (or exceeds MAX_FACTOR_SIZE) raises ConstraintError."""
    if label not in CATALOG:
        raise ConstraintError(f"unknown catalog case {label!r}; see catalog list")
    build = CATALOG[label]
    fixed = getattr(build, "keywords", {})
    names = [name for name in inspect.signature(build).parameters if name not in fixed]
    params = dict(params or {})
    for name in params:
        if name not in names:
            raise ConstraintError(f"{label} has no parameter {name!r}; it takes {', '.join(names)}")
    if "n" in params:
        n = params["n"]
        if not isinstance(n, (int, Fraction)) or n != int(n) or n < 1:
            raise ConstraintError(f"factor size n must be a positive integer, got {n}")
        params["n"] = int(n)
    return build(**params)


def catalog() -> list:
    """Default instance of every cataloged case, in label order."""
    return [case_by_label(label) for label in sorted(CATALOG)]
