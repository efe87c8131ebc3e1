"""Generalized (N-fold) reflection structures over a base r-matrix.

A case bundles a Mobius action tau on the spectral parameter, weight
functions g^(j) with g^(0) = 1, and a matrix function k(nu).  The defining
residual, for the base r-matrix r, is

    sum_j g^(j)(nu) k_b^(j)(nu) r_ab(lam, tau^j(nu)) k_b^(j)(nu)^-1 k_a(lam)
  - k_a(lam) sum_j g^(j)(nu) k_b^(j)(nu) r_ab(tau(lam), tau^j(nu)) k_b^(j)(nu)^-1

with the iterated products k^(j)(nu) = k^(j-1)(nu) k(tau^(j-1)(nu)) and
k^(0) = 1.  Cases with vanishing residual induce a (generally non
skew-symmetric) solution rbar of the classical Yang-Baxter equation, built
by :func:`build_rbar`.  In terms of rbar the residual takes the compact form

    rbar_ab(lam, nu) k_a(lam) - k_a(lam) rbar_ab(tau(lam), nu),

which is how :func:`nre_residual` computes it.  Everything rbar needs at nu
comes from one :func:`point_frame`, which raises ``PoleError`` or
``SingularMatrixError`` outside the case's domain.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial
from typing import Callable, Optional

from .errors import ConstraintError, PoleError, SingularMatrixError, UnsupportedCaseError
from .linalg import Matrix, tensor_pair
from .ratfun import Poly, RatFun
from .reporting import build_report, render_sample
from .rmatrix import RMatrixFun, cybe_residual, rational_r, trig_r
from .scalars import ONE, ZERO, Scalar, as_scalar, scalar_to_str, zeta


# ---------------------------------------------------------------------------
# Mobius maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MobiusMap:
    """nu -> (a nu + b) / (c nu + d) with ad - bc != 0."""

    a: Scalar
    b: Scalar
    c: Scalar
    d: Scalar

    def __post_init__(self):
        for name in "abcd":
            object.__setattr__(self, name, as_scalar(getattr(self, name)))
        if not (self.a * self.d - self.b * self.c):
            raise ConstraintError("degenerate Mobius map: ad - bc = 0")

    @staticmethod
    def identity():
        return MobiusMap(ONE, ZERO, ZERO, ONE)

    @staticmethod
    def scaling(factor):
        return MobiusMap(as_scalar(factor), ZERO, ZERO, ONE)

    def __call__(self, nu):
        nu = as_scalar(nu)
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

    def is_identity(self) -> bool:
        """Identity as a projective map."""
        return not self.b and not self.c and self.a == self.d

    def order(self, max_order: int = 8) -> Optional[int]:
        """Smallest m <= max_order with tau^m = id projectively, else None."""
        power = self
        for m in range(1, max_order + 1):
            if power.is_identity():
                return m
            power = self.compose(power)
        return None


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
    k: Callable[[Scalar], Matrix]
    params: dict = field(default_factory=dict)
    expected_f: Optional[Callable] = None

    def orbit(self, nu, count: Optional[int] = None):
        """[nu, tau(nu), ..., tau^(count-1)(nu)]; raises PoleError on a tau pole."""
        count = self.N if count is None else count
        points = [as_scalar(nu)]
        for _ in range(count - 1):
            points.append(self.tau(points[-1]))
        return points


def identity_k(n: int) -> Callable[[Scalar], Matrix]:
    eye = Matrix.identity(n)
    return lambda nu: eye


def _k_products(case: KSolution, points) -> list:
    """[k^(0), k^(1), ...] along the orbit points nu, tau(nu), ... by the
    product recursion k^(j+1)(nu) = k^(j)(nu) k(tau^j(nu)); k^(0) = 1."""
    ks = [Matrix.identity(case.n)]
    for point in points:
        ks.append(ks[-1] * case.k(point))
    return ks


def k_iter(case: KSolution, j: int, nu) -> Matrix:
    """k^(j)(nu); k^(0) is the identity."""
    if not 0 <= j <= case.N:
        raise ValueError(f"iterate index must be in [0, {case.N}], got {j}")
    return _k_products(case, case.orbit(nu, j)[:j])[-1]


@dataclass(frozen=True)
class PointFrame:
    """What the induced matrix needs at one point nu, for j < N: the orbit
    tau^j(nu), the weights g^(j)(nu), and k^(j)(nu) with its inverse."""

    orbit: tuple
    weights: tuple
    k: tuple
    k_inv: tuple


def point_frame(case: KSolution, nu) -> PointFrame:
    """The frame at nu; raises PoleError at a pole of tau^j, g^(j) or k and
    SingularMatrixError where some k^(j)(nu) is singular."""
    nu = as_scalar(nu)
    orbit = tuple(case.orbit(nu))
    weights = tuple(case.weights(j, nu) for j in range(case.N))
    ks = _k_products(case, orbit[:-1])
    inverses = [ks[0]] + [kj.inverse(label=f"k^({j})(nu)") for j, kj in enumerate(ks[1:], start=1)]
    return PointFrame(orbit, weights, tuple(ks), tuple(inverses))


def n_unitarity_entry(case: KSolution, nu) -> dict:
    """The report entry of the check k^(N)(nu) = f(nu) 1 at nu; never raises
    on failure."""
    nu = as_scalar(nu)
    entry = {"sample": render_sample([nu])}
    try:
        kn = k_iter(case, case.N, nu)
    except PoleError as exc:
        entry.update(status="fail", reason=str(exc))
        return entry
    f = kn[0, 0]
    if kn == Matrix.identity(case.n).scale(f):
        entry.update(status="pass", f=scalar_to_str(f))
        if case.expected_f is not None and f != case.expected_f(nu):
            entry.update(status="fail", expected_f=scalar_to_str(case.expected_f(nu)))
    else:
        entry.update(status="fail", reason="k^(N) is not a scalar multiple of the identity")
    return entry


def n_unitarity(case: KSolution, points) -> dict:
    """Check k^(N)(nu) = f(nu) 1 at each point; never raises on failure."""
    return build_report("nunitarity", case.label, 0, [n_unitarity_entry(case, nu) for nu in points])


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------

def _rbar_at(case: KSolution, lam, frame: PointFrame) -> Matrix:
    """sum_j g^(j)(nu) k_b^(j)(nu) r_ab(lam, tau^j(nu)) k_b^(j)(nu)^-1 from the frame at nu."""
    eye = Matrix.identity(case.n)
    r = case.base_r
    total = r(lam, frame.orbit[0]).scale(frame.weights[0])
    for g, point, kj, kj_inv in zip(frame.weights[1:], frame.orbit[1:], frame.k[1:], frame.k_inv[1:]):
        total = total + (tensor_pair(eye, kj) * r(lam, point) * tensor_pair(eye, kj_inv)).scale(g)
    return total


def rbar_matrix(case: KSolution, lam, nu) -> Matrix:
    """The induced matrix rbar_ab(lam, nu) = sum_j g^(j) k_b^(j) r_ab(lam, tau^j(nu)) k_b^(j)^-1."""
    return _rbar_at(case, as_scalar(lam), point_frame(case, nu))


def nre_residual(case: KSolution, lam, nu) -> Matrix:
    """LHS - RHS of the N-fold reflection residual at exact points, in the
    compact form rbar_ab(lam, nu) k_a(lam) - k_a(lam) rbar_ab(tau(lam), nu);
    both terms share the frame at nu."""
    lam = as_scalar(lam)
    frame = point_frame(case, nu)
    k_a = tensor_pair(case.k(lam), Matrix.identity(case.n))
    lhs = _rbar_at(case, lam, frame) * k_a
    rhs = k_a * _rbar_at(case, case.tau(lam), frame)
    return lhs - rhs


def symmetry_relation_residual(case: KSolution, omega, lam, nu) -> Matrix:
    """r_ab(l, n) - omega k_a k_b r_ab(tau l, tau n) k_b^-1 k_a^-1 (needs omega^N = 1)."""
    r = case.base_r
    omega = as_scalar(omega)
    if omega**case.N != 1:
        raise ConstraintError(f"omega^{case.N} != 1 for omega = {omega}")
    lam, nu = as_scalar(lam), as_scalar(nu)
    ka, kb = case.k(lam), case.k(nu)
    k_ab = tensor_pair(ka, kb)
    k_ab_inv = tensor_pair(ka.inverse(label="k(lam)"), kb.inverse(label="k(nu)"))
    inner = r(case.tau(lam), case.tau(nu))
    return r(lam, nu) - (k_ab * inner * k_ab_inv).scale(omega)


def scalar_functional_residual(case: KSolution, lam, nu) -> Scalar:
    """For identity-k cases with the rational base r, the reflection residual
    collapses to sum_j g^(j)(nu) [1/(lam - tau^j(nu)) - 1/(tau(lam) - tau^j(nu))]."""
    lam, nu = as_scalar(lam), as_scalar(nu)
    total = ZERO
    tl = case.tau(lam)
    for j, point in enumerate(case.orbit(nu)):
        g = case.weights(j, nu)
        total = total + g * (1 / (lam - point) - 1 / (tl - point))
    return total


def build_rbar(case: KSolution) -> RMatrixFun:
    """Evaluator for the induced matrix rbar.  It solves the classical
    Yang-Baxter equation only for cases whose reflection residual vanishes;
    ``verify nre`` and ``verify rbar-cybe`` check both."""
    return RMatrixFun(n=case.n, kind="constructed", label=f"rbar[{case.label}]",
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
    raise ValueError(f"unknown tamper mode {mode!r}")


# ---------------------------------------------------------------------------
# equivalence transforms (identity-k rational families, c != 0)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquivalenceTransform:
    """Reparametrization p and prefactor relating rbar to the rational r:
    rbar(lam, mu) = prefactor(mu) * r(p(lam) - p(mu)).  The prefactor equals
    p'(mu): matching the simple pole at lam = mu forces that normalization.
    Both raise PoleError at their poles."""

    p: Callable[[Scalar], Scalar]
    prefactor: Callable[[Scalar], Scalar]


def _over(num, den, mu):
    if not den:
        raise PoleError(f"reparametrization has a pole at mu = {mu}")
    return num / den


def equivalence_transform(case: KSolution) -> EquivalenceTransform:
    a = case.params.get("a")
    b = case.params.get("b")
    c = case.params.get("c")
    if case.family == "id-2refl":
        if not c:
            raise UnsupportedCaseError("reparametrization needs c != 0")

        def p(mu):
            mu = as_scalar(mu)
            return _over(b + c * mu**2, 2 * c * (a - c * mu), mu)

        def prefactor(mu):
            mu = as_scalar(mu)
            return _over(b + 2 * a * mu - c * mu**2, 2 * (a - c * mu) ** 2, mu)

        return EquivalenceTransform(p, prefactor)

    if case.family == "id-3refl":
        d = case.params.get("d")
        if not c:
            raise UnsupportedCaseError("reparametrization needs c != 0")

        def p(mu):
            mu = as_scalar(mu)
            num = (c**3 * mu**3 - (a - d) ** 2 * c**2 * mu**2
                   - c * (a + 2 * d) * (2 * a + d) * mu + (a - d) * (a + d) ** 2)
            return _over(num, c**3 * b**2 * (c * mu - a) * (c * mu + d), mu)

        def prefactor(mu):
            mu = as_scalar(mu)
            return _over((c * mu**2 - (a - d) * mu - b) ** 2,
                         b**2 * (c * mu - a) ** 2 * (c * mu + d) ** 2, mu)

        return EquivalenceTransform(p, prefactor)

    raise UnsupportedCaseError(f"no equivalence transform for family {case.family!r}")


def equivalence_residual(case: KSolution, lam, mu) -> Matrix:
    """rbar(lam, mu) - prefactor(mu) r(p(lam) - p(mu)), exactly."""
    from .linalg import permutation_operator

    transform = equivalence_transform(case)
    lam, mu = as_scalar(lam), as_scalar(mu)
    lhs = rbar_matrix(case, lam, mu)
    diff = transform.p(lam) - transform.p(mu)
    if not diff:
        raise PoleError(f"p(lam) = p(mu) at ({lam}, {mu})")
    rhs = permutation_operator(case.n).scale(transform.prefactor(mu) / diff)
    return lhs - rhs


def sampled_check(case: KSolution, subject: str, omega=None) -> tuple:
    """(arity, evaluate) of the ``verify`` subject checked on ``case``: the
    sampler draws points of ``arity`` rationals and redraws where
    ``evaluate`` raises a pole error.  ``compact`` names the form
    :func:`nre_residual` computes; ``nunitarity`` is sampled where the frame
    of rbar evaluates, so that k^(N) is checked on the domain of the induced
    matrix; ``symmetry`` uses ``omega``, zeta_N by default.  Nothing about
    the case is evaluated before the first call of ``evaluate``."""
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
        rbar = build_rbar(case)
        return 3, lambda *pt: cybe_residual(rbar, *pt)
    raise ValueError(f"unknown verify subject {subject!r}")


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def _const_weights(values) -> WeightFamily:
    return WeightFamily(tuple(RatFun.const(as_scalar(v)) for v in values))


def linear_k_case(N: int, theta, G: Matrix, g_label: str = "G", n: Optional[int] = None) -> KSolution:
    """k(nu) = theta 1 + nu G with G^N = 1, tau scaling by the primitive
    N-th root of unity, constant weights omega^j.  Satisfies the N-fold
    unitarity product with f(nu) = theta^N + (-1)^(N-1) nu^N."""
    theta = as_scalar(theta)
    n = n or G.nrows
    if G**N != Matrix.identity(n):
        raise ConstraintError(f"G^{N} != identity for the supplied G")
    omega = zeta(N)
    tau = MobiusMap.scaling(omega)
    weights = _const_weights([omega**j for j in range(N)])
    eye = Matrix.identity(n)

    def k(nu):
        return eye.scale(as_scalar(theta)) + G.scale(as_scalar(nu))

    sign = ONE if N % 2 else -ONE

    def expected_f(nu):
        return theta**N + sign * as_scalar(nu) ** N

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
                     k=identity_k(n), params={"a": a, "b": b, "c": c},
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
                     k=identity_k(n), params={"a": a, "b": b, "c": c, "d": d},
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
        k = identity_k(2)
    elif which == "tau":
        def k(nu):
            nu = as_scalar(nu)
            return Matrix.diagonal([tau(nu), nu])
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

    def diag(f1, f2):
        def k(nu):
            nu = as_scalar(nu)
            return Matrix.diagonal([f1(nu), f2(nu)])
        return k

    tau2 = lambda nu: tau(tau(nu))
    builders = {
        "id": identity_k(2),
        "tau-nu": diag(tau, lambda nu: nu),
        "tau2-nu": diag(tau2, lambda nu: nu),
        "tau-tau2": diag(tau, tau2),
        "poly-1": diag(lambda nu: (a + d) * (a * nu + b), lambda nu: (c * nu - a) * (d * nu - b)),
        "poly-2": diag(lambda nu: (c * nu - a) * (d * nu - b), lambda nu: (a + d) * (c * nu + d)),
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
                     k=identity_k(n), params={},
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
    parameter name or a non-integer factor size n raises ConstraintError."""
    if label not in CATALOG:
        raise KeyError(f"unknown catalog case {label!r}; see catalog list")
    build = CATALOG[label]
    fixed = getattr(build, "keywords", {})
    names = [name for name in inspect.signature(build).parameters if name not in fixed]
    params = dict(params or {})
    for name in params:
        if name not in names:
            raise ConstraintError(f"{label} has no parameter {name!r}; it takes {', '.join(names)}")
    if "n" in params:
        n = params["n"]
        if not isinstance(n, (int, Fraction)) or n != int(n):
            raise ConstraintError(f"factor size n must be an integer, got {n}")
        params["n"] = int(n)
    return build(**params)


def catalog() -> list:
    """Default instance of every cataloged case, in label order."""
    return [case_by_label(label) for label in sorted(CATALOG)]
