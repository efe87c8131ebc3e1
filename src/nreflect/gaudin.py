"""Gaudin-type models induced by identity-k reflection cases over the
rational r-matrix with the su(2) spin realization (n = 2).

The generating matrix is

    B(lam) = sum_m c_m(lam) ell_m,   c_m(lam) = sum_j g^(j)(lam) / (tau^j(lam) - z_m)

with spin blocks ell_m = [[s_m^z/2, s_m^+], [s_m^-, -s_m^z/2]] at mutually
distinct sites z_m.  The site coefficients c_m are scalar rational functions
of lam, built once per model.  Since tr(ell_m ell_k) = S_mk, the pair
coupling S_ik = s_i^z s_k^z / 2 + s_i^+ s_k^- + s_i^- s_k^+, and
tr(ell_m^2) = C_m, the Casimir, the residue of (1/2) tr B(lam)^2 at
lam = z_m is

    H_m = sum_{k != m} res_{z_m}(c_m c_k) S_mk + (1/2) res_{z_m}(c_m^2) C_m,

a partial-fraction computation over Q or Q(zeta_N) alone.  These residues
are compared exactly with the closed quadratic expressions in the S_ik.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import ModelError, PoleError
from .linalg import Matrix, commutator, partial_trace, swap_pair, tensor_pair
from .ratfun import Poly, RatFun
from .reflection import (
    KSolution,
    identity_k_three_reflection,
    identity_k_two_reflection,
    rbar_matrix,
    trivial_case,
)
from .scalars import ZERO, as_scalar, scalar_from_str, scalar_to_str, zeta
from .spinalg import SpinPoly, casimir, poisson_bracket, s_minus, s_plus, s_z

HALF = Fraction(1, 2)

GAUDIN_FAMILIES = ("id-2refl", "id-3refl", "trivial")


@dataclass(frozen=True)
class GaudinModel:
    sites: tuple
    case: KSolution

    def __post_init__(self):
        object.__setattr__(self, "sites", tuple(as_scalar(z) for z in self.sites))
        _validate(self)

    @property
    def L(self) -> int:
        return len(self.sites)

    @property
    def N(self) -> int:
        return self.case.N

    @cached_property
    def site_coefficients(self) -> tuple:
        """c_1, ..., c_L: c_m(lam) = sum_j g^(j)(lam) / (tau^j(lam) - z_m) as
        scalar rational functions of lam, so that B(lam) = sum_m c_m(lam) ell_m."""
        case = self.case
        terms = [(g, case.tau.iterate(j)) for j, g in enumerate(case.weights.gs)]
        return tuple(sum((g * _inverse_shift(tau_j, zm) for g, tau_j in terms), start=RatFun(Poly()))
                     for zm in self.sites)

    @cached_property
    def hamiltonians(self) -> tuple:
        """H_1, ..., H_L in closed form (:func:`hamiltonian_explicit`), built
        once per model."""
        return tuple(hamiltonian_explicit(self, i) for i in range(1, self.L + 1))


def _validate(model: GaudinModel) -> None:
    z = model.sites
    if not z:
        raise ModelError("model needs at least one site")
    for i in range(len(z)):
        for k in range(i + 1, len(z)):
            if z[i] == z[k]:
                raise ModelError("sites must be mutually distinct")
    case = model.case
    if case.family not in GAUDIN_FAMILIES:
        raise ModelError(f"case family {case.family!r} is not supported by the Gaudin layer")
    if case.n != 2:
        raise ModelError("the spin realization needs n = 2")
    weight_poles = {root for g in case.weights.gs for root, _ in g.roots}
    orbits = []
    for zm in z:
        try:
            orbit = case.orbit(zm, case.N + 1)[:-1]  # tau is defined on the whole orbit
        except PoleError as exc:
            raise ModelError(f"orbit of site {scalar_to_str(zm)} hits a spectral-map pole: {exc}") from exc
        if weight_poles.intersection(orbit):
            raise ModelError(f"orbit of site {scalar_to_str(zm)} hits a weight pole")
        orbits.append(orbit)
    # no site may collide with a nontrivial orbit point of any site
    for orbit in orbits:
        for point in orbit[1:]:
            for zm in z:
                if point == zm:
                    raise ModelError("sites must avoid each other's spectral-map orbits")


# ---------------------------------------------------------------------------
# the generating matrix B
# ---------------------------------------------------------------------------

def site_values(model: GaudinModel, lam) -> list:
    """c_1(lam), ..., c_L(lam) at an exact point, summed term by term, so
    that PoleError is raised wherever a term g^(j)(lam) / (tau^j(lam) - z_m)
    of B is undefined, even if the terms' poles cancel in the sum."""
    lam = as_scalar(lam)
    terms = [(model.case.weights(j, lam), point) for j, point in enumerate(model.case.orbit(lam))]
    for j, (_, point) in enumerate(terms):
        for m, zm in enumerate(model.sites, start=1):
            if point == zm:
                raise PoleError(f"B(lam) pole: tau^{j}(lam) = z_{m} at lam = {scalar_to_str(lam)}")
    return [sum((g / (point - zm) for g, point in terms), start=ZERO) for zm in model.sites]


def big_B_at(model: GaudinModel, lam) -> Matrix:
    """B(lam) = sum_m c_m(lam) ell_m at a fixed exact spectral point, as a
    traceless 2x2 spin-polynomial matrix."""
    L = model.L
    top, plus, minus = SpinPoly.zero(L), SpinPoly.zero(L), SpinPoly.zero(L)
    for m, c in enumerate(site_values(model, lam), start=1):
        top = top + (HALF * c) * s_z(L, m)
        plus = plus + c * s_plus(L, m)
        minus = minus + c * s_minus(L, m)
    return Matrix([[top, plus], [minus, -top]])


def _inverse_shift(tau_j, z) -> RatFun:
    """1/(tau^j(lam) - z) as an exact rational function of lam."""
    a, b, c, d = tau_j.a, tau_j.b, tau_j.c, tau_j.d
    return RatFun.over_linears(Poly.linear(c, d), [(a - z * c, b - z * d)])


# ---------------------------------------------------------------------------
# Hamiltonians
# ---------------------------------------------------------------------------

def s_pair(L: int, i: int, k: int) -> SpinPoly:
    return HALF * s_z(L, i) * s_z(L, k) + s_plus(L, i) * s_minus(L, k) + s_minus(L, i) * s_plus(L, k)


def _check_site(model: GaudinModel, i: int) -> None:
    if not 1 <= i <= model.L:
        raise ModelError(f"no Hamiltonian H_{i}: sites are numbered 1..{model.L}")


def hamiltonian_residue(model: GaudinModel, m: int) -> SpinPoly:
    """H_m = (1/2) res at z_m of tr B(lam)^2, by exact residues of the scalar
    products c_m c_k.  Model validation keeps z_m off every other c_k's poles,
    so the products without c_m contribute nothing."""
    _check_site(model, m)
    L = model.L
    zm = model.sites[m - 1]
    cs = model.site_coefficients
    cm = cs[m - 1]
    total = HALF * (cm * cm).residue(zm) * casimir(L, m)
    for k, ck in enumerate(cs, start=1):
        if k != m:
            total = total + (cm * ck).residue(zm) * s_pair(L, m, k)
    return total


def hamiltonian_explicit(model: GaudinModel, i: int) -> SpinPoly:
    """The closed quadratic form of H_i for the identity-k families."""
    case = model.case
    L = model.L
    z = model.sites
    _check_site(model, i)
    zi = z[i - 1]
    params = case.params
    cas_i = casimir(L, i)

    try:
        if case.family == "trivial":
            total = SpinPoly.zero(L)
            for k, zk in enumerate(z, start=1):
                if k != i:
                    total = total + (1 / (zi - zk)) * s_pair(L, i, k)
            return total
        if case.family == "id-2refl":
            a, b, c = params["a"], params["b"], params["c"]
            kappa = a * a + b * c
            total = SpinPoly.zero(L)
            for k, zk in enumerate(z, start=1):
                if k == i:
                    continue
                coeff = 1 / (zi - zk) + kappa / ((a - c * zi) * (b + a * (zi + zk) - c * zi * zk))
                total = total + coeff * s_pair(L, i, k)
            cas_coeff = kappa / ((a - c * zi) * (b + 2 * a * zi - c * zi * zi))
            return total + cas_coeff * cas_i
        if case.family == "id-3refl":
            a, b, c, d = params["a"], params["b"], params["c"], params["d"]
            det = a * d - b * c
            total = SpinPoly.zero(L)
            for k, zk in enumerate(z, start=1):
                if k == i:
                    continue
                coeff = (1 / (zi - zk)
                         + det / ((d + c * zi) * (b + a * zi - d * zk - c * zi * zk))
                         - det / ((a - c * zi) * (b + a * zk - d * zi - c * zi * zk)))
                total = total + coeff * s_pair(L, i, k)
            cas_coeff = (det / (b + (a - d) * zi - c * zi * zi)) * (1 / (d + c * zi) - 1 / (a - c * zi))
            return total + cas_coeff * cas_i
    except ZeroDivisionError as exc:
        raise ModelError(f"displayed coefficient of H_{i} hits a pole: {exc}") from exc
    raise ModelError(f"no closed Hamiltonian for family {case.family!r}")


def involution_residual(model: GaudinModel, i: int, k: int) -> SpinPoly:
    """{H_i, H_k}; the zero polynomial certifies involution."""
    _check_site(model, i)
    _check_site(model, k)
    return poisson_bracket(model.hamiltonians[i - 1], model.hamiltonians[k - 1])


def residue_sum_check(model: GaudinModel) -> dict:
    """(m, k) -> sum of all residues of c_m c_k, finite poles plus infinity,
    for m <= k; every value is 0 by the residue theorem."""
    cs = model.site_coefficients
    totals = {}
    for m in range(1, model.L + 1):
        for k in range(m, model.L + 1):
            f = cs[m - 1] * cs[k - 1]
            totals[m, k] = sum((f.residue(root) for root, _ in f.roots), start=ZERO) + f.residue_at_infinity()
    return totals


# ---------------------------------------------------------------------------
# structural identities at fixed spectral points
# ---------------------------------------------------------------------------

def _bracket_matrix(L: int, left: Matrix, right: Matrix) -> Matrix:
    """{left_a, right_b} on the tensor square: entrywise Poisson brackets."""
    n = left.nrows
    dim = n * n
    rows = [[SpinPoly.zero(L)] * dim for _ in range(dim)]
    for u1 in range(n):
        for v1 in range(n):
            f = SpinPoly.coerce(L, left[u1, v1])
            if f.is_zero():
                continue
            for u2 in range(n):
                for v2 in range(n):
                    g = SpinPoly.coerce(L, right[u2, v2])
                    if g.is_zero():
                        continue
                    rows[u1 * n + u2][v1 * n + v2] = poisson_bracket(f, g)
    return Matrix(rows)


def rbb_inputs(model: GaudinModel, lam, mu) -> tuple:
    """(B(lam), B(mu), rbar_ab(lam, mu), rbar_ba(mu, lam)); raises PoleError
    wherever one of them is undefined.  The sampled structural checks all
    draw their pairs from this domain (see ``nreflect gaudin``)."""
    lam, mu = as_scalar(lam), as_scalar(mu)
    return (big_B_at(model, lam), big_B_at(model, mu), rbar_matrix(model.case, lam, mu),
            swap_pair(rbar_matrix(model.case, mu, lam)))


def rbb_residual(model: GaudinModel, lam, mu) -> Matrix:
    """{B_a(lam), B_b(mu)} - [rbar_ab(lam,mu), B_a(lam)] + [rbar_ba(mu,lam), B_b(mu)]."""
    b_lam, b_mu, rbar_ab, rbar_ba = rbb_inputs(model, lam, mu)
    eye = Matrix.identity(2)
    b_a = tensor_pair(b_lam, eye)
    b_b = tensor_pair(eye, b_mu)
    bracket = _bracket_matrix(model.L, b_lam, b_mu)
    return bracket - commutator(rbar_ab, b_a) + commutator(rbar_ba, b_b)


def _check_powers(*powers) -> None:
    if min(powers) < 1:
        raise ModelError(f"the powers of B must be at least 1, got {', '.join(map(str, powers))}")


def trB_bracket_residual(model: GaudinModel, p: int, q: int, lam, nu) -> SpinPoly:
    """{tr B(lam)^p, tr B(nu)^q} as an exact spin polynomial."""
    _check_powers(p, q)
    t1 = SpinPoly.coerce(model.L, (big_B_at(model, lam) ** p).trace())
    t2 = SpinPoly.coerce(model.L, (big_B_at(model, nu) ** q).trace())
    return poisson_bracket(t1, t2)


def m_matrix(model: GaudinModel, lam, nu, p: int) -> Matrix:
    """M(lam, nu) = p tr_a(B_a(lam)^(p-1) rbar_ba(nu, lam))."""
    _check_powers(p)
    lam, nu = as_scalar(lam), as_scalar(nu)
    b_pow = big_B_at(model, lam) ** (p - 1)
    b_a = tensor_pair(b_pow, Matrix.identity(2))
    rbar_ba = swap_pair(rbar_matrix(model.case, nu, lam))
    return partial_trace(b_a * rbar_ba, "a").scale(Fraction(p))


def lax_residual(model: GaudinModel, lam, nu, p: int) -> Matrix:
    """{tr B(lam)^p, B(nu)} - [B(nu), M(lam, nu)]."""
    _check_powers(p)
    lam, nu = as_scalar(lam), as_scalar(nu)
    h = SpinPoly.coerce(model.L, (big_B_at(model, lam) ** p).trace())
    b_nu = big_B_at(model, nu)
    flow = Matrix([[poisson_bracket(h, SpinPoly.coerce(model.L, entry)) for entry in row]
                   for row in b_nu.rows])
    return flow - commutator(b_nu, m_matrix(model, lam, nu, p))


def mk_residual(model: GaudinModel, lam, nu, p: int) -> Matrix:
    """M(lam, nu) k(nu) - k(nu) M(lam, tau(nu))."""
    lam, nu = as_scalar(lam), as_scalar(nu)
    k_nu = model.case.k(nu)
    left = m_matrix(model, lam, nu, p) * k_nu
    right = k_nu * m_matrix(model, lam, model.case.tau(nu), p)
    return left - right


def sampled_residual(model: GaudinModel, sub: str, lam, mu, p: int = 2, q: int = 2):
    """The structural identity ``sub`` (rbb, lax, mk or trbrackets) at one
    sample pair.  All four are sampled where the rbb identity evaluates, so
    that they draw the same pairs at a seed: lax is defined on exactly that
    domain, while mk and trbrackets are defined on larger ones and so are
    evaluated only after the rbb inputs."""
    if sub == "rbb":
        return rbb_residual(model, lam, mu)
    if sub == "lax":
        return lax_residual(model, lam, mu, p)
    rbb_inputs(model, lam, mu)
    if sub == "mk":
        return mk_residual(model, lam, mu, p)
    if sub == "trbrackets":
        return trB_bracket_residual(model, p, q, lam, mu)
    raise ValueError(f"unknown structural identity {sub!r}")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

MODEL_KINDS = ("two-reflection", "three-reflection", "bcl", "z3", "plain")


def case_for_config(kind: str, params: dict) -> KSolution:
    if kind == "two-reflection":
        return identity_k_two_reflection(params.get("a", 1), params.get("b", 2), params.get("c", 3))
    if kind == "three-reflection":
        return identity_k_three_reflection(params.get("a", 1), params.get("b", 3),
                                           params.get("c", -1), params.get("d", 1))
    if kind == "bcl":
        return identity_k_two_reflection(params.get("a", 1), 0, 0)
    if kind == "z3":
        return identity_k_three_reflection(zeta(3), 0, 0, 1)
    if kind == "plain":
        return trivial_case()
    raise ModelError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")


def model_from_config(config: dict) -> GaudinModel:
    """Build a model from a JSON-style dict:
    {"case": kind, "params": {...}, "L": int, "z": [...]}.
    Scalars are exact strings like "5/3"."""
    if not isinstance(config, dict):
        raise ModelError("model config must be a JSON object")
    kind = config.get("case", "plain")
    raw_params = config.get("params", {})
    try:
        params = {key: scalar_from_str(str(val)) if isinstance(val, str) else as_scalar(val)
                  for key, val in raw_params.items()}
    except (ValueError, TypeError) as exc:
        raise ModelError(f"bad parameter value: {exc}") from exc
    case = case_for_config(kind, params)
    z_raw = config.get("z")
    if not z_raw:
        raise ModelError("model config needs a non-empty site list 'z'")
    try:
        z = [scalar_from_str(str(val)) if isinstance(val, str) else as_scalar(val) for val in z_raw]
    except (ValueError, TypeError) as exc:
        raise ModelError(f"bad site value: {exc}") from exc
    if "L" in config and int(config["L"]) != len(z):
        raise ModelError(f"L = {config['L']} does not match {len(z)} sites")
    return GaudinModel(sites=tuple(z), case=case)


def hamiltonians_text(model: GaudinModel) -> str:
    return "\n".join(f"H_{i} = {h}" for i, h in enumerate(model.hamiltonians, start=1))
