"""Gaudin-type models induced by identity-k reflection cases over the
rational r-matrix with the su(2) spin realization (n = 2).

The generating matrix is

    B(lam) = sum_m c_m(lam) ell_m,   c_m(lam) = sum_j g^(j)(lam) / (tau^j(lam) - z_m)

with spin blocks ell_m = [[s_m^z/2, s_m^+], [s_m^-, -s_m^z/2]] at mutually
distinct sites z_m.  Since tr(ell_m ell_k) = S_mk, the pair coupling
S_ik = s_i^z s_k^z / 2 + s_i^+ s_k^- + s_i^- s_k^+, and tr(ell_m^2) = C_m,
the Casimir,

    (1/2) tr B(lam)^2 = sum_{m < k} c_m c_k S_mk + (1/2) sum_m c_m^2 C_m,

and H_m is its residue at lam = z_m.  That residue is read off the Laurent
expansion at z_m, with no rational function of lam formed.  g^(0) = 1 and
tau^0 = id, and model validation keeps the whole orbit of z_m off the
weight poles and every tau^j(z_m) with j >= 1 off every site.  So near z_m
only the term (m, j = 0) of B is singular:

    c_m(lam) = 1/(lam - z_m) + h_m(lam),   h_m(lam) = sum_{j >= 1} g^(j)(lam) / (tau^j(lam) - z_m),

with h_m and every c_k, k != m, regular at z_m.  Then
res_{z_m}(c_m c_k) = c_k(z_m), res_{z_m}(c_m^2) = 2 h_m(z_m) (the double
pole has no residue), and

    H_m = sum_{k != m} c_k(z_m) S_mk + h_m(z_m) C_m.

Each coefficient is a site sum of B over the point frame at z_m
(:func:`nreflect.reflection.point_frame`: the orbit tau^j(z_m) and the
weights g^(j)(z_m)) with the one term (m, j = 0) left out.  These
Hamiltonians are compared exactly with the closed quadratic expressions in
the S_ik, derived by hand.  The site coefficients c_m as scalar rational
functions of lam serve only the residue-theorem check.

At exact spectral points, B is built from the same site sums over the
point frame at lam, as :class:`SpinRows` (a ``Matrix`` holds exact scalars
only).  The structural identities at a sample pair have one entry,
:func:`sampled_residual`, which evaluates one frame per point and writes
each entry of a residual on the legs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import ModelError, PoleError
from .linalg import swap_pair
from .ratfun import Poly, RatFun
from .reflection import (
    KSolution,
    PointFrame,
    case_by_label,
    identity_k_three_reflection,
    identity_k_two_reflection,
    point_frame,
    rbar_at,
    trivial_case,
)
from .reflection import rbar_matrix  # noqa: F401 - perfbench/test_perfbench.py reads it off this module
from .scalars import ZERO, _canonical, _parts, _power, as_scalar, scalar_from_str, zeta
from .spinalg import (SpinPoly, _combination, _product_sum, bracket_partials, casimir, partials, poisson_bracket,
                      s_minus, s_pair, s_plus, s_z)

HALF = Fraction(1, 2)
UNIT = SpinPoly.const(1)

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
        scalar rational functions of lam, so that B(lam) = sum_m c_m(lam) ell_m;
        read by :func:`residue_sum_check`."""
        case = self.case
        terms = [(g, case.tau.iterate(j)) for j, g in enumerate(case.weights.gs)]
        return tuple(sum((g * _inverse_shift(tau_j, zm) for g, tau_j in terms), start=RatFun(Poly()))
                     for zm in self.sites)

    @cached_property
    def couplings(self) -> dict:
        """(m, k) -> S_mk = S_km (:func:`s_pair`) for sites m != k, built
        once per unordered pair and read by both Hamiltonian routes."""
        pairs = {(m, k): s_pair(m, k) for m in range(1, self.L + 1) for k in range(m + 1, self.L + 1)}
        return {**pairs, **{(k, m): s for (m, k), s in pairs.items()}}

    @cached_property
    def hamiltonians(self) -> tuple:
        """H_1, ..., H_L in closed form (:func:`hamiltonian_explicit`), built
        once per model."""
        return tuple(hamiltonian_explicit(self, i) for i in range(1, self.L + 1))

    @cached_property
    def hamiltonian_partials(self) -> tuple:
        """The :func:`partials` of H_1, ..., H_L, so that the L(L-1)/2
        involution brackets differentiate each H_i once."""
        return tuple(partials(h) for h in self.hamiltonians)


def _validate(model: GaudinModel) -> None:
    z = model.sites
    if not z:
        raise ModelError("model needs at least one site")
    if len(set(z)) < len(z):
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
            raise ModelError(f"orbit of site {zm} hits a spectral-map pole: {exc}") from exc
        if weight_poles.intersection(orbit):
            raise ModelError(f"orbit of site {zm} hits a weight pole")
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

def _site_sums(model: GaudinModel, frame: PointFrame, skip: int = 0) -> list:
    """sum_j g^(j)(lam) / (tau^j(lam) - z_m) for m = 1, ..., L from the frame
    at lam, summed term by term, so that PoleError is raised wherever a term
    of B is undefined, even if the terms' poles cancel in the sum.  Site
    ``skip`` leaves out its term j = 0: at lam = z_skip that is the pole of
    B, and its sum is h_skip(lam).  Sites are numbered from 1, so the
    default leaves out nothing."""
    terms = tuple((_canonical(*g), _canonical(*point)) for g, point in zip(frame.weights, frame.orbit))
    for j, (_, point) in enumerate(terms):
        for m, zm in enumerate(model.sites, start=1):
            if point == zm and (j, m) != (0, skip):
                raise PoleError(f"B(lam) pole: tau^{j}(lam) = z_{m} at lam = {frame.nu}")
    return [sum((g / (point - zm) for g, point in (terms[1:] if m == skip else terms)), start=ZERO)
            for m, zm in enumerate(model.sites, start=1)]


def site_values(model: GaudinModel, lam) -> list:
    """c_1(lam), ..., c_L(lam) at an exact point; raises PoleError where the
    frame at lam or a term of B is undefined."""
    return _site_sums(model, point_frame(model.case, lam))


class SpinRows(tuple):
    """A square matrix of spin polynomials as a tuple of rows: B, its powers
    and the residuals of :func:`sampled_residual`.  A product entry is one
    :func:`~nreflect.spinalg._product_sum`, and the witness is found row by
    row, as in :meth:`nreflect.linalg.Matrix.first_nonzero`."""

    @staticmethod
    def identity(n: int) -> "SpinRows":
        return SpinRows(tuple(SpinPoly.const(int(i == j)) for j in range(n)) for i in range(n))

    def __mul__(self, other):
        cols = range(len(other[0]))
        return SpinRows(tuple(_product_sum([(1, 0, a, other[k][j]) for k, a in enumerate(row)]) for j in cols)
                        for row in self)

    def trace(self) -> SpinPoly:
        return _combination((1, row[i]) for i, row in enumerate(self))

    def first_nonzero(self):
        """(row, col, value) of the first nonzero entry, or None."""
        return next(((i, j, f) for i, row in enumerate(self) for j, f in enumerate(row) if f), None)

    def is_zero(self) -> bool:
        return self.first_nonzero() is None


def big_B(values) -> SpinRows:
    """B = sum_m c_m ell_m from the site values c_1, ..., c_L at one point,
    as traceless 2x2 :class:`SpinRows`."""
    top = _combination((HALF * c, s_z(m)) for m, c in enumerate(values, start=1))
    plus = _combination((c, s_plus(m)) for m, c in enumerate(values, start=1))
    minus = _combination((c, s_minus(m)) for m, c in enumerate(values, start=1))
    return SpinRows(((top, plus), (minus, -top)))


def _inverse_shift(tau_j, z) -> RatFun:
    """1/(tau^j(lam) - z) as an exact rational function of lam."""
    a, b, c, d = tau_j.a, tau_j.b, tau_j.c, tau_j.d
    return RatFun.over_linears(Poly.linear(c, d), [(a - z * c, b - z * d)])


# ---------------------------------------------------------------------------
# Hamiltonians
# ---------------------------------------------------------------------------

def _check_site(model: GaudinModel, i: int) -> None:
    if not 1 <= i <= model.L:
        raise ModelError(f"no Hamiltonian H_{i}: sites are numbered 1..{model.L}")


def hamiltonian_residue(model: GaudinModel, m: int) -> SpinPoly:
    """H_m = (1/2) res at z_m of tr B(lam)^2 = sum_{k != m} c_k(z_m) S_mk +
    h_m(z_m) C_m, from the point frame at z_m in one combination.

    Near z_m, c_m(lam) = 1/(lam - z_m) + h_m(lam), since g^(0) = 1 and
    tau^0 = id.  Model validation keeps the orbit of z_m off the weight
    poles and every tau^j(z_m), j >= 1, off every site, so h_m and the other
    c_k are regular there.  Hence res(c_m c_k) = c_k(z_m) and
    (1/2) res(c_m^2) = h_m(z_m), and no rational function of lam is
    formed."""
    _check_site(model, m)
    values = _site_sums(model, point_frame(model.case, model.sites[m - 1]), skip=m)
    pairs = [(c, model.couplings[m, k]) for k, c in enumerate(values, start=1) if k != m]
    return _combination([(values[m - 1], casimir(m))] + pairs)


def hamiltonian_explicit(model: GaudinModel, i: int) -> SpinPoly:
    """The closed quadratic form of H_i for the identity-k families, summed
    in one pass."""
    case = model.case
    z = model.sites
    _check_site(model, i)
    zi = z[i - 1]
    params = case.params
    others = [(k, zk) for k, zk in enumerate(z, start=1) if k != i]
    try:
        if case.family == "trivial":
            return _combination((1 / (zi - zk), model.couplings[i, k]) for k, zk in others)
        if case.family == "id-2refl":
            a, b, c = params["a"], params["b"], params["c"]
            kappa = a * a + b * c
            pairs = [(1 / (zi - zk) + kappa / ((a - c * zi) * (b + a * (zi + zk) - c * zi * zk)), model.couplings[i, k])
                     for k, zk in others]
            cas_coeff = kappa / ((a - c * zi) * (b + 2 * a * zi - c * zi * zi))
            return _combination(pairs + [(cas_coeff, casimir(i))])
        if case.family == "id-3refl":
            a, b, c, d = params["a"], params["b"], params["c"], params["d"]
            det = a * d - b * c
            pairs = [(1 / (zi - zk)
                      + det / ((d + c * zi) * (b + a * zi - d * zk - c * zi * zk))
                      - det / ((a - c * zi) * (b + a * zk - d * zi - c * zi * zk)), model.couplings[i, k])
                     for k, zk in others]
            cas_coeff = (det / (b + (a - d) * zi - c * zi * zi)) * (1 / (d + c * zi) - 1 / (a - c * zi))
            return _combination(pairs + [(cas_coeff, casimir(i))])
    except ZeroDivisionError as exc:
        raise ModelError(f"displayed coefficient of H_{i} hits a pole: {exc}") from exc
    raise ModelError(f"no closed Hamiltonian for family {case.family!r}")


def involution_residual(model: GaudinModel, i: int, k: int) -> SpinPoly:
    """{H_i, H_k}; the zero polynomial certifies involution."""
    _check_site(model, i)
    _check_site(model, k)
    return bracket_partials(model.hamiltonian_partials[i - 1], model.hamiltonian_partials[k - 1])


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

def sampled_residual(model: GaudinModel, sub: str, lam, mu, p: int = 2, q: int = 2):
    """The structural identity ``sub`` at one sample pair (lam, mu):

        rbb         {B_a(lam), B_b(mu)} - [rbar_ab(lam, mu), B_a(lam)] + [rbar_ba(mu, lam), B_b(mu)]
        lax         {tr B(lam)^p, B(mu)} - [B(mu), M(lam, mu)]
        mk          M(lam, mu) k(mu) - k(mu) M(lam, tau(mu))
        trbrackets  {tr B(lam)^p, tr B(mu)^q}

    with M(lam, nu) = p tr_a(B_a(lam)^(p-1) rbar_ba(nu, lam)).  B(lam), B(mu),
    rbar_ab(lam, mu) and rbar_ba(mu, lam) are built from one point frame at
    lam and one at mu, for every identity, so all four raise a pole error on
    the same pairs and draw the same pairs at a seed: lax is defined on
    exactly that domain, mk and trbrackets on larger ones.  k = 1 in every
    family a model accepts, so mk multiplies by no k.  Each entry is one sum
    on the legs, with B n x n, R and S the rows of rbar_ab and rbar_ba, and
    (i1 i2) = i1 n + i2:

        [R, B_a]_(i1 i2),(j1 j2) = sum_k R[(i1 i2),(k j2)] B[k][j1] - R[(k i2),(j1 j2)] B[i1][k]
        [S, B_b]_(i1 i2),(j1 j2) = sum_k S[(i1 i2),(j1 k)] B[k][j2] - S[(i1 k),(j1 j2)] B[i2][k]
        M(lam, nu)_ij = p sum_(u,v) B^(p-1)[u][v] rbar_ba(nu, lam)[(v i),(u j)]

    an rbb or mk entry one combination with the exact entries of rbar as
    coefficients, a lax entry one product sum."""
    if sub not in ("rbb", "lax", "mk", "trbrackets"):
        raise ValueError(f"unknown structural identity {sub!r}")
    if min(p, q) < 1:
        raise ModelError(f"the powers of B must be at least 1, got p = {p}, q = {q}")
    case = model.case
    lam, mu = as_scalar(lam), as_scalar(mu)
    at_lam, at_mu = point_frame(case, lam), point_frame(case, mu)
    b_lam = big_B(_site_sums(model, at_lam))
    b_mu = big_B(_site_sums(model, at_mu))
    r = rbar_at(case, lam, at_mu).rows
    s = swap_pair(rbar_at(case, mu, at_lam)).rows
    if sub == "trbrackets":
        return poisson_bracket(_power(b_lam, p).trace(), _power(b_mu, q).trace())
    n, ks = len(b_lam), range(len(b_lam))
    if sub == "rbb":
        legs = [divmod(i, n) for i in range(n * n)]
        dl, dr = ([[partials(f) for f in row] for row in b] for b in (b_lam, b_mu))
        return SpinRows(tuple(_combination(
            [(1, bracket_partials(dl[i1][j1], dr[i2][j2]))]
            + [term for k in ks for term in ((-r[i1 * n + i2][k * n + j2], b_lam[k][j1]),
                                              (r[k * n + i2][j1 * n + j2], b_lam[i1][k]),
                                              (s[i1 * n + i2][j1 * n + k], b_mu[k][j2]),
                                              (-s[i1 * n + k][j1 * n + j2], b_mu[i2][k]))])
            for j1, j2 in legs) for i1, i2 in legs)
    power = _power(b_lam, p - 1) if p > 1 else SpinRows.identity(n)

    def m_terms(rbar, sign=1):  # the (coefficient, B^(p-1) entry) pairs of each entry of sign M(lam, nu)
        return [[[(sign * p * rbar[v * n + i][u * n + j], power[u][v]) for u in ks for v in ks] for j in ks]
                for i in ks]

    if sub == "mk":
        m_mu, m_tau = m_terms(s), m_terms(swap_pair(rbar_at(case, case.tau.image(_parts(mu)), at_lam)).rows, -1)
        return SpinRows(tuple(_combination(m_mu[i][j] + m_tau[i][j]) for j in ks) for i in ks)
    m = SpinRows(tuple(_combination(terms) for terms in row) for row in m_terms(s))
    dt = partials(_power(b_lam, p).trace())  # the bracket enters the product sum times the constant UNIT
    return SpinRows(tuple(_product_sum([(1, 0, bracket_partials(dt, partials(b_mu[i][j])), UNIT)]
                                       + [quad for k in ks for quad in ((-1, 0, b_mu[i][k], m[k][j]),
                                                                        (1, 0, m[i][k], b_mu[k][j]))])
                          for j in ks) for i in ks)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

MODEL_KINDS = ("two-reflection", "three-reflection", "bcl", "z3", "plain")


def case_for_config(kind: str, params: dict) -> KSolution:
    """The reflection case of a model kind.  two- and three-reflection take
    the catalog parameters of id-2refl and id-3refl, bcl takes only a, and
    z3 and plain take none; any other name is an error."""
    if kind in ("two-reflection", "three-reflection"):
        return case_by_label("id-2refl" if kind == "two-reflection" else "id-3refl", params)
    if kind not in MODEL_KINDS:
        raise ModelError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    takes = ("a",) if kind == "bcl" else ()
    for name in params:
        if name not in takes:
            raise ModelError(f"model kind {kind!r} has no parameter {name!r}; it takes {', '.join(takes) or 'none'}")
    if kind == "bcl":
        return identity_k_two_reflection(params.get("a", 1), 0, 0)
    if kind == "z3":
        return identity_k_three_reflection(zeta(3), 0, 0, 1)
    return trivial_case()


def _config_scalar(val, what: str):
    """An exact scalar from a config value: an exact string like "5/3" or an
    exact number, but not a JSON true or false."""
    if isinstance(val, bool):
        raise ModelError(f"bad {what} value: {val!r} is not a number")
    try:
        return scalar_from_str(val) if isinstance(val, str) else as_scalar(val)
    except (ValueError, TypeError) as exc:
        raise ModelError(f"bad {what} value: {exc}") from exc


def model_from_config(config: dict) -> GaudinModel:
    """Build a model from a JSON-style dict:
    {"case": kind, "params": {...}, "L": int, "z": [...]}.
    Scalars are integers or exact strings like "5/3"; any other key is an error."""
    if not isinstance(config, dict):
        raise ModelError("model config must be a JSON object")
    if unknown := sorted(config.keys() - {"case", "params", "L", "z"}, key=str):
        raise ModelError(f"model config has no key {unknown[0]!r}; it takes case, params, L, z")
    kind = config.get("case", "plain")
    raw_params = config.get("params", {})
    if not isinstance(raw_params, dict):
        raise ModelError("model config 'params' must be a JSON object")
    params = {key: _config_scalar(val, "parameter") for key, val in raw_params.items()}
    case = case_for_config(kind, params)
    z_raw = config.get("z")
    if not isinstance(z_raw, list) or not z_raw:
        raise ModelError("model config needs a non-empty site list 'z'")
    z = [_config_scalar(val, "site") for val in z_raw]
    if "L" in config:
        L = config["L"]
        if isinstance(L, bool) or not isinstance(L, int):
            raise ModelError(f"L must be an integer, got {L!r}")
        if L != len(z):
            raise ModelError(f"L = {L} does not match {len(z)} sites")
    return GaudinModel(sites=tuple(z), case=case)


def hamiltonians_text(model: GaudinModel) -> str:
    return "\n".join(f"H_{i} = {h}" for i, h in enumerate(model.hamiltonians, start=1))
