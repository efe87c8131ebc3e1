"""The spectral scalars a frame reads -- tau(nu), the weights g^(j)(nu) and
the base r-matrix's coefficients f_i(lam, mu) -- against their definitions,
written out here in plain field arithmetic.

Every cataloged case and every Gaudin model kind is covered, at points drawn
as ``sample_fraction`` draws them, along each orbit (so the z3 and
``linear-k-N3-*`` coefficients see Q(zeta_3) points), and at each case's
poles, where both sides must raise PoleError with the same text.  Values are
compared with their type and their text, since reports print them.  At
rational points of the rational cases, these scalars and rbar itself are
integer work: no ``Fraction`` operator runs, nor in k(nu) or in the
reparametrizations of the identity-k cases.
"""

from fractions import Fraction as F

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nreflect import linalg  # noqa: E402
from nreflect.errors import PoleError  # noqa: E402
from nreflect.gaudin import MODEL_KINDS, case_for_config  # noqa: E402
from nreflect.ratfun import Poly, RatFun  # noqa: E402
from nreflect.reflection import CATALOG, case_by_label, equivalence_transform, point_frame, rbar_at  # noqa: E402
from nreflect.sampling import POLE_ERRORS  # noqa: E402

PROFILE = settings(max_examples=50, deadline=None, derandomize=True, database=None)

# the way sampling.sample_fraction draws a point
points = st.builds(F, st.integers(-20, 20), st.integers(1, 20))

CASES = {**{label: (lambda label=label: case_by_label(label)) for label in sorted(CATALOG)},
         **{f"gaudin-{kind}": (lambda kind=kind: case_for_config(kind, {})) for kind in MODEL_KINDS}}


def tau_definition(case, nu):
    """(a nu + b) / (c nu + d)."""
    t = case.tau
    den = t.c * nu + t.d
    if den == 0:
        raise PoleError(f"Mobius map has a pole at nu = {nu}")
    return (t.a * nu + t.b) / den


def ratfun_definition(g, nu):
    """sum_i c_i nu^i / prod (nu - root)^mult over the stored numerator and
    roots of the rational function g."""
    den = F(1)
    for root, mult in g.roots:
        if nu == root:
            raise PoleError(f"rational function has a pole at {nu}")
        den = den * (nu - root) ** mult
    return sum((c * nu**i for i, c in enumerate(g.num.coeffs)), start=F(0)) / den


def coefficients_definition(case, lam, mu):
    """P/(lam - mu) for the rational r; for the trigonometric one the
    scalars of s/(2 (lam - mu)) diag(-1, 1, 1, -1) - 2 mu/(lam - mu) E_12
    - 2 lam/(lam - mu) E_21 with s = lam + mu."""
    r = case.base_r
    label = f"rational (n={case.n})" if r.kind == "rational" else "trigonometric"
    if lam == mu:
        raise PoleError(f"{label} r-matrix has a pole at ({lam}, {mu})")
    if r.kind == "rational":
        return (1 / (lam - mu),)
    return ((lam + mu) / (2 * (lam - mu)), -2 * mu / (lam - mu), -2 * lam / (lam - mu))


def outcome(f, *args):
    """What a report would see of f(*args): each value with its type and
    text, or the PoleError text."""
    try:
        value = f(*args)
    except PoleError as exc:
        return "pole", str(exc)
    values = value if isinstance(value, tuple) else (value,)
    return "value", [(type(v), str(v), v) for v in values]


def assert_scalars_match(case, lam, nu):
    """tau along the orbit of nu, every weight at nu, and the coefficients
    at (lam, tau^j(nu)) and at the diagonal (mu, mu) of each orbit point."""
    point = nu
    for j in range(case.N):
        assert outcome(case.weights, j, nu) == outcome(ratfun_definition, case.weights.gs[j], nu), (j, nu)
        assert outcome(case.base_r.coefficients, lam, point) == outcome(coefficients_definition, case, lam, point)
        assert outcome(case.base_r.coefficients, point, point) == outcome(coefficients_definition, case, point, point)
        got = outcome(case.tau, point)
        assert got == outcome(tau_definition, case, point), (j, point)
        if got[0] == "pole":
            return
        point = case.tau(point)


@pytest.mark.parametrize("name", list(CASES))
def test_scalars_at_sampled_points(name):
    case = CASES[name]()

    @PROFILE
    @given(points, points)
    def check(lam, nu):
        assert_scalars_match(case, lam, nu)

    check()


rationals = st.fractions(min_value=-30, max_value=30, max_denominator=25)


@PROFILE
@given(st.lists(rationals, max_size=5), st.lists(st.tuples(rationals, st.integers(1, 3)), max_size=3), points)
def test_rational_functions_at_sampled_points_and_poles(coeffs, roots, x):
    """A weight is one rational function: any numerator and roots of any
    multiplicity, at a sampled point and at each root."""
    g = RatFun(Poly(coeffs), roots)
    for point in [x] + [root for root, _ in g.roots]:
        assert outcome(g.eval_at, point) == outcome(ratfun_definition, g, point)


def pole_points(case):
    """Where tau or a weight has a pole: the rational zero of c nu + d and
    every root of every g^(j)."""
    t = case.tau
    poles = [root for g in case.weights.gs for root, _ in g.roots]
    if t.c:
        poles.append(-t.d / t.c)
    return poles


@pytest.mark.parametrize("name", list(CASES))
def test_scalars_at_pole_points(name):
    case = CASES[name]()
    poles = pole_points(case)
    for nu in poles:
        assert_scalars_match(case, F(7, 3), nu)
    rational_map = all(isinstance(x, F) for x in (case.tau.a, case.tau.b, case.tau.c, case.tau.d))
    if rational_map and case.tau.c:
        assert outcome(case.tau, poles[-1])[0] == "pole"


def test_every_rational_pole_kind_is_reached():
    """The pole cases above are not vacuous: some case has a tau pole and
    some a weight pole at a rational point."""
    reached = set()
    for name, build in CASES.items():
        case = build()
        for nu in pole_points(case):
            if outcome(case.tau, nu)[0] == "pole":
                reached.add("tau")
            if any(outcome(case.weights, j, nu)[0] == "pole" for j in range(case.N)):
                reached.add("weight")
    assert reached == {"tau", "weight"}


def test_field_cases_reach_cyclotomic_points():
    """z3 and linear-k-N3 evaluate their scalars at Q(zeta_3) points."""
    for case in (case_for_config("z3", {}), case_by_label("linear-k-N3-shift-th2")):
        mu = case.tau(F(2, 5))
        assert not isinstance(mu, F)
        assert outcome(case.base_r.coefficients, F(1, 3), mu) == outcome(coefficients_definition, case, F(1, 3), mu)
        assert not isinstance(case.weights(1, F(2, 5)), F)


def is_rational(case):
    """tau and every weight have rational coefficients (and roots)."""
    t, gs = case.tau, case.weights.gs
    values = [t.a, t.b, t.c, t.d] + [c for g in gs for c in g.num.coeffs] + [r for g in gs for r, _ in g.roots]
    return all(isinstance(x, F) for x in values)


FRACTION_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                      "__truediv__", "__rtruediv__")


def test_rational_scalars_make_no_fraction_arithmetic(monkeypatch):
    """At Fraction points, tau, the weights and the base-r coefficients of
    every rational case are integer work with one normalization per value:
    not one Fraction operator runs."""
    rational = {name: case for name, case in ((name, build()) for name, build in CASES.items()) if is_rational(case)}
    assert len([name for name in rational if not name.startswith("gaudin-")]) == 15
    lams, nus = [F(-7, 3), F(5, 11), F(0), F(13, 2)], [F(2, 9), F(-19, 20), F(1), F(0)]
    calls = count_fraction_operators(monkeypatch)
    values, poles = 0, 0
    for case in rational.values():
        for lam in lams:
            for nu in nus:
                point = nu
                for j in range(case.N):
                    try:
                        case.weights(j, nu)
                        case.base_r.coefficients(lam, point)
                        point = case.tau(point)
                        values += 3
                    except PoleError:
                        poles += 1
                        break
    assert calls == []
    assert values > 1000 and poles > 0


def count_fraction_operators(monkeypatch):
    """The list that every Fraction operator call appends its name to."""
    calls = []
    for name in FRACTION_OPERATORS:
        original = getattr(F, name)

        def counting(*args, name=name, original=original):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(F, name, counting)
    return calls


def test_k_and_reparametrizations_make_no_fraction_arithmetic(monkeypatch):
    """k(nu) of every rational catalog case, and p(mu) and p'(mu) of the
    two-reflection and three-reflection transforms, evaluate at Fraction
    points with one normalization per value: not one Fraction operator runs."""
    cases = [build() for name, build in CASES.items() if not name.startswith("gaudin-")]
    cases = [case for case in cases if is_rational(case)]
    assert len(cases) == 15
    transforms = [equivalence_transform(case_by_label(label)) for label in ("id-2refl", "id-3refl")]
    functions = [case.k for case in cases] + [f for t in transforms for f in (t.p, t.prefactor)]
    points = [F(-7, 3), F(5, 11), F(0), F(13, 2), F(2, 9), F(-19, 20), F(1), F(1, 3)]
    calls = count_fraction_operators(monkeypatch)
    values, poles = 0, 0
    for f in functions:
        for point in points:
            try:
                f(point)
                values += 1
            except PoleError:
                poles += 1
    assert calls == []
    assert values > 100 and poles > 0


def test_rbar_at_makes_no_fraction_arithmetic_and_no_combination(monkeypatch):
    """On a built frame of every rational catalog case and of the bcl, two-
    and three-reflection models, rbar at a Fraction lam reads the weights and
    coefficients as integers: not one Fraction operator runs, and no
    ``linalg.combination``; the first read evaluates the frame's table,
    after each case has compiled its own."""
    rational = {name: build() for name, build in CASES.items()
                if not name.startswith("gaudin-") or name[7:] in ("bcl", "two-reflection", "three-reflection")}
    rational = {name: case for name, case in rational.items() if is_rational(case)}
    assert len(rational) == 15 + 3
    lams, nus = [F(-7, 3), F(5, 11), F(0), F(13, 2)], [F(2, 9), F(-19, 20), F(1), F(0)]
    frames = []
    for case in rational.values():
        for nu in nus:
            try:
                frames.append((case, point_frame(case, nu)))
            except POLE_ERRORS:
                continue
        if not case.identity_k:
            case.table
    calls = count_fraction_operators(monkeypatch)
    original = linalg.combination
    monkeypatch.setattr(linalg, "combination", lambda *args: calls.append("combination") or original(*args))
    values, poles = 0, 0
    for case, frame in frames:
        for lam in lams:
            try:
                assert rbar_at(case, lam, frame).nrows == case.n ** 2
                values += 1
            except PoleError:
                poles += 1
    assert calls == []
    assert values > 200 and poles > 0
