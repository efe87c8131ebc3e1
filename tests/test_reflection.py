import dataclasses
from fractions import Fraction

import pytest

from nreflect import gaudin, linalg, reflection, rmatrix
from nreflect.cli import main as cli_main
from nreflect.errors import ConstraintError, PoleError, UnsupportedCaseError
from nreflect.linalg import LegTable, Matrix, permutation_operator, tensor_pair
from nreflect.ratfun import Poly, RatFun, _poly
from nreflect.reflection import (
    CATALOG,
    KMatrix,
    MobiusMap,
    build_rbar,
    case_by_label,
    catalog,
    diag_roots_G,
    cyclic_shift_G,
    equivalence_residual,
    equivalence_transform,
    identity_k_three_reflection,
    identity_k_two_reflection,
    linear_k_case,
    n_unitarity,
    n_unitarity_entry,
    nre_residual,
    point_frame,
    rbar_at,
    rbar_matrix,
    sampled_check,
    symmetry_relation_residual,
    tamper,
    trig_three_reflection,
    trivial_case,
)
from nreflect.rmatrix import cybe_residual, rational_r
from nreflect.sampling import DEFAULT_SEED, POLE_ERRORS, SplitMix64, sample_evaluated
from nreflect.scalars import zeta
from test_rbar_oracle import scalar_functional_residual

F = Fraction


def seeded_residuals(case, count=10, seed=DEFAULT_SEED):
    """[((lam, nu), reflection residual)] at seeded points of the case's domain."""
    rng = SplitMix64(seed)
    return list(sample_evaluated(rng, count, 2, lambda lam, nu: nre_residual(case, lam, nu)))


def compact_form(case, lam, nu):
    """rbar_ab(lam, nu) k_a(lam) - k_a(lam) rbar_ab(tau(lam), nu), composed
    here from two independent rbar_matrix calls."""
    k_a = tensor_pair(case.k(lam), Matrix.identity(case.n))
    return rbar_matrix(case, lam, nu) * k_a - k_a * rbar_matrix(case, case.tau(lam), nu)


class TestMobius:
    def test_apply_and_order_two(self):
        tau = MobiusMap(1, 2, 3, -1)
        assert tau(F(0)) == -2
        assert tau(F(-2)) == 0
        assert tau.iterate(2)(F(5)) == 5 != tau(F(5))

    def test_reflection_shape_recovers_negation(self):
        tau = MobiusMap(1, 0, 0, -1)
        for x in (F(3), F(-7, 2)):
            assert tau(x) == -x

    def test_order_three_orbit(self):
        tau = MobiusMap(1, 3, -1, 1)  # satisfies a^2 + ad + bc + d^2 = 0
        assert tau(F(0)) == 3
        assert tau(F(3)) == -3
        assert tau(F(-3)) == 0
        assert tau.iterate(3)(F(5)) == 5 != tau.iterate(2)(F(5))

    def test_compose_is_iterate(self):
        tau = MobiusMap(1, 3, -1, 1)
        x = F(7, 2)
        assert tau.iterate(2)(x) == tau(tau(x))

    def test_pole(self):
        tau = MobiusMap(1, 2, 3, -1)
        with pytest.raises(PoleError):
            tau(F(1, 3))

    def test_degenerate_rejected(self):
        with pytest.raises(ConstraintError):
            MobiusMap(1, 2, 2, 4)


def compiled_product(case, j, nu):
    """k^(j)(nu) = P_j(nu) / s_j(nu) from the case's compile, j < N: P_j
    read back from the compile's ring, s_j = D^j times its linear factors."""
    (rows, (den, factors), _, _), ring = case.compiled[0][j - 1], case.compiled[2]
    scale = F(den)
    for x in ring.read(factors):
        scale *= RatFun(_poly(ring.order, x)).eval_at(nu)
    rows = ring.read(rows)
    return Matrix([[_poly(ring.order, x).eval_at(nu) for x in rows[i:i + case.n]]
                   for i in range(0, len(rows), case.n)]).scale(1 / scale)


class TestKProducts:
    def test_first_is_k(self):
        case = case_by_label("linear-k-N2-diag-th2")
        assert compiled_product(case, 1, F(5)) == case.k(F(5))

    def test_linear_family_square(self):
        # k(1) k(tau(1)) = (2 + G)(2 - G) = 3 for G = diag(1, -1)
        case = case_by_label("linear-k-N2-diag-th2")
        assert case.compiled[1](F(1)) == Matrix.identity(2).scale(F(3))

    @pytest.mark.parametrize("label", [label for label in sorted(CATALOG) if not case_by_label(label).identity_k]
                             + ["noncommuting"])
    def test_compiled_products_are_the_products_along_the_orbit(self, label):
        # k^(j)(nu) = k(nu) k(tau(nu)) ... k(tau^(j-1)(nu)), multiplied out here.  Every cataloged k
        # commutes with itself at two points, so the product order shows only on the extra case: the
        # tau of linear-k-N2-diag-th2 with k(nu) = [[1, nu], [nu, 0]], k(a) k(b) != k(b) k(a) for a != b
        if label == "noncommuting":
            one, nu = RatFun.const(F(1)), RatFun(Poly.linear(F(1), F(0)))
            case = dataclasses.replace(case_by_label("linear-k-N2-diag-th2"), label=label, expected_f=None,
                                       k=KMatrix(((one, nu), (nu, RatFun.const(F(0))))))
        else:
            case = case_by_label(label)
        for nu in (F(5, 3), F(-7, 2), F(11, 5)):
            product = Matrix.identity(case.n)
            for j, point in enumerate(case.orbit(nu), 1):
                product = product * case.k(point)
                assert (compiled_product(case, j, nu) if j < case.N else case.compiled[1](nu)) == product, (label, nu, j)


class TestNUnitarity:
    def test_linear_N2(self):
        case = case_by_label("linear-k-N2-diag-th2")
        report = n_unitarity(case, [F(2), F(5), F(-3, 2)])
        assert report["verdict"] == "pass"
        # f(lam) = theta^2 - lam^2 = 4 - lam^2
        assert report["results"][0]["f"] == "0"   # 4 - 4
        assert report["results"][1]["f"] == "-21"  # 4 - 25

    def test_identity_k_f_is_one(self):
        case = case_by_label("id-2refl")
        report = n_unitarity(case, [F(2), F(7)])
        assert report["verdict"] == "pass"
        assert all(entry["f"] == "1" for entry in report["results"])

    def test_linear_N3_cyclic_shift(self):
        case = linear_k_case(3, 1, cyclic_shift_G(3), g_label="shift")
        report = n_unitarity(case, [F(2), F(-5, 3)])
        assert report["verdict"] == "pass"
        # f(lam) = 1 + lam^3
        assert report["results"][0]["f"] == "9"

    def test_linear_family_tau_has_projective_order_N(self):
        for label in sorted(CATALOG):
            if label.startswith("linear-k"):
                case = case_by_label(label)
                x = F(5, 7)
                assert case.tau.iterate(case.N)(x) == x, label
                assert all(case.tau.iterate(m)(x) != x for m in range(1, case.N)), label

    def test_non_scalar_product_reported_not_raised(self):
        # k = diag(nu, 1) with tau = -nu gives k^(2) = diag(-nu^2, 1)
        case = case_by_label("id-2refl")
        diag_k = KMatrix(((RatFun(Poly.linear(F(1), F(0))), RatFun.const(F(0))), (RatFun.const(F(0)), RatFun.const(F(1)))))
        bad = dataclasses.replace(case, label="bad-k", k=diag_k, expected_f=None)
        report = n_unitarity(bad, [F(2)])
        assert report["verdict"] == "fail"
        assert "not a scalar multiple" in report["results"][0]["reason"]

    def test_a_wrong_expected_f_fails_the_entry(self):
        # k^(2)(nu) = (4 - nu^2) 1 on linear-k-N2-diag-th2; an expected f one off fails each entry, with both f's
        case = dataclasses.replace(case_by_label("linear-k-N2-diag-th2"), expected_f=lambda nu: 5 - nu**2)
        report = n_unitarity(case, [F(2), F(-5, 3)])
        assert report["verdict"] == "fail"
        assert [(e["status"], e["f"], e["expected_f"]) for e in report["results"]] == [
            ("fail", "0", "1"), ("fail", "11/9", "20/9")]
        entry = n_unitarity_entry(case, F(7, 2), point_frame(case, F(7, 2)))
        assert entry == {"sample": ["7/2"], "status": "fail", "f": "-33/4", "expected_f": "-29/4"}

    @pytest.mark.parametrize("label", sorted(CATALOG))
    def test_entry_from_the_frame_equals_the_rebuilt_one(self, label):
        for case in (case_by_label(label), dataclasses.replace(case_by_label(label), expected_f=None)):
            for nu in (F(2), F(-5, 3), F(7, 2), F(1, 3)):
                try:
                    frame = point_frame(case, nu)
                except POLE_ERRORS:
                    continue
                assert n_unitarity_entry(case, nu, frame) == n_unitarity_entry(case, nu)

    def test_the_frame_pole_of_the_last_k_is_the_rebuilt_reason(self):
        # k(tau^(N-1)(nu)) is the one factor the frame does not read: k = diag(2 + nu, (2 - nu)/(nu + 3))
        case = case_by_label("linear-k-N2-diag-th2")
        pole = F(3)
        (first, zero), (_, last) = case.k
        poled = dataclasses.replace(case, k=KMatrix(((first, zero), (zero, RatFun(last.num, [(-pole, 1)])))))
        frame = point_frame(poled, pole)
        entry = n_unitarity_entry(poled, pole, frame)
        assert entry == n_unitarity_entry(poled, pole)
        assert entry["status"] == "fail" and entry["reason"] == "rational function has a pole at -3"

    def test_verify_compiles_k_once_and_inverts_nothing(self, monkeypatch):
        frames, compiles, inverses = [], [], []
        build, compile_k, inverse = reflection.point_frame, reflection.compile_k, Matrix.inverse
        monkeypatch.setattr(reflection, "point_frame", lambda case, nu: frames.append(nu) or build(case, nu))
        monkeypatch.setattr(reflection, "compile_k", lambda case: compiles.append(case) or compile_k(case))
        monkeypatch.setattr(Matrix, "inverse", lambda *args, **kw: inverses.append(args) or inverse(*args, **kw))
        assert cli_main(["verify", "nunitarity", "--case", "linear-k-N3-shift-th2", "--samples", "4"]) == 0
        assert len(frames) >= 4 and len(compiles) == 1 and inverses == []


class TestNreResidual:
    def test_linear_N3_cyclic(self):
        case = linear_k_case(3, 1, cyclic_shift_G(3), g_label="shift")
        assert nre_residual(case, F(2), F(5)).is_zero()

    def test_identity_k_two_reflection(self):
        case = case_by_label("id-2refl")
        assert nre_residual(case, F(1), F(0)).is_zero()

    def test_tampered_weight_fails(self):
        case = tamper(identity_k_two_reflection(1, 0, 0), "g1-sign")
        assert not nre_residual(case, F(1), F(2)).is_zero()

    @pytest.mark.parametrize("label", sorted(CATALOG))
    def test_catalog_seeded_samples(self, label):
        if label == "trig-3refl-poly-2":
            pytest.xfail("cataloged sixth trigonometric candidate; fails the residual "
                         "at generic parameters (see the residual report)")
        case = case_by_label(label)
        for point, residual in seeded_residuals(case, count=5):
            assert residual.is_zero(), (label, point)

    def test_scalar_functional_identity(self):
        for label in ("id-2refl", "id-3refl"):
            case = case_by_label(label)
            for (lam, nu), _ in seeded_residuals(case, count=5):
                assert scalar_functional_residual(case, lam, nu) == 0

    @pytest.mark.parametrize("label", ["id-2refl", "id-3refl"])
    @pytest.mark.parametrize("tampered", [False, True])
    def test_compact_form_is_P_times_scalar_functional(self, label, tampered):
        # an independent route to the compact form: for k = 1 over the
        # rational r it collapses to P times a scalar sum over the orbit
        case = case_by_label(label)
        case = tamper(case, "g1-sign") if tampered else case
        perm = permutation_operator(case.n)
        samples = seeded_residuals(case, count=5)
        for (lam, nu), residual in samples:
            assert residual == perm.scale(scalar_functional_residual(case, lam, nu)), (lam, nu)
        assert tampered != all(residual.is_zero() for _, residual in samples)


class TestBuildRbar:
    def test_two_reflection_value(self):
        case = case_by_label("id-2refl")
        rbar = build_rbar(case)
        assert rbar(F(1), F(0)) == permutation_operator(2).scale(F(-4, 3))

    def test_trivial_structure_returns_r(self):
        case = trivial_case()
        rbar = build_rbar(case)
        r = rational_r(2)
        for lam, mu in [(F(1), F(0)), (F(5), F(2)), (F(-3), F(7, 2))]:
            assert rbar(lam, mu) == r(lam, mu)

    def test_rbar_satisfies_cybe(self):
        case = case_by_label("id-2refl")
        rbar = build_rbar(case)
        assert cybe_residual(rbar, F(1), F(2), F(3)).is_zero()

    def test_rbar_cybe_for_catalog(self):
        for label in ("id-3refl", "linear-k-N2-diag-th2", "trig-2refl-tau"):
            case = case_by_label(label)
            rbar = build_rbar(case)
            rng = SplitMix64(DEFAULT_SEED)
            for triple, residual in sample_evaluated(rng, 5, 3, lambda *pt: cybe_residual(rbar, *pt)):
                assert residual.is_zero(), (label, triple)


class TestOneFramePerPoint:
    """The k-dependent data of rbar at nu is evaluated once, in the frame at
    nu, from the case's compiled k: a rbar-cybe sample builds one frame at
    mu and one at nu, no sample inverts a matrix or builds a leg table
    index, a frame evaluates the compiled numerators once, on its first
    rbar, an identity-k frame reads the table the base r-matrix builds
    once, and a frame that no rbar reads evaluates nothing."""

    @staticmethod
    def counted(monkeypatch, owner, name):
        calls = []
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
        return calls

    def test_rbar_cybe_builds_one_frame_per_point(self, monkeypatch):
        calls = self.counted(monkeypatch, reflection, "point_frame")
        _, evaluate = sampled_check(case_by_label("linear-k-N2-shift-th2"), "rbar-cybe")
        assert evaluate(F(5, 3), F(-7, 2), F(11, 5)).is_zero()
        assert sorted(nu for _case, nu in calls) == [F(-7, 2), F(11, 5)]

    def test_identity_k_is_never_inverted(self, monkeypatch):
        calls = self.counted(monkeypatch, Matrix, "inverse")
        frame = point_frame(case_by_label("id-3refl", {"n": 3}), F(5, 3))
        assert frame.scaled is frame.weights and "compiled" not in vars(frame.case)
        assert calls == []

    @pytest.mark.parametrize("label", ["id-3refl", "trivial", "trig-3refl-id"])
    def test_an_identity_k_frame_adds_no_term(self, monkeypatch, label):
        # the table of an identity-k frame is the base r-matrix's own, built once for every frame
        case = case_by_label(label, {"n": 3} if label == "id-3refl" else {})
        tables = [point_frame(case, nu).table for nu in (F(5, 3), F(-7, 2))]
        assert all(table is case.base_r.basis.table for table in tables)
        assert tables[0].table.terms == len(case.base_r.basis)

    def test_each_term_is_the_conjugated_basis_over_its_determinant(self, monkeypatch):
        # term j of the frame's table, weighted 1, is det P_j(nu) (1 x k^(j)) M (1 x k^(j))^-1,
        # with k^(j) multiplied out and inverted here, the old way
        case = case_by_label("linear-k-N3-shift-th2")
        calls = self.counted(monkeypatch, Matrix, "inverse")
        nu = F(5, 3)
        frame = point_frame(case, nu)
        assert calls == []
        eye, kj = Matrix.identity(case.n), Matrix.identity(case.n)
        (m,) = case.base_r.basis
        assert frame.table.table.terms == case.N
        for j, point in enumerate(frame.orbit):
            det = case.compiled[0][j - 1][3].eval_at(nu) if j else F(1)
            weights = [(F(int(i == j)), (F(1),)) for i in range(case.N)]
            assert frame.table.combination(weights) == (tensor_pair(eye, kj) * m * tensor_pair(eye, kj.inverse())).scale(det)
            assert frame.scaled[j] == frame.weights[j] / det
            kj = kj * case.k(point)

    @pytest.mark.parametrize("label", ["id-2refl", "trivial"])
    def test_symmetry_inverts_no_identity_k(self, monkeypatch, label):
        calls = self.counted(monkeypatch, Matrix, "inverse")
        _, evaluate = sampled_check(case_by_label(label), "symmetry")
        rng = SplitMix64(DEFAULT_SEED)
        assert len(list(sample_evaluated(rng, 25, 2, evaluate))) == 25
        assert calls == []

    @pytest.mark.parametrize("label", ["trig-3refl-poly-1", "linear-k-N3-shift-th2"])
    def test_samples_invert_nothing_and_build_no_table_index(self, monkeypatch, label):
        # after the case's one compile, a sample of every frame subject runs no elimination,
        # symmetry inverts only k(lam) and k(nu), none indexes a LegTable, and a second case
        # of the label compiles again
        compiles = self.counted(monkeypatch, reflection, "compile_k")
        case = case_by_label(label)
        case.compiled, case.table
        inverses = self.counted(monkeypatch, Matrix, "inverse")
        tables = self.counted(monkeypatch, LegTable, "__init__")
        for subject in ("nre", "rbar-cybe", "nunitarity", "symmetry"):
            assert inverses == []
            arity, evaluate = sampled_check(case, subject)
            evaluate(*(F(5, 3), F(11, 5), F(-7, 2))[:arity])
        assert [m.nrows for m, in inverses] == [case.n, case.n] and tables == []
        assert case_by_label(label).compiled is not case.compiled
        assert len(compiles) == 2

    def test_nre_applies_no_identity_k(self, monkeypatch):
        calls = self.counted(monkeypatch, reflection, "tensor_pair")
        assert nre_residual(case_by_label("id-3refl"), F(5, 3), F(11, 5)).is_zero()
        assert calls == []

    def test_rbar_at_makes_no_tensor_product(self, monkeypatch):
        case = case_by_label("linear-k-N3-shift-th2")
        frame = point_frame(case, F(11, 5))
        assert frame.table.table.terms == case.N * len(case.base_r.basis)
        calls = self.counted(monkeypatch, reflection, "tensor_pair")
        assert not rbar_at(case, F(5, 3), frame).is_zero()
        assert calls == []

    def test_nunitarity_makes_no_tensor_product(self, monkeypatch, capsys):
        calls = self.counted(monkeypatch, Matrix, "kron")
        assert cli_main(["verify", "nunitarity", "--case", "linear-k-N3-shift-th2"]) == 0
        assert '"verdict": "pass"' in capsys.readouterr().out
        assert calls == []

    def test_rbar_cybe_sample_evaluates_one_table_per_frame(self, monkeypatch):
        # 2 frames, each read by 2 rbar: 2 evaluations of the compiled table, and
        # neither a Kronecker product nor a 9x9 product nor an evaluation of k
        case = case_by_label("linear-k-N3-shift-th2")
        case.table
        _, evaluate = sampled_check(case, "rbar-cybe")
        products = self.counted(monkeypatch, Matrix, "__mul__")
        krons = self.counted(monkeypatch, Matrix, "kron")
        tables = self.counted(monkeypatch, LegTable, "at")
        ks = self.counted(monkeypatch, KMatrix, "__call__")
        assert evaluate(F(5, 3), F(-7, 2), F(11, 5)).is_zero()
        assert not any(isinstance(b, Matrix) and (a.nrows, b.nrows) == (9, 9) for a, b in products)
        assert krons == []
        assert [nu for _, nu in tables] == [F(-7, 2), F(11, 5)]
        # k itself is never evaluated in a frame
        assert ks == []

    def test_nunitarity_and_gaudin_site_values_build_no_table(self, monkeypatch, capsys):
        tables = self.counted(monkeypatch, LegTable, "at")
        assert cli_main(["verify", "nunitarity", "--case", "linear-k-N3-shift-th2"]) == 0
        assert '"verdict": "pass"' in capsys.readouterr().out
        model = gaudin.model_from_config({"case": "bcl", "z": ["1", "2", "4"]})
        assert len(gaudin.site_values(model, F(5, 3))) == 3
        assert gaudin.hamiltonian_residue(model, 2)
        assert tables == []

    @pytest.mark.parametrize("subject", ["linear-k-N3-shift-th2", "trig-3refl-poly-1", "rational-n3"])
    def test_cybe_sample_embeds_nothing_and_sums_no_products(self, monkeypatch, subject):
        # the six products of the residual are summed from the four pair-leg matrices:
        # no operator is placed on (C^n)^x3, no product_sum is taken and no n^3 x n^3
        # Matrix.__mul__ runs, under any name the package binds them to
        if subject == "rational-n3":
            evaluate = lambda *pt: cybe_residual(rational_r(3), *pt)  # noqa: E731
        else:
            _, evaluate = sampled_check(case_by_label(subject), "rbar-cybe")
        calls = [self.counted(monkeypatch, owner, name) for owner in (linalg, rmatrix, reflection)
                 for name in ("embed_pair", "product_sum") if hasattr(owner, name)]
        products = self.counted(monkeypatch, Matrix, "__mul__")
        assert evaluate(F(5, 3), F(-7, 2), F(11, 5)).is_zero()
        assert len(calls) >= 2 and not any(calls)
        assert [a.nrows for a, _ in products if a.nrows > 9] == []

    def test_nre_sample_is_one_product_sum(self, monkeypatch):
        # rbar k_a and k_a rbar are one product_sum, not two 9x9
        # Matrix.__mul__ calls and a subtraction
        _, evaluate = sampled_check(case_by_label("linear-k-N3-shift-th2"), "nre")
        products = self.counted(monkeypatch, Matrix, "__mul__")
        sums = self.counted(monkeypatch, reflection, "product_sum")
        assert evaluate(F(5, 3), F(11, 5)).is_zero()
        assert not any(isinstance(b, Matrix) and (a.nrows, b.nrows) == (9, 9) for a, b in products)
        assert len(sums) == 1

    @pytest.mark.parametrize("label", ["id-2refl", "id-3refl", "trig-3refl-id"])
    def test_identity_k_frame_multiplies_nothing(self, monkeypatch, label):
        calls = self.counted(monkeypatch, Matrix, "__mul__")
        frame = point_frame(case_by_label(label), F(5, 3))
        assert frame.scaled is frame.weights
        assert calls == []


class TestCompactAndSymmetry:
    def test_compact_identity_k(self):
        case = case_by_label("id-2refl")
        assert compact_form(case, F(1), F(0)).is_zero()
        assert nre_residual(case, F(1), F(0)).is_zero()

    def test_compact_linear_N2(self):
        case = case_by_label("linear-k-N2-diag-th2")
        assert compact_form(case, F(3), F(1)).is_zero()
        assert nre_residual(case, F(3), F(1)).is_zero()

    def test_compact_tampered_nonzero(self):
        case = tamper(case_by_label("id-2refl"), "g1-sign")
        residual = nre_residual(case, F(1), F(2))
        assert not residual.is_zero()
        assert residual == compact_form(case, F(1), F(2))

    def test_symmetry_theta_zero(self):
        case = case_by_label("linear-k-N2-diag-th0")
        assert symmetry_relation_residual(case, F(-1), F(3), F(1)).is_zero()

    def test_symmetry_theta_two_fails(self):
        case = case_by_label("linear-k-N2-diag-th2")
        assert not symmetry_relation_residual(case, F(-1), F(3), F(1)).is_zero()

    def test_symmetry_trivial(self):
        case = trivial_case()
        assert symmetry_relation_residual(case, F(1), F(2), F(5)).is_zero()

    @pytest.mark.parametrize("identity_at", ["lam", "nu"])
    def test_symmetry_conjugates_where_one_k_is_the_identity(self, identity_at):
        # k(lam) or k(nu) alone is the identity: the other still conjugates
        base = case_by_label("linear-k-N2-diag-th2")
        lam, nu = F(3), F(1, 2)
        eye = Matrix.identity(base.n)
        at = lam if identity_at == "lam" else nu
        # k(x) = 1 + (x - at) G for G = diag(1, -1)
        zero, one = RatFun.const(F(0)), F(1)
        k = KMatrix(((RatFun(Poly.linear(one, one - at)), zero), (zero, RatFun(Poly.linear(-one, one + at)))))
        case = dataclasses.replace(base, k=k)
        r, ka, kb = case.base_r, case.k(lam), case.k(nu)
        k_ab = tensor_pair(ka, kb)
        expected = r(lam, nu) - (k_ab * r(case.tau(lam), case.tau(nu)) * k_ab.inverse()).scale(F(-1))
        assert (ka == eye) != (kb == eye)
        assert symmetry_relation_residual(case, F(-1), lam, nu) == expected
        assert expected != r(lam, nu) - r(case.tau(lam), case.tau(nu)).scale(F(-1))

    def test_symmetry_omega_constraint(self):
        case = case_by_label("linear-k-N2-diag-th0")
        with pytest.raises(ConstraintError):
            symmetry_relation_residual(case, F(2), F(3), F(1))

    def test_symmetry_theta_zero_N3(self):
        case = linear_k_case(3, 0, diag_roots_G(3), g_label="diag")
        rng = SplitMix64(DEFAULT_SEED)
        samples = sample_evaluated(rng, 5, 2,
                                   lambda lam, nu: symmetry_relation_residual(case, zeta(3), lam, nu))
        assert all(residual.is_zero() for _, residual in samples)


# the identity-k rational cases at their defaults and away from them: a
# three-reflection with a^2 + ad + bc + d^2 = 0 at other rationals, one over
# Q(zeta_3) with b = 0, and a two-reflection at other rationals
IDENTITY_K = {
    "id-2refl": lambda: case_by_label("id-2refl"),
    "id-3refl": lambda: case_by_label("id-3refl"),
    "id-3refl-1,7,-1,2": lambda: identity_k_three_reflection(1, 7, -1, 2),
    "id-3refl-1,3,-1,-2": lambda: identity_k_three_reflection(1, 3, -1, -2),
    "id-3refl-zeta3,0,1,1": lambda: identity_k_three_reflection(zeta(3), 0, 1, 1),
    "id-2refl-2,5,7": lambda: identity_k_two_reflection(2, 5, 7),
}


def tau_power_derivative(case, j):
    """(tau^j)'(nu) as a rational function, from tau^j = (a_j nu + b_j)/(c_j nu + d_j)."""
    t = case.tau.iterate(j)
    return RatFun.over_linears(Poly.linear(t.a, t.b), [(t.c, t.d)]).derivative()


@pytest.mark.parametrize("build", [*IDENTITY_K.values(), trivial_case], ids=[*IDENTITY_K, "trivial"])
def test_identity_k_weights_are_derivatives_of_the_orbit(build):
    # the weights the constructors write out are g^(j) = (tau^j)'
    case = build()
    assert [tau_power_derivative(case, j) for j in range(case.N)] == list(case.weights.gs)


class TestEquivalence:
    def test_hand_checked_point(self):
        case = case_by_label("id-2refl")
        transform = equivalence_transform(case)
        assert transform.p(F(1)) - transform.p(F(0)) == F(-3, 4)
        assert transform.prefactor(F(0)) == 1
        assert equivalence_residual(case, F(1), F(0)).is_zero()

    @pytest.mark.parametrize("label,lam", [("id-2refl", F(1, 3)), ("id-3refl", F(-1)), ("id-3refl", F(1))])
    def test_reparametrization_pole_is_a_pole_error(self, label, lam):
        # lam at a pole of p: a PoleError the sampler rejects, not a bare
        # ZeroDivisionError that would end the run
        with pytest.raises(PoleError, match=f"^reparametrization has a pole at mu = {lam}$"):
            equivalence_residual(case_by_label(label), lam, F(2))

    def test_prefactor_is_derivative_of_p(self):
        # the normalization is forced by the simple pole at lam = mu
        case = case_by_label("id-3refl")
        transform = equivalence_transform(case)
        mu, h = F(7), F(1, 10**6)
        numeric = (transform.p(mu + h) - transform.p(mu - h)) / (2 * h)
        assert abs(float(numeric - transform.prefactor(mu))) < 1e-9

    @pytest.mark.parametrize("name", list(IDENTITY_K))
    def test_samples(self, name):
        # p = -(1/(N c)) sum_j tau^j holds at the defaults and at every
        # other parameter of both families, including a three-reflection
        # with b = 0
        case = IDENTITY_K[name]()
        rng = SplitMix64(DEFAULT_SEED)
        samples = sample_evaluated(rng, 10, 2, lambda lam, mu: equivalence_residual(case, lam, mu))
        assert all(residual.is_zero() for _, residual in samples)

    def test_transform_is_built_once_on_the_first_sample(self, monkeypatch):
        case = case_by_label("id-3refl")
        calls = []
        original = reflection.equivalence_transform
        monkeypatch.setattr(reflection, "equivalence_transform", lambda case: calls.append(case) or original(case))
        _, evaluate = sampled_check(case, "equivalence")
        assert calls == []
        rng = SplitMix64(DEFAULT_SEED)
        assert len(list(sample_evaluated(rng, 10, 2, evaluate))) == 10
        assert calls == [case]

    def test_c_zero_unsupported(self):
        case = identity_k_two_reflection(1, 0, 0)
        with pytest.raises(UnsupportedCaseError, match="c != 0"):
            equivalence_transform(case)


class TestCatalogConstruction:
    def test_three_reflection_constraint(self):
        with pytest.raises(ConstraintError, match="a\\^2"):
            identity_k_three_reflection(1, 3, 0, 1)

    def test_linear_k_validates_G(self):
        bad = Matrix([[F(1), F(1)], [F(0), F(1)]])
        with pytest.raises(ConstraintError):
            linear_k_case(2, 0, bad)

    @pytest.mark.parametrize("theta", [0, 2])
    @pytest.mark.parametrize("G", [cyclic_shift_G(3), diag_roots_G(3)], ids=["shift", "diag"])
    def test_linear_k_is_theta_one_plus_nu_G(self, theta, G):
        """k(nu) holds the data of theta 1 + nu G, at rational, zero and
        Q(zeta_3) points."""
        k, eye = linear_k_case(3, theta, G).k, Matrix.identity(3)
        for nu in (F(0), F(3, 7), F(2, 5) * zeta(3)):
            want = eye.scale(F(theta)) + G.scale(nu)
            got = k(nu)
            assert (got._order, got._den, got._sparse) == (want._order, want._den, want._sparse)

    def test_trig_solutions_pass(self):
        for label in ("trig-2refl-id", "trig-2refl-tau"):
            case = case_by_label(label)
            for _, residual in seeded_residuals(case, count=5):
                assert residual.is_zero()

    def test_trig3_candidate_scorecard(self):
        # five of the six cataloged diagonal candidates solve the residual
        passing = []
        for kind in ("id", "tau-nu", "tau2-nu", "tau-tau2", "poly-1", "poly-2"):
            case = trig_three_reflection(which=kind)
            ok = all(residual.is_zero() for _, residual in seeded_residuals(case, count=5))
            passing.append((kind, ok))
        assert passing == [("id", True), ("tau-nu", True), ("tau2-nu", True),
                           ("tau-tau2", True), ("poly-1", True), ("poly-2", False)]

    def test_catalog_enumeration(self):
        cases = catalog()
        assert len(cases) == len(CATALOG)
        assert sorted(c.label for c in cases) == sorted(CATALOG)

    def test_unknown_label(self):
        with pytest.raises(ConstraintError, match="unknown catalog case"):
            case_by_label("nope")

    def test_weights_start_at_one(self):
        for case in catalog():
            assert case.weights.gs[0] == RatFun.const(F(1))
