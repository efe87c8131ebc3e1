from fractions import Fraction

import pytest

from nreflect.errors import ShapeError, SingularMatrixError
from nreflect.linalg import (
    Matrix,
    commutator,
    embed_pair,
    partial_trace,
    permutation_operator,
    swap_pair,
    tensor_pair,
)
from nreflect.reflection import build_rbar, case_by_label
from nreflect.rmatrix import RMatrixFun, cybe_residual, rational_r
from nreflect.sampling import SplitMix64
from nreflect.scalars import Cyclotomic, zeta


def frac_matrix(rows):
    return Matrix([[Fraction(x) for x in row] for row in rows])


class TestPermutationOperator:
    def test_n2_basis_action(self):
        # P sends basis column (1,2,3,4) slots to (1,3,2,4)
        p = permutation_operator(2)
        expected = frac_matrix([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
        assert p == expected

    def test_involution(self):
        for n in (2, 3):
            p = permutation_operator(n)
            assert p * p == Matrix.identity(n * n)

    def test_trace_is_n(self):
        assert permutation_operator(3).trace() == 3


class TestEmbedPair:
    def test_identity_anywhere(self):
        eye = Matrix.identity(4)
        for placement in ("ab", "ac", "bc", "ba", "ca", "cb"):
            assert embed_pair(eye, placement) == Matrix.identity(8)

    def test_ab_is_kron_with_identity(self):
        p = permutation_operator(2)
        assert embed_pair(p, "ab") == p.kron(Matrix.identity(2))

    def test_ac_matches_index_oracle(self):
        # oracle: conjugate the bc-embedding by the ab-swap, i.e.
        # (P x 1)(1 x P)(P x 1), checked entry by entry on all 8 basis vectors
        p = permutation_operator(2)
        eye2 = Matrix.identity(2)
        swap_ab = p.kron(eye2)
        oracle = swap_ab * eye2.kron(p) * swap_ab
        assert embed_pair(p, "ac") == oracle

    def test_reversed_placement(self):
        rng = SplitMix64(7)
        m = frac_matrix([[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)])
        assert embed_pair(m, "ba") == embed_pair(swap_pair(m), "ab")

    def test_composition(self):
        rng = SplitMix64(13)
        a = Matrix([[Fraction(rng.randint(-5, 5)) for _ in range(4)] for _ in range(4)])
        b = Matrix([[Fraction(rng.randint(-5, 5)) for _ in range(4)] for _ in range(4)])
        for placement in ("ab", "ac", "cb"):
            assert embed_pair(a * b, placement) == embed_pair(a, placement) * embed_pair(b, placement)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            embed_pair(Matrix.identity(3), "ab")


class TestMatrixAlgebra:
    def test_commutator_with_self(self):
        m = frac_matrix([[1, 2], [3, 4]])
        assert commutator(m, m).is_zero()

    def test_partial_trace_of_permutation(self):
        # brute-force oracle: sum_i (e_i^T x 1) P (e_i x 1)
        p = permutation_operator(2)
        n = 2
        oracle = [[sum(p[(i * n + r, i * n + c)] for i in range(n)) for c in range(n)] for r in range(n)]
        assert partial_trace(p, "a") == Matrix(oracle)
        assert partial_trace(p, "a") == Matrix.identity(2)

    def test_partial_trace_of_tensor(self):
        a = frac_matrix([[1, 2], [3, 5]])
        b = frac_matrix([[7, 0], [1, 4]])
        ab = tensor_pair(a, b)
        assert partial_trace(ab, "b") == a.scale(b.trace())
        assert partial_trace(ab, "a") == b.scale(a.trace())

    @pytest.mark.parametrize("op", [swap_pair, lambda m: partial_trace(m, "a")])
    @pytest.mark.parametrize("shape", [(3, 3), (2, 3)])
    def test_pair_leg_ops_need_square_of_square(self, op, shape):
        # the factor size n comes from the shape: 3x3 and 2x3 are no n^2 x n^2
        with pytest.raises(ShapeError, match="n\\^2 x n\\^2"):
            op(Matrix([[Fraction(1)] * shape[1]] * shape[0]))

    def test_a_basis_table_needs_a_pair_leg_matrix(self):
        for shape in ((3, 3), (2, 3)):
            with pytest.raises(ShapeError, match="n\\^2 x n\\^2"):
                RMatrixFun("rational", "not pair-leg", None, (Matrix([[Fraction(1)] * shape[1]] * shape[0]),)).table
        assert rational_r(2).table.table.terms == 1

    def test_inverse_and_product_rule(self):
        rng = SplitMix64(2024)

        def invertible():
            while True:
                m = frac_matrix([[rng.randint(-6, 6) for _ in range(3)] for _ in range(3)])
                try:
                    m.inverse()
                except SingularMatrixError:
                    continue
                return m

        for _ in range(10):
            a, b = invertible(), invertible()
            assert (a * b).inverse() == b.inverse() * a.inverse()
            assert a * a.inverse() == Matrix.identity(3)

    def test_singular_inverse_names_matrix(self):
        singular = frac_matrix([[1, 2], [2, 4]])
        with pytest.raises(SingularMatrixError, match="k-matrix"):
            singular.inverse(label="k-matrix")

    def test_power(self):
        m = frac_matrix([[0, 1], [1, 0]])
        assert m**2 == Matrix.identity(2)
        assert m**-1 == m
        assert frac_matrix([[1, 2], [3, 4]]) ** 0 == Matrix.identity(2)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_power_is_repeated_product(self, k):
        m = frac_matrix([[1, 2, 0], [Fraction(-1, 3), 0, 5], [2, 1, 1]])
        product = m
        for _ in range(k - 1):
            product = product * m
        assert m**k == product

    @pytest.mark.parametrize("k,from_identity", [(1, 1), (2, 2), (3, 3), (4, 3), (5, 4), (8, 4)])
    def test_power_squares_only_while_bits_remain(self, monkeypatch, k, from_identity):
        # square-and-multiply from the identity makes one product per set bit
        # and one squaring per later bit, none past the top bit; starting
        # from the base saves the first product
        count = []
        multiply = Matrix.__mul__

        def counted(self, other):
            count.append(1)
            return multiply(self, other)

        monkeypatch.setattr(Matrix, "__mul__", counted)
        frac_matrix([[1, 2], [3, 4]]) ** k
        assert len(count) == from_identity - 1

    def test_pretty(self):
        text = frac_matrix([[1, -2], [Fraction(1, 3), 0]]).pretty()
        assert "1/3" in text and "-2" in text


class TestIntegerFormCounts:
    """The 27x27 products of a CYBE residual over Q(zeta_3) run on the
    integer form: they build no Cyclotomic per multiply-add.  A matrix that
    fell back to the entrywise path would multiply and add Cyclotomics."""

    def test_rbar_cybe_products_make_no_cyclotomic_operation(self, monkeypatch):
        rbar = build_rbar(case_by_label("linear-k-N3-shift-th2"))
        lam, mu, nu = Fraction(5, 3), Fraction(-7, 2), Fraction(11, 5)
        values = {pair: rbar(*pair) for pair in ((lam, mu), (lam, nu), (mu, nu), (nu, mu))}
        assert any(isinstance(v, Cyclotomic) for row in values[lam, mu].rows for v in row)
        frozen = lambda x, y: values[x, y]  # noqa: E731

        calls = []
        for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
            original = getattr(Cyclotomic, name)

            def counted(self, other, original=original, name=name):
                calls.append(name)
                return original(self, other)

            monkeypatch.setattr(Cyclotomic, name, counted)
        residual = cybe_residual(frozen, lam, mu, nu)
        assert residual.nrows == 27 and residual.is_zero()
        assert calls == []
        zeta(3) * zeta(3)  # the counter sees a Cyclotomic product
        assert calls == ["__mul__"]
