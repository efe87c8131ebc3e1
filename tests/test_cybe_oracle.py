"""``cybe_residual`` against the classical Yang-Baxter residual by its definition.

The oracle places r on the factors of (C^n)^x3 and computes

    [r_ab(l,m), r_ac(l,n)] + [r_ab(l,m), r_bc(m,n)] - [r_ac(l,n), r_cb(n,m)]

with six ``Matrix.__mul__`` products, two sums and three differences,
term by term, whatever ``cybe_residual`` does to save work.  The two must
be the same matrix at seeded points for the base r-matrices, for the
induced rbar of every cataloged case and for subjects whose residual is
not zero (two g1-sign tampers and the candidate ``trig-3refl-poly-2``),
since a residual that vanishes hides a wrong sign or a dropped term.
"""

from fractions import Fraction
from math import isqrt

import pytest

from nreflect import rmatrix, scalars
from nreflect.errors import OrderMismatchError, ShapeError
from nreflect.linalg import Matrix, embed_pair, swap_pair
from nreflect.reflection import CATALOG, build_rbar, case_by_label, tamper
from nreflect.rmatrix import cybe_residual, rational_r, trig_r
from nreflect.sampling import SplitMix64, sample_evaluated
from nreflect.scalars import cyclotomic, euler_phi, zeta
from nreflect.spinalg import s_z

POINTS = 3
SEED = 0xCB


def by_definition(r, lam, mu, nu):
    r_ab = embed_pair(r(lam, mu), "ab")
    r_ac = embed_pair(r(lam, nu), "ac")
    r_bc = embed_pair(r(mu, nu), "bc")
    r_cb = embed_pair(r(nu, mu), "cb")
    return (r_ab * r_ac - r_ac * r_ab) + (r_ab * r_bc - r_bc * r_ab) - (r_ac * r_cb - r_cb * r_ac)


def compared(r):
    """(oracle, cybe_residual) at POINTS seeded points where r has no pole."""
    evaluate = lambda lam, mu, nu: (by_definition(r, lam, mu, nu), cybe_residual(r, lam, mu, nu))
    return [pair for _, pair in sample_evaluated(SplitMix64(SEED), POINTS, 3, evaluate)]


SOLUTIONS = {
    "rational-n2": lambda: rational_r(2),
    "rational-n3": lambda: rational_r(3),
    "trig": trig_r,
    **{f"rbar[{label}]": (lambda label=label: build_rbar(case_by_label(label))) for label in sorted(CATALOG)},
    "rbar[id-3refl-n3]": lambda: build_rbar(case_by_label("id-3refl", {"n": 3})),
}

NONZERO = {
    "rbar[linear-k-N3-shift-th2-g1-sign]": lambda: build_rbar(tamper(case_by_label("linear-k-N3-shift-th2"), "g1-sign")),
    "rbar[id-2refl-g1-sign]": lambda: build_rbar(tamper(case_by_label("id-2refl"), "g1-sign")),
    "rbar[trig-3refl-poly-2]": lambda: build_rbar(case_by_label("trig-3refl-poly-2")),
}


@pytest.mark.parametrize("name", sorted(SOLUTIONS))
def test_residual_is_the_definition(name):
    for oracle, residual in compared(SOLUTIONS[name]()):
        assert residual == oracle


@pytest.mark.parametrize("name", sorted(NONZERO))
def test_nonzero_residual_is_the_definition(name):
    pairs = compared(NONZERO[name]())
    assert all(not oracle.is_zero() for oracle, _ in pairs)
    for oracle, residual in pairs:
        assert residual == oracle


def count_reads(monkeypatch):
    """A list that gets one entry per CYBE kernel call: the sizes in bytes of
    the calls that the kernel makes to the shared read-back ``scalars._unpack``
    (the compile of k reads back through it too)."""
    reads, inside, kernel, unpack = [], [], rmatrix._cybe_kernel, scalars._unpack

    def counted_kernel(*ms):
        reads.append([])
        inside.append(True)
        try:
            return kernel(*ms)
        finally:
            inside.pop()

    def counted_unpack(values, width, count):
        if inside:
            reads[-1].append(len(values) * count * width // 8)
        return unpack(values, width, count)

    monkeypatch.setattr(rmatrix, "_cybe_kernel", counted_kernel)
    monkeypatch.setattr(scalars, "_unpack", counted_unpack)
    return reads


@pytest.mark.parametrize("name", ["rational-n3", "trig", "rbar[linear-k-N3-shift-th2]", "rbar[id-2refl-g1-sign]"])
def test_only_nonzero_sums_are_read_back(monkeypatch, name):
    # a sum that is 0, or folds to 0 mod Phi_N, is not read back: a vanishing
    # residual reads back no bytes, over Q and over Q(zeta_3), and a nonzero one
    # reads some
    reads = count_reads(monkeypatch)
    pairs = compared({**SOLUTIONS, **NONZERO}[name]())
    assert len(reads) == POINTS
    for (oracle, residual), read in zip(pairs, reads):
        assert residual == oracle and bool(sum(read)) == (not oracle.is_zero())


@pytest.mark.parametrize("read_bytes", [1, 100, 1000])
@pytest.mark.parametrize("name", sorted(NONZERO))
def test_batched_read_back_is_the_definition(monkeypatch, name, read_bytes):
    # read-back batches of one sum, of a few and of many sums each give the residual
    monkeypatch.setattr(rmatrix, "READ_BYTES", read_bytes)
    for oracle, residual in compared(NONZERO[name]()):
        assert residual == oracle


def test_read_back_is_bounded_by_read_bytes(monkeypatch):
    # the tampered id-2refl at n = 8 keeps sums whose read-back takes several batches,
    # and no call to the shared read-back receives more than READ_BYTES
    reads = count_reads(monkeypatch)
    r = build_rbar(tamper(case_by_label("id-2refl", {"n": 8}), "g1-sign"))
    assert not cybe_residual(r, Fraction(1, 3), Fraction(-2), Fraction(5, 7)).is_zero()
    (read,) = reads
    assert len(read) > 1 and max(read) <= rmatrix.READ_BYTES


# ---------------------------------------------------------------------------
# the kernel at its edges: four fixed pair-leg matrices A, B, C, D
# ---------------------------------------------------------------------------

def frozen(a, b, c, d):
    """An r that returns A, B, C and D at (1, 2), (1, 3), (2, 3) and (3, 2),
    the four pairs the residual at (1, 2, 3) reads."""
    values = {(1, 2): a, (1, 3): b, (2, 3): c, (3, 2): d}
    return lambda x, y: values[x, y]


def kernel_and_oracle(a, b, c, d):
    r = frozen(a, b, c, d)
    return cybe_residual(r, 1, 2, 3), by_definition(r, 1, 2, 3)


# signs of A, B, C and D on C^2 x C^2 under which all twelve products that
# entry (000, 111) of the residual sums have the sign +
SIGNS = (((1, -1, -1, 1), (1, 1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1)),
         ((1, -1, -1, -1), (1, 1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1)),
         ((1, -1, 1, -1), (1, 1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1)),
         ((1, -1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1)))


@pytest.mark.parametrize("order", [1, 3, 5])
@pytest.mark.parametrize("bits", [63, 64, 127, 128])
@pytest.mark.parametrize("sign", [1, -1])
def test_width_bound_is_reached_at_a_full_slot(order, bits, sign):
    # every entry is +-t, over Q(zeta_N) +-t (1 + zeta + ... + zeta^(phi-1)), so the
    # bound 2 phi n sum |f| top top' is 12 phi t^2 at n = 2, and the width holds it
    # times the fold factor 1 + max_u sum_t |row_t[u]| of x^t = sum_u row_t[u] x^u
    # mod Phi_N: 1 over Q, 2 over Q(zeta_3) (x^2 = -1 - x), 3 over Q(zeta_5) (x^4 =
    # -1 - x - x^2 - x^3, x^5 = 1).  t makes that product exactly `bits` bits, so the
    # width with its sign bit is 64, 65, 128 and 129, and the 65- and 129-bit widths
    # take two and three limbs.  Over Q, entry (000, 111) sums its twelve products
    # with one sign, so its digit is the bound itself: the 64- and 128-bit slots are
    # full up to their sign bit, and a width without its sign bit fails.
    # (-A, B, C, -D) negates the residual
    phi, fold = euler_phi(order), {1: 1, 3: 2, 5: 3}[order]
    t = isqrt((2**bits - 1) // (12 * phi * fold))
    assert (12 * phi * fold * t * t).bit_length() == bits
    unit = Fraction(t) if order == 1 else cyclotomic(order, [t] * phi)
    a, b, c, d = (Matrix([[s * unit for s in row] for row in rows]) for rows in SIGNS)
    residual, oracle = kernel_and_oracle(a.scale(sign), b, c, d.scale(sign))
    assert residual == oracle
    assert oracle[0, 7] == sign * 12 * unit * unit



def test_folded_coordinate_past_the_digit_bound():
    # over Q(zeta_3) with every entry +-t (1 - zeta), entry (000, 111) sums twelve
    # products t^2 (1 - zeta)^2 = -3 t^2 zeta with one sign: its digits 12 t^2 (1, -2, 1)
    # stay within the bound 2 phi n sum |f| top top' = 24 t^2, and its folded
    # coordinate -36 t^2 is 1.5 times the bound.  t puts the bound at 63 bits and the
    # coordinate at 64, so the fold needs the 128-bit slot that the fold factor 2 gives
    t = isqrt((2**63 - 1) // 24)
    assert (24 * t * t).bit_length() == 63 and (36 * t * t).bit_length() == 64
    unit = cyclotomic(3, [t, -t])
    a, b, c, d = (Matrix([[s * unit for s in row] for row in rows]) for rows in SIGNS)
    residual, oracle = kernel_and_oracle(a, b, c, d)
    assert residual == oracle
    assert oracle[0, 7] == 12 * unit * unit == cyclotomic(3, [0, -36 * t * t])

MIXED = ([[Fraction(1, 2), 0, Fraction(-3), 0], [0, 1, 0, Fraction(2, 7)], [Fraction(5, 3), 0, 0, 1],
          [0, Fraction(-1, 4), 1, 0]],
         [[zeta(3), 0, Fraction(1, 3), 0], [0, 0, 1 - zeta(3), 0], [0, Fraction(2, 5), 0, 0],
          [zeta(3) / 7, 0, 0, Fraction(-1)]],
         [[0, 1, 0, zeta(3, 2)], [Fraction(3, 2), 0, 0, 0], [0, 0, zeta(3) * 4, 1], [1, 0, 0, 0]],
         [[1, 0, 0, 0], [0, zeta(3), 0, Fraction(1, 9)], [0, 0, 0, -zeta(3)], [Fraction(7, 2), 0, 1, 0]])


def test_rational_operand_among_cyclotomic_ones():
    # one operand over Q (MIXED[0]) and three over Q(zeta_3), the rational one in each position
    rational, cyclotomics = Matrix(MIXED[0]), [Matrix(rows) for rows in MIXED[1:]]
    assert rational._order == 1 and {m._order for m in cyclotomics} == {3}
    for position in range(4):
        ms = cyclotomics[:position] + [rational] + cyclotomics[position:]
        residual, oracle = kernel_and_oracle(*ms)
        assert not oracle.is_zero() and residual == oracle


def test_zero_operands():
    zero = Matrix([[0] * 4 for _ in range(4)])
    ms = [Matrix(rows) for rows in MIXED]
    for i in range(4):
        residual, oracle = kernel_and_oracle(*(zero if j == i else m for j, m in enumerate(ms)))
        assert residual == oracle
    residual, oracle = kernel_and_oracle(zero, zero, zero, zero)
    assert residual.is_zero() and residual == oracle and (residual.nrows, residual.ncols) == (8, 8)


@pytest.mark.parametrize("values", [(Fraction(2), Fraction(-1, 3), zeta(3), Fraction(5)),
                                    (0, Fraction(1, 2), 0, 1)])
def test_one_dimensional_factors(values):
    # on C^1 every operator is a scalar, and the six products cancel
    residual, oracle = kernel_and_oracle(*(Matrix([[v]]) for v in values))
    assert residual == oracle and residual.is_zero() and (residual.nrows, residual.ncols) == (1, 1)


def test_refusals():
    ms = [Matrix(rows) for rows in MIXED]
    # no pair-leg matrix of ring entries reaches the kernel: Matrix refuses it
    with pytest.raises(TypeError, match="^Matrix needs exact scalar entries of one field$"):
        Matrix([[s_z(1) if (i, j) == (1, 2) else int(i == j) for j in range(4)] for i in range(4)])
    for i in range(4):
        fourth = Matrix([[zeta(4) if (r, c) == (i, 3 - i) else 0 for c in range(4)] for r in range(4)])
        with pytest.raises(OrderMismatchError):
            cybe_residual(frozen(*(fourth if j == i else m for j, m in enumerate(ms))), 1, 2, 3)
        for odd in (Matrix.identity(3), Matrix.identity(9), Matrix([[1, 0, 0, 0]] * 2)):
            with pytest.raises(ShapeError):
                cybe_residual(frozen(*(odd if j == i else m for j, m in enumerate(ms))), 1, 2, 3)


@pytest.mark.parametrize("order", [4, 5, 8, 12])
def test_other_cyclotomic_fields(order):
    # a solution scaled by w = 1 + 2 zeta + 3 zeta^2 + ...: its residual is w^2 times
    # 0, while its sums before the fold mod Phi_N are not 0; and operands that are
    # rational matrices times distinct powers of zeta, whose residual is not 0
    w = cyclotomic(order, range(1, euler_phi(order) + 1))
    for r in (rational_r(2), rational_r(3), trig_r()):
        scaled = lambda x, y, r=r: r(x, y).scale(w)
        residual, oracle = (f(scaled, Fraction(5, 3), Fraction(-7, 2), Fraction(11, 5))
                            for f in (cybe_residual, by_definition))
        assert residual.is_zero() and residual == oracle
    ms = [Matrix(MIXED[0]).scale(zeta(order, power) * (power + 1)) for power in range(4)]
    residual, oracle = kernel_and_oracle(ms[0], swap_pair(ms[1]), ms[2], swap_pair(ms[3]) + ms[0])
    assert not oracle.is_zero() and residual == oracle
