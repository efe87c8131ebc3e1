"""Commutative polynomials in classical spin variables with the su(2)
Lie-Poisson bracket, extended to products by the Leibniz rule:

    {s_j^+, s_k^-} = delta_jk s_j^z,   {s_j^z, s_k^+-} = +-2 delta_jk s_j^+-

Spins are independent commuting coordinates; no reality condition ties
s^+ to s^-.  A polynomial does not know how many sites it lives on.

A monomial's key is one packed int (Monagan & Pearce, "Polynomial division
using dynamic arrays, heaps, and packed exponent vectors", CASC 2007): the
exponent of flat variable i (s_1^+, s_1^-, s_1^z, s_2^+, ... numbered from
0) fills the byte at bit WIDTH * i, so the constant key is 0, a monomial
product is one integer add and d/dx_i subtracts 1 << WIDTH * i.  The top
bit of each byte is a guard: exponents stay at most MAX_EXPONENT, so a sum
of two never carries into the next variable, and a product or bracket that
reaches a guard bit raises DegreeError.  Only this module reads the keys;
:meth:`SpinPoly.monomials` gives everyone else exponent tuples.

Coefficients are exact and kept as FLINT's ``fmpq_poly`` keeps them:
integer numerators under the keys over one positive common denominator,
in lowest terms.  Over Q a numerator is an int; over Q(zeta_N) it is the
tuple of its phi(N) power-basis coordinates, and a polynomial whose
coordinates are all rational is held over Q, so equal polynomials have
equal data.  Every operation runs on the integers with one lcm of the
denominators and one gcd normalization; over Q(zeta_N) a product packs
each numerator vector into one int (Kronecker substitution, as
:func:`nreflect.linalg.product_sum` does) and folds each sum mod Phi_N
once.  Canonical ``Fraction``/``Cyclotomic`` coefficients are built only
where they are read: :meth:`SpinPoly.monomials` and ``str``.

:func:`partials` differentiates a polynomial by every variable in one pass
over its terms, and :func:`bracket_partials` combines two such sets of
partials by the Leibniz rule into one accumulator.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import lcm
from operator import add, or_

from .errors import DegreeError
from .scalars import (ONE, ZERO, Cyclotomic, _canonical, _content, _mul_reduce, _one_field, _pack, _power, _ring,
                      as_scalar, euler_phi)

KINDS = ("+", "-", "z")
HALF = Fraction(1, 2)
WIDTH = 8  # bits per variable: one byte, so bytes unpack a key
MASK = (1 << WIDTH) - 1
MAX_EXPONENT = MASK >> 1  # the top bit of each field is the carry guard
_EXACT = (int, Fraction, Cyclotomic)


def var_index(j: int, kind: str) -> int:
    """Flat index of generator s_j^kind; sites are 1-based."""
    return 3 * (j - 1) + KINDS.index(kind)


def var_name(index: int) -> str:
    j, k = divmod(index, 3)
    return f"s{j + 1}{KINDS[k]}"


def _wrap(order: int, den: int, terms: dict) -> "SpinPoly":
    """The polynomial of the nonzero numerators ``terms`` over ``den``, as
    given: no copy and no normalization."""
    poly = object.__new__(SpinPoly)
    poly.order, poly.den, poly.terms = order, den, terms
    return poly


def _poly(order: int, den: int, terms: dict) -> "SpinPoly":
    """The polynomial of the nonzero numerators ``terms`` over den > 0 in
    lowest terms: held over Q where every coordinate past the first is 0,
    and den and the numerators divided by their gcd."""
    if order != 1 and not any(any(vec[1:]) for vec in terms.values()):
        order, terms = 1, {key: vec[0] for key, vec in terms.items()}
    g = _content(den, (zip(terms.values()) if order == 1 else terms.values(),))  # over Q, 1-tuples
    if g != 1:
        den //= g
        if order == 1:
            terms = {key: c // g for key, c in terms.items()}
        else:
            terms = {key: tuple(c // g for c in vec) for key, vec in terms.items()}
    return _wrap(order, den, terms)


def _parts(s) -> tuple:
    """(order, numerator, denominator) of an exact scalar: an int numerator
    over Q, the numerator vector of a Cyclotomic."""
    if type(s) is Cyclotomic:
        return s.order, s.num, s.den
    return 1, s.numerator, s.denominator


def _vectors(poly: "SpinPoly", order: int) -> dict:
    """The numerators of ``poly`` as vectors of Q(zeta_order), for order > 1."""
    if poly.order == order:
        return poly.terms
    pad = (0,) * (euler_phi(order) - 1)
    return {key: (c,) + pad for key, c in poly.terms.items()}


def _combination(pairs) -> "SpinPoly":
    """sum c * p over the (exact scalar c, SpinPoly p) pairs in one pass: one
    lcm of the denominators, each scalar folded into the numerators, one
    normalization."""
    parts, order = [], 1
    for c, poly in pairs:
        kind, num, den = _parts(c)
        if num and poly.terms:
            order = _one_field(order, kind, poly.order)
            parts.append((num, den * poly.den, poly))
    den = lcm(*(d for _, d, _ in parts))
    acc = {}
    if order == 1:
        for num, d, poly in parts:
            factor = num * (den // d)
            for key, c in poly.terms.items():
                acc[key] = acc.get(key, 0) + c * factor
        return _poly(1, den, {key: c for key, c in acc.items() if c})
    for num, d, poly in parts:
        vectors = _vectors(poly, order).items()
        if type(num) is int:
            factor = num * (den // d)
            scaled = ((key, [x * factor for x in vec]) for key, vec in vectors)
        else:
            factor = [x * (den // d) for x in num]
            scaled = ((key, _mul_reduce(order, vec, factor)) for key, vec in vectors)
        for key, vec in scaled:
            old = acc.get(key)
            acc[key] = tuple(vec) if old is None else tuple(map(add, old, vec))
    return _poly(order, den, {key: vec for key, vec in acc.items() if any(vec)})


def _product_sum(quads) -> "SpinPoly":
    """sum scale * x^shift * left * right over the (scale, shift, left,
    right) quads, x^shift the monomial of packed key ``shift``, in one
    pass over one denominator, the lcm of the left operands' denominators
    times that of the right ones': each term of the shorter operand of a
    quad is multiplied once by the scale and both operands' factors to
    it, the integer products are accumulated in one dict, and the sum is
    normalized once.  Over Q(zeta_N) each numerator vector is packed into
    one int of the shared ring (:func:`~nreflect.scalars._ring`), its digit
    bound phi(N) times the factors and the sums of the largest coordinates
    of left and right, and the sums are folded mod Phi_N and read back at
    once.  Raises DegreeError where an exponent reaches its field's guard
    bit."""
    live, left_dens, right_dens, orders = [], set(), set(), set()
    for quad in quads:
        left, right = quad[2], quad[3]
        if left.terms and right.terms:
            live.append(quad)
            left_dens.add(left.den)
            right_dens.add(right.den)
            orders.update((left.order, right.order))
    order = _one_field(*orders)
    dl, dr = lcm(*left_dens), lcm(*right_dens)
    left_share, right_share = {d: dl // d for d in left_dens}, {d: dr // d for d in right_dens}
    scaled = [(scale * left_share[left.den] * right_share[right.den], shift, left.terms, right.terms)
              for scale, shift, left, right in live]
    if order != 1:
        operands = {id(terms): terms for quad in scaled for terms in quad[2:]}
        top = {key: sum(max(map(abs, c)) if type(c) is tuple else abs(c) for c in terms.values())
               for key, terms in operands.items()}
        ring = _ring(order, euler_phi(order) * sum(abs(factor) * top[id(lt)] * top[id(rt)]
                                                   for factor, _, lt, rt in scaled))
        packed = {key: {k: _pack(c, ring.width) if type(c) is tuple else c for k, c in terms.items()}
                  for key, terms in operands.items()}
        scaled = [(factor, shift, packed[id(lt)], packed[id(rt)]) for factor, shift, lt, rt in scaled]
    acc = {}
    get = acc.get
    for factor, shift, left, right in scaled:
        if len(left) > len(right):  # the shift and the factor go on the shorter side
            left, right = right, left
        right = right.items()
        for k1, c1 in left.items():
            k1 += shift
            c1 *= factor
            for k2, c2 in right:
                key = k1 + k2
                acc[key] = get(key, 0) + c1 * c2
    if order == 1:
        terms = {key: c for key, c in acc.items() if c}
    else:
        keys = list(acc)
        terms = {keys[g]: vec for g, vec in ring.vectors([ring.fold(c) for c in acc.values()]).items()}
    bits = reduce(or_, terms, 0)
    over = bits & int.from_bytes(bytes([MAX_EXPONENT + 1]) * ((bits.bit_length() + 7) // 8), "little")
    if over:
        name = var_name(((over & -over).bit_length() - 1) // WIDTH)
        raise DegreeError(f"an exponent of {name} exceeds {MAX_EXPONENT}, the most a packed monomial holds")
    return _poly(order, dl * dr, terms)


class SpinPoly:
    """Sparse polynomial: ``terms`` maps a packed monomial key to a nonzero
    integer numerator (a tuple of phi(N) ints when ``order`` is N > 1),
    over the positive common denominator ``den``.  ``SpinPoly()`` is 0."""

    __slots__ = ("terms", "den", "order")

    def __init__(self):
        self.terms, self.den, self.order = {}, 1, 1

    # -- constructors --------------------------------------------------------

    @staticmethod
    def const(value) -> "SpinPoly":
        order, num, den = _parts(as_scalar(value))
        return _wrap(order, den, {0: num} if num else {})

    @staticmethod
    def generator(j: int, kind: str) -> "SpinPoly":
        if j < 1:
            raise IndexError(f"site {j} out of range: sites are numbered from 1")
        return _wrap(1, 1, {1 << WIDTH * var_index(j, kind): 1})

    # -- ring structure --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, SpinPoly):
            if not isinstance(other, _EXACT):
                return NotImplemented
            other = SpinPoly.const(other)
        return _combination(((1, self), (1, other)))

    __radd__ = __add__

    def __neg__(self):
        return _combination(((-1, self),))

    def __sub__(self, other):
        if isinstance(other, SpinPoly):
            return _combination(((1, self), (-1, other)))
        return self + SpinPoly.const(-as_scalar(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, SpinPoly):
            if isinstance(other, _EXACT):
                return _combination(((other, self),))
            return NotImplemented
        return _product_sum(((1, 0, self, other),))

    def __rmul__(self, other):
        if isinstance(other, _EXACT):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, _EXACT):
            if not other:
                raise ZeroDivisionError("division of a spin polynomial by zero")
            return self * (other.inverse() if type(other) is Cyclotomic else 1 / Fraction(other))
        return NotImplemented

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError(f"a spin polynomial has no inverse, so no power {exponent}")
        return _power(self, exponent) if exponent else SpinPoly.const(ONE)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, SpinPoly):
            # both in lowest terms, over Q where they can be: equal values, equal data
            return self.den == other.den and self.order == other.order and self.terms == other.terms
        if isinstance(other, _EXACT):
            return self == SpinPoly.const(other)
        return NotImplemented

    def __hash__(self):
        if not self.terms.keys() - {0}:  # a constant equals its scalar, so it hashes as that
            return hash(self.monomials()[0][1] if self.terms else ZERO)
        return hash((self.den, frozenset(self.terms.items())))

    def is_zero(self):
        return not self.terms

    # -- reading ------------------------------------------------------------------

    def monomials(self) -> list:
        """(exponent tuple over the flat variables, coefficient) for every
        term, the tuple without trailing zeros (so the constant's is ()),
        sorted as the zero-padded tuples sort.  The coefficients are
        canonical ``Fraction``s and ``Cyclotomic``s, built on each read."""
        order, den = self.order, self.den
        return sorted((tuple(key.to_bytes((key.bit_length() + 7) // 8, "little")),
                       Fraction(c, den) if order == 1 else _canonical(order, c, den))
                      for key, c in self.terms.items())

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for expo, coeff in sorted(self.monomials(), key=lambda term: -sum(term[0])):
            factors = []
            for idx, e in enumerate(expo):
                if e:
                    factors.append(var_name(idx) if e == 1 else f"{var_name(idx)}^{e}")
            body = "*".join(factors)
            cs = str(coeff)
            if body:
                if type(coeff) is Cyclotomic and sum(1 for c in coeff.num if c) > 1:
                    cs = f"({cs})"  # a sum of powers of z multiplies the monomial as one factor
                parts.append(body if cs == "1" else (f"-{body}" if cs == "-1" else f"{cs}*{body}"))
            else:
                parts.append(cs)
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"SpinPoly({self})"


def s_plus(j: int) -> SpinPoly:
    return SpinPoly.generator(j, "+")


def s_minus(j: int) -> SpinPoly:
    return SpinPoly.generator(j, "-")


def s_z(j: int) -> SpinPoly:
    return SpinPoly.generator(j, "z")


def casimir(j: int) -> SpinPoly:
    """(1/2)(s_j^z)^2 + 2 s_j^+ s_j^-; central for the bracket."""
    return HALF * s_z(j) ** 2 + 2 * s_plus(j) * s_minus(j)


def s_pair(i: int, k: int) -> SpinPoly:
    """S_ik = s_i^z s_k^z / 2 + s_i^+ s_k^- + s_i^- s_k^+, the coupling
    tr(ell_i ell_k) of the spin blocks of sites i and k, built from its
    keys; S_ii is the Casimir."""
    if i == k:
        return casimir(i)
    up_i, up_k = (next(iter(s_plus(j).terms)) for j in (i, k))
    return _wrap(1, 2, {(up_i + up_k) << 2 * WIDTH: 1, up_i + (up_k << WIDTH): 2, (up_i << WIDTH) + up_k: 2})


def partials(f) -> dict:
    """Site j -> (df/ds_j^+, df/ds_j^-, df/ds_j^z) for every site f depends
    on, in one pass over the terms of f; a scalar has none."""
    if not isinstance(f, SpinPoly):
        return {}
    order, den = f.order, f.den
    sites = {}
    for key, c in f.terms.items():
        rest = key
        while rest:
            index = ((rest & -rest).bit_length() - 1) // WIDTH
            shift = WIDTH * index
            e = (rest >> shift) & MASK
            rest -= e << shift
            j, kind = divmod(index, 3)
            if j not in sites:
                sites[j] = ({}, {}, {})
            # distinct terms have distinct derivatives by one variable
            sites[j][kind][key - (1 << shift)] = c if e == 1 else (e * c if order == 1 else tuple(e * x for x in c))
    return {j + 1: tuple(_poly(order, den, d) for d in trio) for j, trio in sites.items()}


def bracket_partials(df: dict, dg: dict) -> SpinPoly:
    """{f, g} from the :func:`partials` of f and g: the generator table
    extended by the Leibniz rule, summed over the sites both depend on,

        (f_+ g_- - f_- g_+) s_z + 2 (f_z g_+ - f_+ g_z) s_+ - 2 (f_z g_- - f_- g_z) s_-,

    all six products of each site accumulated into one dict over one
    common denominator and normalized once."""
    quads = []
    for j in df.keys() & dg.keys():
        fp, fm, fz = df[j]
        gp, gm, gz = dg[j]
        up = 1 << WIDTH * var_index(j, "+")
        um, uz = up << WIDTH, up << 2 * WIDTH
        quads += ((1, uz, fp, gm), (-1, uz, fm, gp), (2, up, fz, gp),
                  (-2, up, fp, gz), (-2, um, fz, gm), (2, um, fm, gz))
    return _product_sum(quads)


def poisson_bracket(f, g) -> SpinPoly:
    """Bilinear antisymmetric extension of the generator table by Leibniz."""
    return bracket_partials(partials(f), partials(g))
