"""Commutative polynomials in classical spin variables with the su(2)
Lie-Poisson bracket, extended to products by the Leibniz rule:

    {s_j^+, s_k^-} = delta_jk s_j^z,   {s_j^z, s_k^+-} = +-2 delta_jk s_j^+-

Spins are independent commuting coordinates; no reality condition ties
s^+ to s^-.  Coefficients are exact scalars.  A polynomial does not know
how many sites it lives on.

A monomial's key is one packed int (Monagan & Pearce, "Polynomial division
using dynamic arrays, heaps, and packed exponent vectors", CASC 2007): the
exponent of flat variable i (s_1^+, s_1^-, s_1^z, s_2^+, ... numbered from
0) fills the byte at bit WIDTH * i, so the constant key is 0, a monomial
product is one integer add and d/dx_i subtracts 1 << WIDTH * i.  The top
bit of each byte is a guard: exponents stay at most MAX_EXPONENT, so a sum
of two never carries into the next variable, and a product or bracket that
reaches a guard bit raises DegreeError.  Only this module reads the keys;
:meth:`SpinPoly.monomials` gives everyone else exponent tuples.

:func:`partials` differentiates a polynomial by every variable in one pass
over its terms, and :func:`bracket_partials` combines two such sets of
partials by the Leibniz rule into one accumulator.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import or_

from .errors import DegreeError
from .scalars import ONE, Cyclotomic, _power, as_scalar

KINDS = ("+", "-", "z")
HALF = Fraction(1, 2)
WIDTH = 8  # bits per variable: one byte, so bytes unpack a key
MASK = (1 << WIDTH) - 1
MAX_EXPONENT = MASK >> 1  # the top bit of each field is the carry guard


def var_index(j: int, kind: str) -> int:
    """Flat index of generator s_j^kind; sites are 1-based."""
    return 3 * (j - 1) + KINDS.index(kind)


def var_name(index: int) -> str:
    j, k = divmod(index, 3)
    return f"s{j + 1}{KINDS[k]}"


def _wrap(terms: dict) -> "SpinPoly":
    """The polynomial over ``terms`` as given: no copy, no zero filter."""
    poly = object.__new__(SpinPoly)
    poly.terms = terms
    return poly


def _guarded(terms: dict) -> "SpinPoly":
    """The polynomial over the nonzero ``terms`` of a product; raises
    DegreeError where an exponent reached its field's guard bit."""
    terms = {key: coeff for key, coeff in terms.items() if coeff}
    bits = reduce(or_, terms, 0)
    over = bits & int.from_bytes(bytes([MAX_EXPONENT + 1]) * ((bits.bit_length() + 7) // 8), "little")
    if over:
        name = var_name(((over & -over).bit_length() - 1) // WIDTH)
        raise DegreeError(f"an exponent of {name} exceeds {MAX_EXPONENT}, the most a packed monomial holds")
    return _wrap(terms)


class SpinPoly:
    """Sparse polynomial: packed monomial key -> nonzero scalar coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {key: coeff for key, coeff in terms.items() if coeff} if terms else {}

    # -- constructors --------------------------------------------------------

    @staticmethod
    def const(value) -> "SpinPoly":
        return SpinPoly({0: as_scalar(value)})

    @staticmethod
    def generator(j: int, kind: str) -> "SpinPoly":
        if j < 1:
            raise IndexError(f"site {j} out of range: sites are numbered from 1")
        return _wrap({1 << WIDTH * var_index(j, kind): ONE})

    # -- ring structure --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, SpinPoly):
            if isinstance(other, (int, Fraction, Cyclotomic)):
                other = SpinPoly.const(other)
            else:
                return NotImplemented
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            old = terms.get(key)
            new = coeff if old is None else old + coeff
            if new:
                terms[key] = new
            else:
                del terms[key]
        return _wrap(terms)

    __radd__ = __add__

    def __neg__(self):
        return _wrap({key: -coeff for key, coeff in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, SpinPoly) else SpinPoly.const(-as_scalar(other)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, SpinPoly):
            if isinstance(other, (int, Fraction, Cyclotomic)):
                return _wrap({key: coeff * other for key, coeff in self.terms.items()} if other else {})
            return NotImplemented
        terms = {}
        right = other.terms.items()
        for k1, c1 in self.terms.items():
            for k2, c2 in right:
                key = k1 + k2
                old = terms.get(key)
                terms[key] = c1 * c2 if old is None else old + c1 * c2
        return _guarded(terms)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            if not other:
                raise ZeroDivisionError("division of a spin polynomial by zero")
            return _wrap({key: coeff / other for key, coeff in self.terms.items()})
        return NotImplemented

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError(f"a spin polynomial has no inverse, so no power {exponent}")
        return _power(self, exponent) if exponent else SpinPoly.const(ONE)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, SpinPoly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return self == SpinPoly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self):
        return not self.terms

    # -- reading ------------------------------------------------------------------

    def monomials(self) -> list:
        """(exponent tuple over the flat variables, coefficient) for every
        term, the tuple without trailing zeros (so the constant's is ()),
        sorted as the zero-padded tuples sort."""
        return sorted((tuple(key.to_bytes((key.bit_length() + 7) // 8, "little")), coeff)
                      for key, coeff in self.terms.items())

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


def partials(f) -> dict:
    """Site j -> (df/ds_j^+, df/ds_j^-, df/ds_j^z) for every site f depends
    on, in one pass over the terms of f; a scalar has none."""
    if not isinstance(f, SpinPoly):
        return {}
    sites = {}
    for key, coeff in f.terms.items():
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
            sites[j][kind][key - (1 << shift)] = coeff if e == 1 else e * coeff
    return {j + 1: tuple(map(_wrap, trio)) for j, trio in sites.items()}


def bracket_partials(df: dict, dg: dict) -> SpinPoly:
    """{f, g} from the :func:`partials` of f and g: the generator table
    extended by the Leibniz rule, summed over the sites both depend on,

        (f_+ g_- - f_- g_+) s_z + 2 (f_z g_+ - f_+ g_z) s_+ - 2 (f_z g_- - f_- g_z) s_-,

    all six products of each site accumulated into one dict."""
    acc = {}
    for j in df.keys() & dg.keys():
        fp, fm, fz = (d.terms.items() for d in df[j])
        gp, gm, gz = (d.terms.items() for d in dg[j])
        up = 1 << WIDTH * var_index(j, "+")
        um, uz = up << WIDTH, up << 2 * WIDTH
        for left, right, unit, scale in ((fp, gm, uz, 1), (fm, gp, uz, -1), (fz, gp, up, 2),
                                         (fp, gz, up, -2), (fz, gm, um, -2), (fm, gz, um, 2)):
            for k1, c1 in left:
                k1 += unit
                c1 = c1 * scale
                for k2, c2 in right:
                    key = k1 + k2
                    old = acc.get(key)
                    acc[key] = c1 * c2 if old is None else old + c1 * c2
    return _guarded(acc)


def poisson_bracket(f, g) -> SpinPoly:
    """Bilinear antisymmetric extension of the generator table by Leibniz."""
    return bracket_partials(partials(f), partials(g))
