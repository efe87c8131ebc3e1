"""Exact scalar arithmetic: rationals and cyclotomic fields Q(zeta_N).

A "scalar" throughout the package is either a ``fractions.Fraction`` or a
:class:`Cyclotomic`.  Mixed arithmetic promotes rationals into Q(zeta_N);
cyclotomic results whose non-constant coordinates vanish demote back to
``Fraction``, so a stored ``Cyclotomic`` is never secretly rational.

A scalar's text is ``str`` of it: "p/q" (or "p") for a ``Fraction``, and
for a ``Cyclotomic`` the form "c0 + c1*z + ..." that its ``__str__`` owns
and :func:`scalar_from_str` parses.
"""

from __future__ import annotations

import cmath
import re
import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Union

from .errors import ConstraintError, OrderMismatchError

Rational = Fraction
Scalar = Union[Fraction, "Cyclotomic"]

ZERO = Fraction(0)
ONE = Fraction(1)


def _power(base, exponent: int):
    """base ** exponent for exponent >= 1, by squaring from the base: the
    first factor is the base itself, and nothing is squared past the top
    bit of the exponent."""
    acc = None
    while True:
        if exponent & 1:
            acc = base if acc is None else acc * base
        exponent >>= 1
        if not exponent:
            return acc
        base = base * base


# ---------------------------------------------------------------------------
# cyclotomic polynomials and the reduction table, over Z
# ---------------------------------------------------------------------------

def _divide_monic(p, q):
    """Exact quotient of the integer polynomial p by the monic q
    (coefficients lowest degree first)."""
    p = list(p)
    out = [0] * (len(p) - len(q) + 1)
    for shift in range(len(out) - 1, -1, -1):
        factor = out[shift] = p[shift + len(q) - 1]
        if factor:
            for i, b in enumerate(q):
                p[shift + i] -= factor * b
    assert not any(p), "inexact division by a cyclotomic polynomial"
    return out


@lru_cache(maxsize=None)
def _int_cyclotomic(order: int) -> tuple:
    """Integer coefficients of Phi_N, lowest degree first: x^N - 1 divided
    by Phi_d over all proper divisors d of N."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    poly = [-1] + [0] * (order - 1) + [1]  # x^N - 1
    for d in range(1, order):
        if order % d == 0:
            poly = _divide_monic(poly, _int_cyclotomic(d))
    return tuple(poly)


def cyclotomic_polynomial(order: int) -> tuple:
    """Coefficients of Phi_N as Fractions, lowest degree first."""
    return tuple(Fraction(c) for c in _int_cyclotomic(order))


def euler_phi(order: int) -> int:
    return len(_int_cyclotomic(order)) - 1


@lru_cache(maxsize=None)
def _power_rows(order: int) -> tuple:
    """Integer rows x^k mod Phi_N for phi <= k < max(3*phi - 2, N), so that
    a product of two or three reduced elements and an exponent already
    folded mod N all reduce in one pass.  Phi_N is monic, so every row is
    integral."""
    phi_coeffs = _int_cyclotomic(order)
    phi = len(phi_coeffs) - 1
    row = [-c for c in phi_coeffs[:phi]]  # x^phi
    rows = []
    for _ in range(phi, max(3 * phi - 2, order)):
        rows.append(tuple(row))
        top = row[-1]  # x * row: shift up, then replace x^phi by its row
        row = [0] + row[:-1]
        if top:
            row = [a - top * c for a, c in zip(row, phi_coeffs)]
    return tuple(rows)


def _fold(rows, coeffs, phi: int) -> list:
    """The phi coordinates of sum_k coeffs[k] x^k, each x^k with k >= phi
    replaced by its row of the reduction table ``rows``."""
    out = list(coeffs[:phi]) + [0] * (phi - len(coeffs))
    for c, row in zip(coeffs[phi:], rows):
        if c:
            for i, t in enumerate(row):
                out[i] += c * t
    return out


def _pack(vec, width: int) -> int:
    """The numerator vector as one int, coordinate s times 2^(width s)."""
    x = 0
    for c in reversed(vec):
        x = (x << width) + c
    return x


def _pack_width(bound: int) -> int:
    """The bits w between packed coordinates for sums of absolute value at
    most ``bound``: each is a balanced digit in [-2^(w-1), 2^(w-1))."""
    return bound.bit_length() + 1


def _balanced(v: int, width: int, count: int) -> list:
    """The ``count`` lowest balanced digits, in [-2^(width-1), 2^(width-1)), of v in base 2^width."""
    half, mask, digits = 1 << (width - 1), (1 << width) - 1, []
    for _ in range(count):
        digit = ((v + half) & mask) - half
        digits.append(digit)
        v = (v - digit) >> width
    return digits


def _unpack(values, width: int, count: int) -> list:
    """The ``count`` balanced digits of each of ``values``, packed ``width`` bits apart (a multiple of 64), in one
    list: the bytes of each value plus half on every digit, with that bit flipped back, read as signed words."""
    size = width // 8
    offset = int.from_bytes((1 << width - 1).to_bytes(size, "little") * count, "little")
    raw = b"".join([(v + offset ^ offset).to_bytes(size * count, "little") for v in values])
    if width == 64 and sys.byteorder == "little":
        return memoryview(raw).cast("q").tolist()
    return [int.from_bytes(raw[i:i + size], "little", signed=True) for i in range(0, len(raw), size)]


def _unpack_fold(order: int, sums: list, width: int, factors: int) -> list:
    """The nonzero numerator vectors of the packed ints in each dict of
    ``sums``, each a sum of products of ``factors`` vectors of Q(zeta_order)
    packed ``width`` bits apart: the factors (phi - 1) + 1 lowest balanced
    digits of each (Kronecker substitution), folded mod Phi_N once.  Over Q
    a sum is its own numerator, kept as a 1-tuple."""
    if order == 1:
        return [{k: (v,) for k, v in acc.items() if v} for acc in sums]
    phi = euler_phi(order)
    table, count, out = _power_rows(order), factors * (phi - 1) + 1, []
    for acc in sums:
        vectors = {}
        for k, v in acc.items():
            vec = tuple(_fold(table, _balanced(v, width, count), phi))
            if any(vec):
                vectors[k] = vec
        out.append(vectors)
    return out


def _one_field(*orders) -> int:
    """The order N of the one field Q(zeta_N) holding every given order (1,
    for Q, lies in each); OrderMismatchError where two orders N > 1 meet."""
    out = 1
    for order in orders:
        if order != out and order != 1:
            if out != 1:
                raise OrderMismatchError(f"cannot mix Q(zeta_{out}) with Q(zeta_{order})")
            out = order
    return out


def _over(values) -> tuple:
    """(N, vectors, den) for the exact scalars ``values`` of one Q(zeta_N): the phi(N) integer numerators of each,
    as a list, over den, the lcm of their denominators; OrderMismatchError for two cyclotomic orders."""
    order = _one_field(*[x.order for x in values if type(x) is Cyclotomic])
    den, pad = lcm(*[x.den if type(x) is Cyclotomic else x.denominator for x in values]), [0] * (euler_phi(order) - 1)
    return order, [[c * (den // x.den) for c in x.num] if type(x) is Cyclotomic
                   else [x.numerator * (den // x.denominator)] + pad for x in values], den


def _content(den: int, rows) -> int:
    """The gcd of den > 0 and every integer of the numerator vectors in
    ``rows``, iterables of vectors: dividing den and the numerators by it
    puts them in lowest terms.  Reading stops once the gcd is 1, as it is
    for most results."""
    g = den
    for row in rows:
        for vec in row:
            g = gcd(g, *vec)
            if g == 1:
                return 1
    return g


def _reduce(order: int, coeffs) -> list:
    """Integer coefficients of any polynomial in zeta_N -> its phi(N)
    coordinates in the power basis."""
    rows = _power_rows(order)
    phi = euler_phi(order)
    if len(coeffs) > phi + len(rows):  # fold with zeta^N = 1 first
        folded = [0] * order
        for k, c in enumerate(coeffs):
            folded[k % order] += c
        coeffs = folded
    return _fold(rows, coeffs, phi)


def _mul_reduce(order: int, a, b) -> list:
    """Schoolbook product of two coordinate vectors, reduced mod Phi_N."""
    phi = len(a)
    out = [0] * (2 * phi - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return _fold(_power_rows(order), out, phi)


def _inverse_parts(order: int, num) -> tuple:
    """(others, norm) for a nonzero numerator vector num of Q(zeta_N), with
    num^-1 = others / norm: others is the product of the other Galois
    conjugates sigma_k (zeta -> zeta^k, gcd(k, N) = 1) and norm, their
    product with num, a positive int.  Over Q (N = 1) others is the sign
    of num and norm its absolute value."""
    others = [1]
    for k in range(2, order):
        if gcd(k, order) == 1:
            conjugate = [0] * order
            for j, c in enumerate(num):
                conjugate[j * k % order] += c
            conjugate = _reduce(order, conjugate)
            others = _mul_reduce(order, others, conjugate) if len(others) > 1 else conjugate
    norm = _mul_reduce(order, num, others)[0]  # a rational integer
    if norm < 0:
        norm, others = -norm, [-c for c in others]
    return others, norm


def _canonical(order: int, num, den: int) -> Scalar:
    """The element num/den (den > 0) in lowest terms; rational values
    demote to Fraction."""
    if not any(num[1:]):
        return Fraction(num[0], den)
    g = gcd(den, *num)
    if g != 1:
        num = [c // g for c in num]
        den //= g
    new = object.__new__(Cyclotomic)
    new.order, new.num, new.den = order, tuple(num), den
    return new


# ---------------------------------------------------------------------------
# cyclotomic field elements
# ---------------------------------------------------------------------------

class Cyclotomic:
    """Element of Q(zeta_N) in the power basis 1, zeta, ..., zeta^(phi(N)-1).

    Stored as integer numerators ``num`` (one per basis power) over one
    positive common denominator ``den``, in lowest terms, so equal elements
    have equal data.  ``coeffs`` gives the coordinates as Fractions.

    Elements are made by :func:`cyclotomic` and :func:`zeta`, which reduce
    modulo Phi_N and demote rational values, and by the arithmetic.
    """

    __slots__ = ("order", "num", "den")

    @property
    def coeffs(self) -> tuple:
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    def to_complex(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.order)
        den = self.den
        return sum((complex(c / den) * z**k for k, c in enumerate(self.num)), 0j)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other) -> None:
        if other.order != self.order:
            raise OrderMismatchError(
                f"cannot mix Q(zeta_{self.order}) with Q(zeta_{other.order})")

    def __add__(self, other):
        if type(other) is Cyclotomic:
            self._check(other)
            d1, d2 = self.den, other.den
            return _canonical(self.order, [a * d2 + b * d1 for a, b in zip(self.num, other.num)],
                              d1 * d2)
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            if not p:
                return self
            num = [c * q for c in self.num]
            num[0] += p * self.den
            return _canonical(self.order, num, self.den * q)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        new = object.__new__(Cyclotomic)
        new.order, new.num, new.den = self.order, tuple(-c for c in self.num), self.den
        return new

    def __sub__(self, other):
        if isinstance(other, (Cyclotomic, int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is Cyclotomic:
            self._check(other)
            return _canonical(self.order, _mul_reduce(self.order, self.num, other.num),
                              self.den * other.den)
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            if not p:
                return ZERO
            return _canonical(self.order, [c * p for c in self.num], self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> Scalar:
        """Multiplicative inverse, by :func:`_inverse_parts`.  A stored
        element is never zero: zero demotes to ``Fraction``."""
        others, norm = _inverse_parts(self.order, self.num)
        return _canonical(self.order, [self.den * c for c in others], norm)

    def __truediv__(self, other):
        if type(other) is Cyclotomic:
            self._check(other)
            return self * other.inverse()
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division by zero")
            return self * (1 / Fraction(other))
        return NotImplemented

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return _power(self, exponent) if exponent else ONE

    # -- comparisons / hashing ---------------------------------------------

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        if isinstance(other, Cyclotomic):
            return self.order == other.order and self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return False  # canonical form: rational values demote to Fraction
        return NotImplemented

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self):
        return f"Cyclotomic({self.order}, {str(self)!r})"

    def __str__(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            mono = "z" if k == 1 else f"z^{k}"
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")


def cyclotomic(order: int, coeffs) -> Scalar:
    """Reduce a coefficient sequence mod Phi_N and demote rationals."""
    coeffs = [Fraction(c) for c in coeffs]
    den = lcm(*(c.denominator for c in coeffs))
    return _canonical(order, _reduce(order, [c.numerator * (den // c.denominator) for c in coeffs]),
                      den)


def zeta(order: int, power: int = 1) -> Scalar:
    """Primitive N-th root of unity zeta_N raised to ``power``."""
    power %= order
    return _canonical(order, _reduce(order, [0] * power + [1]), 1)


# ---------------------------------------------------------------------------
# generic helpers over Scalar
# ---------------------------------------------------------------------------

def as_scalar(x) -> Scalar:
    if isinstance(x, (Cyclotomic, Fraction)):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not an exact scalar: {x!r}")


def to_complex(x) -> complex:
    """Floating shadow of an exact scalar (also accepts ints/floats/complex)."""
    if isinstance(x, Cyclotomic):
        return x.to_complex()
    return complex(x)


def scalar_sort_key(x):
    """Canonical total order used to keep root lists deterministic."""
    if isinstance(x, Cyclotomic):
        return (1, x.order) + tuple(x.coeffs)
    x = Fraction(x)
    return (0, x)


def scalar_to_str(x) -> str:
    """An exact scalar, or a number ``Fraction`` takes (so 1.5 gives
    "3/2"), as ``str`` renders it; anything else raises."""
    return str(x if isinstance(x, Cyclotomic) else Fraction(x))


_TERM_RE = re.compile(r"^(?:(?P<coeff>\d+(?:/\d+)?)\*?)?(?P<z>z(?:\^(?P<pow>\d+))?)?$")


def scalar_from_str(text: str, order: int | None = None) -> Scalar:
    """Parse the forms that ``str`` gives a scalar.

    Plain "p/q" needs no order; any "z" term needs the cyclotomic order of
    the enclosing case.
    """
    text = text.strip().replace(" ", "")
    if not text:
        raise ConstraintError("empty scalar")
    total: Scalar = ZERO
    for term in re.findall(r"[+-]?[^+-]+", text):
        sign = 1
        if term[0] in "+-":
            sign = -1 if term[0] == "-" else 1
            term = term[1:]
        m = _TERM_RE.match(term)
        if not m or (m.group("coeff") is None and m.group("z") is None):
            raise ConstraintError(f"cannot parse scalar term {term!r} in {text!r}")
        try:
            coeff = sign * Fraction(m.group("coeff") or 1)
        except ZeroDivisionError:
            raise ConstraintError(f"zero denominator in scalar {text!r}") from None
        if m.group("z"):
            if order is None:
                raise ConstraintError(f"scalar {text!r} uses z but no cyclotomic order was given")
            total = total + coeff * zeta(order, int(m.group("pow") or 1))
        else:
            total = total + coeff
    return total
