"""Commutative polynomials in classical spin variables with the su(2)
Lie-Poisson bracket, extended to products by the Leibniz rule:

    {s_j^+, s_k^-} = delta_jk s_j^z,   {s_j^z, s_k^+-} = +-2 delta_jk s_j^+-

Spins are independent commuting coordinates; no reality condition ties
s^+ to s^-.  Coefficients are exact scalars.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import ONE, ZERO, Cyclotomic, Scalar, as_scalar, scalar_to_str, to_complex

KINDS = ("+", "-", "z")
HALF = Fraction(1, 2)


def var_index(j: int, kind: str) -> int:
    """Flat index of generator s_j^kind; sites are 1-based."""
    return 3 * (j - 1) + KINDS.index(kind)


def var_name(index: int) -> str:
    j, k = divmod(index, 3)
    return f"s{j + 1}{KINDS[k]}"


class SpinPoly:
    """Sparse polynomial: exponent tuple (length 3L) -> scalar coefficient."""

    __slots__ = ("sites", "terms")

    def __init__(self, sites: int, terms=None):
        self.sites = sites
        self.terms = {}
        if terms:
            for expo, coeff in terms.items():
                if coeff:
                    self.terms[expo] = coeff

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(sites: int) -> "SpinPoly":
        return SpinPoly(sites)

    @staticmethod
    def const(sites: int, value) -> "SpinPoly":
        value = as_scalar(value)
        return SpinPoly(sites, {(0,) * (3 * sites): value} if value else None)

    @staticmethod
    def generator(sites: int, j: int, kind: str) -> "SpinPoly":
        if not 1 <= j <= sites:
            raise IndexError(f"site {j} out of range 1..{sites}")
        expo = [0] * (3 * sites)
        expo[var_index(j, kind)] = 1
        return SpinPoly(sites, {tuple(expo): ONE})

    @staticmethod
    def coerce(sites: int, value) -> "SpinPoly":
        if isinstance(value, SpinPoly):
            if value.sites != sites:
                raise ValueError(f"site count mismatch: {value.sites} vs {sites}")
            return value
        return SpinPoly.const(sites, value)

    # -- ring structure --------------------------------------------------------

    def _check(self, other):
        if self.sites != other.sites:
            raise ValueError(f"site count mismatch: {self.sites} vs {other.sites}")

    def __add__(self, other):
        if not isinstance(other, SpinPoly):
            if isinstance(other, (int, Fraction, Cyclotomic)):
                other = SpinPoly.const(self.sites, other)
            else:
                return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for expo, coeff in other.terms.items():
            new = terms.get(expo, ZERO) + coeff
            if new:
                terms[expo] = new
            else:
                terms.pop(expo, None)
        return SpinPoly(self.sites, terms)

    __radd__ = __add__

    def __neg__(self):
        return SpinPoly(self.sites, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, SpinPoly) else SpinPoly.const(self.sites, -as_scalar(other)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, SpinPoly):
            if isinstance(other, (int, Fraction, Cyclotomic)):
                return SpinPoly(self.sites, {e: c * other for e, c in self.terms.items()} if other else None)
            return NotImplemented
        self._check(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                new = terms.get(expo, ZERO) + c1 * c2
                if new:
                    terms[expo] = new
                else:
                    terms.pop(expo, None)
        return SpinPoly(self.sites, terms)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            if not other:
                raise ZeroDivisionError("division of a spin polynomial by zero")
            return SpinPoly(self.sites, {e: c / other for e, c in self.terms.items()})
        return NotImplemented

    def __pow__(self, exponent: int):
        out = SpinPoly.const(self.sites, ONE)
        for _ in range(exponent):
            out = out * self
        return out

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, SpinPoly):
            return self.sites == other.sites and self.terms == other.terms
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return self == SpinPoly.const(self.sites, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.sites, frozenset(self.terms.items())))

    def is_zero(self):
        return not self.terms

    # -- calculus ---------------------------------------------------------------

    def diff(self, index: int) -> "SpinPoly":
        """Formal partial derivative with respect to the flat variable index."""
        terms = {}
        for expo, coeff in self.terms.items():
            e = expo[index]
            if not e:
                continue
            new = list(expo)
            new[index] = e - 1
            terms[tuple(new)] = e * coeff
        return SpinPoly(self.sites, terms)

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def evaluate(self, assignment: dict):
        """Evaluate at values keyed by (site, kind).  Exact throughout when
        every value is exact; numeric (complex) when any value is a float or
        complex, in which case coefficients are floated too."""
        values = {var_index(j, kind): val for (j, kind), val in assignment.items()}
        numeric = any(isinstance(v, (float, complex)) for v in values.values())
        if numeric:
            values = {i: to_complex(v) for i, v in values.items()}
        total = None
        for expo, coeff in self.terms.items():
            term = to_complex(coeff) if numeric else coeff
            for idx, e in enumerate(expo):
                if not e:
                    continue
                if idx not in values:
                    raise KeyError(f"no value supplied for {var_name(idx)}")
                term = term * values[idx] ** e
            total = term if total is None else total + term
        if total is None:
            return 0j if numeric else ZERO
        return total

    def gradient(self) -> list:
        return [self.diff(i) for i in range(3 * self.sites)]

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for expo, coeff in sorted(self.terms.items(), key=lambda t: (-sum(t[0]), t[0])):
            factors = []
            for idx, e in enumerate(expo):
                if e:
                    factors.append(var_name(idx) if e == 1 else f"{var_name(idx)}^{e}")
            body = "*".join(factors)
            cs = scalar_to_str(coeff)
            if body:
                parts.append(body if cs == "1" else (f"-{body}" if cs == "-1" else f"{cs}*{body}"))
            else:
                parts.append(cs)
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"SpinPoly(L={self.sites}, {self})"


def s_plus(sites: int, j: int) -> SpinPoly:
    return SpinPoly.generator(sites, j, "+")


def s_minus(sites: int, j: int) -> SpinPoly:
    return SpinPoly.generator(sites, j, "-")


def s_z(sites: int, j: int) -> SpinPoly:
    return SpinPoly.generator(sites, j, "z")


def casimir(sites: int, j: int) -> SpinPoly:
    """(1/2)(s_j^z)^2 + 2 s_j^+ s_j^-; central for the bracket."""
    return HALF * s_z(sites, j) ** 2 + 2 * s_plus(sites, j) * s_minus(sites, j)


def poisson_bracket(f: SpinPoly, g: SpinPoly) -> SpinPoly:
    """Bilinear antisymmetric extension of the generator table by Leibniz."""
    f._check(g)
    sites = f.sites
    out = SpinPoly.zero(sites)
    for j in range(1, sites + 1):
        ip, im, iz = var_index(j, "+"), var_index(j, "-"), var_index(j, "z")
        fp, fm, fz = f.diff(ip), f.diff(im), f.diff(iz)
        gp, gm, gz = g.diff(ip), g.diff(im), g.diff(iz)
        if fp or fm or fz:
            out = out + (fp * gm - fm * gp) * s_z(sites, j)
            out = out + 2 * (fz * gp - fp * gz) * s_plus(sites, j)
            out = out - 2 * (fz * gm - fm * gz) * s_minus(sites, j)
    return out
