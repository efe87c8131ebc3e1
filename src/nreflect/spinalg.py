"""Commutative polynomials in classical spin variables with the su(2)
Lie-Poisson bracket, extended to products by the Leibniz rule:

    {s_j^+, s_k^-} = delta_jk s_j^z,   {s_j^z, s_k^+-} = +-2 delta_jk s_j^+-

Spins are independent commuting coordinates; no reality condition ties
s^+ to s^-.  Coefficients are exact scalars.  A polynomial does not know
how many sites it lives on: a monomial's key is its exponent tuple over
the flat variables (s_1^+, s_1^-, s_1^z, s_2^+, ...) with trailing zeros
dropped, so the constant key is ().  Sorting trimmed keys gives the order
of their zero-padded forms.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .scalars import ONE, ZERO, Cyclotomic, as_scalar, scalar_to_str

KINDS = ("+", "-", "z")
HALF = Fraction(1, 2)


def var_index(j: int, kind: str) -> int:
    """Flat index of generator s_j^kind; sites are 1-based."""
    return 3 * (j - 1) + KINDS.index(kind)


def var_name(index: int) -> str:
    j, k = divmod(index, 3)
    return f"s{j + 1}{KINDS[k]}"


class SpinPoly:
    """Sparse polynomial: trimmed exponent tuple -> scalar coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {expo: coeff for expo, coeff in terms.items() if coeff} if terms else {}

    # -- constructors --------------------------------------------------------

    @staticmethod
    def const(value) -> "SpinPoly":
        return SpinPoly({(): as_scalar(value)})

    @staticmethod
    def generator(j: int, kind: str) -> "SpinPoly":
        if j < 1:
            raise IndexError(f"site {j} out of range: sites are numbered from 1")
        return SpinPoly({(0,) * var_index(j, kind) + (1,): ONE})

    # -- ring structure --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, SpinPoly):
            if isinstance(other, (int, Fraction, Cyclotomic)):
                other = SpinPoly.const(other)
            else:
                return NotImplemented
        terms = dict(self.terms)
        for expo, coeff in other.terms.items():
            new = terms.get(expo, ZERO) + coeff
            if new:
                terms[expo] = new
            else:
                terms.pop(expo, None)
        return SpinPoly(terms)

    __radd__ = __add__

    def __neg__(self):
        return SpinPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, SpinPoly) else SpinPoly.const(-as_scalar(other)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, SpinPoly):
            if isinstance(other, (int, Fraction, Cyclotomic)):
                return SpinPoly({e: c * other for e, c in self.terms.items()} if other else None)
            return NotImplemented
        terms = {}
        for e1, c1 in self.terms.items():
            n1 = len(e1)
            for e2, c2 in other.terms.items():
                # a sum of trimmed keys is trimmed: the longer key's last entry is nonzero
                n2 = len(e2)
                expo = tuple(map(add, e1, e2)) + (e1[n2:] if n1 > n2 else e2[n1:])
                new = terms.get(expo, ZERO) + c1 * c2
                if new:
                    terms[expo] = new
                else:
                    terms.pop(expo, None)
        return SpinPoly(terms)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            if not other:
                raise ZeroDivisionError("division of a spin polynomial by zero")
            return SpinPoly({e: c / other for e, c in self.terms.items()})
        return NotImplemented

    def __pow__(self, exponent: int):
        out = SpinPoly.const(ONE)
        for _ in range(exponent):
            out = out * self
        return out

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

    # -- calculus ---------------------------------------------------------------

    def diff(self, index: int) -> "SpinPoly":
        """Formal partial derivative with respect to the flat variable index."""
        terms = {}
        for expo, coeff in self.terms.items():
            if index >= len(expo) or not expo[index]:
                continue
            new = expo[:index] + (expo[index] - 1,) + expo[index + 1:]
            while new and not new[-1]:
                new = new[:-1]
            terms[new] = expo[index] * coeff
        return SpinPoly(terms)

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
    on; a scalar has none."""
    if not isinstance(f, SpinPoly):
        return {}
    sites = {i // 3 + 1 for expo in f.terms for i, e in enumerate(expo) if e}
    return {j: tuple(f.diff(var_index(j, kind)) for kind in KINDS) for j in sorted(sites)}


def bracket_partials(df: dict, dg: dict) -> SpinPoly:
    """{f, g} from the :func:`partials` of f and g: the generator table
    extended by the Leibniz rule, summed over the sites both depend on."""
    out = SpinPoly()
    for j in sorted(df.keys() & dg.keys()):
        fp, fm, fz = df[j]
        gp, gm, gz = dg[j]
        out = (out + (fp * gm - fm * gp) * s_z(j) + 2 * (fz * gp - fp * gz) * s_plus(j)
               - 2 * (fz * gm - fm * gz) * s_minus(j))
    return out


def poisson_bracket(f, g) -> SpinPoly:
    """Bilinear antisymmetric extension of the generator table by Leibniz."""
    return bracket_partials(partials(f), partials(g))
