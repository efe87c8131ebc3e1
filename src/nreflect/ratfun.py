"""Univariate polynomials and rational functions with split-linear denominators.

Coefficients are exact scalars: rationals or elements of Q(zeta_N).
Denominators are kept in the normal form ``prod (x - root)^mult`` with known
scalar roots and monic leading term; any overall constant is folded into the
numerator.  Every building block in this package is a ratio of polynomials
linear in the spectral variable, so this normal form is closed under the
arithmetic we need and makes residues exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import PoleError
from .scalars import ZERO, ONE, Cyclotomic, _balanced, _canonical, _over, _pack, euler_phi, scalar_sort_key


class Poly:
    """Dense polynomial, coefficients lowest degree first, trailing zeros trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @staticmethod
    def const(value):
        return Poly([value])

    @staticmethod
    def linear(alpha, beta):
        """alpha * x + beta."""
        return Poly([beta, alpha])

    @property
    def degree(self):
        return len(self.coeffs) - 1  # zero polynomial has degree -1

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, Poly):
            if not self.coeffs or not other.coeffs:
                return Poly()
            out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = out[i + j] + a * b
            return Poly(out)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, s):
        if not s:
            return Poly()
        return Poly([s * c for c in self.coeffs])

    def eval_at(self, x):
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self):
        return Poly([k * c for k, c in enumerate(self.coeffs)][1:])

    def divmod_by(self, other: "Poly"):
        """Long division by a polynomial with an invertible leading scalar."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        lead_inv = 1 / other.coeffs[-1]
        dq = len(other.coeffs)
        quo = [ZERO] * max(len(rem) - dq + 1, 0)
        while len(rem) >= dq and any(rem):
            while rem and not rem[-1]:
                rem.pop()
            if len(rem) < dq:
                break
            shift = len(rem) - dq
            factor = rem[-1] * lead_inv
            quo[shift] = factor
            for i, b in enumerate(other.coeffs):
                rem[shift + i] = rem[shift + i] - factor * b
            rem.pop()
        return Poly(quo), Poly(rem)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"


def _horner_div_check(poly: Poly, root):
    """(quotient, remainder) of poly / (x - root) by Horner's scheme."""
    quotient = []
    acc = None
    for c in reversed(poly.coeffs):
        acc = c if acc is None else acc * root + c
        quotient.append(acc)
    if acc is None:
        return Poly(), ZERO
    remainder = quotient.pop()
    return Poly(reversed(quotient)), remainder


class RatFun:
    """numerator / prod (x - root)^mult, roots sorted canonically."""

    __slots__ = ("num", "roots", "_integers")

    def __init__(self, num: Poly, roots=()):
        root_map = {}
        for root, mult in roots:
            root_map[root] = root_map.get(root, 0) + mult
        num, root_map = _cancel(num, root_map)
        self.num = num
        self.roots = tuple(sorted(((r, m) for r, m in root_map.items() if m),
                                  key=lambda rm: scalar_sort_key(rm[0])))
        self._integers = None  # built by the first eval_at at a Fraction

    @staticmethod
    def const(value):
        return RatFun(Poly.const(value))

    @staticmethod
    def over_linears(num, factors):
        """num / prod (alpha*x + beta); degenerate factors (alpha = 0) divide
        the numerator by the constant beta instead."""
        num = num if isinstance(num, Poly) else Poly.const(num)
        roots, lead = [], ONE
        for alpha, beta in factors:
            if alpha:
                roots.append((-beta / alpha, 1))
            elif not beta:
                raise ZeroDivisionError("zero linear factor in denominator")
            lead = lead * (alpha or beta)
        return RatFun(_times(num, 1 / lead), roots)

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if not isinstance(other, RatFun):
            return NotImplemented
        return self.num == other.num and self.roots == other.roots

    def denominator_poly(self) -> Poly:
        return _times_roots(Poly.const(ONE), self.roots)

    def eval_at(self, x):
        """The value at x; PoleError at a root of the denominator.  Where the
        roots are rational and the coefficients lie in Q or one Q(zeta_N), a
        Fraction point p/q is evaluated on integers: Horner's scheme on the
        numerator with its denominators cleared, each root u/v as the factor
        p v - u q, and one normalization of the quotient.  A cyclotomic root
        or point takes field arithmetic."""
        if type(x) is Fraction:
            if self._integers is None:
                self._integers = _integer_form(self)
            if self._integers:
                return _eval_integer(self._integers, x)
        den = ONE
        for root, mult in self.roots:
            diff = x - root
            if not diff:
                raise PoleError(f"rational function has a pole at {x}")
            den = den * diff**mult
        return self.num.eval_at(x) / den

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, RatFun):
            if isinstance(other, Poly):
                other = RatFun(other)
            else:
                other = RatFun.const(other)
        (mine, theirs), roots = over_one_denominator((self, other))
        return RatFun(mine + theirs, roots)

    __radd__ = __add__

    def __neg__(self):
        return RatFun(-self.num, self.roots)

    def __sub__(self, other):
        return self + (-(other if isinstance(other, RatFun) else RatFun.const(other)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, RatFun):
            combined = {}
            for root, mult in self.roots + other.roots:
                combined[root] = combined.get(root, 0) + mult
            return RatFun(self.num * other.num, combined.items())
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, s):
        """Multiply by a scalar."""
        return RatFun(self.num.scale(s), self.roots)

    def mobius(self, a, b, c, d):
        """f((a x + b) / (c x + d)) for ad - bc != 0, as a rational function
        of x: with T = a x + b, B = c x + d, a numerator of degree D and M
        roots u_k counted with multiplicity, it is sum_i f_i T^i B^(D - i),
        by a homogeneous Horner pass from f_D T + f_(D-1) B, times
        B^(M - D) over prod_k (T - u_k B)."""
        top, bottom, coeffs = Poly.linear(a, b), Poly.linear(c, d), self.num.coeffs
        num, power = self.num, bottom
        if len(coeffs) > 1:
            num = _times(top, coeffs[-1]) + _times(bottom, coeffs[-2])
        for coeff in reversed(coeffs[:-2]):
            power = power * bottom
            num = num * top + _times(power, coeff)
        factors = [(a - root * c, b - root * d) for root, mult in self.roots for _ in range(mult)]
        for _ in range(len(factors) - self.num.degree):
            num = num * bottom
        return RatFun.over_linears(num, factors + [(c, d)] * (self.num.degree - len(factors)))

    def derivative(self):
        """(p'q - pq') / q^2 with q the split-linear denominator."""
        q = self.denominator_poly()
        num = self.num.derivative() * q - self.num * q.derivative()
        return RatFun(num, [(root, 2 * mult) for root, mult in self.roots])

    # -- residues -------------------------------------------------------------

    def multiplicity(self, z0) -> int:
        for root, mult in self.roots:
            if root == z0:
                return mult
        return 0

    def residue(self, z0):
        """Coefficient of 1/(x - z0); ring zero when z0 is not a pole."""
        m = self.multiplicity(z0)
        if m == 0:
            return ZERO
        reduced = RatFun(self.num, [(r, k) for r, k in self.roots if r != z0])
        for _ in range(m - 1):
            reduced = reduced.derivative()
        return reduced.eval_at(z0) / factorial(m - 1)

    def residue_at_infinity(self):
        """-[coefficient of 1/x at infinity], via division by the expanded
        denominator: independent of the finite-residue path.  With no finite
        pole the function is a polynomial, whose residue at infinity is 0."""
        if not self.roots:
            return ZERO
        q = self.denominator_poly()
        _, rem = self.num.divmod_by(q)
        if rem.degree == q.degree - 1:
            return -(rem.coeffs[-1] / q.coeffs[-1])
        return ZERO

    def __repr__(self):
        return f"RatFun(num={self.num!r}, roots={self.roots!r})"


def _integer_form(f: RatFun) -> tuple:
    """f = sum_i C_i x^i / (L prod_k (x - u_k/v_k)^m_k) with integers C_i (highest degree first; phi(N) ints each
    over Q(zeta_N)), L, u_k and v_k, as (C, L, ((u_k, v_k, m_k), ...), prod_k v_k^m_k, sum_k m_k - deg f, field):
    field is None over Q, else (N, phi(N), the bits of prod_k v_k^m_k times the largest coordinate sum of the
    |C_i|, {width: C packed}); () for a cyclotomic root."""
    coeffs = f.num.coeffs
    if not all(type(c) in (Fraction, int, Cyclotomic) for c in coeffs) or not all(
            type(r) in (Fraction, int) for r, _ in f.roots):
        return ()
    (order, vectors, den), scale = _over(coeffs[::-1]), 1
    phi = euler_phi(order)
    for root, mult in f.roots:
        scale *= root.denominator**mult
    field = None if order == 1 else (
        order, phi, (max(sum(abs(v[u]) for v in vectors) for u in range(phi)) * scale).bit_length(), {})
    return (tuple(v[0] for v in vectors) if order == 1 else tuple(vectors), den,
            tuple((root.numerator, root.denominator, mult) for root, mult in f.roots), scale,
            sum(mult for _, mult in f.roots) - len(coeffs) + 1, field)


def _eval_integer(form: tuple, x: Fraction):
    """The function of :func:`_integer_form` at x = p/q: over q^deg the
    numerator is the homogeneous Horner sum of C_i p^i q^(deg - i), and
    over q^(sum m_k) prod_k v_k^m_k the denominator is prod_k (p v_k - u_k q)^m_k.
    Over Q(zeta_N) the pass runs on the C_i packed w bits apart, w holding a
    sign and the field's bound times max(|p|, q)^(deg + max(shift, 0))."""
    coeffs, den, roots, scale, shift, field = form
    p, q = x.numerator, x.denominator
    for u, v, mult in roots:
        factor = p * v - u * q
        if not factor:
            raise PoleError(f"rational function has a pole at {x}")
        den *= factor**mult
    num, power = 0, 1
    if field:
        order, phi, top, packed = field
        width = top + (len(coeffs) - 1 + max(shift, 0)) * max(abs(p), q).bit_length() + 1
        coeffs = packed.get(width) or packed.setdefault(width, [_pack(c, width) for c in coeffs])
    for c in coeffs:
        num = num * p + c * power
        power *= q
    num *= scale
    if shift >= 0:
        num *= q**shift
    else:
        den *= q**-shift
    if not field:
        return Fraction(num, den)
    return _canonical(order, _balanced(num if den > 0 else -num, width, phi), abs(den))


def over_one_denominator(fs) -> tuple:
    """([p_1, ...], roots) with each f_i = p_i / prod (x - root)^mult over
    the one denominator of the (root, mult) pairs ``roots``, the least
    common multiple of the f_i's denominators."""
    union = {}
    for f in fs:
        for root, mult in f.roots:
            union[root] = max(union.get(root, 0), mult)
    return ([_times_roots(f.num, [(r, m - f.multiplicity(r)) for r, m in union.items()]) for f in fs],
            list(union.items()))


def _times_roots(poly: Poly, factors) -> Poly:
    """poly prod (x - root)^mult over (root, mult) pairs."""
    for root, mult in factors:
        for _ in range(mult):
            poly = poly * Poly.linear(ONE, -root)
    return poly


def _times(poly: Poly, s) -> Poly:
    """poly times the scalar s, with no product where s is 1 or -1."""
    return poly if s == 1 else -poly if s == -1 else poly.scale(s)


def _cancel(num: Poly, root_map: dict):
    """Cancel (x - root) factors shared by numerator and denominator, by
    synthetic division repeated while the numerator vanishes at the root."""
    if num.is_zero():
        return num, {}
    root_map = dict(root_map)
    for root in list(root_map):
        while root_map[root] > 0:
            quotient, remainder = _horner_div_check(num, root)
            if remainder:
                break
            num = quotient
            root_map[root] -= 1
        if root_map[root] == 0:
            del root_map[root]
    return num, root_map
