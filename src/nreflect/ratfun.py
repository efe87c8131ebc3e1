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
from itertools import chain, combinations, product
from math import factorial, prod

from .errors import PoleError
from .scalars import (ZERO, ONE, Cyclotomic, _canonical, _one_field, _over, _pack, _Ring, _unpack, _width,
                      scalar_sort_key)


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
        self._integers = None  # built by the first evaluation at a Fraction

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
        """The value at x: :meth:`_numerators` normalized once."""
        order, nums, den = self._numerators(x)
        return Fraction(nums[0], den) if order == 1 else _canonical(order, nums, den)

    def _numerators(self, x) -> tuple:
        """(N, the phi(N) integer numerators, den > 0) of the value at x, not normalized; PoleError at a root of the
        denominator.  With rational roots and coefficients in Q or one Q(zeta_N), a Fraction point p/q is evaluated
        on integers (:func:`_eval_integer`); a cyclotomic root or point takes field arithmetic."""
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
        order, (nums,), den = _over((self.num.eval_at(x) / den,))
        return order, nums, den

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = other if isinstance(other, RatFun) else RatFun(other if isinstance(other, Poly) else Poly.const(other))
        union = {}  # the lcm of the two denominators
        for root, mult in self.roots + other.roots:
            union[root] = max(union.get(root, 0), mult)
        mine, theirs = (_times_roots(f.num, [(r, m - f.multiplicity(r)) for r, m in union.items()])
                        for f in (self, other))
        return RatFun(mine + theirs, list(union.items()))

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
    """f = sum_i C_i x^i / (L prod_k (x - u_k/v_k)^m_k) with integers C_i (phi(N) each over Q(zeta_N)), L, u_k and
    v_k, as (N, the C_i of each coordinate, highest degree first, L, ((u_k, v_k, m_k), ...), prod_k v_k^m_k,
    sum_k m_k - deg f); () for a cyclotomic root."""
    coeffs = f.num.coeffs
    if not all(type(c) in (Fraction, int, Cyclotomic) for c in coeffs) or not all(
            type(r) in (Fraction, int) for r, _ in f.roots):
        return ()
    order, vectors, den = _over(coeffs[::-1])
    return (order, tuple(zip(*vectors)) or ((),), den, tuple((r.numerator, r.denominator, m) for r, m in f.roots),
            prod(r.denominator**m for r, m in f.roots), sum(m for _, m in f.roots) - len(coeffs) + 1)


def _eval_integer(form: tuple, x: Fraction):
    """The function of :func:`_integer_form` at x = p/q, not normalized: over q^deg each coordinate of the numerator
    is the homogeneous Horner sum of C_i p^i q^(deg - i), and over q^(sum m_k) prod_k v_k^m_k the denominator is
    prod_k (p v_k - u_k q)^m_k, its sign moved to the numerators; (N, the numerators, den > 0)."""
    order, cols, den, roots, scale, shift = form
    p, q = x.numerator, x.denominator
    for u, v, mult in roots:
        if not (factor := p * v - u * q):
            raise PoleError(f"rational function has a pole at {x}")
        den *= factor**mult
    lift, den = scale * q**shift if shift > 0 else scale, den if shift >= 0 else den * q**-shift
    nums, lift, den = [], lift if den > 0 else -lift, abs(den)
    for col in cols:
        num, power = 0, 1
        for c in col:
            num, power = num * p + c * power, power * q
        nums.append(num * lift)
    return order, nums, den


class _Packed(_Ring):
    """Integer coordinate polynomials of Q(zeta_N)[nu] in the shared ring, tuples of at most phi tuples of
    coefficients (lowest degree first), one group of S = 2 phi - 1 digits a degree (Kronecker substitution in zeta_N
    and nu), with a bound on the 1-norm: sums of int products, folded mod Phi_N packed; OverflowError where the
    width rule asks for more than w bits a digit."""

    def pack(self, x) -> tuple:
        """(the packed int, the 1-norm) of the coordinate polynomial x."""
        return (sum(_pack(col, self.width * self.span) << self.width * u for u, col in enumerate(x)),
                sum(map(abs, chain.from_iterable(x))))

    def sums(self, sums) -> list:
        """sum_k c_k x_k y_k for each list of terms (c, x, y) of ``sums``, c an int, folded, with its 1-norm bound."""
        out = []
        for terms in sums:
            norm = sum(abs(c) * x[1] * y[1] for c, x, y in terms)
            if _width(norm * self.grow) > self.width:
                raise OverflowError(f"a coordinate needs more than {self.width} bits")
            out.append((self.fold(sum(c * x[0] * y[0] for c, x, y in terms)), norm * self.spread))
        return out

    def read(self, values) -> list:
        """The coordinate polynomials of the folded packed ``values``, phi tuples of one length each."""
        length = (max((abs(v).bit_length() for v, _ in values), default=0) + 1) // (self.span * self.width) + 1
        digits = _unpack([v for v, _ in values], self.width, length * self.span)
        cols = [digits[u::self.span] for u in range(self.phi)]
        return list(zip(*([tuple(col[i:i + length]) for i in range(0, len(col), length)] for col in cols)))

    def adjugate(self, rows: list, n: int) -> tuple:
        """(adj m, det m) of the n x n matrix m of packed rows, flat: expanded along first rows, a stage a size."""
        full = tuple(range(n))
        tops, dets = [full] + [full[:i] + full[i + 1:] for i in full], {((), ()): self.pack(((1,),))}
        for size in full:
            keys = list({(r[-size - 1:], c) for r in tops if len(r) > size for c in combinations(full, size + 1)})
            dets.update(zip(keys, [rows[r[0] * n + c[0]] for r, c in keys] if not size else self.sums(
                [[((-1) ** i, rows[r[0] * n + x], dets[r[1:], c[:i] + c[i + 1:]]) for i, x in enumerate(c)]
                 for r, c in keys])))
        adj = [dets[tops[j + 1], full[:i] + full[i + 1:]] for i in full for j in full]
        return [(-v, norm) if sum(divmod(i, n)) % 2 else (v, norm) for i, (v, norm) in enumerate(adj)], dets[full, full]

    def conjugated(self, left: list, ms: list, right: list, n: int) -> list:
        """(1 x left) m (1 x right) for each m of ``ms``, sparse rows of numerator vectors, and left, right n x n, flat,
        packed in this ring: entry (a x, c y) of m goes to (a b, c d) as sum_u m_u (zeta^u left[b][x]) right[y][d]."""
        lefts = left + [x for u in range(1, max((len(v) for m in ms for row in m for v in row.values()), default=1))
                        for x in self.sums([[(1, self.pack(((0,),) * u + ((1,),)), x)] for x in left])]
        cells, live = {}, [{i for i, (x, _) in enumerate(side) if x} for side in (left, right)]
        for t, m in enumerate(ms):
            for r, row in enumerate(m):
                for col, vec in row.items():
                    (a, x), (c, y) = divmod(r, n), divmod(col, n)
                    for b, d in product(range(n), repeat=2):
                        if b * n + x in live[0] and y * n + d in live[1]:
                            cells.setdefault((t, a * n + b, c * n + d), []).extend(
                                (v, lefts[u * n * n + b * n + x], right[y * n + d]) for u, v in enumerate(vec) if v)
        out = [[{} for _ in m] for m in ms]
        for (t, r, c), value in zip(cells, self.read(self.sums(cells.values()))):
            out[t][r][c] = value
        return out


def _poly(order: int, x, den: int = 1) -> Poly:
    """The integer coordinate polynomial x of :class:`_Packed` over den, as a :class:`Poly` of exact scalars."""
    return Poly([_canonical(order, list(coords), den) for coords in zip(*x)])


def compile_k(case, width: int = 64) -> tuple:
    """(terms, k^(N), ring) of k^(j) = k(nu) k(tau(nu)) ... k(tau^(j-1)(nu)) = P_j / s_j on integers, packed in a
    :class:`~nreflect.ratfun._Packed` of ``width`` bits a digit (twice that on overflow).  Over one denominator D
    of k, its roots u / D and tau, k = K / (D prod_u L_u^m_u), L_u = D nu - u, K of degree d; at tau^j = T / B,
    k = A_j / s_j, A_j = K(T, B) B^(m - d), s_j = D prod_u L_u(T, B)^m_u B^(d - m), no negative power.  Term j < N
    is (P_j = P_(j-1) A_(j-1), (D^j, s_0 ... s_(j-1)'s factors), adj P_j, det P_j as a RatFun); k^(N) is RatFun rows."""
    entries, n, tau = [f for row in case.k for f in row], case.n, case.tau
    roots = {r: max(e for f in entries for s, e in f.roots if s == r) for f in entries for r, _ in f.roots}
    order, vectors, den = _over([c for f in entries for c in f.num.coeffs] + list(roots) + [tau.a, tau.b, tau.c, tau.d])
    ring, vectors = _Packed(_one_field(order, *(b._order for b in case.base_r.basis)), width), iter(vectors)
    k = [tuple(zip(*[[x * den ** sum(e for _, e in f.roots) for x in next(vectors)] for _ in f.num.coeffs]))
         or ((0,),) for f in entries]
    lows, (a, b, c, d) = [ring.pack(tuple((-x,) for x in next(vectors))) for _ in roots], [
        ring.pack(tuple((x,) for x in next(vectors))) for _ in "abcd"]  # the -u D, and tau
    one, top, rows, scale, terms, m = ring.pack(((1,),)), ring.pack(((0, 1),)), None, [], [], sum(roots.values())
    try:
        lines, bottom = ring.sums([[(den, top, one), (1, low, one)] for low in lows]), one
        missing = [[i for i, r in enumerate(roots) for _ in range(roots[r] - f.multiplicity(r))] for f in entries]
        for _ in range(max(map(len, missing))):  # K over prod_u L_u^m_u
            k = ring.read(ring.sums([[(1, ring.pack(x), lines[rest.pop()] if rest else one)]
                                     for x, rest in zip(k, missing)]))
        deg = max(len(x[0]) for x in k) - 1
        coeffs = [ring.pack(tuple(col[i:i + 1] or (0,) for col in x)) for x in k for i in range(deg + 1)]
        for j in range(case.N):
            factor, powers = None if j else [ring.pack(x) for x in k], [one]  # B^(m - d), T^i B^(d - i) times it
            if j:
                top, bottom = ring.sums([[(1, a, top), (1, b, bottom)], [(1, c, top), (1, d, bottom)]])
                for i in range(max(m - deg, 0) + deg):
                    powers = ring.sums([[(1, h, bottom)] for h in powers] + [[(1, powers[-1], top)]] * (i >= m - deg))
                factor = ring.sums([[(1, coeffs[e + i], h) for i, h in enumerate(powers)]
                                    for e in range(0, len(coeffs), deg + 1)])
            scale += ring.sums([[(den, top, one), (1, low, bottom)] for low, r in zip(lows, roots)
                                for _ in range(roots[r])]) + [bottom] * (deg - m)
            rows = factor if rows is None else ring.sums([[(1, rows[i + s], factor[s * n + t]) for s in range(n)]
                                                          for i in range(0, n * n, n) for t in range(n)])
            if j < case.N - 1:
                adj, det = ring.adjugate(rows, n)
                terms.append((rows, (den ** (j + 1), scale[:]), adj, RatFun(_poly(ring.order, *ring.read([det])))))
    except OverflowError:
        return compile_k(case, 2 * width)
    pairs = [(_poly(ring.order, x).coeffs + (ZERO, ZERO))[1::-1] for x in ring.read(scale)]
    unit = RatFun.over_linears(Poly.const(ONE), pairs)  # 1 / (lead prod (nu - root)) of s_0 ... s_(N-1)
    kn = [RatFun(_times(_poly(ring.order, x, den ** case.N), unit.num.coeffs[0]), unit.roots) for x in ring.read(rows)]
    return tuple(terms), tuple(tuple(kn[i:i + n]) for i in range(0, n * n, n)), ring


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
