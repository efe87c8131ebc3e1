"""Base r-matrices and exact Yang-Baxter checks.

Everything here is exact rational arithmetic: a residual either is the zero
matrix or it is not, with no tolerances involved.
"""

from fractions import Fraction as F

from nreflect import cybe_residual, rational_r, skew_residual, trig_r
from nreflect.sampling import DEFAULT_SEED, SplitMix64, sample_evaluated

print("== the rational r-matrix P/(lam - mu) on C^2 x C^2 ==")
r = rational_r(2)
print(r(F(3), F(1)).pretty())

print("\n== the 4x4 trigonometric solution at (lam, nu) = (2, 1) ==")
rt = trig_r()
print(rt(F(2), F(1)).pretty())

print("\n== classical Yang-Baxter residual at (1, 2, 3) ==")
print("rational r :", "zero" if cybe_residual(r, F(1), F(2), F(3)).is_zero() else "NONZERO")
print("trig r     :", "zero" if cybe_residual(rt, F(2), F(3), F(5)).is_zero() else "NONZERO")

print("\n== skew-symmetry r_ab(lam, mu) = -P r(mu, lam) P ==")
for label, rm in (("rational", r), ("trig", rt)):
    print(f"{label:9}:", "zero residual" if skew_residual(rm, F(2), F(5)).is_zero() else "NONZERO")

print("\n== 25 seeded random triples (Schwartz-Zippel style certification) ==")
for label, rm in (("rational n=2", rational_r(2)), ("rational n=3", rational_r(3)), ("trig", rt)):
    rng = SplitMix64(DEFAULT_SEED)
    samples = sample_evaluated(rng, 25, 3, lambda *pt: cybe_residual(rm, *pt))
    verdict = all(residual.is_zero() for _, residual in samples)
    print(f"{label:13}: {'all 25 residuals exactly zero' if verdict else 'FAILED'}")
