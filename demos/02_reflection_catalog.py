"""The reflection-case catalog: Mobius orbits, residual checks, the induced
Yang-Baxter solutions, and the reparametrization back to the rational r.
"""

from fractions import Fraction as F

from nreflect import build_rbar, case_by_label, catalog, cybe_residual, n_unitarity, nre_residual
from nreflect.linalg import permutation_operator
from nreflect.reflection import equivalence_residual, equivalence_transform, tamper
from nreflect.sampling import DEFAULT_SEED, SplitMix64, sample_evaluated

print("== a Mobius involution and an order-three map ==")
case2 = case_by_label("id-2refl")       # tau(nu) = (nu + 2)/(3 nu - 1)
case3 = case_by_label("id-3refl")       # tau(nu) = (nu + 3)/(1 - nu)
print("2-reflection orbit of 0 :", [str(x) for x in case2.orbit(F(0))], " tau^2(0) =", case2.tau.iterate(2)(F(0)))
print("3-reflection orbit of 0 :", [str(x) for x in case3.orbit(F(0))], " tau^3(0) =", case3.tau.iterate(3)(F(0)))

print("\n== residual scorecard over the whole catalog (5 seeded samples each) ==")
for case in catalog():
    rng = SplitMix64(DEFAULT_SEED)
    samples = sample_evaluated(rng, 5, 2, lambda lam, nu: nre_residual(case, lam, nu))
    ok = all(residual.is_zero() for _, residual in samples)
    print(f"  {case.label:26} {'solves the reflection identity' if ok else 'FAILS (as recorded)'}")

print("\n== breaking a weight breaks the identity ==")
broken = tamper(case2, "g1-sign")
print("tampered id-2refl at (1, 2):",
      "nonzero residual" if not nre_residual(broken, F(1), F(2)).is_zero() else "unexpectedly zero")

print("\n== N-fold unitarity: k(nu) k(tau nu) ... = f(nu) 1 ==")
case = case_by_label("linear-k-N2-diag-th2")
report = n_unitarity(case, [F(1), F(5), F(-3, 2)])
for entry in report["results"]:
    print(f"  nu = {entry['sample'][0]:>5}   f = {entry['f']}")
print("  (matches theta^2 - nu^2 with theta = 2)")

print("\n== the induced r-matrix and its Yang-Baxter property ==")
rbar = build_rbar(case2)
print("rbar at (1, 0):")
print(rbar(F(1), F(0)).pretty())
print("equals -(4/3) P:", rbar(F(1), F(0)) == permutation_operator(2).scale(F(-4, 3)))
print("CYBE residual of rbar at (1, 2, 3):",
      "zero" if cybe_residual(rbar, F(1), F(2), F(3)).is_zero() else "NONZERO")

print("\n== reparametrizing rbar back to the rational r ==")
transform = equivalence_transform(case2)
print("p(1) - p(0) =", transform.p(F(1)) - transform.p(F(0)), " prefactor(0) =", transform.prefactor(F(0)))
print("rbar(lam, mu) = p'(mu) r(p(lam) - p(mu)) at (1, 0):",
      "exact" if equivalence_residual(case2, F(1), F(0)).is_zero() else "NONZERO")
rng = SplitMix64(DEFAULT_SEED)
samples = sample_evaluated(rng, 10, 2, lambda lam, mu: equivalence_residual(case3, lam, mu))
ok = all(residual.is_zero() for _, residual in samples)
print("3-reflection transform at 10 seeded samples:", "exact" if ok else "NONZERO")
