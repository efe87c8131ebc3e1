"""Gaudin-type models: Hamiltonians two ways, involution, and the exact
structural identities behind the Lax form.
"""

from fractions import Fraction as F

from nreflect.gaudin import (
    hamiltonian_explicit,
    hamiltonian_residue,
    hamiltonians_text,
    involution_residual,
    model_from_config,
    residue_sum_check,
    sampled_residual,
)

CONFIGS = {
    "two-reflection": {"case": "two-reflection", "params": {"a": "1", "b": "2", "c": "3"}, "z": ["1", "2", "4"]},
    "three-reflection": {"case": "three-reflection", "params": {"a": "1", "b": "3", "c": "-1", "d": "1"}, "z": ["2", "5", "9"]},
    "bcl": {"case": "bcl", "z": ["1", "2"]},
    "z3": {"case": "z3", "z": ["1", "2"]},
}

print("== Hamiltonians of the BC_L-type model (b = c = 0 reduction) ==")
bcl = model_from_config(CONFIGS["bcl"])
print(hamiltonians_text(bcl))
print("(the pair coupling is 1/(z1 - z2) + 1/(z1 + z2) = -2/3)")

print("\n== the cyclotomic reduction: couplings live in Q(zeta_3) ==")
z3 = model_from_config(CONFIGS["z3"])
print(hamiltonians_text(z3))

print("\n== residue extraction matches the closed forms exactly ==")
for name, config in CONFIGS.items():
    model = model_from_config(config)
    ok = all((hamiltonian_residue(model, m) - hamiltonian_explicit(model, m)).is_zero()
             for m in range(1, model.L + 1))
    print(f"  {name:16} residue == explicit: {ok}")

print("\n== involution: {H_i, H_k} is the zero polynomial ==")
for name, config in CONFIGS.items():
    model = model_from_config(config)
    ok = all(involution_residual(model, i, k).is_zero()
             for i in range(1, model.L + 1) for k in range(i + 1, model.L + 1))
    print(f"  {name:16} all pairs commute: {ok}")

print("\n== the residue theorem closes the books on every product c_m c_k ==")
model = model_from_config(CONFIGS["two-reflection"])
totals = residue_sum_check(model)
print(f"sum of all residues (finite + infinity) over {len(totals)} pairs:",
      "zero" if not any(totals.values()) else "NONZERO")

print("\n== structural identities at a sample point (lam, mu) = (5, 7) ==")
print("(each reads B(lam), B(mu) and rbar off one point frame at lam and one at mu)")
model = model_from_config({"case": "two-reflection", "params": {"a": "1", "b": "2", "c": "3"}, "z": ["1", "2"]})
lam, mu = F(5), F(7)
print("  Poisson bracket of B matches the rbar structure:", sampled_residual(model, "rbb", lam, mu).is_zero())
print("  {tr B(lam)^2, tr B(mu)^3} = 0:", sampled_residual(model, "trbrackets", lam, mu, 2, 3).is_zero())
print("  Lax form of the tr B^2 flow:", sampled_residual(model, "lax", lam, mu, 2).is_zero())
print("  M(lam, nu) k(nu) = k(nu) M(lam, tau(nu)):", sampled_residual(model, "mk", lam, mu, 2).is_zero())
