"""``hamiltonian_residue`` against the residues of the site-coefficient products.

The oracle here is H_m = (1/2) res_{z_m} tr B(lam)^2 taken term by term from
the scalar rational functions c_m of ``GaudinModel.site_coefficients``:

    H_m = sum_{k != m} res_{z_m}(c_m c_k) S_mk + (1/2) res_{z_m}(c_m^2) C_m,

with every product formed and every residue taken by ``RatFun`` and the sum
built by the public ``SpinPoly`` operators.  It is compared with ``==``
against ``hamiltonian_residue`` on all five model kinds at L = 1 to 5, with
fractional and negative sites (L = 1 has no pair term at all).

``residue-equality`` reads each H_m off one point frame at z_m and forms no
rational function of lam: a count guard runs it on two-reflection at L = 4.
"""

from fractions import Fraction

import pytest

from nreflect import gaudin
from nreflect.errors import ModelError
from nreflect.gaudin import hamiltonian_residue, model_from_config
from nreflect.ratfun import RatFun
from nreflect.spinalg import casimir, s_pair
from test_gaudin_digests import MODELS, RECORDED, SAMPLES, SEED, digest

F = Fraction

KINDS = {
    "two-reflection": {"a": "1", "b": "2", "c": "3"},
    "two-reflection-fractional": {"a": "2", "b": "-1/2", "c": "5/3"},
    "three-reflection": {"a": "1", "b": "3", "c": "-1", "d": "1"},
    "bcl": {"a": "1/2"},
    "z3": {},
    "plain": {},
}
# Candidate sites, tried in this order; a candidate that would make the model
# invalid (a weight pole, or a collision with an orbit point) is skipped.
CANDIDATES = ("-7/2", "2/5", "3", "-1", "5/3", "-4/7", "9/2", "1/3", "-2", "11/6", "6", "-13/5")


def model(kind: str, L: int):
    case = kind.removesuffix("-fractional")
    sites = []
    for candidate in CANDIDATES:
        try:
            built = model_from_config({"case": case, "params": KINDS[kind], "z": sites + [candidate]})
        except ModelError:
            continue
        sites.append(candidate)
        if len(sites) == L:
            return built
    raise AssertionError(f"fewer than {L} admissible candidate sites for {kind}")


def residue_oracle(built, m: int):
    """(1/2) res_{z_m} of tr B^2 from the products of the site coefficients."""
    zm = built.sites[m - 1]
    cs = built.site_coefficients
    cm = cs[m - 1]
    out = F(1, 2) * (cm * cm).residue(zm) * casimir(m)
    for k, ck in enumerate(cs, start=1):
        if k != m:
            out = out + (cm * ck).residue(zm) * s_pair(m, k)
    return out


@pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("kind", list(KINDS))
def test_hamiltonian_residue_equals_the_product_residues(kind, L):
    built = model(kind, L)
    assert built.L == L
    for m in range(1, L + 1):
        assert hamiltonian_residue(built, m) == residue_oracle(built, m)


def test_sites_are_fractional_and_negative():
    for kind in KINDS:
        sites = model(kind, 5).sites
        assert any(z < 0 for z in sites) and any(F(z).denominator > 1 for z in sites)


def counted(monkeypatch, owner, name) -> list:
    """The argument tuples of every call of owner.name from now on."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_residue_equality_builds_one_frame_per_site_and_no_rational_function(monkeypatch):
    frames = counted(monkeypatch, gaudin, "point_frame")
    ratfun_calls = [counted(monkeypatch, RatFun, name) for name in ("__mul__", "__rmul__", "residue")]
    config = MODELS["two"]
    got = digest(config, ["gaudin", "residue-equality", "--seed", SEED, "--samples", SAMPLES])
    assert got == RECORDED["residue-equality two-L4"]
    assert [nu for _case, nu in frames] == [F(z) for z in config["z"]]
    assert ratfun_calls == [[], [], []]
