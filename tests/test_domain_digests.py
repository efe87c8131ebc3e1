"""Accept/reject verdicts of every sampled check against committed digests.

A sampled check draws seeded rational points and keeps only those where the
identity can be evaluated.  For every such check (each ``verify`` subject on
each catalog label, the three base-r ``cybe`` variants, ``nre --tamper
g1-sign`` on each label, and the four sampled ``gaudin`` subcommands on five
models) this file computes the verdict, admitted or rejected, at every point
of a fixed list, and compares a sha256 of the verdict string with
``tests/data/domain_digests.json``.  A change to the rejection logic that
moves a single point fails here, also where the seeded reports of
``test_verify_digests.py`` and ``test_gaudin_digests.py`` never draw it.

The point lists:

* one argument: every value ``sample_fraction`` can return (511 rationals);
* two arguments: 40 seeded pairs, every pair (x, tau^j(x)) for j < N
  (j = 0 is the diagonal) with x among 16 partner values (every 32nd
  sampler value), and every pair with a rejected single point in either
  slot and a partner value in the other;
* three arguments: 8 seeded triples, and every special pair of the
  two-argument list placed in each two of the three slots, the third slot
  seeded.

The lists are this small because after a change each verdict costs one
full evaluation of the identity (up to 0.15 s for a 27x27 CYBE residual
over Q(zeta_3)); the special pairs are where a domain can move, and a
domain rule that holds at one generic partner holds at all of them.

A single point is rejected where the one-argument domain of the check's
case rejects it (``nunitarity`` for a reflection case, B(lam) for a Gaudin
model).  Each verdict is the sampler's own rule: ``first_admissible`` on
the one point, which rejects it exactly where the check's evaluation raises
a pole error.  A check that raises anything else records the error's type
and the index of the point, and stops.  The digests were recorded with the
hand-written rejection predicates this rule replaced.

Re-record (only when a domain is meant to change) with::

    PYTHONPATH=src python tests/test_domain_digests.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from nreflect.cli import VERIFY_SUBJECTS
from nreflect.errors import PoleError
from nreflect.gaudin import model_from_config, sampled_residual, site_values
from nreflect.reflection import CATALOG, case_by_label, sampled_check, tamper
from nreflect.rmatrix import cybe_residual, rational_r, trig_r
from nreflect.sampling import SplitMix64, first_admissible, sample_fraction

DATA = Path(__file__).parent / "data" / "domain_digests.json"
SEED = 2024
SEEDED = {2: 40, 3: 8}
VALUES = sorted({Fraction(p, q) for p in range(-20, 21) for q in range(1, 21)})
PARTNERS = VALUES[::32]
SUBJECTS = [subject for subject in VERIFY_SUBJECTS if subject != "cybe"]
GAUDIN_SAMPLED = ("rbb", "lax", "mk", "trbrackets")
MODELS = {
    "two": {"case": "two-reflection", "params": {"a": "1", "b": "2", "c": "3"}, "z": ["1", "2"]},
    "three": {"case": "three-reflection", "params": {"a": "1", "b": "3", "c": "-1", "d": "1"},
              "z": ["2", "5"]},
    "bcl": {"case": "bcl", "z": ["1", "2"]},
    "z3": {"case": "z3", "z": ["1", "2"]},
    "plain": {"case": "plain", "z": ["1", "2"]},
}


# ---------------------------------------------------------------------------
# the rejection rule under test
# ---------------------------------------------------------------------------

def admitted(evaluate, point) -> bool:
    try:
        first_admissible([point], evaluate)
    except RuntimeError:  # the one point was rejected
        return False
    return True


# ---------------------------------------------------------------------------
# point lists
# ---------------------------------------------------------------------------

def seeded(arity, count=None):
    count = SEEDED[arity] if count is None else count
    rng = SplitMix64(SEED + arity)
    return [tuple(sample_fraction(rng) for _ in range(arity)) for _ in range(count)]


def special_pairs(tau, order, rejected):
    """(x, tau^j(x)) for j < order, then (x, y) and (y, x) for rejected x."""
    pairs = []
    for x in PARTNERS:
        point = x
        for j in range(order):
            pairs.append((x, point))
            if j < order - 1:
                try:
                    point = tau(point)
                except PoleError:
                    break
    for x in rejected:
        for y in PARTNERS:
            pairs += [(x, y), (y, x)]
    return pairs


def point_list(arity, tau, order, rejected):
    if arity == 1:
        return [(x,) for x in VALUES]
    pairs = special_pairs(tau, order, rejected)
    if arity == 2:
        return seeded(2) + pairs
    thirds = iter(seeded(1, 3 * len(pairs)))
    triples = []
    for p, q in pairs:
        triples += [(p, q, next(thirds)[0]), (p, next(thirds)[0], q), (next(thirds)[0], p, q)]
    return seeded(3) + triples


# ---------------------------------------------------------------------------
# the checks, each as (arity, evaluation): for a reflection case the
# evaluation ``verify`` samples, from ``sampled_check``
# ---------------------------------------------------------------------------

def identity(x):
    return x


_REJECTED = {}


def rejected_singles(key, single) -> list:
    """The sampler values that the one-argument check ``single`` rejects,
    computed once per case or model."""
    if key not in _REJECTED:
        _REJECTED[key] = [x for x in VALUES if not admitted(single, (x,))]
    return _REJECTED[key]


def all_checks() -> dict:
    """Name -> thunk returning (arity, evaluation, tau, order, rejected singles)."""
    table = {}
    for name, r in (("rational n=2", rational_r(2)), ("rational n=3", rational_r(3)), ("trig", trig_r())):
        table[f"cybe {name}"] = lambda r=r: (3, lambda *pt: cybe_residual(r, *pt), identity, 1, [])
    for label in sorted(CATALOG):
        for subject in SUBJECTS:
            def spec(label=label, subject=subject):
                case = case_by_label(label)
                return (*sampled_check(case, subject), case.tau, case.N,
                        rejected_singles(label, sampled_check(case, "nunitarity")[1]))
            table[f"{subject} {label}"] = spec

        def tampered(label=label):
            case = tamper(case_by_label(label), "g1-sign")
            return (*sampled_check(case, "nre"), case.tau, case.N,
                    rejected_singles(case.label, sampled_check(case, "nunitarity")[1]))
        table[f"nre {label} tamper"] = tampered
    for name, config in MODELS.items():
        for sub in GAUDIN_SAMPLED:
            def gaudin_spec(config=config, sub=sub, name=name):
                model = model_from_config(config)
                return (2, lambda l, m: sampled_residual(model, sub, l, m), model.case.tau, model.N,
                        rejected_singles(name, lambda x: site_values(model, x)))
            table[f"gaudin {sub} {name}"] = gaudin_spec
    return table


def digest(spec) -> dict:
    try:
        arity, check, tau, order, rejected = spec()
    except Exception as exc:  # a check the CLI refuses to build: recorded as such
        return {"error": type(exc).__name__}
    points = point_list(arity, tau, order, rejected)
    verdicts = []
    for index, point in enumerate(points):
        try:
            verdicts.append("1" if admitted(check, point) else "0")
        except Exception as exc:
            return {"error": type(exc).__name__, "at": index}
    text = "".join(verdicts)
    return {"points": len(points), "rejected": text.count("0"),
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


RECORDED = json.loads(DATA.read_text()) if DATA.exists() else {}


def test_every_check_is_recorded():
    assert sorted(RECORDED) == sorted(all_checks())


@pytest.mark.parametrize("name", sorted(all_checks()))
def test_domain_is_unchanged(name):
    assert digest(all_checks()[name]) == RECORDED[name]


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    table = {name: digest(spec) for name, spec in all_checks().items()}
    DATA.write_text(json.dumps(table, sort_keys=True, indent=1) + "\n")
    sys.stdout.write(f"recorded {len(table)} digests to {DATA}\n")
