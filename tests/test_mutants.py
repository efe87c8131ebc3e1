"""The hand-listed mutants of ``tests/data/mutants.json`` still apply.

Each mutant names a module of ``src/nreflect``, an exact old text, the new
text that breaks it and the test that kills it.  A runner that applies them
one at a time to a copy of the source needs each old text to occur exactly
once in today's source; this self-test checks that, and that the killing
test's file exists.  It does not apply any mutant.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = json.loads((ROOT / "tests" / "data" / "mutants.json").read_text())


@pytest.mark.parametrize("mutant", MUTANTS, ids=[f"{m['file']}:{i}" for i, m in enumerate(MUTANTS)])
def test_each_mutant_applies_exactly_once(mutant):
    source = (ROOT / "src" / "nreflect" / mutant["file"]).read_text()
    assert source.count(mutant["old"]) == 1, mutant["old"]
    assert mutant["new"] != mutant["old"] and mutant["why"]
    assert (ROOT / mutant["killed_by"].split("::")[0]).is_file(), mutant["killed_by"]
