"""Byte-identity of the ``gaudin`` reports on large models, outside tier-1.

``tests/data/large_gaudin_digests.json`` holds the exit code and the sha256
of the stdout of ``nreflect gaudin <subcommand> --seed 7 --samples 2``.
All seven subcommands run on three models: two-reflection at L = 32 and at
L = 64 (sites z = 1, 4, 7, ...), and z3 at L = 16, whose coefficients lie
in Q(zeta_3).  Two-reflection at L = 128 runs only ``residue-equality`` and
``hamiltonians``; its brackets take minutes.  The L = 64 set takes tens of
seconds, too long for the tier-1 suite, so pytest does not collect this
file (its name does not start with ``test_``).  Run it by hand before and
after any change to the spin polynomials or the Gaudin layer::

    PYTHONPATH=src python tests/large_gaudin_digests.py            # check
    PYTHONPATH=src python tests/large_gaudin_digests.py two-L32    # names containing "two-L32"
    PYTHONPATH=src python tests/large_gaudin_digests.py --record   # re-record

Each command's wall time is printed beside its verdict.  The exit status
is 1 when any checked digest differs from the recorded one.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from nreflect.cli import GAUDIN_SUBCOMMANDS

sys.path.insert(0, str(Path(__file__).parent))
from test_gaudin_digests import SAMPLES, SEED, digest  # noqa: E402

DATA = Path(__file__).parent / "data" / "large_gaudin_digests.json"
# name -> (model config, the gaudin subcommands run on it)
MODELS = {
    "two-L32": ({"case": "two-reflection", "z": [str(1 + 3 * i) for i in range(32)]}, GAUDIN_SUBCOMMANDS),
    "two-L64": ({"case": "two-reflection", "z": [str(1 + 3 * i) for i in range(64)]}, GAUDIN_SUBCOMMANDS),
    "two-L128": ({"case": "two-reflection", "z": [str(1 + 3 * i) for i in range(128)]},
                 ("hamiltonians", "residue-equality")),
    "z3-L16": ({"case": "z3", "z": [str(1 + 3 * i) for i in range(16)]}, GAUDIN_SUBCOMMANDS),
}


def commands() -> dict:
    """Name -> (model config, argv after ``--config <path>``)."""
    return {f"{sub} {name}": (config, ["gaudin", sub, "--seed", SEED, "--samples", SAMPLES])
            for name, (config, subs) in MODELS.items() for sub in subs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="run only the commands whose name contains one of these")
    parser.add_argument("--record", action="store_true", help="write the digests instead of checking them")
    args = parser.parse_args(argv)
    recorded = json.loads(DATA.read_text()) if DATA.exists() else {}
    chosen = {name: spec for name, spec in commands().items()
              if not args.names or any(part in name for part in args.names)}
    table, failed = dict(recorded), 0
    for name, spec in chosen.items():
        start = time.perf_counter()
        got = digest(*spec)
        elapsed = time.perf_counter() - start
        if args.record:
            table[name] = got
            verdict = "recorded"
        else:
            verdict = "ok" if recorded.get(name) == got else "DIFFERS"
            failed += verdict != "ok"
        sys.stdout.write(f"{name:32s} {elapsed:8.2f} s  exit {got['exit']}  {verdict}\n")
        sys.stdout.flush()
    if args.record:
        DATA.write_text(json.dumps({name: table[name] for name in sorted(table)}, indent=1) + "\n")
        sys.stdout.write(f"recorded {len(chosen)} digests to {DATA}\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
