"""Count the dense arrays built while a report or the invariant battery runs.

``exactlin.Matrix`` stores the nonzero entries of each row and builds a
numpy array only when asked (``Matrix.array``).  A ``Matrix`` read from an
array goes through ``FieldSpec.canonical``, and ``FieldSpec.zeros`` is where
every dense array of the package starts.  :func:`dense_spy` counts the calls
of these three while its block runs; a report or a battery run should make
none.

As a script it checks every builtin through ``adrkit analyze`` (JSON report
to a temporary file) and the fuzz slice of ``adrkit corpus fuzz --samples
200 --seed 5000`` through ``tagged_invariant_failures``, building each
algebra inside the spy too.  It exits 1 and names the first input that
built a dense array:

    PYTHONPATH=tests python tests/dense_spy.py
"""

from __future__ import annotations

import contextlib
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

from adrkit import cli
from adrkit.corpus import builtin_entries, random_admissible, tagged_invariant_failures
from adrkit.exactlin import FieldSpec, Matrix

SPIED = ((FieldSpec, "zeros"), (FieldSpec, "canonical"), (Matrix, "array"))


@contextlib.contextmanager
def dense_spy():
    """Yield a Counter of the calls, by ``Class.name``, of the functions in ``SPIED`` while the block runs."""
    calls: Counter = Counter()
    saved = [(owner, name, owner.__dict__[name]) for owner, name in SPIED]
    for owner, name, real in saved:
        def spy(*args, _real=real, _name=f"{owner.__name__}.{name}", **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        setattr(owner, name, spy)
    try:
        yield calls
    finally:
        for owner, name, real in saved:
            setattr(owner, name, real)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for entry in builtin_entries():
            src, out = Path(tmp) / f"{entry.id}.json", Path(tmp) / f"{entry.id}.report.json"
            src.write_text(json.dumps(cli.presentation_to_doc(entry.presentation)))
            with dense_spy() as calls:
                code = cli.main(["analyze", str(src), "--out", str(out)])
            if code or calls:
                print(f"analyze {entry.id}: exit {code}, dense calls {dict(calls)}")
                return 1
    for seed in range(5000, 5200):
        with dense_spy() as calls:
            failures = tagged_invariant_failures(random_admissible(seed).build())
        if failures or calls:
            print(f"battery on seed {seed}: failures {failures}, dense calls {dict(calls)}")
            return 1
    print(f"no dense array: {len(builtin_entries())} analyze reports, 200 battery runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
