"""Run the reports and the invariant battery with numpy blocked.

adrkit runs on the standard library alone; numpy serves only the tests'
oracles and the benchmark.  This script sets ``sys.modules["numpy"] = None``
before it imports adrkit, so that any ``import numpy`` raises ImportError.
It then runs ``adrkit analyze`` on every builtin (JSON report to a temporary
file) and ``adrkit corpus fuzz --samples 200 --seed 5000``.  It exits 1 and
names the first run that does not exit 0:

    PYTHONPATH=src python tests/numpy_blocked.py
"""

import sys

sys.modules["numpy"] = None

import json
import tempfile
from pathlib import Path

from adrkit import cli
from adrkit.corpus import builtin_entries


def main() -> int:
    entries = builtin_entries()
    with tempfile.TemporaryDirectory() as tmp:
        for entry in entries:
            src, out = Path(tmp) / f"{entry.id}.json", Path(tmp) / f"{entry.id}.report.json"
            src.write_text(json.dumps(cli.presentation_to_doc(entry.presentation)))
            code = cli.main(["analyze", str(src), "--out", str(out)])
            if code:
                print(f"analyze {entry.id}: exit {code}")
                return 1
    code = cli.main(["corpus", "fuzz", "--samples", "200", "--seed", "5000"])
    if code:
        print(f"corpus fuzz --samples 200 --seed 5000: exit {code}")
        return 1
    print(f"numpy blocked: {len(entries)} analyze reports and 200 battery runs exit 0")
    return 0


if __name__ == "__main__":
    sys.exit(main())
