"""Record every operation's pinned exit code and stdout digest.

    python3 perfbench/pin.py

Runs each workload once with the default seed and rewrites
``expected.json``.  Only run it at a commit whose outputs are right:
``run.py`` fails every later commit whose outputs differ from it.
"""
from __future__ import annotations

import json
import os
import sys
import tempfile

import ladder
import run
from workloads import WORKLOADS, Ladder


def main() -> int:
    problem = run.import_package()
    if problem is not None:
        sys.stderr.write("pin.py: %s\n" % problem)
        return 2
    expected = {}
    os.makedirs(run.WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as docs:
        lad = Ladder(ladder.DEFAULT_SEED, docs)
        for build in WORKLOADS.values():
            for op in build(lad):
                res = run.run_op(op.argv, False)
                expected[op.label] = {"exit": res["code"],
                                      "sha256": res["sha256"]}
    with open(run.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
