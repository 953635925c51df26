"""The CLI gives the same exit code and stdout under ``python -O``.

Assertions are stripped under ``-O``, so every check a command relies on
for its exit code must be an explicit raise.  Each command runs in two
subprocesses, plain and with ``-O``.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LADDER = json.loads((ROOT / "perfbench" / "ladder.json").read_text())

# placeholder argv entries -> the diagram documents written for them
DOCUMENTS = {"n2m13": LADDER["n2m13"],
             "exponent-vertex": [["1e5", "0"], ["0", "1"], ["-1", "-1"]],
             "order-19-simplex": [
                 ["7/19", "21/19", "30/19", "34/19"],
                 ["16/19", "-10/19", "32/19", "-23/19"],
                 ["-7/19", "-38/19", "29/19", "-39/19"],
                 ["9/19", "-23/19", "-10/19", "21/19"],
                 ["-33/19", "-39/19", "-39/19", "-13/19"]]}

# (argv, exit code of the plain run); "n2m13" is the ladder document
COMMANDS = [
    (["hc", "corpus:order-three-square", "--pipeline", "resolution",
      "--window", "-100:-99"], 65),
    (["hc", "corpus:unit-simplex", "--window", "-100:-99"], 65),
    (["quotient", "corpus:unit-simplex", "--window", "-100:-99"], 65),
    (["cb", "corpus:lens-skew", "--window", "-1:4"], 0),
    (["hc", "n2m13"], 0),
    (["crosscheck", "corpus:blowup-quad"], 0),
    (["orbifold", "corpus:order-three-square"], 0),
    (["resolve", "corpus:lens-triangle"], 0),
    (["hc", "n2m13", "--pipeline", "resolution", "--trivial"], 0),
    (["orbits", "corpus:order-three-square"], 0),
    (["cb", "n2m13", "--pipeline", "both"], 0),
    (["quotient", "corpus:blowup-quad"], 0),
    (["validate", "n2m13"], 0),
    (["resolve", "corpus:blowup-quad"], 0),
    (["validate", "corpus:blowup-quad"], 0),
    (["delta", "corpus:lens-triangle"], 0),
    (["delta", "n2m13"], 0),
    (["cb", "corpus:order-three-square", "--pipeline", "delta"], 0),
    (["cb", "corpus:lens-triangle", "--window", "-1:4", "--format", "table"],
     0),
    (["orbits", "corpus:lens-skew", "--iterates", "3", "--perturb", "1/97"],
     0),
    (["cb", "corpus:lens-triangle", "--window", "1/0:3"], 64),
    (["cb", "corpus:lens-triangle", "--perturb", "1/0"], 64),
    (["cb", "corpus:lens-triangle", "--reeb", "1/0,0"], 64),
    (["resolve", "corpus:lens-triangle", "--star", "0,1/0"], 64),
    (["resolve", "corpus:lens-triangle", "--star", "0"], 64),
    (["resolve", "corpus:lens-triangle", "--star", "0,0,0"], 64),
    (["crosscheck", "corpus:blowup-quad", "--format", "table"], 0),
    (["quotient", "corpus:lens-skew"], 0),
    (["orbits", "corpus:lens-skew"], 0),
    (["hc", "corpus:lens-triangle", "--star", "5,5"], 64),
    (["hc", "corpus:lens-triangle", "--triangulation", "absent.json"], 64),
    (["hc", "corpus:lens-triangle", "--pipeline", "quotient", "--trivial"],
     64),
    (["cb", "corpus:lens-triangle", "--perturb", "1e200000",
      "--pipeline", "direct"], 64),
    (["validate", "exponent-vertex"], 64),
    (["validate", "order-19-simplex"], 0),
    (["hc", "corpus:lens-triangle", "--pipeline", "resolution",
      "--reeb", "5,5,5"], 64),
    (["crosscheck", "corpus:order-three-square", "--reeb", "9,9,9"], 64),
    (["crosscheck", "n2m13"], 0),
    (["cb", "corpus:lens-triangle", "--perturb", "0", "--pipeline", "direct"],
     66),
]


def _run(flags, argv):
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")]
                                  if p]
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "contactbetti.cli", *argv],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)))
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("argv,code", COMMANDS,
                         ids=[" ".join(argv) for argv, _ in COMMANDS])
def test_optimized_run_matches_plain_run(tmp_path, argv, code):
    for name, vertices in DOCUMENTS.items():
        (tmp_path / (name + ".json")).write_text(json.dumps(
            {"kind": "diagram", "vertices": vertices}))
    argv = [str(tmp_path / (a + ".json")) if a in DOCUMENTS else a
            for a in argv]
    plain = _run([], argv)
    assert plain[0] == code
    assert _run(["-O"], argv) == plain
