"""The benchmark's workloads: CLI operations on ladder and corpus documents.

Each operation is one ``contactbetti`` command line.  Ladder documents
are the seed's presentations of the pinned draws (``ladder.py``),
written to a directory the caller owns; the program only ever sees
those files and the built-in ``corpus:`` documents.  Presentations are
lattice-equivalent, so an operation's stdout is the same for every seed
and one pinned digest per operation (``expected.json``) checks them all.
"""
from __future__ import annotations

import json
import os
from typing import Callable, Dict, List, NamedTuple

import ladder

COMMANDS = ("validate", "ehrhart", "delta", "cb", "orbits", "resolve",
            "orbifold", "quotient", "hc", "crosscheck")
CORPUS = ("lens-triangle", "lens-skew", "unit-simplex", "order-three-square",
          "blowup-quad", "projective-plane", "projective-plane-triple",
          "product-of-spheres", "product-of-spheres-double")


class Op(NamedTuple):
    label: str          # names the operation in expected.json and reports
    argv: List[str]


class Ladder:
    """Writes the seed's ladder documents to ``directory`` on first use."""

    def __init__(self, seed: int, directory: str):
        self.seed = seed
        self.directory = directory
        self.draws = ladder.load_pinned()

    def op(self, cmd: str, row: str, *flags: str) -> Op:
        path = os.path.join(self.directory, row + ".json")
        if not os.path.exists(path):
            doc = ladder.document(row, self.draws[row], self.seed)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2)
                fh.write("\n")
        return Op(" ".join((cmd, row) + flags), [cmd, path, *flags])


def delta_series(lad: Ladder) -> List[Op]:
    """Series-side commands only: nearly all time is dilate-scan counting,
    with long rows in 3-D/4-D and many short rows at order 101 in 2-D."""
    ops = []
    for row in ("n3m5", "n4m2"):
        ops += [lad.op("delta", row), lad.op("cb", row, "--pipeline", "delta")]
    return ops + [lad.op("delta", row)
                  for row in ("n3m8", "n3m13", "n4m3", "n2m101")]


def orbits_corpus(lad: Ladder) -> List[Op]:
    """The direct orbit pipeline on 2-D ladder diagrams, then every command
    on every corpus document: fixed per-command cost and the resolution
    and quotient pipelines."""
    ops = [lad.op("cb", row, "--pipeline", "both")
           for row in ("n2m13", "n2m21", "n2m40")]
    for name in CORPUS:
        for cmd in COMMANDS:
            argv = [cmd, "corpus:" + name]
            if cmd == "crosscheck":
                argv += ["--format", "table"]
            ops.append(Op(" ".join(argv), argv))
    return ops + [lad.op("crosscheck", "n2m8"), lad.op("crosscheck", "n3m3"),
                  lad.op("hc", "n2m13")]


WORKLOADS: Dict[str, Callable[[Ladder], List[Op]]] = {
    "delta-series": delta_series,
    "orbits-corpus": orbits_corpus,
}
