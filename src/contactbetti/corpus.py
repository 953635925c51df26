"""Built-in example documents.

Each document is a plain JSON-ready dict describing either a toric
diagram (vertex list, optional integral quotient direction) or a
labelled polytope (inward primitive normals plus integer offsets).
Rational coordinates are lowest-terms strings so the files round-trip
byte-identically through the CLI.
"""
from __future__ import annotations

import json
from typing import Dict

DOCUMENTS = (
    {
        "name": "lens-triangle",
        "kind": "diagram",
        "description": "integral triangle with one interior lattice point;"
                       " the quotient base is the projective plane",
        "vertices": [["1", "0"], ["0", "1"], ["-1", "-1"]],
        "reeb": [0, 0, 1],
    },
    {
        "name": "lens-skew",
        "kind": "diagram",
        "description": "skew triangle presenting the same lens space; the"
                       " chosen direction has a weighted projective base",
        "vertices": [["0", "0"], ["1", "0"], ["2", "3"]],
        "reeb": [1, 1, 2],
    },
    {
        "name": "unit-simplex",
        "kind": "diagram",
        "description": "standard 2-simplex; the total space is the"
                       " 5-sphere",
        "vertices": [["0", "0"], ["1", "0"], ["0", "1"]],
        "reeb": [1, 1, 3],
    },
    {
        "name": "order-three-square",
        "kind": "diagram",
        "description": "third-integral square of order 3; no integral"
                       " quotient direction exists",
        "vertices": [["1/3", "1/3"], ["1/3", "2/3"],
                     ["2/3", "1/3"], ["2/3", "2/3"]],
    },
    {
        "name": "blowup-quad",
        "kind": "diagram",
        "description": "quadrilateral whose quotient base is a smooth"
                       " one-point blowup surface",
        "vertices": [["0", "0"], ["1", "0"], ["0", "1"], ["2", "2"]],
        "reeb": [1, 1, 1],
    },
    {
        "name": "projective-plane",
        "kind": "labelled",
        "description": "projective plane with the generating symplectic"
                       " class; prequantizes to the 5-sphere",
        "normals": [[1, 0], [0, 1], [-1, -1]],
        "offsets": [0, 0, 1],
    },
    {
        "name": "projective-plane-triple",
        "kind": "labelled",
        "description": "projective plane with the anticanonical class;"
                       " prequantizes to a lens space",
        "normals": [[1, 0], [0, 1], [-1, -1]],
        "offsets": [0, 0, 3],
    },
    {
        "name": "product-of-spheres",
        "kind": "labelled",
        "description": "product of two spheres with the split primitive"
                       " class; prequantizes to the cosphere bundle of"
                       " the 3-sphere",
        "normals": [[1, 0], [0, 1], [-1, 0], [0, -1]],
        "offsets": [0, 0, 1, 1],
    },
    {
        "name": "product-of-spheres-double",
        "kind": "labelled",
        "description": "product of two spheres with the doubled class;"
                       " prequantizes to the cosphere bundle of real"
                       " projective 3-space",
        "normals": [[1, 0], [0, 1], [-1, 0], [0, -1]],
        "offsets": [0, 0, 2, 2],
    },
)


def corpus(*names: str) -> Dict[str, dict]:
    """Name -> document mapping for the given names, all documents when
    none is given; unknown names are left out.  Only the documents asked
    for are copied, and callers receive independent copies, as a JSON
    reader makes them."""
    return {doc["name"]: json.loads(json.dumps(doc)) for doc in DOCUMENTS
            if not names or doc["name"] in names}
