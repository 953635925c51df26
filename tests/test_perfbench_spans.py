"""The traced benchmark wraps package functions by name; keep them there,
and keep each command's work inside the spans the per-layer metrics
read."""
import contextlib
import importlib
import importlib.util
import io
import json
import os
from fractions import Fraction
from pathlib import Path

import pytest

from contactbetti import cli
from contactbetti.contact import validate_diagram
from contactbetti.polytope import convex_hull, triangulate_ids
from contactbetti.resolution import fan_over, triangulation_from_cells

ROOT = Path(__file__).parent.parent
SPANS_PATH = ROOT / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _spans_module()
WRAPPED = sorted((layer, name)
                 for table in (SPANS.SPANS, SPANS.COUNTERS)
                 for layer, names in table.items() for name in names)


@pytest.mark.parametrize("layer,name", WRAPPED,
                         ids=["%s.%s" % pair for pair in WRAPPED])
def test_wrapped_name_resolves_in_its_module(layer, name):
    module = importlib.import_module("contactbetti." + layer)
    assert callable(getattr(module, name, None))


def _traced_calls(argv):
    """cli.main(argv) in a fork with ``spans.Tracer`` installed: its exit
    code and the tracer's call counts."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read)
            tracer = SPANS.Tracer()
            tracer.install()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            with os.fdopen(write, "w") as out:
                json.dump([code, tracer.report()["calls"]], out)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    with os.fdopen(read) as inp:
        data = inp.read()
    _, status = os.waitpid(pid, 0)
    assert status == 0 and data
    return json.loads(data)


def test_crosscheck_traces_one_direct_pass_and_one_census(tmp_path):
    vertices = json.loads((ROOT / "perfbench" / "ladder.json").read_text())[
        "n2m8"]
    doc = tmp_path / "n2m8.json"
    doc.write_text(json.dumps({"kind": "diagram", "vertices": vertices}))
    code, calls = _traced_calls(["crosscheck", str(doc)])
    assert code == 0
    D = validate_diagram(convex_hull(
        [tuple(Fraction(c) for c in v) for v in vertices]))
    P = D.polytope
    cones = fan_over(triangulation_from_cells(D, P.vertices,
                                              triangulate_ids(P))).cones()
    assert calls["contact.contact_betti_direct"] == 1
    assert calls["resolution.box_elements"] == len(cones)
