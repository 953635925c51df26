"""What the CLI loads at start-up, and the immutability of the records.

Importing ``contactbetti.cli`` compiles and runs every module of the
package before ``main`` starts, so a module pulled in at import time is
paid by every command.  ``dataclasses`` (which loads ``inspect``),
``argparse`` (help and usage errors only) and ``copy`` stay out of that
path.  The records are ``typing.NamedTuple``s or ``_frozen.Frozen``
classes: both refuse assignment, and copy and pickle to equal records.
"""
import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import corpus_diagram
from contactbetti.contact import (ReebVector, contact_betti_from_delta,
                                  orbit_data)
from contactbetti.corpus import corpus
from contactbetti.ehrhart import delta_vector, quasipolynomial
from contactbetti.prequant import is_good_cone, quotient_polytope
from contactbetti.resolution import (fan_over, stapledon_check,
                                     trivial_triangulation,
                                     validate_triangulation)

SRC = Path(__file__).resolve().parent.parent / "src"
NOT_AT_START_UP = ("dataclasses", "inspect", "argparse", "copy")

# -I -S: no environment variables, user site or site-packages hooks, so
# every module loaded after start is loaded by the package
LOADED = """
import contextlib, io, sys
sys.path.insert(0, {src!r})
def loaded():
    return " ".join(m for m in {names!r} if m in sys.modules) or "-"
import contactbetti.cli
print(loaded())
with contextlib.redirect_stdout(io.StringIO()):
    code = contactbetti.cli.main({argv!r})
print(code, loaded())
"""


@pytest.mark.parametrize("argv", [
    ["validate", "corpus:unit-simplex"],
    ["cb", "corpus:lens-skew", "--window=-1:4", "--pipeline", "direct"],
    ["hc", "corpus:lens-triangle", "--reeb", "0,0,1"],
], ids=" ".join)
def test_cli_start_up_loads_no_dataclasses_inspect_argparse_or_copy(argv):
    code = LOADED.format(src=str(SRC), names=NOT_AT_START_UP, argv=argv)
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # a plain argv runs to the end without argparse as well
    assert proc.stdout.splitlines() == ["-", "0 -"]


def test_usage_error_still_loads_argparse():
    code = LOADED.format(src=str(SRC), names=("argparse",),
                         argv=["cb", "corpus:lens-skew", "--window", "3:1"])
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.splitlines() == ["-", "64 argparse"]
    assert "window lo must not exceed hi" in proc.stderr


def _records():
    """One instance of each of the package's 19 record types."""
    D = corpus_diagram(corpus()["lens-skew"])
    T = trivial_triangulation(D)
    good = is_good_cone(D)
    quotient = quotient_polytope(D, (1, 1, 2))
    sector = quotient.sectors[0]
    return [D, D.polytope.facets[0], D.polytope.face_lattice()[0][0],
            ReebVector.default_for(D),
            orbit_data(D, 0, ReebVector.default_for(D)), T,
            validate_triangulation(D, T), fan_over(T), stapledon_check(D, T),
            delta_vector(D.polytope), quasipolynomial(D.polytope),
            contact_betti_from_delta(D), good, good.cone, good.cone.faces[0],
            quotient, quotient.base, sector, sector.components[0]]


def test_records_refuse_assignment():
    records = _records()
    assert len({type(r) for r in records}) == 19
    for record in records:
        field = type(record)._fields[0]
        value = getattr(record, field)
        for name in (field, "not_a_field"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        assert getattr(record, field) is value, type(record).__name__


def test_records_copy_and_pickle_to_equal_records():
    for record in _records():
        for clone in (copy.copy(record), copy.deepcopy(record),
                      pickle.loads(pickle.dumps(record))):
            assert type(clone) is type(record)
            assert clone == record and repr(clone) == repr(record)
