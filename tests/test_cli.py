"""Command-line behaviour: documents, golden outputs, exit codes."""
import argparse
import json
import os
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import corpus_diagram, count_calls, time_limit

from contactbetti import cli, polytope
from contactbetti._jsonio import dumps, parse_rat
from contactbetti.cli import main
from contactbetti.contact import ReebVector, orbit_data, orbit_degree
from contactbetti.corpus import DOCUMENTS, corpus
from contactbetti.grading import GradedDimensions
from contactbetti.resolution import trivial_triangulation

GOLDEN_DIR = Path(__file__).parent / "golden"
LADDER = json.loads((Path(__file__).parent.parent / "perfbench"
                     / "ladder.json").read_text())

# argv behind each golden file; regenerate with
#   contactbetti <argv...> > tests/golden/<name>
GOLDEN = [
    ("delta_lens-triangle.json", ["delta", "corpus:lens-triangle"]),
    ("ehrhart_order-three-square.json",
     ["ehrhart", "corpus:order-three-square"]),
    ("cb_lens-triangle.json", ["cb", "corpus:lens-triangle"]),
    ("hc-resolution_lens-triangle.json",
     ["hc", "corpus:lens-triangle", "--pipeline", "resolution",
      "--trivial", "--window", "0:8"]),
    ("quotient_lens-skew.json",
     ["quotient", "corpus:lens-skew", "--window", "0:12"]),
    ("quotient_product-of-spheres.json",
     ["quotient", "corpus:product-of-spheres"]),
    ("crosscheck_unit-simplex.json", ["crosscheck", "corpus:unit-simplex"]),
    ("validate_projective-plane-triple.json",
     ["validate", "corpus:projective-plane-triple"]),
]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(tmp_path, obj, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


# ---------------------------------------------------------------- corpus


def test_corpus_has_at_least_nine_documents():
    docs = corpus()
    assert len(docs) >= 9
    assert len({d["name"] for d in DOCUMENTS}) == len(DOCUMENTS)


def test_corpus_returns_fresh_copies():
    first = corpus("lens-triangle")
    assert list(first) == ["lens-triangle"]
    first["lens-triangle"]["vertices"].append(["9", "9"])
    for docs in (corpus("lens-triangle", "no-such-document"), corpus()):
        assert docs["lens-triangle"]["vertices"] == [
            ["1", "0"], ["0", "1"], ["-1", "-1"]]
    assert "no-such-document" not in corpus("no-such-document")


def test_unknown_corpus_name_lists_the_documents(capsys):
    code, out, err = run(capsys, ["validate", "corpus:no-such-document"])
    assert code == 64 and out == ""
    assert "unknown corpus document 'no-such-document'" in err
    assert ", ".join(sorted(d["name"] for d in DOCUMENTS)) in err


@pytest.mark.parametrize("name", sorted(d["name"] for d in DOCUMENTS))
def test_every_corpus_document_validates(capsys, name):
    code, out, err = run(capsys, ["validate", "corpus:" + name])
    assert code == 0 and err == ""
    assert json.loads(out)["ok"] is True


@pytest.mark.parametrize("name", sorted(d["name"] for d in DOCUMENTS))
def test_every_corpus_document_crosschecks(capsys, name):
    code, out, _ = run(capsys, ["crosscheck", "corpus:" + name])
    assert code == 0
    assert json.loads(out)["agreement"] is True


# ---------------------------------------------------------------- goldens


@pytest.mark.parametrize("name,argv", GOLDEN,
                         ids=[name for name, _ in GOLDEN])
def test_golden_file_regenerates_bit_identically(capsys, name, argv):
    code, out, err = run(capsys, argv)
    assert code == 0 and err == ""
    assert out == (GOLDEN_DIR / name).read_text()


def indented_json(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN_DIR.iterdir()))
def test_dumps_writes_the_standard_indented_bytes(name):
    rep = json.loads((GOLDEN_DIR / name).read_text())
    assert dumps(rep) == indented_json(rep)


json_values = st.recursive(
    st.none() | st.booleans()
    | st.integers(min_value=-10 ** 30, max_value=10 ** 30)
    | st.text(st.characters(max_codepoint=0x2FFFF)),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=4), inner,
                                     max_size=4)),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_dumps_matches_json_dumps_on_nested_values(obj):
    # control characters, non-ASCII text, big negative ints,
    # empty containers and tuples included
    assert dumps(obj) == indented_json(obj)


def test_dumps_refuses_non_str_keys_and_other_types():
    # json.dumps would write the int key as "1"; a report has str keys,
    # and no float, since it writes every rational as a string
    for obj in ({1: "a"}, {"a": F(1, 2)}, [set()], 1.5, [float("nan")]):
        with pytest.raises(TypeError):
            dumps(obj)


def test_golden_quotient_schema():
    # the stored sector table for the worked weighted-projective example
    rep = json.loads((GOLDEN_DIR / "quotient_lens-skew.json").read_text())
    assert rep["r"] == 2
    assert [s["T"] for s in rep["sectors"]] == ["1/4", "1/2", "3/4", "1"]
    assert [c["cT"] for s in rep["sectors"] for c in s["components"]] == [
        "1", "2", "3", "0"]
    assert [row["dim"] for row in rep["H_orb"]] == [1, 1, 2, 1, 1]
    totals = {row["degree"]: row["dim"] for row in rep["HC"]}
    assert [totals.get(str(2 * j), 0) for j in range(7)] == [
        1, 2, 3, 3, 3, 3, 3]


def test_golden_smooth_base_totals():
    rep = json.loads(
        (GOLDEN_DIR / "quotient_product-of-spheres.json").read_text())
    assert rep["r"] == 2 and rep["base"]["smooth"] is True
    totals = {row["degree"]: row["dim"] for row in rep["HC"]}
    assert [totals.get(str(2 * j), 0) for j in range(6)] == [
        0, 1, 2, 2, 2, 2]


# ---------------------------------------------------------------- documents


def test_document_from_file_matches_corpus(capsys, tmp_path):
    path = write_doc(tmp_path, corpus()["lens-triangle"])
    from_file = run(capsys, ["delta", path])
    from_corpus = run(capsys, ["delta", "corpus:lens-triangle"])
    assert from_file == from_corpus


def test_labelled_document_lifts_to_its_prequantization(capsys):
    # the double product class prequantizes with delta (1,2,1)
    code, out, _ = run(capsys,
                       ["delta", "corpus:product-of-spheres-double"])
    assert code == 0
    assert json.loads(out)["delta"] == [1, 2, 1]


def test_triangulation_file_input(capsys, tmp_path):
    tri = tmp_path / "star.json"
    tri.write_text(json.dumps({
        "points": [["1", "1"]],
        "cells": [[0, 1, 4], [0, 2, 4], [1, 3, 4], [2, 3, 4]],
    }))
    code, out, _ = run(capsys, ["resolve", "corpus:blowup-quad",
                                "--triangulation", str(tri)])
    assert code == 0
    rep = json.loads(out)
    assert rep["unimodular"] is True and rep["crepant"] is True
    assert rep["stapledon"]["ok"] is True


def test_reeb_point_override(capsys):
    code, out, _ = run(capsys, ["cb", "corpus:lens-triangle",
                                "--reeb", "1/7,1/5", "--pipeline", "both"])
    assert code == 0
    assert json.loads(out)["agreement"] is True


def test_reeb_point_override_keeps_the_perturbation_direction(capsys):
    # --reeb moves the base point only: the direction stays (1, p)
    code, out, _ = run(capsys, ["orbits", "corpus:unit-simplex",
                                "--reeb", "1/4,1/3", "--perturb", "1/7"])
    assert code == 0
    D = corpus_diagram(corpus()["unit-simplex"])
    reeb = ReebVector((F(1, 4), F(1, 3)), (F(1), F(1, 7)))
    families = json.loads(out)["families"]
    assert len(families) == len(D.facet_vertex_ids)
    for fam in families:
        want = orbit_data(D, fam["facet"], reeb)
        assert (fam["b"], fam["b_slope"]) == (str(want.b), str(want.b_slope))
        assert fam["degrees"] == [str(orbit_degree(want, N))
                                  for N in range(1, 7)]


def test_quotient_direction_override(capsys):
    code, out, _ = run(capsys, ["quotient", "corpus:unit-simplex",
                                "--reeb", "1,2,4"])
    assert code == 0
    assert json.loads(out)["r"] == 4


# ---------------------------------------------------------------- defaults


def test_hc_pipeline_defaults(capsys):
    code, out, _ = run(capsys, ["hc", "corpus:lens-triangle"])
    assert code == 0 and json.loads(out)["pipeline"] == "quotient"
    code, out, _ = run(capsys, ["hc", "corpus:order-three-square"])
    assert code == 0 and json.loads(out)["pipeline"] == "resolution"


def test_quotient_on_fractional_diagram_has_no_hc_table(capsys):
    code, out, _ = run(capsys, ["quotient", "corpus:order-three-square"])
    assert code == 0
    rep = json.loads(out)
    assert rep["HC"] is None
    assert [s["T"] for s in rep["sectors"]] == ["1"]


@pytest.mark.parametrize("name", ["corpus:lens-triangle", "corpus:lens-skew",
                                  "corpus:unit-simplex", "n2m13", "n3m5",
                                  "n4m2"])
def test_default_triangulation_of_a_simplex_is_the_trivial_one(name):
    raw = (cli._load_raw(name) if name.startswith("corpus:")
           else {"kind": "diagram", "vertices": LADDER[name]})
    D, _ = cli._diagram_of(cli._structured(raw))
    assert len(D.polytope.vertices) == D.dimension + 1
    T = cli._triangulation_for(D, argparse.Namespace())
    assert T == trivial_triangulation(D)


def test_simplex_commands_build_no_face_lattice(capsys, monkeypatch,
                                                tmp_path):
    built = []
    init = polytope.RationalPolytope.__init__

    def recording_init(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(polytope.RationalPolytope, "__init__",
                        recording_init)
    path = write_doc(tmp_path, {"kind": "diagram",
                                "vertices": LADDER["n3m3"]})
    for argv in (["delta", path], ["cb", path], ["crosscheck", path]):
        assert run(capsys, argv)[0] == 0
    assert built and all(P._lattice is None for P in built)


def test_table_format_is_a_rendering_of_the_json(capsys):
    _, as_json, _ = run(capsys, ["cb", "corpus:lens-triangle"])
    _, as_table, _ = run(capsys, ["cb", "corpus:lens-triangle",
                                  "--format", "table"])
    assert as_table == cli.render_table(json.loads(as_json))


def test_output_is_deterministic_across_thread_settings(capsys, monkeypatch):
    _, first, _ = run(capsys, ["crosscheck", "corpus:blowup-quad"])
    _, second, _ = run(capsys, ["crosscheck", "corpus:blowup-quad"])
    monkeypatch.setenv("CONTACTBETTI_THREADS", "7")
    _, third, _ = run(capsys, ["crosscheck", "corpus:blowup-quad"])
    assert first == second == third


# ---------------------------------------------------------------- exit codes


def test_parse_errors_exit_64(capsys, tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    assert run(capsys, ["validate", str(broken)])[0] == 64
    assert run(capsys, ["validate", str(tmp_path / "absent.json")])[0] == 64
    assert run(capsys, ["validate", "corpus:no-such-doc"])[0] == 64
    assert run(capsys, ["cb", "corpus:lens-triangle",
                        "--pipeline", "sideways"])[0] == 64
    assert run(capsys, ["cb", "corpus:lens-triangle", "--window", "3"])[0] == 64
    assert run(capsys, ["quotient", "corpus:lens-triangle",
                        "--reeb", "1,2"])[0] == 64
    # a zero denominator in an option value is a usage error too
    for argv in (["cb", "corpus:lens-triangle", "--window", "1/0:3"],
                 ["cb", "corpus:lens-triangle", "--perturb", "1/0"],
                 ["cb", "corpus:lens-triangle", "--reeb", "1/0,0"],
                 ["resolve", "corpus:lens-triangle", "--star", "0,1/0"]):
        code, out, err = run(capsys, argv)
        assert code == 64 and out == ""
        assert "zero denominator in '1/0'" in err


@pytest.mark.parametrize("star", ["0", "0,0,0"])
def test_star_of_the_wrong_length_exits_64(capsys, star):
    code, out, err = run(capsys, ["resolve", "corpus:lens-triangle",
                                  "--star", star])
    assert code == 64 and out == ""
    assert "--star needs 2 comma-separated rationals" in err


@pytest.mark.parametrize("pipeline", [[], ["--pipeline", "quotient"]],
                         ids=["default", "explicit"])
@pytest.mark.parametrize("option", [["--star", "5,5"],
                                    ["--triangulation", "absent.json"],
                                    ["--trivial"]],
                         ids=["star", "triangulation", "trivial"])
def test_hc_quotient_pipeline_rejects_triangulation_options(
        capsys, tmp_path, option, pipeline):
    option = [str(tmp_path / a) if a.endswith(".json") else a
              for a in option]
    code, out, err = run(capsys, ["hc", "corpus:lens-triangle"] + option
                         + pipeline)
    assert code == 64 and out == ""
    assert ("%s applies to the resolution pipeline only" % option[0]
            in err)


@pytest.mark.parametrize("argv,where", [
    (["hc", "corpus:lens-triangle", "--pipeline", "resolution",
      "--reeb", "5,5,5"], "the quotient pipeline only"),
    (["hc", "corpus:order-three-square", "--reeb", "9,9,9"],
     "the quotient pipeline only"),
    (["crosscheck", "corpus:order-three-square", "--reeb", "9,9,9"],
     "the quotient check only, which runs for order m = 1"),
], ids=["hc-resolution", "hc-default-resolution", "crosscheck-order-3"])
def test_reeb_without_a_quotient_exits_64(capsys, argv, where):
    code, out, err = run(capsys, argv)
    assert code == 64 and out == ""
    assert "--reeb applies to %s" % where in err


def test_validate_order_19_simplex_within_seconds(capsys, tmp_path):
    # the Smith form behind fundamental_group_order once ran for minutes
    # on this simplex; the order is confirmed by a Bareiss determinant
    vertices = [v.split(",") for v in (
        "7/19,21/19,30/19,34/19", "16/19,-10/19,32/19,-23/19",
        "-7/19,-38/19,29/19,-39/19", "9/19,-23/19,-10/19,21/19",
        "-33/19,-39/19,-39/19,-13/19")]
    doc = write_doc(tmp_path, {"kind": "diagram", "vertices": vertices})
    with time_limit(5):
        code, out, _ = run(capsys, ["validate", doc])
    report = json.loads(out)
    assert code == 0 and report["m"] == 19
    assert report["fundamental_group_order"] == 66881767


def test_five_dimensional_reflexive_inputs_take_no_second_hull(
        capsys, tmp_path):
    # the 5-D cross-polytope has 32 facets and the 5-cube 32 vertices: a
    # brute-force hull of either takes about 20 s, so each command must
    # read the facets it already has
    cross = write_doc(tmp_path, {"kind": "diagram", "vertices": [
        [str(s * (i == k)) for i in range(5)]
        for k in range(5) for s in (1, -1)]}, "cross5.json")
    cube = write_doc(tmp_path, {
        "kind": "labelled",
        "normals": [[int(i == k) - int(i == k - 5) for i in range(5)]
                    for k in range(10)],
        "offsets": [0] * 5 + [1] * 5}, "cube5.json")
    with time_limit(5):
        code, out, _ = run(capsys, ["delta", cross])
    report = json.loads(out)
    assert code == 0 and report["delta"] == [1, 5, 10, 10, 5, 1]
    assert report["reflexive"] is True
    with time_limit(5):
        code, out, _ = run(capsys, ["quotient", cross])
    assert code == 0 and json.loads(out)["r"] == 1
    with time_limit(5):
        code, out, _ = run(capsys, ["validate", cube])
    report = json.loads(out)
    assert code == 0 and len(report["vertices"]) == 32
    assert report["gorenstein"] == {"r": 2, "w": [1, 1, 1, 1, 1]}


def test_ehrhart_on_the_five_dimensional_cross_polytope_within_seconds(
        capsys, tmp_path):
    # 32 facets: scanning every prefix of the box, with both facet lists
    # rescanned per envelope piece, took 12.7 s on a 2-vCPU guest
    cross = write_doc(tmp_path, {"kind": "diagram", "vertices": [
        [str(s * (i == k)) for i in range(5)]
        for k in range(5) for s in (1, -1)]}, "cross5.json")
    with time_limit(6):
        code, out, _ = run(capsys, ["ehrhart", cross])
    report = json.loads(out)
    assert code == 0 and report["m"] == 1
    # sum_k 2^k C(5, k) C(t, k) points in t*conv(+-e_i)
    assert report["counts"][:5] == [1, 11, 61, 231, 681]


@pytest.mark.parametrize("command,document,calls", [
    ("delta", "corpus:lens-triangle", 1),
    ("quotient", "corpus:lens-triangle", 2),
    ("delta", "n4m3", 2)], ids=["delta-1", "quotient-2", "delta-n4m3-2"])
def test_each_cone_is_enumerated_once(capsys, monkeypatch, tmp_path,
                                      command, document, calls):
    # delta: the diagram's hull, and in 4-D the counting frame's one
    # projection (onto the two narrowest coordinates); quotient: the hull
    # and the base's halfspace vertices.  Reflexivity, the labelled base
    # and the good cone read the facets these produced.
    # every package module that binds cone_rays is counted, so an import
    # of it elsewhere cannot hide a call
    if document in LADDER:
        document = write_doc(tmp_path, {"kind": "diagram",
                                        "vertices": LADDER[document]})
    rays = [count_calls(monkeypatch, module, "cone_rays")
            for name, module in sorted(sys.modules.items())
            if name.startswith("contactbetti.")
            and hasattr(module, "cone_rays")]
    code, _, _ = run(capsys, [command, document])
    assert code == 0
    assert sum(map(len, rays)) == calls


@pytest.mark.parametrize("argv", [
    ["cb", "corpus:lens-triangle", "--perturb", "1e200000",
     "--pipeline", "direct"],
    ["cb", "corpus:lens-triangle", "--reeb", "1E-3,0"],
    ["cb", "corpus:lens-triangle", "--window", "0:1e3"],
    ["resolve", "corpus:lens-triangle", "--star", "1e-1,0"],
], ids=["perturb", "reeb", "window", "star"])
def test_exponent_in_an_option_value_exits_64(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 64 and out == ""
    assert "exponent not accepted" in err


def test_exponent_in_a_document_exits_64(capsys, tmp_path):
    vertex = write_doc(tmp_path, {"kind": "diagram",
                                  "vertices": [["1e5", "0"], ["0", "1"],
                                               ["-1", "-1"]]}, "v.json")
    cells = write_doc(tmp_path, {"points": [["0", "1E-1"]],
                                 "cells": [[0, 1, 3]]}, "t.json")
    for argv in (["validate", vertex],
                 ["resolve", "corpus:lens-triangle", "--triangulation",
                  cells]):
        code, out, err = run(capsys, argv)
        assert code == 64 and out == ""
        assert "exponent not accepted" in err


def test_integers_fractions_and_plain_decimals_still_parse():
    for text, value in (("3", F(3)), (" -2/6 ", F(-1, 3)), ("-.5", F(-1, 2)),
                        ("1.25", F(5, 4))):
        assert parse_rat(text) == value
        assert cli._rat_arg(text.strip()) == value


def test_structural_document_errors_exit_64(capsys, tmp_path):
    bad_kind = write_doc(tmp_path, {"kind": "sphere"}, "a.json")
    assert run(capsys, ["validate", bad_kind])[0] == 64
    no_offsets = write_doc(tmp_path, {"kind": "labelled",
                                      "normals": [[1, 0], [0, 1], [-1, -1]]},
                           "b.json")
    assert run(capsys, ["validate", no_offsets])[0] == 64
    mixed = write_doc(tmp_path, {"kind": "diagram",
                                 "vertices": [["0", "0"], ["1"]]}, "c.json")
    assert run(capsys, ["validate", mixed])[0] == 64


def test_reversed_window_exits_64(capsys):
    for cmd in ("hc", "cb", "quotient", "crosscheck"):
        code, out, err = run(capsys, [cmd, "corpus:unit-simplex",
                                      "--window", "5:1"])
        assert code == 64 and out == ""
        assert "lo must not exceed hi" in err
    # a one-degree window is still accepted
    assert run(capsys, ["hc", "corpus:unit-simplex", "--window", "4:4"])[0] == 0


@pytest.mark.parametrize("argv", [
    ["cb", "corpus:lens-skew"],
    ["hc", "corpus:lens-skew"],
    ["hc", "corpus:order-three-square", "--pipeline", "resolution"],
    ["crosscheck", "corpus:lens-skew"],
])
@pytest.mark.parametrize("window", ["-1:4", "-2/3:8"])
def test_negative_window_is_a_value(capsys, argv, window):
    code, out, err = run(capsys, argv + ["--window", window])
    assert code == 0 and err == ""
    assert json.loads(out)["window"] == window.split(":")
    assert run(capsys, argv + ["--window=" + window])[1] == out


@pytest.mark.parametrize("argv", [
    ["cb", "corpus:lens-skew"],
    ["hc", "corpus:order-three-square", "--pipeline", "resolution"],
    ["hc", "corpus:unit-simplex"],
    ["quotient", "corpus:unit-simplex"],
    ["crosscheck", "corpus:lens-skew"],
])
@pytest.mark.parametrize("window", ["-100:-99", "-2:4"])
def test_window_at_or_below_minus_two_exits_65(capsys, argv, window):
    code, out, err = run(capsys, argv + ["--window", window])
    assert code == 65 and out == ""
    assert "window must start above degree -2" in err


def test_non_rational_vertex_coordinates_exit_64(capsys, tmp_path):
    for i, bad in enumerate((True, False, 1.5, None, [1])):
        path = write_doc(tmp_path, {"kind": "diagram",
                                    "vertices": [[bad, 0], [0, 1], [-1, -1]]},
                         "v%d.json" % i)
        code, out, err = run(capsys, ["validate", path])
        assert code == 64 and out == ""
        assert "bad vertex coordinate" in err
    # booleans are rejected in triangulation points too
    cells = write_doc(tmp_path, {"points": [[True, 0]], "cells": [[0, 1, 2]]},
                      "t.json")
    assert run(capsys, ["resolve", "corpus:lens-triangle",
                        "--triangulation", cells])[0] == 64


SQUARE_DOC = {"kind": "diagram",
              "vertices": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]}


def test_triangulation_cell_index_out_of_range_exits_64(capsys, tmp_path):
    square = write_doc(tmp_path, SQUARE_DOC, "square.json")
    for i, cells in enumerate(([[0, 1, 9]], [[0, 1, -1]])):
        tri = write_doc(tmp_path, {"points": [], "cells": cells},
                        "t%d.json" % i)
        code, out, err = run(capsys, ["resolve", square,
                                      "--triangulation", tri])
        assert code == 64 and out == ""
        assert "cell index out of range" in err


def test_triangulation_outside_the_diagram_exits_65(capsys, tmp_path):
    square = write_doc(tmp_path, SQUARE_DOC, "square.json")
    tri = write_doc(tmp_path, {"points": [["2", "0"]], "cells": [[0, 1, 4]]},
                    "t.json")
    for argv in (["resolve"], ["hc", "--pipeline", "resolution"]):
        code, out, err = run(capsys, argv + [square, "--triangulation", tri])
        assert code == 65 and out == ""
        assert "NotCovering" in err and "outside the diagram" in err


def test_validation_errors_exit_65(capsys, tmp_path):
    doubled = write_doc(tmp_path, {
        "kind": "diagram",
        "vertices": [["0", "0"], ["2", "0"], ["0", "2"]]})
    code, _, err = run(capsys, ["validate", doubled])
    assert code == 65 and "FacetNotUnimodular" in err

    cube = write_doc(tmp_path, {
        "kind": "diagram",
        "vertices": [[str(a), str(b), str(c)]
                     for a in "01" for b in "01" for c in "01"]},
        "cube.json")
    code, _, err = run(capsys, ["validate", cube])
    assert code == 65 and "NotSimplicial" in err

    code, _, err = run(capsys, ["resolve", "corpus:lens-triangle",
                                "--star", "5,5"])
    assert code == 65 and "PointNotInterior" in err

    code, _, err = run(capsys, ["quotient", "corpus:lens-triangle",
                                "--reeb", "0,0,2"])
    assert code == 65 and "NotPrimitive" in err

    code, _, err = run(capsys, ["hc", "corpus:order-three-square",
                                "--pipeline", "quotient"])
    assert code == 65 and "NotGorenstein" in err


def test_noncrepant_star_is_a_validation_error(capsys, tmp_path):
    # half-integral diagram; the origin lifts to a non-primitive ray
    half = write_doc(tmp_path, {
        "kind": "diagram",
        "vertices": [["1/2", "0"], ["0", "1/2"], ["-1/2", "-1/2"]]})
    code, _, err = run(capsys, ["resolve", half, "--star", "0,0"])
    assert code == 65 and "crepant" in err
    assert run(capsys, ["resolve", half])[0] == 0


def test_degenerate_reeb_configuration_exits_66(capsys):
    # diagonal direction on the order-3 square: a coefficient ratio is
    # identically integral, so the very first iterate has no floor
    code, _, err = run(capsys, ["cb", "corpus:order-three-square",
                                "--reeb", "1/2,1/2", "--perturb", "1",
                                "--pipeline", "direct"])
    assert code == 66 and "iterate N=1" in err


@pytest.mark.parametrize("pipeline", ["direct", "both"])
def test_identically_zero_coefficient_exits_66(capsys, pipeline):
    # perturbation 0 leaves two of the lens triangle's families with a
    # coefficient jet that is identically zero
    code, out, err = run(capsys, ["cb", "corpus:lens-triangle",
                                  "--perturb", "0", "--pipeline", pipeline])
    assert (code, out) == (66, "")
    assert "iterate N=1 in coefficient 0" in err


def test_orbits_and_direct_cb_exit_alike(capsys):
    # orbits reads the floor data that cb counts, so a degenerate jet
    # within orbits' default six iterates stops both with one message
    outcomes = []
    for name in corpus():
        for perturb in ("1/101", "1/97", "0", "1/2", "-1/3", "1/89", "3"):
            orbits = run(capsys, ["orbits", "corpus:" + name,
                                  "--perturb", perturb])
            direct = run(capsys, ["cb", "corpus:" + name, "--perturb",
                                  perturb, "--pipeline", "direct"])
            assert (orbits[0], orbits[2]) == (direct[0], direct[2]), (
                name, perturb)
            outcomes.append((name, perturb, orbits[0]))
    assert [o for o in outcomes if o[2]] == [
        ("lens-triangle", "0", 66), ("blowup-quad", "-1/3", 66),
        ("projective-plane", "-1/3", 66)]


def test_crosscheck_mismatch_exits_2(capsys, monkeypatch):
    # force one pipeline to lie; the report must flag it and exit 2
    wrong = GradedDimensions(1, {}, (0, 10))
    monkeypatch.setattr(cli, "hc_from_quotient", lambda Q, window: wrong)
    code, out, _ = run(capsys, ["crosscheck", "corpus:lens-triangle"])
    assert code == 2
    rep = json.loads(out)
    assert rep["agreement"] is False
    flags = {c["name"]: c["agrees"] for c in rep["checks"]}
    assert flags["quotient"] is False
    assert flags["resolution"] is True


def test_help_exits_zero(capsys):
    assert run(capsys, ["--help"])[0] == 0
    assert run(capsys, [])[0] == 64


# argv that end in argparse: help or a usage error
PARSER_ARGV = [[], ["-h"], ["--help"], ["bogus"], ["-h", "cb"], ["CB"],
               ["cb", "x", "--window", "3:1"],
               ["orbits", "x", "--iterates", "0"],
               ["hc", "x", "--star", "1,1", "--trivial"],
               ["hc", "x", "--pipeline", "nope"]]
for _command in cli._COMMANDS:
    PARSER_ARGV += [[_command, "--help"], [_command],
                    [_command, "x", "--bogus"],
                    [_command, "x", "--format", "xml"]]


@pytest.mark.parametrize("argv", PARSER_ARGV,
                         ids=[" ".join(a) or "-" for a in PARSER_ARGV])
def test_one_command_parser_reads_like_the_full_parser(capsys, monkeypatch,
                                                       argv):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        cli._build_parser().parse_args(argv)
    except SystemExit as exc:
        full = (exc.code, *capsys.readouterr())
    else:
        pytest.fail("argv %s parsed" % argv)
    assert run(capsys, argv) == full


# ---------------------------------------------------------------- reader


def test_parser_argv_falls_back_to_argparse():
    assert [argv for argv in PARSER_ARGV
            if cli._read_argv(argv) is not None] == []


def _agrees_with_argparse(argv):
    """The reader reads argv, as the full argparse parser does."""
    args = cli._read_argv(argv)
    assert args is not None, argv
    assert vars(args) == vars(cli._build_parser().parse_args(argv)), argv


# values that convert, per option type; None stands for the string
# itself, which argparse takes as "-x" only in the --opt=value form
SAMPLE_VALUES = {cli._rat_point_arg: ["-1/7,1/5", "1/3,2"],
                 cli._int_point_arg: ["1,2,4", "-1,0,3"],
                 cli._rat_arg: ["-1/97", "1/89"],
                 cli._window_arg: ["-2/3:8", "0:12"],
                 cli._positive_int_arg: ["3", "1"],
                 None: ["tri.json", "x=y", "-1", "-x"]}


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_reader_reads_every_option_in_both_forms(command):
    for opt in cli._COMMANDS[command][1]:
        if opt.bare:
            _agrees_with_argparse([command, "x", opt.flag])
            continue
        value = (opt.choices[-1] if opt.choices
                 else SAMPLE_VALUES[opt.type][0])
        _agrees_with_argparse([command, "x", opt.flag, value])
        _agrees_with_argparse([command, opt.flag + "=" + value, "x"])


@pytest.mark.parametrize("workload", ["delta-series", "orbits-corpus"])
def test_reader_reads_every_workload_argv(tmp_path, monkeypatch, workload):
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent
                                    / "perfbench"))
    from workloads import WORKLOADS, Ladder
    for op in WORKLOADS[workload](Ladder(1, str(tmp_path))):
        _agrees_with_argparse(op.argv)


FLAGS = sorted({opt.flag for _, options in cli._COMMANDS.values()
                for opt in options})
JUNK_FLAGS = ["-h", "--help", "--", "--pipe", "--form", "--st", "--tri",
              "--bogus", "-x", "-", "--reeb-x"]
VALUES = ["json", "table", "xml", "delta", "direct", "both", "quotient",
          "resolution", "1/7,1/5", "1,2,4", "1,1,3", "0,0", "0,1/0", "0",
          "-1", "3", "1/97", "-1/3", "1/0", "-1:4", "0:8", "-2/3:8", "5:1",
          "1/0:3", "-.5", "-x", "x=y", "", "-", "tri.json", "1,2"]
JUNK = st.one_of(
    st.sampled_from(FLAGS + JUNK_FLAGS + VALUES),
    st.builds("{}={}".format, st.sampled_from(FLAGS + JUNK_FLAGS),
              st.sampled_from(VALUES)))


def _option_tokens(opt):
    """The option with a value of its type or any value, in either form;
    a bare option alone or with a value."""
    if opt.bare:
        return st.sampled_from([[opt.flag]] * 3 + [[opt.flag + "=x"]])
    own = list(opt.choices or SAMPLE_VALUES[opt.type])
    value = st.one_of(*[st.sampled_from(own)] * 5, st.sampled_from(VALUES))
    return st.tuples(value, st.booleans()).map(
        lambda v: [opt.flag + "=" + v[0]] if v[1] else [opt.flag, v[0]])


def _argv_of(command):
    known = cli._COMMANDS.get(command, ("", ()))[1]
    token = st.one_of(JUNK.map(lambda t: [t]),
                      *[_option_tokens(opt) for opt in known] * 4)
    inputs = st.one_of(
        *[st.just(["corpus:lens-skew"])] * 3,
        st.lists(st.sampled_from(["x", "-1", "a=b", ""]), max_size=2))
    return st.builds(
        lambda before, given, after: ([command] + sum(before, []) + given
                                      + sum(after, [])),
        st.lists(token, max_size=2), inputs, st.lists(token, max_size=3))


ARGV = st.one_of(*[_argv_of(command)
                   for command in list(cli._COMMANDS) + ["bogus", "-h"]])


@settings(max_examples=500, deadline=None)
@given(argv=ARGV)
def test_reader_agrees_with_argparse_when_it_reads(argv):
    args = cli._read_argv(argv)
    if args is not None:
        assert vars(args) == vars(cli._build_parser().parse_args(argv))
