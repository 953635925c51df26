"""Command-line front end.

Parses diagram and labelled-polytope documents (files or built-in
``corpus:<name>`` entries), dispatches the computation pipelines, and
emits deterministic reports as JSON or as a plain-text rendering of the
same JSON.

Options come from one table, ``_COMMANDS``: each command's help line and
its long options (``_Option``: flag, ``type=`` callable, choices,
default, metavar, help text, mutually exclusive group).  ``_read_argv``
reads a known command's plain argv straight from the table: one input,
then exact long options as ``--opt value``, ``--opt=value`` or a bare
flag.  Any other argv goes to argparse, which ``_build_parser`` builds
from the same table; argparse is the only writer of help and usage
errors.

Exit codes: 0 success, 2 cross-check mismatch, 64 parse error (usage,
malformed document or option value), 65 validation error, 66 genericity
failure.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import (Callable, Dict, List, NamedTuple, Optional,
                    Sequence, Tuple)

from ._jsonio import dumps, parse_point, point_json, rat_str
from .contact import (GenericityFailure, ReebVector, ToricDiagram,
                      contact_betti_direct, contact_betti_from_delta,
                      mean_euler_characteristic, minimal_discrepancy,
                      orbit_data, orbit_degree, validate_diagram)
from .corpus import DOCUMENTS, corpus
from .ehrhart import delta_vector, is_reflexive, quasipolynomial
from .exactlat import primitive_vector
from .grading import GradedDimensions, default_window, sum_rows
from .polytope import (LabelledPolytope, convex_hull, count_points,
                       labelled_polytope, normalized_volume, triangulate_ids)
from .prequant import (fundamental_group_order, gorenstein_r,
                       hc_from_quotient, hc_quotient_rows, is_good_cone,
                       orbifold_cohomology_of_base, prequantization,
                       quotient_polytope)
from .resolution import (Triangulation, fan_over, hc_from_resolution,
                         hc_sector_rows, orbifold_poincare, stapledon_check,
                         star_triangulation, sum_sector_rows,
                         triangulation_from_cells, trivial_triangulation,
                         validate_triangulation)

OK = 0
MISMATCH = 2
PARSE_ERROR = 64
VALIDATION_ERROR = 65
GENERICITY_ERROR = 66

CROSSCHECK_PERTURBATIONS = (Fraction(1, 101), Fraction(1, 97),
                            Fraction(1, 89))


class DocumentError(Exception):
    """Input document or option is structurally malformed."""


# ----------------------------------------------------------------------
# document loading


def _load_raw(source: str) -> dict:
    if source.startswith("corpus:"):
        name = source[len("corpus:"):]
        docs = corpus(name)
        if name not in docs:
            raise DocumentError(
                "unknown corpus document %r; available: %s"
                % (name, ", ".join(sorted(d["name"] for d in DOCUMENTS))))
        return docs[name]
    with open(source, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _int_entries(values, what: str) -> Tuple[int, ...]:
    if not isinstance(values, list) or not values:
        raise DocumentError("%s must be a non-empty list" % what)
    out = []
    for x in values:
        if isinstance(x, bool) or not isinstance(x, int):
            raise DocumentError("%s must contain integers only" % what)
        out.append(x)
    return tuple(out)


def _structured(raw) -> dict:
    """Shape-check a raw document; geometry is still unchecked."""
    if not isinstance(raw, dict):
        raise DocumentError("document must be a JSON object")
    kind = raw.get("kind")
    if kind == "diagram":
        verts = raw.get("vertices")
        if not isinstance(verts, list) or not verts:
            raise DocumentError('diagram document needs a "vertices" list')
        try:
            points = [parse_point(v) for v in verts]
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            raise DocumentError("bad vertex coordinate: %s" % exc) from None
        if len({len(p) for p in points}) != 1:
            raise DocumentError("vertices have mixed dimensions")
        reeb = raw.get("reeb")
        if reeb is not None:
            reeb = _int_entries(reeb, '"reeb"')
            if len(reeb) != len(points[0]) + 1:
                raise DocumentError(
                    '"reeb" needs %d entries' % (len(points[0]) + 1))
        return {"kind": kind, "points": points, "reeb": reeb}
    if kind == "labelled":
        normals = raw.get("normals")
        if not isinstance(normals, list) or not normals:
            raise DocumentError('labelled document needs a "normals" list')
        rows = [_int_entries(a, "normal") for a in normals]
        if len({len(a) for a in rows}) != 1:
            raise DocumentError("normals have mixed dimensions")
        offsets = _int_entries(raw.get("offsets"), '"offsets"')
        if len(offsets) != len(rows):
            raise DocumentError("need one offset per normal")
        return {"kind": kind, "normals": rows, "offsets": offsets}
    raise DocumentError('document "kind" must be "diagram" or "labelled"')


def _document(args) -> dict:
    return _structured(_load_raw(args.input))


def _labelled_of(doc: dict) -> LabelledPolytope:
    return labelled_polytope(doc["normals"], doc["offsets"])


def _diagram_of(doc: dict) -> Tuple[ToricDiagram, Optional[Tuple[int, ...]]]:
    """Validated diagram plus the document's quotient direction, if any.

    Labelled documents are lifted to their prequantization diagram; the
    derived direction quotients back to the original base.
    """
    if doc["kind"] == "diagram":
        return validate_diagram(convex_hull(doc["points"])), doc["reeb"]
    return prequantization(_labelled_of(doc))


def _fallback_direction(D: ToricDiagram) -> Tuple[int, ...]:
    """Primitive integral lift of the vertex centroid; always interior."""
    verts = D.polytope.vertices
    centre = [sum(v[i] for v in verts) / len(verts)
              for i in range(D.dimension)]
    return tuple(primitive_vector(centre + [Fraction(1)]))


def _direction_for(D: ToricDiagram, doc_nu, args) -> Tuple[int, ...]:
    if getattr(args, "reeb", None) is not None:
        nu = args.reeb
        if len(nu) != D.dimension + 1:
            raise DocumentError(
                "--reeb needs %d comma-separated integers"
                % (D.dimension + 1))
        return nu
    if doc_nu is not None:
        return doc_nu
    return _fallback_direction(D)


def _reeb_field(D: ToricDiagram, args) -> ReebVector:
    reeb = ReebVector.default_for(
        D, getattr(args, "perturb", Fraction(1, 101)))
    base = getattr(args, "reeb", None)
    if base is None:
        return reeb
    if len(base) != D.dimension:
        raise DocumentError(
            "--reeb needs %d comma-separated rationals" % D.dimension)
    return ReebVector(tuple(Fraction(x) for x in base), reeb.direction)


def _window_for(D: ToricDiagram, args) -> Tuple[Fraction, Fraction]:
    if getattr(args, "window", None) is not None:
        return args.window
    return default_window(D.order, D.dimension)


def _triangulation_for(D: ToricDiagram, args) -> Triangulation:
    if getattr(args, "triangulation", None) is not None:
        with open(args.triangulation, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict) or "cells" not in raw:
            raise DocumentError('triangulation file needs a "cells" list')
        try:
            extra = [parse_point(p) for p in raw.get("points", [])]
            cells = [_int_entries(c, "cell") for c in raw["cells"]]
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            raise DocumentError("bad triangulation file: %s" % exc) from None
        points = list(D.polytope.vertices) + extra
        if any(not 0 <= i < len(points) for c in cells for i in c):
            raise DocumentError("triangulation cell index out of range "
                                "0..%d" % (len(points) - 1))
        return triangulation_from_cells(D, points, cells)
    if getattr(args, "star", None) is not None:
        if len(args.star) != D.dimension:
            raise DocumentError(
                "--star needs %d comma-separated rationals" % D.dimension)
        return star_triangulation(D, args.star)
    if getattr(args, "trivial", False):
        return trivial_triangulation(D)
    # default: vertices only, so the fan over it is always crepant
    P = D.polytope
    return triangulation_from_cells(D, P.vertices, triangulate_ids(P))


# ----------------------------------------------------------------------
# option parsing helpers (argparse ``type=`` callables)


def _rat_arg(s: str) -> Fraction:
    # argparse turns only ValueError and TypeError into a usage error; an
    # exponent would make the value's digits grow with its size
    if "e" in s or "E" in s:
        raise argparse.ArgumentTypeError("exponent not accepted in %r" % s)
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(
            "zero denominator in %r" % s) from None


def _rat_point_arg(s: str) -> Tuple[Fraction, ...]:
    return tuple(_rat_arg(t) for t in s.split(","))


def _int_point_arg(s: str) -> Tuple[int, ...]:
    return tuple(int(t) for t in s.split(","))


def _window_arg(s: str) -> Tuple[Fraction, Fraction]:
    lo, sep, hi = s.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError("window must be given as lo:hi")
    lo, hi = _rat_arg(lo), _rat_arg(hi)
    if lo > hi:
        raise argparse.ArgumentTypeError("window lo must not exceed hi")
    return lo, hi


def _positive_int_arg(s: str) -> int:
    v = int(s)
    if v < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return v


# ----------------------------------------------------------------------
# report fragments


def _window_json(window) -> List[str]:
    return [rat_str(window[0]), rat_str(window[1])]


def _base_json(Q) -> dict:
    base = Q.base
    return {
        "normals": [list(a) for a in base.weighted_normals],
        "offsets": list(base.offsets),
        "labels": list(base.labels),
        "vertices": [point_json(v) for v in base.polytope.vertices],
        "smooth": Q.smooth,
    }


def _sectors_json(Q) -> List[dict]:
    return [{
        "T": rat_str(sector.period),
        "components": [{
            "face": list(comp.face),
            "cT": rat_str(comp.shift),
            "h": list(comp.h),
        } for comp in sector.components],
    } for sector in Q.sectors]


def _keyed_rows(rows: Dict[Fraction, GradedDimensions]) -> List[dict]:
    return [{"key": rat_str(k), "dims": rows[k].to_rows()}
            for k in sorted(rows)]


# ----------------------------------------------------------------------
# subcommand handlers; each returns (report, exit_code)


def _cmd_validate(args):
    """Report a validated diagram or labelled polytope.

    A diagram's ``"good_cone"`` is always true: ``_diagram_of`` has
    validated it, so every proper face of D lies in a simplex facet whose
    lifted normals extend to a basis of Z^(n+1), and part of a basis
    extends to one.  ``is_good_cone`` runs anyway, as a cheap cross-check
    of that argument.
    """
    doc = _document(args)
    if doc["kind"] == "diagram":
        D, nu = _diagram_of(doc)
        report = {
            "kind": "diagram",
            "ok": True,
            "m": D.order,
            "dimension": D.dimension,
            "normals": [list(u) for u in D.normals],
            "good_cone": is_good_cone(D).good,
            "fundamental_group_order": fundamental_group_order(D),
            "reeb": list(nu) if nu is not None else None,
        }
        return report, OK
    delta = _labelled_of(doc)
    found = gorenstein_r(delta)
    report = {
        "kind": "labelled",
        "ok": True,
        "dimension": delta.dimension,
        "normals": [list(a) for a in delta.weighted_normals],
        "offsets": list(delta.offsets),
        "labels": list(delta.labels),
        "vertices": [point_json(v) for v in delta.polytope.vertices],
        "gorenstein": (None if found is None
                       else {"r": found[0], "w": list(found[1])}),
    }
    return report, OK


def _cmd_ehrhart(args):
    D, _ = _diagram_of(_document(args))
    qp = quasipolynomial(D.polytope)
    top = 2 * D.order * (D.dimension + 1)
    report = {
        "m": qp.period,
        "dimension": qp.dimension,
        "branches": [[rat_str(c) for c in br] for br in qp.branches],
        "counts": [1] + [count_points(D.polytope, t)
                         for t in range(1, top + 1)],
    }
    return report, OK


def _cmd_delta(args):
    D, _ = _diagram_of(_document(args))
    dv = delta_vector(D.polytope)
    report = {
        "m": dv.order,
        "dimension": dv.dimension,
        "delta": list(dv.entries),
        "top_index": dv.top_index,
        "normalized_volume": rat_str(normalized_volume(D.polytope)),
        "reflexive": is_reflexive(D.polytope),
    }
    return report, OK


def _cmd_cb(args):
    D, _ = _diagram_of(_document(args))
    window = _window_for(D, args)
    tables = {}
    if args.pipeline in ("delta", "both"):
        tables["delta"] = contact_betti_from_delta(D, window)
    if args.pipeline in ("direct", "both"):
        (tables["direct"],) = contact_betti_direct(
            D, (_reeb_field(D, args),), window)
    shown = tables.get("delta", tables.get("direct"))
    report = {
        "m": D.order,
        "pipeline": args.pipeline,
        "window": _window_json(window),
        "cb": shown.to_rows(),
        "agreement": (tables["delta"] == tables["direct"]
                      if len(tables) == 2 else None),
        "mean_euler_characteristic": rat_str(mean_euler_characteristic(D)),
        "minimal_discrepancy": rat_str(minimal_discrepancy(D)),
    }
    return report, OK


def _cmd_orbits(args):
    D, _ = _diagram_of(_document(args))
    reeb = _reeb_field(D, args)
    families = []
    for fid in range(len(D.facet_vertex_ids)):
        fam = orbit_data(D, fid, reeb)
        degrees = []
        if not fam.diverges:
            degrees = [rat_str(orbit_degree(fam, N))
                       for N in range(1, args.iterates + 1)]
        families.append({
            "facet": fid,
            "eta": list(fam.eta),
            "k": fam.k,
            "b": rat_str(fam.b),
            "b_slope": rat_str(fam.b_slope),
            "diverges": fam.diverges,
            "degrees": degrees,
        })
    return {"m": D.order, "iterates": args.iterates,
            "families": families}, OK


def _cmd_resolve(args):
    D, _ = _diagram_of(_document(args))
    T = _triangulation_for(D, args)
    rep = validate_triangulation(D, T)
    F = fan_over(T)
    st = stapledon_check(D, T)
    report = {
        "m": D.order,
        "points": [point_json(p) for p in T.points],
        "cells": [list(c) for c in T.cells],
        "cell_volumes": [rat_str(v) for v in rep.cell_volumes],
        "unimodular": rep.unimodular,
        "crepant": F.crepant,
        "stapledon": {
            "ok": True,
            "delta": list(st.delta),
            "series_checked_to": st.series_checked_to,
        },
    }
    return report, OK


def _cmd_orbifold(args):
    D, _ = _diagram_of(_document(args))
    T = _triangulation_for(D, args)
    rep = validate_triangulation(D, T)
    F = fan_over(T)
    report = {
        "H_orb": orbifold_poincare(F).to_rows(),
        "crepant": F.crepant,
        "unimodular": rep.unimodular,
    }
    return report, OK


def _cmd_quotient(args):
    doc = _document(args)
    D, doc_nu = _diagram_of(doc)
    nu = _direction_for(D, doc_nu, args)
    Q = quotient_polytope(D, nu)
    hc = None
    if D.order == 1:
        hc = hc_from_quotient(Q, _window_for(D, args)).to_rows()
    report = {
        "r": Q.r,
        "m": D.order,
        "reeb": list(nu),
        "base": _base_json(Q),
        "sectors": _sectors_json(Q),
        "H_orb": orbifold_cohomology_of_base(Q).to_rows(),
        "HC": hc,
    }
    return report, OK


def _cmd_hc(args):
    doc = _document(args)
    D, doc_nu = _diagram_of(doc)
    window = _window_for(D, args)
    pipeline = args.pipeline
    if pipeline is None:
        pipeline = "quotient" if D.order == 1 else "resolution"
    if pipeline == "quotient":
        given = [flag for flag in ("triangulation", "star", "trivial")
                 if getattr(args, flag)]
        if given:
            raise DocumentError(
                "--%s applies to the resolution pipeline only "
                "(--pipeline resolution)" % given[0])
        Q = quotient_polytope(D, _direction_for(D, doc_nu, args))
        rows = hc_quotient_rows(Q, window)
        table = sum_rows(rows)
    else:
        if args.reeb is not None:
            raise DocumentError("--reeb applies to the quotient pipeline "
                                "only (--pipeline quotient)")
        T = _triangulation_for(D, args)
        validate_triangulation(D, T)
        rows = hc_sector_rows(D, T, window)
        table = sum_sector_rows(D, rows)
    report = {
        "m": D.order,
        "pipeline": pipeline,
        "window": _window_json(window),
        "rows": _keyed_rows(rows),
        "HC": table.to_rows(),
    }
    return report, OK


def _cmd_crosscheck(args):
    doc = _document(args)
    D, doc_nu = _diagram_of(doc)
    if D.order != 1 and args.reeb is not None:
        raise DocumentError("--reeb applies to the quotient check only, "
                            "which runs for order m = 1 (here m = %d)"
                            % D.order)
    window = _window_for(D, args)
    reference = contact_betti_from_delta(D, window)
    tables = contact_betti_direct(
        D, tuple(ReebVector.default_for(D, eps)
                 for eps in CROSSCHECK_PERTURBATIONS), window)
    checks = [("direct-" + rat_str(eps), table == reference)
              for eps, table in zip(CROSSCHECK_PERTURBATIONS, tables)]
    T = _triangulation_for(D, args)
    validate_triangulation(D, T)
    stapledon_check(D, T)
    checks.append(("stapledon", True))
    checks.append(("resolution",
                   hc_from_resolution(D, T, window) == reference))
    if D.order == 1:
        Q = quotient_polytope(D, _direction_for(D, doc_nu, args))
        checks.append(("quotient", hc_from_quotient(Q, window) == reference))
    agreement = all(ok for _, ok in checks)
    report = {
        "m": D.order,
        "window": _window_json(window),
        "cb": reference.to_rows(),
        "checks": [{"name": name, "agrees": ok} for name, ok in checks],
        "agreement": agreement,
    }
    return report, OK if agreement else MISMATCH


_HANDLERS = {
    "validate": _cmd_validate,
    "ehrhart": _cmd_ehrhart,
    "delta": _cmd_delta,
    "cb": _cmd_cb,
    "orbits": _cmd_orbits,
    "resolve": _cmd_resolve,
    "orbifold": _cmd_orbifold,
    "quotient": _cmd_quotient,
    "hc": _cmd_hc,
    "crosscheck": _cmd_crosscheck,
}


# ----------------------------------------------------------------------
# table rendering: a pure function of the JSON report


def _scalar(v) -> bool:
    return v is None or isinstance(v, (bool, int, str))


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    return json.dumps(v)


def _table_lines(obj, indent: int):
    pad = "  " * indent
    if isinstance(obj, dict):
        for key in sorted(obj):
            val = obj[key]
            if _scalar(val):
                yield "%s%s: %s" % (pad, key, _fmt(val))
            else:
                yield "%s%s:" % (pad, key)
                yield from _table_lines(val, indent + 1)
    else:
        for val in obj:
            if _scalar(val):
                yield "%s- %s" % (pad, _fmt(val))
            elif isinstance(val, list) and all(_scalar(x) for x in val):
                yield "%s- %s" % (pad, " ".join(_fmt(x) for x in val))
            else:
                yield "%s-" % pad
                yield from _table_lines(val, indent + 1)


def render_table(report: dict) -> str:
    normalized = json.loads(json.dumps(report))
    return "\n".join(_table_lines(normalized, 0)) + "\n"


# ----------------------------------------------------------------------
# options: one table, read by argparse and by _read_argv


class _Option(NamedTuple):
    """One long option of a command: argparse's keywords for it and its
    mutually exclusive group, if any.  The dest is the flag without its
    dashes; a ``bare`` option takes no value and stores True."""

    flag: str
    type: Optional[Callable[[str], object]] = None  # None: the string
    choices: Optional[Tuple[str, ...]] = None
    default: object = None
    metavar: Optional[str] = None
    help: Optional[str] = None
    group: Optional[str] = None
    bare: bool = False

    @property
    def dest(self) -> str:
        return self.flag[2:]


_INPUT_HELP = "document path, or corpus:<name> for a built-in"
_FORMAT = _Option("--format", choices=("json", "table"), default="json")
# --reeb is a rational base point of the Reeb field for cb and orbits, and
# an integral quotient direction for quotient, hc and crosscheck
_RAT_REEB = _Option("--reeb", _rat_point_arg, metavar="P/Q,...",
                    help="interior base point of the Reeb field")
_PERTURB = _Option("--perturb", _rat_arg, default=Fraction(1, 101),
                   metavar="P/Q", help="perturbation parameter")
_INT_REEB = _Option("--reeb", _int_point_arg, metavar="W1,...,R",
                    help="integral quotient direction")
_WINDOW = _Option("--window", _window_arg, metavar="LO:HI",
                  help="degree window (rationals)")
_TRIANGULATION = (
    _Option("--triangulation", metavar="FILE",
            help="JSON file with extra points and cells",
            group="triangulation"),
    _Option("--star", _rat_point_arg, metavar="P/Q,...",
            help="star-triangulate at this interior point",
            group="triangulation"),
    _Option("--trivial", default=False, bare=True,
            help="use the diagram itself as single cell",
            group="triangulation"),
)

# command -> (help line, options after the input), in the order the help
# lists them
_COMMANDS: Dict[str, Tuple[str, Tuple[_Option, ...]]] = {
    "validate": ("check a document and report its data", (_FORMAT,)),
    "ehrhart": ("counting quasi-polynomial branches", (_FORMAT,)),
    "delta": ("numerator vector of the counting series", (_FORMAT,)),
    "cb": ("graded orbit counts by degree",
           (_FORMAT, _RAT_REEB, _PERTURB, _WINDOW,
            _Option("--pipeline", choices=("delta", "direct", "both"),
                    default="both"))),
    "orbits": ("closed-orbit family data",
               (_FORMAT, _RAT_REEB, _PERTURB,
                _Option("--iterates", _positive_int_arg, default=6,
                        metavar="N", help="degrees of the first N iterates"))),
    "resolve": ("triangulate and check the induced fan",
                (_FORMAT,) + _TRIANGULATION),
    "orbifold": ("graded sector cohomology of the fan",
                 (_FORMAT,) + _TRIANGULATION),
    "quotient": ("quotient base and twisted sectors",
                 (_FORMAT, _INT_REEB, _WINDOW)),
    "hc": ("graded table with per-sector rows",
           (_FORMAT,
            _INT_REEB._replace(
                help="integral quotient direction (quotient pipeline)"),
            _WINDOW) + _TRIANGULATION + (
            _Option("--pipeline", choices=("quotient", "resolution"),
                    help="default: quotient when integral, else resolution"),
           )),
    "crosscheck": ("run all applicable pipelines and compare",
                   (_FORMAT,
                    _INT_REEB._replace(
                        help="integral quotient direction (quotient check, "
                             "order 1 only)"),
                    _WINDOW) + _TRIANGULATION),
}


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # no option starts with "-<digit>", so such arguments are values:
        # negative rationals and windows such as -2/3 and -1:4 (the test
        # _is_value makes with string methods)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        self.exit(PARSE_ERROR, "%s: error: %s\n" % (self.prog, message))


def _build_parser(command: Optional[str] = None) -> _Parser:
    """The full parser, or with ``command`` only that subcommand's.

    Errors print no usage line (see _Parser.error), so a known command's
    help and usage errors read the same from either parser.
    """
    parser = _Parser(prog="contactbetti",
                     description="Contact invariants of toric diagrams "
                                 "via exact cross-validating pipelines.")
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=_Parser)
    for name in _COMMANDS if command is None else (command,):
        help_text, options = _COMMANDS[name]
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("input", help=_INPUT_HELP)
        groups = {}
        for opt in options:
            target = sub
            if opt.group is not None:
                if opt.group not in groups:
                    groups[opt.group] = sub.add_mutually_exclusive_group()
                target = groups[opt.group]
            if opt.bare:
                target.add_argument(opt.flag, action="store_true",
                                    help=opt.help)
            else:
                target.add_argument(opt.flag, type=opt.type,
                                    choices=opt.choices, default=opt.default,
                                    metavar=opt.metavar, help=opt.help)
    return parser


def _is_value(token: str) -> bool:
    """Whether argparse reads ``token`` as a value: it does not start with
    "-", or it starts like a negative number ("-<digit>", "-.<digit>")."""
    if not token.startswith("-"):
        return True
    return token[1:2].isdecimal() or (token[1:2] == "."
                                      and token[2:3].isdecimal())


def _read_argv(argv: Sequence[str]) -> Optional[argparse.Namespace]:
    """The namespace argparse makes of a known command's plain argv.

    Plain means: one input that does not start with "-", and otherwise
    exact long options of the command's table, as ``--opt value``,
    ``--opt=value`` or a bare flag, whose values convert and pass their
    choices, with at most one option of each mutually exclusive group.
    Anything else (help, abbreviations, "--", unknown options, bad
    values, conflicts) gives None: argparse reads it and writes the help
    or the usage error.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    options = {opt.flag: opt for opt in _COMMANDS[argv[0]][1]}
    values = {opt.dest: opt.default for opt in options.values()}
    inputs = []
    groups: Dict[str, set] = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            inputs.append(token)
            continue
        flag, eq, value = token.partition("=")
        opt = options.get(flag)
        if opt is None:
            return None
        if opt.bare:
            if eq:
                return None
            values[opt.dest] = True
        else:
            if not eq:
                value = next(tokens, None)
                if value is None:
                    return None
            if not _is_value(value):
                return None
            if opt.type is not None:
                try:
                    value = opt.type(value)
                except (argparse.ArgumentTypeError, TypeError, ValueError):
                    return None
            if opt.choices is not None and value not in opt.choices:
                return None
            values[opt.dest] = value
        if opt.group is not None:
            given = groups.setdefault(opt.group, set())
            given.add(flag)
            if len(given) > 1:
                return None
    if len(inputs) != 1:
        return None
    return argparse.Namespace(command=argv[0], input=inputs[0], **values)


def _fail(code: int, message: str) -> int:
    sys.stderr.write("contactbetti: %s\n" % message)
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(argv)
    if args is None:
        # only a known command gets its own parser; --help, a missing or an
        # unknown command need the full one
        command = argv[0] if argv and argv[0] in _COMMANDS else None
        try:
            args = _build_parser(command).parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else PARSE_ERROR
    try:
        report, code = _HANDLERS[args.command](args)
    except DocumentError as exc:
        return _fail(PARSE_ERROR, str(exc))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        return _fail(PARSE_ERROR, str(exc))
    except GenericityFailure as exc:
        return _fail(GENERICITY_ERROR, "genericity failure: %s" % exc)
    except AssertionError as exc:
        return _fail(MISMATCH, "cross-check mismatch: %s" % exc)
    except ValueError as exc:
        return _fail(VALIDATION_ERROR,
                     "%s: %s" % (type(exc).__name__, exc))
    out = dumps(report) if args.format == "json" else render_table(report)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
