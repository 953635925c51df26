"""Shared test helpers: the validated diagram of a corpus document, the
smooth-base form of the sector table, a wall-clock limit, and a
brute-force generator for the reflexive polygon classification."""
import contextlib
import itertools
import math
import signal
from fractions import Fraction
from functools import cmp_to_key, lru_cache

from contactbetti.contact import validate_diagram
from contactbetti.ehrhart import is_reflexive
from contactbetti.grading import GradedDimensions
from contactbetti.polytope import (convex_hull, enumerate_lattice_points,
                                   labelled_polytope)
from contactbetti.prequant import (_hc_window, diagram_from_labelled,
                                   hc_from_quotient)
from lattice_oracles import translate


def corpus_diagram(doc):
    """The diagram of a corpus document; labelled ones are lifted."""
    if doc["kind"] == "diagram":
        return validate_diagram(convex_hull(
            [tuple(Fraction(c) for c in v) for v in doc["vertices"]]))
    return diagram_from_labelled(
        labelled_polytope(doc["normals"], doc["offsets"]))


class BaseNotSmooth(ValueError):
    """The smooth-base table was asked of an orbifold base."""


def count_calls(monkeypatch, module, name):
    """Replace module.name by a wrapper; returns the list of the argument
    tuples of its calls."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapper)
    return calls


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError inside the block once ``seconds`` of wall time
    have passed, so a computation that blows up fails its test instead
    of stalling the suite (SIGALRM: main thread only)."""
    def expire(signum, frame):
        raise TimeoutError("still running after %s s" % seconds)
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def hc_smooth_base(Q, window=None):
    """Manifold-base specialization of the sector table: h_i(B) at degrees
    2i + 2r k + 2(r-1), checked against the sector formula before
    returning."""
    if not Q.smooth:
        raise BaseNotSmooth("base has an orbifold vertex")
    lo, hi = _hc_window(Q, window)
    base_h = next(comp.h for sector in Q.sectors if sector.period == 1
                  for comp in sector.components if not comp.face)
    items = []
    k = 0
    while 2 * (Q.r - 1) + 2 * Q.r * k <= hi:
        for i, c in enumerate(base_h):
            items.append((2 * i + 2 * (Q.r - 1) + 2 * Q.r * k, c))
        k += 1
    out = GradedDimensions.from_items(items, (lo, hi))
    assert out == hc_from_quotient(Q, (lo, hi))
    return out


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _quadrant(p):
    x, y = p
    if x > 0 and y >= 0:
        return 0
    if x <= 0 and y > 0:
        return 1
    if x < 0 and y <= 0:
        return 2
    return 3


def _angle_cmp(u, v):
    qu, qv = _quadrant(u), _quadrant(v)
    if qu != qv:
        return qu - qv
    return -_cross(u, v)


def unimodular_image(V, W):
    """Does some U in GL(2,Z) map vertex set V onto vertex set W?

    Complete search: a fixed independent pair of V must land on some
    ordered pair of W, and that correspondence determines U.
    """
    if len(V) != len(W):
        return False
    target = set(W)
    p1 = V[0]
    p2 = next(q for q in V[1:] if _cross(p1, q) != 0)
    det = _cross(p1, p2)
    for q1 in W:
        for q2 in W:
            ua = Fraction(q1[0] * p2[1] - q2[0] * p1[1], det)
            ub = Fraction(q2[0] * p1[0] - q1[0] * p2[0], det)
            uc = Fraction(q1[1] * p2[1] - q2[1] * p1[1], det)
            ud = Fraction(q2[1] * p1[0] - q1[1] * p2[0], det)
            if any(x.denominator != 1 for x in (ua, ub, uc, ud)):
                continue
            if abs(ua * ud - ub * uc) != 1:
                continue
            if {(ua * v[0] + ub * v[1], uc * v[0] + ud * v[1])
                    for v in V} == target:
                return True
    return False


def _hull_vertices(sub):
    """Hull vertex set of angularly sorted points around an interior
    origin, by dropping non-left turns until stable."""
    pts = list(sub)
    changed = True
    while changed and len(pts) > 3:
        changed = False
        for i in range(len(pts)):
            a, b, c = pts[i - 1], pts[i], pts[(i + 1) % len(pts)]
            if _cross((b[0] - a[0], b[1] - a[1]),
                      (c[0] - a[0], c[1] - a[1])) <= 0:
                pts.pop(i)
                changed = True
                break
    return tuple(sorted(pts))


@lru_cache(maxsize=1)
def brute_forced_reflexive_polygons():
    """(candidate reports, origin-centred classes) from a box search.

    Candidates are all polygons spanned by primitive points of [-2,2]^2
    that strictly contain the origin; every reflexive polygon appears
    origin-centred with primitive vertices, so no class is missed.
    """
    prim = [(x, y) for x in range(-2, 3) for y in range(-2, 3)
            if math.gcd(x, y) == 1]
    prim.sort(key=cmp_to_key(_angle_cmp))
    vertex_sets = set()
    for k in (3, 4, 5, 6):
        for sub in itertools.combinations(prim, k):
            # origin strictly interior: consecutive angular gaps below
            # a half turn, checked by exact cross products
            if any(_cross(sub[i], sub[(i + 1) % k]) <= 0 for i in range(k)):
                continue
            vertex_sets.add(_hull_vertices(sub))
    candidates = {}
    for V in sorted(vertex_sets):
        P = convex_hull(list(V))
        assert tuple(sorted(P.vertices)) == V
        candidates[V] = P

    pool = []
    centred = set()
    for P in candidates.values():
        reflexive = is_reflexive(P)
        pool.append((P, reflexive))
        if reflexive:
            (centre,) = enumerate_lattice_points(P, 1, interior=True)
            Q = translate(P, tuple(-c for c in centre))
            centred.add(tuple(sorted((int(v[0]), int(v[1]))
                                     for v in Q.vertices)))

    classes = []
    for V in sorted(centred):
        if not any(unimodular_image(V, W) for W in classes):
            classes.append(V)
    return pool, classes


def pytest_terminal_summary(terminalreporter):
    """One PASS/FAIL line per numbered acceptance check."""
    try:
        from test_acceptance import CHECKLIST
    except ImportError:
        return
    outcomes = {}
    for reports in terminalreporter.stats.values():
        for report in reports:
            if getattr(report, "when", None) != "call":
                continue
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance" not in nodeid:
                continue
            name = nodeid.split("::")[-1]
            if name in CHECKLIST:
                outcomes[name] = report.passed and outcomes.get(name, True)
    if not outcomes:
        return
    terminalreporter.section("acceptance criteria")
    ordered = sorted(CHECKLIST.items(), key=lambda item: item[1][0])
    for name, (number, title) in ordered:
        if name in outcomes:
            status = "PASS" if outcomes[name] else "FAIL"
            terminalreporter.write_line(
                "%s criterion %d: %s" % (status, number, title))
