"""Rational convex polytopes with exact arithmetic.

Vertex and halfspace representations, face lattices, lattice point counting,
normalized volumes, polar duals, and labelled (weighted normal) polytopes.
Halfspaces are stored as (normal a, offset c) meaning <a, x> + c >= 0 with a
a primitive inward integer normal.  The extreme rays of a homogenized cone
come from the one kernel ``cone_rays``, and only three functions call it:
``convex_hull`` (vertices to facets), ``enumerate_halfspace_vertices``
(halfspaces to vertices) and ``_frame`` (the facets of a polytope's
projections that bound lattice point counts).  Everything else reads the
facets these produced: a labelled polytope's facets are its own
halfspaces, ``ehrhart.is_reflexive`` reads lattice distances off the
facets, and the good cones of ``prequant`` read their faces off a
diagram's face lattice.  Faces are the one ``intersection_closure`` of the
facets' vertex sets; a polytope builds its face lattice only when a
pulling triangulation of a non-simplex or a good cone needs it.  Lattice
point counts read integer facet rows, a vertex box and a counting frame
(narrowest coordinates first, prefixes bounded by projections, facet rows
split by side) cleared once per polytope, and one walk of a dilate counts
both the closed and, when asked, the open dilate.

The checks here read minors, never a Smith form: hull facets are signed
maximal minors (``cone_rays``), hull vertices are read off the
point-facet incidences, and a simplex volume is one determinant.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .exactlat import clear_row, det_int, floor_sum, rat_rank

RatPoint = tuple[Fraction, ...]


class DegenerateInput(ValueError):
    """Points do not affinely span the ambient space."""


class OriginNotInterior(ValueError):
    """Polar dual requested for a polytope without the origin inside."""


class NotSimple(ValueError):
    """A labelled polytope vertex meets more facets than the dimension."""


class UnboundedInput(ValueError):
    """Halfspace data describes an unbounded polyhedron."""


@dataclass(frozen=True)
class Facet:
    normal: tuple[int, ...]
    offset: Fraction
    vertex_ids: tuple[int, ...]


@dataclass(frozen=True)
class Face:
    dim: int
    vertex_ids: tuple[int, ...]


class RationalPolytope:
    """Immutable full-dimensional rational polytope."""

    def __init__(self, dimension: int, vertices: tuple[RatPoint, ...],
                 facets: tuple[Facet, ...]):
        self.dimension = dimension
        self.vertices = vertices
        self.facets = facets
        self._lattice: dict[int, tuple[Face, ...]] | None = None
        self._counts: dict[tuple[int, bool], int] = {}
        self._cleared = None  # _clear, on the first count or box
        self._delta = None  # ehrhart.delta_vector, once checked

    def __repr__(self):
        return "RationalPolytope(dim=%d, vertices=%s)" % (
            self.dimension, [tuple(map(str, v)) for v in self.vertices])

    def __eq__(self, other):
        return (isinstance(other, RationalPolytope)
                and self.dimension == other.dimension
                and self.vertices == other.vertices)

    def __hash__(self):
        return hash((self.dimension, self.vertices))

    def contains(self, point, strict: bool = False) -> bool:
        pt = tuple(Fraction(x) for x in point)
        for f in self.facets:
            val = sum(a * x for a, x in zip(f.normal, pt)) + f.offset
            if val < 0 or (strict and val == 0):
                return False
        return True

    def face_lattice(self) -> dict[int, tuple[Face, ...]]:
        if self._lattice is None:
            self._lattice = _build_face_lattice(self)
        return self._lattice


def _as_points(points) -> list[RatPoint]:
    out = [tuple(Fraction(x) for x in p) for p in points]
    if not out or len({len(p) for p in out}) != 1:
        raise DegenerateInput("need a nonempty list of equal-length points")
    return out


def affine_dim(points) -> int:
    """Dimension of the affine span of int/Fraction points; -1 for none."""
    if not points:
        return -1
    base = points[0]
    diffs = [[x - b for x, b in zip(p, base)] for p in points[1:]]
    return rat_rank(diffs) if diffs else 0


def cone_rays(rows) -> tuple[tuple[int, ...], ...]:
    """Sorted primitive integer extreme rays of {y in Q^d : <row, y> >= 0}.

    The one vertex/facet enumerator of the package, called only by
    ``convex_hull``, ``enumerate_halfspace_vertices`` and ``_frame``: hull
    facets, halfspace vertices and the facets of a counting frame's
    projections are all extreme rays of a pointed cone, reached by
    homogenization (Fukuda and Prodon, Double description method
    revisited, 1996).  Brute force over the (d-1)-subsets of the
    rows, cleared to integers: the signed maximal minors of a subset span
    its kernel unless they all vanish, and +-that vector is an extreme ray
    when every row is >= 0 on it.  For d = 1 the empty subset leaves the
    whole line, (1,) and (-1,).  The cone must be pointed (rows of rank
    d), or the lineality directions come out as rays.
    """
    ints = [clear_row(row) for row in rows]
    d = len(ints[0])
    rays = set()
    for sub in itertools.combinations(ints, d - 1):
        cand = [(-1) ** k * det_int([r[:k] + r[k + 1:] for r in sub])
                for k in range(d)]
        if not any(cand):
            continue
        g = math.gcd(*cand)
        cand = tuple(x // g for x in cand)
        for ray in (cand, tuple(-x for x in cand)):
            if all(sum(map(operator.mul, row, ray)) >= 0 for row in ints):
                rays.add(ray)
    return tuple(sorted(rays))


def convex_hull(points) -> RationalPolytope:
    """Exact convex hull.

    The facets <a, x> + c >= 0 are the extreme rays (a, c) of the cone of
    functionals nonnegative on every lifted point (p, 1), with a scaled to
    a primitive normal.  The points are cleared once by L, the least
    common denominator of all their coordinates, to the integer rows
    (L*p, L) of the same cone; p is on the facet of the ray (a, c) when
    <a, L*p> + c*L == 0, an integer value taken once per (facet, point)
    and read by both the vertex test and the facets' vertex ids.

    The vertex test reads these incidences alone: a point p is a vertex
    exactly when no other point is tight on every facet tight at p.  The
    facets tight at p cut out the least face containing p, which is the
    hull of the points on it, and that face is {p} exactly when p is a
    vertex (the points are distinct).  Every facet's vertices must then
    span a hyperplane, a check that also guards the vertex test and
    raises AssertionError, as does a hull without facets.
    """
    pts = []
    for p in _as_points(points):
        if p not in pts:
            pts.append(p)
    n = len(pts[0])
    L = math.lcm(*[x.denominator for p in pts for x in p])
    lifted = [clear_row(p + (1,), L) for p in pts]
    if affine_dim(lifted) != n:
        raise DegenerateInput("points do not span the ambient space")

    halfspaces: dict[tuple, tuple[int, ...]] = {}
    for ray in cone_rays(lifted):
        *a, c = ray
        g = math.gcd(*a)
        halfspaces[tuple(x // g for x in a), Fraction(c, g)] = tuple(
            sum(map(operator.mul, ray, q)) for q in lifted)

    if not halfspaces:
        raise AssertionError(
            "full-dimensional input must have supporting facets")

    # per point, the bit set of the facets tight at it
    rows = list(halfspaces.values())
    tight = [sum(1 << k for k, vals in enumerate(rows) if vals[i] == 0)
             for i in range(len(pts))]
    kept = sorted((p, i) for i, (p, s) in enumerate(zip(pts, tight))
                  if not any(t & s == s for j, t in enumerate(tight)
                             if j != i))
    vertices = tuple(p for p, _ in kept)

    facets = []
    for (normal, offset), vals in sorted(halfspaces.items()):
        vertex_ids = tuple(k for k, (_, i) in enumerate(kept) if vals[i] == 0)
        if affine_dim([lifted[kept[k][1]] for k in vertex_ids]) != n - 1:
            raise AssertionError("the vertices of hull facet %s do not span "
                                 "a hyperplane" % ((normal, offset),))
        facets.append(Facet(normal, offset, vertex_ids))

    return RationalPolytope(n, vertices, tuple(facets))


def intersection_closure(k: int, sets) -> set[frozenset[int]]:
    """The ground set range(k) and every nonempty intersection of the sets.

    Closed under one set at a time: each set cuts every member collected
    so far.  Applied to the vertex sets of a polytope's facets, these are
    its nonempty faces (Kaibel and Pfetsch,
    Computing the face lattice of a polytope from its vertex-facet
    incidences, 2002).
    """
    closed = {frozenset(range(k))}
    for s in sets:
        s = frozenset(s)
        closed |= {c & s for c in closed}
    closed.discard(frozenset())
    return closed


def _build_face_lattice(P: RationalPolytope) -> dict[int, tuple[Face, ...]]:
    """Faces by dimension, from n down to 0, each level sorted by ids."""
    levels = {d: [] for d in range(P.dimension, -1, -1)}
    for ids in intersection_closure(len(P.vertices),
                                    [f.vertex_ids for f in P.facets]):
        vids = tuple(sorted(ids))
        levels[affine_dim([P.vertices[i] for i in vids])].append(vids)
    lattice = {d: tuple(Face(d, vids) for vids in sorted(faces))
               for d, faces in levels.items()}
    assert [f.vertex_ids for f in lattice[0]] == [
        (i,) for i in range(len(P.vertices))]
    return lattice


def order(P: RationalPolytope) -> int:
    """Least m >= 1 with all vertices in (1/m)Z^n."""
    return math.lcm(*[x.denominator for v in P.vertices for x in v])


def _clear(P: RationalPolytope):
    """P's counting data as integers, computed on the first call and kept
    on P.

    Returns (m, lo, hi, rows, frame): m the order of P; lo[i] and hi[i]
    the least and greatest coordinate i of the vertices times m; per
    facet <a, x> + c >= 0 the row (d*a, d*c), d the denominator of c; and
    the counting frame of ``_frame``.  tP then has the coordinate box
    [t*lo/m, t*hi/m] and the facets <d*a, x> + t*d*c >= 0, so every
    dilate reuses these integers.
    """
    if P._cleared is None:
        m = order(P)
        cleared = [clear_row(v, m) for v in P.vertices]
        lo = [min(col) for col in zip(*cleared)]
        hi = [max(col) for col in zip(*cleared)]
        rows = [(tuple(f.offset.denominator * a for a in f.normal),
                 f.offset.numerator) for f in P.facets]
        P._cleared = (m, lo, hi, rows, _frame(m, cleared, lo, hi, rows))
    return P._cleared


def _frame(m: int, cleared, lo, hi, rows):
    """The coordinate order ``count_points`` counts in, with P's rows and
    prefix bounds in that order, from the cleared vertices alone.

    Returns (perm, sides, levels).  perm sorts the coordinates by the
    width hi - lo of the vertex box, narrowest first, equal widths by the
    variance of the column over the vertices and only then by index, so
    a signed permutation of the coordinates permutes the frame with
    them unless two columns tie in both.  The first n-2 frame
    coordinates are the prefix, and the last one is the widest.
    levels[k-2], for k = 2 .. n-2, bounds frame coordinate k-1 on the
    projection of tP onto the first k frame coordinates: one row
    (head, b, c) per facet <head, x> + b*x_(k-1) + t*c >= 0 of that
    projection with b nonzero.  The facets are the extreme rays of the
    cone over the distinct projected points (m*p, m), as in
    ``convex_hull``; those with b = 0 bound the shorter prefix alone and
    are implied by the level below.

    sides holds P's rows A.x + c >= 0 in frame order, split once by the
    coefficient beta of the last frame coordinate y into x-bounds
    (beta = 0), lower (beta > 0) and upper (beta < 0) rows: (consts,
    heads, xalphas, (lalphas, lqs), (ualphas, uqs)).  consts lists c
    over the x-bounds, then the lower, then the upper rows; heads[j] the
    coefficients of prefix coordinate j in that order; the alphas the
    coefficients of the next-to-last coordinate x, and the q > 0 the
    values |beta|.  AssertionError when y is not bounded on both sides.
    """
    n, count = len(lo), len(cleared)

    def narrowness(i):
        col = [v[i] for v in cleared]
        return (hi[i] - lo[i], count * sum(x * x for x in col) - sum(col) ** 2,
                i)
    perm = sorted(range(n), key=narrowness)
    levels = []
    for k in range(2, n - 1):
        points = sorted({tuple(v[i] for i in perm[:k]) + (m,)
                         for v in cleared})
        levels.append([(ray[:k - 1], ray[k - 1], ray[k])
                       for ray in cone_rays(points) if ray[k - 1]])
    rows = sorted(((tuple(A[i] for i in perm), c) for A, c in rows),
                  key=lambda row: (row[0][-1] != 0, row[0][-1] < 0))
    cols = list(zip(*[A for A, _ in rows]))
    heads, alphas, betas = cols[:-2], cols[-2] if n > 1 else (), cols[-1]
    nx = betas.count(0)
    nl = nx + sum(b > 0 for b in betas)
    if nx == nl or nl == len(rows):
        raise AssertionError("bounded polytope needs facets on both sides")
    sides = ([c for _, c in rows], heads, alphas[:nx],
             (alphas[nx:nl], betas[nx:nl]),
             (alphas[nl:], tuple(-b for b in betas[nl:])))
    return perm, sides, levels


def _coordinate_box(P: RationalPolytope, t: int):
    """Least and greatest integers of each coordinate over tP."""
    m, lo, hi = _clear(P)[:3]
    return [-(-t * x // m) for x in lo], [t * x // m for x in hi]


def count_points(P: RationalPolytope, t: int, interior: bool = False) -> int:
    """Number of points of (1/t)Z^n in P, equivalently Z^n points of t*P.

    Each facet <a, p> + t*c >= 0 is cleared to the integer inequality
    A.p + t*C >= 0 (A = d*a, C = d*c, d the denominator of c); between
    integers, the strict form A.p + t*C > 0 is A.p + t*C - 1 >= 0.  The
    rows (A, C), the vertex box and the counting frame are cleared once
    per polytope (``_clear``), so a dilate creates no Fraction.

    Counting runs in the frame of ``_frame``, a coordinate permutation
    (unimodular, so the count is unchanged) that puts the n-2 narrowest
    coordinates first.  Slice kernel: the prefix (the first n-2 frame
    coordinates) runs over the integer points of the projection of tP
    onto it, each coordinate bounded by the projection one level up
    (``_prefixes``), and in each slice the last two frame coordinates
    (x, y) satisfy alpha*x + beta*y + gamma >= 0 per facet.  Facets with
    beta = 0 bound x.  The others bound y from below (beta > 0) or above
    (beta < 0), so with U = min_up (alpha*x + gamma)/-beta and
    L = min_low (alpha*x + gamma)/beta the closed y-count at x is
    floor(U) + floor(L) + 1.  A strict facet gives y <= ceil(bound) - 1
    instead, and ceil, like floor, commutes with the min, so the open
    y-count is ceil(U) + ceil(L) - 1 over the same two least lines.  Each
    least line is walked once per slice (``_envelope``), and the x-range
    is split wherever either one changes; on each piece a count is two
    floor sums plus or minus the piece length (``_slice_points``).  With
    N integer points in the projection, f facets and k envelope pieces per
    slice, a dilate costs O(N * k * (f + log t)); no prefix outside the
    projection is visited, and which coordinates form the prefix does not
    depend on how the coordinates are permuted or signed.  n = 1 is one
    interval.

    One walk per dilate: an interior call counts the closed dilate in the
    same walk and memoizes both counts on P by (t, interior), so the
    closed count of a dilate whose interior was counted is a memo hit.  A
    memoized count is never overwritten.  A closed call counts the closed
    dilate alone.
    """
    if t < 1 or t != int(t):
        raise ValueError("dilate must be a positive integer, got %r" % (t,))
    if (t, interior) in P._counts:
        return P._counts[t, interior]
    perm, (consts, *sides), levels = _clear(P)[4]
    consts = [t * c for c in consts]
    if P.dimension == 1:
        _, _, (_, lqs), (_, uqs) = sides

        def interval(strict):
            first = max(-((c - strict) // q) for q, c in zip(lqs, consts))
            last = min((c - strict) // q
                       for q, c in zip(uqs, consts[len(lqs):]))
            return max(last - first + 1, 0)
        closed, inner = interval(0), interval(1) if interior else None
    else:
        lo, hi = _coordinate_box(P, t)
        # the open dilate lies in the closed one: both use its bounds
        closed, inner = _count_slices(
            sides, consts, [lo[i] for i in perm], [hi[i] for i in perm],
            [[(a, b, t * c) for a, b, c in level] for level in levels],
            interior)
    P._counts.setdefault((t, False), closed)
    if not interior:
        return closed
    P._counts[t, True] = inner
    return inner


def _prefixes(lo, hi, levels, cols, consts, head=()):
    """The per-facet slice constants of the integer prefixes that extend
    ``head``, in lexicographic order of the prefixes.

    Frame coordinate 0 runs over the box [lo[0], hi[0]]; coordinate j >= 1
    over the range the rows (a, b, c) of levels[j-1] leave at the
    prefix p so far, a.p + b*x_j + c >= 0, inside [lo[j], hi[j]].  A
    prefix is complete at len(levels) + 1 coordinates.  ``consts`` holds
    each facet's constant at ``head``, and each step of coordinate j adds
    cols[j] to it: one addition per facet and prefix, not a dot product
    with the whole prefix.
    """
    j = len(head)
    first, last = lo[j], hi[j]
    if j:
        for a, b, c in levels[j - 1]:
            g = sum(map(operator.mul, a, head)) + c
            if b > 0:
                first = max(first, -(g // b))
            else:
                last = min(last, g // -b)
    col = cols[j]
    consts = [c + h * first for c, h in zip(consts, col)]
    for v in range(first, last + 1):
        if j < len(levels):
            yield from _prefixes(lo, hi, levels, cols, consts, head + (v,))
        else:
            yield consts
        consts = list(map(operator.add, consts, col))


def _count_slices(sides, consts, lo, hi, levels, interior):
    """Lattice points of {p in box [lo, hi] : A.p + c >= 0} for the rows
    of ``sides`` (split as ``_frame`` splits them) with constants
    ``consts``, one 2-D slice per prefix of the first n-2 coordinates
    that ``_prefixes`` visits; ``levels`` bounds the prefixes by
    projections of that set, so no lattice point of it is missed.
    Returns (closed, open): open counts the points with every
    A.p + c > 0 when ``interior``, in the same walk, and is None
    otherwise.

    Each slice reads its per-facet constants gamma, in the order of
    ``sides``, from ``_prefixes``.  The open x-range takes gamma - 1 on
    the x-bounds, so a facet of the prefix alone that is tight at a
    prefix (gamma = 0) empties that open slice.
    """
    n = len(lo)
    heads, xalphas, (lalphas, lqs), (ualphas, uqs) = sides
    nx = len(xalphas)
    nl = nx + len(lalphas)
    closed = inner = 0
    for g in _prefixes(lo, hi, levels, heads, consts) if n > 2 else [consts]:
        # the closed x-range inline: a call per slice costs closed-only
        # series about 5%
        x, last = lo[n - 2], hi[n - 2]
        for alpha, gamma in zip(xalphas, g):
            if alpha > 0:
                x = max(x, -(gamma // alpha))
            elif alpha < 0:
                last = min(last, gamma // -alpha)
            elif gamma < 0:
                last = x - 1
        if x > last:
            continue
        strict = _open_x_range(xalphas, g, x, last) if interior else None
        c, o = _slice_points(list(zip(lalphas, g[nx:nl], lqs)),
                             list(zip(ualphas, g[nl:], uqs)), x, last, strict)
        closed += c
        inner += o
    return closed, inner if interior else None


def _open_x_range(alphas, gammas, x: int, last: int):
    """(x', last') for the integers of [x, last] with
    alpha*x' + gamma > 0 for every x-bound (alpha, gamma), or None when
    there are none; a row with alpha = 0 needs gamma > 0."""
    for alpha, gamma in zip(alphas, gammas):
        gamma -= 1
        if alpha > 0:
            x = max(x, -(gamma // alpha))
        elif alpha < 0:
            last = min(last, gamma // -alpha)
        elif gamma < 0:
            return None
    return (x, last) if x <= last else None


def _envelope(lines, x: int, last: int):
    """Pieces (e, a, b, q), left to right over the integers x .. last: the
    line (a*x' + b)/q (q > 0) is the least of the lines from the end of
    the piece before through e.

    Among lines tied at x the one of least slope is taken; it stays least
    to the right of x until a line of smaller slope crosses below it, and
    no line of larger slope can be least again, so each piece scans only
    the lines of smaller slope than the one before.
    """
    pieces = []
    while True:
        ba, bb, bq = lines[0]
        for a, b, q in lines[1:]:
            lhs, rhs = (a * x + b) * bq, (ba * x + bb) * q
            if lhs < rhs or (lhs == rhs and a * bq < ba * q):
                ba, bb, bq = a, b, q
        end, steeper = last, []
        for line in lines:
            a, b, q = line
            slope = a * bq - ba * q
            if slope < 0:  # below best exactly when x' * slope < bb*q - b*bq
                cross = (bb * q - b * bq) // slope
                if cross < end:
                    end = cross
                steeper.append(line)
        pieces.append((end, ba, bb, bq))
        if end == last:
            return pieces
        x, lines = end + 1, steeper


def _slice_points(low, up, x: int, last: int, strict):
    """Lattice points (x', y) with x <= x' <= last and
    -L <= y <= U, L = min_low (a*x' + b)/q and U = min_up (a*x' + b)/q:
    one walk of each envelope, merged piece by piece.

    Returns (closed, open).  open is 0 unless ``strict`` is a range
    (xo, lasto) inside [x, last]; then it counts the points with
    xo <= x' <= lasto and -L < y < U, ceil(U) + ceil(L) - 1 per column
    where U + L > 0 and none elsewhere (where U = -L is an integer the
    expression is -1, not 0).  On a piece ceil((a*x' + b)/q) is
    floor((a*x' + b + q - 1)/q), so open adds two floor sums less the
    length of the part where U + L > 0, inside the part of the closed sum.
    """
    closed = inner = 0
    lows, ups = iter(_envelope(low, x, last)), iter(_envelope(up, x, last))
    lend, la, lb, lq = next(lows)
    uend, ua, ub, uq = next(ups)
    while True:
        end = min(lend, uend)
        # real y-range nonempty: (ua*s + ub)/uq + (la*s + lb)/lq >= 0
        k, r = ua * lq + la * uq, ub * lq + lb * uq
        s, e = x, end
        if k > 0:
            s = max(s, -(r // k))
        elif k < 0:
            e = min(e, r // -k)
        elif r < 0:
            e = s - 1
        if e >= s:
            size = e - s + 1
            closed += (floor_sum(size, uq, ua, ua * s + ub)
                       + floor_sum(size, lq, la, la * s + lb) + size)
            if strict:
                # open y-range nonempty: k*s + r >= 1
                s, e = max(s, strict[0]), min(e, strict[1])
                if k > 0:
                    s = max(s, -((r - 1) // k))
                elif k < 0:
                    e = min(e, (r - 1) // -k)
                elif r < 1:
                    e = s - 1
                if e >= s:
                    size = e - s + 1
                    inner += (floor_sum(size, uq, ua, ua * s + ub + uq - 1)
                              + floor_sum(size, lq, la, la * s + lb + lq - 1)
                              - size)
        x = end + 1
        if x > last:
            return closed, inner
        if lend == end:
            lend, la, lb, lq = next(lows)
        if uend == end:
            uend, ua, ub, uq = next(ups)


def enumerate_lattice_points(P: RationalPolytope, t: int,
                             interior: bool = False):
    """Sorted list of lattice points of tP (strict facet test if interior)."""
    if t < 1:
        raise ValueError("dilate must be at least 1, got %r" % (t,))
    n = P.dimension
    strict = int(interior)
    rows = [(A, t * c - strict) for A, c in _clear(P)[3]]
    lo, hi = _coordinate_box(P, t)
    found = []
    for pt in itertools.product(*[range(lo[i], hi[i] + 1) for i in range(n)]):
        if all(sum(map(operator.mul, A, pt)) + c >= 0 for A, c in rows):
            found.append(pt)
    return sorted(found)


def simplex_normalized_volume(points) -> Fraction:
    """n! times the volume of the simplex on n+1 affinely independent
    int/Fraction points: |det| of the lifted rows (p, 1), cleared by L,
    the least common denominator of all coordinates, to (L*p, L), over
    L^(n+1).  The mass identity of ``ehrhart.delta_vector`` and the mean
    Euler characteristic read it through ``normalized_volume``."""
    lifted = [tuple(p) + (1,) for p in points]
    L = math.lcm(*[x.denominator for p in lifted for x in p])
    det = det_int([clear_row(p, L) for p in lifted])
    return Fraction(abs(det), L ** len(lifted))


def triangulate_ids(P: RationalPolytope, pull_last: bool = False):
    """Pulling triangulation of P into vertex-id simplices.

    Every face is pulled from its lexicographically least vertex (greatest
    when pull_last, which yields a genuinely different triangulation for
    non-simplex polytopes).  A simplex is its own single cell, and only
    a face that is not a simplex reads the face lattice.
    """
    def key(i):
        return P.vertices[i]

    def tri(face: Face):
        if len(face.vertex_ids) == face.dim + 1:
            return [face.vertex_ids]
        anchor = (max if pull_last else min)(face.vertex_ids, key=key)
        out = []
        for sub in P.face_lattice()[face.dim - 1]:
            if anchor in sub.vertex_ids:
                continue
            if not set(sub.vertex_ids) <= set(face.vertex_ids):
                continue
            for s in tri(sub):
                out.append(tuple(sorted(s + (anchor,))))
        return out

    simplices = tri(Face(P.dimension, tuple(range(len(P.vertices)))))
    assert all(len(s) == P.dimension + 1 for s in simplices)
    return simplices


def normalized_volume(P: RationalPolytope, pull_last: bool = False) -> Fraction:
    """n! times the Euclidean volume, by summing simplex determinants."""
    total = Fraction(0)
    for s in triangulate_ids(P, pull_last=pull_last):
        total += simplex_normalized_volume([P.vertices[i] for i in s])
    return total


def dual_polytope(P: RationalPolytope) -> RationalPolytope:
    """Polar dual {y : <x, y> >= -1 for all x in P}; needs 0 in the interior."""
    if any(f.offset <= 0 for f in P.facets):
        raise OriginNotInterior("dual needs the origin strictly inside")
    duals = [tuple(Fraction(a) / f.offset for a in f.normal) for f in P.facets]
    return convex_hull(duals)


def enumerate_halfspace_vertices(normals, offsets):
    """Vertices of {x : <a_i, x> + c_i >= 0}; raises when unbounded.

    The normals may be any exact scalars.  The rays (x, s) of the cone
    {<a_i, x> + c_i s >= 0, s >= 0} are the vertices x/s (s > 0) and the
    recession directions x (s = 0).
    """
    rows = [tuple(Fraction(x) for x in a) for a in normals]
    n = len(rows[0])
    if rat_rank(rows) < n:
        raise UnboundedInput("normals do not span, polyhedron has a line")
    lifted = [row + (Fraction(c),) for row, c in zip(rows, offsets)]
    vertices = []
    for *x, s in cone_rays(lifted + [(0,) * n + (1,)]):
        if s == 0:
            raise UnboundedInput("recession direction %s" % (tuple(x),))
        vertices.append(tuple(Fraction(v, s) for v in x))
    return sorted(vertices)


@dataclass(frozen=True)
class LabelledPolytope:
    """Simple polytope with weighted inward normals <x, v_i> + b_i >= 0."""

    weighted_normals: tuple[tuple[int, ...], ...]
    offsets: tuple[int, ...]
    labels: tuple[int, ...]
    polytope: RationalPolytope
    # per polytope vertex, the sorted ids of its tight labelled halfspaces
    vertex_facets: tuple[tuple[int, ...], ...]

    @property
    def dimension(self) -> int:
        return self.polytope.dimension


def labelled_polytope(normals, offsets) -> LabelledPolytope:
    """The simple polytope {x : <a_i, x> + c_i >= 0} with its labels.

    Once every vertex meets exactly n of the halfspaces and every
    halfspace has a tight vertex, each halfspace is a facet, so the
    polytope is read off the halfspace vertices with no hull: halfspace i
    with label g = gcd(a_i) is the facet <a_i/g, x> + c_i/g >= 0 on its
    tight vertices, and the facets are sorted as ``convex_hull`` sorts
    them.
    """
    ns = tuple(tuple(int(x) for x in a) for a in normals)
    offs = tuple(int(c) for c in offsets)
    if not ns or len(ns) != len(offs):
        raise ValueError("need matching normals and offsets")
    n = len(ns[0])
    verts = enumerate_halfspace_vertices(ns, offs)
    if not verts:
        raise DegenerateInput("halfspaces have empty intersection")
    if affine_dim(verts) != n:
        raise DegenerateInput("points do not span the ambient space")

    vertex_facets = []
    for v in verts:
        tight = tuple(i for i, (a, c) in enumerate(zip(ns, offs))
                      if sum(x * y for x, y in zip(a, v)) + c == 0)
        if len(tight) != n:
            raise NotSimple("vertex %s lies on %d halfspaces, expected %d"
                            % (v, len(tight), n))
        vertex_facets.append(tight)
    touched = set(itertools.chain.from_iterable(vertex_facets))
    if touched != set(range(len(ns))):
        raise DegenerateInput("halfspace without a tight vertex (redundant)")

    labels = tuple(math.gcd(*a) for a in ns)
    facets = sorted(
        (Facet(tuple(x // g for x in a), Fraction(c, g),
               tuple(k for k, tight in enumerate(vertex_facets) if i in tight))
         for i, (a, c, g) in enumerate(zip(ns, offs, labels))),
        key=lambda f: (f.normal, f.offset))
    P = RationalPolytope(n, tuple(verts), tuple(facets))
    return LabelledPolytope(ns, offs, labels, P, tuple(vertex_facets))
