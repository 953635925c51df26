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
(narrowest coordinates first, prefixes bounded by projections) cleared
once per polytope.
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

    assert halfspaces, "full-dimensional input must have supporting facets"

    # vertices: points whose tight facet normals span the whole space
    kept = []
    for i, p in enumerate(pts):
        tight = [hs[0] for hs, vals in halfspaces.items() if vals[i] == 0]
        if tight and rat_rank(tight) == n:
            kept.append((p, i))
    kept.sort()
    vertices = tuple(p for p, _ in kept)

    facets = []
    for (normal, offset), vals in sorted(halfspaces.items()):
        vertex_ids = tuple(k for k, (_, i) in enumerate(kept) if vals[i] == 0)
        assert affine_dim([lifted[kept[k][1]] for k in vertex_ids]) == n - 1
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

    Returns (perm, rows, levels).  perm sorts the coordinates by the
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
    return perm, [(tuple(A[i] for i in perm), c) for A, c in rows], levels


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
    (beta < 0), so the y-count at x is floor(min_up (alpha*x + gamma)/-beta)
    + floor(min_low (alpha*x + gamma)/beta) + 1.  Each least line is
    walked once per slice (``_envelope``), and the x-range is split
    wherever either one changes; on each piece the count is two floor
    sums plus the piece length, over the part where the real upper bound
    is not below the real lower one (elsewhere that expression is at
    most 0 and the count is 0).  With N integer points in the projection,
    f facets and k envelope pieces per slice, a dilate costs
    O(N * k * (f + log t)); no prefix outside the projection is visited,
    and which coordinates form the prefix does not depend on how the
    coordinates are permuted or signed.  n = 1 is one interval.  Counts
    are memoized on P by (t, interior).
    """
    if t < 1 or t != int(t):
        raise ValueError("dilate must be a positive integer, got %r" % (t,))
    key = (t, interior)
    if key in P._counts:
        return P._counts[key]
    strict = int(interior)
    perm, frame_rows, levels = _clear(P)[4]
    rows = [(A, t * c - strict) for A, c in frame_rows]
    if P.dimension == 1:
        first = max(-(c // a) for (a,), c in rows if a > 0)
        last = min(c // -a for (a,), c in rows if a < 0)
        total = max(last - first + 1, 0)
    else:
        lo, hi = _coordinate_box(P, t)
        # the open dilate lies in the closed one: both use its bounds
        total = _count_slices(
            rows, [lo[i] for i in perm], [hi[i] for i in perm],
            [[(a, b, t * c) for a, b, c in level] for level in levels])
    P._counts[key] = total
    return total


def _prefixes(lo, hi, levels, head=()):
    """The integer prefixes that extend ``head``, in lexicographic order.

    Frame coordinate 0 runs over the box [lo[0], hi[0]]; coordinate j >= 1
    over the range the rows (a, b, c) of levels[j-1] leave at the
    prefix p so far, a.p + b*x_j + c >= 0, inside [lo[j], hi[j]].  A
    prefix is complete at len(levels) + 1 coordinates.
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
    if j == len(levels):
        for v in range(first, last + 1):
            yield head + (v,)
    else:
        for v in range(first, last + 1):
            yield from _prefixes(lo, hi, levels, head + (v,))


def _count_slices(rows, lo, hi, levels) -> int:
    """Lattice points of {p in box [lo, hi] : A.p + C >= 0 for (A, C) in
    rows}, one 2-D slice per prefix of the first n-2 coordinates that
    ``_prefixes`` visits.  ``levels`` bounds the prefixes by projections of
    that set, so no lattice point of it is missed."""
    n = len(lo)
    lower, upper, xbounds = [], [], []
    for (*head, alpha, beta), c in rows:
        if beta > 0:
            lower.append((head, alpha, c, beta))
        elif beta < 0:
            upper.append((head, alpha, c, -beta))
        else:
            xbounds.append((head, alpha, c))
    if not (lower and upper):
        raise AssertionError("bounded polytope needs facets on both sides")

    total = 0
    for prefix in _prefixes(lo, hi, levels) if n > 2 else [()]:
        x, last = lo[n - 2], hi[n - 2]
        for head, alpha, c in xbounds:
            gamma = sum(map(operator.mul, head, prefix)) + c
            if alpha > 0:
                x = max(x, -(gamma // alpha))
            elif alpha < 0:
                last = min(last, gamma // -alpha)
            elif gamma < 0:
                last = x - 1
        if x > last:
            continue
        total += _slice_points(
            [(alpha, sum(map(operator.mul, head, prefix)) + c, q)
             for head, alpha, c, q in lower],
            [(alpha, sum(map(operator.mul, head, prefix)) + c, q)
             for head, alpha, c, q in upper], x, last)
    return total


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


def _slice_points(low, up, x: int, last: int) -> int:
    """Lattice points (x', y) with x <= x' <= last and
    -min_low (a*x' + b)/q <= y <= min_up (a*x' + b)/q: one walk of each
    envelope, merged piece by piece."""
    total = 0
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
            total += (floor_sum(size, uq, ua, ua * s + ub)
                      + floor_sum(size, lq, la, la * s + lb) + size)
        x = end + 1
        if x > last:
            return total
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
    """n! times the volume of the simplex on n+1 affinely independent points."""
    base = points[0]
    rows = [[Fraction(x) - b for x, b in zip(p, base)] for p in points[1:]]
    scales = [math.lcm(*[x.denominator for x in row]) for row in rows]
    det = det_int([[int(x * d) for x in row] for row, d in zip(rows, scales)])
    return abs(Fraction(det, math.prod(scales)))


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
