"""Geodesics between cone points of a zipped polygon, by planar development.

The glued surface is flat away from its cone points, so a geodesic that
leaves the polygon through an identified boundary edge continues straight in
a fresh isometric copy of the polygon laid across that edge.  Unrolling the
whole crossing sequence turns every geodesic into a straight segment from
the source vertex to some developed image of the target vertex.  The search
therefore works on "developments": placements of polygon copies reached by
a sequence of edge crossings.

Six facts keep the search small and exact:

* A valid candidate is a straight segment from the source, so only
  directions that thread every crossed edge in order can matter.  Each node
  carries the cone of admissible directions as its two boundary rays
  (always less than pi apart), and edges are clipped against it by the
  signs of cross products; an empty clip kills the branch.
* The distance from the source to the clipped part of the last crossed edge
  is a lower bound for every path through that node, which makes best-first
  expansion admissible: once the bound exceeds the budget the search is
  complete.
* That clipped distance is at least the distance from the source to the
  edge's line, and at least the distance to the whole edge.  An edge of a
  popped copy that lies beyond the largest live budget by either measure
  is skipped before it is clipped: its clip would be dropped anyway, so
  the prefilter saves the clip and changes no push.  It compares the
  |cross2| of the edge's endpoints seen from the source, which is the line
  distance times the edge's length, with the reach times that length.
* Below the root, a copy is convex and its cone lies within the directions
  through its entry edge, so a ray of the cone enters the copy there and
  can leave only through an edge whose inner side holds the source.  A
  popped copy is developed straight into offsets from the source.  The
  prefilter culls every edge whose cross2 of its endpoints' offsets is at
  most 0 (its clip is empty or a sliver), applies the line test, and only
  then measures the two offsets' lengths; the clip reads the row the
  prefilter kept.
* A ray from the source crosses one sequence of edges, so the clips of a
  copy's edges split its cone into disjoint pieces.  No two developments
  share a copy, an entry edge and a cone, and the search keeps no record
  of what it has pushed.
* Every search root is a vertex of the untransformed polygon, so what the
  root's first pop reads does not depend on the gluing: the offset of each
  vertex, the |cross2| of each edge away from the root and its clip
  against all directions (the root fan), and the re-trace of each chord,
  which is rejected as soon as it crosses an edge, whatever lies across
  it.  The halvings of one polygon share these through one
  `RootFans`, which re-traces a chord once for both its directions and
  clips an edge only once some root pop's prefilter keeps it.  Otherwise
  the root pop runs the target test, prefilter and push loop of every
  other pop.

The order in which a search pops developments does not depend on its
target, so one development from a source cone point serves many queries
at once (the single-source propagation of Mitchell, Mount and
Papadimitriou, "The discrete geodesic problem", 1987).  Each query, a
`Goal`, retires at exactly the pop where a search for it alone would have
stopped, and reports what that search would have reported.  A halving's
distance table runs one such search per cone point.

Candidates are never trusted from search state alone.  Each one is
re-traced from scratch: the segment is pushed through the copies, the
induced crossing sequence must reproduce the node's sequence, the composed
transform must match, and the open segment must clear every developed
cone-point image by the clearance tolerance (a geodesic cannot pass through
a positively curved cone point).

Perimeter-halving transitions come out orientation preserving: the zipped
arcs are parameterized from the same fold vertex, so the copy across an
edge is a rotated (never mirrored) polygon.
"""

import heapq
import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

from .embed import PAIRS, TetraMetric
from .errors import GeodesicError, GeodesicNotFoundError
from .geometry import (
    DEGENERATE_SQ,
    cross2,
    dot2,
    point_segment_distance,
    rigid_from_segment,
    turns,
)
from .polygon import DEFAULT_TOLERANCES, validate

OVERHANG_BOUND = 1.0 - math.sqrt(3.0) / 2.0
# added to every distance-table budget so a distance of exactly the budget
# is still found
BUDGET_SLACK = 1e-6
# The search compares a distance or lower bound with a budget, or a target's
# distance with its development's lower bound, up to _BOUND_SLACK, and treats
# a developed vertex within _AT_SOURCE of the source as the source itself.
_BOUND_SLACK = 1e-12
_AT_SOURCE = 1e-12
# A re-traced segment crosses an edge only between _CROSSING_SLACK past its
# last crossing and _CROSSING_SLACK short of its end.  The candidate it
# re-traces must end within _END_POINT_TOL of the developed target vertex and
# carry a transform within _TRANSFORM_TOL of the final copy's.
_CROSSING_SLACK = 1e-12
_END_POINT_TOL = 1e-9
_TRANSFORM_TOL = 1e-10
# Two directions whose cross product is below _PARALLEL count as parallel.
_PARALLEL = 1e-15
# A direction cone, or an edge seen from the source, whose width has a sine
# below _SLIVER is empty.  A candidate whose direction lies within
# _CONE_SLACK of its development's cone, by the sine of the angle, is
# re-traced; the re-trace decides it.
_SLIVER = 1e-14
_CONE_SLACK = 1e-9
# An edge is clipped only when it may come within the search's reach: its
# line, and below the root the edge itself, lie within reach + _REACH_MARGIN
# of the source.
# The margin covers the clip's rounding, so every edge the prefilter skips
# is one whose clip would be dropped.
_REACH_MARGIN = 1e-9
# A width within _OVERHANG_SLACK of OVERHANG_BOUND is within the bound.  An
# edge whose width is at most _WIDTH_FLOOR is not listed: an edge whose
# nearest endpoint lies exactly at the radius has width 0 up to rounding.
_OVERHANG_SLACK = 1e-9
_WIDTH_FLOOR = 1e-12

# the (rot, trans) of the untransformed polygon, where searches and re-traces start
_ROOT = (1.0 + 0.0j, 0.0j)
# the order of a goal's finds: an enumeration lists them in it, and a shortest
# query reports the first
_FIND_ORDER = operator.attrgetter("length", "source_vertex", "edge_path")

FOUND = "found"
NOT_FOUND = "not_found"
INCONCLUSIVE = "inconclusive"
# what a cone-point pair says about the unit disks (DistanceTable.pair_disk)
WITNESS, UNSETTLED, SETTLED = "witness", "unsettled", "settled"


class GeodesicPath(NamedTuple):
    source: tuple  # cone-point vertex indices
    target: tuple
    source_vertex: int  # representative the development started from
    target_vertex: int  # representative whose image the segment ends at
    length: float
    edge_path: tuple  # polygon edge indices crossed, in order


class ShortestResult(NamedTuple):
    status: str
    path: GeodesicPath | None
    # pops this query's own stop needed; a shared search may pop more for
    # its other goals
    developments: int
    # lower bound on every path the search left unexamined when it ran out
    # of developments; inf when it did not run out
    frontier: float

    @property
    def found(self):
        return self.status == FOUND


class EnumerationResult(NamedTuple):
    paths: tuple
    complete: bool
    developments: int  # as in ShortestResult


class DiskReport(NamedTuple):
    status: str  # "empty" | "nonempty" | "inconclusive"
    center: tuple
    radius: float
    witness: tuple | None  # (cone_vertices, distance) for the closest intruder


@dataclass(frozen=True)
class OverhangReport:
    center: tuple
    radius: float
    max_width: float
    per_edge: tuple  # (vertex, edge_index, width)
    bound: float

    @property
    def within_bound(self):
        return self.max_width <= self.bound + _OVERHANG_SLACK


class Goal(NamedTuple):
    """One query a shared search serves: a target cone point and a budget.

    A goal that stops at its first find is a shortest query; otherwise it
    enumerates every geodesic within the budget.
    """

    target: int  # cone-point index
    budget: float
    stop_at_first: bool


class _GoalState:
    """A goal's progress through one shared search, across its roots."""

    __slots__ = (
        "limit", "stop_at_first", "target_cone", "targets",
        "finds", "cut", "developments", "frontier",
    )

    def __init__(self, goal, target_cone):
        self.limit = goal.budget + _BOUND_SLACK  # what distances and bounds compare with
        self.stop_at_first = goal.stop_at_first
        self.target_cone = target_cone
        self.targets = target_cone.vertices
        # no find comes twice: one root's nodes have distinct edge paths
        self.finds = []
        self.cut = self.limit  # a pop whose bound is past the cut retires the goal
        self.developments = 0
        self.frontier = math.inf

    def take(self, path):
        """Record a re-traced path as one of the goal's finds; a shortest
        query's cut drops to its shortest find."""
        self.finds.append(path)
        if self.stop_at_first:
            self.cut = min(self.cut, path.length)

    def result(self):
        paths = self.finds
        exhausted = self.frontier < math.inf
        if not self.stop_at_first:
            paths.sort(key=_FIND_ORDER)
            return EnumerationResult(tuple(paths), not exhausted, self.developments)
        # an exhausted search may still certify its best find if nothing
        # cheaper was left open; be conservative and flag it instead
        best = min(paths, key=_FIND_ORDER, default=None)
        status = INCONCLUSIVE if exhausted else NOT_FOUND if best is None else FOUND
        return ShortestResult(status, best, self.developments, self.frontier)


class RootFans:
    """One polygon's root copy as seen from each of its vertices.

    Every search root is a vertex of the untransformed polygon, whatever
    the gluing, so a root's first pop computes the same things in every
    halving of the polygon.  This holds them, filled in by the engines
    that share it as their roots first need them:

    * `by_vertex[sv]`, the fan of vertex sv: the offset from sv of every
      vertex; the prefilter's row of every edge without an endpoint at sv,
      the fan edges, which holds the edge's two offsets, their lengths and
      the |cross2| of the two (its line distance from sv times its
      length); and
      the clip (cone, distance) of a fan edge, None for a sliver, made when
      a root pop's prefilter first keeps the edge;
    * `chords[(u, v)]`, u < v: the re-traced length of the chord between
      vertices u and v, as `DevelopmentEngine._finalize` returns it from
      u, and as it returns it from v too: the length is |v - u| either
      way, and so is the re-trace's verdict.  A chord that crosses an edge
      is rejected before anything across that edge is looked at.

    The re-trace reads tol_clearance of `tol`, the run's Tolerances, so
    fans serve only engines of the same polygon and tolerances.  The
    search assumes a convex polygon, in which a chord that crosses no edge
    stays inside, so a polygon that turns clockwise anywhere by more than
    tol_convex raises GeodesicError, and so does one with an edge of
    squared length below DEGENERATE_SQ; a straight vertex is allowed.
    """

    def __init__(self, polygon, tol=DEFAULT_TOLERANCES):
        self.polygon = polygon
        self.tol = tol
        self.points = polygon.as_complex()
        n = len(self.points)
        corner_turns = turns(polygon.vertices)
        for k in range(n):
            ab = self.points[k] - self.points[k - 1]
            if dot2(ab, ab) < DEGENERATE_SQ:
                raise GeodesicError(
                    f"polygon edge {(k - 1) % n} is degenerate; the geodesic search needs "
                    "distinct consecutive vertices"
                )
            if corner_turns[k - 1] < -tol.tol_convex:
                raise GeodesicError(
                    f"polygon is not convex at vertex {k}; the geodesic search needs a convex one"
                )
        # every developed copy of edge j has this length, up to rounding
        self.edge_lengths = [abs(self.points[(j + 1) % n] - self.points[j]) for j in range(n)]
        self.root_copy = [_ROOT[0] * p + _ROOT[1] for p in self.points]
        self.by_vertex = {}
        self.chords = {}


def _between(lo, hi, v):
    """Whether direction v lies in the closed cone from lo counterclockwise
    to hi, a cone narrower than pi.  The two cross2 are spelled out, as
    `_clip_row` asks this up to three times per clip."""
    return (
        lo.real * v.imag - lo.imag * v.real >= 0.0
        and v.real * hi.imag - v.imag * hi.real >= 0.0
    )


def _sliver(cross, len_lo, len_hi):
    """Whether the cone from ray lo counterclockwise to ray hi is empty (narrower
    than _SLIVER, or clockwise), from cross2(lo, hi) and the rays' lengths."""
    return cross < _SLIVER * len_lo * len_hi


class DevelopmentEngine:
    """Per-gluing machinery for developing copies and searching geodesics.

    `tol` is the run's Tolerances, which the re-trace and the distance
    table read.  `fans` are the polygon's RootFans, shared by the engines
    of its halvings; an engine given none makes its own.
    """

    def __init__(self, gluing, dev_cap=100000, tol=DEFAULT_TOLERANCES, fans=None):
        self.gluing = gluing
        self.dev_cap = int(dev_cap)
        self.tol = tol
        if fans is None:
            fans = RootFans(gluing.polygon, tol)
        elif fans.polygon != gluing.polygon:
            raise GeodesicError("root fans were built for another polygon")
        elif fans.tol != tol:
            raise GeodesicError("root fans were built for other tolerances")
        self.fans = fans
        self.points = fans.points
        self.n = len(self.points)
        self.edge_lengths = fans.edge_lengths
        # vertex n repeats vertex 0, so edge j runs from loop[j] to loop[j + 1]
        self.loop = self.points + self.points[:1]
        # edge j joins vertex j and j+1 (mod n)
        self.partner = [None] * self.n
        self.transition = [None] * self.n
        for ident in gluing.identifications:
            ea = self._edge_index(ident.a0, ident.a1)
            eb = self._edge_index(ident.b0, ident.b1)
            pa0, pa1 = self.points[ident.a0], self.points[ident.a1]
            pb0, pb1 = self.points[ident.b0], self.points[ident.b1]
            self.partner[ea] = eb
            self.partner[eb] = ea
            # crossing out through edge a: lay a copy with its edge b on a
            self.transition[ea] = rigid_from_segment(pb0, pb1, pa0, pa1)
            self.transition[eb] = rigid_from_segment(pa0, pa1, pb0, pb1)
        if any(p is None for p in self.partner):
            raise GeodesicError("gluing does not cover every boundary edge")
        self._table = None

    def _edge_index(self, u, v):
        if (u + 1) % self.n == v:
            return u
        if (v + 1) % self.n == u:
            return v
        raise GeodesicError(f"({u}, {v}) is not a boundary edge")

    def _develop(self, rot, trans):
        """The polygon's vertices in the copy z -> rot*z + trans (the engine
        composes only rotations); its edge j runs from vertex j to j+1."""
        return [rot * p + trans for p in self.points]

    # -- direction-cone bookkeeping -----------------------------------------

    @staticmethod
    def _ray_on_line(s, d, a, b):
        """Where the ray from s along d meets the line of [a, b]."""
        ab = b - a
        denom = cross2(d, ab)
        if abs(denom) < _PARALLEL:
            return a
        u = cross2(a - s, d) / denom
        # the clip stays inside the segment by construction; clamp for safety
        return a + min(1.0, max(0.0, u)) * ab

    def _clip_edge(self, s, a, b, cone):
        """Clip developed edge [a, b] against the direction cone from s.

        Returns (new_cone, min_distance) or None when no direction of the
        cone meets the edge in more than a sliver.
        """
        wa = a - s
        wb = b - s
        x = cross2(wa, wb)
        if x < 0.0:
            a, b, wa, wb, x = b, a, wb, wa, -x
        return self._clip_row(s, a, b, wa, wb, abs(wa), abs(wb), x, cone)

    def _clip_row(self, s, a, b, wa, wb, da, db, x, cone):
        """`_clip_edge` of an edge that s sees counterclockwise, from its
        row: wa = a - s, wb = b - s, da = |wa|, db = |wb|, x = cross2(wa, wb).
        A cone is None (every direction) or (lo, hi, |lo|, |hi|)."""
        if _sliver(x, da, db):
            return None  # the edge is radial from s
        if cone is None:
            return (wa, wb, da, db), point_segment_distance(s, a, b)
        lo, hi, len_lo, len_hi = cone
        # both cones are narrower than pi, so they meet in one cone or none,
        # and it starts at whichever start lies in the other
        if _between(lo, hi, wa):
            start, len_start, qa = wa, da, a
        elif _between(wa, wb, lo):
            start, len_start, qa = lo, len_lo, self._ray_on_line(s, lo, a, b)
        else:
            return None
        if _between(lo, hi, wb):
            end, len_end, qb = wb, db, b
        else:
            end, len_end, qb = hi, len_hi, self._ray_on_line(s, hi, a, b)
        if _sliver(cross2(start, end), len_start, len_end):
            return None
        return (start, end, len_start, len_end), point_segment_distance(s, qa, qb)

    @staticmethod
    def _cone_contains(cone, v, len_v):
        """Whether direction v, of length len_v, lies within _CONE_SLACK of
        the cone."""
        lo, hi, len_lo, len_hi = cone
        slack = _CONE_SLACK * len_v
        return cross2(lo, v) >= -slack * len_lo and cross2(v, hi) >= -slack * len_hi

    # -- candidate validation ------------------------------------------------

    def _trace(self, s, end, edge_path):
        """Push the straight segment s->end through the copies along edge_path.

        Returns ((rot, trans), copies): the last copy's placement and the
        developed vertices of every copy the segment visits.  Returns None
        as soon as the segment crosses an edge other than the next one of
        edge_path, or leaves the last copy, or ends short of it.  Grazing
        crossings are settled later by the clearance check.
        """
        n = self.n
        seg = end - s
        rot, trans = _ROOT
        pts = self.fans.root_copy
        entry = None
        u = 0.0
        copies = []
        for want in edge_path + (None,):
            copies.append(pts)
            best_t = None
            best_j = None
            for j in range(n):
                if j == entry:
                    continue
                # the segment crosses edge j at s + t*seg = a + v*ab, v in (0, 1)
                a = pts[j]
                ab = pts[(j + 1) % n] - a
                denom = seg.real * ab.imag - seg.imag * ab.real
                if abs(denom) < _PARALLEL:
                    continue
                w = a - s
                v = (w.real * seg.imag - w.imag * seg.real) / denom
                if v <= 0.0 or v >= 1.0:
                    continue
                t = (w.real * ab.imag - w.imag * ab.real) / denom
                if t <= u + _CROSSING_SLACK or t >= 1.0 - _CROSSING_SLACK:
                    continue
                if best_t is None or t < best_t:
                    best_t = t
                    best_j = j
            if best_j != want:
                return None
            if want is None:
                return (rot, trans), copies
            u = best_t
            t_rot, t_trans = self.transition[best_j]
            rot, trans = rot * t_rot, rot * t_trans + trans
            entry = self.partner[best_j]
            pts = self._develop(rot, trans)

    def _clear_of_cone_images(self, s, end, copies):
        clearance = self.tol.tol_clearance
        seg = end - s
        denom = seg.real * seg.real + seg.imag * seg.imag
        if denom < DEGENERATE_SQ:
            return True  # a point: a vertex not within clearance of s is clear of it
        for pts in copies:
            for w in pts:
                ws = w - s
                if abs(ws) <= clearance or abs(w - end) <= clearance:
                    continue
                # past either end the nearest point is that end, skipped above
                t = (ws.real * seg.real + ws.imag * seg.imag) / denom
                if 0.0 < t < 1.0 and abs(w - (s + t * seg)) < clearance:
                    return False
        return True

    def _finalize(self, sv, tv, rot, trans, edge_path, end):
        """Re-trace the candidate from vertex sv to `end`, the image of
        vertex tv in the copy that (rot, trans) places across `edge_path`,
        from scratch.

        Returns its length, or None when the re-trace rejects it.
        """
        s = self.points[sv]
        traced = self._trace(s, end, edge_path)
        if traced is None:
            return None
        (final_rot, final_trans), copies = traced
        if abs(copies[-1][tv] - end) > _END_POINT_TOL:
            return None
        if not (abs(rot - final_rot) <= _TRANSFORM_TOL and abs(trans - final_trans) <= _TRANSFORM_TOL):
            return None
        if not self._clear_of_cone_images(s, end, copies):
            return None
        return abs(end - s)

    def _path(self, source_cone, target_cone, sv, tv, edge_path, length):
        """The GeodesicPath of a re-traced candidate (None: rejected)."""
        if length is None:
            return None
        return GeodesicPath(
            tuple(source_cone.vertices), tuple(target_cone.vertices), sv, tv, length, edge_path
        )

    # -- the root fan ---------------------------------------------------------

    def _root_fan(self, sv):
        """Vertex sv's fan (see RootFans), built on first use: (offsets,
        the fan edges' rows with their |cross2|, clips by edge)."""
        fan = self.fans.by_vertex.get(sv)
        if fan is None:
            s = self.points[sv]
            offs = [p - s for p in self.fans.root_copy]
            dists = list(map(abs, offs))
            rows = [
                (j, wa, wb, da, db, length, abs(cross2(wa, wb)))
                for j, wa, wb, da, db, length in zip(
                    range(self.n), offs, offs[1:] + offs[:1], dists, dists[1:] + dists[:1], self.edge_lengths
                )
                if da >= _AT_SOURCE and db >= _AT_SOURCE
            ]
            fan = self.fans.by_vertex[sv] = (offs, rows, {})
        return fan

    def _root_chord(self, sv, tv):
        """The re-trace of the chord between vertices sv and tv, made once
        per RootFans from the lower vertex."""
        u, v = (sv, tv) if sv < tv else (tv, sv)
        chords = self.fans.chords
        if (u, v) not in chords:
            chords[u, v] = self._finalize(u, v, *_ROOT, (), self.fans.root_copy[v])
        return chords[u, v]

    # -- search ---------------------------------------------------------------

    def search(self, src_idx, goals):
        """One best-first development from a source cone serving many goals.

        Returns (results, developments): per goal a ShortestResult (for a
        goal that stops at its first find) or an EnumerationResult, each
        identical to what a search for that goal alone would give, and the
        number of developments this shared search popped.  A budget must
        be positive (inf included); zero, a negative budget and NaN raise
        GeodesicError.
        """
        cps = self.gluing.cone_points
        source_cone = cps[src_idx]
        states = []
        for goal in goals:
            target_cone = cps[goal.target]
            if source_cone is target_cone:
                raise GeodesicError("source and target cone points coincide")
            if not goal.budget > 0:
                raise GeodesicError("budget must be positive")
            states.append(_GoalState(goal, target_cone))
        if not states:
            return [], 0
        popped = 0
        for sv in source_cone.vertices:
            popped += self._search_root(source_cone, sv, states)
        return [st.result() for st in states], popped

    def _search_root(self, source_cone, sv, states):
        """Develop from vertex sv until every goal has retired; returns the pops.

        A goal's limit is its budget plus _BOUND_SLACK.  Pushes are pruned
        at the largest live limit, the reach.  One with a lower bound
        between two limits only pops after the smaller goal has retired
        (pops come in bound order), and so do its descendants, whose
        bounds are no smaller; the smaller goal's own search would have
        pruned it.  The pushes both searches make come in the same order,
        so ties pop alike.  Each goal therefore retires at exactly the pop
        where its own search would have stopped, having seen the same pops
        before it.  The goals are swept for retirement only at a pop whose
        bound passes the floor, the smallest live cut, or at the cap; a
        find that lowers a cut lowers the floor.

        Every pop runs one target test, one prefilter and one push loop.
        The root pop reads its copy's offsets from s, the |cross2| of its
        edges and their clips from the root fan, and its chords from the
        fans' re-traces.  Every other pop develops its copy straight into
        offsets from s, rot * p + trans - s, which rounds as developing
        and then subtracting does; a target vertex, and an edge the
        prefilter keeps, is developed again as rot * p + trans only to be
        re-traced or clipped.  A heap entry is (bound, tie, rot, trans,
        entry edge, cone, edge path), the copy placed by rot and trans;
        ties pop in push order.
        """
        s = self.points[sv]
        loop = self.loop
        n = self.n
        dev_cap = self.dev_cap
        partner, transition = self.partner, self.transition
        for st in states:
            st.cut = st.limit
        floor = min([st.cut for st in states])
        reach = max([st.limit for st in states])
        live = states
        heap = [(0.0, 0, *_ROOT, None, None, ())]
        tie = 1
        pops = 0
        while heap:
            lb, _, rot, trans, entry, cone, path = heapq.heappop(heap)
            if lb > floor or pops >= dev_cap:
                kept = []
                for st in live:
                    if lb > st.cut:
                        st.developments += pops
                    elif pops >= dev_cap:
                        st.developments += pops
                        st.frontier = min(st.frontier, lb)
                    else:
                        kept.append(st)
                if not kept:
                    return pops
                live = kept
                floor = min([st.cut for st in live])
                reach = max([st.limit for st in live])
            pops += 1
            if entry is None:
                offs, rows, clips = self._root_fan(sv)
                on_entry = ()
            else:
                # the prefilter reads the offsets themselves (see loop)
                offs = rows = [rot * p + trans - s for p in loop]
                # the entry edge's endpoints lie on the parent copy's
                # boundary: a segment ending there stops on the entry edge,
                # one crossing short
                on_entry = (entry, (entry + 1) % n)
            finalized = {}  # target vertex -> re-traced path (None: rejected)
            for st in live:
                for tv in st.targets:
                    if tv in on_entry:
                        continue
                    w = offs[tv]
                    d = abs(w)
                    if d > st.limit or d + _BOUND_SLACK < lb:
                        continue
                    # the root's cone, None, holds every direction
                    if cone and d > _AT_SOURCE and not self._cone_contains(cone, w, d):
                        continue
                    if tv not in finalized:
                        if entry is None:
                            length = self._root_chord(sv, tv)
                        else:
                            length = self._finalize(sv, tv, rot, trans, path, rot * loop[tv] + trans)
                        finalized[tv] = self._path(source_cone, st.target_cone, sv, tv, path, length)
                    found = finalized[tv]
                    if found is not None:
                        st.take(found)
                        if st.cut < floor:
                            floor = st.cut
            for j, wa, wb, da, db, x in self._edges_in_reach(rows, entry, reach):
                if entry is not None:
                    a, b = rot * loop[j] + trans, rot * loop[j + 1] + trans
                    clip = self._clip_row(s, a, b, wa, wb, da, db, x, cone)
                elif j in clips:  # each fan edge is clipped once for all the fans' engines
                    clip = clips[j]
                else:
                    root_copy = self.fans.root_copy
                    clip = clips[j] = self._clip_edge(s, root_copy[j], root_copy[(j + 1) % n], None)
                if clip is None:
                    continue
                cone2, dist = clip
                lb2 = max(lb, dist)
                if lb2 > reach:
                    continue
                t_rot, t_trans = transition[j]  # the child's placement is (rot, trans) after it
                child = (lb2, tie, rot * t_rot, rot * t_trans + trans, partner[j], cone2, path + (j,))
                heapq.heappush(heap, child)
                tie += 1
        for st in live:
            st.developments += pops
        return pops

    def _edges_in_reach(self, rows, entry, reach):
        """The rows (j, a - s, b - s, |a - s|, |b - s|, cross2) of the edges
        [a, b] of a popped copy worth clipping against its cone, s the
        source, in edge order; the root's cross2 is its absolute value.

        At the root (entry None), `rows` is the root fan's, a row (j,
        a - s, b - s, |a - s|, |b - s|, |b - a|, |cross2|) per fan edge,
        and an edge is skipped only when its line lies farther than reach +
        _REACH_MARGIN from s.  Below the root, `rows` holds the offsets
        from s of the copy's vertices 0, ..., n - 1 and vertex 0 again, the
        copy entered through edge `entry`.  An edge whose signed cross2 is
        at most 0 is culled, and so are the entry edge and every edge whose
        line lies out of reach; only then are the edge's two offsets
        measured, and it is skipped when an endpoint lies at s or when the
        edge itself lies out of reach.  The clip keeps part of the edge, so
        its distance is at least both of these; the popped bound is at
        most reach at every pop that expands, so such a clip gives no push.
        """
        limit = reach + _REACH_MARGIN
        if entry is None:
            # c / |b - a| is the distance from s to the edge's line
            return [(j, wa, wb, da, db, c) for j, wa, wb, da, db, length, c in rows if c <= limit * length]
        kept = []
        for j, length in enumerate(self.edge_lengths):
            wa, wb = rows[j], rows[j + 1]
            c = wa.real * wb.imag - wa.imag * wb.real
            if c <= 0.0 or c > limit * length or j == entry:
                continue
            da, db = abs(wa), abs(wb)
            if da < _AT_SOURCE or db < _AT_SOURCE:
                continue
            # beyond both endpoints, the edge is within reach only where the
            # foot of the perpendicular from s falls inside it, on the line
            if da > limit and db > limit:
                ab = wb - wa
                if dot2(wa, ab) >= 0.0 or dot2(wb, ab) <= 0.0:
                    continue
            kept.append((j, wa, wb, da, db, c))
        return kept

    def shortest_geodesic(self, src_idx, dst_idx, budget):
        results, _ = self.search(src_idx, [Goal(dst_idx, budget, True)])
        return results[0]

    def enumerate_geodesics(self, src_idx, dst_idx, budget):
        results, _ = self.search(src_idx, [Goal(dst_idx, budget, False)])
        return results[0]

    def distance_table(self):
        """The gluing's distance table at the engine's tolerances, built on
        first use (see DistanceTable)."""
        if self._table is None:
            self._table = DistanceTable(self)
        return self._table


class DistanceTable:
    """Every cone-point distance and zipper enumeration of a gluing.

    Every geodesic fact of a halving is read from here: the zipper lengths,
    the "nothing shorter" enumerations, the unit-disk verdicts and, for
    hexagons, the tetrahedron metric.  Each pair (i, j), i < j, is a
    shortest query from i with budget 1 + BUDGET_SLACK, enough to settle
    the unit disks and the unit zipper edges.  The hexagon's non-zipper
    pairs, whose exact distance the metric needs, get max(1, shortest
    interior chord between representatives) + BUDGET_SLACK; the chord is
    itself a path on the surface, so it always suffices.  Each zipper pair
    (i, j), in the zipper's direction, is also enumerated from i up to
    1 - tol_geodesic.  All queries leaving one cone point share one search
    (DevelopmentEngine.search), and `developments` counts what the shared
    searches popped.  The table reads the engine's tolerances.
    """

    def __init__(self, engine):
        gluing = engine.gluing
        self.gluing = gluing
        self.tol = engine.tol
        zipper_pairs = gluing.zipper_pairs()
        self.zipper = {frozenset(p) for p in zipper_pairs}
        self.entries = {}  # (i, j) with i < j -> (ShortestResult, budget)
        # zipper pair (i, j), in the zipper's direction -> EnumerationResult
        self.enumerations = {}
        self.developments = 0
        enumerated = {}  # i -> the goals enumerating its zipper pairs (i, j)
        for i, j in zipper_pairs:
            enumerated.setdefault(i, []).append(Goal(j, 1.0 - self.tol.tol_geodesic, False))
        m = len(gluing.cone_points)
        for i in range(m):
            goals = []
            for j in range(i + 1, m):
                reach = 1.0
                if gluing.n == 6 and frozenset((i, j)) not in self.zipper:
                    chord = min(
                        abs(engine.points[u] - engine.points[w])
                        for u in gluing.cone_points[i].vertices
                        for w in gluing.cone_points[j].vertices
                    )
                    reach = max(reach, chord)
                goals.append(Goal(j, reach + BUDGET_SLACK, True))
            goals += enumerated.get(i, ())
            results, popped = engine.search(i, goals)
            self.developments += popped
            for goal, res in zip(goals, results):
                if goal.stop_at_first:
                    self.entries[(i, goal.target)] = (res, goal.budget)
                else:
                    self.enumerations[(i, goal.target)] = res

    def result(self, i, j):
        return self.entries[(min(i, j), max(i, j))][0]

    def pair_disk(self, pair, radius=1.0):
        """What cone-point pair (i, j), i < j, says of the open radius disk
        of each of its cone points: WITNESS when its distance is below
        radius - tol_geodesic, of the table's tolerances; else SETTLED when
        its search covered the whole radius (it finished within its budget,
        or ran out of developments at a frontier beyond the radius); else
        UNSETTLED."""
        res, budget = self.entries[pair]
        if res.path is not None and res.path.length < radius - self.tol.tol_geodesic:
            return WITNESS
        return UNSETTLED if min(budget, res.frontier) < radius else SETTLED

    def disk(self, center_idx, radius=1.0):
        """Is the open geodesic disk around a cone point free of other cone points?

        Each pair of the cone point with another decides by `pair_disk`.  A
        witness makes the disk nonempty, and the nearest one is reported;
        without one, any unsettled pair makes the check inconclusive rather
        than a verdict.  The table's budgets cover radii up to 1.
        """
        if not 0.0 < radius <= 1.0:
            raise GeodesicError("disk radius must lie in (0, 1]")
        cps = self.gluing.cone_points
        rules = {
            k: self.pair_disk((min(k, center_idx), max(k, center_idx)), radius)
            for k in range(len(cps)) if k != center_idx
        }
        witnesses = [(self.result(k, center_idx).path.length, k) for k, r in rules.items() if r == WITNESS]
        center = tuple(cps[center_idx].vertices)
        if witnesses:
            length, k = min(witnesses)
            return DiskReport("nonempty", center, radius, (tuple(cps[k].vertices), length))
        return DiskReport(INCONCLUSIVE if UNSETTLED in rules.values() else "empty", center, radius, None)

    def tetra_metric(self, fat):
        """The six cone-point distances of a hexagon gluing as a TetraMetric.

        For a fat source (the caller's validation) the three zipper
        distances must come out 1 within tol_geodesic: the glued edges are
        unit and nothing shorter exists.
        """
        if len(self.gluing.cone_points) != 4:
            raise GeodesicError("tetrahedron metric needs a hexagon gluing (4 cone points)")
        tol = self.tol.tol_geodesic
        dists = {}
        for (i, j), name in zip(itertools.combinations(range(4), 2), PAIRS):
            res = self.result(i, j)
            if not res.found:
                raise GeodesicNotFoundError(
                    f"distance {name} not resolved (status {res.status})", status=res.status
                )
            d = res.path.length
            if fat and frozenset((i, j)) in self.zipper and abs(d - 1.0) > tol:
                raise GeodesicError(f"zipper distance {name} = {d!r} deviates from 1")
            dists["d_" + name] = d
        metric = TetraMetric(**dists)
        metric.check_triangle_inequalities(tol)
        return metric


# ---------------------------------------------------------------------------
# high-level queries
# ---------------------------------------------------------------------------

def overhang_audit(gluing, center_idx, radius=1.0, cfg=DEFAULT_TOLERANCES):
    """Measure how far the radius-r disk at a cone point pokes past the copy.

    For every boundary edge not incident to a representative of the cone
    point, the excursion width is the largest perpendicular distance beyond
    the edge line reached by disk points whose ray from the center actually
    passes through the open edge segment.  `per_edge` lists the edges whose
    width exceeds _WIDTH_FLOOR, and `max_width` is the largest width of
    any edge.  Fat hexagons must stay within 1 - sqrt(3)/2; the implied
    entry angle 2*asin(bound/2) stays below 8 degrees.  At radius 1, a
    source that validates as fat under the Tolerances `cfg` raises past
    that bound.
    """
    fat = radius == 1.0 and validate(gluing.polygon, cfg).fat_ok
    points = gluing.polygon.as_complex()
    n = len(points)
    center = gluing.cone_points[center_idx]
    per_edge = []
    max_width = 0.0
    for v in center.vertices:
        s = points[v]
        for j in range(n):
            if j == v or (j + 1) % n == v:
                continue
            a = points[j]
            b = points[(j + 1) % n]
            width = _excursion_width(s, a, b, radius)
            max_width = max(max_width, width)
            if width > _WIDTH_FLOOR:
                per_edge.append((v, j, width))
    if fat and max_width > OVERHANG_BOUND + _OVERHANG_SLACK:
        raise GeodesicError(
            f"overhang width {max_width:.9f} exceeds {OVERHANG_BOUND:.9f} on a fat source"
        )
    return OverhangReport(
        center=tuple(center.vertices),
        radius=radius,
        max_width=max_width,
        per_edge=tuple(per_edge),
        bound=OVERHANG_BOUND,
    )


def _excursion_width(s, a, b, radius):
    """Deepest reach of the radius disk at s beyond directed edge a -> b,
    restricted to rays that actually pass through the open segment.

    The polygon is counterclockwise, so "beyond" is the right side of the
    edge.  A disk point s + r*u sits at signed depth r*(u . n) + f(s) with
    n the outward normal and f(s) <= 0 the signed depth of the center.
    """
    if radius <= 0.0:
        return 0.0
    ab = b - a
    if dot2(ab, ab) < DEGENERATE_SQ:
        return 0.0
    n = complex(ab.imag, -ab.real) / abs(ab)  # outward normal
    fs = dot2(s - a, n)
    if fs >= 0.0:
        return 0.0  # center not strictly inside relative to this edge
    # s lies left of a -> b, so b is counterclockwise of a as seen from s
    wa = a - s
    wb = b - s
    if _sliver(cross2(wa, wb), abs(wa), abs(wb)):
        return 0.0
    if _between(wa, wb, n):
        best = radius + fs  # the perpendicular ray exits through the segment
    else:
        # the ray through the endpoint nearer to n in angle reaches deepest
        best = radius * max(dot2(wa, n) / abs(wa), dot2(wb, n) / abs(wb)) + fs
    return max(0.0, best)


def tetra_metric(gluing, cfg=DEFAULT_TOLERANCES):
    """Six pairwise geodesic distances between the four cone points.

    Reads the gluing's distance table (see DistanceTable.tetra_metric); the
    zipper-distance check applies when the source validates as fat.  `cfg`
    is the Tolerances to validate, search and check with.
    """
    rep = validate(gluing.polygon, cfg)
    return DevelopmentEngine(gluing, tol=cfg).distance_table().tetra_metric(rep.fat_ok)
