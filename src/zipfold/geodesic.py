"""Geodesics between cone points of a zipped polygon, by planar development.

The glued surface is flat away from its cone points, so a geodesic that
leaves the polygon through an identified boundary edge continues straight in
a fresh isometric copy of the polygon laid across that edge.  Unrolling the
whole crossing sequence turns every geodesic into a straight segment from
the source vertex to some developed image of the target vertex.  The search
therefore works on "developments": placements of polygon copies reached by
a sequence of edge crossings.

Five facts keep the search small and exact:

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
  the prefilter saves the clip and changes no push.
* A ray from the source crosses one sequence of edges, so the clips of a
  copy's edges split its cone into disjoint pieces.  No two developments
  share a copy, an entry edge and a cone, and the search keeps no record
  of what it has pushed.
* Every search root is a vertex of the untransformed polygon, so the root
  copy, and with it the root's first pop, does not depend on the gluing:
  the chord to each vertex, the line distance and clip of each edge
  against all directions (the root fan) and the re-trace of each chord,
  which is rejected as soon as it crosses an edge, whatever lies across
  it.  The halvings of one polygon share these through one `RootFans`,
  which re-traces a chord once for both its directions and clips an edge
  only once some root pop's reach covers its line.

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
from dataclasses import dataclass
from typing import NamedTuple

from .embed import PAIRS, TetraMetric
from .errors import GeodesicError, GeodesicNotFoundError
from .geometry import (
    DEGENERATE_SQ,
    IDENTITY,
    cross2,
    dot2,
    point_segment_distance,
    rigid_from_segment,
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

FOUND = "found"
NOT_FOUND = "not_found"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class GeodesicPath:
    source: tuple  # cone-point vertex indices
    target: tuple
    source_vertex: int  # representative the development started from
    target_vertex: int  # representative whose image the segment ends at
    length: float
    edge_path: tuple  # polygon edge indices crossed, in order


@dataclass(frozen=True)
class ShortestResult:
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


@dataclass(frozen=True)
class EnumerationResult:
    paths: tuple
    complete: bool
    developments: int  # as in ShortestResult


@dataclass(frozen=True)
class DiskReport:
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
        "budget", "stop_at_first", "target_cone", "targets",
        "collect", "best", "developments", "frontier",
    )

    def __init__(self, goal, target_cone):
        self.budget = goal.budget
        self.stop_at_first = goal.stop_at_first
        self.target_cone = target_cone
        self.targets = target_cone.vertices
        self.collect = {}  # (sv, tv, edge_path) -> GeodesicPath
        self.best = math.inf  # shortest find of the current root
        self.developments = 0
        self.frontier = math.inf

    def result(self):
        paths = list(self.collect.values())
        if len(paths) > 1:
            paths.sort(key=lambda g: (g.length, g.source_vertex, g.edge_path))
        exhausted = self.frontier < math.inf
        if not self.stop_at_first:
            return EnumerationResult(tuple(paths), not exhausted, self.developments)
        if paths:
            # an exhausted search may still certify its best find if nothing
            # cheaper was left open; be conservative and flag it instead
            status = INCONCLUSIVE if exhausted else FOUND
            return ShortestResult(status, paths[0], self.developments, self.frontier)
        status = INCONCLUSIVE if exhausted else NOT_FOUND
        return ShortestResult(status, None, self.developments, self.frontier)


class _Node:
    __slots__ = ("transform", "entry_edge", "cone", "edge_path")

    def __init__(self, transform, entry_edge, cone, edge_path):
        self.transform = transform
        self.entry_edge = entry_edge
        self.cone = cone  # None (all directions) or rays (lo, hi), hi ccw of lo by < pi
        self.edge_path = edge_path


# every search root: the untransformed polygon, entered through no edge
_ROOT = _Node(IDENTITY, None, None, ())


class RootFans:
    """One polygon's root copy as seen from each of its vertices.

    Every search root is a vertex of the untransformed polygon, whatever
    the gluing, so a root's first pop computes the same things in every
    halving of the polygon.  This holds them, filled in by the engines
    that share it as their roots first need them:

    * `by_vertex[sv]`, the fan of vertex sv: the chord length from sv to
      every vertex; the line distance from sv of every edge without an
      endpoint at sv, in edge order; and the clip (edge, cone, distance)
      of each of those edges, None for a sliver, made when a root pop's
      reach first covers the edge's line;
    * `chords[(u, v)]`, u < v: the re-traced length of the chord between
      vertices u and v, as `DevelopmentEngine._finalize` returns it from
      u, and as it returns it from v too: the length is |v - u| either
      way, and so is the re-trace's verdict.  A chord that crosses an edge
      is rejected before anything across that edge is looked at.

    The re-trace reads the clearance, so fans serve only engines of the
    same polygon and clearance.  The search assumes a convex polygon, in
    which a chord that crosses no edge stays inside, so a polygon that
    turns clockwise anywhere by more than tol_convex raises GeodesicError,
    and so does one with an edge of squared length below DEGENERATE_SQ;
    a straight vertex is allowed.
    """

    def __init__(self, polygon, clearance=DEFAULT_TOLERANCES.tol_clearance):
        self.polygon = polygon
        self.clearance = float(clearance)
        self.points = polygon.as_complex()
        n = len(self.points)
        for k in range(n):
            a, b = self.points[k - 1], self.points[k]
            ab = b - a
            if dot2(ab, ab) < DEGENERATE_SQ:
                raise GeodesicError(
                    f"polygon edge {(k - 1) % n} is degenerate; the geodesic search needs "
                    "distinct consecutive vertices"
                )
            if cross2(ab, self.points[(k + 1) % n] - a) < -DEFAULT_TOLERANCES.tol_convex:
                raise GeodesicError(
                    f"polygon is not convex at vertex {k}; the geodesic search needs a convex one"
                )
        # every developed copy of edge j has this length, up to rounding
        self.edge_lengths = [abs(self.points[(j + 1) % n] - self.points[j]) for j in range(n)]
        self.root_copy = [IDENTITY.apply(p) for p in self.points]
        self.by_vertex = {}
        self.chords = {}


def _between(lo, hi, v):
    """Whether direction v lies in the closed cone from lo counterclockwise
    to hi, a cone narrower than pi."""
    return cross2(lo, v) >= 0.0 and cross2(v, hi) >= 0.0


def _sliver(lo, hi):
    """Whether the cone from lo counterclockwise to hi is empty: narrower
    than _SLIVER, or turning clockwise."""
    return cross2(lo, hi) < _SLIVER * abs(lo) * abs(hi)


def _take(st, path):
    """Record a re-traced path (None: rejected) as one of the goal's finds."""
    if path is not None:
        key = (path.source_vertex, path.target_vertex, path.edge_path)
        if key not in st.collect:
            st.collect[key] = path
            st.best = min(st.best, path.length)


class DevelopmentEngine:
    """Per-gluing machinery for developing copies and searching geodesics.

    `fans` are the polygon's RootFans, shared by the engines of its
    halvings; an engine given none makes its own.
    """

    def __init__(
        self, gluing, dev_cap=100000, clearance=DEFAULT_TOLERANCES.tol_clearance, fans=None
    ):
        self.gluing = gluing
        self.dev_cap = int(dev_cap)
        self.clearance = float(clearance)
        if fans is None:
            fans = RootFans(gluing.polygon, self.clearance)
        elif fans.polygon != gluing.polygon:
            raise GeodesicError("root fans were built for another polygon")
        elif fans.clearance != self.clearance:
            raise GeodesicError(
                f"root fans were built for clearance {fans.clearance!r}, not {self.clearance!r}"
            )
        self.fans = fans
        self.points = fans.points
        self.n = len(self.points)
        self.edge_lengths = fans.edge_lengths
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

    def _develop(self, transform):
        """The polygon's vertices in the copy placed by transform.

        Edge j of the copy runs from vertex j to vertex j+1 (mod n).  The
        engine composes only rotations, so rot*p + trans is the placement.
        """
        rot, trans = transform.rot, transform.trans
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
        # cross2 and _between spelled out on real and imaginary parts, with
        # the same operations in the same order: most clips come out empty
        wa = a - s
        wb = b - s
        ax, ay, bx, by = wa.real, wa.imag, wb.real, wb.imag
        if ax * by - ay * bx < 0.0:
            a, b, wa, wb = b, a, wb, wa
            ax, ay, bx, by = bx, by, ax, ay
        if _sliver(wa, wb):
            return None  # the edge is radial from s
        if cone is None:
            return (wa, wb), point_segment_distance(s, a, b)
        lo, hi = cone
        lx, ly, hx, hy = lo.real, lo.imag, hi.real, hi.imag
        # both cones are narrower than pi, so they meet in one cone or none,
        # and it starts at whichever start lies in the other
        if lx * ay - ly * ax >= 0.0 and ax * hy - ay * hx >= 0.0:
            start, qa = wa, a
        elif ax * ly - ay * lx >= 0.0 and lx * by - ly * bx >= 0.0:
            start, qa = lo, self._ray_on_line(s, lo, a, b)
        else:
            return None
        if lx * by - ly * bx >= 0.0 and bx * hy - by * hx >= 0.0:
            end, qb = wb, b
        else:
            end, qb = hi, self._ray_on_line(s, hi, a, b)
        if _sliver(start, end):
            return None
        return (start, end), point_segment_distance(s, qa, qb)

    @staticmethod
    def _cone_contains(cone, v):
        """Whether direction v lies within _CONE_SLACK of the cone."""
        lo, hi = cone
        slack = _CONE_SLACK * abs(v)
        return cross2(lo, v) >= -slack * abs(lo) and cross2(v, hi) >= -slack * abs(hi)

    # -- candidate validation ------------------------------------------------

    def _trace(self, s, end, edge_path):
        """Push the straight segment s->end through the copies along edge_path.

        Returns (transform, copies): the last copy's transform and the
        developed vertices of every copy the segment visits.  Returns None
        as soon as the segment crosses an edge other than the next one of
        edge_path, or leaves the last copy, or ends short of it.  Grazing
        crossings are settled later by the clearance check.
        """
        n = self.n
        seg = end - s
        transform = IDENTITY
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
                return transform, copies
            u = best_t
            transform = transform.compose(self.transition[best_j])
            entry = self.partner[best_j]
            pts = self._develop(transform)

    def _clear_of_cone_images(self, s, end, copies):
        clearance = self.clearance
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

    def _finalize(self, sv, tv, node, end):
        """Re-trace the candidate from vertex sv to `end`, the image of
        vertex tv in the node's copy, from scratch.

        Returns its length, or None when the re-trace rejects it.
        """
        s = self.points[sv]
        traced = self._trace(s, end, node.edge_path)
        if traced is None:
            return None
        final, copies = traced
        if abs(copies[-1][tv] - end) > _END_POINT_TOL:
            return None
        if not node.transform.almost_equal(final, _TRANSFORM_TOL):
            return None
        if not self._clear_of_cone_images(s, end, copies):
            return None
        return abs(end - s)

    def _path(self, source_cone, target_cone, sv, tv, edge_path, length):
        """The GeodesicPath of a re-traced candidate (None: rejected)."""
        if length is None:
            return None
        return GeodesicPath(
            source=tuple(source_cone.vertices),
            target=tuple(target_cone.vertices),
            source_vertex=sv,
            target_vertex=tv,
            length=length,
            edge_path=edge_path,
        )

    # -- the root fan ---------------------------------------------------------

    def _root_fan(self, sv):
        """Vertex sv's fan (see RootFans), built on first use: (chord
        lengths, (edge, line distance) pairs, clips by edge)."""
        fan = self.fans.by_vertex.get(sv)
        if fan is None:
            n = self.n
            s = self.points[sv]
            offs = [p - s for p in self.fans.root_copy]
            lengths = list(map(abs, offs))
            far = tuple(
                (j, abs(cross2(offs[j], offs[(j + 1) % n])) / self.edge_lengths[j])
                for j in range(n)
                if lengths[j] >= _AT_SOURCE and lengths[(j + 1) % n] >= _AT_SOURCE
            )
            fan = self.fans.by_vertex[sv] = (lengths, far, {})
        return fan

    def _root_clips(self, sv, reach):
        """The clips (edge, cone, distance) of vertex sv's fan edges whose
        line lies within reach + _REACH_MARGIN of sv, in edge order.

        A clip's distance is at least its edge's line distance, so the
        clips left out are ones the root pop would drop.  Each edge is
        clipped the first time a root pop reaches its line.
        """
        _, far, clips = self._root_fan(sv)
        limit = reach + _REACH_MARGIN
        kept = []
        for j, line in far:
            if line > limit:
                continue
            if j not in clips:
                pts = self.fans.root_copy
                clip = self._clip_edge(self.points[sv], pts[j], pts[(j + 1) % self.n], None)
                clips[j] = None if clip is None else (j, *clip)
            if clips[j] is not None:
                kept.append(clips[j])
        return kept

    def _root_chord(self, sv, tv):
        """The re-trace of the chord between vertices sv and tv, made once
        per RootFans from the lower vertex."""
        u, v = (sv, tv) if sv < tv else (tv, sv)
        chords = self.fans.chords
        if (u, v) not in chords:
            chords[u, v] = self._finalize(u, v, _ROOT, self.fans.root_copy[v])
        return chords[u, v]

    # -- search ---------------------------------------------------------------

    def search(self, src_idx, goals):
        """One best-first development from a source cone serving many goals.

        Returns (results, developments): per goal a ShortestResult (for a
        goal that stops at its first find) or an EnumerationResult, each
        identical to what a search for that goal alone would give, and the
        number of developments this shared search popped.
        """
        cps = self.gluing.cone_points
        source_cone = cps[src_idx]
        states = []
        for goal in goals:
            target_cone = cps[goal.target]
            if source_cone is target_cone:
                raise GeodesicError("source and target cone points coincide")
            if goal.budget <= 0:
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

        Pushes are pruned at the largest live budget.  One with a lower
        bound between two budgets only pops after the smaller goal has
        retired (pops come in bound order), and so do its descendants,
        whose bounds are no smaller; the smaller goal's own search would
        have pruned it.  The pushes both searches make come in the same
        order, so ties pop alike.  Each goal therefore retires at exactly
        the pop where its own search would have stopped, having seen the
        same pops before it.

        The first pop reads the root fan.  It pushes the clips of the fan's
        edges within reach, in edge order, as every other pop does.
        """
        s = self.points[sv]
        dev_cap = self.dev_cap
        for st in states:
            st.best = math.inf
        live = list(states)
        reach = max(st.budget for st in live) + _BOUND_SLACK
        heap = [(0.0, 0, _ROOT)]
        tie = 1
        pops = 0
        while heap:
            lb, _, node = heapq.heappop(heap)
            kept = []
            for st in live:
                if lb > st.budget + _BOUND_SLACK or (st.stop_at_first and lb > st.best):
                    st.developments += pops
                elif pops >= dev_cap:
                    st.developments += pops
                    st.frontier = min(st.frontier, lb)
                else:
                    kept.append(st)
            if len(kept) < len(live):
                if not kept:
                    return pops
                live = kept
                reach = max(st.budget for st in live) + _BOUND_SLACK
            pops += 1
            finalized = {}  # target vertex -> re-traced path (None: rejected)
            if node is _ROOT:
                lengths = self._root_fan(sv)[0]
                for st in live:
                    for tv in st.targets:
                        if lengths[tv] > st.budget + _BOUND_SLACK:
                            continue
                        if tv not in finalized:
                            finalized[tv] = self._path(
                                source_cone, st.target_cone, sv, tv, (), self._root_chord(sv, tv)
                            )
                        _take(st, finalized[tv])
                clips = self._root_clips(sv, reach)
            else:
                pts = self._develop(node.transform)
                offs = [p - s for p in pts]
                dists = list(map(abs, offs))
                # the entry edge's endpoints lie on the parent copy's boundary:
                # a segment ending there stops on the entry edge, one crossing
                # short
                entry = node.entry_edge
                on_entry = (entry, (entry + 1) % self.n)
                for st in live:
                    for tv in st.targets:
                        if tv in on_entry:
                            continue
                        d = dists[tv]
                        if d > st.budget + _BOUND_SLACK or d + _BOUND_SLACK < lb:
                            continue
                        if d > _AT_SOURCE and not self._cone_contains(node.cone, offs[tv]):
                            continue
                        if tv not in finalized:
                            finalized[tv] = self._path(
                                source_cone, st.target_cone, sv, tv, node.edge_path,
                                self._finalize(sv, tv, node, pts[tv]),
                            )
                        _take(st, finalized[tv])
                clips = []
                for j in self._edges_in_reach(offs, dists, node, reach):
                    clip = self._clip_edge(s, pts[j], pts[(j + 1) % self.n], node.cone)
                    if clip is not None:
                        clips.append((j, *clip))
            for j, cone2, dist in clips:
                lb2 = max(lb, dist)
                if lb2 > reach:
                    continue
                t2 = node.transform.compose(self.transition[j])
                heapq.heappush(
                    heap,
                    (lb2, tie, _Node(t2, self.partner[j], cone2, node.edge_path + (j,))),
                )
                tie += 1
        for st in live:
            st.developments += pops
        return pops

    def _edges_in_reach(self, offs, dists, node, reach):
        """The edges of a popped copy worth clipping against its cone.

        `offs` is the copy's developed vertices less the source s, and
        `dists` their lengths.  The entry edge and edges with an endpoint
        at the source are left out, and so is every edge whose line, or the
        edge itself, lies farther than reach + _REACH_MARGIN from s.  The
        clip keeps part of the edge, so its distance is at least both of
        these; the node's bound is at most reach at every pop that expands,
        so the clip of a skipped edge would give no push.
        """
        n = self.n
        limit = reach + _REACH_MARGIN
        lengths = self.edge_lengths
        entry = node.entry_edge
        kept = []
        for j in range(n):
            if j == entry:
                continue
            k = (j + 1) % n
            wa, wb = offs[j], offs[k]
            # |cross2(a - s, b - s)| / |b - a| is the distance to the line
            if abs(wa.real * wb.imag - wa.imag * wb.real) > limit * lengths[j]:
                continue
            if dists[j] < _AT_SOURCE or dists[k] < _AT_SOURCE:
                continue
            # beyond both endpoints, the edge is within reach only where the
            # foot of the perpendicular from s falls inside it, on the line
            if dists[j] > limit and dists[k] > limit:
                ab = wb - wa
                if dot2(wa, ab) >= 0.0 or dot2(wb, ab) <= 0.0:
                    continue
            kept.append(j)
        return kept

    def shortest_geodesic(self, src_idx, dst_idx, budget):
        results, _ = self.search(src_idx, [Goal(dst_idx, budget, True)])
        return results[0]

    def enumerate_geodesics(self, src_idx, dst_idx, budget):
        results, _ = self.search(src_idx, [Goal(dst_idx, budget, False)])
        return results[0]

    def distance_table(self, tol=DEFAULT_TOLERANCES):
        """The gluing's distance table for these tolerances, built on first
        use (see DistanceTable)."""
        if self._table is None or self._table.tol != tol:
            self._table = DistanceTable(self, tol)
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
    searches popped.
    """

    def __init__(self, engine, tol=DEFAULT_TOLERANCES):
        gluing = engine.gluing
        self.gluing = gluing
        self.tol = tol
        self.zipper = {frozenset(p) for p in gluing.zipper_pairs()}
        self.entries = {}  # (i, j) with i < j -> (ShortestResult, budget)
        # zipper pair (i, j), in the zipper's direction -> EnumerationResult
        self.enumerations = {}
        self.developments = 0
        m = len(gluing.cone_points)
        zipper_pairs = gluing.zipper_pairs()
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
            goals += [
                Goal(j, 1.0 - tol.tol_geodesic, False)
                for a, j in zipper_pairs
                if a == i
            ]
            results, popped = engine.search(i, goals)
            self.developments += popped
            for goal, res in zip(goals, results):
                if goal.stop_at_first:
                    self.entries[(i, goal.target)] = (res, goal.budget)
                else:
                    self.enumerations[(i, goal.target)] = res

    def result(self, i, j):
        return self.entries[(min(i, j), max(i, j))][0]

    def disk(self, center_idx, radius=1.0):
        """Is the open geodesic disk around a cone point free of other cone points?

        A cone point at distance below radius - tol_geodesic, of the table's
        tolerances, is a witness against emptiness.  A pair without a
        witness is settled when its search covered the whole radius: it
        finished within its budget, or it ran out of developments at a
        frontier beyond the radius.  Any unsettled pair without a witness
        makes the check inconclusive rather than a verdict.  The table's
        budgets cover radii up to 1.
        """
        if not 0.0 < radius <= 1.0:
            raise GeodesicError("disk radius must lie in (0, 1]")
        cps = self.gluing.cone_points
        tol = self.tol.tol_geodesic
        witness = None
        unsettled = False
        for k, other in enumerate(cps):
            if k == center_idx:
                continue
            res, budget = self.entries[(min(k, center_idx), max(k, center_idx))]
            if res.path is not None and res.path.length < radius - tol:
                if witness is None or res.path.length < witness[1]:
                    witness = (tuple(other.vertices), res.path.length)
            elif min(budget, res.frontier) < radius:
                unsettled = True
        center = tuple(cps[center_idx].vertices)
        if witness is not None:
            return DiskReport("nonempty", center, radius, witness)
        return DiskReport(INCONCLUSIVE if unsettled else "empty", center, radius, None)

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

def overhang_audit(gluing, center_idx, radius=1.0, cfg=None, *, fat=None):
    """Measure how far the radius-r disk at a cone point pokes past the copy.

    For every boundary edge not incident to a representative of the cone
    point, the excursion width is the largest perpendicular distance beyond
    the edge line reached by disk points whose ray from the center actually
    passes through the open edge segment.  `per_edge` lists the edges whose
    width exceeds _WIDTH_FLOOR, and `max_width` is the largest width of
    any edge.  Fat hexagons must stay within 1 - sqrt(3)/2; the implied
    entry angle 2*asin(bound/2) stays below 8 degrees.  `fat` says whether
    to raise past that bound; None checks it at radius 1 only, for a
    source that validates as fat under `cfg`.
    """
    if fat is None:
        fat = radius == 1.0 and (
            validate(gluing.polygon) if cfg is None else validate(gluing.polygon, cfg)
        ).fat_ok
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
    if _sliver(wa, wb):
        return 0.0
    if _between(wa, wb, n):
        best = radius + fs  # the perpendicular ray exits through the segment
    else:
        # the ray through the endpoint nearer to n in angle reaches deepest
        best = radius * max(dot2(wa, n) / abs(wa), dot2(wb, n) / abs(wb)) + fs
    return max(0.0, best)


def tetra_metric(gluing, cfg=None):
    """Six pairwise geodesic distances between the four cone points.

    Reads the gluing's distance table (see DistanceTable.tetra_metric); the
    zipper-distance check applies when the source validates as fat.  `cfg`
    is the Tolerances to validate, search and check with.
    """
    tol = DEFAULT_TOLERANCES if cfg is None else cfg
    rep = validate(gluing.polygon, tol)
    engine = DevelopmentEngine(gluing, clearance=tol.tol_clearance)
    return engine.distance_table(tol).tetra_metric(rep.fat_ok)
