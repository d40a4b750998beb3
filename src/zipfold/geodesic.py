"""Geodesics between cone points of a zipped polygon, by planar development.

The glued surface is flat away from its cone points, so a geodesic that
leaves the polygon through an identified boundary edge continues straight in
a fresh isometric copy of the polygon laid across that edge.  Unrolling the
whole crossing sequence turns every geodesic into a straight segment from
the source vertex to some developed image of the target vertex.  The search
therefore works on "developments": placements of polygon copies reached by
a sequence of edge crossings.

Two facts keep the search small and exact:

* A valid candidate is a straight segment from the source, so only
  directions that thread every crossed edge in order can matter.  Each node
  carries the interval of admissible directions (always narrower than pi),
  and edges are clipped against it; an empty clip kills the branch.
* The distance from the source to the clipped part of the last crossed edge
  is a lower bound for every path through that node, which makes best-first
  expansion admissible: once the bound exceeds the budget the search is
  complete.

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
    IDENTITY,
    bearing,
    point_segment_distance,
    rigid_from_segment,
    segment_crossing_param,
)
from .polygon import DEFAULT_TOLERANCES, validate

TWO_PI = 2.0 * math.pi
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
    identifications: tuple  # ((a0, a1), (b0, b1)) per crossing
    local_segments: tuple  # per-copy ((x, y), (x, y)) pieces in polygon coords
    transforms: tuple  # (rot_re, rot_im, tr_re, tr_im) per copy

    @property
    def crossings(self):
        return len(self.edge_path)


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
        return self.max_width <= self.bound + 1e-9


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
        paths = sorted(
            self.collect.values(), key=lambda g: (g.length, g.source_vertex, g.edge_path)
        )
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
        self.cone = cone  # None = all directions, else (lo, width)
        self.edge_path = edge_path


class DevelopmentEngine:
    """Per-gluing machinery for developing copies and searching geodesics."""

    def __init__(self, gluing, dev_cap=100000, clearance=1e-9):
        self.gluing = gluing
        self.dev_cap = int(dev_cap)
        self.clearance = float(clearance)
        self.points = gluing.polygon.as_complex()
        self.n = len(self.points)
        # edge j joins vertex j and j+1 (mod n)
        self.partner = [None] * self.n
        self.transition = [None] * self.n
        self.ident_of_edge = [None] * self.n
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
            self.ident_of_edge[ea] = ident
            self.ident_of_edge[eb] = ident
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
    def _interval_of_segment(s, a, b):
        """Bearing interval subtended at s by segment [a, b], width < pi.

        Returns (lo, width, p_lo, p_hi) with p_lo/p_hi the segment endpoints
        at the interval boundaries, or None for radially aligned segments.
        """
        wa = a - s
        wb = b - s
        ta = math.atan2(wa.imag, wa.real)
        tb = math.atan2(wb.imag, wb.real)
        width = math.fmod(tb - ta, TWO_PI)
        if width <= -math.pi:
            width += TWO_PI
        elif width > math.pi:
            width -= TWO_PI
        if width < 0:
            ta, tb = tb, ta
            a, b = b, a
            width = -width
        if width < 1e-14:
            return None
        return ta, width, a, b

    @staticmethod
    def _ray_on_line(s, theta, a, b):
        d = complex(math.cos(theta), math.sin(theta))
        ab = b - a
        denom = d.real * ab.imag - d.imag * ab.real
        if abs(denom) < 1e-15:
            return a
        w = a - s
        u = (w.real * d.imag - w.imag * d.real) / denom
        # the clip stays inside the segment by construction; clamp for safety
        return a + min(1.0, max(0.0, u)) * ab

    def _clip_edge(self, s, a, b, cone):
        """Clip developed edge [a, b] against the direction cone from s.

        Returns (new_cone, min_distance) or None when no admissible
        direction meets the edge.
        """
        sub = self._interval_of_segment(s, a, b)
        if sub is None:
            return None
        ta, width, pa, pb = sub
        if cone is None:
            lo, w = ta, width
            qa, qb = pa, pb
        else:
            clo, cw = cone
            off = math.fmod(ta - clo, TWO_PI)
            if off < 0:
                off += TWO_PI
            # edge interval occupies [off, off + width] relative to the cone start
            if off <= cw:
                o1, o2 = off, min(off + width, cw)
            elif off + width >= TWO_PI:
                o1, o2 = 0.0, min(cw, off + width - TWO_PI)
            else:
                return None
            if o2 - o1 < 1e-14:
                return None
            lo, w = clo + o1, o2 - o1
            qa = pa if abs(o1 - off) < 1e-15 else self._ray_on_line(s, clo + o1, pa, pb)
            if abs((off + width) - o2) < 1e-15 or abs((off + width - TWO_PI) - o2) < 1e-15:
                qb = pb
            else:
                qb = self._ray_on_line(s, clo + o2, pa, pb)
        return (lo, w), point_segment_distance(s, qa, qb)

    @staticmethod
    def _cone_contains(cone, theta, slack=1e-9):
        if cone is None:
            return True
        lo, w = cone
        off = math.fmod(theta - lo, TWO_PI)
        if off < 0:
            off += TWO_PI
        return off <= w + slack or off >= TWO_PI - slack

    # -- candidate validation ------------------------------------------------

    def _trace(self, s, end):
        """Push the straight segment s->end through the copies.

        Returns (edge_path, transforms, copies, params): the transform and
        the developed vertices of every copy the segment visits, and the
        segment parameter of each crossing.  Grazing crossings are settled
        later by the clearance check.
        """
        transform = IDENTITY
        entry = None
        u = 0.0
        edge_path = []
        transforms = [IDENTITY]
        copies = []
        params = []
        for _ in range(4 * self.dev_cap + 64):
            pts = self._develop(transform)
            copies.append(pts)
            best_t = None
            best_j = None
            for j in range(self.n):
                if j == entry:
                    continue
                hit = segment_crossing_param(s, end, pts[j], pts[(j + 1) % self.n])
                if hit is None:
                    continue
                t, _ = hit
                if t <= u + _CROSSING_SLACK or t >= 1.0 - _CROSSING_SLACK:
                    continue
                if best_t is None or t < best_t:
                    best_t = t
                    best_j = j
            if best_t is None:
                return edge_path, transforms, copies, params
            u = best_t
            params.append(best_t)
            edge_path.append(best_j)
            transform = transform.compose(self.transition[best_j])
            entry = self.partner[best_j]
            transforms.append(transform)
        raise GeodesicError("trace did not terminate; development cap exceeded")

    def _clear_of_cone_images(self, s, end, copies):
        for pts in copies:
            for w in pts:
                if abs(w - s) <= self.clearance or abs(w - end) <= self.clearance:
                    continue
                if point_segment_distance(w, s, end) < self.clearance:
                    return False
        return True

    def _finalize(self, source_cone, target_cone, sv, tv, node, end):
        s = self.points[sv]
        edge_path, transforms, copies, params = self._trace(s, end)
        if tuple(edge_path) != tuple(node.edge_path):
            return None
        final = transforms[-1]
        if abs(copies[-1][tv] - end) > _END_POINT_TOL:
            return None
        if not node.transform.almost_equal(final, _TRANSFORM_TOL):
            return None
        if not self._clear_of_cone_images(s, end, copies):
            return None
        # split the segment at the crossing points, map pieces to local coords
        params = [0.0] + params + [1.0]
        seg = end - s
        locals_ = []
        for k, tr in enumerate(transforms):
            p0 = s + params[k] * seg
            p1 = s + params[k + 1] * seg
            inv_rot = tr.rot.conjugate()
            q0 = inv_rot * (p0 - tr.trans)
            q1 = inv_rot * (p1 - tr.trans)
            locals_.append(((q0.real, q0.imag), (q1.real, q1.imag)))
        idents = tuple(self.ident_of_edge[j].as_pairs() for j in edge_path)
        return GeodesicPath(
            source=tuple(source_cone.vertices),
            target=tuple(target_cone.vertices),
            source_vertex=sv,
            target_vertex=tv,
            length=abs(seg),
            edge_path=tuple(edge_path),
            identifications=idents,
            local_segments=tuple(locals_),
            transforms=tuple(
                (t.rot.real, t.rot.imag, t.trans.real, t.trans.imag) for t in transforms
            ),
        )

    # -- search ---------------------------------------------------------------

    def search(self, src_idx, goals, dev_cap=None):
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
        cap = dev_cap if dev_cap is not None else self.dev_cap
        popped = 0
        for sv in source_cone.vertices:
            popped += self._search_root(source_cone, sv, states, cap)
        return [st.result() for st in states], popped

    def _search_root(self, source_cone, sv, states, dev_cap):
        """Develop from vertex sv until every goal has retired; returns the pops.

        Pushes are pruned at the largest live budget.  One with a lower
        bound between two budgets only pops after the smaller goal has
        retired, and a development it marks as seen can only come back at
        a bound no smaller (pops come in bound order), so the smaller goal
        would have pruned that one too.  Each goal therefore retires at
        exactly the pop where its own search would have stopped, having
        seen the same pops before it.
        """
        s = self.points[sv]
        for st in states:
            st.best = math.inf
        live = list(states)
        reach = max(st.budget for st in live) + _BOUND_SLACK
        heap = [(0.0, 0, _Node(IDENTITY, None, None, ()))]
        tie = 1
        seen = set()
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
            transform = node.transform
            pts = self._develop(transform)
            # the entry edge's endpoints lie on the parent copy's boundary: a
            # segment ending there stops on the entry edge, one crossing short
            entry = node.entry_edge
            on_entry = () if entry is None else (entry, (entry + 1) % self.n)
            finalized = {}  # target vertex -> re-traced path (None: rejected)
            for st in live:
                for tv in st.targets:
                    if tv in on_entry:
                        continue
                    end = pts[tv]
                    d = abs(end - s)
                    if d > st.budget + _BOUND_SLACK or d + _BOUND_SLACK < lb:
                        continue
                    if d > _AT_SOURCE and not self._cone_contains(node.cone, bearing(end - s)):
                        continue
                    if tv not in finalized:
                        finalized[tv] = self._finalize(
                            source_cone, st.target_cone, sv, tv, node, end
                        )
                    path = finalized[tv]
                    if path is not None:
                        key = (sv, tv, path.edge_path)
                        if key not in st.collect:
                            st.collect[key] = path
                            st.best = min(st.best, path.length)
            for j in range(self.n):
                if j == entry:
                    continue
                a, b = pts[j], pts[(j + 1) % self.n]
                if abs(a - s) < _AT_SOURCE or abs(b - s) < _AT_SOURCE:
                    continue
                clip = self._clip_edge(s, a, b, node.cone)
                if clip is None:
                    continue
                cone2, dist = clip
                lb2 = max(lb, dist)
                if lb2 > reach:
                    continue
                t2 = transform.compose(self.transition[j])
                key = t2.key() + (
                    self.partner[j],
                    round(cone2[0] / 1e-8),
                    round(cone2[1] / 1e-8),
                )
                if key in seen:
                    continue
                seen.add(key)
                heapq.heappush(
                    heap,
                    (lb2, tie, _Node(t2, self.partner[j], cone2, node.edge_path + (j,))),
                )
                tie += 1
        for st in live:
            st.developments += pops
        return pops

    def shortest_geodesic(self, src_idx, dst_idx, budget, dev_cap=None):
        results, _ = self.search(src_idx, [Goal(dst_idx, budget, True)], dev_cap)
        return results[0]

    def enumerate_geodesics(self, src_idx, dst_idx, budget, dev_cap=None):
        results, _ = self.search(src_idx, [Goal(dst_idx, budget, False)], dev_cap)
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

    def disk(self, center_idx, radius=1.0, tol=1e-9):
        """Is the open geodesic disk around a cone point free of other cone points?

        A cone point at distance below radius - tol is a witness against
        emptiness.  A pair without a witness is settled when its search
        covered the whole radius: it finished within its budget, or it ran
        out of developments at a frontier beyond the radius.  Any unsettled
        pair without a witness makes the check inconclusive rather than a
        verdict.  The table's budgets cover radii up to 1.
        """
        if not 0.0 < radius <= 1.0:
            raise GeodesicError("disk radius must lie in (0, 1]")
        cps = self.gluing.cone_points
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
    passes through the open edge segment.  Fat hexagons must stay within
    1 - sqrt(3)/2; the implied entry angle 2*asin(bound/2) stays below 8
    degrees.  `fat` says whether to raise past that bound; None checks it
    at radius 1 only, for a source that validates as fat under `cfg`.
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
            if width > 0.0:
                per_edge.append((v, j, width))
                max_width = max(max_width, width)
    if fat and max_width > OVERHANG_BOUND + 1e-9:
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
    lab = abs(ab)
    if lab < 1e-15:
        return 0.0
    n = complex(ab.imag, -ab.real) / lab  # outward normal
    fs = (s - a).real * n.real + (s - a).imag * n.imag
    if fs >= 0.0:
        return 0.0  # center not strictly inside relative to this edge
    ta = math.atan2((a - s).imag, (a - s).real)
    tb = math.atan2((b - s).imag, (b - s).real)
    span = math.fmod(tb - ta, TWO_PI)
    if span <= -math.pi:
        span += TWO_PI
    elif span > math.pi:
        span -= TWO_PI
    if span < 0:
        ta, tb = tb, ta
        span = -span
    if span < 1e-14:
        return 0.0
    tn = math.atan2(n.imag, n.real)
    off = math.fmod(tn - ta, TWO_PI)
    if off < 0:
        off += TWO_PI
    if off <= span:
        best = radius + fs  # the perpendicular ray exits through the segment
    else:
        gap = min(off - span, TWO_PI - off)
        best = radius * math.cos(gap) + fs
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
