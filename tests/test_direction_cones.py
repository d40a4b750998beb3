"""The development search's direction cones against their bearing form.

The engine keeps a direction cone as its two boundary rays and decides
clipping, containment and the overhang excursion width by the signs of
cross and dot products.  `tests/oracles.py` keeps the same operations on
bearings: `atan2` angles wrapped with `fmod`.  The two forms must give no
cone in the same cases, except for slivers, and otherwise the same
boundary directions and distances.  The engine's clip reads the row the
search's prefilter forms, so the tests clip through `conftest.clip_edge`,
which forms that row.  At every pop the search culls, before clipping,
every edge that does not have the source on its inner side; a cone that
entered a convex copy through one edge must clip every such edge to
nothing.
"""

import cmath
import itertools
import math
import types

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from conftest import clip_edge
from oracles import reference_clip_edge, reference_cone_contains, reference_excursion_width

from zipfold import EquilateralPolygon, glue_halving, regular_ngon
from zipfold.geodesic import _ROOT, DevelopmentEngine, _excursion_width, _sliver
from zipfold.geometry import cross2

ENGINE = DevelopmentEngine(glue_halving(regular_ngon(6), 0))
# the ray form may keep or drop a cone narrower than this where the
# bearing form does the other
NARROW = 1e-13
TOL = 1e-12


def _rays(lo, width):
    """The engine's cone of bearings lo to lo + width: its rays and their
    lengths."""
    lo_ray, hi_ray = cmath.rect(1.0, lo), cmath.rect(1.0, lo + width)
    return lo_ray, hi_ray, abs(lo_ray), abs(hi_ray)


def _ray_width(cone):
    lo, hi, _, _ = cone
    return math.atan2(lo.real * hi.imag - lo.imag * hi.real, lo.real * hi.real + lo.imag * hi.imag)


def _gap(x, y):
    """Angle between bearings x and y, in [0, pi]."""
    d = math.fmod(abs(x - y), 2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


def _assert_clips_agree(s, a, b, cone):
    """Compare the ray-form clip with the bearing form on cone (lo, width)
    or None."""
    got = clip_edge(ENGINE, s, a, b, None if cone is None else _rays(*cone))
    want = reference_clip_edge(s, a, b, cone)
    if got is None or want is None:
        if got is not None:
            assert _ray_width(got[0]) < NARROW
        if want is not None:
            assert want[0][1] < NARROW
        return got
    (lo, width), dist = want
    assert _gap(cmath.phase(got[0][0]), lo) <= TOL
    assert _gap(cmath.phase(got[0][1]), lo + width) <= TOL
    assert abs(got[1] - dist) <= TOL
    return got


_bearing = st.floats(-math.pi, math.pi)
_radius = st.floats(0.2, 3.0)


@st.composite
def _edges(draw):
    """A source s and an edge [a, b] it sees under 0.01 to pi - 1e-6
    radians, in either orientation.  Narrower edges are near radial, where
    a ray meets the edge's line at a grazing angle and any two roundings of
    that ray land far apart along it; they are pinned by hand below."""
    s = complex(draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))
    ta = draw(_bearing)
    span = draw(st.floats(0.01, math.pi - 1e-6)) * draw(st.sampled_from((1.0, -1.0)))
    a = s + cmath.rect(draw(_radius), ta)
    b = s + cmath.rect(draw(_radius), ta + span)
    return s, a, b


@st.composite
def _cones(draw, edge):
    """None, or a cone of width up to pi - 1e-9 starting within a right
    angle of the edge's first endpoint, so that most cones meet the edge."""
    if draw(st.booleans()):
        return None
    s, a, _ = edge
    lo = cmath.phase(a - s) + draw(st.floats(-0.5 * math.pi, 0.5 * math.pi))
    return lo, draw(st.floats(0.0, math.pi - 1e-9))


@settings(max_examples=500, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_clip_matches_bearing_form(data):
    edge = data.draw(_edges())
    _assert_clips_agree(*edge, data.draw(_cones(edge)))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(_edges(), st.floats(0.1, 2.0))
def test_excursion_width_matches_bearing_form(edge, radius):
    s, a, b = edge
    assert abs(_excursion_width(s, a, b, radius) - reference_excursion_width(s, a, b, radius)) <= TOL


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.tuples(_bearing, st.floats(1e-6, math.pi - 1e-6)), _bearing, _radius)
def test_containment_matches_bearing_form(cone, theta, r):
    lo, width = cone
    # outside a band around the slack's edge both forms must agree
    edge_gap = min(_gap(theta, lo), _gap(theta, lo + width))
    inside = _gap(theta, lo + 0.5 * width) < 0.5 * width
    if not inside and abs(edge_gap - 1e-9) < 1e-12:
        return
    v = cmath.rect(r, theta)
    got = DevelopmentEngine._cone_contains(_rays(lo, width), v, abs(v))
    assert got == reference_cone_contains(cone, theta)


def _nudge(x, ulps):
    """x moved by |ulps| units in the last place, up for positive ulps."""
    toward = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        x = math.nextafter(x, toward)
    return x


@st.composite
def _entered_copies(draw):
    """A developed copy, its entry edge k, a source and a cone of directions
    from the source that enter the copy through edge k.

    The copy is a convex polygon with unit edges: m edge bearings in
    increasing order within less than pi, then the same m turned by pi,
    which closes it; a zero gap between two bearings makes a straight
    vertex.  A random rotation and translation place it.  The source lies
    on the outer side of edge k.  Each ray of the cone points at a point of
    edge k, often one of its endpoints, and each of its coordinates is then
    moved by up to 4 units in the last place, as a cone made in the parent
    copy meets the entry edge developed in the child."""
    m = draw(st.integers(2, 5))
    gaps = draw(st.lists(st.sampled_from((0.0, 0.3)) | st.floats(0.05, 1.0), min_size=m - 1, max_size=m - 1))
    if sum(gaps) == 0.0:
        return None  # a doubly covered segment, not a copy
    scale = (math.pi - 0.1) / max(sum(gaps), math.pi - 0.1)
    bearings = list(itertools.accumulate([draw(_bearing)] + [g * scale for g in gaps]))
    edges = [cmath.rect(1.0, t + turn) for turn in (0.0, math.pi) for t in bearings]
    rot = cmath.rect(1.0, draw(_bearing))
    trans = complex(draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0)))
    pts = [rot * p + trans for p in itertools.accumulate([0j] + edges[:-1])]
    k = draw(st.integers(0, len(pts) - 1))
    a, b = pts[k], pts[(k + 1) % len(pts)]
    # -1j turns the edge's direction to its outer normal
    s = a + draw(st.floats(-1.0, 2.0)) * (b - a) - 1j * draw(st.floats(1e-3, 3.0)) * (b - a)
    # seen from outside, the entry edge runs clockwise: b's ray is the low one
    t_lo = draw(st.just(0.0) | st.floats(0.0, 1.0))
    t_hi = draw(st.just(1.0) | st.floats(t_lo, 1.0))
    # a ray through the point b + t * (a - b), as a positive combination of
    # the endpoints' offsets: it is exactly b - s at t = 0 and a - s at
    # t = 1 and errs by its own units in the last place in between, where
    # the point's own rounding errs by those of the copy's coordinates
    wa, wb = a - s, b - s
    lo, hi = (
        complex(*(_nudge(x, draw(st.integers(-4, 4))) for x in (w.real, w.imag)))
        for w in ((1.0 - t) * wb + t * wa for t in (t_lo, t_hi))
    )
    return pts, k, s, (lo, hi, abs(lo), abs(hi))


def _entered_through(k, n):
    """Depths behind entry edge k of an n-edge copy, as the prefilter reads
    them, that cut no edge but k at any reach."""
    return [math.inf if j == k else 0.0 for j in range(n)]


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(_entered_copies())
def test_cull_drops_only_empty_clips(entered):
    """Below the root the prefilter culls every edge whose cross2 of its
    endpoints seen from the source is at most 0: a ray that entered the
    convex copy through its entry edge cannot leave through an edge with
    the source on its outer side or its line, so that clip is empty."""
    assume(entered is not None)
    pts, k, s, cone = entered
    lo, hi, len_lo, len_hi = cone
    assume(not _sliver(cross2(lo, hi), len_lo, len_hi))  # a cone the search carries
    n = len(pts)
    offs = [p - s for p in pts]
    culled = {j for j in range(n) if cross2(offs[j], offs[(j + 1) % n]) <= 0.0}
    assert k in culled
    # the prefilter develops the copy's offsets itself, here from the copy's
    # own vertices, vertex 0 repeated, and of the engine reads only those
    # and its edge lengths
    copy = types.SimpleNamespace(
        loop=pts + pts[:1], edge_lengths=[abs(pts[(j + 1) % n] - pts[j]) for j in range(n)]
    )
    # at an infinite reach the depth cut keeps every edge but the entry
    # edge, and the cull is the prefilter's only other skip
    kept = DevelopmentEngine._edges_in_reach(copy, *_ROOT, s, _entered_through(k, n), 0.0, math.inf)
    assert [j for j, *_ in kept] == sorted(set(range(n)) - culled)
    for j, wa, wb, da, db, x in kept:
        a, b = offs[j], offs[(j + 1) % n]
        assert (wa, wb, da, db, x) == (a, b, abs(a), abs(b), cross2(a, b))
    for j in culled - {k}:
        assert clip_edge(ENGINE, s, pts[j], pts[(j + 1) % n], cone) is None


def test_a_cone_past_the_entry_edge_clips_culled_edges_outside_it():
    """A cone made in the parent copy can overhang the entry edge as the
    child develops it, by rounding.  Here the copy's vertex a lies at 1e-9,
    the source 1e-3 from it, and the cone's high ray is b + (a - b) - s,
    which misses a - s by 2.8e-17 and so turns 1.5e-14 rad past the entry
    edge, wider than a sliver.  The back-facing edge into a may clip to
    that overhang; its directions enter the copy through the culled edge
    and never through the entry edge, so any clip of a culled edge must lie
    at or past a - s, outside the entry edge's directions."""
    edges = [cmath.rect(1.0, t + turn) for turn in (0.0, math.pi) for t in (1.0, 2.0, 3.0)]
    pts = [p + 1e-9 for p in itertools.accumulate([0j] + edges[:-1])]
    n = len(pts)
    k = 0
    a, b = pts[k], pts[k + 1]
    s = a - 1j * 1e-3 * (b - a)
    wa, wb = a - s, b - s
    lo, hi = wb, b + 1.0 * (a - b) - s
    cone = (lo, hi, abs(lo), abs(hi))
    assert not _sliver(cross2(lo, hi), abs(lo), abs(hi))
    # the high ray passes a - s counterclockwise by more than a sliver
    assert not _sliver(cross2(wa, hi), abs(wa), abs(hi)) and cross2(wa, hi) > 0.0
    copy = types.SimpleNamespace(
        loop=pts + pts[:1], edge_lengths=[abs(pts[(j + 1) % n] - p) for j, p in enumerate(pts)]
    )
    kept = DevelopmentEngine._edges_in_reach(copy, *_ROOT, s, _entered_through(k, n), 0.0, math.inf)
    culled = set(range(n)) - {j for j, *_ in kept}
    assert culled == {k, n - 1}  # the entry edge and the edge into a
    for j in culled - {k}:
        clip = clip_edge(ENGINE, s, pts[j], pts[(j + 1) % n], cone)
        if clip is not None:
            (c_lo, c_hi, _, _), _ = clip
            assert cross2(wa, c_lo) >= 0.0 and cross2(c_lo, c_hi) > 0.0


# the 2 x 1 rectangle with its long sides' midpoints: edge 4 runs parallel
# to edge 0, 1 behind its line
RECTANGLE = DevelopmentEngine(
    glue_halving(EquilateralPolygon(((0, 0), (1, 0), (2, 0), (2, 1), (1, 1), (0, 1))), 0)
)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(_bearing, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(0.05, 0.95), st.floats(1e-3, 2.0))
def test_the_depth_cut_keeps_an_edge_whose_clip_lies_at_the_reach(turn, x, y, u, h):
    """A copy of the rectangle entered through edge 0 from a source h short
    of it: the ray perpendicular to edge 0 meets it at lb = h and edge 4 at
    h + 1, lb plus edge 4's depth.  At a reach of exactly edge 4's clip
    distance, that clip pushes, so the prefilter must keep edge 4 whichever
    way the placement rounds lb, the reach and the depth."""
    rot, trans = cmath.rect(1.0, turn), complex(x, y)
    pts = RECTANGLE._develop(rot, trans)
    a, b = pts[0], pts[1]
    s = a + u * (b - a) - 1j * h * (b - a)
    # seen from outside, the entry edge runs clockwise: b's ray is the low one
    cone = (b - s, a - s, abs(b - s), abs(a - s))
    _, lb = clip_edge(RECTANGLE, s, a, b, None)
    _, reach = clip_edge(RECTANGLE, s, pts[4], pts[5], cone)
    assert RECTANGLE.fans.behind[0][4] == 1.0
    kept = RECTANGLE._edges_in_reach(rot, trans, s, RECTANGLE.fans.behind[0], lb, reach)
    assert 4 in [j for j, *_ in kept]


def _deg(x):
    return math.radians(x)


def test_disjoint_cone_and_edge_clip_to_nothing():
    """An edge from 190 to 340 degrees misses a cone from 0 to 170: a later
    start and an earlier end alone would keep the whole cone."""
    s = 0j
    a, b = cmath.rect(1.0, _deg(190)), cmath.rect(1.0, _deg(340))
    cone = (_deg(0), _deg(170))
    assert clip_edge(ENGINE, s, a, b, _rays(*cone)) is None
    assert reference_clip_edge(s, a, b, cone) is None
    # and the other way round
    a, b = 1.0 + 0j, cmath.rect(1.0, _deg(170))
    assert clip_edge(ENGINE, s, a, b, _rays(_deg(190), _deg(150))) is None


@pytest.mark.parametrize(
    "edge, kept",
    [((-30, 30), "lo"), ((60, 120), "hi"), ((-30, 120), "both")],
    ids=["straddles_lo", "straddles_hi", "straddles_both"],
)
def test_edge_straddling_a_boundary_ray(edge, kept):
    """The clipped cone keeps the cone's own ray where the edge straddles
    it and the edge's endpoint direction where it does not."""
    s = 0.25 + 0.1j
    a, b = (s + cmath.rect(1.0 + k / 100.0, _deg(t)) for k, t in enumerate(edge))
    cone = (_deg(0), _deg(90))
    lo_ray, hi_ray, _, _ = _rays(*cone)
    (lo, hi, len_lo, len_hi), _ = _assert_clips_agree(s, a, b, cone)
    assert lo == (lo_ray if kept in ("lo", "both") else a - s)
    assert hi == (hi_ray if kept in ("hi", "both") else b - s)
    # the clipped cone carries its rays' lengths
    assert (len_lo, len_hi) == (abs(lo), abs(hi))


@pytest.mark.parametrize("cone", [None, (_deg(10), _deg(90)), (_deg(-30), _deg(60))])
def test_edge_subtending_nearly_pi(cone):
    """The source 5e-10 short of the edge's line: the edge spans pi - 1e-9."""
    s = 0j
    a, b = 1.0 + 0j, cmath.rect(1.0, math.pi - 1e-9)
    assert _assert_clips_agree(s, a, b, cone) is not None


def test_near_radial_edges():
    s = 0.1 - 0.2j
    a = s + cmath.rect(0.5, 0.3)
    # an exactly radial edge has no cone in either form
    assert clip_edge(ENGINE, s, a, s + 4.0 * (a - s), None) is None
    assert reference_clip_edge(s, a, s + 4.0 * (a - s), None) is None
    # one under 1e-9 radians keeps its endpoints' directions and its distance
    b = s + cmath.rect(2.0, 0.3 + 1e-9)
    for cone in (None, (0.3 - 0.1, 0.2)):
        got = _assert_clips_agree(s, a, b, cone)
        assert got[0] == (a - s, b - s, abs(a - s), abs(b - s))
        assert got[1] == abs(a - s)
    # under the sliver cutoff it has none
    c = s + cmath.rect(2.0, 0.3 + 1e-16)
    assert clip_edge(ENGINE, s, a, c, None) is None
    assert reference_clip_edge(s, a, c, None) is None
