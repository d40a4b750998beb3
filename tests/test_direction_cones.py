"""The development search's direction cones against their bearing form.

The engine keeps a direction cone as its two boundary rays and decides
clipping, containment and the overhang excursion width by the signs of
cross and dot products.  `tests/oracles.py` keeps the same operations on
bearings: `atan2` angles wrapped with `fmod`.  The two forms must give no
cone in the same cases, except for slivers, and otherwise the same
boundary directions and distances.
"""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_clip_edge, reference_cone_contains, reference_excursion_width

from zipfold import glue_halving, regular_ngon
from zipfold.geodesic import DevelopmentEngine, _excursion_width

ENGINE = DevelopmentEngine(glue_halving(regular_ngon(6), 0))
# the ray form may keep or drop a cone narrower than this where the
# bearing form does the other
NARROW = 1e-13
TOL = 1e-12


def _rays(lo, width):
    return cmath.rect(1.0, lo), cmath.rect(1.0, lo + width)


def _ray_width(cone):
    lo, hi = cone
    return math.atan2(lo.real * hi.imag - lo.imag * hi.real, lo.real * hi.real + lo.imag * hi.imag)


def _gap(x, y):
    """Angle between bearings x and y, in [0, pi]."""
    d = math.fmod(abs(x - y), 2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


def _assert_clips_agree(s, a, b, cone):
    """Compare the ray-form clip with the bearing form on cone (lo, width)
    or None."""
    got = ENGINE._clip_edge(s, a, b, None if cone is None else _rays(*cone))
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
    got = DevelopmentEngine._cone_contains(_rays(lo, width), cmath.rect(r, theta))
    assert got == reference_cone_contains(cone, theta)


def _deg(x):
    return math.radians(x)


def test_disjoint_cone_and_edge_clip_to_nothing():
    """An edge from 190 to 340 degrees misses a cone from 0 to 170: a later
    start and an earlier end alone would keep the whole cone."""
    s = 0j
    a, b = cmath.rect(1.0, _deg(190)), cmath.rect(1.0, _deg(340))
    cone = (_deg(0), _deg(170))
    assert ENGINE._clip_edge(s, a, b, _rays(*cone)) is None
    assert reference_clip_edge(s, a, b, cone) is None
    # and the other way round
    a, b = 1.0 + 0j, cmath.rect(1.0, _deg(170))
    assert ENGINE._clip_edge(s, a, b, _rays(_deg(190), _deg(150))) is None


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
    lo_ray, hi_ray = _rays(*cone)
    (lo, hi), _ = _assert_clips_agree(s, a, b, cone)
    assert lo == (lo_ray if kept in ("lo", "both") else a - s)
    assert hi == (hi_ray if kept in ("hi", "both") else b - s)


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
    assert ENGINE._clip_edge(s, a, s + 4.0 * (a - s), None) is None
    assert reference_clip_edge(s, a, s + 4.0 * (a - s), None) is None
    # one under 1e-9 radians keeps its endpoints' directions and its distance
    b = s + cmath.rect(2.0, 0.3 + 1e-9)
    for cone in (None, (0.3 - 0.1, 0.2)):
        got = _assert_clips_agree(s, a, b, cone)
        assert got[0] == (a - s, b - s)
        assert got[1] == abs(a - s)
    # under the sliver cutoff it has none
    c = s + cmath.rect(2.0, 0.3 + 1e-16)
    assert ENGINE._clip_edge(s, a, c, None) is None
    assert reference_clip_edge(s, a, c, None) is None
