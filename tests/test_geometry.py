import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_segments_properly_intersect

from zipfold.geometry import (
    ORIENT_EPS,
    best_rigid_alignment,
    first_close_pair,
    point_segment_distance,
    polygon_signed_area,
    rigid_from_segment,
    segments_properly_intersect,
)


def test_rigid_from_segment_maps_endpoints():
    src0, src1 = 0.2 + 0.1j, 1.2 + 0.1j
    dst0, dst1 = 1j, 1 + 1j  # same length, rotated/translated
    rot, trans = rigid_from_segment(src0, src1, dst0, dst1)
    assert rot * src0 + trans == pytest.approx(dst0, abs=1e-14)
    assert rot * src1 + trans == pytest.approx(dst1, abs=1e-14)


def test_point_segment_distance_cases():
    a, b = 0j, 2 + 0j
    assert point_segment_distance(1 + 1j, a, b) == pytest.approx(1.0)
    assert point_segment_distance(-1 + 0j, a, b) == pytest.approx(1.0)
    assert point_segment_distance(3 + 4j, a, b) == pytest.approx(math.hypot(1, 4))


def test_proper_intersection_predicate():
    assert segments_properly_intersect((0, 0), (2, 2), (0, 2), (2, 0))
    assert not segments_properly_intersect((0, 0), (1, 0), (0, 1), (1, 1))
    # collinear overlap counts
    assert segments_properly_intersect((0, 0), (2, 0), (1, 0), (3, 0))


_grid = st.integers(-3, 3).map(float)
_near = st.sampled_from((0.0, 1e-13, -1e-13, 5e-13, -5e-13, 1e-12, -1e-12, 1.5e-12, -2e-12, 1e-9))


@st.composite
def _segment_pairs(draw):
    """Two segments that are free, collinear, touching, overlapping or
    one eps-scale offset away from touching."""
    kind = draw(st.sampled_from(("free", "collinear", "touching", "overlapping", "near")))
    if kind == "free":
        return tuple(draw(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))) for _ in range(4))
    # points on the line through o along u, at grid steps t
    o = draw(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)))
    u = draw(st.sampled_from(((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.3, -0.7), (1e-7, 1.0))))
    t = [draw(_grid) for _ in range(4)]
    if kind == "overlapping":
        t[2] = draw(st.floats(min(t[:2]), max(t[:2])))
    on = [(o[0] + k * u[0], o[1] + k * u[1]) for k in t]
    p0, p1, q0, q1 = on
    if kind == "touching":
        q0 = draw(st.sampled_from((p0, p1, ((p0[0] + p1[0]) / 2, (p0[1] + p1[1]) / 2))))
        q1 = draw(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)))
    elif kind == "near":
        q0 = (q0[0] - draw(_near) * u[1], q0[1] + draw(_near) * u[0])
        q1 = (q1[0] + draw(_near), q1[1] + draw(_near))
    return p0, p1, q0, q1


@settings(max_examples=800, derandomize=True, deadline=None, database=None)
@given(_segment_pairs(), st.sampled_from((ORIENT_EPS, 0.0, 1e-9)))
def test_proper_intersection_matches_the_orient_reference(segments, eps):
    """The four orientations spelled out are orient's, bit for bit, so
    every verdict equals the reference's."""
    assert segments_properly_intersect(*segments, eps) == reference_segments_properly_intersect(*segments, eps)


def test_signed_area_orientation():
    ccw = [(0, 0), (1, 0), (1, 1), (0, 1)]
    assert polygon_signed_area(ccw) == pytest.approx(1.0)
    assert polygon_signed_area(list(reversed(ccw))) == pytest.approx(-1.0)


def test_best_rigid_alignment_recovers_motion():
    import random

    rng = random.Random(4)
    src = [(rng.random(), rng.random()) for _ in range(6)]
    ang = 0.83
    c, s = math.cos(ang), math.sin(ang)
    dst = [(c * x - s * y + 2.0, s * x + c * y - 0.5) for x, y in src]
    dev, angle, trans = best_rigid_alignment(src, dst)
    assert dev < 1e-12
    assert angle == pytest.approx(ang, abs=1e-12)
    assert trans == pytest.approx((2.0, -0.5), abs=1e-12)


def _hypot_first_close_pair(points, cutoff):
    """first_close_pair spelled with math.hypot of the differences."""
    for i, j in itertools.combinations(range(len(points)), 2):
        if math.hypot(points[i][0] - points[j][0], points[i][1] - points[j][1]) < cutoff:
            return i, j
    return None


def test_first_close_pair_matches_the_hypot_spelling():
    """math.dist and math.hypot take the same norm of the same differences,
    so every distance, and with it every pair found, is bit-identical,
    also for a cutoff exactly at a pair's distance and one ulp on either
    side of it."""
    rng = random.Random(11)
    found = 0
    for _ in range(300):
        n = rng.choice((6, 8, 10))
        scale = rng.choice((1e-12, 1e-9, 1e-3, 1.0, 3.0))
        points = [(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))]
        for _ in range(n - 1):
            x, y = rng.choice(points)
            points.append((x + scale * rng.uniform(-1.0, 1.0), y + scale * rng.uniform(-1.0, 1.0)))
        for (px, py), (qx, qy) in itertools.combinations(points, 2):
            assert math.dist((px, py), (qx, qy)) == math.hypot(px - qx, py - qy)
        i, j = sorted(rng.sample(range(n), 2))
        at = math.hypot(points[i][0] - points[j][0], points[i][1] - points[j][1])
        for cutoff in (at, math.nextafter(at, 0.0), math.nextafter(at, math.inf), 1e-9, 1e-12, 0.5):
            want = _hypot_first_close_pair(points, cutoff)
            assert first_close_pair(points, cutoff) == want
            found += want is not None
    assert found > 0
