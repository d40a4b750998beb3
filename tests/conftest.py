import math

import pytest

from zipfold import EquilateralPolygon, regular_ngon, sample_fat_hexagon
from zipfold.geometry import cross2


@pytest.fixture(scope="session")
def regular_hexagon():
    return regular_ngon(6)


@pytest.fixture(scope="session")
def degenerate_hexagon():
    """1x2 rectangle with long-side midpoints: two interior angles equal pi.

    Folding at the two straight vertices produces the doubly covered unit
    square, the standard degenerate control.
    """
    return EquilateralPolygon(((0, 0), (1, 0), (2, 0), (2, 1), (1, 1), (0, 1)))


def clip_edge(engine, s, a, b, cone):
    """The engine's clip of edge [a, b] against the direction cone from s,
    through `_clip_row` on the row the search's prefilter forms: the edge's
    offsets from s, their lengths and their cross2.  The clip takes an edge
    that s sees counterclockwise, so one seen clockwise is swapped first."""
    wa, wb = a - s, b - s
    x = cross2(wa, wb)
    if x < 0.0:
        a, b, wa, wb, x = b, a, wb, wa, -x
    return engine._clip_row(s, a, b, wa, wb, abs(wa), abs(wb), x, cone)


def symmetric_hexagon(t1, t2=None):
    """Centrally symmetric unit hexagon from turn angles (t1, t2, pi-t1-t2).

    Opposite edges are parallel so closure is automatic; angle k equals
    pi - turn k.  Handy for pinning specific interior angles in tests.
    """
    if t2 is None:
        t2 = 0.5 * (math.pi - t1)
    t3 = math.pi - t1 - t2
    assert min(t1, t2, t3) > 0
    dirs = [0.0, t1, t1 + t2, math.pi, math.pi + t1, math.pi + t1 + t2]
    pts = [(0.0, 0.0)]
    x = y = 0.0
    for th in dirs[:-1]:
        x += math.cos(th)
        y += math.sin(th)
        pts.append((x, y))
    return EquilateralPolygon(tuple(pts))


@pytest.fixture(scope="session")
def thin_hexagon():
    """Strictly convex hexagon with one angle below pi/3 (not fat)."""
    return symmetric_hexagon(2.0 * math.pi / 3.0 + 0.35)


@pytest.fixture(scope="session")
def fat_pool_small():
    """Fifty fat independent hexagons for medium-cost property tests."""
    return [sample_fat_hexagon(seed) for seed in range(50)]
