"""The halvings of one polygon share its root fans and lose nothing by it.

Every search root is a vertex of the untransformed polygon, so the root
fan (the chord to each vertex, the line distance and clip of each edge)
and the re-trace of each chord come out the same in every halving.  A
distance table built through one shared `RootFans` must equal, `repr` for
`repr`, the table an engine with its own fans builds, whichever halving
fills the fans first.  The fans re-trace a chord once, from its lower
vertex, for both directions, so the re-trace must give the same answer
from either end.  The search assumes a convex polygon with distinct
consecutive vertices, so fans refuse one that is not.
"""

import collections
import itertools
import math
import os

import pytest

from zipfold import (
    EquilateralPolygon,
    GeodesicError,
    Tolerances,
    glue_halving,
    load_polygon,
    regular_ngon,
    sample_fat_ngon,
    save_polygon,
    solve_closure,
)
from zipfold.cli import main
from zipfold.geodesic import (
    DevelopmentEngine,
    RootFans,
    _ROOT,
    _excursion_width,
    overhang_audit,
)
from zipfold.pipeline import verify_polygon

DATA = os.path.join(os.path.dirname(__file__), "data")
CAPS = (1, 3, 100000)
# the degenerate_hexagon fixture: a 1x2 rectangle whose vertices 1 and 4
# are straight, so the chords 0-2 and 3-5 run through a cone point
DEGENERATE = EquilateralPolygon(((0, 0), (1, 0), (2, 0), (2, 1), (1, 1), (0, 1)))


def _notched(poly, v):
    """The polygon with vertex v reflected across the chord of its two
    neighbours: still equilateral, and no longer convex."""
    pts = poly.as_complex()
    a, b = pts[v - 1], pts[(v + 1) % poly.n]
    d = (b - a) / abs(b - a)
    pts[v] = a + ((pts[v] - a) / d).conjugate() * d
    return EquilateralPolygon(tuple((p.real, p.imag) for p in pts))


def _polygons():
    polys = [(f"fat6_{seed}", sample_fat_ngon(6, seed)) for seed in range(10)]
    polys += [(f"fat8_{seed}", sample_fat_ngon(8, seed)) for seed in range(3)]
    polys.append(("thin6_0", load_polygon(os.path.join(DATA, "thin_hexagon_seed0.json"))))
    polys.append(("degenerate6", DEGENERATE))
    return [pytest.param(poly, id=name) for name, poly in polys]


def _record(table):
    return (
        repr(sorted(table.entries.items())),
        repr(sorted(table.enumerations.items())),
        table.developments,
    )


def _tables(poly, folds, caps, fans=None):
    gluings = {fold: glue_halving(poly, fold) for fold in folds}
    return {
        (fold, cap): _record(
            DevelopmentEngine(gluings[fold], dev_cap=cap, fans=fans).distance_table()
        )
        for cap in caps
        for fold in folds
    }


@pytest.mark.parametrize("poly", _polygons())
def test_shared_fans_give_the_tables_of_fresh_engines(poly):
    folds = list(range(poly.n // 2))
    fresh = _tables(poly, folds, CAPS)
    fans = RootFans(poly)
    assert _tables(poly, folds, CAPS, fans) == fresh
    backwards = RootFans(poly)
    assert _tables(poly, folds[::-1], CAPS[::-1], backwards) == fresh
    # every vertex is some cone point's representative, so every fan is built
    assert sorted(fans.by_vertex) == sorted(backwards.by_vertex) == list(range(poly.n))
    assert fans.chords == backwards.chords


def test_a_rejected_chord_is_cached_and_stays_rejected():
    """Every chord re-traced through fans shared by all three halvings,
    from every vertex to every other, is what an engine with its own fans
    gives; the chords through a straight vertex are cached as rejected."""
    fans = RootFans(DEGENERATE)
    for fold in range(3):
        shared = DevelopmentEngine(glue_halving(DEGENERATE, fold), fans=fans)
        for sv, tv in itertools.permutations(range(6), 2):
            fresh = DevelopmentEngine(glue_halving(DEGENERATE, fold))
            assert shared._root_chord(sv, tv) == fresh._root_chord(sv, tv)
    rejected = sorted(key for key, traced in fans.chords.items() if traced is None)
    assert rejected == [(0, 2), (3, 5)]
    assert fans.chords[(1, 2)] == 1.0


def _nearly_straight_hexagon():
    """The degenerate hexagon with vertices 1 and 4 bent 5e-10 off straight."""
    res = solve_closure([0.0, 5e-10, math.pi / 2, math.pi])
    assert res.ok
    return res.polygons[0]


def test_a_chord_re_traces_alike_from_either_end(fat_pool_small):
    """The fans keep one re-trace per vertex pair, made from the lower
    vertex: from the other end it must be rejected alike, or give the same
    float."""
    polys = [DEGENERATE, _nearly_straight_hexagon(), *map(regular_ngon, (6, 8, 10))]
    rejected = collections.Counter()
    for poly in polys + fat_pool_small:
        engine = DevelopmentEngine(glue_halving(poly, 0))
        ends = engine.fans.root_copy
        for sv, tv in itertools.permutations(range(poly.n), 2):
            there = engine._finalize(sv, tv, *_ROOT, (), ends[tv])
            back = engine._finalize(tv, sv, *_ROOT, (), ends[sv])
            assert there == back, (poly, sv, tv)
            rejected[there is None] += 1
    # the degenerate hexagon's chords through a straight vertex, both ways
    assert rejected[True] >= 4 and rejected[False] > 0


def test_fans_refuse_a_polygon_that_is_not_convex():
    """The notched hexagon turns clockwise at vertex 1: a chord from vertex
    0 to vertex 2 crosses no edge there, yet runs outside the polygon."""
    poly = _notched(sample_fat_ngon(6, 0), 1)
    with pytest.raises(GeodesicError, match="not convex at vertex 1"):
        RootFans(poly)
    for fold in range(3):
        with pytest.raises(GeodesicError, match="not convex at vertex 1"):
            DevelopmentEngine(glue_halving(poly, fold))


def test_fans_refuse_a_polygon_with_a_degenerate_edge():
    """Vertices 1 and 2, and 4 and 5, coincide: the engine would lay a copy
    across an edge of length zero."""
    poly = EquilateralPolygon(((0, 0), (1, 0), (1, 0), (1, 1), (0, 1), (0, 1)))
    with pytest.raises(GeodesicError, match="edge 1 is degenerate"):
        RootFans(poly)
    with pytest.raises(GeodesicError, match="edge 1 is degenerate"):
        DevelopmentEngine(glue_halving(poly, 0))


@pytest.mark.parametrize("command", (["verify", "--force"], ["fold"]))
def test_commands_refuse_a_polygon_that_is_not_convex(tmp_path, capsys, command):
    path = str(tmp_path / "notched.json")
    save_polygon(_notched(sample_fat_ngon(6, 0), 1), path)
    assert main([command[0], "--input", path, *command[1:], "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: polygon is not convex at vertex 1; the geodesic search needs a convex one"
    ]


def test_verify_shares_one_fans_per_polygon(monkeypatch):
    built = []
    init = RootFans.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(RootFans, "__init__", spy)
    verify_polygon(sample_fat_ngon(6, 0))
    assert len(built) == 1
    assert sorted(built[0].by_vertex) == list(range(6))


def test_fans_of_another_polygon_are_refused():
    fans = RootFans(sample_fat_ngon(6, 0))
    with pytest.raises(GeodesicError, match="another polygon"):
        DevelopmentEngine(glue_halving(sample_fat_ngon(6, 1), 0), fans=fans)


def test_fans_of_another_clearance_are_refused():
    poly = sample_fat_ngon(6, 0)
    loose = Tolerances(tol_clearance=1e-7)
    fans = RootFans(poly, loose)
    with pytest.raises(GeodesicError, match="other tolerances"):
        DevelopmentEngine(glue_halving(poly, 0), fans=fans)
    assert DevelopmentEngine(glue_halving(poly, 0), tol=loose, fans=fans).fans is fans


def test_fans_refuse_a_clockwise_turn_at_the_runs_tol_convex():
    """Vertex 1 of the degenerate hexagon, lifted 1e-7 into the polygon,
    turns clockwise by 2e-7: past the default tol_convex, within 1e-6."""
    pts = list(DEGENERATE.vertices)
    pts[1] = (1.0, 1e-7)
    poly = EquilateralPolygon(tuple(pts))
    with pytest.raises(GeodesicError, match="not convex at vertex 1"):
        RootFans(poly)
    loose = Tolerances(tol_convex=1e-6)
    assert RootFans(poly, loose).tol is loose
    DevelopmentEngine(glue_halving(poly, 0), tol=loose)


def test_overhang_leaves_out_an_edge_whose_width_is_rounding():
    """Edge 4 of fat hexagon seed 0 runs from vertex 4 to vertex 5, one unit
    edge from vertex 0: its nearest endpoint lies exactly at radius 1, and
    its width is 0 but for the last bit."""
    g = glue_halving(sample_fat_ngon(6, 0), 0)
    pts = g.polygon.as_complex()
    assert g.cone_points[0].vertices == (0,)
    assert 0.0 < _excursion_width(pts[0], pts[4], pts[5], 1.0) <= 1e-15
    rep = overhang_audit(g, 0)
    assert [(v, j) for v, j, _ in rep.per_edge] == [(0, 1)]
    assert rep.max_width == rep.per_edge[0][2] > 0.02
