import importlib
import itertools
import json
import math
import sys

import pytest

from zipfold import GeodesicError, glue_halving, overhang_audit, tetra_metric
from zipfold.geodesic import (
    FOUND,
    NOT_FOUND,
    OVERHANG_BOUND,
    DevelopmentEngine,
    Goal,
    _ROOT,
)
from oracles import metric_by_brute_force

PI = math.pi
SQRT3 = math.sqrt(3.0)


# -- frozen oracle values ------------------------------------------------------
# Values below were computed by the exhaustive developer in oracles.py and
# by hand on the flat models (doubly covered trapezoid / square) before the
# engine existed; the oracle re-derives them in-process as a guard.

REGULAR_T03 = {"ab": 2.0, "ac": 1.0, "ad": SQRT3, "bc": SQRT3, "bd": 1.0, "cd": 1.0}
SQUARE_PILLOW = {"ab": 1.0, "ac": 1.0, "ad": math.sqrt(2), "bc": math.sqrt(2), "bd": 1.0, "cd": 1.0}


def test_regular_hexagon_metric_matches_oracle(regular_hexagon):
    g = glue_halving(regular_hexagon, 0)
    engine = tetra_metric(g).as_dict()
    oracle = metric_by_brute_force(g)
    for key, expected in REGULAR_T03.items():
        assert engine[key] == pytest.approx(expected, abs=1e-12)
        assert oracle[key] == pytest.approx(expected, abs=1e-12)


def test_regular_hexagon_fold_vertex_distance_in_range(regular_hexagon):
    g = glue_halving(regular_hexagon, 0)
    res = DevelopmentEngine(g).shortest_geodesic(0, 1, budget=2 + 1e-6)
    assert res.found
    assert 1.0 < res.path.length <= 2.0
    assert res.path.length == pytest.approx(2.0, abs=1e-12)


def test_regular_hexagon_metric_symmetric_under_fold(regular_hexagon):
    m = tetra_metric(glue_halving(regular_hexagon, 0))
    assert m.d_ad == pytest.approx(m.d_bc, abs=1e-12)


def test_zipper_edge_is_unit_geodesic(fat_pool_small):
    for poly in fat_pool_small[:20]:
        g = glue_halving(poly, 0)
        res = DevelopmentEngine(g).shortest_geodesic(0, 2, budget=1.5)
        assert res.found
        assert res.path.length == pytest.approx(1.0, abs=1e-12)
        assert res.path.edge_path == ()  # the boundary edge itself


def test_zipper_enumeration_below_one_empty(fat_pool_small):
    for poly in fat_pool_small[:20]:
        g = glue_halving(poly, 1)
        for i, j in g.zipper_pairs():
            enum = DevelopmentEngine(g).enumerate_geodesics(i, j, budget=1 - 1e-9)
            assert enum.complete
            assert enum.paths == ()


def test_square_pillow_metric(degenerate_hexagon):
    g = glue_halving(degenerate_hexagon, 1)
    engine = tetra_metric(g).as_dict()
    oracle = metric_by_brute_force(g)
    for key, expected in SQUARE_PILLOW.items():
        assert engine[key] == pytest.approx(expected, abs=1e-12)
        assert oracle[key] == pytest.approx(expected, abs=1e-12)


def test_square_pillow_adjacent_corners_two_unit_geodesics(degenerate_hexagon):
    g = glue_halving(degenerate_hexagon, 1)
    enum = DevelopmentEngine(g).enumerate_geodesics(0, 2, budget=1.01)
    assert enum.complete
    assert [round(p.length, 12) for p in enum.paths] == [1.0, 1.0]
    # the two are the front/back traversals of one edge of the surface
    ends = {(p.source_vertex, p.target_vertex) for p in enum.paths}
    assert ends == {(1, 0), (1, 2)}


def test_square_pillow_small_disks_empty(degenerate_hexagon):
    g = glue_halving(degenerate_hexagon, 1)
    table = DevelopmentEngine(g).distance_table()
    for k in range(4):
        assert table.disk(k, radius=0.5).status == "empty"
        # the table's budgets cover radii in (0, 1] only
        for radius in (0.0, 1.5, math.nan):
            with pytest.raises(GeodesicError, match=r"disk radius must lie in \(0, 1\]"):
                table.disk(k, radius)


def test_budget_below_distance_gives_empty_enumeration(regular_hexagon):
    g = glue_halving(regular_hexagon, 0)
    enum = DevelopmentEngine(g).enumerate_geodesics(0, 2, budget=0.9)
    assert enum.complete and enum.paths == ()
    res = DevelopmentEngine(g).shortest_geodesic(0, 2, budget=0.9)
    assert res.status == NOT_FOUND and res.path is None


def test_engine_matches_oracle_on_sampled_folds(fat_pool_small):
    for poly in fat_pool_small[:6]:
        for i in range(3):
            g = glue_halving(poly, i)
            engine = tetra_metric(g).as_dict()
            oracle = metric_by_brute_force(g)
            for key in engine:
                assert engine[key] == pytest.approx(oracle[key], abs=1e-10)


def test_distance_symmetric_between_endpoints(fat_pool_small):
    for poly in fat_pool_small[:6]:
        g = glue_halving(poly, 2)
        eng = DevelopmentEngine(g)
        for i, j in itertools.combinations(range(4), 2):
            budget = 3.0
            d_ij = eng.shortest_geodesic(i, j, budget).path.length
            d_ji = eng.shortest_geodesic(j, i, budget).path.length
            assert abs(d_ij - d_ji) <= 1e-10


def test_chord_upper_bound(fat_pool_small):
    for poly in fat_pool_small[:10]:
        pts = poly.as_complex()
        g = glue_halving(poly, 0)
        eng = DevelopmentEngine(g)
        for i, j in itertools.combinations(range(4), 2):
            chord = min(
                abs(pts[u] - pts[w])
                for u in g.cone_points[i].vertices
                for w in g.cone_points[j].vertices
            )
            d = eng.shortest_geodesic(i, j, chord + 1e-6).path.length
            assert d <= chord + 1e-12


def test_triangle_inequality_on_metric(fat_pool_small):
    for poly in fat_pool_small[:10]:
        for i in range(3):
            m = tetra_metric(glue_halving(poly, i))
            m.check_triangle_inequalities(1e-9)  # raises on violation


def test_retrace_follows_the_crossing_sequence(fat_pool_small):
    # the re-trace rebuilds the final copy's transform along the crossing
    # sequence, and refuses a sequence the segment does not cross
    eng = DevelopmentEngine(glue_halving(fat_pool_small[0], 1))
    checked = 0
    for i, j in itertools.combinations(range(4), 2):
        for path in eng.enumerate_geodesics(i, j, 3.0).paths:
            if not path.edge_path:
                continue
            rot, trans = _ROOT
            for edge in path.edge_path:
                t_rot, t_trans = eng.transition[edge]
                rot, trans = rot * t_rot, rot * t_trans + trans
            s = eng.points[path.source_vertex]
            end = rot * eng.points[path.target_vertex] + trans
            (final_rot, final_trans), copies = eng._trace(s, end, path.edge_path)
            assert abs(final_rot - rot) <= 1e-10 and abs(final_trans - trans) <= 1e-10
            assert len(copies) == len(path.edge_path) + 1
            wrong = ((path.edge_path[0] + 1) % eng.n,) + path.edge_path[1:]
            assert eng._trace(s, end, wrong) is None
            checked += 1
    assert checked >= 6


def test_retrace_rejects_a_segment_short_of_its_target(fat_pool_small):
    eng = DevelopmentEngine(glue_halving(fat_pool_small[0], 0))
    p0, p3 = eng.points[0], eng.points[3]
    assert eng._finalize(0, 3, *_ROOT, (), p3) == abs(p3 - p0)
    assert eng._finalize(0, 3, *_ROOT, (), (p0 + p3) / 2) is None


def test_retrace_rejects_a_transform_off_its_crossing_sequence(fat_pool_small):
    """A one-crossing candidate re-traces to its length with the (rot,
    trans) its crossing composes, and is rejected with trans off by 1e-6,
    though it ends on the same point."""
    eng = DevelopmentEngine(glue_halving(fat_pool_small[0], 1))
    checked = 0
    for i, j in itertools.permutations(range(4), 2):
        for path in eng.enumerate_geodesics(i, j, 2.5).paths:
            if len(path.edge_path) != 1:
                continue
            rot, trans = _ROOT
            t_rot, t_trans = eng.transition[path.edge_path[0]]
            rot, trans = rot * t_rot, rot * t_trans + trans  # as the search composes it
            sv, tv = path.source_vertex, path.target_vertex
            end = eng._develop(rot, trans)[tv]
            assert eng._finalize(sv, tv, rot, trans, path.edge_path, end) == path.length
            assert eng._finalize(sv, tv, rot, trans + 1e-6, path.edge_path, end) is None
            checked += 1
    assert checked >= 6


def test_retrace_rejects_a_chord_through_a_cone_point(degenerate_hexagon):
    # vertex 1 is straight, so the chord from vertex 0 to vertex 2 runs
    # through it without crossing an edge
    eng = DevelopmentEngine(glue_halving(degenerate_hexagon, 0))
    assert eng._root_chord(0, 2) is None
    assert eng._root_chord(0, 3) == pytest.approx(math.sqrt(5.0), abs=1e-12)


def test_clearance_reads_every_copy_the_segment_visits(fat_pool_small):
    """A segment through a vertex image of a crossing path's second copy
    is not clear, though it is clear of every vertex of the first copy."""
    eng = DevelopmentEngine(glue_halving(fat_pool_small[0], 1))
    clearance = eng.tol.tol_clearance
    checked = 0
    for i, j in itertools.permutations(range(4), 2):
        for path in eng.enumerate_geodesics(i, j, 2.5).paths:
            if len(path.edge_path) != 1:
                continue
            s = eng.points[path.source_vertex]
            rot, trans = eng.transition[path.edge_path[0]]
            end = rot * eng.points[path.target_vertex] + trans
            _, copies = eng._trace(s, end, path.edge_path)
            assert eng._clear_of_cone_images(s, end, copies)
            for w in copies[1]:
                if min(abs(w - p) for p in copies[0]) <= 0.1:
                    continue  # on the crossed edge, or near the first copy
                # the segment from s through w, which lies at its midpoint
                through = s + 2.0 * (w - s)
                if not eng._clear_of_cone_images(s, through, copies[:1]):
                    continue
                assert not eng._clear_of_cone_images(s, through, copies)
                # moved aside, the segment passes w at twice the clearance
                aside = 4.0 * clearance * 1j * (w - s) / abs(w - s)
                assert eng._clear_of_cone_images(s, through + aside, copies)
                checked += 1
    assert checked >= 6


def test_no_immediate_recross_in_any_path(fat_pool_small):
    poly = fat_pool_small[1]
    g = glue_halving(poly, 1)
    eng = DevelopmentEngine(g)
    for i, j in itertools.combinations(range(4), 2):
        for path in eng.enumerate_geodesics(i, j, 2.0).paths:
            for k in range(1, len(path.edge_path)):
                assert path.edge_path[k] != eng.partner[path.edge_path[k - 1]]


def test_disks_empty_on_fat_sources(fat_pool_small):
    for poly in fat_pool_small[:15]:
        for i in range(3):
            g = glue_halving(poly, i)
            eng = DevelopmentEngine(g)
            for k in range(4):
                assert eng.distance_table().disk(k).status == "empty"


def test_thin_hexagon_disk_not_empty(thin_hexagon):
    # one angle below pi/3 pulls a paired cone point inside the unit disk
    g = glue_halving(thin_hexagon, 0)
    report = DevelopmentEngine(g).distance_table().disk(0)
    assert report.status == "nonempty"
    vertices, dist = report.witness
    assert dist < 1.0 - 1e-9
    assert vertices == (2, 4)


def test_source_and_target_must_differ(regular_hexagon):
    g = glue_halving(regular_hexagon, 0)
    with pytest.raises(GeodesicError):
        DevelopmentEngine(g).shortest_geodesic(1, 1, budget=1.0)


@pytest.mark.parametrize(
    "other", [-1, -4, 4, 9, 0], ids=["negative", "negative_to_the_source", "one_past", "far_past", "the_source"]
)
def test_a_cone_point_index_outside_the_gluing_is_refused(regular_hexagon, monkeypatch, other):
    """The gluing has cone points 0-3.  A negative index once answered for
    the cone point it wraps to, and one past the last raised IndexError or
    KeyError; every entry point raises GeodesicError, before any pop.  Index
    0 is the source of the queries from 0, and no pair with itself."""
    engine = DevelopmentEngine(glue_halving(regular_hexagon, 0))
    table = engine.distance_table()
    pops = []
    monkeypatch.setattr(DevelopmentEngine, "_search_root", lambda *args: pops.append(args))
    calls = [
        lambda: engine.shortest_geodesic(0, other, 1.5),
        lambda: engine.enumerate_geodesics(0, other, 1.5),
        lambda: engine.search(0, [Goal(1, 1.5, True), Goal(other, 1.5, False)]),
        lambda: table.result(0, other),
        lambda: table.result(other, 0),
        lambda: table.pair_disk((min(0, other), max(0, other))),
        lambda: table.pair_disk((0, other)),
    ]
    if other != 0:
        calls += [
            lambda: engine.shortest_geodesic(other, 1, 1.5),
            lambda: engine.enumerate_geodesics(other, 1, 1.5),
            lambda: engine.search(other, []),
            lambda: table.disk(other),
        ]
    for call in calls:
        with pytest.raises(GeodesicError):
            call()
    assert pops == []


@pytest.mark.parametrize("budget", [math.nan, 0.0, -1.0])
def test_a_budget_that_is_not_positive_is_refused_before_any_pop(fat_pool_small, monkeypatch, budget):
    """`budget <= 0` is false for NaN, which a NaN budget once slipped
    through, to pop every development up to the cap."""
    engine = DevelopmentEngine(glue_halving(fat_pool_small[0], 0), dev_cap=2000)
    pops = []
    monkeypatch.setattr(DevelopmentEngine, "_search_root", lambda *args: pops.append(args))
    for query in (engine.shortest_geodesic, engine.enumerate_geodesics):
        with pytest.raises(GeodesicError, match="budget must be positive"):
            query(0, 1, budget)
    # one bad goal among good ones refuses the whole shared search
    with pytest.raises(GeodesicError, match="budget must be positive"):
        engine.search(0, [Goal(1, 1.5, True), Goal(2, budget, False)])
    assert pops == []


@pytest.mark.parametrize("cap", [0, -3, 0.5])
def test_the_engine_refuses_a_cap_below_1(regular_hexagon, cap):
    """A search always pops its root, so a cap below 1 (0.5 truncates to 0)
    is refused when the engine is built, as PipelineConfig and the CLI
    refuse it."""
    with pytest.raises(GeodesicError, match="dev cap must be >= 1"):
        DevelopmentEngine(glue_halving(regular_hexagon, 0), dev_cap=cap)


def test_cap_1_keeps_its_identity_slices(monkeypatch):
    """At cap 1 each search root pops only itself; every table family's
    cap-1 slice matches its stored digest."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the harness adds src/ and perfbench/
    identity = importlib.import_module("identity")
    monkeypatch.setattr(identity, "TABLE_CAPS", (1,))
    with open(identity.DIGESTS) as fh:
        stored = json.load(fh)["digests"]
    for family in identity.TABLE_POLYGONS:
        name = f"tables/{family}/1"
        assert identity.slice_digests("tables", family) == {name: stored[name]}


def test_an_infinite_budget_is_allowed(fat_pool_small):
    engine = DevelopmentEngine(glue_halving(fat_pool_small[0], 0), dev_cap=50)
    res = engine.shortest_geodesic(0, 1, math.inf)
    assert res.status == FOUND and res.frontier == math.inf
    assert res.path.length == engine.shortest_geodesic(0, 1, 2.5).path.length
    # an enumeration with no budget runs until the cap
    enum = engine.enumerate_geodesics(0, 1, math.inf)
    assert not enum.complete and enum.developments == 50 and enum.paths


def test_tetra_metric_rejects_larger_polygons():
    from zipfold import sample_fat_ngon

    g = glue_halving(sample_fat_ngon(8, 0), 0)
    with pytest.raises(GeodesicError, match="4 cone points"):
        tetra_metric(g)


def test_octagon_zipper_edges_unit():
    from zipfold import sample_fat_ngon

    poly = sample_fat_ngon(8, 3)
    g = glue_halving(poly, 2)
    eng = DevelopmentEngine(g)
    for i, j in g.zipper_pairs():
        res = eng.shortest_geodesic(i, j, 1 + 1e-6)
        assert res.found and res.path.length == pytest.approx(1.0, abs=1e-12)


# -- overhang audit ------------------------------------------------------------

def test_overhang_constants():
    assert OVERHANG_BOUND == pytest.approx(1 - SQRT3 / 2, abs=1e-15)
    beta = 2 * math.asin(OVERHANG_BOUND / 2)
    assert beta == pytest.approx(0.134075, abs=1e-6)
    assert math.degrees(beta) == pytest.approx(7.6829, abs=1e-3)


def test_regular_hexagon_has_no_overhang(regular_hexagon):
    rep = overhang_audit(glue_halving(regular_hexagon, 0), 0)
    assert rep.max_width == 0.0
    assert rep.within_bound


def test_overhang_zero_radius(regular_hexagon):
    rep = overhang_audit(glue_halving(regular_hexagon, 0), 0, radius=0.0)
    assert rep.max_width == 0.0


def test_overhang_refuses_a_center_outside_the_gluing_and_a_negative_radius(regular_hexagon):
    """As `search` does for a cone point, and as a disk does for a radius;
    radius 0.0 stays allowed."""
    g = glue_halving(regular_hexagon, 0)
    for center in (-1, 4):
        with pytest.raises(GeodesicError, match=f"no cone point {center} in a gluing of 4"):
            overhang_audit(g, center)
    for radius in (math.nan, -1.0):
        with pytest.raises(GeodesicError, match="overhang radius must not be negative or NaN"):
            overhang_audit(g, 0, radius=radius)


def test_overhang_within_bound_on_fat_samples(fat_pool_small):
    for poly in fat_pool_small[:25]:
        for i in range(3):
            g = glue_halving(poly, i)
            for k in range(4):
                rep = overhang_audit(g, k)
                assert rep.within_bound


def test_spiral_candidates_stay_above_one(fat_pool_small):
    # enumerate everything within budget 1.5 between zipper-adjacent points:
    # the two unit boundary traversals come first, spirals strictly later
    poly = fat_pool_small[3]
    g = glue_halving(poly, 0)
    enum = DevelopmentEngine(g).enumerate_geodesics(0, 2, budget=1.5)
    assert enum.complete
    lengths = [p.length for p in enum.paths]
    assert lengths == sorted(lengths)
    assert lengths[0] == pytest.approx(1.0, abs=1e-12)
    assert all(l > 1.0 - 1e-12 for l in lengths)
    assert all(l >= 1.0 + 1e-9 or p.edge_path == () for l, p in zip(lengths, enum.paths))
