"""The geodesic search's work on fixed fat polygons, pinned.

Every candidate the search hands to `_finalize` for a full re-trace passes
it, and each halving's queries report the pinned developments.  A pin
moves when a lower bound moves by a few units in the last place at an
exact tie, with another development's bound or with a found length.  The
distance table's shared searches pop fewer developments than the queries
report together, since the queries leaving one cone point share their
pops.

The search clips only the edges its one reach prefilter keeps, at every
pop, the root's included.  Below the root the prefilter first cuts every
edge whose nearer endpoint lies deeper behind the popped copy's entry
edge than the reach minus the popped bound (`RootFans.behind`); the root
cuts none.  It develops the offsets from the source of the edges left,
computes the signed cross2 of each edge's two offsets, culls every edge
that does not have the source on its inner side, compares the cross2 with
the reach times the edge's length (a line test), and only then measures
the two offsets' lengths and reads the edge itself; the clip reads the row
the prefilter kept.  Every culled edge, clipped in full, gives no cone;
every other edge the prefilter skips, the cut ones included, gives no cone
or a distance beyond the reach, so the clip would have been dropped and no
push is lost.  The root pop reads its offsets and pushes from the vertex's
root fan, which runs the prefilter only at a reach wider than before and
holds the clip of each edge some root pop has kept so far.  The halvings
of one polygon share the fans, as the pipeline runs them, and the fans
re-trace each chord once for both its directions.

The search keeps no record of what it has pushed: the clips of a copy's
edges split its cone into disjoint pieces, so no search pushes one copy
across one entry edge twice.
"""

import collections
import heapq
import itertools
import os

import pytest
from conftest import clip_edge

from zipfold import (
    EquilateralPolygon,
    glue_halving,
    load_polygon,
    regular_ngon,
    sample_fat_ngon,
)
from zipfold.geodesic import FOUND, INCONCLUSIVE, _AT_SOURCE, _REACH_MARGIN, DevelopmentEngine, Goal, RootFans
from zipfold.geometry import cross2
from zipfold.pipeline import PipelineConfig, verify_polygon

DATA = os.path.join(os.path.dirname(__file__), "data")

# (n, seed) -> developments per halving, summed over the distance table's
# shortest queries and zipper enumerations
DEVELOPMENTS = {
    (6, 0): (35, 35, 42), (6, 1): (44, 39, 37), (6, 2): (38, 35, 34),
    (6, 3): (39, 42, 37), (6, 4): (43, 42, 45), (6, 5): (46, 40, 40),
    (6, 6): (30, 35, 32), (6, 7): (34, 38, 38), (6, 8): (31, 33, 34),
    (6, 9): (44, 40, 37), (6, 10): (46, 47, 44), (6, 11): (32, 33, 33),
    (6, 12): (35, 35, 37), (6, 13): (42, 38, 46), (6, 14): (34, 35, 35),
    (6, 15): (34, 34, 33), (6, 16): (36, 37, 39), (6, 17): (33, 38, 34),
    (6, 18): (33, 32, 32), (6, 19): (43, 38, 35),
    (8, 0): (47, 47, 47, 48), (8, 1): (44, 44, 49, 45), (8, 2): (48, 51, 48, 47),
    (8, 3): (45, 44, 45, 44), (8, 4): (45, 44, 44, 44),
}


# (n, seed) -> developments the distance table's shared searches popped per
# halving
POPPED = {
    (6, 0): (22, 20, 25), (6, 1): (25, 23, 22), (6, 2): (24, 22, 20),
    (6, 3): (22, 26, 22), (6, 4): (26, 23, 27), (6, 5): (26, 23, 25),
    (6, 6): (19, 21, 20), (6, 7): (19, 23, 24), (6, 8): (19, 20, 21),
    (6, 9): (25, 22, 23), (6, 10): (27, 27, 26), (6, 11): (20, 20, 20),
    (6, 12): (22, 19, 24), (6, 13): (26, 21, 25), (6, 14): (20, 21, 22),
    (6, 15): (20, 20, 20), (6, 16): (22, 21, 24), (6, 17): (19, 23, 21),
    (6, 18): (20, 18, 21), (6, 19): (24, 22, 21),
    (8, 0): (20, 22, 20, 21), (8, 1): (19, 20, 21, 19), (8, 2): (20, 22, 20, 21),
    (8, 3): (20, 19, 20, 21), (8, 4): (19, 20, 20, 19),
}


# (n, seed) -> clips (`_clip_row` calls) per halving while the distance
# table is built, on the POPPED seeds, with one RootFans per polygon shared
# by its halvings in order.  Below the root, a pop hands the prefilter only
# the edges its depth cut leaves within reach behind its entry edge; at
# every pop, the root's included, the prefilter keeps only edges that have
# the source on their inner side and come within the reach, by their line
# and by the edge itself.  A root pop clips the kept edges no earlier root
# pop of the polygon has clipped, so a later hexagon halving, whose longer
# non-zipper budgets reach farther, clips a few edges the first one left
# alone
CLIPPED = {
    (6, 0): (23, 13, 13), (6, 1): (23, 14, 10), (6, 2): (28, 8, 7),
    (6, 3): (19, 19, 8), (6, 4): (31, 14, 19), (6, 5): (26, 12, 14),
    (6, 6): (22, 9, 10), (6, 7): (20, 8, 15), (6, 8): (20, 6, 10),
    (6, 9): (26, 11, 11), (6, 10): (27, 18, 18), (6, 11): (21, 11, 6),
    (6, 12): (19, 8, 20), (6, 13): (30, 9, 11), (6, 14): (20, 10, 11),
    (6, 15): (20, 11, 6), (6, 16): (22, 9, 11), (6, 17): (20, 14, 6),
    (6, 18): (19, 10, 10), (6, 19): (23, 13, 10),
    (8, 0): (16, 2, 0, 0), (8, 1): (16, 0, 2, 0), (8, 2): (16, 2, 0, 0),
    (8, 3): (16, 0, 0, 2), (8, 4): (16, 0, 0, 0),
}


@pytest.fixture()
def finalized(monkeypatch):
    seen = collections.Counter()
    finalize = DevelopmentEngine._finalize

    def count_finalize(self, *args, **kwargs):
        length = finalize(self, *args, **kwargs)
        seen["finalized"] += 1
        seen["accepted"] += length is not None
        return length

    monkeypatch.setattr(DevelopmentEngine, "_finalize", count_finalize)
    return seen


def _tables(n, seed):
    poly = sample_fat_ngon(n, seed)
    fans = RootFans(poly)
    return [DevelopmentEngine(glue_halving(poly, i), fans=fans).distance_table() for i in range(n // 2)]


def test_no_rejected_candidates_and_developments_unchanged(finalized):
    got = {}
    popped = {}
    for n, seed in DEVELOPMENTS:
        tables = _tables(n, seed)
        got[(n, seed)] = tuple(
            sum(res.developments for res, _ in t.entries.values())
            + sum(enum.developments for enum in t.enumerations.values())
            for t in tables
        )
        popped[(n, seed)] = tuple(t.developments for t in tables)
    assert got == DEVELOPMENTS
    assert popped == POPPED
    assert finalized["accepted"] > 0
    assert finalized["finalized"] == finalized["accepted"]


def test_no_rejected_candidates_on_a_hundred_fat_hexagons(finalized):
    for seed in range(100):
        _tables(6, seed)
    assert finalized["accepted"] > 0
    assert finalized["finalized"] == finalized["accepted"]


def test_clip_calls_pinned(monkeypatch):
    calls = [0]
    clip_row = DevelopmentEngine._clip_row

    def count_clip(self, *args):
        calls[0] += 1
        return clip_row(self, *args)

    monkeypatch.setattr(DevelopmentEngine, "_clip_row", count_clip)
    got = {}
    for n, seed in CLIPPED:
        poly = sample_fat_ngon(n, seed)
        fans = RootFans(poly)
        row = []
        for i in range(n // 2):
            calls[0] = 0
            DevelopmentEngine(glue_halving(poly, i), fans=fans).distance_table()
            row.append(calls[0])
        got[(n, seed)] = tuple(row)
    assert got == CLIPPED


@pytest.fixture()
def prefilter_spy(monkeypatch):
    """Clip in full every edge the depth cut or the reach prefilter skips,
    at every pop.

    Below the root, the prefilter first cuts every edge whose depth behind
    the popped copy's entry edge (`RootFans.behind`) is beyond reach + 2 *
    _REACH_MARGIN - lb; the root cuts none, and runs once per vertex and
    widest reach.  Every edge the depth cut leaves out must clip to no cone
    or to a distance beyond the reach against the popped cone.  Every row the
    prefilter keeps must hold the edge's offsets, as the copy develops
    them, their lengths and its signed cross2, which is positive.  An edge
    culled because the source does not lie on its inner side must clip to
    no cone at all.  Any other skipped clip must give no cone or a distance
    beyond the reach.  The popped bound is at most the reach at every pop
    that expands, so that is max(lb, dist) > reach, the test that drops a
    clip.  Depth cuts and culls below the root are counted by the depth of
    the popped copy.
    """
    seen = collections.Counter()
    unsound = []
    source = []
    popped = []
    search_root = DevelopmentEngine._search_root
    edges_in_reach = DevelopmentEngine._edges_in_reach
    heappop = heapq.heappop

    def root(self, source_cone, sv, *args):
        source[:] = [self.points[sv]]
        return search_root(self, source_cone, sv, *args)

    def pop(heap):
        popped[:] = [heappop(heap)]
        return popped[0]

    def checked(self, rot, trans, s, behind, lb, reach):
        kept = edges_in_reach(self, rot, trans, s, behind, lb, reach)
        popped_lb, _, popped_rot, popped_trans, entry, cone, path = popped[0]
        assert (rot, trans, s, lb) == (popped_rot, popped_trans, source[0], popped_lb)
        pts = self._develop(rot, trans)
        at_root = entry is None
        limit = reach + _REACH_MARGIN
        # the root cuts no edge; below it, the depth cut keeps the edges
        # whose nearer endpoint lies within reach + 2 * _REACH_MARGIN - lb
        # behind the entry edge, never the entry edge itself
        assert behind is (self.fans.at_root if at_root else self.fans.behind[entry])
        bound = reach + 2.0 * _REACH_MARGIN - lb
        edges = [j for j in range(self.n) if behind[j] <= bound]
        assert at_root or entry not in edges
        kept_edges = [j for j, *_ in kept]
        assert kept_edges == sorted(kept_edges)
        for j, wa, wb, da, db, x in kept:
            a, b = pts[j], pts[(j + 1) % self.n]
            # the clip reads the row, and every kept edge is seen
            # counterclockwise
            assert (wa, wb, da, db, x) == (a - s, b - s, abs(a - s), abs(b - s), cross2(wa, wb))
            assert x > 0.0
        for j in range(self.n):
            a, b = pts[j], pts[(j + 1) % self.n]
            if j == entry:
                continue
            clip = clip_edge(self, s, a, b, cone)
            if j not in edges:
                seen["cut_at_depth_1" if len(path) == 1 else "cut_deeper"] += 1
                if clip is not None and not clip[1] > reach:
                    unsound.append(("depth cut", s, a, b, cone, lb, reach, clip))
                continue
            if abs(a - s) < _AT_SOURCE or abs(b - s) < _AT_SOURCE:
                assert j not in kept_edges
                continue
            if j in kept_edges:
                # kept for a point inside the edge, its endpoints out of reach
                seen["kept_inside"] += min(abs(a - s), abs(b - s)) > limit
                continue
            if cross2(a - s, b - s) <= 0.0:
                seen["culled"] += 1
                if path:
                    seen["culled_at_depth_1" if len(path) == 1 else "culled_deeper"] += 1
                if clip is not None:
                    unsound.append(("culled", s, a, b, cone, clip))
                continue
            if clip is not None:
                seen["skipped_cones"] += 1
                seen["root_skipped_cones"] += at_root
                if not clip[1] > reach:
                    unsound.append(("beyond reach", s, a, b, cone, reach, clip))
        seen["kept"] += len(kept)
        seen["root_kept"] += at_root * len(kept)
        return kept

    monkeypatch.setattr(DevelopmentEngine, "_search_root", root)
    monkeypatch.setattr(DevelopmentEngine, "_edges_in_reach", checked)
    monkeypatch.setattr(heapq, "heappop", pop)
    return seen, unsound


def _spy_gluings(degenerate_hexagon):
    polys = [sample_fat_ngon(6, seed) for seed in range(20)]
    polys += [sample_fat_ngon(8, seed) for seed in range(5)]
    polys.append(load_polygon(os.path.join(DATA, "thin_hexagon_seed0.json")))
    # straight vertices: edges in line with a root, seen under no angle
    polys.append(degenerate_hexagon)
    return [glue_halving(poly, i) for poly in polys for i in range(poly.n // 2)]


@pytest.mark.parametrize("cap", [None, 3], ids=["default_cap", "cap3"])
def test_prefilter_skips_only_dropped_clips(prefilter_spy, degenerate_hexagon, cap):
    seen, unsound = prefilter_spy
    kwargs = {} if cap is None else {"dev_cap": cap}
    for g in _spy_gluings(degenerate_hexagon):
        DevelopmentEngine(g, **kwargs).distance_table()
    assert unsound == []
    assert seen["cut_at_depth_1"] > 0 and seen["cut_deeper"] > 0
    assert seen["skipped_cones"] > 0 and seen["kept"] > 0
    assert seen["root_skipped_cones"] > 0 and seen["root_kept"] > 0
    assert seen["culled_at_depth_1"] > 0 and seen["culled_deeper"] > 0


def test_prefilter_is_sound_at_exact_reach(prefilter_spy, degenerate_hexagon):
    """Budgets equal to found distances put a target's developed vertex,
    and the clipped part of its edges, right at the reach."""
    seen, unsound = prefilter_spy
    for g in _spy_gluings(degenerate_hexagon):
        engine = DevelopmentEngine(g)
        for (i, j), (res, _) in engine.distance_table().entries.items():
            if res.path is not None:
                engine.search(i, [Goal(j, res.path.length, False)])
    assert unsound == []
    assert seen["cut_at_depth_1"] > 0 and seen["cut_deeper"] > 0
    assert seen["skipped_cones"] > 0 and seen["root_skipped_cones"] > 0
    assert seen["culled_at_depth_1"] > 0 and seen["culled_deeper"] > 0


def test_prefilter_is_sound_on_long_edges(prefilter_spy):
    """The line distance divides by the edge length, which is not always 1."""
    seen, unsound = prefilter_spy
    for seed in range(5):
        poly = sample_fat_ngon(6, seed)
        big = EquilateralPolygon(tuple((3.0 * x, 3.0 * y) for x, y in poly.vertices))
        for i in range(3):
            DevelopmentEngine(glue_halving(big, i)).distance_table()
    assert unsound == []
    assert seen["cut_at_depth_1"] > 0 and seen["cut_deeper"] > 0
    assert seen["skipped_cones"] > 0 and seen["root_skipped_cones"] > 0
    assert seen["culled"] > 0


def test_prefilter_is_sound_past_both_endpoints(prefilter_spy):
    """Enumerations out to 2.5 and 3.5 reach edges whose nearest point to
    the source lies inside them, both endpoints beyond the reach, and
    copies two crossings deep."""
    seen, unsound = prefilter_spy
    for seed in range(5):
        for i in range(3):
            engine = DevelopmentEngine(glue_halving(sample_fat_ngon(6, seed), i))
            for a, b in itertools.permutations(range(4), 2):
                engine.enumerate_geodesics(a, b, 2.5)
                engine.enumerate_geodesics(a, b, 3.5)
    assert unsound == []
    assert seen["cut_at_depth_1"] > 0 and seen["cut_deeper"] > 0
    assert seen["kept_inside"] > 0 and seen["skipped_cones"] > 0
    assert seen["culled_at_depth_1"] > 0 and seen["culled_deeper"] > 0


# The degenerate hexagon with vertex 1 lifted 2e-10 into it.  It turns
# clockwise there by 4e-10, within the default tol_convex, so the fans take
# it, and it fails hypothesis.convex.  From vertex 0 the source lies on the
# outer side of edge 1, and the root culls that edge.  Clipped with its
# endpoints swapped, the edge gives a cone about 2e-10 rad wide through
# which no ray from the root leaves the polygon.
WEAKLY_REFLEX = EquilateralPolygon(((0, 0), (1, 2e-10), (2, 0), (2, 1), (1, 1), (0, 1)))
F, I = FOUND, INCONCLUSIVE
# its table entries (status, length) per halving, pairs in the order (0, 1),
# (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), at caps 3, 7 and the default; a
# search that also pushed the swapped edge's copy reads the same
REFLEX_LENGTHS = (
    (2.236067977410347, 1.0, 1.4142135623730951, 1.4142135622316736, 1.0, 0.9999999998),
    (0.9999999998, 1.0, 1.4142135622316736, 1.4142135623730951, 1.0, 1.0),
)
REFLEX_STATUSES = {
    3: ((I, F, I, I, F, I), (F, I, I, I, I, F)),
    7: ((I, F, F, F, F, F), (F, F, I, I, F, F)),
    None: ((F,) * 6, (F,) * 6),
}
# the hypothesis lines, then the lemma lines as verify --force reads them
# at caps 1-4 (at cap 5 the unit disks pass), with or without that push
REFLEX_CARD = [
    ("hypothesis.equilateral", "pass"), ("hypothesis.convex", "fail"),
    ("hypothesis.fat", "fail"), ("hypothesis.independent", "fail"),
    ("diagonals.at_least_1", "pass"), ("curvature.total_4pi", "pass"),
    ("disks.unit_radius_empty", "inconclusive"), ("zipper.edges_length_1", "inconclusive"),
    ("zipper.nothing_shorter", "pass"), ("distinctness.tetrahedra", "inconclusive"),
    ("embedding.angle_sums_match", "inconclusive"), ("net.simple", "inconclusive"),
    ("net.matches_source", "inconclusive"),
]


def _reflex_tables(cap):
    fans = RootFans(WEAKLY_REFLEX)
    kwargs = {} if cap is None else {"dev_cap": cap}
    return [DevelopmentEngine(glue_halving(WEAKLY_REFLEX, i), fans=fans, **kwargs).distance_table() for i in range(3)]


def _reads(table):
    entries = [res for _, (res, _) in sorted(table.entries.items())]
    return tuple(res.status for res in entries), tuple(res.path.length for res in entries)


def test_the_root_cull_on_a_weakly_reflex_polygon(monkeypatch):
    """The root hands the clip no edge that the source sees clockwise.  The
    cull moves no status or length at caps 3, 7 and the default, and no
    verify --force line at caps 1-5.  At cap 2, where pushing the swapped
    edge's copy would spend one of the two pops, three entries read found
    rather than inconclusive, and the (0, 1) entries of halvings 0 and 2
    stay inconclusive with another path."""
    crosses = []
    clip_row = DevelopmentEngine._clip_row

    def spy(self, s, a, b, wa, wb, da, db, x, cone):
        crosses.append(x)
        return clip_row(self, s, a, b, wa, wb, da, db, x, cone)

    monkeypatch.setattr(DevelopmentEngine, "_clip_row", spy)
    for cap, statuses in REFLEX_STATUSES.items():
        reads = [_reads(t) for t in _reflex_tables(cap)]
        assert reads == [(statuses[k], REFLEX_LENGTHS[k]) for k in (0, 1, 0)], cap
    tables = _reflex_tables(2)
    # with that push: (I, I, I, I, F, I) and (I,) * 6, the first length
    # 2.23606797749979
    halving_0 = ((I, F, I, I, F, I), REFLEX_LENGTHS[0])
    assert [_reads(t) for t in tables] == [halving_0, ((I,) * 5 + (F,), REFLEX_LENGTHS[1]), halving_0]
    assert [t.developments for t in tables] == [10, 10, 10]
    assert crosses and min(crosses) > 0.0
    for cap in range(1, 6):
        card = dict(REFLEX_CARD, **{"disks.unit_radius_empty": "pass"} if cap == 5 else {})
        assert verify_polygon(WEAKLY_REFLEX, PipelineConfig(dev_cap=cap), force=True).scorecard() == list(card.items())


@pytest.fixture()
def push_spy(monkeypatch):
    """Each push's copy, its transform rounded to 1e-8, and entry edge,
    collected per search root; a key pushed twice by one root is a repeat."""
    seen = collections.Counter()
    repeats = []
    keys = set()
    search_root = DevelopmentEngine._search_root
    heappush = heapq.heappush

    def root(self, *args):
        keys.clear()
        return search_root(self, *args)

    def push(heap, item):
        _, _, rot, trans, entry, _, _ = item
        key = tuple(round(x / 1e-8) for x in (rot.real, rot.imag, trans.real, trans.imag))
        key += (entry,)
        if key in keys:
            repeats.append(key)
        keys.add(key)
        seen["pushes"] += 1
        heappush(heap, item)

    monkeypatch.setattr(DevelopmentEngine, "_search_root", root)
    monkeypatch.setattr(heapq, "heappush", push)
    return seen, repeats


def test_no_copy_pushed_twice_across_one_edge(push_spy, degenerate_hexagon):
    seen, repeats = push_spy
    gluings = _spy_gluings(degenerate_hexagon)
    gluings += [glue_halving(regular_ngon(n), i) for n in (6, 8) for i in range(n // 2)]
    for g in gluings:
        engine = DevelopmentEngine(g)
        engine.distance_table()
        for i, j in itertools.permutations(range(len(g.cone_points)), 2):
            engine.enumerate_geodesics(i, j, 2.5)
    assert repeats == []
    assert seen["pushes"] > 0
