"""The geodesic search's work on fixed fat polygons, pinned.

Every candidate the search hands to `_finalize` for a full re-trace passes
it, and each halving's queries report the pinned developments.  A pin
moves when a lower bound moves by a few units in the last place at an
exact tie, with another development's bound or with a found length.  The
distance table's shared searches pop fewer developments than the queries
report together, since the queries leaving one cone point share their
pops.

The search clips only the edges its reach prefilter keeps.  Below the
root, the prefilter reads each edge's line and the edge itself; at the
root, it reads the edge's line distance from the vertex's root fan, which
holds the clip of each edge some root pop has reached so far.  Every edge
either prefilter skips, clipped in full, gives no cone or a distance
beyond the reach, so the clip would have been dropped and no push is
lost.  The halvings of one polygon share the fans, as the pipeline runs
them, and the fans re-trace each chord once for both its directions.

The search keeps no record of what it has pushed: the clips of a copy's
edges split its cone into disjoint pieces, so no search pushes one copy
across one entry edge twice.
"""

import collections
import heapq
import itertools
import os

import pytest

from zipfold import (
    EquilateralPolygon,
    glue_halving,
    load_polygon,
    regular_ngon,
    sample_fat_ngon,
)
from zipfold.geodesic import _AT_SOURCE, _REACH_MARGIN, DevelopmentEngine, Goal, RootFans

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


# (n, seed) -> _clip_edge calls per halving while the distance table is
# built, on the POPPED seeds, with one RootFans per polygon shared by its
# halvings in order: a root pop clips the fan edges whose line its reach
# covers and no earlier root pop has clipped, so a later hexagon halving,
# whose longer non-zipper budgets reach farther, clips a few fan edges the
# first one left alone
CLIPPED = {
    (6, 0): (43, 28, 35), (6, 1): (45, 31, 27), (6, 2): (48, 25, 25),
    (6, 3): (39, 43, 23), (6, 4): (53, 28, 42), (6, 5): (48, 32, 36),
    (6, 6): (35, 26, 26), (6, 7): (37, 27, 33), (6, 8): (35, 25, 28),
    (6, 9): (46, 29, 30), (6, 10): (50, 34, 40), (6, 11): (37, 28, 22),
    (6, 12): (35, 21, 41), (6, 13): (56, 27, 29), (6, 14): (34, 30, 31),
    (6, 15): (37, 32, 22), (6, 16): (40, 27, 34), (6, 17): (35, 34, 24),
    (6, 18): (35, 26, 29), (6, 19): (40, 30, 30),
    (8, 0): (31, 22, 16, 21), (8, 1): (32, 14, 16, 15), (8, 2): (32, 20, 14, 15),
    (8, 3): (35, 11, 12, 19), (8, 4): (32, 14, 12, 13),
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
    clip_edge = DevelopmentEngine._clip_edge

    def count_clip(self, *args):
        calls[0] += 1
        return clip_edge(self, *args)

    monkeypatch.setattr(DevelopmentEngine, "_clip_edge", count_clip)
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
    """Clip in full every edge the reach prefilter skips, below the root and
    at it.

    A skipped clip must give no cone or a distance beyond the reach.  The
    popped bound is at most the reach at every pop that expands, so that is
    max(lb, dist) > reach, the test that drops a clip.
    """
    seen = collections.Counter()
    unsound = []
    source = []
    search_root = DevelopmentEngine._search_root
    edges_in_reach = DevelopmentEngine._edges_in_reach
    root_clips = DevelopmentEngine._root_clips

    def root(self, source_cone, sv, *args):
        source[:] = [self.points[sv]]
        return search_root(self, source_cone, sv, *args)

    def checked(self, offs, dists, node, reach):
        kept = edges_in_reach(self, offs, dists, node, reach)
        s = source[0]
        pts = self._develop(node.transform)
        assert offs == [p - s for p in pts]
        for j in range(self.n):
            a, b = pts[j], pts[(j + 1) % self.n]
            if j == node.entry_edge or abs(a - s) < _AT_SOURCE or abs(b - s) < _AT_SOURCE:
                assert j not in kept
                continue
            if j in kept:
                # kept for a point inside the edge, its endpoints out of reach
                seen["kept_inside"] += min(abs(a - s), abs(b - s)) > reach + _REACH_MARGIN
                continue
            clip = self._clip_edge(s, a, b, node.cone)
            if clip is not None:
                seen["skipped_cones"] += 1
                if not clip[1] > reach:
                    unsound.append((s, a, b, node.cone, reach, clip))
        seen["kept"] += len(kept)
        return kept

    def root_checked(self, sv, reach):
        kept = root_clips(self, sv, reach)
        s = self.points[sv]
        pts = self.fans.root_copy
        pushed = [j for j, _, _ in kept]
        assert pushed == sorted(pushed)
        for j in range(self.n):
            a, b = pts[j], pts[(j + 1) % self.n]
            if j in pushed or abs(a - s) < _AT_SOURCE or abs(b - s) < _AT_SOURCE:
                continue
            clip = self._clip_edge(s, a, b, None)
            if clip is not None:
                seen["root_skipped_cones"] += 1
                if not clip[1] > reach:
                    unsound.append((s, a, b, None, reach, clip))
        seen["root_kept"] += len(kept)
        return kept

    monkeypatch.setattr(DevelopmentEngine, "_search_root", root)
    monkeypatch.setattr(DevelopmentEngine, "_edges_in_reach", checked)
    monkeypatch.setattr(DevelopmentEngine, "_root_clips", root_checked)
    return seen, unsound


def _spy_gluings():
    polys = [sample_fat_ngon(6, seed) for seed in range(20)]
    polys += [sample_fat_ngon(8, seed) for seed in range(5)]
    polys.append(load_polygon(os.path.join(DATA, "thin_hexagon_seed0.json")))
    return [glue_halving(poly, i) for poly in polys for i in range(poly.n // 2)]


@pytest.mark.parametrize("cap", [None, 3], ids=["default_cap", "cap3"])
def test_prefilter_skips_only_dropped_clips(prefilter_spy, cap):
    seen, unsound = prefilter_spy
    kwargs = {} if cap is None else {"dev_cap": cap}
    for g in _spy_gluings():
        DevelopmentEngine(g, **kwargs).distance_table()
    assert unsound == []
    assert seen["skipped_cones"] > 0 and seen["kept"] > 0
    assert seen["root_skipped_cones"] > 0 and seen["root_kept"] > 0


def test_prefilter_is_sound_at_exact_reach(prefilter_spy):
    """Budgets equal to found distances put a target's developed vertex,
    and the clipped part of its edges, right at the reach."""
    seen, unsound = prefilter_spy
    for g in _spy_gluings():
        engine = DevelopmentEngine(g)
        for (i, j), (res, _) in engine.distance_table().entries.items():
            if res.path is not None:
                engine.search(i, [Goal(j, res.path.length, False)])
    assert unsound == []
    assert seen["skipped_cones"] > 0 and seen["root_skipped_cones"] > 0


def test_prefilter_is_sound_on_long_edges(prefilter_spy):
    """The line distance divides by the edge length, which is not always 1."""
    seen, unsound = prefilter_spy
    for seed in range(5):
        poly = sample_fat_ngon(6, seed)
        big = EquilateralPolygon(tuple((3.0 * x, 3.0 * y) for x, y in poly.vertices))
        for i in range(3):
            DevelopmentEngine(glue_halving(big, i)).distance_table()
    assert unsound == []
    assert seen["skipped_cones"] > 0 and seen["root_skipped_cones"] > 0


def test_prefilter_is_sound_past_both_endpoints(prefilter_spy):
    """Enumerations out to 2.5 reach edges whose nearest point to the
    source lies inside them, both endpoints beyond the reach."""
    seen, unsound = prefilter_spy
    for seed in range(5):
        for i in range(3):
            engine = DevelopmentEngine(glue_halving(sample_fat_ngon(6, seed), i))
            for a, b in itertools.permutations(range(4), 2):
                engine.enumerate_geodesics(a, b, 2.5)
    assert unsound == []
    assert seen["kept_inside"] > 0 and seen["skipped_cones"] > 0


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
        node = item[-1]
        t = node.transform
        key = tuple(round(x / 1e-8) for x in (t.rot.real, t.rot.imag, t.trans.real, t.trans.imag))
        key += (node.entry_edge,)
        if key in keys:
            repeats.append(key)
        keys.add(key)
        seen["pushes"] += 1
        heappush(heap, item)

    monkeypatch.setattr(DevelopmentEngine, "_search_root", root)
    monkeypatch.setattr(heapq, "heappush", push)
    return seen, repeats


def test_no_copy_pushed_twice_across_one_edge(push_spy):
    seen, repeats = push_spy
    gluings = _spy_gluings()
    gluings += [glue_halving(regular_ngon(n), i) for n in (6, 8) for i in range(n // 2)]
    for g in gluings:
        engine = DevelopmentEngine(g)
        engine.distance_table()
        for i, j in itertools.permutations(range(len(g.cone_points)), 2):
            engine.enumerate_geodesics(i, j, 2.5)
    assert repeats == []
    assert seen["pushes"] > 0
