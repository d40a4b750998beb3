"""One shared search per source cone gives every query its own answer.

The distance table answers all pairs (i, j > i) and the zipper
enumerations leaving i from one best-first development of cone point i.
Each of those answers must equal, field for field, the one-goal query the
table replaces: same path, same status, same developments and frontier,
at every development cap.
"""

import pytest

from zipfold import glue_halving, sample_fat_ngon
from zipfold.geodesic import DevelopmentEngine, Goal, GeodesicError
from zipfold.polygon import DEFAULT_TOLERANCES

CAPS = list(range(1, 41)) + [None]


def _gluings(fat_pool_small, thin_hexagon):
    polys = fat_pool_small[:3] + [thin_hexagon]
    polys += [sample_fat_ngon(6, seed, fat=False, require_independent=False) for seed in range(2)]
    polys += [sample_fat_ngon(8, seed) for seed in range(2)]
    polys += [sample_fat_ngon(10, 0)]
    return [glue_halving(poly, i) for poly in polys for i in range(poly.n // 2)]


def test_table_matches_one_goal_queries(fat_pool_small, thin_hexagon):
    tol = DEFAULT_TOLERANCES.tol_geodesic
    checked = {"shortest": 0, "enumerations": 0, "inconclusive": 0}
    for g in _gluings(fat_pool_small, thin_hexagon):
        for cap in CAPS:
            kwargs = {} if cap is None else {"dev_cap": cap}
            table = DevelopmentEngine(g, **kwargs).distance_table()
            alone = DevelopmentEngine(g, **kwargs)
            m = len(g.cone_points)
            assert sorted(table.entries) == [(i, j) for i in range(m) for j in range(i + 1, m)]
            for (i, j), (res, budget) in table.entries.items():
                assert repr(res) == repr(alone.shortest_geodesic(i, j, budget)), (cap, i, j)
                checked["shortest"] += 1
                checked["inconclusive"] += res.status == "inconclusive"
            assert sorted(table.enumerations) == sorted(g.zipper_pairs())
            for (i, j), enum in table.enumerations.items():
                assert repr(enum) == repr(alone.enumerate_geodesics(i, j, 1.0 - tol)), (cap, i, j)
                checked["enumerations"] += 1
    assert checked["inconclusive"] > 0  # the small caps do cut searches short
    assert checked["enumerations"] > 0


def test_shared_search_pops_no_more_than_its_longest_goal(fat_pool_small):
    g = glue_halving(fat_pool_small[0], 0)
    eng = DevelopmentEngine(g)
    goals = [Goal(1, 2.5, True), Goal(2, 1.0 - 1e-9, False), Goal(3, 1.5, True)]
    results, popped = eng.search(0, goals)
    assert popped == max(res.developments for res in results)  # cone 0 has one vertex
    assert popped < sum(res.developments for res in results)
    for goal, res in zip(goals, results):
        alone = eng.search(0, [goal])[0][0]
        assert repr(res) == repr(alone)


def test_search_rejects_bad_goals(fat_pool_small):
    eng = DevelopmentEngine(glue_halving(fat_pool_small[0], 0))
    assert eng.search(0, []) == ([], 0)
    with pytest.raises(GeodesicError):
        eng.search(0, [Goal(1, 1.0, True), Goal(0, 1.0, True)])
    with pytest.raises(GeodesicError):
        eng.search(0, [Goal(1, 0.0, False)])
