"""One shared search per source cone gives every query its own answer.

The distance table answers all pairs (i, j > i) and the zipper
enumerations leaving i from one best-first development of cone point i.
Each of those answers must equal, field for field, the one-goal query the
table replaces: same path, same status, same developments and frontier,
at every development cap.
"""

import itertools

import pytest

from zipfold import glue_halving, sample_fat_ngon
from zipfold.embed import PAIRS
from zipfold.geodesic import FOUND, INCONCLUSIVE, SETTLED, UNSETTLED, WITNESS, DevelopmentEngine, Goal, GeodesicError
from zipfold.pipeline import FAIL, INCONC, PASS, PipelineConfig, audit_halving, combine
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


def _pair_rule(res, budget, radius, tol):
    """The unit-disk rule on a pair's ShortestResult and budget."""
    if res.path is not None and res.path.length < radius - tol:
        return WITNESS
    return UNSETTLED if min(budget, res.frontier) < radius else SETTLED


def _surface_lines(table, tol):
    """A halving's surface statuses and zipper lengths, from the table's
    results."""
    lengths, statuses, empties = [], [], []
    for i, j in table.gluing.zipper_pairs():
        enum = table.enumerations[(i, j)]
        empties.append(INCONC if not enum.complete else PASS if len(enum.paths) == 0 else FAIL)
        res = table.result(i, j)
        if res.status != FOUND:
            statuses.append(INCONC if res.status == INCONCLUSIVE else FAIL)
            lengths.append(float("nan"))
        else:
            lengths.append(res.path.length)
            statuses.append(PASS if abs(res.path.length - 1.0) <= tol else FAIL)
    to_status = {WITNESS: FAIL, UNSETTLED: INCONC, SETTLED: PASS}
    disks = combine(to_status[_pair_rule(res, budget, 1.0, tol)] for res, budget in table.entries.values())
    lines = ("disks.unit_radius_empty", "zipper.edges_length_1", "zipper.nothing_shorter")
    return dict(zip(lines, (disks, combine(statuses), combine(empties)))), tuple(lengths)


def test_verdicts_read_from_the_slots_equal_those_of_the_results(fat_pool_small, thin_hexagon):
    """`pair_disk`, the audit's surface lines, its zipper lengths and a
    hexagon's metric read the table's goal slots; each equals what the
    materialised results say, at every cap."""
    tol = DEFAULT_TOLERANCES.tol_geodesic
    checked = {"pairs": 0, "metrics": 0, "inconclusive": 0}
    for g in _gluings(fat_pool_small, thin_hexagon):
        for cap in CAPS:
            cfg = PipelineConfig() if cap is None else PipelineConfig(dev_cap=cap)
            table = DevelopmentEngine(g, cfg.dev_cap).distance_table()
            radii = (0.5, 1.0, 1.5)
            rules = {pair: [table.pair_disk(pair, r) for r in radii] for pair in table.shortest}
            assert rules == {
                pair: [_pair_rule(res, budget, r, tol) for r in radii] for pair, (res, budget) in table.entries.items()
            }, cap
            checked["pairs"] += len(rules)
            audit = audit_halving(g.polygon, g.fold_index, cfg)
            statuses, lengths = _surface_lines(table, tol)
            assert {line: audit.statuses[line] for line in statuses} == statuses, cap
            assert repr(audit.zipper_lengths) == repr(lengths), cap
            checked["inconclusive"] += INCONC in statuses.values()
            if audit.metric is not None:
                pairs = itertools.combinations(range(4), 2)
                lengths = {name: table.result(i, j).path.length for (i, j), name in zip(pairs, PAIRS)}
                assert audit.metric.as_dict() == lengths, cap
                checked["metrics"] += 1
    assert min(checked.values()) > 0, checked


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
