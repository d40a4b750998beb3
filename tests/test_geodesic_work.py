"""The geodesic search's work on fixed fat polygons, pinned.

Every candidate the search hands to `_finalize` for a full re-trace passes
it, and each halving's queries report exactly the developments they
reported before the search stopped re-tracing targets on a copy's entry
edge: skipping them changes no result, only the work.  The distance
table's shared searches pop fewer developments than the queries report
together, since the queries leaving one cone point share their pops.
"""

import collections

import pytest

from zipfold import sample_fat_ngon
from zipfold.geodesic import DevelopmentEngine
from zipfold.pipeline import fold_halving

# (n, seed) -> developments per halving, summed over the distance table's
# shortest queries and zipper enumerations
DEVELOPMENTS = {
    (6, 0): (36, 36, 42), (6, 1): (44, 39, 38), (6, 2): (39, 36, 34),
    (6, 3): (39, 42, 37), (6, 4): (44, 45, 45), (6, 5): (47, 40, 40),
    (6, 6): (32, 35, 32), (6, 7): (34, 38, 37), (6, 8): (32, 33, 34),
    (6, 9): (43, 40, 37), (6, 10): (46, 48, 45), (6, 11): (32, 33, 33),
    (6, 12): (36, 35, 40), (6, 13): (43, 39, 46), (6, 14): (34, 35, 36),
    (6, 15): (34, 34, 33), (6, 16): (36, 37, 39), (6, 17): (34, 37, 34),
    (6, 18): (33, 33, 33), (6, 19): (44, 39, 36),
    (8, 0): (47, 47, 47, 48), (8, 1): (44, 44, 49, 45), (8, 2): (48, 51, 48, 47),
    (8, 3): (45, 44, 45, 44), (8, 4): (45, 44, 44, 44),
}


# (n, seed) -> developments the distance table's shared searches popped per
# halving
POPPED = {
    (6, 0): (22, 21, 25), (6, 1): (25, 23, 23), (6, 2): (25, 22, 20),
    (6, 3): (22, 26, 22), (6, 4): (26, 26, 27), (6, 5): (27, 23, 25),
    (6, 6): (21, 21, 20), (6, 7): (19, 23, 23), (6, 8): (19, 20, 21),
    (6, 9): (24, 22, 23), (6, 10): (27, 27, 27), (6, 11): (20, 20, 20),
    (6, 12): (22, 19, 26), (6, 13): (27, 22, 25), (6, 14): (20, 21, 22),
    (6, 15): (20, 20, 20), (6, 16): (22, 21, 24), (6, 17): (19, 23, 21),
    (6, 18): (20, 19, 22), (6, 19): (25, 23, 21),
    (8, 0): (20, 22, 20, 21), (8, 1): (19, 20, 21, 19), (8, 2): (20, 22, 20, 21),
    (8, 3): (20, 19, 20, 21), (8, 4): (19, 20, 20, 19),
}


@pytest.fixture()
def finalized(monkeypatch):
    seen = collections.Counter()
    finalize = DevelopmentEngine._finalize

    def count_finalize(self, *args, **kwargs):
        path = finalize(self, *args, **kwargs)
        seen["finalized"] += 1
        seen["accepted"] += path is not None
        return path

    monkeypatch.setattr(DevelopmentEngine, "_finalize", count_finalize)
    return seen


def _tables(n, seed):
    poly = sample_fat_ngon(n, seed)
    return [fold_halving(poly, i)[2].distance_table() for i in range(n // 2)]


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
