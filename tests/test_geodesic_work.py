"""The geodesic search's work on fixed fat polygons, pinned.

Every candidate the search hands to `_finalize` for a full re-trace passes
it, and each halving pops exactly the developments it popped before the
search stopped re-tracing targets on a copy's entry edge: skipping them
changes no result, only the work.
"""

import collections

from zipfold import sample_fat_ngon
from zipfold.geodesic import DevelopmentEngine
from zipfold.pipeline import audit_halving

# (n, seed) -> developments per halving, summed over the distance table's
# shortest queries and the zipper enumerations of audit_halving
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


def test_no_rejected_candidates_and_developments_unchanged(monkeypatch):
    seen = collections.Counter()
    shortest = DevelopmentEngine.shortest_geodesic
    enumerate_ = DevelopmentEngine.enumerate_geodesics
    finalize = DevelopmentEngine._finalize

    def count_shortest(self, *args, **kwargs):
        res = shortest(self, *args, **kwargs)
        seen["developments"] += res.developments
        return res

    def count_enumerate(self, *args, **kwargs):
        res = enumerate_(self, *args, **kwargs)
        seen["developments"] += res.developments
        return res

    def count_finalize(self, *args, **kwargs):
        path = finalize(self, *args, **kwargs)
        seen["finalized"] += 1
        seen["accepted"] += path is not None
        return path

    monkeypatch.setattr(DevelopmentEngine, "shortest_geodesic", count_shortest)
    monkeypatch.setattr(DevelopmentEngine, "enumerate_geodesics", count_enumerate)
    monkeypatch.setattr(DevelopmentEngine, "_finalize", count_finalize)
    got = {}
    for n, seed in DEVELOPMENTS:
        poly = sample_fat_ngon(n, seed)
        per_halving = []
        for i in range(n // 2):
            seen["developments"] = 0
            audit_halving(poly, i)
            per_halving.append(seen["developments"])
        got[(n, seed)] = tuple(per_halving)
    assert got == DEVELOPMENTS
    assert seen["accepted"] > 0
    assert seen["finalized"] == seen["accepted"]
