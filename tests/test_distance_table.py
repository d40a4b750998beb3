"""Each geodesic fact of a halving is computed once, and soundly.

One engine per halving, one shared search per source cone point answering
each unordered cone-point pair once, one independence screen per sampled
polygon, one validation per verify, with each audit reached through its
public pipeline name; a caller's tolerances reach every check read from
the table; and reading the disk verdicts from that table never turns a
verdict the direct radius-1 queries would leave open or decide the other
way into pass or fail.
"""

import collections
import math
import os

import pytest

from zipfold import GeodesicError, geodesic, glue_halving, load_polygon, polygon, sample_fat_ngon
from zipfold import pipeline
from zipfold.geodesic import FOUND, INCONCLUSIVE, SETTLED, WITNESS, DevelopmentEngine
from zipfold.pipeline import FAIL, INCONC, PASS, PipelineConfig, audit_halving, sweep_one
from zipfold.polygon import Tolerances


@pytest.fixture()
def counts(monkeypatch):
    seen = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            seen[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        DevelopmentEngine, "__init__", counted("engines", DevelopmentEngine.__init__)
    )
    # the shared search every query runs, with its goal slots
    search = DevelopmentEngine._search
    asked = set()

    def counted_search(self, src_idx, states):
        seen["searches"] += 1
        for st in states:
            if st.stop_at_first:
                seen["shortest"] += 1
                asked.add((self.gluing.fold_index, frozenset((src_idx, st.target))))
                seen["pairs"] = len(asked)
            else:
                seen["enumerations"] += 1
        return search(self, src_idx, states)

    monkeypatch.setattr(DevelopmentEngine, "_search", counted_search)
    screen = counted("screens", polygon.check_independence)
    monkeypatch.setattr(polygon, "check_independence", screen)
    monkeypatch.setattr(pipeline, "check_independence", screen)
    # every validation, validate's own and the sampler's, runs the report body
    monkeypatch.setattr(polygon, "_validation_report", counted("validations", polygon._validation_report))
    for name in ("audit_halving", "verify_polygon"):
        monkeypatch.setattr(pipeline, name, counted(name, getattr(pipeline, name)))
    # a spy wherever the pipeline could look the overhang audit up
    overhang = counted("overhang_audit", geodesic.overhang_audit)
    monkeypatch.setattr(geodesic, "overhang_audit", overhang)
    monkeypatch.setattr(pipeline, "overhang_audit", overhang, raising=False)
    return seen


def test_hexagon_verify_queries_each_pair_once(fat_pool_small, counts):
    assert pipeline.verify_polygon(fat_pool_small[0]).status == PASS
    assert counts["engines"] == 3
    assert counts["searches"] == 3 * 4
    assert counts["shortest"] == counts["pairs"] == 3 * 6
    assert counts["enumerations"] == 3 * 3
    assert counts["screens"] == 1
    assert counts["validations"] == 1
    assert counts["audit_halving"] == 3
    assert counts["overhang_audit"] == 0


def test_public_audits_still_validate(fat_pool_small, counts):
    poly = fat_pool_small[0]
    octagon = sample_fat_ngon(8, 5)
    counts.clear()
    audit_halving(octagon, 0)
    assert counts["validations"] == 0  # only a hexagon's tetrahedron reads `fat`
    audit_halving(poly, 0)
    assert counts["validations"] == 1
    geodesic.overhang_audit(glue_halving(poly, 0), 0)
    assert counts["validations"] == 2
    geodesic.overhang_audit(glue_halving(poly, 0), 0, radius=0.5)
    assert counts["validations"] == 2  # the fat bound applies at radius 1 only


def test_octagon_verify_queries_each_pair_once(counts):
    poly = sample_fat_ngon(8, 5)
    counts.clear()
    assert pipeline.verify_polygon(poly).status == PASS
    assert counts["engines"] == 4
    assert counts["searches"] == 4 * 5
    assert counts["shortest"] == counts["pairs"] == 4 * 10
    assert counts["enumerations"] == 4 * 4
    assert counts["overhang_audit"] == 0


def test_sweep_screens_each_polygon_once(counts):
    record, _ = sweep_one(0, 8)
    assert record.status == PASS
    assert counts["screens"] == 1
    assert counts["validations"] == 1
    assert counts["verify_polygon"] == 1
    assert counts["audit_halving"] == 4
    assert counts["overhang_audit"] == 0


def _reference_disk_status(gluing, dev_cap):
    """Per-center radius-1 queries in both directions, settled only when found or
    finished within radius 1."""
    eng = DevelopmentEngine(gluing, dev_cap=dev_cap)
    statuses = []
    m = len(gluing.cone_points)
    for k in range(m):
        status = PASS
        for other in range(m):
            if other == k:
                continue
            res = eng.shortest_geodesic(k, other, 1.0)
            if res.path is not None and res.path.length < 1.0 - 1e-9:
                status = FAIL
                break
            if res.status == INCONCLUSIVE:
                status = INCONC
        statuses.append(status)
    return pipeline.combine(statuses)


def _disk_empty_status(gluing, dev_cap):
    eng = DevelopmentEngine(gluing, dev_cap=dev_cap)
    mapping = {"empty": PASS, "nonempty": FAIL, INCONCLUSIVE: INCONC}
    return pipeline.combine(
        mapping[eng.distance_table().disk(k).status] for k in range(len(gluing.cone_points))
    )


def test_small_cap_disk_verdicts_never_contradict(fat_pool_small, thin_hexagon):
    thin = [thin_hexagon] + [
        sample_fat_ngon(6, seed, fat=False, require_independent=False) for seed in range(2)
    ]
    polys = fat_pool_small[:8] + [sample_fat_ngon(8, seed) for seed in range(3)] + thin
    truth = {
        (k, i): audit_halving(poly, i).statuses["disks.unit_radius_empty"]
        for k, poly in enumerate(polys)
        for i in range(poly.n // 2)
    }
    assert FAIL in truth.values()  # the thin controls have crowded disks
    decided = collections.Counter()
    for cap in range(1, 41):
        cfg = PipelineConfig(dev_cap=cap)
        for (k, i), expected in truth.items():
            audit = audit_halving(polys[k], i, cfg)
            g = audit.gluing
            got = audit.statuses["disks.unit_radius_empty"]
            assert got == _disk_empty_status(g, cap)
            assert got in (expected, INCONC), (cap, k, i, got, expected)
            ref = _reference_disk_status(g, cap)
            assert {got, ref} != {PASS, FAIL}, (cap, k, i, got, ref)
            decided[got] += 1
    assert decided[INCONC] > 0  # small caps do leave some disks undecided


def test_frontier_recorded_only_when_the_search_runs_out(fat_pool_small):
    g = glue_halving(fat_pool_small[0], 0)
    eng = DevelopmentEngine(g, dev_cap=2)
    res = eng.shortest_geodesic(0, 1, budget=3.0)
    assert res.status == INCONCLUSIVE
    assert 0.0 <= res.frontier <= 3.0
    done = DevelopmentEngine(g).shortest_geodesic(0, 1, budget=3.0)
    assert done.status == FOUND
    assert done.frontier == float("inf")


def test_query_run_out_below_radius_leaves_disk_open(fat_pool_small):
    open_disks = 0
    for cap in range(1, 6):
        for i in range(3):
            g = glue_halving(fat_pool_small[0], i)
            table = DevelopmentEngine(g, dev_cap=cap).distance_table()
            for k in range(4):
                short = [table.result(k, o) for o in range(4) if o != k]
                if any(r.status == INCONCLUSIVE and r.frontier < 1.0 for r in short):
                    assert table.disk(k).status == INCONCLUSIVE
                    open_disks += 1
    assert open_disks > 0


def test_custom_tolerances_reach_the_metric_check(fat_pool_small):
    # seed 0's first halving has a zipper distance 1.1e-16 short of 1
    poly = fat_pool_small[0]
    audit = audit_halving(poly, 0)
    assert audit.statuses["zipper.edges_length_1"] == PASS and audit.error is None
    strict = PipelineConfig(tolerances=Tolerances(tol_geodesic=1e-17))
    audit = audit_halving(poly, 0, strict)
    assert audit.statuses["zipper.edges_length_1"] == FAIL
    assert "deviates from 1" in audit.error
    assert audit.statuses["net.matches_source"] == FAIL
    g = glue_halving(poly, 0)
    with pytest.raises(geodesic.GeodesicError, match="deviates from 1"):
        geodesic.tetra_metric(g, Tolerances(tol_geodesic=1e-17))
    assert geodesic.tetra_metric(g).as_dict() == audit_halving(poly, 0).metric.as_dict()


def test_disk_judges_at_the_tables_own_tolerance(thin_hexagon):
    """A table built for a looser tol_geodesic reads it in every disk
    verdict: the nearest intruder, just inside the radius, is no witness."""
    checked = 0
    for i in range(3):
        g = glue_halving(thin_hexagon, i)
        table = DevelopmentEngine(g).distance_table()
        loose = DevelopmentEngine(g, tol=Tolerances(tol_geodesic=1e-6)).distance_table()
        for k in range(len(g.cone_points)):
            report = table.disk(k)
            if report.status != "nonempty":
                continue
            radius = report.witness[1] + 1e-7
            assert table.disk(k, radius).status == "nonempty"
            assert loose.disk(k, radius).status == "empty"
            checked += 1
    assert checked


def test_a_cone_point_at_exactly_radius_minus_tol_is_no_witness(thin_hexagon):
    """The disk is open: a pair whose distance is exactly radius -
    tol_geodesic, in floats, settles it, and a pair whose distance is below
    that is a witness against it."""
    tol = Tolerances().tol_geodesic
    checked = 0
    for i in range(3):
        table = DevelopmentEngine(glue_halving(thin_hexagon, i)).distance_table()
        for pair, (res, _) in table.entries.items():
            if res.path is None or res.path.length >= 1.0 - 2 * tol:
                continue
            d = res.path.length
            at = d + tol
            while at - tol > d:
                at = math.nextafter(at, 0.0)
            while at - tol < d:
                at = math.nextafter(at, 2.0)
            if at - tol != d:
                continue  # no float radius puts d exactly on the boundary
            past = math.nextafter(at, 2.0)
            while past - tol <= d:
                past = math.nextafter(past, 2.0)
            assert table.pair_disk(pair, at) == SETTLED
            assert table.pair_disk(pair, past) == WITNESS
            checked += 1
    assert checked


@pytest.mark.parametrize("radius", [math.nan, 0.0, -1.0])
def test_pair_disk_refuses_a_radius_that_is_not_positive(regular_hexagon, radius):
    """`disk` refuses these radii; a NaN radius made every pair read
    SETTLED, since no comparison with NaN holds."""
    table = DevelopmentEngine(glue_halving(regular_hexagon, 0)).distance_table()
    for pair in table.entries:
        with pytest.raises(GeodesicError, match="radius must be positive"):
            table.pair_disk(pair, radius)


def test_pair_disk_at_radius_1_on_the_golden_thin_hexagon():
    """The thin control's halvings 0 and 2 hold a pair nearer than 1."""
    poly = load_polygon(os.path.join(os.path.dirname(__file__), "data", "thin_hexagon_seed0.json"))
    rules = []
    for i in range(3):
        table = DevelopmentEngine(glue_halving(poly, i)).distance_table()
        rules.append([table.pair_disk(pair, 1.0) for pair in sorted(table.entries)])
    settled, witness = [SETTLED] * 6, [SETTLED] * 3 + [WITNESS] + [SETTLED] * 2
    assert rules == [witness, settled, witness]


def test_public_tetra_metric_uses_the_clearance_tolerance(fat_pool_small, monkeypatch):
    clearances = []
    init = DevelopmentEngine.__init__

    def spy(self, gluing, *args, **kwargs):
        init(self, gluing, *args, **kwargs)
        clearances.append(self.tol.tol_clearance)

    monkeypatch.setattr(DevelopmentEngine, "__init__", spy)
    g = glue_halving(fat_pool_small[0], 0)
    geodesic.tetra_metric(g)
    geodesic.tetra_metric(g, Tolerances(tol_clearance=1e-7))
    assert clearances == [1e-9, 1e-7]
