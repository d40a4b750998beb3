import pytest

from zipfold import (
    PipelineConfig,
    Tolerances,
    glue_halving,
    sample_fat_hexagon,
    validate,
    verify_polygon,
)
from zipfold.geodesic import DevelopmentEngine, INCONCLUSIVE
from zipfold.pipeline import (
    FAIL,
    INCONC,
    PASS,
    audit_halving,
    summarize_records,
    sweep_one,
)


def test_verify_sampled_hexagon_all_pass(fat_pool_small):
    out = verify_polygon(fat_pool_small[0])
    assert out.status == PASS
    assert out.hypotheses_ok
    assert all(status == PASS for _, status in out.scorecard())


def test_verify_regular_hexagon_gated(regular_hexagon):
    out = verify_polygon(regular_hexagon)
    assert out.status == FAIL
    assert not out.hypotheses_ok  # equal angles are rationally dependent
    assert out.audits == []  # lemma checks skipped without force


def test_verify_regular_hexagon_forced(regular_hexagon):
    out = verify_polygon(regular_hexagon, force=True)
    assert out.status == FAIL  # hypotheses still fail
    assert out.audits  # but the lemma audit ran
    lines = dict(out.scorecard())
    assert lines["zipper.edges_length_1"] == PASS
    assert lines["net.matches_source"] == PASS
    # the three trapezoid folds are genuinely congruent, so distinctness fails
    assert lines["distinctness.tetrahedra"] == FAIL


def test_verify_degenerate_forced(degenerate_hexagon):
    out = verify_polygon(degenerate_hexagon, force=True)
    lines = dict(out.scorecard())
    assert lines["hypothesis.fat"] == FAIL
    assert lines["net.matches_source"] == PASS
    assert all(a.tetra.flat for a in out.audits)


def test_verify_thin_hexagon_disk_fails(thin_hexagon):
    out = verify_polygon(thin_hexagon, force=True)
    lines = dict(out.scorecard())
    assert lines["hypothesis.fat"] == FAIL
    assert lines["disks.unit_radius_empty"] == FAIL


def test_audit_octagon_intrinsic_only():
    from zipfold import sample_fat_ngon

    poly = sample_fat_ngon(8, 5)
    audit = audit_halving(poly, 0)
    assert audit.tetra is None and audit.net is None
    assert audit.statuses == {
        "disks.unit_radius_empty": PASS,
        "zipper.edges_length_1": PASS,
        "zipper.nothing_shorter": PASS,
    }
    assert len(audit.zipper_lengths) == 4
    out = verify_polygon(poly)
    assert out.status == PASS
    names = [name for name, _ in out.scorecard()]
    assert "net.matches_source" not in names
    assert not [name for name in names if name.startswith(("embedding.", "net."))]


def test_tiny_dev_cap_goes_inconclusive(fat_pool_small):
    poly = fat_pool_small[0]
    g = glue_halving(poly, 0)
    eng = DevelopmentEngine(g, dev_cap=1)
    res = eng.shortest_geodesic(0, 1, budget=3.0)
    assert res.status == INCONCLUSIVE
    rep = eng.distance_table().disk(0)
    assert rep.status in (INCONCLUSIVE, "nonempty", "empty")
    cfg = PipelineConfig(dev_cap=1)
    out = verify_polygon(poly, cfg)
    assert out.status == INCONC


def test_nothing_shorter_reads_every_zipper_enumeration(fat_pool_small):
    """An unfinished enumeration leaves "nothing shorter" open, also when the
    zipper pair's own shortest query ran out of developments."""
    cfg = PipelineConfig(dev_cap=1)
    unfound = 0
    for poly in fat_pool_small[:10]:
        for fold in range(3):
            audit = audit_halving(poly, fold, cfg)
            g = audit.gluing
            table = DevelopmentEngine(g, cfg.dev_cap, cfg.tolerances).distance_table()
            enums = [table.enumerations[p] for p in g.zipper_pairs()]
            if not all(e.complete for e in enums):
                assert audit.statuses["zipper.nothing_shorter"] == INCONC
            elif any(e.paths for e in enums):
                assert audit.statuses["zipper.nothing_shorter"] == FAIL
            else:
                assert audit.statuses["zipper.nothing_shorter"] == PASS
            unfound += sum(
                not table.result(*p).found and not e.complete
                for p, e in zip(g.zipper_pairs(), enums)
            )
    assert unfound  # the case that used to read as pass


def test_sweep_record_roundtrip():
    record, poly = sweep_one(11, 6)
    assert record.status == PASS
    assert record.fat
    assert record.zipper_max_abs_error <= 1e-9
    assert record.gauss_bonnet_max_abs_residual <= 1e-8
    assert len(record.to_row()) == 14
    assert validate(poly).theorem_ok


def test_sweep_thin_mode_keeps_lemma_status():
    record, poly = sweep_one(2, 6, thin=True)
    rep = validate(poly)
    # thin mode samples strictly convex hexagons without the fat filter;
    # the record status reflects the lemma audit, not the hypothesis gate
    assert record.status in (PASS, FAIL, INCONC)
    assert record.fat == rep.fat_ok


def test_summary_splits_fat_and_thin():
    records = []
    for seed in range(3):
        records.append(sweep_one(seed, 6)[0])
    for seed in range(2):
        records.append(sweep_one(seed, 6, thin=True)[0])
    summary = summarize_records(records)
    assert summary["total"] == 5
    assert summary["fat"]["count"] >= 3


def test_sampler_thousand_seeds_all_theorem_ok():
    bad = 0
    for seed in range(1000):
        if not validate(sample_fat_hexagon(seed)).theorem_ok:
            bad += 1
    assert bad == 0  # retries make the sampler exact, not just 99%


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(independence_bound=0)
    # the screen's limit 10*1e-9 < pi/(4*bound) holds up to 78,539,816
    assert PipelineConfig(independence_bound=78_539_816).independence_bound == 78_539_816
    for bound in (78_539_817, 10**400):
        with pytest.raises(ValueError, match="78,539,816"):
            PipelineConfig(independence_bound=bound)
    with pytest.raises(ValueError):
        PipelineConfig(dev_cap=0)
    with pytest.raises(ValueError):
        Tolerances(tol_len=0.0)
    with pytest.raises(ValueError):
        Tolerances(tol_congruence=-1e-6)
    with pytest.raises(ValueError):
        Tolerances(tol_geodesic=float("nan"))
