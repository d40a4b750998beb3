"""Orchestration of the fold / verify / sweep pipelines.

Everything here is pure computation over one polygon (or one seed range);
the CLI layer only parses arguments, calls in, and formats.  Verdict fields
are tri-state ("pass" / "fail" / "inconclusive"): an exhausted geodesic
search never silently counts as either success or failure.
"""

import math
import time
from dataclasses import dataclass, field

from . import gluing as gl
from . import net as netmod
from .embed import congruent_tetrahedra, embed, vertex_angle_sums
from .errors import GeodesicError, MetricError
from .geodesic import FOUND, INCONCLUSIVE, DevelopmentEngine, overhang_audit
from .geometry import best_rigid_alignment
from .polygon import (
    DEFAULT_TOLERANCES,
    Tolerances,
    _sample_ngon,
    check_independence,
    validate,
)

FOUR_PI = 4.0 * math.pi

PASS = "pass"
FAIL = "fail"
INCONC = "inconclusive"

_DISK_STATUS = {"empty": PASS, "nonempty": FAIL, INCONCLUSIVE: INCONC}


@dataclass(frozen=True)
class PipelineConfig:
    """What the CLI lets a run choose.  The independence screen's residual
    tolerance and the sampler's attempt budget are the defaults of
    check_independence and _sample_ngon."""

    tolerances: Tolerances = DEFAULT_TOLERANCES
    independence_bound: int = 16
    dev_cap: int = 100000

    def __post_init__(self):
        if self.independence_bound < 1:
            raise ValueError("independence bound must be >= 1")
        if self.dev_cap < 1:
            raise ValueError("dev cap must be >= 1")


DEFAULT_CONFIG = PipelineConfig()


def _tri(ok):
    return PASS if ok else FAIL


def _combine(statuses):
    statuses = list(statuses)
    if any(s == FAIL for s in statuses):
        return FAIL
    if any(s == INCONC for s in statuses):
        return INCONC
    return PASS


@dataclass
class HalvingAudit:
    fold_index: int
    curvature: object = None  # CurvatureVector
    gauss_bonnet_residual: float = float("nan")
    zipper_lengths: tuple = ()
    zipper_status: str = INCONC
    lemma3_empty_status: str = INCONC
    disk_status: str = INCONC
    metric: object = None
    tetra: object = None
    angle_sum_status: str = INCONC
    net_simple_status: str = INCONC
    roundtrip_status: str = INCONC
    error: str | None = None


def fold_halving(poly, fold_index, cfg=DEFAULT_CONFIG):
    """Glue one halving and give it its one geodesic engine.

    Returns (gluing, curvature vector, engine).  The engine builds the
    halving's distance table on first use, so every check that reads a
    cone-point distance or a zipper enumeration shares one search per
    source cone point.
    """
    g = gl.glue_halving(poly, fold_index)
    curv = gl.cone_angles(g, cfg.tolerances.tol_curvature)
    return g, curv, DevelopmentEngine(g, cfg.dev_cap, cfg.tolerances.tol_clearance)


def halving_tetrahedron(engine, fat, tol):
    """(metric, tetrahedron) of a hexagon halving, from its distance table.

    `fat` is the source's validation verdict, which makes the zipper
    distances checked against 1 within `tol.tol_geodesic`.
    """
    metric = engine.distance_table(tol).tetra_metric(fat)
    return metric, embed(metric, tol.tol_vol, tol.tol_embed)


def matches_source(net, poly, apex, tol):
    """Whether the net is the source polygon under the halving's labeling.

    The net corner labeled "a" is the fold vertex, polygon vertex `apex`,
    and the boundary runs along the polygon from there.  The labels read
    the same both ways round from "a" (c and d each stand for two polygon
    vertices), and the layout picks a side from edge lengths alone, so the
    net is the source or its mirror image: two rigid alignments, not the
    24 correspondences `congruent_to_polygon` searches.
    """
    src = net.boundary
    dst = poly.vertices
    m = len(src)
    corner = net.boundary_labels.index("a")
    mirror = tuple((x, -y) for x, y in reversed(src))
    turn = (corner - apex) % m
    back = (m - 1 - corner - apex) % m
    dev = min(
        best_rigid_alignment(src[turn:] + src[:turn], dst)[0],
        best_rigid_alignment(mirror[back:] + mirror[:back], dst)[0],
    )
    return dev <= tol


def audit_halving(poly, fold_index, cfg=DEFAULT_CONFIG, *, fat=None):
    """Full per-halving pipeline: gluing, curvatures, geodesics, 3D, net.

    One engine and its distance table (one shared search per cone point,
    answering a shortest query per unordered cone-point pair and the
    zipper enumerations) supply the zipper lengths, the "nothing shorter"
    check, the unit-disk verdicts and, for hexagons, the tetrahedron
    metric.  For n > 6 there is no general
    embedding step, so the audit stops after the intrinsic checks
    (curvatures, zipper distances, disk emptiness).  `fat` is the source's
    validation verdict when the caller has it (None: validate here).
    Returns (audit, gluing).
    """
    tol = cfg.tolerances
    audit = HalvingAudit(fold_index=fold_index)
    g, curv, engine = fold_halving(poly, fold_index, cfg)
    audit.curvature = curv
    audit.gauss_bonnet_residual = curv.total - FOUR_PI
    table = engine.distance_table(tol)

    lengths = []
    statuses = []
    empties = []
    for i, j in g.zipper_pairs():
        res = table.result(i, j)
        if res.status != FOUND:
            statuses.append(INCONC if res.status == INCONCLUSIVE else FAIL)
            lengths.append(float("nan"))
            continue
        lengths.append(res.path.length)
        statuses.append(_tri(abs(res.path.length - 1.0) <= tol.tol_geodesic))
        enum = table.enumerations[(i, j)]
        if not enum.complete:
            empties.append(INCONC)
        else:
            empties.append(_tri(len(enum.paths) == 0))
    audit.zipper_lengths = tuple(lengths)
    audit.zipper_status = _combine(statuses)
    audit.lemma3_empty_status = _combine(empties)

    audit.disk_status = _combine(
        _DISK_STATUS[table.disk(k, radius=1.0, tol=tol.tol_geodesic).status]
        for k in range(len(g.cone_points))
    )

    if fat is None:
        fat = validate(poly, tol).fat_ok
    try:
        overhang_audit(g, 0, fat=fat)  # raises past the fat-source bound
    except GeodesicError as exc:
        audit.error = str(exc)

    if poly.n != 6:
        return audit, g

    try:
        audit.metric, audit.tetra = halving_tetrahedron(engine, fat, tol)
    except (GeodesicError, MetricError) as exc:
        audit.error = str(exc)
        mark = (
            INCONC
            if getattr(exc, "status", None) == INCONCLUSIVE
            else FAIL
        )
        audit.angle_sum_status = mark
        audit.net_simple_status = mark
        audit.roundtrip_status = mark
        return audit, g

    sums = vertex_angle_sums(audit.tetra)
    worst = max(
        abs((2.0 * math.pi - sums[label]) - curv.curvatures[k])
        for k, label in enumerate("abcd")
    )
    audit.angle_sum_status = _tri(worst <= tol.tol_angle_sum)

    net = netmod.cut_and_unfold(audit.tetra)
    audit.net_simple_status = _tri(netmod.is_simple(net))
    apex = g.cone_points[0].vertices[0]
    audit.roundtrip_status = _tri(matches_source(net, poly, apex, tol.tol_congruence))
    return audit, g


@dataclass
class VerifyOutcome:
    report: object  # ValidationReport
    independence: object
    hypotheses_ok: bool
    forced: bool
    intrinsic_only: bool = False
    audits: list = field(default_factory=list)
    distinct_by_curvature: object = None
    tetra_pairwise_incongruent: str = INCONC
    status: str = INCONC

    def combined(self, name):
        """One status over every halving's `name` status (inconclusive without audits)."""
        return _combine(getattr(a, name) for a in self.audits) if self.audits else INCONC

    def hypothesis_lines(self):
        rep = self.report
        return [
            ("hypothesis.equilateral", _tri(rep.equilateral_ok)),
            ("hypothesis.convex", _tri(rep.strictly_convex)),
            ("hypothesis.fat", _tri(rep.fat_ok)),
            ("hypothesis.independent", _tri(self.independence.all_independent)),
            ("diagonals.at_least_1", _tri(rep.diagonal_ok)),
        ]

    def lemma_lines(self):
        """The lemma chain on the folded surfaces (skipped without audits)."""
        if not self.audits:
            return []
        lines = []
        gb = max(abs(a.gauss_bonnet_residual) for a in self.audits)
        lines.append(("curvature.total_4pi", _tri(gb <= 1e-8)))
        lines.append(("disks.unit_radius_empty", self.combined("disk_status")))
        lines.append(("zipper.edges_length_1", self.combined("zipper_status")))
        lines.append(("zipper.nothing_shorter", self.combined("lemma3_empty_status")))
        lines.append(("distinctness.tetrahedra", self.distinct_status()))
        if not self.intrinsic_only:
            lines.append(("embedding.angle_sums_match", self.combined("angle_sum_status")))
            lines.append(("net.simple", self.combined("net_simple_status")))
            lines.append(("net.matches_source", self.combined("roundtrip_status")))
        return lines

    def scorecard(self):
        return self.hypothesis_lines() + self.lemma_lines()

    @property
    def lemma_status(self):
        lines = self.lemma_lines()
        return _combine(s for _, s in lines) if lines else INCONC

    def distinct_status(self):
        """Combined distinctness verdict.

        Curvature multiset mismatch alone certifies incongruence; matching
        multisets stay undecided until the embedded congruence test runs.
        """
        curv_ok = (
            self.distinct_by_curvature is not None
            and self.distinct_by_curvature.all_incongruent
        )
        if self.intrinsic_only:
            return PASS if curv_ok else INCONC
        if self.tetra_pairwise_incongruent == PASS or curv_ok:
            return PASS
        return self.tetra_pairwise_incongruent


def verify_polygon(poly, cfg=DEFAULT_CONFIG, force=False, *, report=None, independence=None):
    """The full audit: hypotheses, then the lemma chain per halving.

    Without force, hypothesis failure short-circuits (status "fail"); with
    force the lemma checks still run (exploration mode) but the overall
    status remains "fail" because the hypotheses do not hold.  `report`
    and `independence` are the polygon's validation report and
    independence screen when the caller already has them, as a sweep has
    from its sampler (None: compute them here).
    """
    tol = cfg.tolerances
    if report is None:
        report = validate(poly, tol)
    if independence is None:
        independence = check_independence(report.angles, cfg.independence_bound)
    hypotheses_ok = report.theorem_ok and independence.all_independent
    outcome = VerifyOutcome(
        report=report,
        independence=independence,
        hypotheses_ok=hypotheses_ok,
        forced=force and not hypotheses_ok,
        intrinsic_only=poly.n != 6,
    )
    if not hypotheses_ok and not force:
        outcome.status = FAIL
        return outcome

    for i in range(poly.n // 2):
        outcome.audits.append(audit_halving(poly, i, cfg, fat=report.fat_ok)[0])
    outcome.distinct_by_curvature = gl.distinct_check(
        [a.curvature for a in outcome.audits], tol.tol_curvature
    )

    tets = [a.tetra for a in outcome.audits]
    if not outcome.intrinsic_only and all(t is not None for t in tets) and len(tets) >= 2:
        incong = all(
            not congruent_tetrahedra(tets[i], tets[j], tol.tol_congruence)
            for i in range(len(tets))
            for j in range(i + 1, len(tets))
        )
        outcome.tetra_pairwise_incongruent = _tri(incong)

    if hypotheses_ok:
        outcome.status = _combine(s for _, s in outcome.lemma_lines())
    else:
        outcome.status = FAIL
    return outcome


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

SWEEP_COLUMNS = (
    "seed",
    "n",
    "fat",
    "status",
    "angles",
    "gauss_bonnet_max_abs_residual",
    "zipper_max_abs_error",
    "zipper_status",
    "nothing_shorter_status",
    "disk_status",
    "curvature_multisets_distinct",
    "tetra_incongruent",
    "net_simple_status",
    "roundtrip_status",
)


@dataclass
class SweepRecord:
    seed: int
    n: int
    fat: bool
    status: str
    angles: tuple
    gauss_bonnet_max_abs_residual: float
    zipper_max_abs_error: float
    zipper_status: str
    nothing_shorter_status: str
    disk_status: str
    curvature_multisets_distinct: str
    tetra_incongruent: str
    net_simple_status: str
    roundtrip_status: str
    wall_seconds: float  # kept out of the CSV so reports stay byte-stable

    def to_row(self):
        return [
            str(self.seed),
            str(self.n),
            "1" if self.fat else "0",
            self.status,
            ";".join(f"{a:.17g}" for a in self.angles),
            f"{self.gauss_bonnet_max_abs_residual:.3e}",
            f"{self.zipper_max_abs_error:.3e}",
            self.zipper_status,
            self.nothing_shorter_status,
            self.disk_status,
            self.curvature_multisets_distinct,
            self.tetra_incongruent,
            self.net_simple_status,
            self.roundtrip_status,
        ]


def sweep_one(seed, n, cfg=DEFAULT_CONFIG, thin=False):
    """Sample one polygon for the seed and run the full pipeline on it.

    Thin mode (control experiments) accepts any strictly convex polygon,
    with or without independent angles, so most thin samples are fat
    anyway; the audit runs whether or not the hypotheses hold, and its per
    record status is the lemma status.
    """
    t0 = time.perf_counter()
    poly, rep, independence = _sample_ngon(
        n,
        seed,
        independence_bound=cfg.independence_bound,
        fat=not thin,
        require_independent=not thin,
        cfg=cfg.tolerances,
    )
    outcome = verify_polygon(poly, cfg, force=thin, report=rep, independence=independence)

    gb = float("nan")
    if outcome.audits:
        gb = max(abs(a.gauss_bonnet_residual) for a in outcome.audits)
    # an unresolved zipper distance (nan) leaves the error unknown
    lengths = [length for a in outcome.audits for length in a.zipper_lengths]
    zerr = float("nan")
    if lengths and not any(math.isnan(length) for length in lengths):
        zerr = max(abs(length - 1.0) for length in lengths)

    status = outcome.lemma_status if thin else outcome.status
    record = SweepRecord(
        seed=seed,
        n=n,
        fat=rep.fat_ok,
        status=status,
        angles=rep.angles,
        gauss_bonnet_max_abs_residual=gb,
        zipper_max_abs_error=zerr,
        zipper_status=outcome.combined("zipper_status"),
        nothing_shorter_status=outcome.combined("lemma3_empty_status"),
        disk_status=outcome.combined("disk_status"),
        curvature_multisets_distinct=_tri(outcome.distinct_by_curvature.all_incongruent)
        if outcome.distinct_by_curvature is not None
        else INCONC,
        tetra_incongruent=outcome.tetra_pairwise_incongruent,
        net_simple_status=outcome.combined("net_simple_status"),
        roundtrip_status=outcome.combined("roundtrip_status"),
        wall_seconds=time.perf_counter() - t0,
    )
    return record, poly


def summarize_records(records):
    total = len(records)
    buckets = {"fat": [r for r in records if r.fat], "thin": [r for r in records if not r.fat]}
    summary = {"total": total}
    for name, rows in buckets.items():
        if not rows:
            continue
        summary[name] = {
            "count": len(rows),
            "pass": sum(1 for r in rows if r.status == PASS),
            "fail": sum(1 for r in rows if r.status == FAIL),
            "inconclusive": sum(1 for r in rows if r.status == INCONC),
        }
    return summary
