"""Orchestration of the fold / verify / sweep pipelines.

Everything here is pure computation over one polygon (or one seed range);
the CLI layer only parses arguments, calls in, and formats.  Verdicts are
tri-state ("pass" / "fail" / "inconclusive"): an exhausted geodesic search
never silently counts as either success or failure.

VERDICTS is the one table of lemma verdicts.  A row names a verdict's
`verify` scorecard line and its sweep CSV column, where it has them, and
what judges it: each halving (SURFACE), each halving of a hexagon, which
alone is embedded in 3D (SOLID), or the polygon as a whole (POLYGON).
`audit_halving` keys a halving's statuses by scorecard line,
`verify_polygon` combines them over the halvings and adds the polygon's
own verdicts, and the scorecard, the CSV header, `SweepRecord` and
`sweep_one` are read off the table.  A verdict that was not judged (3D
lines of other polygons, or every lemma line when failed hypotheses
skip the audit) is left off the scorecard and is "inconclusive" in the
CSV.
"""

import itertools
import math
import time
from dataclasses import dataclass, field

from . import gluing as gl
from . import net as netmod
from .embed import congruent_tetrahedra, embed, vertex_angle_sums
from .errors import ConfigError, GeodesicError, MetricError
from .geodesic import DEV_CAP, FOUND, INCONCLUSIVE, SETTLED, UNSETTLED, WITNESS, DevelopmentEngine, RootFans
from .geometry import best_rigid_alignment
from .gluing import FOUR_PI
from .polygon import (
    DEFAULT_TOLERANCES,
    INDEPENDENCE_BOUND,
    TWO_PI,
    Tolerances,
    _sample_ngon,
    check_independence,
    validate,
    within_screen_limit,
)

PASS = "pass"
FAIL = "fail"
INCONC = "inconclusive"
_PAIR_STATUS = {WITNESS: FAIL, UNSETTLED: INCONC, SETTLED: PASS}  # a halving's disk status by pair rule


@dataclass(frozen=True)
class PipelineConfig:
    """What the CLI lets a run choose, by default INDEPENDENCE_BOUND and DEV_CAP.
    The screen's residual tolerance and the sampler's attempt budget are the
    defaults of check_independence and _sample_ngon."""

    tolerances: Tolerances = DEFAULT_TOLERANCES
    independence_bound: int = INDEPENDENCE_BOUND
    dev_cap: int = DEV_CAP

    def __post_init__(self):
        bound = self.independence_bound
        if not (bound >= 1 and within_screen_limit(bound)):
            raise ConfigError(f"independence bound must be 1 to 78,539,816 (pi/(40*1e-9), the screen's limit), got {bound}")
        if self.dev_cap < 1:
            raise ConfigError(f"dev cap must be >= 1, got {self.dev_cap}")


DEFAULT_CONFIG = PipelineConfig()


def _tri(ok):
    return PASS if ok else FAIL


def combine(statuses):
    """One status over many: any fail fails, else any inconclusive stays open."""
    seen = set(statuses)
    return FAIL if FAIL in seen else INCONC if INCONC in seen else PASS


SURFACE, SOLID, POLYGON = "surface", "solid", "polygon"

# The lemma verdicts in scorecard order: scorecard line, sweep CSV column,
# the column's place among the CSV status columns (they keep the order
# they were first written in), and what judges it.  None marks a report
# that does not show the verdict.  A verdict is keyed by its line, or by
# its column when it has no line.  audit_halving and verify_polygon give
# the verdicts of each scope in this order.
VERDICTS = (
    ("curvature.total_4pi", None, None, POLYGON),
    ("disks.unit_radius_empty", "disk_status", 2, SURFACE),
    ("zipper.edges_length_1", "zipper_status", 0, SURFACE),
    ("zipper.nothing_shorter", "nothing_shorter_status", 1, SURFACE),
    (None, "curvature_multisets_distinct", 3, POLYGON),
    (None, "tetra_incongruent", 4, POLYGON),
    ("distinctness.tetrahedra", None, None, POLYGON),
    ("embedding.angle_sums_match", None, None, SOLID),
    ("net.simple", "net_simple_status", 5, SOLID),
    ("net.matches_source", "roundtrip_status", 6, SOLID),
)


def _keys(scope):
    return tuple(line or column for line, column, _, s in VERDICTS if s == scope)


_SURFACE_LINES, _SOLID_LINES, _POLYGON_KEYS = _keys(SURFACE), _keys(SOLID), _keys(POLYGON)
# sweep CSV status column -> verdict key, in column order
_CSV_KEYS = {
    column: line or column
    for line, column, _, _ in sorted((row for row in VERDICTS if row[1]), key=lambda row: row[2])
}


@dataclass
class HalvingAudit:
    fold_index: int
    gluing: object = None  # HalvingGluing
    curvature: object = None  # CurvatureVector
    gauss_bonnet_residual: float = float("nan")
    zipper_lengths: tuple = ()
    statuses: dict = field(default_factory=dict)  # scorecard line -> status
    metric: object = None
    tetra: object = None
    net: object = None  # PlanarNet of the tetrahedron
    error: str | None = None


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


def audit_halving(poly, fold_index, cfg=DEFAULT_CONFIG, *, fat=None, fans=None):
    """Full per-halving pipeline: gluing, curvatures, geodesics, 3D, net.

    The halving gets one geodesic engine, whose distance table (one shared
    search per cone point, answering a shortest query per unordered
    cone-point pair and the zipper enumerations) supplies the zipper
    lengths, the "nothing shorter" check, the unit-disk verdicts and, for
    hexagons, the tetrahedron metric, all read from the table's goal
    slots.  For n > 6 there is no general embedding step, so the audit
    stops after the intrinsic checks (curvatures, zipper distances, disk
    emptiness).  `fat` is the source's validation verdict, which only the
    tetrahedron reads, when the caller has it (None: a hexagon validates
    here), and `fans` the polygon's RootFans, which the engines of all its
    halvings share (None: the engine makes its own).  The audit keeps the
    gluing and, for a hexagon that embeds, the metric, the tetrahedron and
    its net, which `fold` writes out.
    """
    tol = cfg.tolerances
    g = gl.glue_halving(poly, fold_index, tol.tol_len)
    curv = gl.cone_angles(g, tol.tol_curvature)
    audit = HalvingAudit(
        fold_index, gluing=g, curvature=curv, gauss_bonnet_residual=curv.total - FOUR_PI
    )
    table = DevelopmentEngine(g, cfg.dev_cap, tol, fans).distance_table()

    lengths = []
    statuses = []
    empties = []
    for i, j in g.zipper_pairs():
        enum = table.enumerated[i, j]
        empties.append(_tri(not enum.finds) if enum.frontier == math.inf else INCONC)
        status, length = table.shortest[min(i, j), max(i, j)].best()
        if status != FOUND:
            statuses.append(INCONC if status == INCONCLUSIVE else FAIL)
            lengths.append(float("nan"))
            continue
        lengths.append(length)
        statuses.append(_tri(abs(length - 1.0) <= tol.tol_geodesic))
    audit.zipper_lengths = tuple(lengths)
    disks = combine(_PAIR_STATUS[table.pair_disk(pair)] for pair in table.shortest)
    audit.statuses = dict(zip(_SURFACE_LINES, (disks, combine(statuses), combine(empties))))

    if poly.n != 6:
        return audit

    if fat is None:
        fat = validate(poly, tol).fat_ok
    try:
        metric = table.tetra_metric(fat)
        audit.metric, audit.tetra = metric, embed(metric, tol.tol_vol, tol.tol_embed)
    except (GeodesicError, MetricError) as exc:
        audit.error = str(exc)
        mark = INCONC if getattr(exc, "status", None) == INCONCLUSIVE else FAIL
        audit.statuses.update(dict.fromkeys(_SOLID_LINES, mark))
        return audit

    sums = vertex_angle_sums(audit.tetra)
    worst = max(
        abs((TWO_PI - sums[label]) - curv.curvatures[k])
        for k, label in enumerate("abcd")
    )
    net = audit.net = netmod.cut_and_unfold(audit.tetra)
    apex = g.cone_points[0].vertices[0]
    audit.statuses.update(zip(_SOLID_LINES, (
        _tri(worst <= tol.tol_angle_sum),
        _tri(netmod.is_simple(net)),
        _tri(matches_source(net, poly, apex, tol.tol_congruence)),
    )))
    return audit


def audit_halvings(poly, fold_indices, cfg=DEFAULT_CONFIG, *, fat=None):
    """The audits of the polygon's halvings `fold_indices`, in order; their
    engines share one RootFans.  `fat` is as in audit_halving."""
    fans = RootFans(poly, cfg.tolerances)
    return [audit_halving(poly, i, cfg, fat=fat, fans=fans) for i in fold_indices]


def congruent_pairs(tets, tol):
    """The pairs (i, j), i < j, of keys of `tets` whose tetrahedra are
    congruent within `tol`, lazily and in order: `fold` lists them all,
    `verify` stops at the first."""
    return (
        (i, j)
        for i, j in itertools.combinations(sorted(tets), 2)
        if congruent_tetrahedra(tets[i], tets[j], tol)
    )


@dataclass
class VerifyOutcome:
    report: object  # ValidationReport
    independence: object
    hypotheses_ok: bool
    forced: bool
    audits: list = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)  # verdict key (see VERDICTS) -> status
    gauss_bonnet_max: float = float("nan")  # over the halvings' |curvature total - 4 pi|
    lemma_status: str = INCONC  # the lemma lines combined
    status: str = INCONC

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
        """The lemma chain on the folded surfaces, as far as it was judged."""
        return [(line, self.verdicts[line]) for line, *_ in VERDICTS if line in self.verdicts]

    def scorecard(self):
        return self.hypothesis_lines() + self.lemma_lines()


def verify_polygon(poly, cfg=DEFAULT_CONFIG, force=False, *, report=None, independence=None):
    """The full audit: hypotheses, then the lemma chain per halving.

    Without force, hypothesis failure short-circuits (status "fail"); with
    force the lemma checks still run (exploration mode) but the overall
    status remains "fail" because the hypotheses do not hold.  `report`
    and `independence` are the polygon's validation report and
    independence screen when the caller already has them, as a sweep has
    from its sampler (None: compute them here).

    Distinct curvature multisets alone certify distinct tetrahedra;
    matching multisets leave it to the embedded congruence test, which
    only hexagons get.
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
    )
    if not hypotheses_ok and not force:
        outcome.status = FAIL
        return outcome

    audits = outcome.audits = audit_halvings(poly, range(poly.n // 2), cfg, fat=report.fat_ok)
    outcome.verdicts = {
        line: combine(a.statuses[line] for a in audits) for line in audits[0].statuses
    }
    outcome.gauss_bonnet_max = max(abs(a.gauss_bonnet_residual) for a in audits)
    curvature = gl.distinct_check([a.curvature for a in audits], tol.tol_curvature)
    by_curvature = _tri(curvature.all_incongruent)
    tets = {a.fold_index: a.tetra for a in audits}
    by_tetra = INCONC
    if all(t is not None for t in tets.values()):
        by_tetra = _tri(next(congruent_pairs(tets, tol.tol_congruence), None) is None)
    outcome.verdicts.update(zip(_POLYGON_KEYS, (
        _tri(outcome.gauss_bonnet_max <= tol.tol_curvature),
        by_curvature,
        by_tetra,
        PASS if PASS in (by_curvature, by_tetra) else by_tetra,
    )))
    outcome.lemma_status = combine(s for _, s in outcome.lemma_lines())
    outcome.status = outcome.lemma_status if hypotheses_ok else FAIL
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
) + tuple(_CSV_KEYS)


@dataclass
class SweepRecord:
    seed: int
    n: int
    fat: bool
    status: str
    angles: tuple
    gauss_bonnet_max_abs_residual: float
    zipper_max_abs_error: float
    statuses: dict  # sweep CSV status column -> status
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
        ] + [self.statuses[column] for column in _CSV_KEYS]


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

    # an unresolved zipper distance (nan) leaves the error unknown
    lengths = [length for a in outcome.audits for length in a.zipper_lengths]
    zerr = float("nan")
    if lengths and not any(math.isnan(length) for length in lengths):
        zerr = max(abs(length - 1.0) for length in lengths)

    record = SweepRecord(
        seed=seed,
        n=n,
        fat=rep.fat_ok,
        status=outcome.lemma_status if thin else outcome.status,
        angles=rep.angles,
        gauss_bonnet_max_abs_residual=outcome.gauss_bonnet_max,
        zipper_max_abs_error=zerr,
        statuses={column: outcome.verdicts.get(key, INCONC) for column, key in _CSV_KEYS.items()},
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
