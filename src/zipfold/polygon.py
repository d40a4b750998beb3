"""Equilateral convex polygons: validation, construction, sampling, file io.

The polygons handled here have all edges of length 1 and even vertex count
n >= 6.  A polygon is "fat" when every interior angle lies strictly inside
(pi/3, pi); fat polygons are the admissible sources for the folding
pipeline, while weakly convex ones (some angle equal to pi) are kept around
as flagged degenerate inputs for control experiments.
"""

import functools
import itertools
import json
import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, MalformedPolygonError, SamplingBudgetError, ZipfoldError
from .geometry import first_close_pair, polygon_signed_area, turns

TWO_PI = 2.0 * math.pi

# Closure geometry: a gap chord shorter than _CLOSED_CHAIN_CUTOFF leaves no
# room for the two closing edges, vertices nearer than _COINCIDENT_CUTOFF
# coincide, and a corner cross product down to -_CONVEX_SLACK still counts
# as convex.
_CLOSED_CHAIN_CUTOFF = 1e-12
_COINCIDENT_CUTOFF = 1e-9
_CONVEX_SLACK = 1e-12
# two vertices of an input polygon nearer than this are one repeated vertex
_REPEATED_VERTEX_CUTOFF = 1e-12

# The sampler draws its attempts in blocks (_attempt_batch) and screens each
# block in one numpy pass whose bounds are widened by _PREFILTER_MARGIN
# (radians, or unit lengths for the gap chord).  The margin exceeds, by
# orders of magnitude, both the rounding gap between the vectorized and the
# scalar closure (about 1e-14 in a coordinate) and what it becomes through
# the acos of a chord near 2 (about 3e-7 in an angle), so the screen never
# drops an attempt the scalar checks would keep.
_SAMPLE_BATCH = 32  # attempts per block for hexagons
_SAMPLE_BATCH_CAP = 1024
_PREFILTER_MARGIN = 1e-5
_TURN_MARGIN = 1e-3  # free turns are drawn from (margin, cap - margin)
# the independence screen's residual tolerance, for check_independence and
# the sampler alike; a best residual in [tol, _INCONCLUSIVE_BAND * tol) is
# inconclusive
INDEPENDENCE_TOL = 1e-9
_INCONCLUSIVE_BAND = 10.0


@dataclass(frozen=True)
class Tolerances:
    """Numeric tolerances for the whole pipeline.

    Predicate-level checks run at 1e-9; end-to-end congruence checks at
    1e-6 (a double-precision budget for roughly ten compounding steps).
    """

    tol_len: float = 1e-9
    tol_ang: float = 1e-9
    tol_convex: float = 1e-9
    tol_curvature: float = 1e-8
    tol_clearance: float = 1e-9
    tol_geodesic: float = 1e-9
    tol_embed: float = 1e-8
    tol_angle_sum: float = 1e-7
    tol_vol: float = 1e-12
    tol_congruence: float = 1e-6

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"tolerance {name} must be finite and positive, got {value}")


DEFAULT_TOLERANCES = Tolerances()


@dataclass(frozen=True)
class EquilateralPolygon:
    """Planar polygon given as an ordered (x, y) vertex tuple.

    The constructor only checks basic shape; `validate` is the gate that
    enforces the unit-edge / convexity / fatness hypotheses.
    """

    vertices: tuple

    def __post_init__(self):
        verts = tuple((float(x), float(y)) for x, y in self.vertices)
        if len(verts) < 3:
            raise MalformedPolygonError("polygon needs at least 3 vertices")
        for x, y in verts:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise MalformedPolygonError("non-finite vertex coordinate")
        object.__setattr__(self, "vertices", verts)

    @property
    def n(self):
        return len(self.vertices)

    def as_array(self):
        return np.asarray(self.vertices, dtype=float)

    def as_complex(self):
        return [complex(x, y) for x, y in self.vertices]

    def edge_lengths(self):
        pts = self.vertices
        n = len(pts)
        return tuple(
            math.hypot(pts[(i + 1) % n][0] - pts[i][0], pts[(i + 1) % n][1] - pts[i][1])
            for i in range(n)
        )


@dataclass(frozen=True)
class AngleProfile:
    """Interior angles in radians, plus the closure residual of their sum."""

    angles: tuple
    sum_residual: float

    @property
    def n(self):
        return len(self.angles)


@dataclass(frozen=True)
class DiagonalReport:
    lengths: tuple
    min_length: float
    violations: tuple  # indices i with |v_i v_{i+n/2}| < 1 - tol


@dataclass(frozen=True)
class ValidationReport:
    n: int
    equilateral_ok: bool
    edge_max_error: float
    convexity_ok: bool
    strictly_convex: bool
    weak_vertices: tuple
    fat_ok: bool
    fat_violations: tuple
    angle_sum_residual: float
    angle_sum_ok: bool
    diagonal_ok: bool
    min_diagonal: float
    angles: tuple

    @property
    def geometric_ok(self):
        """Unit edges, convex (weakly allowed), consistent angle sum."""
        return self.equilateral_ok and self.convexity_ok and self.angle_sum_ok

    @property
    def theorem_ok(self):
        """Full geometric hypotheses: strictly convex and fat on top."""
        return self.geometric_ok and self.strictly_convex and self.fat_ok and self.diagonal_ok

    def to_dict(self):
        return {**asdict(self), "geometric_ok": self.geometric_ok, "theorem_ok": self.theorem_ok}


def _check_malformed(poly):
    n = poly.n
    if n < 6:
        raise MalformedPolygonError(f"n={n} is below the minimum of 6")
    if n % 2 != 0:
        raise MalformedPolygonError(f"n={n} is odd; perimeter halving needs even n")
    pair = first_close_pair(poly.vertices, _REPEATED_VERTEX_CUTOFF)
    if pair is not None:
        raise MalformedPolygonError(f"repeated vertex: indices {pair[0]} and {pair[1]}")


def interior_angles(poly):
    """Interior angles from adjacent edge vectors.

    Accepts an EquilateralPolygon or a bare vertex sequence (handy for
    unit-test shapes like the square that the main gate rejects).
    """
    pts = poly.vertices if isinstance(poly, EquilateralPolygon) else tuple(
        (float(x), float(y)) for x, y in poly
    )
    n = len(pts)
    angles = []
    for i in range(n):
        px, py = pts[(i - 1) % n]
        cx, cy = pts[i]
        nx, ny = pts[(i + 1) % n]
        u = (px - cx, py - cy)
        v = (nx - cx, ny - cy)
        cr = u[0] * v[1] - u[1] * v[0]
        dt = u[0] * v[0] + u[1] * v[1]
        ang = math.atan2(abs(cr), dt)
        angles.append(ang)
    residual = sum(angles) - (n - 2) * math.pi
    return AngleProfile(tuple(angles), residual)


def diagonal_lengths(poly, tol_len=DEFAULT_TOLERANCES.tol_len):
    """Lengths of the n/2 opposite-vertex diagonals |v_i v_{i+n/2}|.

    Any diagonal below 1 - tol_len is flagged: for an equilateral convex
    polygon those diagonals can never be shorter than an edge.
    """
    pts = poly.vertices
    n = len(pts)
    half = n // 2
    lengths = []
    violations = []
    for i in range(half):
        j = i + half
        d = math.hypot(pts[j][0] - pts[i][0], pts[j][1] - pts[i][1])
        lengths.append(d)
        if d < 1.0 - tol_len:
            violations.append(i)
    return DiagonalReport(tuple(lengths), min(lengths), tuple(violations))


def validate(poly, cfg=DEFAULT_TOLERANCES):
    """Check every folding hypothesis on an input polygon.

    Returns a ValidationReport; raises MalformedPolygonError for inputs
    that are not even worth a report (odd n, n < 6, repeated vertices, or
    coordinates so large that an interior angle is not finite).  Weak
    convexity (cross product ~ 0 at some vertex) passes the convexity check
    but is flagged and fails fatness.
    """
    _check_malformed(poly)
    n = poly.n

    edge_err = max(abs(l - 1.0) for l in poly.edge_lengths())
    equilateral_ok = edge_err <= cfg.tol_len

    crosses = turns(poly.vertices)
    convexity_ok = all(c >= -cfg.tol_convex for c in crosses)
    weak = tuple((i + 1) % n for i, c in enumerate(crosses) if abs(c) <= cfg.tol_convex)
    strictly_convex = convexity_ok and not weak

    prof = interior_angles(poly)
    # every angle is finite, and so is their sum, unless a corner product overflowed
    if not math.isfinite(prof.sum_residual):
        raise MalformedPolygonError("an interior angle is not finite: the coordinates are too large")
    lo = math.pi / 3.0 + cfg.tol_ang
    hi = math.pi - cfg.tol_ang
    fat_violations = tuple(i for i, a in enumerate(prof.angles) if not (lo < a < hi))
    fat_ok = convexity_ok and not fat_violations
    angle_sum_ok = abs(prof.sum_residual) <= n * cfg.tol_ang

    diag = diagonal_lengths(poly, cfg.tol_len)

    return ValidationReport(
        n=n,
        equilateral_ok=equilateral_ok,
        edge_max_error=edge_err,
        convexity_ok=convexity_ok,
        strictly_convex=strictly_convex,
        weak_vertices=weak,
        fat_ok=fat_ok,
        fat_violations=fat_violations,
        angle_sum_residual=prof.sum_residual,
        angle_sum_ok=angle_sum_ok,
        diagonal_ok=not diag.violations,
        min_diagonal=diag.min_length,
        angles=prof.angles,
    )


# ---------------------------------------------------------------------------
# rational-dependence screening
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairDependence:
    i: int
    j: int
    status: str  # "dependent" | "independent" | "inconclusive"
    witness: tuple | None  # (a, b) as Fractions: angle_y = a*pi + b*angle_x
    direction: tuple | None  # (x_index, y_index) the witness refers to
    residual: float


class IndependenceReport:
    """The screen's verdict on every angle pair at one height bound and tol.

    all_independent is true when every pair is "independent", and comes
    decided.  pairs maps each pair (i, j), i < j, to its PairDependence;
    build_pairs() makes that dict, with every witness and residual, when
    pairs is first read.
    """

    def __init__(self, bound, tol, all_independent, build_pairs):
        self.bound = bound
        self.tol = tol
        self.all_independent = all_independent
        self._build_pairs = build_pairs

    def __repr__(self):
        return f"IndependenceReport(bound={self.bound!r}, tol={self.tol!r})"

    @functools.cached_property
    def pairs(self):
        return self._build_pairs()

    @property
    def dependent_pairs(self):
        return tuple(sorted(k for k, v in self.pairs.items() if v.status == "dependent"))

    @property
    def inconclusive_pairs(self):
        return tuple(sorted(k for k, v in self.pairs.items() if v.status == "inconclusive"))


class _Grid(NamedTuple):
    """Everything the screen precomputes for one height bound.  The near
    mask, which also depends on the edge, is _near_mask's."""

    rr: np.ndarray  # numerator r of coefficient row b = r/s
    ss: np.ndarray  # denominator s of coefficient row b
    bvals: np.ndarray  # r/s
    bsize: np.ndarray  # |r| + s
    # the distinct floats of bvals, in order of first row, split in two:
    simple: np.ndarray  # those some row of height |r| + s <= _SIMPLE_HEIGHT gives
    rest: np.ndarray  # and the others
    qs: np.ndarray  # denominators q of a = p/q, one column each
    pi_over_q: np.ndarray
    table: np.ndarray  # every distinct p*(pi/q), |p| <= bound, sorted
    below: np.ndarray  # table entry below each searchsorted insertion point
    above: np.ndarray  # table entry at or above it


# _decide_independent bounds every direction on the simple coefficients
# first, b = r/s with |r| + s <= _SIMPLE_HEIGHT (0, +-1/2, +-1, +-2), where
# rational multiples of pi and equal, supplementary, doubled or halved
# angles show, and then the rest in blocks of at most _BLOCK_TARGETS
# targets (51 directions at bound 16).  A block's float arrays then stay
# under 128 KiB, glibc's default mmap threshold, above which each one is
# mapped and page-faulted afresh.  The near mask has _NEAR_BUCKETS_PER_ENTRY
# buckets per table entry (3e-4 wide at bound 16), and at most
# _NEAR_MASK_BYTES buckets in all.
_SIMPLE_HEIGHT = 3
_BLOCK_TARGETS = 16000
_NEAR_BUCKETS_PER_ENTRY = 1024
_NEAR_MASK_BYTES = 1 << 20


@functools.cache
def _grids(bound):
    """The bound's _Grid: its coefficient rows and the sorted table."""
    rr, ss = np.meshgrid(np.arange(-bound, bound + 1), np.arange(1, bound + 1), indexing="ij")
    rr = rr.ravel()
    ss = ss.ravel()
    bvals = rr / ss
    bsize = np.abs(rr) + ss
    # 2/6 and 1/3 are one float: every row-wise fact about a target y - b*x
    # holds for the float b, so the bounds run once per distinct b
    _, first = np.unique(bvals, return_index=True)
    coeffs = bvals[np.sort(first)]
    is_simple = (coeffs[:, None] == bvals[bsize <= _SIMPLE_HEIGHT]).any(axis=1)
    qs = np.arange(1, bound + 1)
    pi_over_q = math.pi / qs
    # the same float products _grid_residuals forms
    table = np.sort((np.arange(-bound, bound + 1)[:, None] * pi_over_q).ravel())
    table = table[np.concatenate(([True], table[1:] != table[:-1]))]
    below = np.concatenate(([-np.inf], table))
    above = np.concatenate((table, [np.inf]))
    return _Grid(
        rr, ss, bvals, bsize, coeffs[is_simple], coeffs[~is_simple],
        qs, pi_over_q, table, below, above,
    )


def _buckets(values, table, scale):
    """The near-mask bucket of each value, a nondecreasing function of it:
    the value clipped to [table[0], table[-1]], shifted and scaled."""
    buf = np.clip(values, table[0], table[-1])
    buf -= table[0]
    buf *= scale
    return buf.astype(np.intp)


@functools.cache
def _near_mask(bound, edge):
    """(mask, scale): mask[k] is set when a value in bucket k may lie
    within edge of an entry of the bound's table.

    Entry e flags the buckets of e - edge, of e + edge and those between.
    Rounding is monotone, so a float whose rounded distance to e is below
    edge lies between e - edge and e + edge, and so between their rounded
    values, and its bucket between their buckets.  The table's ends flag
    the end buckets, so values outside the span and any index that take's
    clip mode clips (a nan's) land on a flag.
    """
    table = _grids(bound).table
    buckets = min(_NEAR_BUCKETS_PER_ENTRY * table.size, _NEAR_MASK_BYTES)
    scale = (buckets - 1) / (table[-1] - table[0])
    first = _buckets(table - edge, table, scale)
    last = _buckets(table + edge, table, scale)
    mask = np.zeros(last[-1] + 1, dtype=bool)
    for f, l in zip(first.tolist(), last.tolist()):
        mask[f:l + 1] = True
    return mask, scale


def _grid_residuals(target, bound):
    """|target - p*(pi/q)| for every q <= bound, p the nearest integer to
    target*q/pi (inf where |p| > bound); rows are targets, columns q."""
    grid = _grids(bound)
    ps = np.rint(target[:, None] * grid.qs / math.pi)
    resid = np.abs(target[:, None] - ps * grid.pi_over_q)
    resid[~(np.abs(ps) <= bound)] = np.inf  # masks nan as well
    return ps, resid


def _direction_witness(x, y, bound, tol):
    """(residual, witness) of y ~ a*pi + b*x over the full grid of rationals
    a = p/q, b = r/s of height <= bound: the simplest hit below tol, ranked
    by |p|+q+|r|+s, then |p|, q, |r|, s, the first hit in row and q order on
    ties; without a hit, the grid's smallest residual and None."""
    grid = _grids(bound)
    ps, resid = _grid_residuals(y - grid.bvals * x, bound)
    bi, qi = np.nonzero(resid < tol)
    if not bi.size:
        return float(resid.min()), None
    p = ps[bi, qi].astype(np.int64)
    q = grid.qs[qi]
    r = grid.rr[bi]
    s = grid.ss[bi]
    # lexsort is stable, so a tie keeps the first hit in row and q order
    k = np.lexsort((s, np.abs(r), q, np.abs(p), np.abs(p) + q + grid.bsize[bi]))[0]
    witness = (Fraction(int(p[k]), int(q[k])), Fraction(int(r[k]), int(s[k])))
    return float(resid[bi[k], qi[k]]), witness


def _near_targets(bound, coeffs, xs, ys, edge):
    """The targets ys[d] - coeffs[c]*xs[d], row c of direction d, within
    edge of the bound's table: only those in a bucket _near_mask flags get
    their distance, by np.searchsorted, which for edge < pi/(4*bound) is
    the full grid's residual (see _decide_independent)."""
    grid = _grids(bound)
    mask, scale = _near_mask(bound, edge)
    targets = coeffs * xs[:, None]
    np.subtract(ys[:, None], targets, out=targets)  # what a*pi has to match
    flagged = targets[mask.take(_buckets(targets, grid.table, scale), mode="clip")]
    at = np.searchsorted(grid.table, flagged)
    # below[at] < target <= above[at], so both differences are >= 0
    dist = np.minimum(flagged - grid.below.take(at), grid.above.take(at) - flagged)
    return flagged[dist < edge]


@functools.cache
def _directions(m):
    """(xi, yi): the source and target index of both directions of every
    pair of m angles, i -> j for every i < j and then j -> i."""
    i, j = np.triu_indices(m, 1)
    return np.concatenate((i, j)), np.concatenate((j, i))


def _decide_independent(arr, bound, tol):
    """Whether every pair of the angles arr is independent: no residual
    below 10*tol in either direction of any pair, which is exactly when
    check_independence calls every pair "independent".

    Each target y - b*x, one per direction and distinct b, goes once
    through _near_targets, and the first call that keeps one within edge =
    10*tol of the table decides False.  Its distance is its grid residual:
    the table holds the very products p*(pi/q) that _grid_residuals forms,
    and a target within edge of p*pi/q has target*q/pi within edge*q/pi <
    1/4 of p (check_independence's limit), so it rounds to p in column q.
    The order of the targets cannot change the decision: the simple rows
    of every direction go first, then the rest in blocks of
    _BLOCK_TARGETS.  A target that overflowed to inf has a nan distance
    and only inf grid residuals, so dropping it changes nothing.
    """
    grid = _grids(bound)
    edge = _INCONCLUSIVE_BAND * tol
    xi, yi = _directions(arr.size)
    xs = arr.take(xi)
    ys = arr.take(yi)
    passes = [(grid.simple, slice(None))]
    if grid.rest.size:
        step = max(1, _BLOCK_TARGETS // grid.rest.size)
        passes += [(grid.rest, slice(k, k + step)) for k in range(0, xs.size, step)]
    for coeffs, block in passes:
        if _near_targets(bound, coeffs, xs[block], ys[block], edge).size:
            return False
    return True


def _pair_dependences(arr, bound, tol):
    """{(i, j): PairDependence} for every pair i < j of the angles arr."""
    pairs = {}
    for i, j in itertools.combinations(range(arr.size), 2):
        res_ij, witness = _direction_witness(arr[i], arr[j], bound, tol)
        if witness is not None:
            pairs[(i, j)] = PairDependence(i, j, "dependent", witness, (i, j), res_ij)
            continue
        # direction j -> i only matters when i -> j has no witness
        res_ji, witness = _direction_witness(arr[j], arr[i], bound, tol)
        if witness is not None:
            pairs[(i, j)] = PairDependence(i, j, "dependent", witness, (j, i), res_ji)
        else:
            residual = min(res_ij, res_ji)
            status = "inconclusive" if residual < _INCONCLUSIVE_BAND * tol else "independent"
            pairs[(i, j)] = PairDependence(i, j, status, None, None, residual)
    return pairs


def check_independence(angles, bound=16, tol=INDEPENDENCE_TOL):
    """Screen all angle pairs for rational dependence y = a*pi + b*x.

    This is a bounded search, not a proof: a hit certifies dependence with
    an explicit rational witness, while "independent" only means no witness
    exists up to the given height bound.  A best residual inside [tol,
    10*tol) is reported as inconclusive since it flips with the tolerance.

    The report's all_independent is decided here (_decide_independent):
    a cached mask over the table of every p*(pi/q) lets through each
    target y - b*x of both directions of every pair that may lie within
    10*tol of the table, on the simple coefficients b first, and their
    exact distance to the table decides.  The pairs are built on first
    read: each pair i < j runs the full residual grid of direction i -> j
    (_direction_witness), and that of j -> i only when i -> j has no
    witness, since only then does the report read it.  ValueError is
    raised for a bound below 1, a non-finite angle (no residual certifies
    it), or 10*tol >= pi/(4*bound): below that limit the table distance
    is the grid's residual (see _decide_independent), and a wider band
    around every p*pi/q would cover most of (0, pi) anyway.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if not _INCONCLUSIVE_BAND * tol < math.pi / (4 * bound):
        raise ValueError(f"10*tol must be below pi/(4*bound), got tol {tol} at bound {bound}")
    arr = np.array([float(a) for a in angles])
    if not np.isfinite(arr).all():
        raise ValueError("angles must be finite")
    return IndependenceReport(
        bound, tol, _decide_independent(arr, bound, tol),
        functools.partial(_pair_dependences, arr, bound, tol),
    )


# ---------------------------------------------------------------------------
# construction by edge directions + two-link closure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClosureResult:
    polygons: tuple
    rejected: tuple  # (branch_sign, reason)
    gap_length: float

    @property
    def ok(self):
        return bool(self.polygons)


def solve_closure(directions):
    """Build a unit-edge polygon from the directions of its first n-2 edges.

    Edges e_0 .. e_{n-3} are placed with the given absolute directions; the
    final two unit edges are solved as a two-link chain closing the gap
    back to the start (possible iff the gap chord is at most 2).  Both
    elbow branches are candidate outputs; branches that close into a
    non-convex or non-counterclockwise loop are rejected with a reason.
    """
    dirs = [float(t) for t in directions]
    if len(dirs) < 4:
        raise ValueError("need at least 4 edge directions (hexagon case)")
    n = len(dirs) + 2

    pts = [complex(0.0, 0.0)]
    z = complex(0.0, 0.0)
    for th in dirs:
        z += complex(math.cos(th), math.sin(th))
        pts.append(z)
    gap = -z  # from the last placed vertex back to the origin
    glen = abs(gap)
    if glen > 2.0:
        return ClosureResult((), (("*", f"gap chord length {glen:.6f} exceeds 2"),), glen)
    if glen < _CLOSED_CHAIN_CUTOFF:
        return ClosureResult((), (("*", "chain already closed; no room for two unit edges"),), glen)

    base = math.atan2(gap.imag, gap.real)
    delta = math.acos(min(1.0, glen / 2.0))
    polygons = []
    rejected = []
    for sign in (1.0, -1.0):
        th4 = base + sign * delta
        elbow = pts[-1] + complex(math.cos(th4), math.sin(th4))
        verts = [(p.real, p.imag) for p in pts] + [(elbow.real, elbow.imag)]
        reason = _closure_reject_reason(verts)
        if reason is None:
            polygons.append(EquilateralPolygon(tuple(verts)))
        else:
            rejected.append(("+" if sign > 0 else "-", reason))
    return ClosureResult(tuple(polygons), tuple(rejected), glen)


def _closure_reject_reason(verts):
    if first_close_pair(verts, _COINCIDENT_CUTOFF) is not None:
        return "degenerate: coincident vertices"
    if polygon_signed_area(verts) <= 0:
        return "not counterclockwise"
    if any(t < -_CONVEX_SLACK for t in turns(verts)):
        return "polygon not convex"
    return None


def regular_ngon(n):
    """Unit-edge regular n-gon with first edge along +x, first vertex at 0."""
    step = TWO_PI / n
    dirs = [k * step for k in range(n - 2)]
    res = solve_closure(dirs)
    if not res.ok:
        raise ZipfoldError(f"regular {n}-gon closure failed unexpectedly")
    return res.polygons[0]


def sample_fat_ngon(n, seed, **kwargs):
    """The polygon of _sample_ngon, which documents the keyword arguments."""
    return _sample_ngon(n, seed, **kwargs)[0]


def _sample_ngon(
    n,
    seed,
    max_attempts=10000,
    require_independent=True,
    independence_bound=16,
    fat=True,
    cfg=DEFAULT_TOLERANCES,
):
    """Rejection-sample a valid unit-edge convex n-gon, deterministic per seed.

    Draws the free turn angles uniformly, closes the chain with two unit
    edges, and keeps the first closure branch that passes validation.  With
    fat=True only fat polygons (all angles strictly inside (pi/3, pi)) are
    accepted; with fat=False any strictly convex equilateral polygon
    qualifies, which is how thin control samples are produced.  Returns
    (polygon, its ValidationReport, its IndependenceReport), the last None
    when require_independent is off and the screen did not run.

    Attempts are drawn a block at a time, from the same random stream
    that one draw per attempt gives, and screened in one numpy pass
    (_closable_attempts) on the turn sum, the gap chord and the three
    closing turns of both elbow branches.  Only the survivors, in attempt
    order, go through solve_closure, validate and the independence screen,
    so the result and the attempt that exhausts max_attempts are those of
    trying every attempt in turn.
    """
    if n < 6 or n % 2:
        raise MalformedPolygonError(f"sampler needs even n >= 6, got {n}")
    rng = np.random.default_rng(seed)
    cap = TWO_PI / 3.0 if fat else math.pi  # largest turn of an accepted corner
    lo, hi = _TURN_MARGIN, cap - _TURN_MARGIN
    batch = _attempt_batch(n)
    for start in range(0, max_attempts, batch):
        block = rng.uniform(lo, hi, size=(min(batch, max_attempts - start), n - 3))
        for turns in block[_closable_attempts(block, cap)]:
            dirs = [0.0]
            acc = 0.0
            for t in turns:
                acc += t
                dirs.append(acc)
            if acc >= TWO_PI:
                continue
            res = solve_closure(dirs)
            for poly in res.polygons:
                rep = validate(poly, cfg)
                if not (rep.equilateral_ok and rep.strictly_convex and rep.angle_sum_ok):
                    continue
                if fat and not rep.fat_ok:
                    continue
                ind = None
                if require_independent:
                    ind = check_independence(rep.angles, independence_bound)
                    if not ind.all_independent:
                        continue
                return poly, rep, ind
    raise SamplingBudgetError(max_attempts)


def _attempt_batch(n):
    """Attempts drawn per block for an n-gon.

    Four times as many per two more vertices: the share of draws that close
    into a fat polygon falls about tenfold (roughly 1/4, 1/25 and 1/250 for
    n = 6, 8 and 10), and one screening pass costs about the same for a few
    rows as for a few hundred.
    """
    return min(_SAMPLE_BATCH << (n - 6), _SAMPLE_BATCH_CAP)


def _closable_attempts(turns, cap):
    """Mask of the attempts (rows of drawn turns) that may close validly.

    An attempt is kept while its turns sum below 2*pi, its gap chord is at
    most 2, and on one elbow branch each closing turn (at the last placed
    vertex, at the elbow and at vertex 0) lies in (0, cap) and the chain
    winds once.  A corner that validates as strictly convex, or fat when cap
    is 2*pi/3, turns by such an angle, and a chain that winds twice fails
    the angle sum.  Every bound is widened by _PREFILTER_MARGIN.  The turn
    sum goes first: only the rows it keeps reach the closure pass, which
    most decagon draws never do.
    """
    dirs = np.cumsum(turns, axis=1)
    keep = dirs[:, -1] < TWO_PI + _PREFILTER_MARGIN
    dirs = dirs[keep]
    last = dirs[:, -1]
    gap = -1.0 - np.exp(1j * dirs).sum(axis=1)  # from the last placed vertex to vertex 0
    glen = np.abs(gap)
    # row 0 is the + elbow branch of solve_closure, row 1 the - branch
    delta = np.arccos(np.minimum(1.0, glen / 2.0)) * np.array([[1.0], [-1.0]])
    th4 = np.angle(gap) + delta  # the elbow's incoming edge
    th5 = th4 - 2.0 * delta  # the closing edge into vertex 0
    # the closing turns, wrapped into [-margin, 2*pi - margin) so that a
    # turn near pi stays there
    closing = np.stack((th4 - last, th5 - th4, -th5)) + _PREFILTER_MARGIN
    closing = np.mod(closing, TWO_PI) - _PREFILTER_MARGIN
    # the turns of a closed chain add up to a multiple of 2*pi, and to
    # 2*pi itself only when it winds once, as a convex polygon does
    winds_once = last + closing.sum(axis=0) < 3.0 * math.pi
    branch_ok = ((closing < cap + _PREFILTER_MARGIN).all(axis=0) & winds_once).any(axis=0)
    keep[keep] = (glen <= 2.0 + _PREFILTER_MARGIN) & branch_ok
    return keep


def sample_fat_hexagon(seed, **kwargs):
    """Hexagon specialization of sample_fat_ngon (the theorem's case)."""
    return sample_fat_ngon(6, seed, **kwargs)


# ---------------------------------------------------------------------------
# file io
# ---------------------------------------------------------------------------

def _finite(value, what):
    """float(value), or MalformedPolygonError unless value is an int or a
    float (a bool is neither, as in JSON) whose float is finite."""
    try:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError
        x = float(value)
    except (TypeError, OverflowError):
        raise MalformedPolygonError(f"{what} must be a number, got {value!r}") from None
    if not math.isfinite(x):
        raise MalformedPolygonError(f"{what} must be finite, got {value!r}")
    return x


def polygon_from_dict(data):
    """Decode the polygon file schema: either "vertices" or "turns".

    "vertices" is an [[x, y], ...] loop; "turns" is the list of edge
    directions handed to solve_closure.  Mixed files, and any coordinate or
    direction that is not a finite number, are rejected.  data has the
    shape json.load gives a polygon file, also when it comes from Python:
    lists, not tuples, and numbers, not numeric strings or booleans.
    """
    if not isinstance(data, dict):
        raise MalformedPolygonError("polygon file must contain a JSON object")
    has_v = "vertices" in data
    has_t = "turns" in data
    if has_v and has_t:
        raise MalformedPolygonError('polygon file mixes "vertices" and "turns"')
    if has_v:
        verts = data["vertices"]
        if not isinstance(verts, list) or any(not isinstance(p, list) or len(p) != 2 for p in verts):
            raise MalformedPolygonError('"vertices" must be a list of [x, y] pairs')
        return EquilateralPolygon(tuple(
            (_finite(x, f"vertex {k} x"), _finite(y, f"vertex {k} y")) for k, (x, y) in enumerate(verts)
        ))
    if has_t:
        turns = data["turns"]
        if not isinstance(turns, list) or len(turns) < 4:
            raise MalformedPolygonError('"turns" must list at least 4 edge directions')
        res = solve_closure([_finite(t, f"turn {k}") for k, t in enumerate(turns)])
        if not res.ok:
            reasons = "; ".join(r for _, r in res.rejected)
            raise MalformedPolygonError(f"turns do not close into a convex polygon: {reasons}")
        return res.polygons[0]
    raise MalformedPolygonError('polygon file needs "vertices" or "turns"')


def load_polygon(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # bad JSON, bad UTF-8, or an integer too long to parse
            raise MalformedPolygonError(f"invalid JSON: {exc}") from exc
    return polygon_from_dict(data)


def save_polygon(poly, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"vertices": [[x, y] for x, y in poly.vertices]}, fh, indent=2)
        fh.write("\n")
