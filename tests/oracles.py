"""Independent brute-force oracles for the geodesic engine tests.

This module deliberately re-implements development from scratch with a
different representation (2x2 rotation matrices instead of complex
arithmetic) and a different search strategy (exhaustive depth-limited DFS
over crossing sequences, no pruning other than an admissible distance cut).
Results are compared against the production engine; the two sides share no
code beyond the gluing data structure.

The rational-dependence screen has a reference here as well: the full
residual grid for every directed angle pair, which the production screen
only falls back to where its sorted-table bounds cannot settle a pair.  It
builds the production report types so the two reports compare by repr.

So does the polygon sampler: the reference tries one attempt at a time,
closing and validating every draw whose turns sum below 2*pi, where the
production sampler screens a batch of attempts in numpy first.  The batch
screen's one-pass formula over every row is kept here too.

The geodesic search's direction cones have a reference too: the clip,
containment and overhang excursion width kept as bearings (`atan2` angles
wrapped with `fmod`), where the engine keeps each cone as its two boundary
rays and decides with orientation signs.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from zipfold.errors import MalformedPolygonError, SamplingBudgetError
from zipfold.polygon import (
    DEFAULT_TOLERANCES,
    TWO_PI,
    IndependenceReport,
    PairDependence,
    check_independence,
    solve_closure,
    validate,
)


def _mat_from_pairs(src0, src1, dst0, dst1):
    """Rotation + translation taking src0->dst0 and src1->dst1 (2x3 matrix)."""
    vs = src1 - src0
    vd = dst1 - dst0
    ang = math.atan2(vd[1], vd[0]) - math.atan2(vs[1], vs[0])
    c, s = math.cos(ang), math.sin(ang)
    rot = np.array([[c, -s], [s, c]])
    trans = dst0 - rot @ src0
    return rot, trans


class BruteForceDeveloper:
    def __init__(self, gluing):
        self.pts = np.asarray(gluing.polygon.vertices, dtype=float)
        self.n = len(self.pts)
        self.partner = {}
        self.step = {}
        for ident in gluing.identifications:
            ea = self._edge_index(ident.a0, ident.a1)
            eb = self._edge_index(ident.b0, ident.b1)
            self.partner[ea] = eb
            self.partner[eb] = ea
            self.step[ea] = _mat_from_pairs(
                self.pts[ident.b0], self.pts[ident.b1], self.pts[ident.a0], self.pts[ident.a1]
            )
            self.step[eb] = _mat_from_pairs(
                self.pts[ident.a0], self.pts[ident.a1], self.pts[ident.b0], self.pts[ident.b1]
            )
        self.cone_points = gluing.cone_points

    def _edge_index(self, u, v):
        if (u + 1) % self.n == v:
            return u
        assert (v + 1) % self.n == u
        return v

    def _apply(self, rot, trans, p):
        return rot @ p + trans

    def _edge_seg(self, rot, trans, j):
        return (
            self._apply(rot, trans, self.pts[j]),
            self._apply(rot, trans, self.pts[(j + 1) % self.n]),
        )

    @staticmethod
    def _seg_dist(p, a, b):
        ab = b - a
        denom = float(ab @ ab)
        if denom < 1e-30:
            return float(np.hypot(*(p - a)))
        t = min(1.0, max(0.0, float((p - a) @ ab) / denom))
        return float(np.hypot(*(p - a - t * ab)))

    @staticmethod
    def _crossing(p0, p1, a, b):
        d1 = p1 - p0
        d2 = b - a
        denom = d1[0] * d2[1] - d1[1] * d2[0]
        if abs(denom) < 1e-15:
            return None
        w = a - p0
        t = (w[0] * d2[1] - w[1] * d2[0]) / denom
        u = (w[0] * d1[1] - w[1] * d1[0]) / denom
        if u <= 0.0 or u >= 1.0:
            return None
        return t

    def _segment_valid(self, s, end, seq, transforms):
        """Check that s->end crosses exactly the developed edges in seq."""
        # the segment must cross each recorded edge at increasing parameters
        params = []
        u_prev = 0.0
        for (rot, trans), j in zip(transforms[:-1], seq):
            a, b = self._edge_seg(rot, trans, j)
            t = self._crossing(s, end, a, b)
            if t is None or t <= u_prev + 1e-12 or t >= 1.0 - 1e-12:
                return False
            u_prev = t
            params.append(t)
        # no other edge of any visited copy may be crossed in between
        bounds = [0.0] + params + [1.0]
        for k, (rot, trans) in enumerate(transforms):
            for j in range(self.n):
                a, b = self._edge_seg(rot, trans, j)
                t = self._crossing(s, end, a, b)
                if t is None:
                    continue
                if bounds[k] + 1e-12 < t < bounds[k + 1] - 1e-12:
                    expected = k < len(seq) and j == seq[k]
                    if not expected:
                        return False
        # clearance: no developed vertex image inside the open segment
        for rot, trans in transforms:
            for p in self.pts:
                w = self._apply(rot, trans, p)
                if np.hypot(*(w - s)) < 1e-9 or np.hypot(*(w - end)) < 1e-9:
                    continue
                if self._seg_dist(w, s, end) < 1e-9:
                    return False
        return True

    def distances_to(self, src_cone_idx, dst_cone_idx, budget, max_depth=6):
        """All realized geodesic lengths <= budget up to the crossing depth.

        Exhaustive: every crossing sequence of length <= max_depth is
        developed (minus immediate re-crossings), and every target image is
        tested with the straight-segment validity check.
        """
        src = self.cone_points[src_cone_idx].vertices
        dst = self.cone_points[dst_cone_idx].vertices
        found = []

        def recurse(s, seq, transforms, entry):
            rot, trans = transforms[-1]
            for tv in dst:
                end = self._apply(rot, trans, self.pts[tv])
                d = float(np.hypot(*(end - s)))
                if d <= budget + 1e-12 and self._segment_valid(s, end, seq, transforms):
                    found.append((d, tuple(seq)))
            if len(seq) >= max_depth:
                return
            for j in range(self.n):
                if j == entry:
                    continue
                a, b = self._edge_seg(rot, trans, j)
                if self._seg_dist(s, a, b) > budget:
                    continue
                srot, strans = self.step[j]
                nrot = rot @ srot
                ntrans = rot @ strans + trans
                recurse(s, seq + [j], transforms + [(nrot, ntrans)], self.partner[j])

        eye = (np.eye(2), np.zeros(2))
        for sv in src:
            s = self.pts[sv].copy()
            recurse(s, [], [eye], None)
        return sorted(found)

    def shortest(self, src_cone_idx, dst_cone_idx, budget, max_depth=6):
        found = self.distances_to(src_cone_idx, dst_cone_idx, budget, max_depth)
        return found[0][0] if found else None


def metric_by_brute_force(gluing, budgets=None, max_depth=6):
    """All six cone-point distances from the exhaustive oracle (hexagons)."""
    dev = BruteForceDeveloper(gluing)
    pts = np.asarray(gluing.polygon.vertices, dtype=float)
    out = {}
    labels = "abcd"
    for i, j in itertools.combinations(range(4), 2):
        chord = min(
            float(np.hypot(*(pts[u] - pts[w])))
            for u in gluing.cone_points[i].vertices
            for w in gluing.cone_points[j].vertices
        )
        budget = chord + 1e-6 if budgets is None else budgets[(i, j)]
        out[labels[i] + labels[j]] = dev.shortest(i, j, budget, max_depth)
    return out


def _reference_best_witness(x, y, bound, tol):
    """Best (a, b) with y ~ a*pi + b*x from the full 33*bound x bound grid."""
    rr, ss = np.meshgrid(np.arange(-bound, bound + 1), np.arange(1, bound + 1), indexing="ij")
    rr = rr.ravel()
    ss = ss.ravel()
    bvals = rr / ss
    bsize = np.abs(rr) + ss
    target = y - bvals * x
    qs = np.arange(1, bound + 1)
    ps = np.rint(target[:, None] * qs[None, :] / math.pi)
    ok = np.abs(ps) <= bound
    resid = np.abs(target[:, None] - ps * (math.pi / qs[None, :]))
    resid[~ok] = np.inf
    bi, qi = np.nonzero(resid < tol)
    if bi.size:
        p = ps[bi, qi].astype(np.int64)
        q = qs[qi]
        r = rr[bi]
        s = ss[bi]
        k = np.lexsort((s, np.abs(r), q, np.abs(p), np.abs(p) + q + bsize[bi]))[0]
        witness = (Fraction(int(p[k]), int(q[k])), Fraction(int(r[k]), int(s[k])))
        return float(resid[bi[k], qi[k]]), witness
    idx = np.unravel_index(np.argmin(resid), resid.shape)
    return float(resid[idx]), None


def reference_check_independence(angles, bound=16, tol=1e-9):
    """check_independence with the full grid on both directions of every pair."""
    vals = tuple(float(a) for a in angles)
    pairs = {}
    m = len(vals)
    for i in range(m):
        for j in range(i + 1, m):
            res_ij, wit_ij = _reference_best_witness(vals[i], vals[j], bound, tol)
            res_ji, wit_ji = _reference_best_witness(vals[j], vals[i], bound, tol)
            if wit_ij is not None or wit_ji is not None:
                if wit_ij is not None:
                    witness, direction, residual = wit_ij, (i, j), res_ij
                else:
                    witness, direction, residual = wit_ji, (j, i), res_ji
                pairs[(i, j)] = PairDependence(i, j, "dependent", witness, direction, residual)
            else:
                best = min(res_ij, res_ji)
                status = "inconclusive" if best < 10.0 * tol else "independent"
                pairs[(i, j)] = PairDependence(i, j, status, None, None, best)
    all_independent = all(v.status == "independent" for v in pairs.values())
    return IndependenceReport(bound, tol, all_independent, lambda: pairs)


def reference_sample_attempts(
    n,
    seed,
    max_attempts=10000,
    require_independent=True,
    independence_bound=16,
    independence_tol=1e-9,
    turn_margin=1e-3,
    fat=True,
    cfg=DEFAULT_TOLERANCES,
):
    """The sampler one attempt at a time: draw, close, validate, screen.

    Returns (attempt, (polygon, ValidationReport, IndependenceReport)) for
    the first attempt accepted, counting attempts from 1.
    """
    if n < 6 or n % 2:
        raise MalformedPolygonError(f"sampler needs even n >= 6, got {n}")
    rng = np.random.default_rng(seed)
    if fat:
        lo, hi = turn_margin, TWO_PI / 3.0 - turn_margin
    else:
        lo, hi = turn_margin, math.pi - turn_margin
    for attempt in range(1, max_attempts + 1):
        turns = rng.uniform(lo, hi, size=n - 3)
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
                ind = check_independence(rep.angles, independence_bound, independence_tol)
                if not ind.all_independent:
                    continue
            return attempt, (poly, rep, ind)
    raise SamplingBudgetError(max_attempts)


def reference_closable_attempts(turns, cap, margin):
    """The sampler's batch screen as one pass over every row: the turn sum,
    the gap chord and both elbow branches' closing turns, widened by
    margin (the sampler's _PREFILTER_MARGIN)."""
    dirs = np.cumsum(turns, axis=1)
    last = dirs[:, -1]
    gap = -1.0 - np.exp(1j * dirs).sum(axis=1)
    glen = np.abs(gap)
    delta = np.arccos(np.minimum(1.0, glen / 2.0)) * np.array([[1.0], [-1.0]])
    th4 = np.angle(gap) + delta
    th5 = th4 - 2.0 * delta
    closing = np.stack((th4 - last, th5 - th4, -th5)) + margin
    closing = np.mod(closing, TWO_PI) - margin
    winds_once = last + closing.sum(axis=0) < 3.0 * math.pi
    branch_ok = ((closing < cap + margin).all(axis=0) & winds_once).any(axis=0)
    return (last < TWO_PI + margin) & (glen <= 2.0 + margin) & branch_ok


def reference_sample_ngon(n, seed, **kwargs):
    """What _sample_ngon returns, found one attempt at a time."""
    return reference_sample_attempts(n, seed, **kwargs)[1]


def _reference_segment_distance(p, a, b):
    ab = b - a
    denom = ab.real * ab.real + ab.imag * ab.imag
    if denom < 1e-30:
        return abs(p - a)
    t = ((p - a).real * ab.real + (p - a).imag * ab.imag) / denom
    if t <= 0.0:
        return abs(p - a)
    if t >= 1.0:
        return abs(p - b)
    return abs(p - (a + t * ab))


def _reference_interval_of_segment(s, a, b):
    """Bearing interval (lo, width, p_lo, p_hi) subtended at s by [a, b],
    width < pi, or None for a radially aligned segment."""
    wa = a - s
    wb = b - s
    ta = math.atan2(wa.imag, wa.real)
    tb = math.atan2(wb.imag, wb.real)
    width = math.fmod(tb - ta, TWO_PI)
    if width <= -math.pi:
        width += TWO_PI
    elif width > math.pi:
        width -= TWO_PI
    if width < 0:
        ta, tb = tb, ta
        a, b = b, a
        width = -width
    if width < 1e-14:
        return None
    return ta, width, a, b


def _reference_ray_on_line(s, theta, a, b):
    d = complex(math.cos(theta), math.sin(theta))
    ab = b - a
    denom = d.real * ab.imag - d.imag * ab.real
    if abs(denom) < 1e-15:
        return a
    w = a - s
    u = (w.real * d.imag - w.imag * d.real) / denom
    return a + min(1.0, max(0.0, u)) * ab


def reference_clip_edge(s, a, b, cone):
    """Clip edge [a, b] against a direction cone kept as bearings.

    `cone` is None (every direction) or (lo, width): the directions from
    lo counterclockwise to lo + width, width < pi.  Returns
    ((lo, width), distance from s to the clipped edge), or None when no
    direction of the cone meets the edge.
    """
    sub = _reference_interval_of_segment(s, a, b)
    if sub is None:
        return None
    ta, width, pa, pb = sub
    if cone is None:
        lo, w = ta, width
        qa, qb = pa, pb
    else:
        clo, cw = cone
        off = math.fmod(ta - clo, TWO_PI)
        if off < 0:
            off += TWO_PI
        # the edge occupies [off, off + width] relative to the cone start
        if off <= cw:
            o1, o2 = off, min(off + width, cw)
        elif off + width >= TWO_PI:
            o1, o2 = 0.0, min(cw, off + width - TWO_PI)
        else:
            return None
        if o2 - o1 < 1e-14:
            return None
        lo, w = clo + o1, o2 - o1
        qa = pa if abs(o1 - off) < 1e-15 else _reference_ray_on_line(s, clo + o1, pa, pb)
        if abs((off + width) - o2) < 1e-15 or abs((off + width - TWO_PI) - o2) < 1e-15:
            qb = pb
        else:
            qb = _reference_ray_on_line(s, clo + o2, pa, pb)
    return (lo, w), _reference_segment_distance(s, qa, qb)


def reference_cone_contains(cone, theta, slack=1e-9):
    """Whether bearing theta lies in a bearing cone, up to slack radians."""
    if cone is None:
        return True
    lo, w = cone
    off = math.fmod(theta - lo, TWO_PI)
    if off < 0:
        off += TWO_PI
    return off <= w + slack or off >= TWO_PI - slack


def reference_excursion_width(s, a, b, radius):
    """The overhang excursion width, with the edge's directions as bearings."""
    if radius <= 0.0:
        return 0.0
    ab = b - a
    lab = abs(ab)
    if lab < 1e-15:
        return 0.0
    n = complex(ab.imag, -ab.real) / lab  # outward normal
    fs = (s - a).real * n.real + (s - a).imag * n.imag
    if fs >= 0.0:
        return 0.0
    ta = math.atan2((a - s).imag, (a - s).real)
    tb = math.atan2((b - s).imag, (b - s).real)
    span = math.fmod(tb - ta, TWO_PI)
    if span <= -math.pi:
        span += TWO_PI
    elif span > math.pi:
        span -= TWO_PI
    if span < 0:
        ta, tb = tb, ta
        span = -span
    if span < 1e-14:
        return 0.0
    tn = math.atan2(n.imag, n.real)
    off = math.fmod(tn - ta, TWO_PI)
    if off < 0:
        off += TWO_PI
    if off <= span:
        best = radius + fs  # the perpendicular ray exits through the segment
    else:
        gap = min(off - span, TWO_PI - off)
        best = radius * math.cos(gap) + fs
    return max(0.0, best)
