"""Small planar-geometry helpers shared across the package.

Fast paths (the development search) represent points as complex numbers;
module boundaries use (x, y) tuples.  A rigid motion is a bare
(rot, trans) pair with rot a unit complex number, acting as

    z  ->  rot * z + trans

Perimeter halving glues arcs that run from the same fold vertex, so every
transition between developed copies preserves orientation and no
reflection is needed.

Each planar predicate on (x, y) points is written once: `orient` is the
turn of three points, `turns` its value at every corner of a closed loop,
and `first_close_pair` the first two points of a loop nearer than a
cutoff.  Validation, closure, the net layout and the geodesic search's
convexity check read them and keep their own thresholds.
"""

import math

# A segment whose squared length is below DEGENERATE_SQ counts as a point.
DEGENERATE_SQ = 1e-30
# The default of segments_properly_intersect: an orientation this near 0 is
# collinear.  This module imports nothing of the package, so it cannot read
# it from Tolerances.
ORIENT_EPS = 1e-12


def cross2(a, b):
    return a.real * b.imag - a.imag * b.real


def dot2(a, b):
    return a.real * b.real + a.imag * b.imag


def point_segment_distance(p, a, b):
    """Distance from complex point p to the closed segment [a, b]."""
    ab = b - a
    denom = ab.real * ab.real + ab.imag * ab.imag
    if denom < DEGENERATE_SQ:
        return abs(p - a)
    t = dot2(p - a, ab) / denom
    if t <= 0.0:
        return abs(p - a)
    if t >= 1.0:
        return abs(p - b)
    return abs(p - (a + t * ab))


def rigid_from_segment(src0, src1, dst0, dst1):
    """(rot, trans) of the orientation-preserving isometry sending
    src0->dst0 and src1->dst1.

    Assumes |src1 - src0| == |dst1 - dst0| (equal-length segments).
    """
    ds = src1 - src0
    dd = dst1 - dst0
    rot = dd / ds
    rot /= abs(rot)
    return rot, dst0 - rot * src0


def polygon_signed_area(points):
    """Signed area of an (x, y) vertex loop, positive for counterclockwise."""
    area = 0.0
    m = len(points)
    for i in range(m):
        x0, y0 = points[i]
        x1, y1 = points[(i + 1) % m]
        area += x0 * y1 - x1 * y0
    return 0.5 * area


def orient(a, b, c):
    """Twice the signed area of triangle abc: positive when a -> b -> c
    turns counterclockwise, negative when clockwise, 0 when collinear."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def turns(points):
    """orient(points[i], points[i + 1], points[i + 2]) for every i around a
    closed loop: entry i is the turn at corner i + 1."""
    return list(map(orient, points, points[1:] + points[:1], points[2:] + points[:2]))


def first_close_pair(points, cutoff):
    """The first pair (i, j), i < j, of points nearer than cutoff, in row
    order, or None.  `math.dist` takes the same norm of the same
    differences as `math.hypot(x1 - x2, y1 - y2)`, in one call."""
    m = len(points)
    for i in range(m):
        for j in range(i + 1, m):
            if math.dist(points[i], points[j]) < cutoff:
                return i, j
    return None


def triangle_area(a, b, c):
    return 0.5 * abs(orient(a, b, c))


def _on_segment(a, b, c, eps):
    return (
        min(a[0], b[0]) - eps <= c[0] <= max(a[0], b[0]) + eps
        and min(a[1], b[1]) - eps <= c[1] <= max(a[1], b[1]) + eps
    )


def segments_properly_intersect(p0, p1, q0, q1, eps=ORIENT_EPS):
    """True when closed segments share a point that is not a shared endpoint.

    Collinear overlap counts as an intersection.  Inputs are (x, y) tuples.
    """
    o1 = orient(p0, p1, q0)
    o2 = orient(p0, p1, q1)
    o3 = orient(q0, q1, p0)
    o4 = orient(q0, q1, p1)
    if ((o1 > eps and o2 < -eps) or (o1 < -eps and o2 > eps)) and (
        (o3 > eps and o4 < -eps) or (o3 < -eps and o4 > eps)
    ):
        return True
    if abs(o1) <= eps and _on_segment(p0, p1, q0, eps):
        return True
    if abs(o2) <= eps and _on_segment(p0, p1, q1, eps):
        return True
    if abs(o3) <= eps and _on_segment(q0, q1, p0, eps):
        return True
    if abs(o4) <= eps and _on_segment(q0, q1, p1, eps):
        return True
    return False


def best_rigid_alignment(src, dst):
    """Least-squares rotation + translation taking point set src onto dst.

    Both are sequences of (x, y) in corresponding order.  Returns
    (max_deviation, angle, (tx, ty)).
    """
    m = len(src)
    sx = sum(p[0] for p in src) / m
    sy = sum(p[1] for p in src) / m
    dx = sum(p[0] for p in dst) / m
    dy = sum(p[1] for p in dst) / m
    num = 0.0
    den = 0.0
    for (ax, ay), (bx, by) in zip(src, dst):
        ax -= sx
        ay -= sy
        bx -= dx
        by -= dy
        num += ax * by - ay * bx
        den += ax * bx + ay * by
    angle = math.atan2(num, den)
    c, s = math.cos(angle), math.sin(angle)
    tx = dx - (c * sx - s * sy)
    ty = dy - (s * sx + c * sy)
    max_dev = 0.0
    for (ax, ay), (bx, by) in zip(src, dst):
        ex = c * ax - s * ay + tx - bx
        ey = s * ax + c * ay + ty - by
        max_dev = max(max_dev, math.hypot(ex, ey))
    return max_dev, angle, (tx, ty)
