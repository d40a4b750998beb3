"""Small planar-geometry helpers shared across the package.

Fast paths (the development search) represent points as complex numbers;
module boundaries use (x, y) tuples.  Rigid motions are stored as
(rot, trans) with rot a unit complex number, acting as

    z  ->  rot * z + trans

Perimeter halving glues arcs that run from the same fold vertex, so every
transition between developed copies preserves orientation and no
reflection is needed.
"""

import math

# A segment whose squared length is below DEGENERATE_SQ counts as a point.
DEGENERATE_SQ = 1e-30
# The defaults of Rigid.almost_equal and segments_properly_intersect (an
# orientation this near 0 is collinear).  This module imports nothing of the
# package, so it cannot read them from Tolerances.
RIGID_TOL = 1e-10
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


class Rigid:
    """Orientation-preserving planar isometry with complex rotation part."""

    __slots__ = ("rot", "trans")

    def __init__(self, rot=1.0 + 0.0j, trans=0.0j):
        self.rot = rot
        self.trans = trans

    def apply(self, z):
        return self.rot * z + self.trans

    def compose(self, other):
        """self after other: (self . other)(z) = self(other(z))."""
        return Rigid(self.rot * other.rot, self.rot * other.trans + self.trans)

    def almost_equal(self, other, tol=RIGID_TOL):
        return abs(self.rot - other.rot) <= tol and abs(self.trans - other.trans) <= tol

    def __repr__(self):
        return f"Rigid(rot={self.rot!r}, trans={self.trans!r})"


IDENTITY = Rigid()


def rigid_from_segment(src0, src1, dst0, dst1):
    """Orientation-preserving isometry sending src0->dst0 and src1->dst1.

    Assumes |src1 - src0| == |dst1 - dst0| (equal-length segments).
    """
    ds = src1 - src0
    dd = dst1 - dst0
    rot = dd / ds
    rot /= abs(rot)
    return Rigid(rot, dst0 - rot * src0)


def polygon_signed_area(points):
    """Signed area of an (x, y) vertex loop, positive for counterclockwise."""
    area = 0.0
    m = len(points)
    for i in range(m):
        x0, y0 = points[i]
        x1, y1 = points[(i + 1) % m]
        area += x0 * y1 - x1 * y0
    return 0.5 * area


def triangle_area(a, b, c):
    return 0.5 * abs((b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1]))


def _orient(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _on_segment(a, b, c, eps):
    return (
        min(a[0], b[0]) - eps <= c[0] <= max(a[0], b[0]) + eps
        and min(a[1], b[1]) - eps <= c[1] <= max(a[1], b[1]) + eps
    )


def segments_properly_intersect(p0, p1, q0, q1, eps=ORIENT_EPS):
    """True when closed segments share a point that is not a shared endpoint.

    Collinear overlap counts as an intersection.  Inputs are (x, y) tuples.
    """
    o1 = _orient(p0, p1, q0)
    o2 = _orient(p0, p1, q1)
    o3 = _orient(q0, q1, p0)
    o4 = _orient(q0, q1, p1)
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
