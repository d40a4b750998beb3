"""Cut a tetrahedron along its zipper path and unfold to a planar net.

The cut is `embed.ZIPPER`, the Hamiltonian path a -> c -> d -> b that every
hexagon gluing's `zipper_pairs` walks; no other cut set is taken.  Cutting
its three edges leaves the other three edges as hinges; the four faces form
a strip along those hinges and unfold face by face into the plane.  The
hinge layout order is fixed (first face placed canonically, each next face
reflected across its hinge line), so the emitted net is reproducible
coordinate-for-coordinate.  Flat tetrahedra unfold the same way: the layout
consumes edge lengths only, never 3D rotations.
"""

import math
from dataclasses import dataclass

from .embed import ZIPPER
from .errors import NetError
from .geometry import best_rigid_alignment, orient, segments_properly_intersect, triangle_area
from .polygon import DEFAULT_TOLERANCES

# A hinge shorter than this has coincident endpoints and fixes no line.
HINGE_MIN_LENGTH = 1e-15
# Squared height a face may fall below zero by and still count as a triangle.
FACE_HEIGHT2_SLACK = 1e-9
# Largest gap between the net's area and the tetrahedron's surface area.
AREA_TOL = 1e-8


@dataclass(frozen=True)
class PlanarNet:
    boundary: tuple  # six (x, y) corners, in boundary order
    boundary_labels: tuple  # tetra vertex label per corner
    creases: tuple  # ((x, y), (x, y), "uv") for each uncut edge
    faces: tuple  # (((x, y),) * 3, "uvw") per face, layout order
    flat: bool

    def perimeter(self):
        pts = self.boundary
        m = len(pts)
        return sum(math.dist(pts[i], pts[(i + 1) % m]) for i in range(m))

    def area(self):
        return sum(triangle_area(*tri) for tri, _ in self.faces)

    def boundary_edge_lengths(self):
        pts = self.boundary
        m = len(pts)
        return tuple(math.dist(pts[i], pts[(i + 1) % m]) for i in range(m))


def _third_point(u, v, du, dv, side):
    """Place the point at distance du from u and dv from v, on the given side
    of the directed line u -> v (+1 left, -1 right)."""
    ux, uy = u
    vx, vy = v
    base = math.dist(u, v)
    if base < HINGE_MIN_LENGTH:
        raise NetError("degenerate hinge: coincident endpoints")
    ex, ey = (vx - ux) / base, (vy - uy) / base
    nx, ny = -ey, ex
    x = (base * base + du * du - dv * dv) / (2.0 * base)
    h2 = du * du - x * x
    if h2 < -FACE_HEIGHT2_SLACK:
        raise NetError("face does not satisfy the triangle inequality")
    h = math.sqrt(max(0.0, h2))
    return (ux + x * ex + side * h * nx, uy + x * ey + side * h * ny)


def cut_and_unfold(tet):
    """Unfold the four faces into the plane after cutting the zipper edges.

    The cut path x0-x1-x2-x3 is `embed.ZIPPER`, a-c-d-b, and leaves hinges
    x0x2, x0x3, x1x3; faces unfold in the fixed order (x0 x1 x2),
    (x0 x2 x3), (x0 x3 x1), (x3 x1 x2), each placed across the hinge it
    shares with its predecessor.  The boundary comes out as six corners: a
    leaf of the cut path appears once, interior cut vertices twice.
    """
    x0, x1, x2, x3 = ZIPPER
    length = tet.edge_length

    # face (x0 x1 x2): x0 at origin, x2 on +x, x1 above
    p0 = (0.0, 0.0)
    p2 = (length(x0, x2), 0.0)
    p1 = _third_point(p0, p2, length(x0, x1), length(x2, x1), +1)
    # face (x0 x2 x3) across hinge x0x2, below
    p3 = _third_point(p0, p2, length(x0, x3), length(x2, x3), -1)
    # face (x0 x3 x1) across hinge x0x3, away from x2
    side = -1 if orient(p0, p3, p2) > 0 else +1
    p1b = _third_point(p0, p3, length(x0, x1), length(x3, x1), side)
    # face (x3 x1 x2) across hinge x3x1b, away from x0
    side = -1 if orient(p3, p1b, p0) > 0 else +1
    p2b = _third_point(p3, p1b, length(x3, x2), length(x1, x2), side)

    boundary = (p1, p0, p1b, p2b, p3, p2)
    labels = (x1, x0, x1, x2, x3, x2)
    creases = (
        (p0, p2, x0 + x2),
        (p0, p3, x0 + x3),
        (p3, p1b, x3 + x1),
    )
    faces = (
        ((p0, p1, p2), x0 + x1 + x2),
        ((p0, p2, p3), x0 + x2 + x3),
        ((p0, p3, p1b), x0 + x3 + x1),
        ((p3, p1b, p2b), x3 + x1 + x2),
    )
    net = PlanarNet(boundary, labels, creases, faces, tet.flat)

    surface = tet.surface_area()
    if abs(net.area() - surface) > AREA_TOL:
        raise NetError(
            f"net area {net.area():.12f} does not match surface area {surface:.12f}"
        )
    return net


def is_simple(net):
    """No two boundary edges intersect except at shared endpoints."""
    pts = net.boundary
    m = len(pts)
    edges = [(pts[i], pts[(i + 1) % m]) for i in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            if j == i + 1 or (i == 0 and j == m - 1):
                continue  # adjacent edges share exactly one endpoint
            if segments_properly_intersect(*edges[i], *edges[j]):
                return False
    return True


@dataclass(frozen=True)
class Alignment:
    max_deviation: float
    angle: float
    translation: tuple
    mirrored: bool
    shift: int
    reversed_order: bool


def congruent_to_polygon(net, poly, tol=DEFAULT_TOLERANCES.tol_congruence):
    """Best rigid alignment of the net boundary onto the polygon.

    Tries every cyclic shift, both traversal orders, and both reflections;
    congruent means some correspondence brings every corner within tol.
    Returns (ok, Alignment).
    """
    src = net.boundary
    dst = poly.vertices
    if len(src) != len(dst):
        raise ValueError(f"vertex counts differ: net {len(src)} vs polygon {len(dst)}")
    m = len(src)
    best = None
    for mirrored in (False, True):
        base = tuple((x, -y) for x, y in src) if mirrored else src
        for reverse in (False, True):
            seq = tuple(reversed(base)) if reverse else base
            for shift in range(m):
                cand = seq[shift:] + seq[:shift]
                dev, angle, trans = best_rigid_alignment(cand, dst)
                if best is None or dev < best[0]:
                    best = (dev, angle, trans, mirrored, shift, reverse)
    dev, angle, trans, mirrored, shift, reverse = best
    return dev <= tol, Alignment(dev, angle, trans, mirrored, shift, reverse)
