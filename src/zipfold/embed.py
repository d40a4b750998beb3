"""Realize a 4-point distance metric as a tetrahedron in 3-space.

The four cone points of a hexagon gluing are labeled a, b (fold vertices)
and c, d (identified pairs).  A metric that satisfies the triangle
inequalities and has nonnegative Cayley-Menger volume embeds canonically:
a at the origin, b on +x, c in the upper xy half-plane, d with z >= 0.
Flat metrics (squared volume within tolerance of zero) are first-class:
degenerate sources fold to doubly covered polygons and must survive the
round trip, so they embed with z = 0 and a flat flag instead of failing.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import MetricError
from .polygon import DEFAULT_TOLERANCES

# congruent_tetrahedra's default: edge lengths within this are equal
EDGE_MATCH_TOL = 1e-9

PAIRS = ("ab", "ac", "ad", "bc", "bd", "cd")
# The zipper of every hexagon gluing, as labels: fold vertex a, the pairs c
# and d, fold vertex b.  Its edges are the ones net.cut_and_unfold cuts.
ZIPPER = ("a", "c", "d", "b")
# (u, v) in either order -> the TetraMetric field holding its distance
_DISTANCE_FIELD = {(u, v): "d_" + name for name in PAIRS for u, v in (name, name[::-1])}

# Squared height of c over line ab that may fall below zero and still
# count as zero.
ANCHOR_HEIGHT2_SLACK = 1e-12
# A height of c over line ab below this collapses triangle abc, which then
# fixes no frame.
ANCHOR_MIN_HEIGHT = 1e-12


@dataclass(frozen=True)
class TetraMetric:
    d_ab: float
    d_ac: float
    d_ad: float
    d_bc: float
    d_bd: float
    d_cd: float

    def __post_init__(self):
        for name in PAIRS:
            v = getattr(self, f"d_{name}")
            if not (math.isfinite(v) and v > 0.0):
                raise MetricError(f"distance {name} must be positive, got {v!r}")

    def distance(self, u, v):
        return getattr(self, _DISTANCE_FIELD[u, v])

    def as_dict(self):
        return {name: getattr(self, f"d_{name}") for name in PAIRS}

    def triples(self):
        return itertools.combinations("abcd", 3)

    def check_triangle_inequalities(self, tol=DEFAULT_TOLERANCES.tol_geodesic):
        for x, y, z in self.triples():
            dxy = self.distance(x, y)
            dxz = self.distance(x, z)
            dyz = self.distance(y, z)
            if dxy > dxz + dyz + tol or dxz > dxy + dyz + tol or dyz > dxy + dxz + tol:
                raise MetricError(f"triangle inequality fails on {{{x},{y},{z}}}")


@dataclass(frozen=True)
class Tetrahedron3D:
    """Embedded tetrahedron with labeled vertices and fixed face list."""

    a: tuple
    b: tuple
    c: tuple
    d: tuple
    flat: bool
    volume2: float

    FACES = (("a", "b", "c"), ("a", "b", "d"), ("a", "c", "d"), ("b", "c", "d"))

    def point(self, label):
        return getattr(self, label)

    def points(self):
        return {k: getattr(self, k) for k in "abcd"}

    def edge_length(self, u, v):
        p = self.point(u)
        q = self.point(v)
        return math.dist(p, q)

    def face_areas(self):
        """Area of each face, in scalar floats (numpy costs more on 3-vectors)."""
        areas = {}
        for face in self.FACES:
            (px, py, pz), (qx, qy, qz), (rx, ry, rz) = (self.point(k) for k in face)
            ux, uy, uz = qx - px, qy - py, qz - pz
            vx, vy, vz = rx - px, ry - py, rz - pz
            areas["".join(face)] = 0.5 * math.hypot(
                uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
            )
        return areas

    def surface_area(self):
        return sum(self.face_areas().values())


def cayley_menger_volume2(metric, tol_vol=DEFAULT_TOLERANCES.tol_vol):
    """Squared tetrahedron volume from the bordered squared-distance matrix.

    A value below -tol_vol certifies the metric unrealizable in 3-space;
    values inside [-tol_vol, tol_vol] are flat (degenerate but realizable).
    """
    metric.check_triangle_inequalities()
    d2 = {k: getattr(metric, f"d_{k}") ** 2 for k in PAIRS}
    m = np.array(
        [
            [0.0, 1.0, 1.0, 1.0, 1.0],
            [1.0, 0.0, d2["ab"], d2["ac"], d2["ad"]],
            [1.0, d2["ab"], 0.0, d2["bc"], d2["bd"]],
            [1.0, d2["ac"], d2["bc"], 0.0, d2["cd"]],
            [1.0, d2["ad"], d2["bd"], d2["cd"], 0.0],
        ]
    )
    v2 = float(np.linalg.det(m)) / 288.0
    if v2 < -tol_vol:
        raise MetricError(
            f"metric not realizable: Cayley-Menger squared volume {v2:.3e} < 0"
        )
    return v2


def embed(metric, tol_vol=DEFAULT_TOLERANCES.tol_vol, tol_embed=DEFAULT_TOLERANCES.tol_embed):
    """Canonical 3D placement reproducing the metric to tol_embed.

    A squared apex height below -tol_embed (on a metric that is not flat)
    fails the placement.

    Deterministic and bit-stable for identical inputs: the placement is a
    fixed sequence of arithmetic with no iterative refinement.
    """
    v2 = cayley_menger_volume2(metric, tol_vol)
    flat = abs(v2) <= tol_vol

    ab, ac, ad = metric.d_ab, metric.d_ac, metric.d_ad
    bc, bd, cd = metric.d_bc, metric.d_bd, metric.d_cd

    a = (0.0, 0.0, 0.0)
    b = (ab, 0.0, 0.0)
    xc = (ab * ab + ac * ac - bc * bc) / (2.0 * ab)
    yc2 = ac * ac - xc * xc
    if yc2 <= 0.0:
        if yc2 < -ANCHOR_HEIGHT2_SLACK:
            raise MetricError("triangle abc is degenerate beyond tolerance")
        yc2 = 0.0
    yc = math.sqrt(yc2)
    if yc < ANCHOR_MIN_HEIGHT:
        raise MetricError("triangle abc collapses to a segment; cannot anchor the frame")
    c = (xc, yc, 0.0)

    xd = (ab * ab + ad * ad - bd * bd) / (2.0 * ab)
    yd = (ad * ad - cd * cd + xc * xc + yc * yc - 2.0 * xd * xc) / (2.0 * yc)
    zd2 = ad * ad - xd * xd - yd * yd
    if zd2 <= 0.0:
        if zd2 < -tol_embed and not flat:
            raise MetricError("apex placement failed: negative squared height")
        zd2 = 0.0
    zd = math.sqrt(zd2)
    d = (xd, yd, zd)

    tet = Tetrahedron3D(a=a, b=b, c=c, d=d, flat=flat, volume2=v2)
    worst = max(
        abs(tet.edge_length(u, v) - metric.distance(u, v))
        for u, v in itertools.combinations("abcd", 2)
    )
    if worst > tol_embed:
        raise MetricError(f"embedding failed to reproduce distances (error {worst:.3e})")
    return tet


def vertex_angle_sums(tet):
    """Sum of the incident triangle angles at each vertex, as a dict.

    On the glued surface this must complement the curvature: angle sum =
    2*pi - omega at every cone point, so a mismatch flags either a geodesic
    mismeasurement upstream or a curvature bug.
    """
    sums = {}
    for v in "abcd":
        vx, vy, vz = tet.point(v)
        others = [o for o in "abcd" if o != v]
        total = 0.0
        for x, y in itertools.combinations(others, 2):
            (x1, y1, z1), (x2, y2, z2) = tet.point(x), tet.point(y)
            u1 = (x1 - vx, y1 - vy, z1 - vz)
            u2 = (x2 - vx, y2 - vy, z2 - vz)
            dot = u1[0] * u2[0] + u1[1] * u2[1] + u1[2] * u2[2]
            cosang = dot / (math.hypot(*u1) * math.hypot(*u2))
            total += math.acos(min(1.0, max(-1.0, cosang)))
        sums[v] = total
    return sums


_EDGES = tuple(itertools.combinations("abcd", 2))
# the image of each edge under each relabeling, in the order of permutations("abcd")
_EDGE_IMAGES = tuple(
    tuple((perm["abcd".index(u)], perm["abcd".index(v)]) for u, v in _EDGES)
    for perm in itertools.permutations("abcd")
)


def congruent_tetrahedra(t1, t2, tol=EDGE_MATCH_TOL):
    """Edge-length congruence over all 24 labeled correspondences.

    Matching all six pairwise distances determines a 4-point set up to
    isometry including reflections, so mirror images count as congruent.
    """
    d1 = [t1.edge_length(u, v) for u, v in _EDGES]
    d2 = {}
    for u, v in _EDGES:
        d2[u, v] = d2[v, u] = t2.edge_length(u, v)
    for image in _EDGE_IMAGES:
        for length, pair in zip(d1, image):
            if abs(length - d2[pair]) > tol:
                break
        else:
            return True
    return False


def obj_lines(tet):
    """Wavefront OBJ for one tetrahedron, outward-oriented faces.

    Vertices emit in the fixed order a, b, c, d; each face is wound so its
    normal points away from the opposite vertex (flat instances keep the
    canonical winding).
    """
    pts = {k: np.asarray(tet.point(k)) for k in "abcd"}
    order = "abcd"
    lines = [f"v {p[0]:.9f} {p[1]:.9f} {p[2]:.9f}" for p in (pts[k] for k in order)]
    index = {k: i + 1 for i, k in enumerate(order)}
    for face in Tetrahedron3D.FACES:
        p, q, r = (pts[k] for k in face)
        opposite = next(k for k in order if k not in face)
        normal = np.cross(q - p, r - p)
        inward = np.dot(normal, pts[opposite] - (p + q + r) / 3.0)
        fpts = face if inward <= 0 else (face[0], face[2], face[1])
        lines.append("f " + " ".join(str(index[k]) for k in fpts))
    return lines


def write_obj(tet, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(obj_lines(tet)))
        fh.write("\n")
