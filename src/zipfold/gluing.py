"""Perimeter-halving self-gluings of equilateral polygons.

Halving at vertex i zips the boundary arc i -> i+1 -> ... -> i+n/2 onto the
arc i -> i-1 -> ... -> i+n/2, matching points at equal arclength from the
fold vertex i.  Because the polygon is unit-equilateral the edges pair off
exactly.  The quotient is a flat sphere-topology surface whose cone points
are the fold vertices (one boundary wedge each) and the identified vertex
pairs (two wedges each).

Curvature convention: the cone angle at a fold vertex is the full interior
angle alpha, so its curvature is 2*pi - alpha; halving that defect would
break the forced total curvature 4*pi of a closed genus-0 surface, which is
asserted on every gluing.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import GaussBonnetError, GluingError
from .polygon import DEFAULT_TOLERANCES, TWO_PI, EquilateralPolygon, interior_angles

FOUR_PI = 4.0 * math.pi


class EdgeIdentification(NamedTuple):
    """Directed match between two boundary edges.

    Edge (a0 -> a1) is glued to edge (b0 -> b1) so that the point at
    parameter t from a0 lands on the point at parameter t from b0.
    """

    a0: int
    a1: int
    b0: int
    b1: int


class ConePoint(NamedTuple):
    """An identified vertex class of the glued surface."""

    vertices: tuple
    cone_angle: float

    @property
    def curvature(self):
        return TWO_PI - self.cone_angle


@dataclass(frozen=True)
class HalvingGluing:
    polygon: EquilateralPolygon
    fold_index: int
    identifications: tuple
    cone_points: tuple

    @property
    def n(self):
        return self.polygon.n

    @property
    def fold_pair(self):
        return (self.fold_index, (self.fold_index + self.n // 2) % self.n)

    def zipper_pairs(self):
        """Cone-point index pairs joined by a glued boundary edge, in order.

        Walking the zipped arc from the fold vertex gives the Hamiltonian
        path: fold vertex, the n/2-1 identified pairs, the opposite fold
        vertex.  Consecutive entries are joined by a unit edge of the
        surface.
        """
        order = [0] + list(range(2, len(self.cone_points))) + [1]
        return tuple((order[k], order[k + 1]) for k in range(len(order) - 1))

    def to_dict(self):
        return {
            "fold_pair": list(self.fold_pair),
            "identifications": [
                {"edge_a": [ident.a0, ident.a1], "edge_b": [ident.b0, ident.b1]}
                for ident in self.identifications
            ],
            "cone_points": [
                {
                    "vertices": list(cp.vertices),
                    "cone_angle": cp.cone_angle,
                    "curvature": cp.curvature,
                }
                for cp in self.cone_points
            ],
        }


@dataclass(frozen=True)
class CurvatureVector:
    """Curvatures (2*pi minus cone angle) tagged with their cone points."""

    curvatures: tuple
    cone_vertices: tuple

    def sorted_multiset(self):
        return tuple(sorted(self.curvatures))

    @property
    def total(self):
        return sum(self.curvatures)


def glue_halving(poly, fold_index, tol=DEFAULT_TOLERANCES.tol_len):
    """Build the perimeter-halving gluing folded at the given vertex.

    Valid fold indices are 0 .. n/2-1; halving at i and at i+n/2 produce
    the same identification, so the upper half is rejected as redundant.
    `tol` is the run's tol_len: each of two identified edges may be off the
    unit length by tol, so they may differ by twice that.
    """
    n = poly.n
    if n < 6 or n % 2:
        raise GluingError(f"perimeter halving needs even n >= 6, got n={n}")
    half = n // 2
    if not (0 <= fold_index < half):
        raise GluingError(f"fold index {fold_index} out of range 0..{half - 1}")

    lengths = poly.edge_lengths()
    idents = []
    for k in range(half):
        a0 = (fold_index + k) % n
        a1 = (fold_index + k + 1) % n
        b0 = (fold_index - k) % n
        b1 = (fold_index - k - 1) % n
        la = lengths[a0]
        lb = lengths[b1]  # edge (b1, b0) stored under its lower endpoint index
        if abs(la - lb) > 2.0 * tol:
            raise GluingError(f"identified edges {a0} and {b1} differ in length")
        idents.append(EdgeIdentification(a0, a1, b0, b1))

    prof = interior_angles(poly)
    cone_points = [
        ConePoint((fold_index,), prof.angles[fold_index]),
        ConePoint(((fold_index + half) % n,), prof.angles[(fold_index + half) % n]),
    ]
    for k in range(1, half):
        u = (fold_index + k) % n
        w = (fold_index - k) % n
        cone_points.append(ConePoint(tuple(sorted((u, w))), prof.angles[u] + prof.angles[w]))

    return HalvingGluing(poly, fold_index, tuple(idents), tuple(cone_points))


def cone_angles(gluing, tol=DEFAULT_TOLERANCES.tol_curvature):
    """Curvature vector of a gluing, with the 4*pi total enforced.

    A residual beyond tolerance is an internal inconsistency (bad angles or
    a broken identification), never a property of the input shape.
    """
    curvatures = tuple(cp.curvature for cp in gluing.cone_points)
    total = sum(curvatures)
    if abs(total - FOUR_PI) > tol:
        raise GaussBonnetError(
            f"total curvature {total!r} deviates from 4*pi by {total - FOUR_PI:.3e}"
        )
    return CurvatureVector(curvatures, tuple(cp.vertices for cp in gluing.cone_points))


def enumerate_halvings(poly):
    """All n/2 distinct perimeter halvings of the polygon."""
    return tuple(glue_halving(poly, i) for i in range(poly.n // 2))


INCONGRUENT = "INCONGRUENT"
UNDECIDED = "UNDECIDED-BY-CURVATURE"


@dataclass(frozen=True)
class DistinctnessMatrix:
    verdicts: dict

    @property
    def all_incongruent(self):
        return all(v == INCONGRUENT for v in self.verdicts.values())

    def verdict(self, i, j):
        return self.verdicts[(min(i, j), max(i, j))]


def distinct_check(vectors, tol=DEFAULT_TOLERANCES.tol_curvature):
    """Pairwise curvature-multiset comparison of curvature vectors.

    A multiset mismatch beyond tolerance soundly certifies the underlying
    surfaces incongruent.  Matching multisets prove nothing (congruence
    needs the embedded shapes), so those pairs stay undecided here.
    """
    if len(vectors) < 2:
        raise ValueError("need at least two curvature vectors")
    size = {len(v.curvatures) for v in vectors}
    if len(size) != 1:
        raise ValueError("curvature vectors of different lengths")
    verdicts = {}
    for i in range(len(vectors)):
        si = vectors[i].sorted_multiset()
        for j in range(i + 1, len(vectors)):
            sj = vectors[j].sorted_multiset()
            gap = max(abs(a - b) for a, b in zip(si, sj))
            verdicts[(i, j)] = INCONGRUENT if gap > tol else UNDECIDED
    return DistinctnessMatrix(verdicts)


def curvature_collision_relations(angles, tol=DEFAULT_TOLERANCES.tol_ang):
    """Advisory screen: angle relations that can make two halvings' curvature
    multisets collide.

    Each relation is reported with its residual; a residual below tolerance
    means the corresponding collision is active for this labeling.  This is
    a diagnostic only; distinctness verdicts come from distinct_check and
    the embedded congruence test.
    """
    a = tuple(angles)
    relations = (
        ("alpha2 = pi - alpha0/2", a[2] - (math.pi - 0.5 * a[0])),
        ("alpha4 = 2*pi - 2*alpha2", a[4] - (TWO_PI - 2.0 * a[2])),
        ("alpha1 = 3*pi/4 - alpha0", a[1] - (0.75 * math.pi - a[0])),
    )
    return tuple(
        {"relation": name, "residual": res, "active": abs(res) < tol}
        for name, res in relations
    )


def gluing_report(gluing, curvatures=None):
    """The gluing's `fold` report entry, as a JSON-ready dict."""
    data = gluing.to_dict()
    if curvatures is not None:
        data["curvature_total"] = curvatures.total
        data["gauss_bonnet_residual"] = curvatures.total - FOUR_PI
    data["curvature_convention"] = (
        "fold vertices keep their full interior angle as cone angle; "
        "curvature is 2*pi minus cone angle (total must be 4*pi)"
    )
    return data
