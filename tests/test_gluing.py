import json
import math

import pytest

from zipfold import (
    GaussBonnetError,
    GluingError,
    cone_angles,
    curvature_collision_relations,
    distinct_check,
    enumerate_halvings,
    glue_halving,
    regular_ngon,
)
from zipfold.gluing import UNDECIDED, CurvatureVector, gluing_report

PI = math.pi
FOUR_PI = 4 * PI


def test_hexagon_fold0_identifications(regular_hexagon):
    g = glue_halving(regular_hexagon, 0)
    assert [((i.a0, i.a1), (i.b0, i.b1)) for i in g.identifications] == [
        ((0, 1), (0, 5)),
        ((1, 2), (5, 4)),
        ((2, 3), (4, 3)),
    ]
    assert [cp.vertices for cp in g.cone_points] == [(0,), (3,), (1, 5), (2, 4)]
    assert g.fold_pair == (0, 3)


def test_hexagon_fold1_cone_points(regular_hexagon):
    g = glue_halving(regular_hexagon, 1)
    assert [cp.vertices for cp in g.cone_points] == [(1,), (4,), (0, 2), (3, 5)]


def test_octagon_fold0_cone_points():
    g = glue_halving(regular_ngon(8), 0)
    assert [cp.vertices for cp in g.cone_points] == [(0,), (4,), (1, 7), (2, 6), (3, 5)]


def test_every_boundary_edge_identified_exactly_once(fat_pool_small):
    for poly in fat_pool_small[:10]:
        for g in enumerate_halvings(poly):
            seen = []
            for ident in g.identifications:
                seen.append(tuple(sorted((ident.a0, ident.a1))))
                seen.append(tuple(sorted((ident.b0, ident.b1))))
            assert sorted(seen) == sorted(
                tuple(sorted((i, (i + 1) % poly.n))) for i in range(poly.n)
            )


def test_bad_fold_index_rejected(regular_hexagon):
    with pytest.raises(GluingError, match="out of range"):
        glue_halving(regular_hexagon, 3)
    with pytest.raises(GluingError):
        glue_halving(regular_hexagon, -1)


def test_regular_hexagon_curvature_multiset(regular_hexagon):
    for i in range(3):
        curv = cone_angles(glue_halving(regular_hexagon, i))
        assert sorted(curv.curvatures) == pytest.approx(
            [2 * PI / 3, 2 * PI / 3, 4 * PI / 3, 4 * PI / 3], abs=1e-12
        )
        assert curv.total == pytest.approx(FOUR_PI, abs=1e-12)


def test_degenerate_square_fold_curvatures(degenerate_hexagon):
    # folding at the two straight vertices: all four curvatures are pi
    curv = cone_angles(glue_halving(degenerate_hexagon, 1))
    assert list(curv.curvatures) == pytest.approx([PI] * 4, abs=1e-12)


def test_total_curvature_always_four_pi(fat_pool_small):
    for poly in fat_pool_small:
        for g in enumerate_halvings(poly):
            assert abs(cone_angles(g).total - FOUR_PI) <= 1e-8


def test_gauss_bonnet_violation_is_hard_error(regular_hexagon):
    g = glue_halving(regular_hexagon, 0)
    broken = g.cone_points[0].__class__((0,), g.cone_points[0].cone_angle + 1e-3)
    bad = g.__class__(g.polygon, g.fold_index, g.identifications, (broken,) + g.cone_points[1:])
    with pytest.raises(GaussBonnetError):
        cone_angles(bad)


def test_enumerate_halvings_counts():
    assert len(enumerate_halvings(regular_ngon(6))) == 3
    assert len(enumerate_halvings(regular_ngon(8))) == 4
    decagon = enumerate_halvings(regular_ngon(10))
    assert len(decagon) == 5
    # each decagon halving carries 2 fold vertices + 4 identified pairs
    assert all(len(g.cone_points) == 6 for g in decagon)


def test_curvature_vector_symmetric_under_fold_relabel(regular_hexagon):
    # relabeling the hexagon by the reflection fixing {v0, v3} permutes the
    # paired cone points but leaves the curvature multiset untouched
    relabeled = regular_hexagon.vertices[:1] + tuple(reversed(regular_hexagon.vertices[1:]))
    from zipfold import EquilateralPolygon

    mirrored = EquilateralPolygon(relabeled)
    c1 = cone_angles(glue_halving(regular_hexagon, 0)).sorted_multiset()
    c2 = cone_angles(glue_halving(mirrored, 0)).sorted_multiset()
    assert c1 == pytest.approx(c2, abs=1e-12)


def test_distinct_check_identical_multisets_undecided(regular_hexagon):
    vectors = [cone_angles(g) for g in enumerate_halvings(regular_hexagon)]
    mat = distinct_check(vectors)
    assert set(mat.verdicts.values()) == {UNDECIDED}
    assert not mat.all_incongruent


def test_distinct_check_sampled_hexagons_incongruent(fat_pool_small):
    for poly in fat_pool_small:
        vectors = [cone_angles(g) for g in enumerate_halvings(poly)]
        assert distinct_check(vectors).all_incongruent


def test_distinct_check_permutation_invariant():
    v1 = CurvatureVector((0.5, 1.0, 2.0, FOUR_PI - 3.5), ((0,), (1,), (2,), (3,)))
    v2 = CurvatureVector((2.0, 0.5, FOUR_PI - 3.5, 1.0), ((0,), (1,), (2,), (3,)))
    mat = distinct_check([v1, v2])
    assert mat.verdict(0, 1) == UNDECIDED


def test_distinct_check_requires_matching_lengths():
    v1 = CurvatureVector((1.0, 2.0), ((0,), (1,)))
    v2 = CurvatureVector((1.0, 2.0, 3.0), ((0,), (1,), (2,)))
    with pytest.raises(ValueError):
        distinct_check([v1, v2])


def test_collision_relations_regular_hexagon(regular_hexagon):
    from zipfold import validate

    diags = curvature_collision_relations(validate(regular_hexagon).angles)
    # with every angle 2pi/3 the first two relations hold, the third cannot
    byname = {d["relation"]: d for d in diags}
    assert byname["alpha2 = pi - alpha0/2"]["active"]
    assert byname["alpha4 = 2*pi - 2*alpha2"]["active"]
    assert not byname["alpha1 = 3*pi/4 - alpha0"]["active"]


def test_gluing_report_json_structure(regular_hexagon):
    g = glue_halving(regular_hexagon, 0)
    data = gluing_report(g, cone_angles(g))
    assert json.loads(json.dumps(data)) == data
    assert data["fold_pair"] == [0, 3]
    assert len(data["identifications"]) == 3
    assert len(data["cone_points"]) == 4
    assert abs(data["gauss_bonnet_residual"]) < 1e-12
