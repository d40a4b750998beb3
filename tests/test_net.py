import itertools
import math

import pytest

from zipfold import (
    EquilateralPolygon,
    congruent_to_polygon,
    cut_and_unfold,
    embed,
    glue_halving,
    is_simple,
    tetra_metric,
)
from zipfold.embed import ZIPPER
from zipfold.net import PlanarNet


def _tet_for(poly, fold_index):
    return embed(tetra_metric(glue_halving(poly, fold_index)))


def test_regular_hexagon_roundtrip(regular_hexagon):
    tet = _tet_for(regular_hexagon, 0)
    net = cut_and_unfold(tet)
    assert is_simple(net)
    ok, align = congruent_to_polygon(net, regular_hexagon, 1e-6)
    assert ok
    assert align.max_deviation < 1e-9


def test_degenerate_square_roundtrip(degenerate_hexagon):
    tet = _tet_for(degenerate_hexagon, 1)
    assert tet.flat
    net = cut_and_unfold(tet)
    assert net.flat
    assert is_simple(net)
    ok, _ = congruent_to_polygon(net, degenerate_hexagon, 1e-6)
    assert ok


def test_roundtrip_every_fold(fat_pool_small):
    for poly in fat_pool_small[:15]:
        for i in range(3):
            net = cut_and_unfold(_tet_for(poly, i))
            assert is_simple(net)
            ok, align = congruent_to_polygon(net, poly, 1e-6)
            assert ok, f"fold {i}: deviation {align.max_deviation}"


def test_net_boundary_six_unit_edges(fat_pool_small):
    net = cut_and_unfold(_tet_for(fat_pool_small[0], 0))
    assert len(net.boundary) == 6
    assert net.boundary_edge_lengths() == pytest.approx([1.0] * 6, abs=1e-9)
    assert net.perimeter() == pytest.approx(6.0, abs=1e-9)


def test_cut_edges_appear_twice_with_equal_length(fat_pool_small):
    net = cut_and_unfold(_tet_for(fat_pool_small[1], 2))
    # walk the boundary labels: each cut edge name occurs exactly twice
    labels = net.boundary_labels
    m = len(labels)
    names = sorted(
        "".join(sorted((labels[i], labels[(i + 1) % m]))) for i in range(m)
    )
    assert names == ["ac", "ac", "bd", "bd", "cd", "cd"]


def test_area_conservation(fat_pool_small):
    for poly in fat_pool_small[:10]:
        tet = _tet_for(poly, 0)
        net = cut_and_unfold(tet)
        assert net.area() == pytest.approx(tet.surface_area(), abs=1e-8)


def test_faces_isometric_to_3d(fat_pool_small):
    tet = _tet_for(fat_pool_small[2], 1)
    net = cut_and_unfold(tet)
    for tri, name in net.faces:
        sides_2d = sorted(
            math.dist(tri[i], tri[(i + 1) % 3]) for i in range(3)
        )
        sides_3d = sorted(
            tet.edge_length(u, v) for u, v in itertools.combinations(name, 2)
        )
        assert sides_2d == pytest.approx(sides_3d, abs=1e-9)


def test_three_dashed_creases(fat_pool_small):
    net = cut_and_unfold(_tet_for(fat_pool_small[0], 0))
    assert len(net.creases) == 3
    assert sorted(name for _, _, name in net.creases) == ["ab", "ad", "bc"]


def test_the_cut_is_every_hexagon_gluings_zipper(regular_hexagon, degenerate_hexagon, fat_pool_small):
    # cone point k of a hexagon gluing is the tetrahedron's vertex "abcd"[k]
    for poly in [regular_hexagon, degenerate_hexagon, *fat_pool_small[:5]]:
        for i in range(3):
            pairs = glue_halving(poly, i).zipper_pairs()
            path = ["abcd"[pairs[0][0]]] + ["abcd"[v] for _, v in pairs]
            assert all(pairs[k][1] == pairs[k + 1][0] for k in range(len(pairs) - 1))
            assert tuple(path) == ZIPPER


def test_overlapping_fixture_not_simple():
    # hand-built bowtie: nonadjacent edges cross
    bow = PlanarNet(
        boundary=((0, 0), (2, 0), (0.5, 1.2), (2, 2), (0, 2), (1.5, 1.2)),
        boundary_labels=("a", "c", "d", "b", "d", "c"),
        creases=(),
        faces=(),
        flat=False,
    )
    assert not is_simple(bow)


def test_congruence_counts_must_match(regular_hexagon, fat_pool_small):
    net = cut_and_unfold(_tet_for(fat_pool_small[0], 0))
    square = EquilateralPolygon(((0, 0), (1, 0), (1, 1), (0, 1)))
    with pytest.raises(ValueError):
        congruent_to_polygon(net, square)


def test_congruence_negative_control(fat_pool_small):
    net = cut_and_unfold(_tet_for(fat_pool_small[0], 0))
    other = fat_pool_small[1]
    ok, _ = congruent_to_polygon(net, other, 1e-6)
    assert not ok


def test_congruence_identity(fat_pool_small):
    net = cut_and_unfold(_tet_for(fat_pool_small[0], 0))
    as_poly = EquilateralPolygon(net.boundary)
    ok, align = congruent_to_polygon(net, as_poly, 1e-12)
    assert ok
    assert align.max_deviation < 1e-12
    assert not align.mirrored and align.shift == 0 and not align.reversed_order
    assert align.angle == pytest.approx(0.0, abs=1e-12)


def test_mirrored_source_still_congruent(fat_pool_small):
    poly = fat_pool_small[4]
    net = cut_and_unfold(_tet_for(poly, 0))
    mirrored = EquilateralPolygon(tuple((x, -y) for x, y in poly.vertices))
    ok, align = congruent_to_polygon(net, mirrored, 1e-6)
    assert ok
