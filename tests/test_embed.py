import itertools
import math

import pytest

from zipfold import (
    MetricError,
    TetraMetric,
    Tolerances,
    cayley_menger_volume2,
    cone_angles,
    congruent_tetrahedra,
    embed,
    enumerate_halvings,
    glue_halving,
    tetra_metric,
    vertex_angle_sums,
)
from zipfold.embed import Tetrahedron3D, obj_lines

PI = math.pi


def unit_metric():
    return TetraMetric(1, 1, 1, 1, 1, 1)


def test_regular_tetrahedron_volume():
    v2 = cayley_menger_volume2(unit_metric())
    assert math.sqrt(v2) == pytest.approx(math.sqrt(2) / 12, abs=1e-15)


def test_doubly_covered_square_is_flat():
    m = TetraMetric(d_ab=1, d_ac=1, d_ad=math.sqrt(2), d_bc=math.sqrt(2), d_bd=1, d_cd=1)
    assert abs(cayley_menger_volume2(m)) <= 1e-12
    tet = embed(m)
    assert tet.flat
    assert all(p[2] == 0.0 for p in (tet.a, tet.b, tet.c, tet.d))


def test_regular_hexagon_halving_is_flat_trapezoid(regular_hexagon):
    # halving a regular hexagon at opposite vertices is a mirror fold, so
    # the resulting "tetrahedron" is a doubly covered trapezoid
    m = tetra_metric(glue_halving(regular_hexagon, 0))
    v2 = cayley_menger_volume2(m)
    assert abs(v2) <= 1e-12
    assert embed(m).flat


def test_triangle_violation_rejected():
    with pytest.raises(MetricError, match="triangle"):
        cayley_menger_volume2(TetraMetric(5, 1, 1, 1, 1, 1))


def test_embed_checks_the_triangle_inequalities_at_the_given_tol_geodesic():
    """A metric whose triangle acd is 5e-7 past straight passes a run's
    tol_geodesic of 1e-6, as the distance table checks it.  embed must
    check at that tolerance too, not at the default 1e-9; the metric then
    fails as unrealizable, and a flat one 2e-9 past straight embeds."""
    tol = Tolerances(tol_geodesic=1e-6)
    m = TetraMetric(1, 1, 1, 1, 1, 2 + 5e-7)
    m.check_triangle_inequalities(tol.tol_geodesic)
    with pytest.raises(MetricError, match=r"triangle inequality fails on \{a,c,d\}"):
        embed(m, tol.tol_vol, tol.tol_embed)
    with pytest.raises(MetricError, match="not realizable"):
        embed(m, tol.tol_vol, tol.tol_embed, tol.tol_geodesic)
    with pytest.raises(MetricError, match="not realizable"):
        cayley_menger_volume2(m, tol.tol_vol, tol.tol_geodesic)
    root = math.sqrt(1.0 + 1e-6)
    flat = TetraMetric(1e-3, 1.0, 1.0, root, root, 2.0 + 2e-9)
    with pytest.raises(MetricError, match="triangle"):
        embed(flat)
    tet = embed(flat, tol_geodesic=1e-8)
    assert tet.flat and tet.d[2] == 0.0


def test_nonpositive_distance_rejected():
    with pytest.raises(MetricError):
        TetraMetric(1, 1, 1, 1, 1, 0.0)


def test_unrealizable_metric_rejected():
    # triangle inequalities hold but the 4-point metric has negative CM sign
    bad = TetraMetric(d_ab=1, d_ac=1, d_ad=1.9, d_bc=1.9, d_bd=1, d_cd=1.9)
    with pytest.raises(MetricError, match="not realizable"):
        cayley_menger_volume2(bad)


def test_embed_canonical_frame():
    tet = embed(unit_metric())
    assert tet.a == (0.0, 0.0, 0.0)
    assert tet.b[1] == 0.0 and tet.b[2] == 0.0 and tet.b[0] > 0
    assert tet.c[1] > 0 and tet.c[2] == 0.0
    assert tet.d[2] > 0


def test_embed_reproduces_distances(fat_pool_small):
    for poly in fat_pool_small[:10]:
        for g in enumerate_halvings(poly):
            m = tetra_metric(g)
            tet = embed(m)
            for u, v in itertools.combinations("abcd", 2):
                assert tet.edge_length(u, v) == pytest.approx(m.distance(u, v), abs=1e-8)


def test_embed_bit_deterministic(fat_pool_small):
    m = tetra_metric(glue_halving(fat_pool_small[0], 0))
    t1 = embed(m)
    t2 = embed(m)
    assert t1.points() == t2.points()


def test_vertex_angle_sums_regular_tetrahedron():
    sums = vertex_angle_sums(embed(unit_metric()))
    assert list(sums.values()) == pytest.approx([PI] * 4, abs=1e-12)


def test_angle_sums_complement_curvature(fat_pool_small):
    for poly in fat_pool_small[:10]:
        for g in enumerate_halvings(poly):
            curv = cone_angles(g)
            tet = embed(tetra_metric(g))
            sums = vertex_angle_sums(tet)
            for k, label in enumerate("abcd"):
                assert (2 * PI - sums[label]) == pytest.approx(
                    curv.curvatures[k], abs=1e-7
                )


def test_flat_square_angle_sums(degenerate_hexagon):
    g = glue_halving(degenerate_hexagon, 1)
    tet = embed(tetra_metric(g))
    sums = vertex_angle_sums(tet)
    assert list(sums.values()) == pytest.approx([PI] * 4, abs=1e-12)


def test_congruence_reflexive_and_mirror():
    tet = embed(unit_metric())
    assert congruent_tetrahedra(tet, tet, 0.0)
    mirror = tet.__class__(
        a=tet.a,
        b=tet.b,
        c=tet.c,
        d=(tet.d[0], tet.d[1], -tet.d[2]),
        flat=tet.flat,
        volume2=tet.volume2,
    )
    assert congruent_tetrahedra(tet, mirror, 1e-12)


def test_congruence_detects_difference(fat_pool_small):
    tets = [embed(tetra_metric(g)) for g in enumerate_halvings(fat_pool_small[0])]
    assert not congruent_tetrahedra(tets[0], tets[1], 1e-6)
    assert not congruent_tetrahedra(tets[0], tets[2], 1e-6)
    assert not congruent_tetrahedra(tets[1], tets[2], 1e-6)


def test_regular_hexagon_tetrahedra_congruent(regular_hexagon):
    tets = [embed(tetra_metric(g)) for g in enumerate_halvings(regular_hexagon)]
    for t1, t2 in itertools.combinations(tets, 2):
        assert congruent_tetrahedra(t1, t2, 1e-9)


def test_congruence_symmetric_and_transitive(fat_pool_small):
    tets = [embed(tetra_metric(glue_halving(p, 0))) for p in fat_pool_small[:4]]
    for t1, t2 in itertools.combinations(tets, 2):
        assert congruent_tetrahedra(t1, t2, 1e-6) == congruent_tetrahedra(t2, t1, 1e-6)
    # transitivity at matched tolerances via a congruent copy chain
    base = tets[0]
    assert congruent_tetrahedra(base, base, 0.0)


def _congruent_by_edge_queries(t1, t2, tol):
    """congruent_tetrahedra as it read t2's edges: one query per pair per correspondence."""
    d1 = {frozenset(p): t1.edge_length(*p) for p in itertools.combinations("abcd", 2)}
    for perm in itertools.permutations("abcd"):
        mapping = dict(zip("abcd", perm))
        ok = True
        for pair, length in d1.items():
            u, v = tuple(pair)
            if abs(length - t2.edge_length(mapping[u], mapping[v])) > tol:
                ok = False
                break
        if ok:
            return True
    return False


def _relabel(tet, perm):
    pts = dict(zip("abcd", (tet.point(k) for k in perm)))
    return Tetrahedron3D(**pts, flat=tet.flat, volume2=tet.volume2)


def _checked_congruence(t1, t2, tol, monkeypatch):
    """congruent_tetrahedra(t1, t2, tol), asserted equal to the reference
    and to read each tetrahedron's six edges once."""
    want = _congruent_by_edge_queries(t1, t2, tol)
    seen = {"edges": 0}
    edge_length = Tetrahedron3D.edge_length

    def counted(self, u, v):
        seen["edges"] += 1
        return edge_length(self, u, v)

    with monkeypatch.context() as patch:
        patch.setattr(Tetrahedron3D, "edge_length", counted)
        got = congruent_tetrahedra(t1, t2, tol)
    assert got == want
    assert seen["edges"] == 12
    return got


def _gaps(t1, t2):
    """|x - y| of the two tetrahedra's sorted edge lengths, rank by rank."""
    lengths = [sorted(t.edge_length(u, v) for u, v in itertools.combinations("abcd", 2)) for t in (t1, t2)]
    return [abs(x - y) for x, y in zip(*lengths)]


def test_congruence_reads_each_edge_once_with_the_same_verdict(fat_pool_small, monkeypatch):
    tets = [embed(tetra_metric(g)) for p in fat_pool_small[:6] for g in enumerate_halvings(p)]
    cases = list(itertools.combinations(tets, 2))
    for k, tet in enumerate(tets):
        x, y, z = tet.d
        mirror = Tetrahedron3D(tet.a, tet.b, tet.c, (x, y, -z), tet.flat, tet.volume2)
        cases.append((tet, mirror))
        for perm in list(itertools.permutations("abcd"))[k % 5 :: 5]:
            cases.append((tet, _relabel(tet, perm)))
            cases.append((_relabel(mirror, perm), tet))
    verdicts = set()
    for t1, t2 in cases:
        for tol in (0.0, 1e-12, 1e-6, 1e-2, 0.3):
            verdicts.add(_checked_congruence(t1, t2, tol, monkeypatch))
    assert verdicts == {True, False}


def _least_matching_tol(t1, t2):
    """The least tol at which some correspondence matches: the smallest,
    over the 24, of its largest gap."""
    pairs = list(itertools.combinations("abcd", 2))
    return min(
        max(abs(t1.edge_length(u, v) - t2.edge_length(perm["abcd".index(u)], perm["abcd".index(v)])) for u, v in pairs)
        for perm in itertools.permutations("abcd")
    )


def test_the_sorted_length_test_rejects_only_past_tol(fat_pool_small, monkeypatch):
    """Copies with their apex nudged, relabeled so that the identity
    correspondence fails.  At the least tol at which a correspondence
    matches, the sorted test must pass the pair on, also where its own
    largest gap equals that tol exactly; one ulp below, both reject."""
    tets = [embed(tetra_metric(g)) for p in fat_pool_small[:4] for g in enumerate_halvings(p)]
    ties = 0
    for k, tet in enumerate(tets):
        x, y, z = tet.d
        nudged = Tetrahedron3D(tet.a, tet.b, tet.c, (x + 3e-7, y - 2e-7, z + 1e-7), tet.flat, tet.volume2)
        for perm in list(itertools.permutations("abcd"))[1 + k % 7 :: 7]:
            other = _relabel(nudged, perm)
            need = _least_matching_tol(tet, other)
            assert 0.0 < need < 1e-6
            assert max(_gaps(tet, other)) <= need
            ties += max(_gaps(tet, other)) == need
            assert not _checked_congruence(tet, other, 0.0, monkeypatch)
            assert _checked_congruence(tet, other, need, monkeypatch)
            assert _checked_congruence(other, tet, need, monkeypatch)
            assert not _checked_congruence(tet, other, math.nextafter(need, 0.0), monkeypatch)
    assert ties >= 10


def test_the_sorted_length_test_skips_nan_and_inf_lengths(monkeypatch):
    """Hand-built tetrahedra with a NaN or an inf coordinate.  The
    correspondences count a NaN gap as a match, so a tetrahedron with a NaN
    apex matches any whose face abc fits, though its sorted lengths differ;
    the sorted test must not decide there."""
    base = ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.5, math.sqrt(3.0) / 2.0, 0.0))
    centroid = (0.5, math.sqrt(3.0) / 6.0)
    regular = Tetrahedron3D(*base, (*centroid, math.sqrt(2.0 / 3.0)), False, 0.0)
    tall = Tetrahedron3D(*base, (*centroid, math.sqrt(4.0 - 1.0 / 3.0)), False, 0.0)
    nan_apex = Tetrahedron3D(*base, (math.nan, 0.0, 0.0), False, 0.0)
    inf_apex = Tetrahedron3D(*base, (math.inf, 0.0, 0.0), False, 0.0)
    far_apex = Tetrahedron3D(*base, (0.5, math.inf, 0.0), False, 0.0)
    inf_edge = Tetrahedron3D(base[0], base[1], (0.5, math.inf, 0.0), (*centroid, 1.0), False, 0.0)
    shapes = (regular, tall, nan_apex, inf_apex, far_apex, inf_edge)
    verdicts = {}
    for t1, t2 in itertools.product(shapes, repeat=2):
        for tol in (0.0, 1e-9, 0.5, 2.0):
            verdicts[shapes.index(t1), shapes.index(t2), tol] = _checked_congruence(t1, t2, tol, monkeypatch)
    assert max(_gaps(nan_apex, tall)[:3]) <= 1e-15 and verdicts[2, 1, 1e-9]
    assert verdicts[3, 4, 0.0] and not verdicts[3, 1, 2.0]


def test_edge_lengths_are_each_tetrahedrons_own_and_read_either_way_round(fat_pool_small):
    tets = [embed(tetra_metric(g)) for g in enumerate_halvings(fat_pool_small[0])]
    for tet in tets:
        for u, v in itertools.combinations("abcd", 2):
            length = math.dist(tet.point(u), tet.point(v))
            assert tet.edge_length(u, v) == tet.edge_length(v, u) == length
    assert len({tet.edge_length("a", "b") for tet in tets}) == len(tets)


def test_obj_output_structure():
    lines = obj_lines(embed(unit_metric()))
    assert len(lines) == 8
    assert all(l.startswith("v ") for l in lines[:4])
    assert all(l.startswith("f ") for l in lines[4:])
    # outward orientation: signed volume of each face against the centroid
    import numpy as np

    verts = [np.array([float(x) for x in l.split()[1:]]) for l in lines[:4]]
    centroid = sum(verts) / 4
    for l in lines[4:]:
        i, j, k = (int(s) - 1 for s in l.split()[1:])
        normal = np.cross(verts[j] - verts[i], verts[k] - verts[i])
        face_center = (verts[i] + verts[j] + verts[k]) / 3
        assert np.dot(normal, face_center - centroid) > 0
