"""The round trip is checked under the labeling each halving fixes.

`cut_and_unfold` labels the net boundary (c, a, c, d, b, d), and corner "a"
is the fold vertex, so only the net and its mirror image can be the source:
two rigid alignments per halving instead of the 24 correspondences
`congruent_to_polygon` searches.  The 3D tail (face areas, vertex angle
sums) runs in scalar floats.
"""

import collections
import importlib
import itertools
import math

import numpy as np
import pytest

from zipfold import (
    EquilateralPolygon,
    congruent_to_polygon,
    cut_and_unfold,
    embed,
    geometry,
    glue_halving,
    net as netmod,
    pipeline,
    tetra_metric,
    vertex_angle_sums,
)
from zipfold.embed import Tetrahedron3D
from zipfold.pipeline import PASS, PipelineConfig, audit_halving, matches_source
from zipfold.polygon import Tolerances

embedmod = importlib.import_module("zipfold.embed")  # `zipfold.embed` is the function


def _net(poly, fold_index):
    return cut_and_unfold(embed(tetra_metric(glue_halving(poly, fold_index))))


def _relabeled(poly, by):
    """The same polygon with its vertex labels shifted by `by`."""
    v = poly.vertices
    return EquilateralPolygon(v[by:] + v[:by])


def test_labeled_check_agrees_with_24_way(fat_pool_small, thin_hexagon, degenerate_hexagon):
    for poly in fat_pool_small[:10] + [thin_hexagon]:
        for i in range(3):
            net = _net(poly, i)
            assert congruent_to_polygon(net, poly, 1e-6)[0]
            assert matches_source(net, poly, i, 1e-6)
    net = _net(degenerate_hexagon, 1)
    assert matches_source(net, degenerate_hexagon, 1, 1e-6)


def test_net_congruent_only_under_shifted_labeling_fails(fat_pool_small):
    for poly in fat_pool_small[:5]:
        for i in range(3):
            net = _net(poly, i)
            for by in (1, 2, 3):
                other = _relabeled(poly, by)
                assert congruent_to_polygon(net, other, 1e-6)[0]
                assert not matches_source(net, other, i, 1e-6)
            # the labeling moved with the vertices, so the fold vertex moved too
            assert matches_source(net, _relabeled(poly, 1), (i - 1) % 6, 1e-6)


def test_both_chiralities_of_the_net_occur(fat_pool_small):
    """Half the nets are the source's mirror image: the reflection is not
    fixed by orientation (every net boundary is counterclockwise)."""
    mirrored = collections.Counter()
    for poly in fat_pool_small[:10]:
        for i in range(3):
            net = _net(poly, i)
            assert geometry.polygon_signed_area(net.boundary) > 0
            ok, align = congruent_to_polygon(net, poly, 1e-6)
            assert ok and matches_source(net, poly, i, 1e-6)
            mirrored[align.mirrored] += 1
    assert mirrored[True] > 0 and mirrored[False] > 0


def test_apex_reflected_below_the_base_still_matches(fat_pool_small):
    for poly in fat_pool_small[:5]:
        for i in range(3):
            tet = embed(tetra_metric(glue_halving(poly, i)))
            x, y, z = tet.d
            assert z > 0
            flipped = Tetrahedron3D(tet.a, tet.b, tet.c, (x, y, -z), tet.flat, tet.volume2)
            net = cut_and_unfold(flipped)
            assert matches_source(net, poly, i, 1e-6)
            # the layout reads edge lengths only, so the chirality never reaches the net
            assert net.boundary == cut_and_unfold(tet).boundary


@pytest.fixture()
def alignments(monkeypatch):
    seen = collections.Counter()
    orig = geometry.best_rigid_alignment

    def counted(*args, **kwargs):
        seen["calls"] += 1
        return orig(*args, **kwargs)

    for mod in (geometry, netmod, pipeline):
        monkeypatch.setattr(mod, "best_rigid_alignment", counted, raising=False)
    return seen


def test_hexagon_verify_aligns_twice_per_halving(fat_pool_small, alignments):
    assert pipeline.verify_polygon(fat_pool_small[0]).status == PASS
    assert alignments["calls"] == 3 * 2


class _CountingNumpy:
    def __init__(self, seen):
        self._seen = seen

    def __getattr__(self, name):
        self._seen[name] += 1
        return getattr(np, name)


def test_tail_makes_no_numpy_call(fat_pool_small, monkeypatch):
    tet = embed(tetra_metric(glue_halving(fat_pool_small[0], 0)))
    seen = collections.Counter()
    monkeypatch.setattr(embedmod, "np", _CountingNumpy(seen))
    areas = tet.face_areas()
    sums = vertex_angle_sums(tet)
    assert not seen
    assert tet.surface_area() == pytest.approx(sum(areas.values()))
    assert sum(sums.values()) == pytest.approx(4.0 * math.pi, abs=1e-9)


def _numpy_face_areas(tet):
    """face_areas as it was computed with numpy, the reference."""
    areas = {}
    for face in Tetrahedron3D.FACES:
        p, q, r = (np.asarray(tet.point(k)) for k in face)
        areas["".join(face)] = 0.5 * float(np.linalg.norm(np.cross(q - p, r - p)))
    return areas


def _numpy_angle_sums(tet):
    """vertex_angle_sums as it was computed with numpy, the reference."""
    pts = {k: np.asarray(tet.point(k)) for k in "abcd"}
    sums = {}
    for v in "abcd":
        total = 0.0
        for x, y in itertools.combinations([o for o in "abcd" if o != v], 2):
            u1, u2 = pts[x] - pts[v], pts[y] - pts[v]
            cosang = np.dot(u1, u2) / (np.linalg.norm(u1) * np.linalg.norm(u2))
            total += math.acos(min(1.0, max(-1.0, float(cosang))))
        sums[v] = total
    return sums


def test_scalar_tail_matches_numpy_reference(fat_pool_small, regular_hexagon, degenerate_hexagon):
    polys = fat_pool_small[:20] + [regular_hexagon, degenerate_hexagon]
    tets = [embed(tetra_metric(glue_halving(p, i))) for p in polys for i in range(3)]
    assert any(t.flat for t in tets)
    for tet in tets:
        areas, want = tet.face_areas(), _numpy_face_areas(tet)
        assert areas.keys() == want.keys()
        for face, area in areas.items():
            assert area == pytest.approx(want[face], rel=1e-13, abs=1e-15)
        sums, want = vertex_angle_sums(tet), _numpy_angle_sums(tet)
        for v in "abcd":
            assert sums[v] == pytest.approx(want[v], rel=0, abs=1e-12)


def test_the_audit_embeds_at_tol_embed(fat_pool_small, monkeypatch):
    seen = []
    orig = pipeline.embed

    def spy(metric, tol_vol, tol_embed):
        seen.append((tol_vol, tol_embed))
        return orig(metric, tol_vol, tol_embed)

    monkeypatch.setattr(pipeline, "embed", spy)
    cfg = PipelineConfig(tolerances=Tolerances(tol_embed=3e-8, tol_vol=2e-12))
    audit_halving(fat_pool_small[0], 0, cfg, fat=True)
    assert seen == [(2e-12, 3e-8)]
