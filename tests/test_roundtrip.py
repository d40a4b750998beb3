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
from zipfold.embed import TetraMetric, Tetrahedron3D
from zipfold.geodesic import DistanceTable
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


def _count_alignments(monkeypatch):
    seen = collections.Counter()
    orig = geometry.best_rigid_alignment

    def counted(*args, **kwargs):
        seen["calls"] += 1
        return orig(*args, **kwargs)

    for mod in (geometry, netmod, pipeline):
        monkeypatch.setattr(mod, "best_rigid_alignment", counted, raising=False)
    return seen


def _deviations(net, poly, apex):
    """The deviations of the net and of its mirror image from the polygon,
    under the labeling `matches_source` reads, each aligned directly."""
    src = net.boundary
    corner = net.boundary_labels.index("a")
    turn = (corner - apex) % 6
    back = (5 - corner - apex) % 6
    mirror = tuple((x, -y) for x, y in reversed(src))
    return (
        geometry.best_rigid_alignment(src[turn:] + src[:turn], poly.vertices)[0],
        geometry.best_rigid_alignment(mirror[back:] + mirror[:back], poly.vertices)[0],
    )


def test_hexagon_verify_aligns_twice_per_halving(fat_pool_small, monkeypatch):
    """Once per halving, and the mirror image a second time on each
    halving whose net misses."""
    audits = [a for poly in fat_pool_small[:3] for a in pipeline.verify_polygon(poly).audits]
    tol = Tolerances().tol_congruence
    misses = sum(
        _deviations(a.net, a.gluing.polygon, a.gluing.cone_points[0].vertices[0])[0] > tol for a in audits
    )
    assert 0 < misses < len(audits) == 9
    seen = _count_alignments(monkeypatch)
    for poly in fat_pool_small[:3]:
        assert pipeline.verify_polygon(poly).status == PASS
    assert seen["calls"] == 9 + misses


def _scripted(monkeypatch, deviations):
    """best_rigid_alignment in the pipeline, answering with `deviations` in
    turn; returns the list of calls made."""
    calls = []

    def scripted(src, dst):
        calls.append(src)
        return deviations[len(calls) - 1], 0.0, (0.0, 0.0)

    monkeypatch.setattr(pipeline, "best_rigid_alignment", scripted)
    return calls


def test_the_mirror_is_aligned_only_when_the_net_misses_with_mins_verdict(fat_pool_small, monkeypatch):
    """matches_source reads min(net, mirror) <= tol, a NaN first deviation
    and a NaN tol included, and aligns the mirror image only on a miss."""
    poly = fat_pool_small[0]
    net = _net(poly, 0)
    nan, tol = math.nan, 1e-6
    cases = [
        (nan, 0.0, tol),  # a NaN first deviation misses, as min keeps it
        (nan, nan, tol),
        (0.5, 0.0, tol),  # mirror only
        (0.0, 0.5, tol),  # net only
        (0.0, nan, tol),
        (0.5, nan, tol),
        (0.5, 0.7, tol),
        (tol, 0.5, tol),  # a deviation of exactly tol matches
        (0.5, tol, tol),
        (0.0, 0.0, nan),
        (0.5, 0.0, nan),
        (0.5, 0.0, math.inf),
        (math.inf, 0.0, tol),
    ]
    for net_dev, mirror_dev, tol in cases:
        calls = _scripted(monkeypatch, (net_dev, mirror_dev))
        want = min(net_dev, mirror_dev) <= tol
        assert matches_source(net, poly, 0, tol) == want, (net_dev, mirror_dev, tol)
        assert len(calls) == (2 if net_dev > tol else 1)
        assert calls[0] == net.boundary[1:] + net.boundary[:1]  # the net itself first, from corner "a"


def test_matches_source_equals_the_smaller_deviation_within_tol(fat_pool_small, thin_hexagon):
    """On real nets, at tolerances between, at and past the two deviations."""
    both = collections.Counter()
    for poly in fat_pool_small[:10] + [thin_hexagon]:
        for i in range(3):
            net = _net(poly, i)
            net_dev, mirror_dev = _deviations(net, poly, i)
            both[net_dev < mirror_dev] += 1
            for tol in (0.0, min(net_dev, mirror_dev), (net_dev + mirror_dev) / 2, max(net_dev, mirror_dev), 1e-6):
                assert matches_source(net, poly, i, tol) == (min(net_dev, mirror_dev) <= tol)
    assert both[True] and both[False]


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

    def spy(metric, tol_vol, tol_embed, tol_geodesic):
        seen.append((tol_vol, tol_embed, tol_geodesic))
        return orig(metric, tol_vol, tol_embed, tol_geodesic)

    monkeypatch.setattr(pipeline, "embed", spy)
    cfg = PipelineConfig(tolerances=Tolerances(tol_embed=3e-8, tol_vol=2e-12, tol_geodesic=2e-9))
    audit_halving(fat_pool_small[0], 0, cfg, fat=True)
    assert seen == [(2e-12, 3e-8, 2e-9)]


def test_the_audit_checks_the_metrics_triangles_at_the_runs_tol_geodesic(fat_pool_small, monkeypatch):
    """A flat metric whose triangle acd is 2e-9 past straight fails the
    default tol_geodesic of 1e-9 but passes a run's 1e-8, in `embed`, the
    one place the audit checks it: it embeds, and the solid lines are
    judged."""
    root = math.sqrt(1.0 + 1e-6)
    metric = TetraMetric(1e-3, 1.0, 1.0, root, root, 2.0 + 2e-9)
    monkeypatch.setattr(DistanceTable, "tetra_metric", lambda self, fat: metric)
    cfg = PipelineConfig(tolerances=Tolerances(tol_geodesic=1e-8))
    audit = audit_halving(fat_pool_small[0], 0, cfg, fat=True)
    assert audit.error is None
    assert audit.metric is metric and audit.tetra.flat
    assert audit_halving(fat_pool_small[0], 0, fat=True).error == "triangle inequality fails on {a,c,d}"
