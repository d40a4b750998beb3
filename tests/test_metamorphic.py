"""Verdicts do not depend on where a polygon lies or how it is labelled.

The `verify_polygon` scorecard judges a polygon as a shape: its place in
the plane, the vertex its labels start from and the hand it is drawn in do
not enter.  Each fat polygon below is moved by one rotation and a
translation of up to 50, relabelled to start from each of its other
vertices, and mirrored with its vertex order reversed, which keeps it
counterclockwise.  At the default cap every scorecard must be identical.

At a low cap a search stops after a few pops, and which pops come first
can follow the last bits of the placement: the zipper distances and the
lower bounds along unit edges equal 1 in exact arithmetic and land an ulp
or so either side of it in floats.  So at cap 3 a line may move between
pass and inconclusive, but never to or from fail.
"""

import cmath
import random

import pytest

from zipfold import EquilateralPolygon, sample_fat_ngon
from zipfold.pipeline import FAIL, PipelineConfig, verify_polygon

SEEDS = {6: (0, 1, 2, 3, 4, 5), 8: (0, 1, 2, 3), 10: (0, 1, 2)}
TRANSLATION = 50.0


def _moved(poly, seed):
    """The polygon turned about the origin and translated, both drawn from seed."""
    rng = random.Random(seed)
    rot = cmath.rect(1.0, rng.uniform(0.0, 2.0 * cmath.pi))
    trans = complex(rng.uniform(-TRANSLATION, TRANSLATION), rng.uniform(-TRANSLATION, TRANSLATION))
    moved = [rot * p + trans for p in poly.as_complex()]
    return EquilateralPolygon(tuple((p.real, p.imag) for p in moved))


def _variants(poly, seed):
    vs = poly.vertices
    yield "moved", _moved(poly, seed)
    for k in range(1, poly.n):
        yield f"from_{k}", EquilateralPolygon(vs[k:] + vs[:k])
    yield "mirrored", EquilateralPolygon(tuple((-x, y) for x, y in reversed(vs)))


def _cases():
    return [pytest.param(n, seed, id=f"fat{n}_{seed}") for n, seeds in SEEDS.items() for seed in seeds]


def _fails(card):
    return [(line, status == FAIL) for line, status in card]


@pytest.mark.parametrize("n, seed", _cases())
def test_scorecards_do_not_depend_on_placement_labels_or_hand(n, seed):
    poly = sample_fat_ngon(n, seed)
    low = PipelineConfig(dev_cap=3)
    card = verify_polygon(poly).scorecard()
    low_fails = _fails(verify_polygon(poly, low).scorecard())
    for name, variant in _variants(poly, seed):
        assert verify_polygon(variant).scorecard() == card, name
        assert _fails(verify_polygon(variant, low).scorecard()) == low_fails, name
