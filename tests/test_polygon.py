import math
from fractions import Fraction

import numpy as np
import pytest

from zipfold import (
    EquilateralPolygon,
    MalformedPolygonError,
    SamplingBudgetError,
    check_independence,
    diagonal_lengths,
    interior_angles,
    polygon_from_dict,
    sample_fat_hexagon,
    sample_fat_ngon,
    solve_closure,
    validate,
)
from conftest import symmetric_hexagon

PI = math.pi


def test_regular_hexagon_passes_every_check(regular_hexagon):
    rep = validate(regular_hexagon)
    assert rep.equilateral_ok
    assert rep.strictly_convex
    assert rep.fat_ok
    assert rep.diagonal_ok
    assert rep.theorem_ok
    assert rep.angles == pytest.approx([2 * PI / 3] * 6, abs=1e-12)


def test_slightly_too_sharp_angle_fails_fatness():
    poly = symmetric_hexagon(2 * PI / 3 + 0.01)  # one angle pi/3 - 0.01
    rep = validate(poly)
    assert rep.equilateral_ok and rep.strictly_convex
    assert not rep.fat_ok
    assert min(rep.angles) == pytest.approx(PI / 3 - 0.01, abs=1e-12)


def test_degenerate_hexagon_flagged_weakly_convex(degenerate_hexagon):
    rep = validate(degenerate_hexagon)
    assert rep.equilateral_ok
    assert rep.convexity_ok and not rep.strictly_convex
    assert set(rep.weak_vertices) == {1, 4}
    assert not rep.fat_ok
    assert sorted(rep.fat_violations) == [1, 4]
    assert rep.angles == pytest.approx([PI / 2, PI, PI / 2, PI / 2, PI, PI / 2], abs=1e-12)


@pytest.mark.parametrize(
    "verts,match",
    [
        ((((0, 0), (1, 0), (0.5, 1))), "below the minimum"),
        ((((0, 0), (1, 0), (2, 0.3), (2, 1), (1.2, 1.6), (0.3, 1.4), (-0.4, 0.7))), "odd"),
        ((((0, 0), (1, 0), (1, 1), (0, 0), (1, 0), (1, 1))), "repeated"),
    ],
)
def test_malformed_inputs_rejected(verts, match):
    with pytest.raises(MalformedPolygonError, match=match):
        validate(EquilateralPolygon(tuple(verts)))


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: validate(EquilateralPolygon(((0, 0), (1, 0), (1, 1), (0, 0), (1, 0), (1, 1)))),
         "repeated vertex: indices 0 and 3"),
        # vertex 2 returns to vertex 0
        (lambda: solve_closure([0.0, PI, PI / 2, PI / 2]), "degenerate: coincident vertices"),
        # the regular hexagon's chain, turning clockwise
        (lambda: solve_closure([0.0, -PI / 3, -2 * PI / 3, -PI]), "not counterclockwise"),
        # vertex 2 turns clockwise
        (lambda: solve_closure([0.0, 1.5, 1.2, PI + 0.3]), "polygon not convex"),
    ],
    ids=["repeated-vertex", "coincident", "clockwise", "not-convex"],
)
def test_boundary_rejection_messages(make, message):
    try:
        rejected = [reason for _, reason in make().rejected]
    except MalformedPolygonError as exc:
        rejected = [str(exc)]
    assert rejected and set(rejected) == {message}


def test_interior_angles_of_unit_square():
    # n=4 is rejected by validate but the angle helper still works on it
    prof = interior_angles([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert prof.angles == pytest.approx([PI / 2] * 4, abs=1e-12)
    assert prof.sum_residual == pytest.approx(0.0, abs=1e-12)


def test_regular_hexagon_diagonals_all_two(regular_hexagon):
    rep = diagonal_lengths(regular_hexagon)
    assert rep.lengths == pytest.approx([2.0, 2.0, 2.0], abs=1e-12)
    assert not rep.violations


def test_degenerate_hexagon_diagonals(degenerate_hexagon):
    # direct coordinates: (0,0)-(2,1), (1,0)-(1,1), (2,0)-(0,1)
    rep = diagonal_lengths(degenerate_hexagon)
    assert sorted(rep.lengths) == pytest.approx([1.0, math.sqrt(5), math.sqrt(5)], abs=1e-12)
    assert rep.min_length == pytest.approx(1.0, abs=1e-12)
    assert not rep.violations  # the bound is tight here, not violated


def test_sampled_diagonals_never_below_one():
    for seed in range(2000):
        poly = sample_fat_hexagon(seed, require_independent=False)
        assert not diagonal_lengths(poly).violations


# -- rational-dependence screening ------------------------------------------

def test_equal_angles_dependent_with_simplest_witness():
    rep = check_independence([2 * PI / 3, 2 * PI / 3], bound=16)
    pair = rep.pairs[(0, 1)]
    assert pair.status == "dependent"
    assert pair.witness == (Fraction(0), Fraction(1))


def test_half_angle_relation_detected():
    a0 = 2.0
    rep = check_independence([a0, PI - 0.5 * a0], bound=16)
    pair = rep.pairs[(0, 1)]
    assert pair.status == "dependent"
    assert pair.witness == (Fraction(1), Fraction(-1, 2))
    assert pair.direction == (0, 1)


def test_generic_pair_independent_up_to_bound():
    rep = check_independence([2 * PI / 3 + 0.1, 2 * PI / 3 + 0.01 * math.sqrt(2)], bound=16)
    assert rep.pairs[(0, 1)].status == "independent"


def test_witness_swaps_within_doubled_bound():
    # a witness y = a*pi + b*x inverts to x = (-a/b)*pi + (1/b)*y; for the
    # screened relations the inverted coefficients stay within twice the bound
    a0 = 2.0
    cases = [
        (a0, PI - 0.5 * a0),
        (PI - 1.0, 2 * PI - 2 * (PI - 1.0)),
        (a0, 0.75 * PI - a0),
    ]
    for x, y in cases:
        rep = check_independence([x, y], bound=16)
        pair = rep.pairs[(0, 1)]
        assert pair.status == "dependent"
        a, b = pair.witness
        assert b != 0
        a_inv, b_inv = -a / b, 1 / b
        for frac in (a_inv, b_inv):
            assert abs(frac.numerator) <= 32 and abs(frac.denominator) <= 32
        # and the reversed instantiation is itself detected at the doubled bound
        rev = check_independence([y, x], bound=32)
        assert rev.pairs[(0, 1)].status == "dependent"


def test_independence_screen_symmetric():
    angles = [1.0, PI - 0.5]
    rep1 = check_independence(angles, bound=16)
    rep2 = check_independence(list(reversed(angles)), bound=16)
    assert rep1.pairs[(0, 1)].status == rep2.pairs[(0, 1)].status


# -- closure construction -----------------------------------------------------

def test_closure_regular_directions_give_regular_hexagon(regular_hexagon):
    res = solve_closure([0.0, PI / 3, 2 * PI / 3, PI])
    assert res.ok
    best = min(
        max(
            math.dist(p, q)
            for p, q in zip(poly.vertices, regular_hexagon.vertices)
        )
        for poly in res.polygons
    )
    assert best < 1e-12


def test_closure_collinear_chain_fails():
    res = solve_closure([0.0, 0.0, 0.0, 0.0])
    assert not res.ok
    assert res.gap_length == pytest.approx(4.0)
    assert any("exceeds 2" in r for _, r in res.rejected)


def test_closure_perturbed_regular_is_fat():
    res = solve_closure([0.0, PI / 3 + 0.05, 2 * PI / 3 - 0.02, PI + 0.01])
    assert res.ok
    assert any(validate(p).theorem_ok or validate(p).fat_ok for p in res.polygons)


def test_closure_roundtrip_through_angles():
    # rebuild a sampled polygon from its own edge directions: congruent copy
    for seed in range(10):
        poly = sample_fat_hexagon(seed, require_independent=False)
        pts = poly.as_array()
        dirs = []
        for i in range(4):
            d = pts[(i + 1) % 6] - pts[i]
            dirs.append(math.atan2(d[1], d[0]))
        res = solve_closure(dirs)
        assert res.ok
        best = min(
            max(np.hypot(*(q.as_array() - pts).T).max() for q in [p]) for p in res.polygons
        )
        assert best < 1e-8


# -- sampler -------------------------------------------------------------------

def test_sampler_deterministic():
    assert sample_fat_hexagon(123).vertices == sample_fat_hexagon(123).vertices


def test_sampler_output_validates():
    for seed in range(200):
        rep = validate(sample_fat_hexagon(seed))
        assert rep.theorem_ok


def test_sampler_rejects_bad_budget():
    with pytest.raises(SamplingBudgetError) as err:
        sample_fat_ngon(6, 0, max_attempts=0)
    assert err.value.attempts == 0


def test_sampler_even_n_only():
    with pytest.raises(MalformedPolygonError):
        sample_fat_ngon(7, 0)


def test_sampler_supports_larger_n():
    for n in (8, 10):
        poly = sample_fat_ngon(n, 1)
        rep = validate(poly)
        assert rep.theorem_ok
        assert poly.n == n


# -- file io --------------------------------------------------------------------

def test_polygon_dict_vertices_roundtrip(regular_hexagon):
    data = {"vertices": [[x, y] for x, y in regular_hexagon.vertices]}
    poly = polygon_from_dict(data)
    assert poly.vertices == regular_hexagon.vertices


def test_polygon_dict_turns_form():
    poly = polygon_from_dict({"turns": [0.0, PI / 3, 2 * PI / 3, PI]})
    assert validate(poly).theorem_ok


def test_polygon_dict_mixed_forms_rejected():
    with pytest.raises(MalformedPolygonError, match="mixes"):
        polygon_from_dict({"vertices": [[0, 0]], "turns": [0, 1, 2, 3]})
