"""The bound-then-confirm independence screen reports exactly what the full
residual grid reports, in at most two batched passes per screen, and it
does so without pulling in numpy.ma.  Its bucket index over the table of
every p*(pi/q) finds what np.searchsorted finds.

The reference is the full-grid screen in tests/oracles.py.  Reports are
compared by repr, pairs included, so every status, witness, direction and
residual has to agree to the last bit.
"""

import collections
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_check_independence
from zipfold import polygon, sample_fat_ngon, validate

BOUNDS = (16, 5, 1)
TOL = 1e-9


def _fat_hexagons():
    return [
        list(validate(sample_fat_ngon(6, seed, require_independent=False)).angles)
        for seed in range(30)
    ]


def _random_sets():
    rng = np.random.default_rng(11)
    return [list(rng.uniform(0.05, math.pi, int(rng.integers(2, 11)))) for _ in range(60)]


def _rational_sets():
    rng = np.random.default_rng(12)
    return [
        [math.pi * int(rng.integers(-20, 21)) / int(rng.integers(1, 21)) for _ in range(n)]
        for n in rng.integers(2, 9, size=40)
    ]


def _out_of_range_sets():
    rng = np.random.default_rng(13)
    return [list(rng.uniform(-40.0, 40.0, int(rng.integers(2, 11)))) for _ in range(40)]


def _near_relation_sets():
    """y = a*pi + b*x + delta with the residual delta placed in the
    inconclusive band [tol, 10*tol), just below tol, or on the relation."""
    rng = np.random.default_rng(14)
    sets = []
    for k in range(60):
        x = float(rng.uniform(0.2, 3.0))
        a = int(rng.integers(-5, 6)) / int(rng.integers(1, 7))
        b = int(rng.integers(-8, 9)) / int(rng.integers(1, 9))
        sign = 1.0 if k % 2 else -1.0
        band = sign * float(rng.uniform(1.0, 10.0)) * TOL
        below = sign * float(rng.uniform(0.0, 1.0)) * TOL
        y = a * math.pi + b * x
        sets.append([x, y + band, y + below, float(rng.uniform(0.1, 3.0))])
    return sets


FAMILIES = {
    "fat_hexagons": _fat_hexagons,
    "random_n2_to_10": _random_sets,
    "rational_multiples_of_pi": _rational_sets,
    "out_of_range": _out_of_range_sets,
    "near_relation": _near_relation_sets,
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_screen_matches_full_grid(family):
    statuses = collections.Counter()
    for vals in FAMILIES[family]():
        for bound in BOUNDS:
            got = polygon.check_independence(vals, bound, TOL)
            want = reference_check_independence(vals, bound, TOL)
            assert repr(got) == repr(want)
            assert repr(got.pairs) == repr(want.pairs), (vals, bound)
            statuses.update(p.status for p in got.pairs.values())
    if family == "near_relation":
        assert statuses["inconclusive"] > 0 and statuses["dependent"] > 0


def test_screen_takes_every_path(monkeypatch):
    """Bounds settle most directions; the row search and the full-grid
    fallback each run somewhere in the seeded sets.  _best_witness(xs, ys,
    bound, tol) screens the directions xs[d] -> ys[d]."""
    seen = collections.Counter()
    best_witness = polygon._best_witness
    witness_grid = polygon._witness_grid

    def directions(xs, ys, bound, tol):
        seen["directions"] += len(ys)
        return best_witness(xs, ys, bound, tol)

    def grid(target, rows, bound, tol):
        seen["full grid" if rows is None else "rows"] += 1
        return witness_grid(target, rows, bound, tol)

    monkeypatch.setattr(polygon, "_best_witness", directions)
    monkeypatch.setattr(polygon, "_witness_grid", grid)
    for make in FAMILIES.values():
        for vals in make():
            for bound in BOUNDS:
                polygon.check_independence(vals, bound, TOL)
    assert seen["rows"] > 0 and seen["full grid"] > 0
    assert seen["directions"] > 2 * (seen["rows"] + seen["full grid"])


def test_two_batched_passes_per_screen(monkeypatch):
    """One _best_witness pass over the directions i -> j with i < j, and one
    over j -> i for the pairs the first left without a witness."""
    calls = []
    best_witness = polygon._best_witness

    def spy(xs, ys, bound, tol):
        calls.append(len(ys))
        return best_witness(xs, ys, bound, tol)

    monkeypatch.setattr(polygon, "_best_witness", spy)
    for make in FAMILIES.values():
        for vals in make():
            for bound in BOUNDS:
                calls.clear()
                report = polygon.check_independence(vals, bound, TOL)
                m = len(vals)
                assert len(calls) <= 2
                assert calls[:1] == ([m * (m - 1) // 2] if m > 1 else [])
                unwitnessed = sum(
                    p.direction != (i, j) for (i, j), p in report.pairs.items()
                )
                assert sum(calls[1:]) == unwitnessed

    decagon = sample_fat_ngon(10, 0)
    calls.clear()
    report = polygon.check_independence(validate(decagon).angles)
    assert report.all_independent
    assert calls == [45, 45]


def _searchsorted_probes(grid):
    """Every table entry and both its neighbouring floats, and every bucket
    edge (the least float in its bucket) with the float below it."""
    table = grid.table
    lo = table[0]

    def bucket(v):
        return np.floor((np.clip(v, lo, table[-1]) - lo) * grid.buckets_per_unit)

    # bisect each bucket's least float between guesses half a bucket away
    k = np.arange(1, grid.starts.size)
    below = lo + (k - 0.5) / grid.buckets_per_unit
    edge = lo + (k + 0.5) / grid.buckets_per_unit
    assert (bucket(below) < k).all() and (bucket(edge) >= k).all()
    for _ in range(2000):
        mid = below + (edge - below) / 2
        if not ((mid != below) & (mid != edge)).any():
            break
        in_k = bucket(mid) >= k
        edge = np.where(in_k, mid, edge)
        below = np.where(in_k, below, mid)
    assert (bucket(edge) == k).all()
    assert (bucket(np.nextafter(edge, -np.inf)) == k - 1).all()
    edge = np.append(lo, edge)
    return np.concatenate((
        table,
        np.nextafter(table, -np.inf),
        np.nextafter(table, np.inf),
        edge,
        np.nextafter(edge, -np.inf),
    ))


@pytest.mark.parametrize("bound", (16, 5, 2, 1))
def test_bucket_lookup_is_searchsorted(bound):
    grid = polygon._grids(bound)
    assert grid.spill == np.diff(np.append(grid.starts, grid.table.size)).max()
    lo, hi = grid.table[0], grid.table[-1]
    beyond = np.array([lo - 1.0, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf), hi + 1.0,
                       -1e300, 1e300, -np.inf, np.inf])
    probes = np.concatenate((_searchsorted_probes(grid), beyond))
    rng = np.random.default_rng(bound)
    for targets in (probes, rng.permutation(probes).reshape(-1, 1), probes.reshape(1, -1)):
        got = polygon._table_index(grid, targets)
        assert got.shape == targets.shape
        assert (got == np.searchsorted(grid.table, targets)).all()
    with_nan = np.concatenate((probes[:5], [np.nan, -np.inf, np.inf, np.nan]))
    assert (polygon._table_index(grid, with_nan) == np.searchsorted(grid.table, with_nan)).all()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "vals",
    [[math.nan, 1.0], [math.inf, 1.0], [1.0, -math.inf], [0.5, 1e300, 2.0]],
    ids=["nan", "inf", "minus_inf", "huge"],
)
def test_screen_matches_full_grid_on_extremes(vals):
    for bound in BOUNDS:
        got = polygon.check_independence(vals, bound, TOL)
        want = reference_check_independence(vals, bound, TOL)
        assert repr(got) == repr(want)
        assert repr(got.pairs) == repr(want.pairs)


@st.composite
def _planted_sets(draw):
    """m angles, one of them planted at (p/q)*pi + (r/s)*x + delta on another,
    with delta on the relation, inside tol, in [tol, 10*tol) or at 20*tol."""
    m = draw(st.integers(2, 10))
    angle = st.floats(0.05, math.pi, allow_nan=False, allow_infinity=False)
    vals = draw(st.lists(angle, min_size=m, max_size=m))
    i, j = draw(st.permutations(range(m)))[:2]
    p, r = draw(st.integers(-16, 16)), draw(st.integers(-16, 16))
    q, s = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    sign = draw(st.sampled_from((1.0, -1.0)))
    size = draw(st.one_of(
        st.just(0.0),
        st.just(0.5),
        st.floats(1.0, 10.0, exclude_max=True),
        st.just(20.0),
    ))
    vals[j] = p / q * math.pi + r / s * vals[i] + sign * size * TOL
    return vals


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(_planted_sets())
def test_planted_relations_match_full_grid(vals):
    for bound in (1, 5, 16):
        got = polygon.check_independence(vals, bound, TOL)
        want = reference_check_independence(vals, bound, TOL)
        assert repr(got) == repr(want)
        assert repr(got.pairs) == repr(want.pairs)


def test_screen_does_not_import_numpy_ma():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import zipfold, zipfold.cli\n"
        "zipfold.check_independence([1.0, 2.0])\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
