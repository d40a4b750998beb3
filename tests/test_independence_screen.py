"""The independence screen reports exactly what the full residual grid
reports, and it does so without pulling in numpy.ma.  The report decides
all_independent in one bounds pass of its own, with the full grid's
verdict: a bucket index over the table of every p*(pi/q), which finds what
np.searchsorted finds, bounds both directions of every pair, on the simple
rows (b in 0, +-1/2, +-1, +-2) first and then on the rest, and only the
rows whose bound is near go through the grid.  The pairs are built only
when first read, one full grid per direction i -> j and one for j -> i
where i -> j has no witness, so `zipfold verify` builds no pair.

The reference is the full-grid screen in tests/oracles.py.  Reports are
compared by repr, pairs included, so every status, witness, direction and
residual has to agree to the last bit.
"""

import collections
import importlib.util
import json
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
from zipfold.cli import main

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


@pytest.mark.parametrize("cap", (600, 30))
def test_stacked_rows_keep_the_block_cap(monkeypatch, cap):
    """The decision pass first bounds every direction on the simple rows in
    one call, then the other rows in blocks of at most _BLOCK_TARGETS
    targets unless one direction alone has more (a direction has 312 other
    rows at bound 16), stacks the near rows of a call into one
    _grid_residuals call, and decides as the full grid does."""
    blocks = []
    lower_bounds = polygon._lower_bounds
    grid_residuals = polygon._grid_residuals

    def bounds(grid, coeffs, xs, ys):
        blocks[-1].append((coeffs, len(ys)))
        return lower_bounds(grid, coeffs, xs, ys)

    def residuals(target, bound):
        coeffs, directions = blocks[-1][-1]
        assert len(target) <= directions * coeffs.size
        return grid_residuals(target, bound)

    monkeypatch.setattr(polygon, "_BLOCK_TARGETS", cap)
    monkeypatch.setattr(polygon, "_lower_bounds", bounds)
    monkeypatch.setattr(polygon, "_grid_residuals", residuals)
    for vals in _rational_sets() + _out_of_range_sets():
        m = len(vals)
        for bound in (16, 5):
            grid = polygon._grids(bound)
            blocks.append([])
            got = polygon.check_independence(vals, bound, TOL).all_independent
            assert got == reference_check_independence(vals, bound, TOL).all_independent
            (first, directions), *later = blocks[-1]
            assert first is grid.simple and directions == m * (m - 1)
            for coeffs, directions in later:
                assert coeffs is grid.rest
                assert directions * coeffs.size <= max(cap, grid.rest.size)
    assert max(len(b) for b in blocks) > 2


SIMPLE_COEFFS = {0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0}


@pytest.mark.parametrize("bound", (1, 2, 5, 16))
def test_independent_screens_bound_each_target_once(monkeypatch, bound):
    """On all-independent angle sets, every direction of every pair is
    bounded exactly once for each distinct float b = r/s of height at most
    the bound, the simple ones (0, +-1/2, +-1, +-2) in the first call.  At
    bounds 1 and 2 every b is simple, and that call is the only one."""
    calls = []
    lower_bounds = polygon._lower_bounds

    def bounds(grid, coeffs, xs, ys):
        calls.append((coeffs.tolist(), xs.tolist(), ys.tolist()))
        return lower_bounds(grid, coeffs, xs, ys)

    monkeypatch.setattr(polygon, "_lower_bounds", bounds)
    distinct = {r / s for r in range(-bound, bound + 1) for s in range(1, bound + 1)}
    rng = np.random.default_rng(15 + bound)
    for m in range(2, 11):
        vals = rng.uniform(0.05, math.pi, m).tolist()
        calls.clear()
        assert polygon.check_independence(vals, bound, TOL).all_independent
        bounded = collections.Counter(
            (x, y, b) for coeffs, xs, ys in calls for x, y in zip(xs, ys) for b in coeffs
        )
        want = {(x, y, b) for x in vals for y in vals if x != y for b in distinct}
        assert bounded.keys() == want and set(bounded.values()) == {1}
        assert set(calls[0][0]) == distinct & SIMPLE_COEFFS
        assert (len(calls) == 1) == (bound <= 2)


def test_pairs_built_on_first_read(monkeypatch):
    """No PairDependence is built before the report's pairs are first read,
    and one per pair after.  Each pair i < j runs the full grid of i -> j,
    and that of j -> i only when i -> j has no witness."""
    built = []
    directions = []
    pair_dependence = polygon.PairDependence
    direction_witness = polygon._direction_witness

    def record(*args):
        built.append(args)
        return pair_dependence(*args)

    def witness(x, y, bound, tol):
        directions.append((x, y))
        return direction_witness(x, y, bound, tol)

    monkeypatch.setattr(polygon, "PairDependence", record)
    monkeypatch.setattr(polygon, "_direction_witness", witness)
    for make in FAMILIES.values():
        for vals in make():
            for bound in BOUNDS:
                built.clear()
                directions.clear()
                report = polygon.check_independence(vals, bound, TOL)
                report.all_independent
                assert built == [] and directions == []
                report.pairs
                report.pairs
                m = len(vals)
                assert len(built) == m * (m - 1) // 2
                unwitnessed = sum(p.direction != (i, j) for (i, j), p in report.pairs.items())
                assert len(directions) == len(built) + unwitnessed

    decagon = sample_fat_ngon(10, 0)
    built.clear()
    report = polygon.check_independence(validate(decagon).angles)
    assert report.all_independent
    assert built == []
    report.pairs
    assert len(built) == 45


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
    [[math.nan, 1.0], [math.inf, 1.0], [1.0, -math.inf], [0.5, 1e300, 2.0], [1e308, -1e308, 1.0]],
    ids=["nan", "inf", "minus_inf", "huge", "overflow"],
)
def test_screen_matches_full_grid_on_extremes(vals):
    if not all(math.isfinite(v) for v in vals):
        # no residual certifies a non-finite angle either way
        for bound in BOUNDS:
            with pytest.raises(ValueError, match="finite"):
                polygon.check_independence(vals, bound, TOL)
        return
    for bound in BOUNDS:
        got = polygon.check_independence(vals, bound, TOL)
        want = reference_check_independence(vals, bound, TOL)
        assert got.all_independent == want.all_independent
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


@st.composite
def _dependent_sets(draw):
    """3 to 10 angles, most of them tied to others: repeats of an earlier
    angle, rational multiples of pi and relations planted on an earlier
    angle.  Many directions of one set then hold hits, and repeated angles
    give hits whose keys tie across directions."""
    m = draw(st.integers(3, 10))
    angle = st.floats(0.05, math.pi, allow_nan=False, allow_infinity=False)
    ratio = st.tuples(st.integers(-16, 16), st.integers(1, 16))
    vals = [draw(angle)]
    for _ in range(m - 1):
        kind = draw(st.sampled_from(("repeat", "rational", "planted", "free")))
        if kind == "repeat":
            vals.append(draw(st.sampled_from(vals)))
        elif kind == "rational":
            p, q = draw(ratio)
            vals.append(p / q * math.pi)
        elif kind == "planted":
            (p, q), (r, s) = draw(ratio), draw(ratio)
            vals.append(p / q * math.pi + r / s * draw(st.sampled_from(vals)))
        else:
            vals.append(draw(angle))
    return vals


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(_dependent_sets())
def test_many_dependent_directions_match_full_grid(vals):
    for bound in (1, 5, 16):
        got = polygon.check_independence(vals, bound, TOL)
        want = reference_check_independence(vals, bound, TOL)
        assert repr(got) == repr(want)
        assert repr(got.pairs) == repr(want.pairs)


@st.composite
def _edge_sets(draw):
    """m angles, one planted at (p/q)*pi + (r/s)*x +- delta on another, in
    either direction of their pair, with delta at 9.5, 10 or 10.5 tol: on
    both sides of the 10*tol edge between "inconclusive" and "independent"."""
    m = draw(st.integers(2, 6))
    angle = st.floats(0.05, math.pi, allow_nan=False, allow_infinity=False)
    vals = draw(st.lists(angle, min_size=m, max_size=m))
    i, j = draw(st.permutations(range(m)))[:2]
    p, r = draw(st.integers(-16, 16)), draw(st.integers(-16, 16))
    q, s = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    sign = draw(st.sampled_from((1.0, -1.0)))
    size = draw(st.sampled_from((9.5, 10.0, 10.5)))
    vals[j] = p / q * math.pi + r / s * vals[i] + sign * size * TOL
    return vals


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(_edge_sets())
def test_decision_matches_full_grid_at_the_edge(vals):
    """all_independent, read before pairs, is the full grid's verdict, and
    the verdict that the pairs built afterwards give."""
    for bound in (1, 5, 16):
        report = polygon.check_independence(vals, bound, TOL)
        decided = report.all_independent
        assert decided == reference_check_independence(vals, bound, TOL).all_independent
        assert decided == all(p.status == "independent" for p in report.pairs.values())


# b = r/s in lowest terms of height |r| + s = 3, the highest simple rows,
# and of height 4, the lowest of the rest
HEIGHT_3 = ((2, 1), (-2, 1), (1, 2), (-1, 2))
HEIGHT_4 = ((3, 1), (-3, 1), (1, 3), (-1, 3))


@st.composite
def _cutoff_sets(draw):
    """m angles, one planted at (p/q)*pi + b*x +- delta on another, with b of
    height 3 or 4 and delta at 9.5, 10 or 10.5 tol."""
    m = draw(st.integers(2, 6))
    angle = st.floats(0.05, math.pi, allow_nan=False, allow_infinity=False)
    vals = draw(st.lists(angle, min_size=m, max_size=m))
    i, j = draw(st.permutations(range(m)))[:2]
    p, q = draw(st.integers(-16, 16)), draw(st.integers(1, 16))
    r, s = draw(st.sampled_from(HEIGHT_3 + HEIGHT_4))
    sign = draw(st.sampled_from((1.0, -1.0)))
    size = draw(st.sampled_from((9.5, 10.0, 10.5)))
    vals[j] = p / q * math.pi + r / s * vals[i] + sign * size * TOL
    return vals


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(_cutoff_sets())
def test_decision_matches_full_grid_across_the_simple_cutoff(vals):
    """A relation planted just inside or just outside the simple rows, near
    the 10*tol edge, is decided as the full grid decides it."""
    for bound in (2, 3, 5, 16):
        got = polygon.check_independence(vals, bound, TOL).all_independent
        assert got == reference_check_independence(vals, bound, TOL).all_independent


def test_decision_reads_no_pairs(monkeypatch):
    """all_independent is decided without building the pairs, and the
    seeded sets reach both verdicts."""
    passes = []
    monkeypatch.setattr(polygon, "_pair_dependences", lambda *args: passes.append(args))
    verdicts = collections.Counter()
    for make in FAMILIES.values():
        for vals in make():
            for bound in BOUNDS:
                verdicts[polygon.check_independence(vals, bound, TOL).all_independent] += 1
    assert passes == []
    assert verdicts[True] > 0 and verdicts[False] > 0


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


DATA = Path(__file__).resolve().parent / "data"


def _screen_files(tmp_path, seed, families):
    """The benchmark's `screen` files of one seed that belong to families."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    files = []
    for k, (data, family, _) in enumerate(inputs.screen_cases(seed, 12)):
        if family in families:
            files.append(tmp_path / f"{family}_{k}.json")
            files[-1].write_text(json.dumps(data))
    return files


@pytest.fixture
def screen_calls(monkeypatch):
    """Calls per name of the screen's helpers, and PairDependence records
    built, counted from here on."""
    seen = collections.Counter()

    def counted(name):
        real = getattr(polygon, name)

        def spy(*args, **kwargs):
            seen[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(polygon, name, spy)

    for name in ("_lower_bounds", "_grid_residuals", "_direction_witness", "PairDependence"):
        counted(name)
    return seen


def test_verify_builds_no_pairs_on_dependent_files(tmp_path, screen_calls, capsys):
    """A hexagon with dependent angles fails hypothesis.independent on the
    decision pass alone: its first call, on the simple rows, meets a near
    row whose grid residual is below 10*tol, and no witness or pair is
    built."""
    files = [DATA / "regular_hexagon.json"] + _screen_files(tmp_path, 7, ("rational", "straight"))
    assert len(files) == 9
    for path in files:
        screen_calls.clear()
        assert main(["verify", "--input", str(path)]) == 1
        assert "FAIL          hypothesis.independent" in capsys.readouterr().out
        assert screen_calls == {"_lower_bounds": 1, "_grid_residuals": 1}, path.name


def test_verify_bounds_an_independent_hexagon_once(screen_calls, capsys):
    """hexagon_seed7.json passes hypothesis.independent on one _lower_bounds
    call over the simple rows of both directions of its 15 pairs and one per
    block of them over the other rows, every bound at least 10*tol, so no
    grid residual, witness or pair is computed."""
    assert main(["verify", "--input", str(DATA / "hexagon_seed7.json")]) == 0
    capsys.readouterr()
    step = max(1, polygon._BLOCK_TARGETS // polygon._grids(16).rest.size)
    assert screen_calls == {"_lower_bounds": 1 + -(-30 // step)}
