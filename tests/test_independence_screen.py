"""The bound-then-confirm independence screen reports exactly what the full
residual grid reports, and it does so without pulling in numpy.ma.

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
    fallback each run somewhere in the seeded sets."""
    seen = collections.Counter()
    best_witness = polygon._best_witness
    witness_grid = polygon._witness_grid

    def directions(x, ys, bound, tol):
        seen["directions"] += len(ys)
        return best_witness(x, ys, bound, tol)

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
