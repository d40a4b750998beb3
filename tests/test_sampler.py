"""The batched polygon sampler against the one-attempt-at-a-time reference.

The reference is `reference_sample_attempts` in tests/oracles.py: it draws,
closes, validates and screens every attempt in turn.  The production
sampler draws a block of attempts at once and closes only those that pass
one numpy screen.  Their results compare by repr, polygon, ValidationReport
and IndependenceReport alike, and so does the attempt at which a budget
runs out.
"""

import collections
import math

import numpy as np
import pytest

from oracles import reference_closable_attempts, reference_sample_attempts, reference_sample_ngon
from zipfold import polygon
from zipfold.errors import SamplingBudgetError
from zipfold.polygon import TWO_PI, _attempt_batch, _sample_ngon

# (n, seeds): at 2000 attempts, 5 of the 12 thin decagons and all 4 thin
# dodecagons run out, since their drawn turns rarely sum below 2*pi; those
# cases compare the error
CASES = [(6, range(20)), (8, range(20)), (10, range(12)), (12, range(4))]


def _outcome(sampler, n, seed, **kwargs):
    try:
        return repr(sampler(n, seed, **kwargs))
    except SamplingBudgetError as exc:
        return ("budget", exc.attempts)


MODES = {"fat": (True, True), "thin": (False, False), "thin-screened": (False, True)}


@pytest.mark.parametrize("fat, screen", MODES.values(), ids=MODES.keys())
@pytest.mark.parametrize("n, seeds", CASES, ids=[f"n{n}" for n, _ in CASES])
def test_batched_sampler_matches_reference(n, seeds, fat, screen):
    for seed in seeds:
        kwargs = dict(fat=fat, require_independent=screen, max_attempts=2000)
        want = _outcome(reference_sample_ngon, n, seed, **kwargs)
        assert _outcome(_sample_ngon, n, seed, **kwargs) == want, seed


def test_budgets_that_end_mid_batch_match_reference():
    for n, fat in ((6, True), (8, True), (10, True), (8, False)):
        b = _attempt_batch(n)
        for seed in range(4):
            for budget in (1, 2, 5, b - 1, b, b + 1, 3 * b // 2, 2 * b + 7):
                kwargs = dict(fat=fat, require_independent=fat, max_attempts=budget)
                want = _outcome(reference_sample_ngon, n, seed, **kwargs)
                assert _outcome(_sample_ngon, n, seed, **kwargs) == want, (n, fat, seed, budget)


def test_budget_runs_out_on_the_attempt_before_the_accepted_one():
    accepted = []
    for n, fat, count in ((6, True, 6), (8, True, 6), (10, True, 4), (8, False, 6)):
        for seed in range(count):
            kwargs = dict(fat=fat, require_independent=fat)
            attempt, want = reference_sample_attempts(n, seed, **kwargs)
            accepted.append((attempt, _attempt_batch(n)))
            assert repr(_sample_ngon(n, seed, max_attempts=attempt, **kwargs)) == repr(want)
            with pytest.raises(SamplingBudgetError) as err:
                _sample_ngon(n, seed, max_attempts=attempt - 1, **kwargs)
            assert err.value.attempts == attempt - 1
    # the cases reach past the first batch and stop inside later ones
    assert any(a > b and a % b for a, b in accepted)


@pytest.mark.parametrize("n", [6, 8, 10, 12])
def test_batched_draws_equal_the_per_attempt_stream(n):
    lo, hi = 1e-3, math.pi - 1e-3
    for seed in (0, 7, 7000):
        b = _attempt_batch(n)
        block = np.random.default_rng(seed).uniform(lo, hi, size=(b, n - 3))
        rng = np.random.default_rng(seed)
        rows = [rng.uniform(lo, hi, size=n - 3) for _ in range(b)]
        assert np.array_equal(block, np.array(rows))


def test_screen_keeps_every_attempt_the_scalar_checks_accept():
    for n, fat in ((6, True), (6, False), (8, True), (8, False), (10, True), (10, False)):
        cap = TWO_PI / 3.0 if fat else math.pi
        turns = np.random.default_rng(n).uniform(1e-3, cap - 1e-3, size=(1500, n - 3))
        kept = polygon._closable_attempts(turns, cap)
        for row, keep in zip(turns, kept):
            dirs = np.concatenate(([0.0], np.cumsum(row)))
            if keep or dirs[-1] >= TWO_PI:
                continue
            for poly in polygon.solve_closure(dirs).polygons:
                rep = polygon.validate(poly)
                assert not (rep.strictly_convex and rep.angle_sum_ok and (rep.fat_ok or not fat))


@pytest.mark.parametrize("n", [6, 8, 10, 12])
@pytest.mark.parametrize("fat", [True, False], ids=["fat", "thin"])
def test_screen_mask_equals_the_one_pass_formula(n, fat):
    """Dropping rows on the turn sum before the closure pass keeps the mask
    of the one pass over every row."""
    cap = TWO_PI / 3.0 if fat else math.pi
    size = (_attempt_batch(n), n - 3)
    for seed in range(6):
        turns = np.random.default_rng(seed).uniform(1e-3, cap - 1e-3, size=size)
        want = reference_closable_attempts(turns, cap, polygon._PREFILTER_MARGIN)
        assert np.array_equal(polygon._closable_attempts(turns, cap), want)
    # a block the turn sum empties, and an empty block
    for turns in (np.full((4, n - 3), TWO_PI / (n - 4)), np.empty((0, n - 3))):
        assert not polygon._closable_attempts(turns, cap).any()
        assert len(polygon._closable_attempts(turns, cap)) == len(turns)


@pytest.fixture()
def counts(monkeypatch):
    seen = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            seen[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("solve_closure", "validate", "_validation_report", "check_independence"):
        monkeypatch.setattr(polygon, name, counted(name, getattr(polygon, name)))
    first_close_pair = polygon.first_close_pair

    def close_pair_scan(points, cutoff):
        seen[f"close pairs within {cutoff}"] += 1
        return first_close_pair(points, cutoff)

    monkeypatch.setattr(polygon, "first_close_pair", close_pair_scan)
    return seen


@pytest.mark.parametrize("n, count, fat", [(8, 20, True), (10, 10, True), (8, 20, False)])
def test_one_closure_and_one_validation_per_sample(n, count, fat, counts):
    """Each sample closes once and is validated once, by validate's report
    body: solve_closure has already scanned both branches for vertex pairs
    within its coincidence cutoff, which covers validate's repeated-vertex
    scan, so that scan does not run again."""
    # without the winding check, thin octagons would close 1 to 21 times each
    want = collections.Counter(
        solve_closure=1, _validation_report=1, check_independence=int(fat),
        **{f"close pairs within {polygon._COINCIDENT_CUTOFF}": 2},
    )
    assert polygon._REPEATED_VERTEX_CUTOFF <= polygon._COINCIDENT_CUTOFF
    for seed in range(count):
        counts.clear()
        _sample_ngon(n, seed, fat=fat, require_independent=fat)
        assert counts == want, seed
