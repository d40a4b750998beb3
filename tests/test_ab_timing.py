"""The A/B timer, `tests/ab_timing.py`, run on this checkout against itself.

A full comparison, with another checkout and the default count and rounds,
runs outside the suite.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_checkout_against_itself_prints_one_json_line():
    done = subprocess.run(
        [sys.executable, "tests/ab_timing.py", "--parent", str(ROOT), "--count", "2", "--rounds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    lines = done.stdout.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert (record["seed"], record["count"], record["rounds"]) == (7, 2, 1)
    for workload in ("hex-verify", "ngon-sweep"):
        sides = record[workload]
        assert set(sides) == {"parent", "change"}
        for stats in sides.values():
            assert set(stats) == {"mean_ms", "p50_ms", "p90_ms", "wins"}
            assert 0.0 < stats["p50_ms"] <= stats["p90_ms"]
        # an input is won by at most one side
        assert sides["parent"]["wins"] + sides["change"]["wins"] <= 2


def test_a_parent_without_the_package_is_an_error(tmp_path):
    done = subprocess.run(
        [sys.executable, "tests/ab_timing.py", "--parent", str(tmp_path), "--count", "2", "--rounds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("error: no zipfold package under")


def test_a_single_input_is_refused():
    """The 90th percentile, taken as perfbench/run.py takes it, needs two
    inputs."""
    done = subprocess.run(
        [sys.executable, "tests/ab_timing.py", "--parent", str(ROOT), "--count", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert "--count must be at least 2" in done.stderr
