"""Byte-identity of the reports against checked-in golden files.

The files under tests/data were written by the code as it stood before the
one-distance-table-per-halving refactor, with the same commands as below:
`zipfold fold --fold-index all` on the two polygon files there, and
`zipfold sweep --seed 0` for each (n, count, thin) case.  The decagon and
thin octagon sweeps, where the sampler rejects most attempts, were written
before it screened attempts in batches.  Any change to a report byte shows
up here.
"""

import os

import pytest

from zipfold.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")


def _golden(name):
    with open(os.path.join(DATA, name), "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("name", ["regular_hexagon", "hexagon_seed7"])
def test_fold_report_matches_golden(name, capsysbinary):
    polygon = os.path.join(DATA, f"{name}.json")
    assert main(["fold", "--input", polygon, "--fold-index", "all"]) == 0
    assert capsysbinary.readouterr().out == _golden(f"fold_{name}.json")


@pytest.mark.parametrize(
    "golden, args",
    [
        ("sweep_n6_seeds0-19.csv", ["--n", "6", "--count", "20"]),
        ("sweep_n8_seeds0-9.csv", ["--n", "8", "--count", "10"]),
        ("sweep_n6_thin_seeds0-19.csv", ["--n", "6", "--count", "20", "--thin"]),
        ("sweep_n10_seeds0-9.csv", ["--n", "10", "--count", "10"]),
        ("sweep_n8_thin_seeds0-9.csv", ["--n", "8", "--count", "10", "--thin"]),
    ],
)
def test_sweep_csv_matches_golden(golden, args, tmp_path, capsys):
    main(["sweep", "--seed", "0", "--out-dir", str(tmp_path)] + args)
    assert (tmp_path / "sweep.csv").read_bytes() == _golden(golden)
