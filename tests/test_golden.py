"""Byte-identity of the reports against checked-in golden files.

The files under tests/data were written by the code as it stood before the
one-distance-table-per-halving refactor, with the same commands as below:
`zipfold fold --fold-index all` on the two polygon files there, and
`zipfold sweep --seed 0` for each (n, count, thin) case.  The decagon and
thin octagon sweeps, where the sampler rejects most attempts, were written
before it screened attempts in batches.  Any change to a report byte shows
up here.  The verify scorecards, `exit <code>` followed by stdout for
`zipfold verify` with and without `--force`, were written before the round
trip was checked under each halving's own labeling.

Three goldens were written before the lemma verdicts moved into one table
of scorecard lines and CSV columns: the intrinsic-only scorecard of
octagon_seed5.json (written by `zipfold sample --n 8 --seed 5 --count 1
--save-polygons`), the hexagon_seed7 scorecard at `--dev-cap 2`, and the
n=6 sweep at `--dev-cap 1`.  That sweep was written again once "nothing
shorter" read the enumeration of every zipper pair: in the 14 rows whose
unfinished enumerations it used to skip, `nothing_shorter_status` went
from pass to inconclusive, and no other cell moved.

The `zipfold validate` goldens, `exit <code>` followed by stdout and a
second file with stderr, were written before the independence report
built its pairs only when they are first read.  The stderr of
regular_hexagon.json lists a witness for each of its 15 dependent pairs.
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
        ("sweep_n6_seeds0-19_dev_cap1.csv", ["--n", "6", "--count", "20", "--dev-cap", "1"]),
    ],
)
def test_sweep_csv_matches_golden(golden, args, tmp_path, capsys):
    main(["sweep", "--seed", "0", "--out-dir", str(tmp_path)] + args)
    assert (tmp_path / "sweep.csv").read_bytes() == _golden(golden)


# (golden name, polygon file, extra verify arguments)
VERIFY_CASES = [
    pytest.param(name, name, [], id=name)
    for name in (
        "regular_hexagon", "hexagon_seed7", "thin_hexagon_seed0", "thin_hexagon_seed6", "octagon_seed5"
    )
] + [pytest.param("hexagon_seed7_dev_cap2", "hexagon_seed7", ["--dev-cap", "2"], id="hexagon_seed7_dev_cap2")]


@pytest.mark.parametrize("name, polygon, extra", VERIFY_CASES)
@pytest.mark.parametrize("force", [False, True])
def test_verify_scorecard_matches_golden(name, polygon, extra, force, capsysbinary):
    polygon = os.path.join(DATA, f"{polygon}.json")
    code = main(["verify", "--input", polygon, *extra] + (["--force"] if force else []))
    got = f"exit {code}\n".encode() + capsysbinary.readouterr().out
    assert got == _golden(f"verify_{name}{'_force' if force else ''}.txt")


@pytest.mark.parametrize(
    "name", ["regular_hexagon", "hexagon_seed7", "thin_hexagon_seed0", "octagon_seed5"]
)
def test_validate_report_matches_golden(name, capsysbinary):
    code = main(["validate", "--input", os.path.join(DATA, f"{name}.json")])
    out = capsysbinary.readouterr()
    assert f"exit {code}\n".encode() + out.out == _golden(f"validate_{name}.txt")
    assert out.err == _golden(f"validate_{name}_stderr.txt")
