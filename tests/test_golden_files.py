"""Byte-identity of the files the CLI writes against checked-in goldens.

The files under tests/data named `fold_<polygon>_<file>` are what
`zipfold fold --fold-index all --emit-obj --emit-svg` wrote into its
`--out-dir` for the two polygon files there, and
`verify_<polygon>_source_polygon.svg` is what `zipfold verify --emit-svg`
wrote.  They were written before the SVG module lost its overlay and the
out-dir handling moved into the CLI.
"""

import os

import pytest

from zipfold.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")
POLYGONS = ["regular_hexagon", "hexagon_seed7"]
FOLD_FILES = [f"{kind}_fold{i}.{ext}" for kind, ext in (("tetra", "obj"), ("net", "svg")) for i in range(3)]


def _golden(name):
    with open(os.path.join(DATA, name), "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("name", POLYGONS)
def test_fold_files_match_golden(name, tmp_path, capsys):
    polygon = os.path.join(DATA, f"{name}.json")
    args = ["fold", "--input", polygon, "--fold-index", "all", "--emit-obj", "--emit-svg"]
    assert main(args + ["--out-dir", str(tmp_path)]) == 0
    assert sorted(os.listdir(tmp_path)) == sorted(FOLD_FILES)
    for fname in FOLD_FILES:
        assert (tmp_path / fname).read_bytes() == _golden(f"fold_{name}_{fname}"), fname


@pytest.mark.parametrize("name", POLYGONS)
def test_verify_svg_matches_golden(name, tmp_path, capsys):
    polygon = os.path.join(DATA, f"{name}.json")
    main(["verify", "--input", polygon, "--emit-svg", "--out-dir", str(tmp_path)])
    assert os.listdir(tmp_path) == ["source_polygon.svg"]
    assert (tmp_path / "source_polygon.svg").read_bytes() == _golden(
        f"verify_{name}_source_polygon.svg"
    )
