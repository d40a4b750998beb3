import ast
import csv
import inspect
import json
import math
import os
import subprocess
import sys

import pytest

from zipfold import (
    EquilateralPolygon,
    cli,
    pipeline,
    sample_fat_hexagon,
    save_polygon,
    solve_closure,
    validate,
)
from zipfold import net as netmod
from zipfold.cli import main
from zipfold.polygon import DEFAULT_TOLERANCES

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture()
def regular_file(tmp_path, regular_hexagon):
    path = tmp_path / "regular.json"
    save_polygon(regular_hexagon, path)
    return str(path)


@pytest.fixture()
def sampled_file(tmp_path):
    path = tmp_path / "sampled.json"
    save_polygon(sample_fat_hexagon(7), path)
    return str(path)


@pytest.fixture()
def degenerate_file(tmp_path, degenerate_hexagon):
    path = tmp_path / "degenerate.json"
    save_polygon(degenerate_hexagon, path)
    return str(path)


def test_validate_regular_exits_zero_with_warnings(regular_file, capsys):
    code = main(["validate", "--input", regular_file])
    out = capsys.readouterr()
    assert code == 0
    assert "rationally dependent" in out.err  # equal angles everywhere
    data = json.loads(out.out)
    assert data["theorem_ok"] and data["fat_ok"]
    assert len(data["independence"]["dependent_pairs"]) == 15


def test_validate_sampled_no_warnings(sampled_file, capsys):
    code = main(["validate", "--input", sampled_file])
    out = capsys.readouterr()
    assert code == 0
    assert out.err == ""


def test_validate_five_vertices_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [1.5, 1], [1, 2], [0, 1]]}))
    assert main(["validate", "--input", str(path)]) == 2


def test_validate_missing_file_input_error(capsys):
    assert main(["validate", "--input", "/nonexistent/poly.json"]) == 2


def test_validate_mixed_file_rejected(tmp_path):
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"vertices": [[0, 0]], "turns": [0, 1, 2, 3]}))
    assert main(["validate", "--input", str(path)]) == 2


def test_fold_all_regular(regular_file, tmp_path, capsys):
    code = main(
        ["fold", "--input", regular_file, "--fold-index", "all", "--emit-obj",
         "--out-dir", str(tmp_path)]
    )
    out = capsys.readouterr()
    assert code == 0
    report = json.loads(out.out)
    assert len(report["halvings"]) == 3
    for i, entry in enumerate(report["halvings"]):
        assert abs(entry["gauss_bonnet_residual"]) < 1e-9
        assert entry["flat"] is True  # mirror fold of the regular hexagon
        assert os.path.exists(tmp_path / f"tetra_fold{i}.obj")
    assert report["relation_diagnostics"]


def _moved(poly, moves):
    """The polygon with each vertex v moved by t along edge j, for (v, j, t)
    in moves; edge j runs from vertex j to vertex j + 1."""
    pts = poly.as_complex()
    for v, j, t in moves:
        d = pts[(j + 1) % poly.n] - pts[j]
        pts[v] += t * d / abs(d)
    return EquilateralPolygon(tuple((p.real, p.imag) for p in pts))


def test_a_polygon_within_tol_len_glues(tmp_path, capsys):
    """Edges 0 and 5, glued at fold 0, are 0.9e-9 long and short: each is
    within tol_len of 1, so the polygon passes every hypothesis, and the
    two differ by 1.8e-9, within twice tol_len."""
    poly = _moved(sample_fat_hexagon(3), [(1, 0, 0.9e-9), (5, 5, 0.9e-9)])
    assert validate(poly).theorem_ok
    path = str(tmp_path / "nudged.json")
    save_polygon(poly, path)
    assert main(["verify", "--input", path]) == 0
    out = capsys.readouterr()
    assert out.err == "" and "FAIL" not in out.out and "PASS" in out.out
    assert main(["fold", "--input", path, "--fold-index", "all"]) == 0
    assert len(json.loads(capsys.readouterr().out)["halvings"]) == 3


@pytest.mark.parametrize("command", ["verify", "fold"])
def test_the_gluing_reads_the_runs_tol_len(tmp_path, capsys, command):
    """Vertex 1 moved 3e-7 along edge 0 leaves edge 0 3e-7 longer than edge
    5, its partner at fold 0: past the default tol_len, within --tol 1e-6.
    The run then judges the lemma lines instead of stopping at the gluing;
    the zipper distance, off 1 by more than tol_geodesic, fails them."""
    poly = _moved(sample_fat_hexagon(3), [(1, 0, 3e-7)])
    path = str(tmp_path / "nudged.json")
    save_polygon(poly, path)
    assert main([command, "--input", path, "--tol", "1e-6"]) == 1
    out = capsys.readouterr()
    assert "error" not in out.err
    if command == "verify":
        lines = dict(line.split()[::-1] for line in out.out.splitlines())
        assert lines["hypothesis.equilateral"] == "PASS"
        assert lines["zipper.edges_length_1"] == "FAIL"
    else:
        halvings = json.loads(out.out)["halvings"]
        assert len(halvings) == 3 and all("identifications" in h for h in halvings)
        assert "deviates from 1" in halvings[1]["error"]


def test_fold_relations_read_the_runs_tol_ang(tmp_path, capsys):
    """A near-regular hexagon whose first two relations miss by 5e-8 and
    2e-7: inactive at the default tol_ang, active under --tol 1e-6."""
    closed = solve_closure([0.0, math.pi / 3, 2 * math.pi / 3 + 1e-7, math.pi])
    path = str(tmp_path / "near_regular.json")
    save_polygon(closed.polygons[0], path)
    active = []
    for extra in ([], ["--tol", "1e-6"]):
        assert main(["fold", "--input", path, *extra]) == 0
        report = json.loads(capsys.readouterr().out)
        active.append([r["active"] for r in report["relation_diagnostics"]])
    assert active == [[False, False, False], [True, True, False]]


def test_fold_bad_index(regular_file, capsys):
    """A fold index that is not an integer, or not a halving of the
    hexagon, is a setting error: exit 2 and one error line."""
    for index, message in (
        ("abc", "bad fold index 'abc'"),
        ("1.5", "bad fold index '1.5'"),
        ("-1", "fold index must be in 0..2"),
        ("3", "fold index must be in 0..2"),
        ("5", "fold index must be in 0..2"),
    ):
        assert main(["fold", "--input", regular_file, f"--fold-index={index}"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {message}\n"


def test_fold_emits_svg(sampled_file, tmp_path):
    code = main(
        ["fold", "--input", sampled_file, "--fold-index", "1", "--emit-svg",
         "--out-dir", str(tmp_path)]
    )
    assert code == 0
    assert (tmp_path / "net_fold1.svg").exists()


def test_fold_reads_each_net_from_its_audit(sampled_file, tmp_path, monkeypatch):
    """A halving is unfolded once, in its audit; the CLI reaches the
    geodesic and net modules only through the pipeline."""
    calls = []
    unfold = netmod.cut_and_unfold

    def spy(tet):
        calls.append(tet)
        return unfold(tet)

    monkeypatch.setattr(netmod, "cut_and_unfold", spy)
    for index, count in (("1", 1), ("all", 3)):
        calls.clear()
        args = ["fold", "--input", sampled_file, "--fold-index", index, "--emit-svg", "--out-dir", str(tmp_path)]
        assert main(args) == 0
        assert len(calls) == count
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(cli))):
        if isinstance(node, ast.ImportFrom):
            imported |= {node.module.rsplit(".", 1)[-1]} if node.module else {a.name for a in node.names}
    assert imported and not imported & {"geodesic", "net"}


def test_verify_sampled_passes(sampled_file, capsys):
    code = main(["verify", "--input", sampled_file])
    out = capsys.readouterr()
    assert code == 0
    assert "net.matches_source" in out.out
    assert "FAIL" not in out.out


def test_verify_regular_fails_independence(regular_file, capsys):
    code = main(["verify", "--input", regular_file])
    out = capsys.readouterr()
    assert code == 1
    assert "hypothesis.independent" in out.out
    assert "lemma checks skipped" in out.err


def test_verify_degenerate_with_force(degenerate_file, capsys):
    code = main(["verify", "--input", degenerate_file, "--force"])
    out = capsys.readouterr()
    assert code == 1  # hypotheses fail even though the lemma audit ran
    assert "net.matches_source" in out.out
    lines = dict(
        tuple(reversed(l.split())) for l in out.out.strip().splitlines()
    )
    assert lines["net.matches_source"] == "PASS"
    assert lines["hypothesis.fat"] == "FAIL"


def test_sweep_writes_csv(tmp_path, capsys):
    code = main(["sweep", "--seed", "0", "--count", "3", "--out-dir", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "sweep.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "seed"
    assert len(rows) == 4
    assert all(r[3] == "pass" for r in rows[1:])
    meta = json.loads((tmp_path / "sweep_meta.json").read_text())
    assert meta["summary"]["fat"]["pass"] == 3


def test_sweep_hundred_seeds_all_pass(tmp_path):
    code = main(["sweep", "--seed", "0", "--count", "100", "--out-dir", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 100
    assert all(r["status"] == "pass" for r in rows)


def test_sweep_count_zero_header_only(tmp_path):
    code = main(["sweep", "--seed", "0", "--count", "0", "--out-dir", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "sweep.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1


def test_sweep_octagons(tmp_path):
    code = main(["sweep", "--seed", "0", "--count", "2", "--n", "8", "--out-dir", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert all(r["n"] == "8" for r in rows)
    assert all(r["zipper_status"] == "pass" for r in rows)
    assert all(float(r["gauss_bonnet_max_abs_residual"]) <= 1e-8 for r in rows)


def test_sweep_csv_byte_identical(tmp_path):
    d1 = tmp_path / "run1"
    d2 = tmp_path / "run2"
    assert main(["sweep", "--seed", "5", "--count", "2", "--out-dir", str(d1)]) == 0
    assert main(["sweep", "--seed", "5", "--count", "2", "--out-dir", str(d2)]) == 0
    assert (d1 / "sweep.csv").read_bytes() == (d2 / "sweep.csv").read_bytes()


def test_sample_saves_polygons(tmp_path):
    code = main(
        ["sample", "--seed", "3", "--count", "2", "--save-polygons", "--out-dir", str(tmp_path)]
    )
    assert code == 0
    assert (tmp_path / "polygon_seed3.json").exists()
    assert (tmp_path / "polygon_seed4.json").exists()


def test_out_dir_env_var(tmp_path, monkeypatch, sampled_file):
    monkeypatch.setenv("ZIPFOLD_OUT_DIR", str(tmp_path / "envout"))
    code = main(["fold", "--input", sampled_file, "--fold-index", "0", "--emit-obj"])
    assert code == 0
    assert (tmp_path / "envout" / "tetra_fold0.obj").exists()


@pytest.mark.parametrize("command", ["validate", "verify", "fold"])
def test_out_dir_made_only_for_files(command, tmp_path, sampled_file, capsys):
    new = tmp_path / "never"
    main([command, "--input", sampled_file, "--out-dir", str(new)])
    assert not new.exists()


def test_verify_tiny_dev_cap_exits_inconclusive(sampled_file, capsys):
    assert main(["verify", "--input", sampled_file, "--dev-cap", "1"]) == 3
    lines = dict(reversed(line.split()) for line in capsys.readouterr().out.splitlines())
    # the zipper enumerations ran out of developments too
    assert lines["zipper.edges_length_1"] == "INCONCLUSIVE"
    assert lines["zipper.nothing_shorter"] == "INCONCLUSIVE"


def test_fold_congruent_pairs_noted(regular_file, sampled_file, capsys):
    main(["fold", "--input", regular_file, "--fold-index", "all"])
    report = json.loads(capsys.readouterr().out)
    assert report["congruent_pairs"] == [[0, 1], [0, 2], [1, 2]]
    main(["fold", "--input", sampled_file, "--fold-index", "all"])
    report = json.loads(capsys.readouterr().out)
    assert report["congruent_pairs"] == []


def test_sweep_whose_sampler_runs_out_is_inconclusive(tmp_path, capsys):
    """Thin decagon seed 3 exhausts the sampler's budget: the sweep notes
    it, writes a header-only CSV and an empty summary, and exits 3."""
    args = ["sweep", "--n", "10", "--thin", "--seed", "3", "--count", "1", "--out-dir", str(tmp_path)]
    assert main(args) == 3
    out = capsys.readouterr()
    assert out.err == "seed 3: sampling budget exhausted after 10000 attempts\n"
    with open(tmp_path / "sweep.csv") as fh:
        assert list(csv.reader(fh)) == [list(pipeline.SWEEP_COLUMNS)]
    meta = json.loads((tmp_path / "sweep_meta.json").read_text())
    assert meta["summary"] == {"total": 0} and meta["per_record_seconds"] == []
    assert json.loads(out.out[: out.out.rindex("}") + 1]) == {"total": 0}


def test_thin_sweep_reports_separately(tmp_path, capsys):
    code = main(["sweep", "--seed", "0", "--count", "2", "--thin", "--out-dir", str(tmp_path)])
    out = capsys.readouterr()
    meta = json.loads((tmp_path / "sweep_meta.json").read_text())
    assert "thin" in meta["summary"] or "fat" in meta["summary"]
    assert code in (0, 1, 3)


def test_fold_and_verify_judge_congruence_alike(regular_file, sampled_file, capsys, monkeypatch):
    calls = []
    congruent = pipeline.congruent_tetrahedra

    def spy(a, b, tol):
        calls.append((tol, congruent(a, b, tol)))
        return calls[-1][1]

    monkeypatch.setattr(pipeline, "congruent_tetrahedra", spy)  # fold and verify both judge here
    for path, pairs in ((regular_file, [[0, 1], [0, 2], [1, 2]]), (sampled_file, [])):
        calls.clear()
        main(["verify", "--input", path, "--force"])
        capsys.readouterr()
        verified = list(calls)
        calls.clear()
        main(["fold", "--input", path, "--fold-index", "all"])
        assert json.loads(capsys.readouterr().out)["congruent_pairs"] == pairs
        assert {tol for tol, _ in verified + calls} == {DEFAULT_TOLERANCES.tol_congruence}
        # verify stops at the first congruent pair; fold judges every pair
        assert verified and calls[: len(verified)] == verified
        assert [ok for _, ok in calls].count(True) == len(pairs)


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-m", "zipfold", "validate", "--input", "tests/data/regular_hexagon.json"],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["theorem_ok"]


def test_importing_cli_builds_no_parser():
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def spy(self, *args, **kwargs):\n"
        "    built.append(kwargs.get('prog'))\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = spy\n"
        "import zipfold.cli\n"
        "print(len(built))\n"
    )
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=REPO, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


def test_parser_built_once_for_many_calls(sampled_file, regular_file, monkeypatch, capsys):
    built = []
    init = cli.argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli.argparse.ArgumentParser, "__init__", spy)
    cli._build_parser.cache_clear()
    assert main(["validate", "--input", sampled_file]) == 0
    assert built.count("zipfold") == 1
    first = len(built)
    assert main(["verify", "--input", regular_file]) == 1
    assert main(["validate", "--input", regular_file]) == 0
    assert len(built) == first


def test_a_reused_parser_answers_as_a_fresh_process(sampled_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify"])  # --input missing
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    capsys.readouterr()
    code = main(["verify", "--input", sampled_file])
    out = capsys.readouterr().out
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-m", "zipfold", "verify", "--input", sampled_file],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
    )
    assert (code, out) == (proc.returncode, proc.stdout)


def test_flags_do_not_carry_to_the_next_call(sampled_file, regular_file, capsys):
    assert main(["verify", "--input", regular_file, "--force", "--dev-cap", "1"]) == 1
    assert "lemma checks ran under --force" in capsys.readouterr().err
    assert main(["verify", "--input", sampled_file]) == 0  # 3 if --dev-cap 1 stayed
    capsys.readouterr()
    assert main(["verify", "--input", regular_file]) == 1
    assert "lemma checks skipped" in capsys.readouterr().err


SETTINGS = [
    ["--dev-cap", "0"],
    ["--dev-cap", "-3"],
    ["--independence-bound", "0"],
    ["--independence-bound", "-1"],
    ["--tol", "0"],
    ["--tol", "nan"],
    ["--tol", "inf"],
]
SEED_SETTINGS = [["--seed", "-1"], ["--count", "-3"], ["--seed", "-1", "--count", "0"]]


@pytest.mark.parametrize("command, setting", [
    pytest.param(command, setting, id=f"{command}-setting{k}")
    for command in ["validate", "fold", "verify", "sample", "sweep"]
    for k, setting in enumerate(SETTINGS + (SEED_SETTINGS if command in ("sample", "sweep") else []))
])
def test_out_of_range_setting_is_an_input_error(command, setting, sampled_file, tmp_path, capsys):
    where = ["--input", sampled_file] if command in ("validate", "fold", "verify") else ["--count", "1"]
    assert main([command, *where, *setting, "--out-dir", str(tmp_path / "out")]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    assert not (tmp_path / "out").exists()


# a fat hexagon's first five vertices; each case appends one bad sixth
HEAD = [[0.0, 0.0], [1.0, 0.0], [1.5, 0.8660254037844386], [1.0, 1.7320508075688772],
        [0.0, 1.7320508075688772]]
BAD_NUMBERS = {
    "string-coordinate": '{"vertices": %s}' % json.dumps(HEAD + [[1, "x"]]),
    "null-coordinate": '{"vertices": %s}' % json.dumps(HEAD + [[None, 0.8]]),
    "list-coordinate": '{"vertices": %s}' % json.dumps(HEAD + [[[-0.5], 0.8]]),
    "number-as-vertex": '{"vertices": %s}' % json.dumps(HEAD + [7]),
    "huge-coordinate": '{"vertices": %s}' % json.dumps(HEAD + [[-0.5, "X"]]).replace('"X"', "1e400"),
    "bool-coordinate": '{"vertices": %s}' % json.dumps(HEAD + [[True, 0.8660254037844386]]),
    "numeric-string-coordinate": '{"vertices": %s}' % json.dumps(HEAD + [["-0.5", 0.8660254037844386]]),
    "bool-turn": '{"turns": [0, true, 2, 3]}',
    "string-turn": '{"turns": [1, "a", 1, 1, 1]}',
    "huge-turn": '{"turns": [0, 1e400, 2, 3]}',
    "nan-turn": '{"turns": [0, NaN, 2, 3]}',
    "long-integer-turn": '{"turns": [0, 1%s, 2, 3]}' % ("0" * 400),
    "too-long-integer-turn": '{"turns": [0, 1%s, 2, 3]}' % ("0" * 5000),
    "not-utf8": b"\xff\xfe{",
    # finite coordinates whose corner products overflow, so no angle is finite
    "overflowing-corners": (
        '{"vertices": [[0, 0], [1e160, 0], [1.7e160, 1e160], [1e160, 1.7e160], [0, 1.7e160], [-1e160, 1e160]]}'
    ),
    # files of the wrong shape, and turns whose gap chord is 4
    "list-file": "[1,2]",
    "empty-object": "{}",
    "string-turns": '{"turns":"abc"}',
    "three-turns": '{"turns":[0,1,2]}',
    "unclosable-turns": '{"turns":[0,0,0,0]}',
}


@pytest.mark.parametrize("command", ["validate", "fold", "verify"])
@pytest.mark.parametrize("case", sorted(BAD_NUMBERS))
def test_bad_number_in_polygon_file_is_an_input_error(command, case, tmp_path, capsys):
    path = tmp_path / "bad.json"
    text = BAD_NUMBERS[case]
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    assert main([command, "--input", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1


@pytest.mark.parametrize("command", ["validate", "fold", "verify", "sweep"])
def test_a_directory_as_input_or_a_file_as_out_dir_is_an_input_error(command, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    where = ["--count", "1", "--out-dir", str(blocker)] if command == "sweep" else ["--input", str(tmp_path)]
    assert main([command, *where]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1


@pytest.mark.parametrize("bound", ["100000000", "9" * 400])
@pytest.mark.parametrize("command", ["validate", "fold", "verify", "sweep"])
def test_an_independence_bound_past_the_screen_limit_is_an_input_error(
    command, bound, sampled_file, tmp_path, capsys
):
    """10*tol < pi/(4*bound) fails from bound 78,539,817 at the screen's tol
    1e-9, and for a bound too large to be a float; the run stops at its
    settings, before any screen is built."""
    where = ["--count", "1"] if command == "sweep" else ["--input", sampled_file]
    setting = ["--independence-bound", bound, "--out-dir", str(tmp_path / "out")]
    assert main([command, *where, *setting]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    assert "Traceback" not in out.err
    assert not (tmp_path / "out").exists()
