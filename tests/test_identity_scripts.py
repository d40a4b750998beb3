"""The distance-table, report and screen identity scripts still run.

Each script compares two checkouts and so runs outside the suite; these
tests build one of its records and check that `compare` finds no
difference between a dump and itself and one after an entry is altered.
"""

import importlib
import json
import sys

import pytest

from zipfold import glue_halving, sample_fat_ngon
from zipfold.geodesic import DevelopmentEngine


@pytest.fixture()
def script(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # each script adds src/
    return importlib.import_module


def _compare(module, dumps, tmp_path):
    files = []
    for k, runs in enumerate(dumps):
        files.append(tmp_path / f"dump{k}.json")
        files[-1].write_text(json.dumps(runs))
    return module.compare(*map(str, files))


def test_table_identity_script_runs(script, tmp_path, capsys):
    module = script("table_identity")
    table = DevelopmentEngine(glue_halving(sample_fat_ngon(6, 0), 0)).distance_table()
    record = module._table_record(table)
    assert record["entries"]["0,1"]["path"][4] == record["entries"]["0,1"]["length"]
    assert _compare(module, [{"fat6/0/0/100000": record}] * 2, tmp_path) == 0
    altered = json.loads(json.dumps(record))
    altered["entries"]["0,1"]["path"][5].append(0)
    assert _compare(module, [{"fat6/0/0/100000": record}, {"fat6/0/0/100000": altered}], tmp_path) == 1
    assert "1 differences" in capsys.readouterr().out


def test_report_identity_script_runs(script, tmp_path, capsys):
    module = script("report_identity")
    record = module._run_record(0, 6, 100000, False)
    assert record["status"] == "pass" and record["row"]["status"] == "pass"
    assert _compare(module, [{"fat6/0/100000": record}] * 2, tmp_path) == 0
    altered = json.loads(json.dumps(record))
    altered["scorecard"]["net.simple"] = "fail"
    assert _compare(module, [{"fat6/0/100000": record}, {"fat6/0/100000": altered}], tmp_path) == 1
    assert "1 differences" in capsys.readouterr().out


def test_screen_identity_script_compares(script, tmp_path, capsys):
    module = script("screen_identity")
    name, vals = next(module.angle_sets())
    records = {f"{name}@{bound}": module._report(vals, bound) for bound in module.BOUNDS}
    assert records["fat6/0@16"]["all_independent"] is True
    assert _compare(module, [records] * 2, tmp_path) == 0
    flipped = json.loads(json.dumps(records))
    flipped["fat6/0@16"]["all_independent"] = False
    assert _compare(module, [records, flipped], tmp_path) == 1
    assert "1 differences" in capsys.readouterr().out
