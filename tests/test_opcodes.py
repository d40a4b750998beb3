"""The opcode counter, `tests/opcodes.py`, on one input per workload.

The full count, over the first 30 inputs of each workload, runs outside
the suite.
"""

import importlib
import json
import sys


def test_the_counter_prints_one_json_line(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the counter adds src/ and perfbench/
    opcodes = importlib.import_module("opcodes")
    before = sys.gettrace()
    assert opcodes.main(["--count", "1"]) == 0
    assert sys.gettrace() is before
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert (record["count"], record["seed"]) == (1, 7)
    # the operation's own frame runs a few hundred opcodes; the count takes
    # in every frame it calls: the geodesic search's on the first two
    # workloads, and the reader's, validation's and the screen's on `screen`
    floors = {"hex-verify": 10000, "ngon-sweep": 10000, "screen": 1000}
    assert set(opcodes.WORKLOADS) == set(floors)
    for name, floor in floors.items():
        assert record[name] > floor


def test_by_function_lists_each_workloads_costliest_code_after_the_same_line(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))
    opcodes = importlib.import_module("opcodes")
    assert opcodes.main(["--count", "1", "--by-function", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + 3 * len(opcodes.WORKLOADS)
    record = json.loads(lines[0])
    assert opcodes.main(["--count", "1"]) == 0
    assert json.loads(capsys.readouterr().out) == record  # the flag moves no count
    rows = [line.split("\t") for line in lines[1:]]
    assert [row[0] for row in rows] == [name for name in opcodes.WORKLOADS for _ in range(3)]
    for name in opcodes.WORKLOADS:
        shares = [float(ops) for workload, ops, _, _ in rows if workload == name]
        assert shares == sorted(shares, reverse=True)
        assert 0 < sum(shares) <= record[name]
    # the package's own code leads the two workloads that run the geodesic
    # search, named by its path in the checkout
    assert rows[0][2].startswith("src/zipfold/") and rows[3][2].startswith("src/zipfold/")
