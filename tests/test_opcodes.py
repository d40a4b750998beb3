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
