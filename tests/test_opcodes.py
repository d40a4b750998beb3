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
    # in every frame it calls
    for name in opcodes.WORKLOADS:
        assert record[name] > 10000
