"""Opcodes per operation on five inputs of each workload, pinned.

`tests/opcodes.py` counts the Python opcodes the benchmark's workloads run,
a figure that does not depend on the machine or its load.  Here its counter
runs on the first five seed-7 inputs of each workload, and the counts must
equal `tests/data/work_pins.json`: each workload's total, and the count of
every code object of the package.  The counter runs in a fresh
interpreter, as `tests/opcodes.py` does: the specializing interpreter
(Python 3.11 on) counts fewer opcodes in a function that earlier tests
have run often enough to specialize.  A change that moves the work
re-pins, and says by how much:

    python tests/test_work_pins.py          # prints the counts as JSON
    python tests/test_work_pins.py --write  # rewrites this version's pins

The opcodes a function compiles to differ between Python versions, so the
pins are keyed by minor version, and the test skips on a version with
none.
"""

import json
import os
import platform
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
PINS = os.path.join(HERE, "data", "work_pins.json")
COUNT, SEED = 5, 7
VERSION = ".".join(platform.python_version_tuple()[:2])
MOVED = 5  # code objects named per workload in a failure


def _code_key(code, root):
    """The code object's file, relative to the checkout, and its name."""
    return f"{os.path.relpath(code.co_filename, root)}:{code.co_qualname}"


def current_pins(opcodes):
    """{workload: {"total": opcodes, "by_code": {code: opcodes}}} over the
    first COUNT inputs of SEED; `by_code` holds the package's code objects,
    the ones sharing a name summed."""
    package = str(opcodes.ROOT / "src" / "zipfold")
    pins = {}
    for name, (inputs, codes) in opcodes.opcode_counts(COUNT, SEED).items():
        assert inputs == COUNT
        by_code = {}
        for code, k in codes.items():
            if code.co_filename.startswith(package):
                key = _code_key(code, opcodes.ROOT)
                by_code[key] = by_code.get(key, 0) + k
        pins[name] = {"total": sum(codes.values()), "by_code": dict(sorted(by_code.items()))}
    return pins


def _moved(old, new):
    """The workload's old and new totals, and the MOVED code objects whose
    counts moved most."""
    keys = old["by_code"].keys() | new["by_code"].keys()
    moves = sorted(
        ((new["by_code"].get(k, 0) - old["by_code"].get(k, 0), k) for k in keys),
        key=lambda move: (-abs(move[0]), move[1]),
    )
    lines = [f"total {old['total']:,} -> {new['total']:,} over {COUNT} inputs"]
    lines += [f"  {delta:+,} {key}" for delta, key in moves[:MOVED] if delta]
    return "\n".join(lines)


def test_opcodes_equal_the_pins():
    with open(PINS) as fh:
        stored = json.load(fh)
    if VERSION not in stored:
        pytest.skip(f"no work pins for Python {VERSION}; `python tests/test_work_pins.py --write` writes them")
    run = subprocess.run([sys.executable, os.path.abspath(__file__)], capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout)
    pinned = stored[VERSION]
    assert got.keys() == pinned.keys()
    moved = {name: _moved(pinned[name], got[name]) for name in got if got[name] != pinned[name]}
    assert not moved, "\n".join(f"{name}: {text}" for name, text in moved.items())


def main(argv):
    sys.path.insert(0, HERE)
    import opcodes

    pins = current_pins(opcodes)
    if argv != ["--write"]:
        print(json.dumps(pins, sort_keys=True))
        return 0
    try:
        with open(PINS) as fh:
            stored = json.load(fh)
    except FileNotFoundError:
        stored = {}
    for name, new in pins.items():
        old = stored.get(VERSION, {}).get(name, {"total": 0, "by_code": {}})
        print(f"{name}: {_moved(old, new)}")
    stored[VERSION] = pins
    with open(PINS, "w") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
