"""Python opcodes per operation on the benchmark's workloads.

Run from the root of a checkout:

    python tests/opcodes.py [--count 30] [--seed 7]

It imports zipfold from the checkout's `src/` and the `hex-verify`,
`ngon-sweep` and `screen` workloads from `perfbench/run.py`, whose inputs
come from `perfbench/inputs.py`; `screen`'s polygon files are written to a
temporary directory that is removed afterwards.  For each workload it runs
the first input once untraced, to fill the program's caches, and then
counts the opcodes the interpreter executes (`sys.settrace` with
`f_trace_opcodes`) over the first `--count` inputs.  It prints one JSON
line: the Python version and each workload's opcodes per operation.

The count does not depend on the machine or its load, so two commits
compare by running this script from a checkout of each, on one Python
version.  It is no timing: the trace costs far more than the opcodes it
counts.
"""

import argparse
import json
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("hex-verify", "ngon-sweep", "screen")


def _count_opcodes(fn, *args):
    """fn(*args), and the opcodes executed in every Python frame it runs."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def call(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return count


def opcodes_per_op(count, seed):
    """{workload: opcodes per op} over the first `count` inputs of `seed`."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import run  # perfbench/run.py
    import zipfold
    import zipfold.cli  # noqa: F401  (the workloads reach these as attributes)
    import zipfold.pipeline  # noqa: F401

    out = {}
    for name in WORKLOADS:
        workload = run.WORKLOADS[name]()
        with tempfile.TemporaryDirectory() as workdir:
            items = workload.prepare(zipfold, seed, Path(workdir))[:count]
            workload.op(zipfold, items[0])
            total = sum(_count_opcodes(workload.op, zipfold, item) for item in items)
        out[name] = total / len(items)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=30, help="inputs per workload (default 30)")
    parser.add_argument("--seed", type=int, default=7, help="benchmark seed (default 7)")
    args = parser.parse_args(argv)
    if args.count < 1:
        parser.error("--count must be at least 1")
    record = {"python": platform.python_version(), "count": args.count, "seed": args.seed}
    record.update(opcodes_per_op(args.count, args.seed))
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
