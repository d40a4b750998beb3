"""Python opcodes per operation on the benchmark's workloads.

Run from the root of a checkout:

    python tests/opcodes.py [--count 30] [--seed 7] [--by-function N]

It imports zipfold from the checkout's `src/` and the `hex-verify`,
`ngon-sweep` and `screen` workloads from `perfbench/run.py`, whose inputs
come from `perfbench/inputs.py`; `screen`'s polygon files are written to a
temporary directory that is removed afterwards.  For each workload it runs
the first input once untraced, to fill the program's caches, and then
counts the opcodes the interpreter executes (`sys.settrace` with
`f_trace_opcodes`) over the first `--count` inputs.  It prints one JSON
line: the Python version and each workload's opcodes per operation.  With
`--by-function N`, it then prints, for each workload, the N code objects
that ran the most opcodes per operation, one a line: the workload, the
opcodes per operation, the code's file and first line, and its name.

The count does not depend on the machine or its load, so two commits
compare by running this script from a checkout of each, on one Python
version.  It is no timing: the trace costs far more than the opcodes it
counts.
"""

import argparse
import collections
import json
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("hex-verify", "ngon-sweep", "screen")


def _count_opcodes(fn, *args):
    """fn(*args), and a Counter of the opcodes executed in every Python
    frame it runs, by code object."""
    counts = collections.Counter()

    def local(frame, event, arg):
        if event == "opcode":
            counts[frame.f_code] += 1
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
    return counts


def opcode_counts(count, seed):
    """{workload: (inputs, Counter of opcodes by code object)}: the
    opcodes run over the first `count` inputs of `seed`, summed, and the
    number of those inputs."""
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
            codes = collections.Counter()
            for item in items:
                codes += _count_opcodes(workload.op, zipfold, item)
        out[name] = len(items), codes
    return out


def opcodes_per_op(count, seed):
    """{workload: Counter of opcodes per op by code object} over the first
    `count` inputs of `seed`; a Counter's total is the workload's opcodes
    per op."""
    return {
        name: collections.Counter({c: k / inputs for c, k in codes.items()})
        for name, (inputs, codes) in opcode_counts(count, seed).items()
    }


def _where(code):
    """A code object's file, relative to the checkout when inside it, and
    first line."""
    path = Path(code.co_filename)
    if path.is_relative_to(ROOT):
        path = path.relative_to(ROOT)
    return f"{path}:{code.co_firstlineno}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=30, help="inputs per workload (default 30)")
    parser.add_argument("--seed", type=int, default=7, help="benchmark seed (default 7)")
    parser.add_argument(
        "--by-function", type=int, default=0, metavar="N",
        help="also list each workload's N costliest code objects (default 0: none)",
    )
    args = parser.parse_args(argv)
    if args.count < 1:
        parser.error("--count must be at least 1")
    if args.by_function < 0:
        parser.error("--by-function must be at least 0")
    by_code = opcodes_per_op(args.count, args.seed)
    record = {"python": platform.python_version(), "count": args.count, "seed": args.seed}
    record.update({name: sum(codes.values()) for name, codes in by_code.items()})
    print(json.dumps(record, sort_keys=True))
    for name, codes in by_code.items():
        for code, ops in codes.most_common(args.by_function):
            print(f"{name}\t{ops:.1f}\t{_where(code)}\t{code.co_qualname}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
