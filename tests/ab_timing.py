"""Time this checkout's zipfold against another checkout's, input by input.

Run from the root of a checkout:

    python tests/ab_timing.py --parent DIR [--seed 7] [--count 100] [--rounds 15]

DIR is the root of another checkout, usually the parent commit's.  The
script copies `DIR/src/zipfold` and this checkout's `src/zipfold` into a
temporary directory as two packages, `zipfold_parent` and `zipfold_change`,
and imports both into one process.  For each of the `hex-verify` and
`ngon-sweep` workloads it builds the first `--count` inputs from
`perfbench/inputs.py` and `perfbench/run.py`, which it only reads, and runs
each input once on both sides, stopping with an error unless the two
outputs have the same `repr` (a sweep record's `wall_seconds` left out).
Then, for `--rounds` rounds, it times one operation per side on each input
in turn, the parent first in even rounds and the change first in odd
ones, and keeps each side's best time per input.  It prints one JSON
line: per workload and side, the mean, median and 90th percentile of
those best times in milliseconds (the latter two as `perfbench/run.py`
takes `op_ms_p50` and `op_ms_p90`), and the number of inputs on which
that side was faster.

Both sides share one process, one machine state and one input order, so
this is a development aid for a change to the program, not the
benchmark's judgement: `perfbench/run.py` is that.
"""

import argparse
import gc
import importlib
import json
import re
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("hex-verify", "ngon-sweep")
SIDES = ("parent", "change")
# a sweep record's own timing, which differs from run to run
_WALL_SECONDS = re.compile(r"wall_seconds=[^,)]+")


def load_sides(parent_root, workdir):
    """{side: package} for the parent's and this checkout's zipfold,
    copied under workdir as zipfold_parent and zipfold_change."""
    sources = {"parent": Path(parent_root) / "src" / "zipfold", "change": ROOT / "src" / "zipfold"}
    sys.path.insert(0, str(workdir))
    packages = {}
    for side, src in sources.items():
        if not (src / "__init__.py").is_file():
            raise SystemExit(f"error: no zipfold package under {src}")
        name = f"zipfold_{side}"
        shutil.copytree(src, Path(workdir) / name, ignore=shutil.ignore_patterns("__pycache__"))
        packages[side] = importlib.import_module(name)
        # the workloads reach these as attributes
        importlib.import_module(name + ".pipeline")
        importlib.import_module(name + ".cli")
    return packages


def output(result):
    """An operation's result as the two sides must agree on it."""
    return _WALL_SECONDS.sub("wall_seconds=...", repr(result))


def compare(packages, name, seed, count, rounds):
    """{side: {mean_ms, p50_ms, p90_ms, wins}} for the workload `name` (see
    the module docstring)."""
    import run  # perfbench/run.py: the workloads and their inputs

    workload = run.WORKLOADS[name]()
    with tempfile.TemporaryDirectory() as inputs_dir:
        items = {
            side: workload.prepare(pkg, seed, Path(inputs_dir))[:count] for side, pkg in packages.items()
        }
    count = len(items["change"])  # a workload has fewer inputs than a large --count
    for k in range(count):
        outputs = {side: output(workload.op(pkg, items[side][k])) for side, pkg in packages.items()}
        if outputs["parent"] != outputs["change"]:
            raise SystemExit(f"error: {name} input {k} gives different outputs on the two sides")
    best = {side: [float("inf")] * count for side in SIDES}
    clock = time.perf_counter
    gc.disable()
    try:
        for r in range(rounds):
            order = SIDES if r % 2 == 0 else SIDES[::-1]
            for k in range(count):
                for side in order:
                    pkg, item = packages[side], items[side][k]
                    start = clock()
                    workload.op(pkg, item)
                    elapsed = clock() - start
                    if elapsed < best[side][k]:
                        best[side][k] = elapsed
            gc.collect()
    finally:
        gc.enable()
    record = {}
    for side, other in zip(SIDES, SIDES[::-1]):
        ms = [t * 1e3 for t in best[side]]
        record[side] = {
            "mean_ms": statistics.fmean(ms),
            "p50_ms": statistics.median(ms),
            "p90_ms": statistics.quantiles(ms, n=10)[8],  # as perfbench/run.py takes op_ms_p90
            "wins": sum(a < b for a, b in zip(best[side], best[other])),
        }
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, metavar="DIR", help="root of the checkout to compare with")
    parser.add_argument("--seed", type=int, default=7, help="benchmark seed (default 7)")
    parser.add_argument("--count", type=int, default=100, help="inputs (default 100)")
    parser.add_argument("--rounds", type=int, default=15, help="timed rounds over the inputs (default 15)")
    args = parser.parse_args(argv)
    if args.count < 2 or args.rounds < 1:
        parser.error("--count must be at least 2 and --rounds at least 1")
    sys.path.insert(0, str(ROOT / "perfbench"))
    record = {"seed": args.seed, "count": args.count, "rounds": args.rounds}
    with tempfile.TemporaryDirectory() as workdir:
        packages = load_sides(args.parent, workdir)
        for name in WORKLOADS:
            record[name] = compare(packages, name, args.seed, args.count, args.rounds)
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
