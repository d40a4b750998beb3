"""Seeded single-process benchmark of zipfold's verify, sweep and screen paths.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hex-verify --seed 1 --seconds 30 --trace 0

The package is imported from the checkout's `src/` and measured through its
public functions only.  One operation is one polygon.  Every run repeats
whole rounds over the same seeded inputs until `--seconds` have passed (and
at least MIN_ROUNDS times), checks every output, and prints one JSON object
as its last line.  `--trace 0` reports the end-to-end metrics; `--trace 1`
wraps the package's layer boundaries (see tracer.py) and reports per-layer
self times and counts instead.  See README.md for the workloads and metrics.
"""

import argparse
import contextlib
import gc
import importlib.util
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles.py"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402

MIN_ROUNDS = 5
# Fastest time of speed_probe() on the 2-vCPU Xeon VM the reference figures
# in README.md were taken on (Python 3.11.7).
PROBE_REFERENCE_S = 0.21e-3
SETUP_SAMPLES = 9
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import zipfold, zipfold.cli\n"
    "zipfold.check_independence([1.0, 2.0])\n"
    "print(time.perf_counter())\n"
)


class ProgramMissing(Exception):
    pass


def load_program():
    """Import zipfold and the brute-force oracle from this checkout."""
    if not (SRC / "zipfold" / "__init__.py").is_file() or not ORACLES.is_file():
        raise ProgramMissing(f"no zipfold sources under {SRC} (or no {ORACLES.name})")
    sys.path.insert(0, str(SRC))
    import zipfold
    import zipfold.cli

    if Path(zipfold.__file__).resolve().parent != SRC / "zipfold":
        raise ProgramMissing(f"zipfold imported from {zipfold.__file__}, not {SRC}")
    spec = importlib.util.spec_from_file_location("zipfold_oracles", ORACLES)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return zipfold, oracles


def setup_sample():
    """Seconds from spawning a fresh interpreter until zipfold is ready.

    Bytecode caching is left on in the child whatever the caller's
    environment says, so every sample after the first measures the import
    an installed package pays, not a compile of the sources.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout.split()[-1]) - start


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class HexVerify:
    """verify_polygon on fat independent hexagons: the full theorem path."""

    size = 100

    def prepare(self, zipfold, seed, workdir):
        items = []
        for verts in inputs.fat_hexagons(seed, self.size):
            loop = [complex(x, y) for x, y in verts]
            items.append((loop, zipfold.EquilateralPolygon(tuple(verts))))
        return items

    def oracle_indices(self, items, rng):
        return [int(rng.integers(len(items)))]

    def op(self, zipfold, item):
        return zipfold.pipeline.verify_polygon(item[1])

    def check(self, zipfold, item, outcome):
        return checks.check_hexagon(item[0], outcome)

    def oracle(self, zipfold, oracles, item, outcome, rng):
        return checks.oracle_hexagon(zipfold, oracles, item[1], outcome)


class NgonSweep:
    """sweep_one over a seed range, octagons and decagons interleaved."""

    size = 100

    def prepare(self, zipfold, seed, workdir):
        # Three octagons to two decagons: with an even split the median
        # would fall in the gap between the two sizes' costs.
        base = seed * 1000
        return [(base + k, 10 if k % 5 in (1, 3) else 8) for k in range(self.size)]

    def oracle_indices(self, items, rng):
        octagon, decagon = 5 * int(rng.integers(len(items) // 5)), 5 * int(rng.integers(len(items) // 5)) + 1
        return [octagon, decagon]

    def op(self, zipfold, item):
        return zipfold.pipeline.sweep_one(item[0], item[1])

    def check(self, zipfold, item, result):
        record, poly = result
        return checks.check_ngon(zipfold, item[1], record, poly)

    def oracle(self, zipfold, oracles, item, result, rng):
        _, poly = result
        return checks.oracle_ngon(zipfold, oracles, poly, int(rng.integers(poly.n // 2)))


class Screen:
    """`zipfold verify --input FILE` in-process on files that break one hypothesis."""

    size = 120

    def prepare(self, zipfold, seed, workdir):
        items = []
        for k, (data, family, fails) in enumerate(inputs.screen_cases(seed, self.size)):
            path = workdir / f"case_{k:03d}.json"
            path.write_text(json.dumps(data))
            expect = workdir / f"case_{k:03d}.expect.json"
            expect.write_text(json.dumps({"family": family, "fails": list(fails)}))
        for k in range(self.size):
            path = workdir / f"case_{k:03d}.json"
            expect = json.loads((workdir / f"case_{k:03d}.expect.json").read_text())
            items.append((str(path), tuple(expect["fails"])))
        return items

    def oracle_indices(self, items, rng):
        return []

    def op(self, zipfold, item):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = zipfold.cli.main(["verify", "--input", item[0]])
        return code, out.getvalue()

    def check(self, zipfold, item, result):
        return checks.check_screen(result[0], result[1], item[1])


WORKLOADS = {"hex-verify": HexVerify, "ngon-sweep": NgonSweep, "screen": Screen}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def speed_probe():
    """Seconds taken by a fixed slice of Python work that zipfold never runs.

    The work mixes integer arithmetic, complex arithmetic and small
    allocations, like the package's own hot loops, and takes about 0.3 ms.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(3000):
        acc += i * i % 7
    inputs.closures([0.1, 0.9, 1.8, 2.9])
    return time.perf_counter() - start


def run_rounds(zipfold, workload, items, seconds, keep, tracer, between_rounds):
    """Whole rounds over `items`.

    Returns (times, probes, fails, problems, kept): for every input, its
    operation times and the mean of the speed probes run just before and
    just after each operation; failures per input; problem descriptions;
    and the results of the inputs in `keep`.  `between_rounds()` runs after
    every round, outside the operation timings.
    """
    times = [[] for _ in items]
    probes = [[] for _ in items]
    fails = [0] * len(items)
    problems = []
    kept = {}
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        gc.collect()
        before = speed_probe()
        for k, item in enumerate(items):
            if tracer is not None:
                tracer.begin_op()
            t0 = time.perf_counter()
            try:
                result = workload.op(zipfold, item)
                error = None
            except Exception as exc:  # an operation that raises counts as failed
                result, error = None, exc
            times[k].append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.end_op()
            after = speed_probe()
            probes[k].append(0.5 * (before + after))
            before = after
            found = [f"raised {error!r}"] if error is not None else workload.check(zipfold, item, result)
            if found:
                fails[k] += 1
                problems.extend(f"input {k}: {p}" for p in found)
            elif k in keep:
                kept[k] = result
        rounds += 1
        between_rounds()
    return times, probes, fails, problems, kept


def op_seconds(times, probes):
    """Each input's time, corrected for how fast the machine ran at that moment.

    The VM this was written on slows down by up to 1.5x for seconds at a
    time, unevenly from run to run, so raw times spread by 20-30% between
    runs.  Every operation time is divided by the speed probe taken around
    it, the smallest ratio over the rounds is kept, and it is multiplied by
    PROBE_REFERENCE_S: the result is the operation's time on that VM when
    nothing else slows it, in seconds.
    """
    return [PROBE_REFERENCE_S * min(t / p for t, p in zip(ts, ps)) for ts, ps in zip(times, probes)]


def end_to_end(per_item, setup_s, peak_rss_mb):
    deciles = statistics.quantiles(per_item, n=10)
    return {
        "ops_per_s": (len(per_item) / sum(per_item), "1/s"),
        "op_ms_p50": (1000.0 * statistics.median(per_item), "ms"),
        "op_ms_p90": (1000.0 * deciles[8], "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        zipfold, oracles = load_program()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    import numpy as np

    workload = WORKLOADS[args.workload]()
    setup = []
    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / ".work"))
    tracer = None

    def between_rounds():
        if not args.trace and len(setup) < SETUP_SAMPLES:
            setup.append(setup_sample())

    try:
        items = workload.prepare(zipfold, args.seed, workdir)
        rng = np.random.default_rng([args.seed, 99])
        keep = workload.oracle_indices(items, rng)
        if args.trace:
            tracer = Tracer()
            tracer.install(zipfold)
        try:
            times, probes, fails, problems, kept = run_rounds(
                zipfold,
                workload,
                items,
                args.seconds,
                set(keep),
                tracer,
                between_rounds,
            )
        finally:
            if tracer is not None:
                tracer.restore()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for k in keep:
            if k not in kept:
                continue
            try:
                found = workload.oracle(zipfold, oracles, items[k], kept[k], rng)
            except Exception as exc:  # the cross-check itself broke: report, do not crash
                found = [f"oracle raised {exc!r}"]
            if found:
                fails[k] = len(times[k])
                problems.extend(f"input {k} (oracle): {p}" for p in found)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(t) for t in times)
    failed = sum(fails)
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.tsv")
        layer = tracer.summary()
        metrics = {name: (layer[name], unit) for name, unit, _ in PER_LAYER}
        traced_ops = len(times) / sum(op_seconds(times, probes))
        print(f"ops_per_s with tracing on: {traced_ops:.3f} 1/s")
    else:
        while len(setup) < SETUP_SAMPLES:
            setup.append(setup_sample())
        metrics = end_to_end(op_seconds(times, probes), statistics.median(setup), peak_rss_mb)
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:14.6f} {unit}")
    rounds = len(times[0])
    print(
        f"workload {args.workload} seed {args.seed}: {len(items)} inputs x {rounds} rounds, "
        f"{attempted} attempted, {failed} failed"
    )
    for p in problems[:10]:
        print(f"problem: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
