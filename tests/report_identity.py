"""Dump the sweep rows and verify scorecards of a fixed polygon set, or compare two dumps.

    python tests/report_identity.py OUT.json
    python tests/report_identity.py --compare OLD.json NEW.json

The first form samples fat and thin (`--thin` control) polygons for n = 6
seeds 0-39, n = 8 seeds 0-11 and n = 10 seeds 0-5, and runs each at
development caps 1, 2, 3, 5, 8, 13, 20, 40 and 100000.  For every run it
writes the `SweepRecord.to_row()` that `sweep_one` gives and the
`verify_polygon(...).scorecard()` of the sampled polygon, forced for thin
controls as the sweep forces them, with the outcome's status.  A seed the
sampler gives up on is written as its error.  It imports `zipfold` from
the `src/` next to this script, so a dump made from another checkout
describes that checkout's reports.

The second form prints every CSV cell and scorecard line that differs,
then a count of the differences by column or line and by old -> new
value.  The exit status is 1 when anything differs.  This is a script,
not a tier-1 test: it compares two checkouts, and the dumps it compares
come from both.
"""

import argparse
import collections
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from zipfold.errors import SamplingBudgetError  # noqa: E402
from zipfold.pipeline import SWEEP_COLUMNS, PipelineConfig, sweep_one, verify_polygon  # noqa: E402

CAPS = (1, 2, 3, 5, 8, 13, 20, 40, 100000)
SEEDS = ((6, range(40)), (8, range(12)), (10, range(6)))


def dump(out):
    runs = {}
    for n, seeds in SEEDS:
        for thin in (False, True):
            for seed in seeds:
                for cap in CAPS:
                    key = f"{'thin' if thin else 'fat'}{n}/{seed}/{cap}"
                    cfg = PipelineConfig(dev_cap=cap)
                    try:
                        record, poly = sweep_one(seed, n, cfg, thin=thin)
                    except SamplingBudgetError as exc:
                        runs[key] = {"error": str(exc)}
                        continue
                    outcome = verify_polygon(poly, cfg, force=thin)
                    runs[key] = {
                        "row": dict(zip(SWEEP_COLUMNS, record.to_row())),
                        "scorecard": dict(outcome.scorecard()),
                        "status": outcome.status,
                    }
    with open(out, "w") as fh:
        json.dump(runs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(runs)} runs written to {out}")


def _cells(run):
    """(where, value) for every CSV cell, scorecard line and status of a run."""
    if "error" in run:
        return {"error": run["error"]}
    cells = {f"csv {k}": v for k, v in run["row"].items()}
    cells.update((f"line {k}", v) for k, v in run["scorecard"].items())
    cells["status"] = run["status"]
    return cells


def compare(old_file, new_file):
    with open(old_file) as fh:
        old = json.load(fh)
    with open(new_file) as fh:
        new = json.load(fh)
    counts = collections.Counter()
    if old.keys() != new.keys():
        print("DIFF run sets differ:", sorted(old.keys() ^ new.keys())[:10])
        counts["run sets"] += 1
    for key in sorted(old.keys() & new.keys()):
        a, b = _cells(old[key]), _cells(new[key])
        for where in sorted(a.keys() | b.keys()):
            if a.get(where) != b.get(where):
                print(f"DIFF {key} {where}: {a.get(where)} -> {b.get(where)}")
                counts[f"{where}: {a.get(where)} -> {b.get(where)}"] += 1
    errors = sum("error" in run for run in new.values())
    print(f"{len(new)} runs ({errors} sampler errors); {sum(counts.values())} differences")
    for what, count in sorted(counts.items()):
        print(f"  {count:5d}  {what}")
    return 1 if counts else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("files", nargs="+", metavar="FILE")
    parser.add_argument("--compare", action="store_true", help="compare OLD.json NEW.json")
    args = parser.parse_args(argv)
    if args.compare:
        if len(args.files) != 2:
            parser.error("--compare needs OLD and NEW")
        return compare(*args.files)
    if len(args.files) != 1:
        parser.error("give one output file")
    dump(args.files[0])
    return 0


if __name__ == "__main__":
    sys.exit(main())
