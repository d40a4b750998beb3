"""Dump the independence report of a fixed angle-set collection, or compare two dumps.

    python tests/screen_identity.py OUT.json
    python tests/screen_identity.py --compare OLD.json NEW.json

The first form runs `check_independence` at height bounds 16, 5 and 1 on
2,942 angle sets (8,826 reports) and writes, for each set and bound, the
`repr` of the report and of its `pairs`, with its `all_independent` read
before its `pairs`, or the error it raised.  The sets are:

* the angles of fat hexagon seeds 0-299, fat octagon seeds 0-149, fat
  decagon seeds 0-79 and thin octagon seeds 0-59 (the sweep's `--thin`
  controls), sampled without the screen;
* 2,000 planted sets: 2 to 10 angles, one of them `(p/q)*pi + (r/s)*x +
  delta` on another, with delta 0, +-tol/2, +-[tol, 10*tol) or 20*tol;
* the `hex-verify` hexagons and the `screen` files of seeds 1 and 7, from
  `perfbench/inputs.py` (imported, not changed);
* 12 extremes: nan, +-inf, 1e300, +-16*pi, zero, empty and one-angle sets.

It imports `zipfold` from the `src/` next to this script, so a dump made
from another checkout describes that checkout's screen.

The second form reports every set and bound whose entry differs between
the dumps; the exit status is 1 when there is one.  This is a script, not
a tier-1 test: it compares two checkouts, and the dumps it compares come
from both.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))
sys.path.insert(0, os.path.join(HERE, os.pardir, "perfbench"))

import inputs  # noqa: E402
from zipfold import check_independence, sample_fat_ngon, validate  # noqa: E402
from zipfold.polygon import polygon_from_dict  # noqa: E402

BOUNDS = (16, 5, 1)
TOL = 1e-9
# (name, n, seeds, sampler keyword arguments)
SAMPLED = (
    ("fat6", 6, range(300), {"require_independent": False}),
    ("fat8", 8, range(150), {"require_independent": False}),
    ("fat10", 10, range(80), {"require_independent": False}),
    ("thin8", 8, range(60), {"fat": False, "require_independent": False}),
)
PLANTED = 2000
EXTREMES = (
    [math.nan, 1.0],
    [math.inf, 1.0],
    [1.0, -math.inf],
    [0.5, 1e300, 2.0],
    [16 * math.pi, 1.0],
    [1.0, -16 * math.pi],
    [16 * math.pi, -16 * math.pi, 0.5],
    [0.0, 1.0],
    [1e-300, 1.0, math.pi],
    [],
    [1.0],
    [math.pi],
)


def _planted_sets():
    """Seeded sets with one relation planted at a chosen distance."""
    rng = np.random.default_rng(9)
    sets = []
    for _ in range(PLANTED):
        m = int(rng.integers(2, 11))
        vals = rng.uniform(0.05, math.pi, m).tolist()
        i, j = rng.permutation(m)[:2].tolist()
        p, r = rng.integers(-16, 17, 2).tolist()
        q, s = rng.integers(1, 17, 2).tolist()
        size = [0.0, 0.5, float(rng.uniform(1.0, 10.0)), 20.0][int(rng.integers(4))]
        sign = 1.0 if rng.integers(2) else -1.0
        vals[j] = p / q * math.pi + r / s * vals[i] + sign * size * TOL
        sets.append(vals)
    return sets


def angle_sets():
    """(name, angles) for every set of the collection, in a fixed order."""
    for name, n, seeds, kwargs in SAMPLED:
        for seed in seeds:
            yield f"{name}/{seed}", list(validate(sample_fat_ngon(n, seed, **kwargs)).angles)
    for k, vals in enumerate(_planted_sets()):
        yield f"planted/{k}", vals
    for k, verts in enumerate(inputs.fat_hexagons(7, 100)):
        yield f"hex-verify/{k}", list(validate(polygon_from_dict({"vertices": verts})).angles)
    for seed in (1, 7):
        for k, (data, family, _) in enumerate(inputs.screen_cases(seed, 120)):
            poly = polygon_from_dict(data)
            yield f"screen{seed}/{k}/{family}", list(validate(poly).angles)
    for k, vals in enumerate(EXTREMES):
        yield f"extreme/{k}", vals


def _report(vals, bound):
    """The record of one screen: the error it raised, or the report's
    `all_independent`, read before its `pairs`, and the `repr` of both."""
    try:
        report = check_independence(vals, bound, TOL)
    except ValueError as exc:
        return {"report": f"ValueError: {exc}"}
    decided = report.all_independent
    return {"all_independent": decided, "report": f"{report!r} {report.pairs!r}"}


def dump(out):
    records = {}
    for name, vals in angle_sets():
        for bound in BOUNDS:
            records[f"{name}@{bound}"] = {"angles": repr(vals), **_report(vals, bound)}
    with open(out, "w") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(records)} reports written to {out}")


def compare(old_file, new_file):
    with open(old_file) as fh:
        old = json.load(fh)
    with open(new_file) as fh:
        new = json.load(fh)
    problems = []
    if old.keys() != new.keys():
        problems.append(f"report sets differ: {sorted(old.keys() ^ new.keys())[:10]}")
    for key in sorted(old.keys() & new.keys()):
        if old[key] != new[key]:
            problems.append(f"{key}: {old[key]} -> {new[key]}")
    for line in problems:
        print("DIFF", line)
    print(f"{len(old)} reports; {len(problems)} differences")
    return 1 if problems else 0


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
