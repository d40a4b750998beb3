"""Dump every distance table of a fixed polygon set, or compare two dumps.

    python tests/table_identity.py OUT.json
    python tests/table_identity.py --compare OLD.json NEW.json

The first form builds the `DistanceTable` of every halving of fat hexagon
seeds 0-39, thin hexagon seeds 0-14, octagon seeds 0-11 and decagon seeds
0-4, at development caps 1, 3, 7, 15, 40 and 100000 (1,428 tables), and
writes each table's statuses, paths, frontiers, enumerations and
developments as canonical JSON, floats as `repr`.  A path is written as
its source, target, source and target vertex, length and crossed edges.
As in the pipeline, the engines of one polygon share one `RootFans`, here
across its halvings and caps.  It imports `zipfold`
from the `src/` next to this script, so a dump made from another checkout
describes that checkout's search.

The second form reports every difference that a refactor of the search
should not make:

* at caps 1, 15, 40 and 100000 every status, path, frontier and
  enumeration must be identical;
* at caps 3 and 7 a status may move between `found` and `inconclusive`,
  but only when the found length equals the inconclusive side's frontier
  within 1e-12: two developments with tied bounds popped in the other
  order on either side of the cap.  With the status and path unchanged, a
  frontier may move by at most 1e-12 there, for the same reason.

`developments` may differ anywhere; the total of the tables' pops is
printed for both dumps.  The exit status is 1 when a difference is
reported.  This is a script, not a tier-1 test: it compares two
checkouts, and the dumps it compares come from both.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from zipfold import glue_halving, sample_fat_ngon  # noqa: E402
from zipfold.geodesic import DevelopmentEngine, RootFans  # noqa: E402

CAPS = (1, 3, 7, 15, 40, 100000)
EXACT_CAPS = (1, 15, 40, 100000)
TIE_TOL = 1e-12
# (name, n, seeds, sampler keyword arguments); thin samples are the sweep's
# --thin controls
POLYGONS = (
    ("fat6", 6, range(40), {}),
    ("thin6", 6, range(15), {"fat": False, "require_independent": False}),
    ("fat8", 8, range(12), {}),
    ("fat10", 10, range(5), {}),
)


def _path(path):
    if path is None:
        return None
    return [
        list(path.source), list(path.target), path.source_vertex, path.target_vertex,
        repr(path.length), list(path.edge_path),
    ]


def _table_record(table):
    entries = {}
    for (i, j), (res, budget) in sorted(table.entries.items()):
        entries[f"{i},{j}"] = {
            "status": res.status,
            "path": _path(res.path),
            "length": None if res.path is None else repr(res.path.length),
            "frontier": repr(res.frontier),
            "budget": repr(budget),
            "developments": res.developments,
        }
    enumerations = {
        f"{i},{j}": {
            "paths": [_path(p) for p in enum.paths],
            "complete": enum.complete,
            "developments": enum.developments,
        }
        for (i, j), enum in sorted(table.enumerations.items())
    }
    return {"entries": entries, "enumerations": enumerations, "developments": table.developments}


def dump(out):
    tables = {}
    for name, n, seeds, kwargs in POLYGONS:
        for seed in seeds:
            poly = sample_fat_ngon(n, seed, **kwargs)
            fans = RootFans(poly)
            for fold in range(n // 2):
                gluing = glue_halving(poly, fold)
                for cap in CAPS:
                    table = DevelopmentEngine(gluing, dev_cap=cap, fans=fans).distance_table()
                    tables[f"{name}/{seed}/{fold}/{cap}"] = _table_record(table)
    with open(out, "w") as fh:
        json.dump(tables, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(tables)} tables written to {out}")


def _tie(old, new):
    """Whether a found/inconclusive status change is an exact-bound tie."""
    found, other = (old, new) if old["status"] == "found" else (new, old)
    if {found["status"], other["status"]} != {"found", "inconclusive"}:
        return False
    return abs(float(found["length"]) - float(other["frontier"])) <= TIE_TOL


def compare(old_file, new_file):
    with open(old_file) as fh:
        old = json.load(fh)
    with open(new_file) as fh:
        new = json.load(fh)
    problems = []
    ties = []
    moved = []
    if old.keys() != new.keys():
        problems.append(f"table sets differ: {sorted(old.keys() ^ new.keys())[:10]}")
    for key in sorted(old.keys() & new.keys()):
        cap = int(key.rsplit("/", 1)[1])
        a, b = old[key], new[key]
        for pair, ea in a["entries"].items():
            eb = b["entries"].get(pair)
            if eb is None:
                problems.append(f"{key} entry {pair}: missing")
                continue
            same = all(ea[f] == eb[f] for f in ("status", "path", "frontier", "budget"))
            if same:
                continue
            if cap not in EXACT_CAPS and ea["status"] != eb["status"] and _tie(ea, eb):
                ties.append(f"{key} entry {pair}: {ea['status']} -> {eb['status']}")
                continue
            if (
                cap not in EXACT_CAPS
                and all(ea[f] == eb[f] for f in ("status", "path", "budget"))
                and abs(float(ea["frontier"]) - float(eb["frontier"])) <= TIE_TOL
            ):
                moved.append(f"{key} entry {pair}: frontier {ea['frontier']} -> {eb['frontier']}")
                continue
            problems.append(f"{key} entry {pair}: {_brief(ea)} -> {_brief(eb)}")
        if a["entries"].keys() != b["entries"].keys():
            problems.append(f"{key}: entry pairs differ")
        for pair, ea in a["enumerations"].items():
            eb = b["enumerations"].get(pair)
            if eb is None or ea["paths"] != eb["paths"] or ea["complete"] != eb["complete"]:
                problems.append(f"{key} enumeration {pair} differs")
        if a["enumerations"].keys() != b["enumerations"].keys():
            problems.append(f"{key}: enumeration pairs differ")
    for line in ties:
        print("tie", line)
    for line in moved:
        print("moved", line)
    for line in problems:
        print("DIFF", line)
    pops_old = sum(t["developments"] for t in old.values())
    pops_new = sum(t["developments"] for t in new.values())
    print(
        f"{len(old)} tables; {len(ties)} tied status changes; {len(moved)} frontiers moved "
        f"within {TIE_TOL}; {len(problems)} differences; "
        f"pops {pops_old} -> {pops_new}"
    )
    return 1 if problems else 0


def _brief(entry):
    return f"{entry['status']} length={entry['length']} frontier={entry['frontier']}"


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
