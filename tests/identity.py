"""Dump, compare and check the identity records of tables, reports and screens.

    python tests/identity.py dump OUT.json
    python tests/identity.py compare OLD.json NEW.json
    python tests/identity.py check

There are four sections, each a record generator with its own diff rule.

* `tables`: the `DistanceTable` of every halving of fat hexagon seeds 0-39,
  thin hexagon seeds 0-14 (the sweep's `--thin` controls), octagon seeds
  0-11 and decagon seeds 0-4, at development caps 1, 3, 7, 15, 40 and
  100000 (1,428 tables): each entry's status, path, frontier, budget and
  developments, and each enumeration.  A path is written as its source,
  target, source and target vertex, length and crossed edges.  As in the
  pipeline, the engines of one polygon share one `RootFans`, here across
  its halvings and caps.  The `crossing` family leaves the chord path: every
  ordered cone pair of every halving of fat hexagon seeds 0-9 and fat
  octagon seeds 0-2 is enumerated out to 3.5 at the default cap (2,610
  paths, 210 of them across two edges), and recorded as a table whose
  entries are empty.  The `reach` family puts the reach of a search
  exactly at a found distance: for every halving of fat hexagon seeds 0-9,
  fat octagon seeds 0-2, fat decagon seeds 0-1 and a weakly reflex hexagon,
  each ordered cone pair whose table entry is found is searched again at
  the default cap with a shortest query and an enumeration whose budgets
  both equal that length, and recorded as a table of those results.  At
  caps 1, 15, 40 and 100000 every status, path,
  frontier and enumeration must be identical.  At caps 3 and 7 a status
  may move between `found` and `inconclusive` when the found length equals
  the other side's frontier within 1e-12 (two developments with tied
  bounds popped in the other order at the cap), and with the status and
  path unchanged a frontier may move by at most 1e-12.  `developments` may
  differ anywhere; their totals are printed.
* `reports`: for fat and `--thin` polygons at n = 6 (seeds 0-39), 8 (0-11)
  and 10 (0-5), at caps 1, 2, 3, 5, 8, 13, 20, 40 and 100000 (1,044 runs),
  the `SweepRecord.to_row()` of `sweep_one` and the scorecard and status of
  `verify_polygon`, forced for thin controls as the sweep forces them, or
  the sampler's error.  Every CSV cell, scorecard line and status must be
  identical.
* `screen`: `check_independence` at height bounds 16, 5 and 1 on 2,942
  angle sets (8,826 reports): the angles of fat hexagon seeds 0-299, fat
  octagon seeds 0-149, fat decagon seeds 0-79 and thin octagon seeds 0-59,
  sampled without the screen; 2,000 sets with one relation planted at a
  chosen distance from tol; the `hex-verify` hexagons and the `screen`
  files of seeds 1 and 7 from `perfbench/inputs.py`; and 12 extremes.  A
  record holds the `repr` of the angles, `all_independent` read before
  `pairs`, and the `repr` of the report and its pairs, or the error
  raised.  Every record must be identical.
* `fold`: the stdout and exit code of `zipfold fold --fold-index all`, run
  in this process on the `tables` polygons of families fat6, thin6 and
  fat8 at caps 1, 2, 3 and 100000; the low caps reach the `error` entries.
  For the hexagons at cap 100000 the record also holds the bytes of every
  file `--emit-obj --emit-svg` writes.  Every record must be identical.

`dump` writes every record as canonical JSON, floats as `repr`.  `compare`
prints every difference between two dumps and exits 1 when there is one;
run it against a dump of the parent checkout to list what a change moved.
`check` hashes each slice (a section's family at one cap or bound) and
exits 1, naming the moved slices, when one differs from
`tests/data/identity_digests.json`.  The records hold float `repr`s, so the
stored digests name the Python and numpy versions that made them.  A change
that moves a slice on purpose replaces its digest there by the running one
that `check` prints.  The harness imports `zipfold` from the `src/` next to
it, so a dump made from another checkout describes that checkout.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import platform
import re
import sys
import tempfile
from typing import Callable, NamedTuple

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))
sys.path.insert(0, os.path.join(HERE, os.pardir, "perfbench"))

import inputs  # noqa: E402
from zipfold import (  # noqa: E402
    EquilateralPolygon, check_independence, cli, glue_halving, sample_fat_ngon, save_polygon, validate,
)
from zipfold.errors import SamplingBudgetError  # noqa: E402
from zipfold.geodesic import DevelopmentEngine, Goal, RootFans  # noqa: E402
from zipfold.pipeline import SWEEP_COLUMNS, PipelineConfig, sweep_one, verify_polygon  # noqa: E402
from zipfold.polygon import polygon_from_dict  # noqa: E402

DIGESTS = os.path.join(HERE, "data", "identity_digests.json")


def canonical(obj):
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


# -- tables ------------------------------------------------------------------

TABLE_CAPS = (1, 3, 7, 15, 40, 100000)
EXACT_CAPS = (1, 15, 40, 100000)
TIE_TOL = 1e-12
# family: (n, seeds, sampler keyword arguments)
TABLE_POLYGONS = {
    "fat6": (6, range(40), {}),
    "thin6": (6, range(15), {"fat": False, "require_independent": False}),
    "fat8": (8, range(12), {}),
    "fat10": (10, range(5), {}),
}


def _path(path):
    if path is None:
        return None
    return [
        list(path.source), list(path.target), path.source_vertex, path.target_vertex,
        repr(path.length), list(path.edge_path),
    ]


def _entry(res, budget):
    return {
        "status": res.status,
        "path": _path(res.path),
        "length": None if res.path is None else repr(res.path.length),
        "frontier": repr(res.frontier),
        "budget": repr(budget),
        "developments": res.developments,
    }


def _enumeration(enum):
    return {
        "paths": [_path(p) for p in enum.paths],
        "complete": enum.complete,
        "developments": enum.developments,
    }


def _table_record(table):
    entries = {f"{i},{j}": _entry(res, budget) for (i, j), (res, budget) in sorted(table.entries.items())}
    enumerations = {f"{i},{j}": _enumeration(enum) for (i, j), enum in sorted(table.enumerations.items())}
    return {"entries": entries, "enumerations": enumerations, "developments": table.developments}


def table_records(family):
    n, seeds, kwargs = TABLE_POLYGONS[family]
    for seed in seeds:
        poly = sample_fat_ngon(n, seed, **kwargs)
        fans = RootFans(poly)
        for fold in range(n // 2):
            gluing = glue_halving(poly, fold)
            for cap in TABLE_CAPS:
                table = DevelopmentEngine(gluing, dev_cap=cap, fans=fans).distance_table()
                yield f"{family}/{seed}/{fold}/{cap}", _table_record(table)


CROSSING = "crossing"
CROSSING_BUDGET = 3.5
CROSSING_POLYGONS = {6: range(10), 8: range(3)}


def crossing_records():
    """Every ordered cone pair of every halving enumerated out to
    CROSSING_BUDGET, so that paths cross up to two edges."""
    for n, seeds in CROSSING_POLYGONS.items():
        for seed in seeds:
            poly = sample_fat_ngon(n, seed)
            fans = RootFans(poly)
            for fold in range(n // 2):
                gluing = glue_halving(poly, fold)
                engine = DevelopmentEngine(gluing, fans=fans)
                enumerations = {
                    f"{i},{j}": _enumeration(engine.enumerate_geodesics(i, j, CROSSING_BUDGET))
                    for i, j in itertools.permutations(range(len(gluing.cone_points)), 2)
                }
                yield f"{CROSSING}/fat{n}/{seed}/{fold}/{engine.dev_cap}", {
                    "entries": {},
                    "enumerations": enumerations,
                    "developments": sum(e["developments"] for e in enumerations.values()),
                }


REACH = "reach"
REACH_POLYGONS = {6: range(10), 8: range(3), 10: range(2)}
# the degenerate hexagon with vertex 1 lifted 2e-10 into it: it turns
# clockwise there within the default tol_convex, so the search takes it
WEAKLY_REFLEX = EquilateralPolygon(((0, 0), (1, 2e-10), (2, 0), (2, 1), (1, 1), (0, 1)))


def reach_records():
    """Every found table distance searched again, in both directions, at a
    budget equal to it, so that the search's reach lies exactly at the
    target."""
    polygons = [
        (f"fat{n}/{seed}", sample_fat_ngon(n, seed)) for n, seeds in REACH_POLYGONS.items() for seed in seeds
    ]
    polygons.append(("reflex6/0", WEAKLY_REFLEX))
    for name, poly in polygons:
        fans = RootFans(poly)
        for fold in range(poly.n // 2):
            engine = DevelopmentEngine(glue_halving(poly, fold), fans=fans)
            entries, enumerations, popped = {}, {}, 0
            for (i, j), (res, _) in sorted(engine.distance_table().entries.items()):
                if res.path is None:
                    continue
                d = res.path.length
                for u, v in ((i, j), (j, i)):
                    (shortest, enum), pops = engine.search(u, [Goal(v, d, True), Goal(v, d, False)])
                    entries[f"{u},{v}"] = _entry(shortest, d)
                    enumerations[f"{u},{v}"] = _enumeration(enum)
                    popped += pops
            yield f"{REACH}/{name}/{fold}/{engine.dev_cap}", {
                "entries": entries, "enumerations": enumerations, "developments": popped,
            }


def _tie(old, new):
    """Whether a found/inconclusive status change is an exact-bound tie."""
    found, other = (old, new) if old["status"] == "found" else (new, old)
    if {found["status"], other["status"]} != {"found", "inconclusive"}:
        return False
    return abs(float(found["length"]) - float(other["frontier"])) <= TIE_TOL


def table_diff(key, a, b):
    exact = int(key.rsplit("/", 1)[1]) in EXACT_CAPS
    for pair, ea in a["entries"].items():
        eb = b["entries"].get(pair)
        if eb is None:
            yield "DIFF", f"entry {pair}: missing"
        elif all(ea[f] == eb[f] for f in ("status", "path", "frontier", "budget")):
            continue
        elif not exact and ea["status"] != eb["status"] and _tie(ea, eb):
            yield "tie", f"entry {pair}: {ea['status']} -> {eb['status']}"
        elif (
            not exact
            and all(ea[f] == eb[f] for f in ("status", "path", "budget"))
            and abs(float(ea["frontier"]) - float(eb["frontier"])) <= TIE_TOL
        ):
            yield "moved", f"entry {pair}: frontier {ea['frontier']} -> {eb['frontier']}"
        else:
            yield "DIFF", f"entry {pair}: " + " -> ".join(
                f"{e['status']} length={e['length']} frontier={e['frontier']}" for e in (ea, eb)
            )
    if a["entries"].keys() != b["entries"].keys():
        yield "DIFF", "entry pairs differ"
    for pair, ea in a["enumerations"].items():
        eb = b["enumerations"].get(pair)
        if eb is None or ea["paths"] != eb["paths"] or ea["complete"] != eb["complete"]:
            yield "DIFF", f"enumeration {pair} differs"
    if a["enumerations"].keys() != b["enumerations"].keys():
        yield "DIFF", "enumeration pairs differ"


# -- reports -----------------------------------------------------------------

REPORT_CAPS = (1, 2, 3, 5, 8, 13, 20, 40, 100000)
# family: (n, seeds, thin)
REPORT_POLYGONS = {
    f"{'thin' if thin else 'fat'}{n}": (n, range(count), thin)
    for n, count in ((6, 40), (8, 12), (10, 6))
    for thin in (False, True)
}


def _run_record(seed, n, cap, thin):
    cfg = PipelineConfig(dev_cap=cap)
    try:
        record, poly = sweep_one(seed, n, cfg, thin=thin)
    except SamplingBudgetError as exc:
        return {"error": str(exc)}
    outcome = verify_polygon(poly, cfg, force=thin)
    return {
        "row": dict(zip(SWEEP_COLUMNS, record.to_row())),
        "scorecard": dict(outcome.scorecard()),
        "status": outcome.status,
    }


def report_records(family):
    n, seeds, thin = REPORT_POLYGONS[family]
    for seed in seeds:
        for cap in REPORT_CAPS:
            yield f"{family}/{seed}/{cap}", _run_record(seed, n, cap, thin)


def _cells(run):
    """(where, value) for every CSV cell, scorecard line and status of a run."""
    if "error" in run:
        return {"error": run["error"]}
    cells = {f"csv {k}": v for k, v in run["row"].items()}
    cells.update((f"line {k}", v) for k, v in run["scorecard"].items())
    cells["status"] = run["status"]
    return cells


def report_diff(key, a, b):
    a, b = _cells(a), _cells(b)
    for where in sorted(a.keys() | b.keys()):
        if a.get(where) != b.get(where):
            yield "DIFF", f"{where}: {a.get(where)} -> {b.get(where)}"


# -- screen ------------------------------------------------------------------

BOUNDS = (16, 5, 1)
TOL = 1e-9
# family: (n, seeds, sampler keyword arguments)
SAMPLED = {
    "fat6": (6, range(300), {"require_independent": False}),
    "fat8": (8, range(150), {"require_independent": False}),
    "fat10": (10, range(80), {"require_independent": False}),
    "thin8": (8, range(60), {"fat": False, "require_independent": False}),
}
SCREEN_FAMILIES = (*SAMPLED, "planted", "hex-verify", "screen1", "screen7", "extreme")
PLANTED = 2000
EXTREMES = (
    [math.nan, 1.0], [math.inf, 1.0], [1.0, -math.inf], [0.5, 1e300, 2.0],
    [16 * math.pi, 1.0], [1.0, -16 * math.pi], [16 * math.pi, -16 * math.pi, 0.5], [0.0, 1.0],
    [1e-300, 1.0, math.pi], [], [1.0], [math.pi],
)


def _planted_sets():
    """Seeded sets with one relation planted at a chosen distance: one angle
    is (p/q)*pi + (r/s)*x + delta on another x, with delta 0, +-tol/2,
    +-[tol, 10*tol) or +-20*tol."""
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


def angle_sets(family):
    """(name, angles) for every set of one screen family, in a fixed order."""
    if family in SAMPLED:
        n, seeds, kwargs = SAMPLED[family]
        for seed in seeds:
            yield f"{family}/{seed}", list(validate(sample_fat_ngon(n, seed, **kwargs)).angles)
    elif family == "planted":
        yield from ((f"planted/{k}", vals) for k, vals in enumerate(_planted_sets()))
    elif family == "hex-verify":
        for k, verts in enumerate(inputs.fat_hexagons(7, 100)):
            poly = polygon_from_dict({"vertices": [list(v) for v in verts]})
            yield f"hex-verify/{k}", list(validate(poly).angles)
    elif family == "extreme":
        yield from ((f"extreme/{k}", vals) for k, vals in enumerate(EXTREMES))
    else:
        seed = int(family.removeprefix("screen"))
        for k, (data, kind, _) in enumerate(inputs.screen_cases(seed, 120)):
            yield f"{family}/{k}/{kind}", list(validate(polygon_from_dict(data)).angles)


def _report(vals, bound):
    """The record of one screen: the error it raised, or the report's
    `all_independent`, read before its `pairs`, and the `repr` of both."""
    try:
        report = check_independence(vals, bound, TOL)
    except ValueError as exc:
        return {"report": f"ValueError: {exc}"}
    decided = report.all_independent
    return {"all_independent": decided, "report": f"{report!r} {report.pairs!r}"}


def screen_records(family):
    for name, vals in angle_sets(family):
        for bound in BOUNDS:
            yield f"{name}@{bound}", {"angles": repr(vals), **_report(vals, bound)}


def exact_diff(key, a, b):
    if a != b:
        yield "DIFF", f"{a} -> {b}"


# -- fold --------------------------------------------------------------------

FOLD_CAPS = (1, 2, 3, 100000)
FOLD_FAMILIES = ("fat6", "thin6", "fat8")  # polygons as in TABLE_POLYGONS


def _fold(args):
    """(stdout, exit code) of `zipfold fold` run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["fold", "--fold-index", "all", *args])
    return out.getvalue(), code


def fold_records(family):
    n, seeds, kwargs = TABLE_POLYGONS[family]
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            path = os.path.join(tmp, f"polygon{seed}.json")
            save_polygon(sample_fat_ngon(n, seed, **kwargs), path)
            for cap in FOLD_CAPS:
                stdout, code = _fold(["--input", path, "--dev-cap", str(cap)])
                record = {"stdout": stdout, "exit": code}
                if n == 6 and cap == FOLD_CAPS[-1]:
                    emitted = os.path.join(tmp, f"out{seed}")
                    _fold(["--input", path, "--emit-obj", "--emit-svg", "--out-dir", emitted])
                    record["files"] = {}
                    for name in sorted(os.listdir(emitted)):
                        with open(os.path.join(emitted, name), encoding="utf-8") as fh:
                            record["files"][name] = fh.read()
                yield f"{family}/{seed}/{cap}", record


# -- the harness -------------------------------------------------------------


def _table_family(family):
    if family == CROSSING:
        return crossing_records()
    if family == REACH:
        return reach_records()
    return table_records(family)


class Section(NamedTuple):
    families: tuple
    records: Callable  # family -> (key, record) for each of its records
    diff: Callable  # (key, old, new) -> (kind, text) for each change; kind DIFF fails
    note: Callable = None  # records -> a count that compare prints for both dumps


SECTIONS = {
    "tables": Section(
        (*TABLE_POLYGONS, CROSSING, REACH),
        _table_family,
        table_diff,
        lambda records: f"pops {sum(t['developments'] for t in records.values())}",
    ),
    "reports": Section(
        tuple(REPORT_POLYGONS), report_records, report_diff,
        lambda records: f"sampler errors {sum('error' in r for r in records.values())}",
    ),
    "screen": Section(SCREEN_FAMILIES, screen_records, exact_diff),
    "fold": Section(FOLD_FAMILIES, fold_records, exact_diff),
}


def slice_digests(section, family):
    """sha256 of the canonical JSON of each slice of one family's records:
    its records at one cap or bound, named section/family/cap."""
    slices = {}
    for key, record in SECTIONS[section].records(family):
        slices.setdefault(f"{section}/{family}/{re.split('[/@]', key)[-1]}", {})[key] = record
    return {name: hashlib.sha256(canonical(recs).encode()).hexdigest() for name, recs in slices.items()}


def dump(out):
    records = {
        name: {key: rec for family in section.families for key, rec in section.records(family)}
        for name, section in SECTIONS.items()
    }
    with open(out, "w") as fh:
        fh.write(canonical(records))
    print(", ".join(f"{len(recs)} {name}" for name, recs in records.items()), "written to", out)


def compare(old_file, new_file):
    with open(old_file) as fh:
        old = json.load(fh)
    with open(new_file) as fh:
        new = json.load(fh)
    differences = 0
    for name, section in SECTIONS.items():
        a, b = old.get(name, {}), new.get(name, {})
        changes = []
        if a.keys() != b.keys():
            changes.append(("DIFF", f"record sets differ: {sorted(a.keys() ^ b.keys())[:10]}"))
        for key in sorted(a.keys() & b.keys()):
            changes += [(kind, f"{key} {text}") for kind, text in section.diff(key, a[key], b[key])]
        for kind, text in changes:
            print(kind, name, text)
        failing = sum(kind == "DIFF" for kind, _ in changes)
        print(f"{name}: {len(a)} -> {len(b)} records; {len(changes) - failing} tolerated; {failing} differences")
        if section.note:
            print(f"{name}: {section.note(a)} -> {section.note(b)}")
        differences += failing
    return 1 if differences else 0


def check():
    with open(DIGESTS) as fh:
        stored = json.load(fh)
    running = {}
    for name, section in SECTIONS.items():
        for family in section.families:
            running.update(slice_digests(name, family))
    moved = sorted(k for k in stored["digests"].keys() | running.keys() if stored["digests"].get(k) != running.get(k))
    if not moved:
        print(f"{len(running)} slices match {os.path.relpath(DIGESTS)}")
        return 0
    print(f"stored by Python {stored['python']}, numpy {stored['numpy']}")
    print(f"running Python {platform.python_version()}, numpy {np.__version__}")
    for name in moved:
        print(f"moved {name}: {stored['digests'].get(name)} -> {running.get(name)}")
    return 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("dump", help="write every record to OUT").add_argument("out")
    pair = commands.add_parser("compare", help="print every difference between two dumps")
    pair.add_argument("old")
    pair.add_argument("new")
    commands.add_parser("check", help="recompute every slice digest against the stored ones")
    args = parser.parse_args(argv)
    if args.command == "dump":
        dump(args.out)
        return 0
    if args.command == "compare":
        return compare(args.old, args.new)
    return check()


if __name__ == "__main__":
    sys.exit(main())
