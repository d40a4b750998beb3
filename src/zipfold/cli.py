"""Command line front end.

Subcommands: validate, fold, verify, sample, sweep.  Exit codes: 0 all
checks pass, 1 hypothesis/verification failure, 2 input error, 3
inconclusive (budget-exhausted searches).  Reports never embed timestamps;
run metadata (timings) goes to a sidecar JSON so equal inputs give
byte-identical artifacts.
"""

import argparse
import csv
import functools
import json
import os
import sys
import time

from . import gluing as gl
from .embed import write_obj
from .errors import ConfigError, MalformedPolygonError, SamplingBudgetError, ZipfoldError
from .pipeline import (
    FAIL,
    INCONC,
    PASS,
    PipelineConfig,
    SWEEP_COLUMNS,
    audit_halvings,
    combine,
    congruent_pairs,
    summarize_records,
    sweep_one,
    verify_polygon,
)
from .polygon import Tolerances, check_independence, load_polygon, save_polygon, validate
from .svgout import svg_net, svg_polygon

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3
EXIT_CODES = {PASS: EXIT_OK, FAIL: EXIT_FAIL, INCONC: EXIT_INCONCLUSIVE}

# thin samples are controls, not polygons outside the fat range
_THIN_HELP = (
    "controls: accept any strictly convex polygon, fat or not (most samples are fat); "
    "the sampler skips the independence screen and the audit runs even when hypotheses fail"
)


@functools.cache
def _build_parser():
    """The argument parser, built on the first main() call and kept for the
    process: building it costs more than a screen-only verify."""
    parser = argparse.ArgumentParser(
        prog="zipfold",
        description=(
            "Fold equilateral convex polygons by perimeter halving, realize the "
            "hexagon cases as tetrahedra, and audit the zipper unfolding round trip."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--tol", type=float, default=None, help="override the predicate tolerance (default 1e-9)")
        p.add_argument("--independence-bound", type=int, default=16, help="height bound for the rational dependence screen")
        p.add_argument("--dev-cap", type=int, default=100000, help="max developments per geodesic query")
        p.add_argument("--out-dir", default=None, help="output directory (default $ZIPFOLD_OUT_DIR or .)")

    p = sub.add_parser("validate", help="check the folding hypotheses on a polygon file")
    p.add_argument("--input", required=True)
    add_common(p)

    p = sub.add_parser("fold", help="fold a polygon and emit gluing reports / OBJ files")
    p.add_argument("--input", required=True)
    p.add_argument("--fold-index", default="all", help='halving index or "all"')
    p.add_argument("--emit-obj", action="store_true")
    p.add_argument("--emit-svg", action="store_true")
    add_common(p)

    p = sub.add_parser("verify", help="run the full folding audit on a polygon file")
    p.add_argument("--input", required=True)
    p.add_argument("--force", action="store_true", help="run the audit even when hypotheses fail")
    p.add_argument("--emit-svg", action="store_true")
    add_common(p)

    p = sub.add_parser("sample", help="sample polygons and run the pipeline per seed")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--thin", action="store_true", help=_THIN_HELP)
    p.add_argument("--save-polygons", action="store_true")
    add_common(p)

    p = sub.add_parser("sweep", help="seed-range sweep writing a CSV of records")
    p.add_argument("--seed", type=int, default=0, help="first seed")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--thin", action="store_true", help=_THIN_HELP)
    add_common(p)

    return parser


def _config(args):
    tol = Tolerances() if args.tol is None else Tolerances(
        tol_len=args.tol, tol_ang=args.tol, tol_convex=args.tol
    )
    return PipelineConfig(
        tolerances=tol, independence_bound=args.independence_bound, dev_cap=args.dev_cap
    )


def _out_path(args, name):
    """Where output file `name` goes; the directory is made on first write."""
    out = args.out_dir or os.environ.get("ZIPFOLD_OUT_DIR") or "."
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, name)


def cmd_validate(args):
    poly = load_polygon(args.input)
    cfg = _config(args)
    report = validate(poly, cfg.tolerances)
    ind = check_independence(report.angles, cfg.independence_bound)
    out = report.to_dict()
    out["independence"] = {
        "bound": ind.bound,
        "dependent_pairs": [list(p) for p in ind.dependent_pairs],
        "inconclusive_pairs": [list(p) for p in ind.inconclusive_pairs],
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    for i, j in ind.dependent_pairs:
        w = ind.pairs[(i, j)]
        x, y = w.direction
        print(
            f"warning: angles {x} and {y} are rationally dependent "
            f"(alpha_{y} = {w.witness[0]}*pi + {w.witness[1]}*alpha_{x})",
            file=sys.stderr,
        )
    return EXIT_OK if report.theorem_ok else EXIT_FAIL


def cmd_fold(args):
    poly = load_polygon(args.input)
    cfg = _config(args)
    n = poly.n
    if args.fold_index == "all":
        indices = list(range(n // 2))
    else:
        try:
            indices = [int(args.fold_index)]
        except ValueError as exc:
            raise MalformedPolygonError(f"bad fold index {args.fold_index!r}") from exc
        if not (0 <= indices[0] < n // 2):
            print(f"error: fold index must be in 0..{n // 2 - 1}", file=sys.stderr)
            return EXIT_INPUT

    rep = validate(poly, cfg.tolerances)
    report = {
        "n": n,
        "halvings": [],
        "relation_diagnostics": list(gl.curvature_collision_relations(rep.angles)) if n == 6 else [],
    }
    failures = 0
    audits = audit_halvings(poly, indices, cfg, fat=rep.fat_ok)
    for audit in audits:
        i = audit.fold_index
        entry = json.loads(gl.gluing_report_json(audit.gluing, audit.curvature))
        if audit.tetra is not None:
            entry["metric"] = audit.metric.as_dict()
            entry["flat"] = audit.tetra.flat
            entry["volume2"] = audit.tetra.volume2
            if args.emit_obj:
                path = _out_path(args, f"tetra_fold{i}.obj")
                write_obj(audit.tetra, path)
                entry["obj"] = path
            if args.emit_svg:
                path = _out_path(args, f"net_fold{i}.svg")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(svg_net(audit.net))
                entry["svg"] = path
        elif audit.error is not None:
            entry["error"] = audit.error
            failures += 1
        report["halvings"].append(entry)
    tets = {a.fold_index: a.tetra for a in audits if a.tetra is not None}
    if len(tets) > 1:
        report["congruent_pairs"] = [
            list(pair) for pair in congruent_pairs(tets, cfg.tolerances.tol_congruence)
        ]
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_FAIL if failures else EXIT_OK


def cmd_verify(args):
    poly = load_polygon(args.input)
    cfg = _config(args)
    outcome = verify_polygon(poly, cfg, force=args.force)
    for name, status in outcome.scorecard():
        print(f"{status.upper():<13} {name}")
    if outcome.forced:
        print("note: hypotheses fail; lemma checks ran under --force", file=sys.stderr)
    if not outcome.hypotheses_ok and not args.force:
        print("hypothesis failure: lemma checks skipped (use --force to run them)", file=sys.stderr)
    if args.emit_svg and poly.n == 6:
        with open(_out_path(args, "source_polygon.svg"), "w", encoding="utf-8") as fh:
            fh.write(svg_polygon(poly))
    return EXIT_CODES[outcome.status]


def _run_seeds(args, save_polygons=False):
    cfg = _config(args)
    if args.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {args.seed}")
    if args.count < 0:
        raise ConfigError(f"count must be >= 0, got {args.count}")
    records = []
    statuses = []
    t0 = time.perf_counter()
    for seed in range(args.seed, args.seed + args.count):
        try:
            record, poly = sweep_one(seed, args.n, cfg, thin=args.thin)
        except SamplingBudgetError as exc:
            print(f"seed {seed}: {exc}", file=sys.stderr)
            statuses.append(INCONC)
            continue
        records.append(record)
        statuses.append(record.status)
        if save_polygons:
            save_polygon(poly, _out_path(args, f"polygon_seed{seed}.json"))
    wall = time.perf_counter() - t0

    csv_path = _out_path(args, "sweep.csv")
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        for r in records:
            writer.writerow(r.to_row())
    meta = {
        "wall_seconds": wall,
        "per_record_seconds": [r.wall_seconds for r in records],
        "summary": summarize_records(records),
    }
    with open(_out_path(args, "sweep_meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)
    print(json.dumps(meta["summary"], indent=2, sort_keys=True))
    print(f"wrote {csv_path} ({len(records)} records)")
    return EXIT_CODES[combine(statuses)]


def cmd_sample(args):
    return _run_seeds(args, save_polygons=args.save_polygons)


def cmd_sweep(args):
    return _run_seeds(args)


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "validate": cmd_validate,
        "fold": cmd_fold,
        "verify": cmd_verify,
        "sample": cmd_sample,
        "sweep": cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, MalformedPolygonError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ZipfoldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
