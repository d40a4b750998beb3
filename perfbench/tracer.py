"""Per-layer spans recorded from outside the package.

`Tracer.install(zipfold)` replaces each traced function at the place its
caller looks it up (for example `zipfold.pipeline.disk_empty`, which the
pipeline calls by that name, and the `DevelopmentEngine.shortest_geodesic`
method) with a wrapper that records a span, and `restore()` puts the
originals back.  Spans are kept in memory as tuples; `summary()` turns them
into per-operation self times and counts once the run is over.
"""

import collections
import time

# (span name, module attribute path, attribute) for every binding the three
# workloads reach.  Names bound in several modules are wrapped in each one.
SPANS = (
    ("polygon.sample_fat_ngon", "pipeline", "sample_fat_ngon"),
    ("polygon.solve_closure", "polygon", "solve_closure"),
    ("polygon.validate", "pipeline", "validate"),
    ("polygon.validate", "polygon", "validate"),
    ("polygon.validate", "geodesic", "validate"),
    ("polygon.check_independence", "pipeline", "check_independence"),
    ("polygon.check_independence", "polygon", "check_independence"),
    ("polygon.load_polygon", "cli", "load_polygon"),
    ("gluing.glue_halving", "gluing", "glue_halving"),
    ("gluing.cone_angles", "gluing", "cone_angles"),
    ("gluing.distinct_check", "gluing", "distinct_check"),
    ("geodesic.shortest_geodesic", "geodesic.DevelopmentEngine", "shortest_geodesic"),
    ("geodesic.enumerate_geodesics", "geodesic.DevelopmentEngine", "enumerate_geodesics"),
    ("geodesic.disk_empty", "pipeline", "disk_empty"),
    ("geodesic.tetra_metric", "pipeline", "tetra_metric"),
    ("geodesic.overhang_audit", "pipeline", "overhang_audit"),
    ("embed.embed", "pipeline", "embed"),
    ("embed.vertex_angle_sums", "pipeline", "vertex_angle_sums"),
    ("embed.congruent_tetrahedra", "pipeline", "congruent_tetrahedra"),
    ("net.cut_and_unfold", "net", "cut_and_unfold"),
    ("net.is_simple", "net", "is_simple"),
    ("net.congruent_to_polygon", "net", "congruent_to_polygon"),
    ("pipeline.verify_polygon", "pipeline", "verify_polygon"),
    ("pipeline.verify_polygon", "cli", "verify_polygon"),
    ("pipeline.audit_halving", "pipeline", "audit_halving"),
    ("pipeline.sweep_one", "pipeline", "sweep_one"),
    ("cli.main", "cli", "main"),
)

# (metric name, unit, better): self time "<span>.ms" in ms per operation,
# "<span>.calls" in calls per operation, plus the counters below.
PER_LAYER = (
    ("polygon.sample_fat_ngon.ms", "ms", "lower"),
    ("polygon.sample_fat_ngon.calls", "calls/op", "lower"),
    ("polygon.solve_closure.calls", "calls/op", "lower"),
    ("polygon.validate.ms", "ms", "lower"),
    ("polygon.validate.calls", "calls/op", "lower"),
    ("polygon.check_independence.ms", "ms", "lower"),
    ("polygon.check_independence.calls", "calls/op", "lower"),
    ("polygon.load_polygon.ms", "ms", "lower"),
    ("gluing.glue_halving.ms", "ms", "lower"),
    ("gluing.glue_halving.calls", "calls/op", "lower"),
    ("gluing.cone_angles.ms", "ms", "lower"),
    ("gluing.cone_angles.calls", "calls/op", "lower"),
    ("gluing.distinct_check.ms", "ms", "lower"),
    ("geodesic.engines_built", "engines/op", "lower"),
    ("geodesic.shortest_geodesic.ms", "ms", "lower"),
    ("geodesic.shortest_geodesic.calls", "calls/op", "lower"),
    ("geodesic.shortest_geodesic.developments", "devs/op", "lower"),
    ("geodesic.enumerate_geodesics.ms", "ms", "lower"),
    ("geodesic.enumerate_geodesics.calls", "calls/op", "lower"),
    ("geodesic.enumerate_geodesics.developments", "devs/op", "lower"),
    ("geodesic.disk_empty.ms", "ms", "lower"),
    ("geodesic.tetra_metric.ms", "ms", "lower"),
    ("geodesic.overhang_audit.ms", "ms", "lower"),
    ("geodesic.distinct_pairs_per_query", "pairs/query", "higher"),
    ("embed.embed.ms", "ms", "lower"),
    ("embed.embed.calls", "calls/op", "lower"),
    ("embed.vertex_angle_sums.ms", "ms", "lower"),
    ("embed.congruent_tetrahedra.ms", "ms", "lower"),
    ("net.cut_and_unfold.ms", "ms", "lower"),
    ("net.is_simple.ms", "ms", "lower"),
    ("net.congruent_to_polygon.ms", "ms", "lower"),
    ("pipeline.verify_polygon.ms", "ms", "lower"),
    ("pipeline.audit_halving.ms", "ms", "lower"),
    ("pipeline.sweep_one.ms", "ms", "lower"),
    ("cli.main.ms", "ms", "lower"),
)

_ENGINE = "geodesic.DevelopmentEngine"


def _resolve(zipfold, path):
    obj = zipfold
    for part in path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


class Tracer:
    """Span recorder; only records between `begin_op()` and `end_op()`."""

    def __init__(self):
        self.spans = []  # (op, name, start, end, parent span index)
        self.stack = []
        self.op = -1
        self.active = False
        self.ops = 0
        self.engines = 0
        self.developments = collections.Counter()
        self.queries = 0
        self.distinct_pairs = 0
        self._pairs = set()
        self._saved = []

    # -- operation boundaries ---------------------------------------------

    def begin_op(self):
        self.op += 1
        self.ops += 1
        self._pairs = set()
        self.active = True

    def end_op(self):
        self.active = False
        self.distinct_pairs += len(self._pairs)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, orig, after=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.stack.append(idx)
            start = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.spans[idx] = (tracer.op, name, start, end, parent)
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__name__ = getattr(orig, "__name__", name)
        traced.__doc__ = getattr(orig, "__doc__", None)
        return traced

    def _count_engine(self, orig):
        tracer = self

        def init(engine, *args, **kwargs):
            orig(engine, *args, **kwargs)
            if tracer.active:
                tracer.engines += 1

        return init

    def _after_shortest(self, args, kwargs, result):
        src = args[1] if len(args) > 1 else kwargs["src_idx"]
        dst = args[2] if len(args) > 2 else kwargs["dst_idx"]
        g = args[0].gluing
        self._pairs.add((g.polygon.vertices, g.fold_index, min(src, dst), max(src, dst)))
        self.queries += 1
        self.developments["geodesic.shortest_geodesic"] += result.developments

    def _after_enumerate(self, args, kwargs, result):
        self.developments["geodesic.enumerate_geodesics"] += result.developments

    def install(self, zipfold):
        after = {
            "geodesic.shortest_geodesic": self._after_shortest,
            "geodesic.enumerate_geodesics": self._after_enumerate,
        }
        for name, path, attr in SPANS:
            owner = _resolve(zipfold, path)
            orig = None if owner is None else getattr(owner, attr, None)
            if orig is None:
                continue  # a later version may no longer have this binding
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(name, orig, after.get(name)))
        engine_cls = _resolve(zipfold, _ENGINE)
        if engine_cls is not None:
            self._saved.append((engine_cls, "__init__", engine_cls.__init__))
            engine_cls.__init__ = self._count_engine(engine_cls.__init__)

    def restore(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved = []

    # -- results ----------------------------------------------------------

    def summary(self):
        """Per-layer metrics per operation, keyed as in PER_LAYER."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = collections.Counter()
        calls = collections.Counter()
        for k, (_, name, start, end, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[k]
            calls[name] += 1
        ops = max(self.ops, 1)
        out = {}
        for metric, _, _ in PER_LAYER:
            span, _, kind = metric.rpartition(".")
            if kind == "ms":
                out[metric] = 1000.0 * self_s[span] / ops
            elif kind == "calls":
                out[metric] = calls[span] / ops
            elif kind == "developments":
                out[metric] = self.developments[span] / ops
        out["geodesic.engines_built"] = self.engines / ops
        out["geodesic.distinct_pairs_per_query"] = (
            self.distinct_pairs / self.queries if self.queries else 0.0
        )
        return out

    def write(self, path):
        """Dump every span as one tab-separated line (op, name, start, end, parent)."""
        with open(path, "w", encoding="utf-8") as fh:
            for op, name, start, end, parent in self.spans:
                fh.write(f"{op}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
