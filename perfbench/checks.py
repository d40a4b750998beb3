"""Output checks computed apart from the program.

Each check returns a list of problems (empty when the output is right).
The expected values come from the input polygon alone: its shoelace area,
its interior angles (computed here, not read from the program) and the
vertex classes a perimeter halving identifies.  The brute-force geodesic
oracle from the test suite is the one shared piece, used as it stands.
"""

import itertools
import math

from inputs import interior_angles, shoelace_area

TWO_PI = 2.0 * math.pi
DIST_TOL = 1e-9
AREA_TOL = 1e-8
ANGLE_TOL = 1e-7
CURVATURE_TOL = 1e-8
DISTINCT_GAP = 1e-6


def halving_classes(n, fold):
    """Vertex classes of the halving at `fold`: {i}, {i+n/2}, {i+k, i-k}."""
    half = n // 2
    classes = [{fold % n}, {(fold + half) % n}]
    classes += [{(fold + k) % n, (fold - k) % n} for k in range(1, half)]
    return classes


def zipper_pairs(n):
    """Class index pairs joined by a glued edge: fold, pairs 1..n/2-1, fold+n/2."""
    order = [0] + list(range(2, n // 2 + 1)) + [1]
    return list(zip(order, order[1:]))


def _heron(x, y, z):
    s = 0.5 * (x + y + z)
    return math.sqrt(max(0.0, s * (s - x) * (s - y) * (s - z)))


def _corner(x, y, opposite):
    """Angle between sides x and y of a triangle, by the law of cosines."""
    c = (x * x + y * y - opposite * opposite) / (2.0 * x * y)
    return math.acos(min(1.0, max(-1.0, c)))


def check_hexagon(loop, outcome):
    """One verify_polygon outcome on a fat independent hexagon."""
    problems = []
    if outcome.status != "pass":
        return [f"verdict {outcome.status!r}, expected 'pass'"]
    audits = outcome.audits
    if len(audits) != 3 or any(a.metric is None for a in audits):
        return ["expected three halvings with a tetrahedron metric each"]
    area = shoelace_area(loop)
    angles = interior_angles(loop)
    labels = "abcd"
    sorted_lists = []
    for audit in audits:
        d = {}
        for u, v in itertools.combinations(labels, 2):
            d[u + v] = d[v + u] = audit.metric.distance(u, v)
        faces = list(itertools.combinations(labels, 3))
        heron = sum(_heron(d[p + q], d[p + r], d[q + r]) for p, q, r in faces)
        if abs(heron - area) > AREA_TOL:
            problems.append(f"halving {audit.fold_index}: face areas {heron!r} != {area!r}")
        classes = halving_classes(6, audit.fold_index)
        for k, v in enumerate(labels):
            others = [o for o in labels if o != v]
            face_sum = sum(
                _corner(d[v + x], d[v + y], d[x + y]) for x, y in itertools.combinations(others, 2)
            )
            curvature = TWO_PI - sum(angles[i] for i in classes[k])
            if abs(face_sum - (TWO_PI - curvature)) > ANGLE_TOL:
                problems.append(f"halving {audit.fold_index}: angle sum at {v} is {face_sum!r}")
        for i, j in zipper_pairs(6):
            if abs(d[labels[i] + labels[j]] - 1.0) > DIST_TOL:
                problems.append(f"halving {audit.fold_index}: zipper {labels[i]}{labels[j]} != 1")
        sorted_lists.append(sorted(d[u + v] for u, v in itertools.combinations(labels, 2)))
    for x, y in itertools.combinations(range(3), 2):
        if max(abs(p - q) for p, q in zip(sorted_lists[x], sorted_lists[y])) <= DISTINCT_GAP:
            problems.append(f"halvings {x} and {y} give the same distance multiset")
    return problems


def check_ngon(zipfold, n, record, poly):
    """One sweep_one record on a sampled fat n-gon."""
    if record.status != "pass" or record.n != n or poly.n != n:
        return [f"record status {record.status!r} for n={record.n}, expected 'pass' for n={n}"]
    problems = []
    loop = [complex(x, y) for x, y in poly.vertices]
    angles = interior_angles(loop)
    if max(abs(a - b) for a, b in zip(angles, record.angles)) > DIST_TOL:
        problems.append("record angles differ from the polygon's angles")
    for fold in range(n // 2):
        classes = halving_classes(n, fold)
        gluing = zipfold.gluing.glue_halving(poly, fold)
        if sorted(map(sorted, classes)) != sorted(sorted(cp.vertices) for cp in gluing.cone_points):
            problems.append(f"halving {fold}: cone points differ from the n/2+1 vertex classes")
        total = sum(TWO_PI - sum(angles[i] for i in c) for c in classes)
        if abs(total - 2.0 * TWO_PI) > CURVATURE_TOL:
            problems.append(f"halving {fold}: curvatures sum to {total!r}")
    if not record.zipper_max_abs_error <= DIST_TOL:
        problems.append(f"zipper distances off 1 by {record.zipper_max_abs_error!r}")
    return problems


def check_screen(code, stdout, expected):
    """One `zipfold verify` run on a file built to fail `expected` lines."""
    problems = []
    if code != 1:
        problems.append(f"exit code {code}, expected 1")
    lines = {}
    for raw in stdout.splitlines():
        parts = raw.split()
        if len(parts) == 2:
            lines[parts[1]] = parts[0]
    failing = {name for name, status in lines.items() if status != "PASS"}
    hypotheses = {name for name in lines if name.startswith("hypothesis.")}
    if len(hypotheses) != 4 or failing != set(expected):
        problems.append(f"failing lines {sorted(failing)}, expected {sorted(expected)}")
    lemma = [name for name in lines if not name.startswith(("hypothesis.", "diagonals."))]
    if lemma:
        problems.append(f"lemma lines printed: {lemma}")
    return problems


# ---------------------------------------------------------------------------
# brute-force oracle cross-checks (run after the timed region)
# ---------------------------------------------------------------------------


def oracle_hexagon(zipfold, oracles, poly, outcome):
    """All six distances of each halving agree with the exhaustive oracle."""
    problems = []
    for audit in outcome.audits:
        gluing = zipfold.gluing.glue_halving(poly, audit.fold_index)
        brute = oracles.metric_by_brute_force(gluing)
        for pair, dist in brute.items():
            mine = audit.metric.distance(pair[0], pair[1])
            if dist is None or abs(dist - mine) > DIST_TOL:
                problems.append(f"halving {audit.fold_index} {pair}: oracle {dist!r}, engine {mine!r}")
    return problems


def oracle_ngon(zipfold, oracles, poly, fold):
    """Zipper distances 1 and no two cone points closer than 1, by the oracle."""
    gluing = zipfold.gluing.glue_halving(poly, fold)
    dev = oracles.BruteForceDeveloper(gluing)
    m = len(gluing.cone_points)
    zipper = {tuple(sorted(p)) for p in zipper_pairs(poly.n)}
    problems = []
    for i, j in itertools.combinations(range(m), 2):
        if (i, j) in zipper:
            d = dev.shortest(i, j, 1.0 + 1e-6)
            if d is None or abs(d - 1.0) > DIST_TOL:
                problems.append(f"halving {fold} zipper {i}-{j}: oracle {d!r}")
        else:
            d = dev.shortest(i, j, 1.0 - DIST_TOL)
            if d is not None:
                problems.append(f"halving {fold} cones {i}-{j} at {d!r} < 1")
    return problems
