"""Seeded input generators for the benchmark, written apart from zipfold.

Nothing here imports the package under test: polygons are closed, measured
and screened with this file's own arithmetic, so the benchmark can tell
what verdict each input was built to get without asking the program.

* `fat_hexagons(seed, count)` gives vertex lists of fat hexagons (every
  interior angle inside (pi/3 + MARGIN, pi - MARGIN)) whose angles are
  pairwise rationally independent with a wide margin.
* `screen_cases(seed, count)` gives hexagon files built to break exactly one
  hypothesis of the theorem: rationally dependent angles, an angle below
  pi/3, or an angle of pi.  Half are written in the "vertices" form and half
  in the "turns" form of the polygon file format.
"""

import cmath
import math

import numpy as np

TWO_PI = 2.0 * math.pi
MARGIN = 0.02  # radians kept clear of every hypothesis boundary
HEIGHT = 16  # the program's default height bound for the dependence screen
INDEPENDENT_MARGIN = 1e-7  # the program calls residuals below 1e-8 inconclusive

FAILS_INDEPENDENT = "hypothesis.independent"
FAILS_FAT = "hypothesis.fat"
FAILS_CONVEX = "hypothesis.convex"

# Lines of the `verify` scorecard each family must fail, and no others.
# An angle of exactly pi is not strictly convex, not below pi (fatness), and
# is itself a rational multiple of pi, so that one construction necessarily
# fails three lines.
SCREEN_FAMILIES = {
    "rational": (FAILS_INDEPENDENT,),
    "thin": (FAILS_FAT,),
    "straight": (FAILS_CONVEX, FAILS_FAT, FAILS_INDEPENDENT),
}


def _rational_multiples_of_pi():
    ratios = {p / q for q in range(1, HEIGHT + 1) for p in range(-HEIGHT, HEIGHT + 1)}
    return np.sort(np.array(sorted(ratios)) * math.pi), np.array(sorted(ratios))


_A_PI, _B = _rational_multiples_of_pi()


def dependence_residual(x, y):
    """Smallest |y - a*pi - b*x| over rationals a, b of height <= HEIGHT."""
    targets = y - _B * x
    idx = np.clip(np.searchsorted(_A_PI, targets), 1, len(_A_PI) - 1)
    near = np.minimum(np.abs(targets - _A_PI[idx - 1]), np.abs(targets - _A_PI[idx]))
    return float(near.min())


def pairwise_independent(angles):
    return all(
        dependence_residual(angles[i], angles[j]) > INDEPENDENT_MARGIN
        and dependence_residual(angles[j], angles[i]) > INDEPENDENT_MARGIN
        for i in range(len(angles))
        for j in range(i + 1, len(angles))
    )


def closures(directions):
    """Both two-link closures of unit edges laid at the given directions.

    Returns a list of complex vertex loops (possibly empty when the gap
    chord is too long or too short for two unit edges).
    """
    pts = [0j]
    for th in directions:
        pts.append(pts[-1] + cmath.rect(1.0, th))
    gap = -pts[-1]
    g = abs(gap)
    if not 1e-6 < g < 2.0 - 1e-9:
        return []
    mid = pts[-1] + gap / 2.0
    normal = 1j * gap / g
    h = math.sqrt(1.0 - g * g / 4.0)
    return [pts + [mid + sign * h * normal] for sign in (1.0, -1.0)]


def turns(loop):
    """Signed exterior turn at every vertex of a closed loop."""
    n = len(loop)
    return [
        cmath.phase((loop[(i + 1) % n] - loop[i]) / (loop[i] - loop[i - 1]))
        for i in range(n)
    ]


def interior_angles(loop):
    return [math.pi - t for t in turns(loop)]


def shoelace_area(loop):
    n = len(loop)
    return 0.5 * sum(
        loop[i].real * loop[(i + 1) % n].imag - loop[(i + 1) % n].real * loop[i].imag
        for i in range(n)
    )


def _unit_edges(loop):
    n = len(loop)
    return all(abs(abs(loop[(i + 1) % n] - loop[i]) - 1.0) < 1e-12 for i in range(n))


def _only_convex_closure(directions, straight=None):
    """The one closure that is a counterclockwise convex hexagon, or None.

    The other branch must be clearly non-convex, so that a "turns" file
    decodes to this same polygon whichever branch the reader tries first.
    `straight` names a vertex allowed a zero turn (an angle of pi).
    """
    good = []
    for loop in closures(directions):
        ts = turns(loop)
        ok = _unit_edges(loop) and all(
            (abs(t) < 1e-12) if k == straight else (MARGIN < t < math.pi - MARGIN)
            for k, t in enumerate(ts)
        )
        if ok:
            good.append(loop)
        elif min(ts) > -1e-6 and shoelace_area(loop) > 0:
            return None  # nearly convex second branch: ambiguous file
    return good[0] if len(good) == 1 else None


def _fat(angles, skip=()):
    lo, hi = math.pi / 3.0 + MARGIN, math.pi - MARGIN
    return all(lo < a < hi for k, a in enumerate(angles) if k not in skip)


def _hexagon_directions(rng, turn_lo, turn_hi):
    d0 = rng.uniform(0.0, TWO_PI)
    t = rng.uniform(turn_lo, turn_hi, size=3)
    return [d0, d0 + t[0], d0 + t[0] + t[1], d0 + t[0] + t[1] + t[2]]


def fat_hexagons(seed, count):
    """`count` fat hexagons with pairwise independent angles, as vertex lists."""
    rng = np.random.default_rng([seed, 6])
    out = []
    while len(out) < count:
        dirs = _hexagon_directions(rng, MARGIN, 2.0 * math.pi / 3.0 - MARGIN)
        loop = _only_convex_closure(dirs)
        if loop is None:
            continue
        angles = interior_angles(loop)
        if _fat(angles) and pairwise_independent(angles):
            shift = complex(*rng.uniform(-3.0, 3.0, size=2))
            out.append([((z + shift).real, (z + shift).imag) for z in loop])
    return out


# Turn triples, as fractions of pi, of centrally symmetric hexagons whose
# angles are all rational multiples of pi.  How long the dependence screen
# takes depends on how many witnesses each pair has, so these shapes are
# fixed and only their placement comes from the seed.
RATIONAL_TURNS = ((4, 13, 3, 8), (1, 9, 5, 11), (3, 16, 1, 5), (2, 11, 3, 16), (1, 12, 5, 11))


def _rational_directions(rng, shape):
    """Centrally symmetric hexagon: opposite angles are equal, so dependent.

    `shape` None draws two turns at random (three dependent pairs); an index
    into RATIONAL_TURNS makes every angle a rational multiple of pi (all
    fifteen pairs dependent).
    """
    if shape is None:
        while True:
            t1, t2 = rng.uniform(MARGIN, 2.0 * math.pi / 3.0 - MARGIN, size=2)
            if MARGIN < math.pi - t1 - t2 < 2.0 * math.pi / 3.0 - MARGIN:
                break
    else:
        p1, q1, p2, q2 = RATIONAL_TURNS[shape % len(RATIONAL_TURNS)]
        t1, t2 = math.pi * p1 / q1, math.pi * p2 / q2
    d0 = rng.uniform(0.0, TWO_PI)
    return [d0, d0 + t1, d0 + t1 + t2, d0 + math.pi]


def _screen_polygon(family, rng, shape):
    while True:
        if family == "rational":
            dirs = _rational_directions(rng, shape)
            loop = _only_convex_closure(dirs)
            if loop is not None and _fat(interior_angles(loop)):
                return dirs, loop
        elif family == "thin":
            dirs = _hexagon_directions(rng, MARGIN, 2.0 * math.pi / 3.0 - MARGIN)
            sharp = rng.uniform(2.0 * math.pi / 3.0 + MARGIN, 2.0 * math.pi / 3.0 + 0.3)
            dirs[2:] = [d + sharp - (dirs[2] - dirs[1]) for d in dirs[2:]]
            loop = _only_convex_closure(dirs)
            if loop is None:
                continue
            angles = interior_angles(loop)
            if angles[2] < math.pi / 3.0 - MARGIN and _fat(angles, skip=(2,)) and (
                pairwise_independent(angles)
            ):
                return dirs, loop
        else:  # straight: edges 1 and 2 share a direction, so vertex 2 is flat
            dirs = _hexagon_directions(rng, MARGIN, 2.0 * math.pi / 3.0 - MARGIN)
            dirs = [dirs[0], dirs[1], dirs[1], dirs[1] + (dirs[3] - dirs[2])]
            loop = _only_convex_closure(dirs, straight=2)
            if loop is None:
                continue
            angles = interior_angles(loop)
            rest = [a for k, a in enumerate(angles) if k != 2]
            if _fat(angles, skip=(2,)) and pairwise_independent(rest):
                return dirs, loop


def screen_cases(seed, count):
    """`count` screen files as (file_dict, family, expected_failing_lines).

    Families rotate rational, thin, straight.  Within each family the file
    form alternates between "vertices" and "turns", and rational cases
    alternate in pairs between three and fifteen dependent pairs, so every
    seed gets the same mix.
    """
    rng = np.random.default_rng([seed, 7])
    families = list(SCREEN_FAMILIES)
    cases = []
    for k in range(count):
        family = families[k % len(families)]
        variant = k // len(families)
        shape = variant // 4 if variant % 4 >= 2 else None
        dirs, loop = _screen_polygon(family, rng, shape)
        if variant % 2:
            data = {"turns": dirs}
        else:
            data = {"vertices": [[z.real, z.imag] for z in loop]}
        cases.append((data, family, SCREEN_FAMILIES[family]))
    return cases
