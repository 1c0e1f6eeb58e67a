"""Greedy dense sequences on finite pseudometric spaces.

Distances are exact rationals so radius comparisons and tie-breaks are
deterministic.  A finite pseudometric induces the partition topology of its
zero-distance classes; the greedy picker lands in a fresh class every step,
which is why its run length equals the class count.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from typing import NamedTuple

from .game import solved_gd
from .invariants import delta, density, pi_weight, weight
from .space import (MAX_POINTS, FiniteSpace, TooLarge, TopologyError, closure, from_preorder,
                    is_str_list)


class InvalidMetric(TopologyError):
    pass


class PseudometricSpace(NamedTuple):
    labels: tuple[str, ...]
    dist: tuple[tuple[Fraction, ...], ...]

    @property
    def n(self) -> int:
        return len(self.labels)


def _check_square(n: int, rows) -> None:
    """Refuse ``rows`` unless it is n rows of n entries, before any entry is read."""
    if len(rows) != n or any(len(r) != n for r in rows):
        raise InvalidMetric(f"distance matrix must be {n}x{n}")


def pseudometric(labels, rows) -> PseudometricSpace:
    """Validate a distance matrix, a sequence of row sequences: n x n, zero diagonal, symmetry, triangle."""
    labels = tuple(labels)
    n = len(labels)
    _check_square(n, rows)
    dist = tuple(tuple(Fraction(v) for v in row) for row in rows)
    for i in range(n):
        if dist[i][i] != 0:
            raise InvalidMetric(f"nonzero self-distance at point {i}")
        for j in range(n):
            if dist[i][j] < 0:
                raise InvalidMetric(f"negative distance at ({i},{j})")
            if dist[i][j] != dist[j][i]:
                raise InvalidMetric(f"asymmetry at ({i},{j})")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if dist[i][k] > dist[i][j] + dist[j][k]:
                    raise InvalidMetric(f"triangle inequality fails at ({i},{j},{k})")
    return PseudometricSpace(labels=labels, dist=dist)


def zero_classes(m: PseudometricSpace) -> list[int]:
    """Zero-distance equivalence classes, as point masks in index order."""
    seen = 0
    out = []
    for i in range(m.n):
        if seen >> i & 1:
            continue
        cls = 0
        for j in range(m.n):
            if m.dist[i][j] == 0:
                cls |= 1 << j
        out.append(cls)
        seen |= cls
    return out


def topology_from_pseudometric(m: PseudometricSpace) -> FiniteSpace:
    """The partition topology whose opens are unions of zero-distance classes.

    N(x) is the class of x.  Metrics have at most ``MAX_POINTS`` points, as spaces read from files.
    """
    if m.n > MAX_POINTS:
        raise TooLarge(f"{m.n} points exceeds the {MAX_POINTS}-point cap")
    rows = [sum(1 << y for y, d in enumerate(row) if d == 0) for row in m.dist]
    return from_preorder(rows, "pseudometric", m.labels)


def _ball(m: PseudometricSpace, center: int, radius: Fraction) -> int:
    out = 0
    for j in range(m.n):
        if m.dist[center][j] < radius:
            out |= 1 << j
    return out


class GreedyRun(NamedTuple):
    order: tuple[int, ...]
    radii: tuple[Fraction, ...]


def greedy_dense_sequence(m: PseudometricSpace, start: int = 0) -> GreedyRun:
    """Recursively pick points whose balls avoid everything picked so far.

    The step radius is the largest candidate r (a pairwise distance, or one
    past the diameter) for which some open ball of radius r misses the
    closure of the picks; the pick itself only needs half that radius, and
    ties go to the lowest point index.  Stops when the picks are dense in
    the induced partition topology.
    """
    if not 0 <= start < m.n:
        raise ValueError(f"start index {start} out of range")
    space = topology_from_pseudometric(m)
    ceiling = max((d for row in m.dist for d in row), default=Fraction(0)) + 1
    candidates = sorted(
        {d for row in m.dist for d in row if d > 0} | {ceiling},
        reverse=True,
    )
    order = [start]
    radii: list[Fraction] = []
    while True:
        covered = space.closure_of(_mask(order))
        if covered == space.full:
            break
        complement = space.full ^ covered
        step_radius = None
        for r in candidates:
            if any(_ball(m, x, r) & covered == 0 for x in range(m.n)):
                step_radius = r
                break
        assert step_radius is not None, "the smallest positive radius always fits"
        half = step_radius / 2
        pick = next(
            x for x in range(m.n)
            if complement >> x & 1 and _ball(m, x, half) & covered == 0
        )
        order.append(pick)
        radii.append(step_radius)
    return GreedyRun(order=tuple(order), radii=tuple(radii))


def _mask(points) -> int:
    out = 0
    for p in points:
        out |= 1 << p
    return out


def greedy_run_violations(m: PseudometricSpace) -> list[str]:
    """Check every promised property of the greedy run from point 0; empty means clean."""
    run = greedy_dense_sequence(m)
    out = []
    for a, b in zip(run.radii, run.radii[1:]):
        if b > a:
            out.append(f"radii increase: {a} -> {b}")
    for step, beta in enumerate(range(1, len(run.order))):
        r_half = run.radii[step] / 2
        for alpha in range(beta):
            if m.dist[run.order[beta]][run.order[alpha]] < r_half:
                out.append(f"separation fails at picks {alpha},{beta}")
    space = topology_from_pseudometric(m)
    if closure(space, _mask(run.order)) != space.full:
        out.append("picks are not dense")
    if len(run.order) != len(zero_classes(m)):
        out.append("run length differs from the class count")
    rep = (density(space), delta(space), solved_gd(space),
           pi_weight(space), weight(space))
    if len(set(rep)) != 1:
        out.append(f"partition topology fails d=delta=gd=pi=w: {rep}")
    return out


def random_pseudometrics(count: int, max_points: int, seed: int):
    """Deterministic stream of valid random pseudometric spaces.

    Alternates two generators: points at rational positions on a line
    (collisions give zero-distance classes) and min-plus closures of random
    symmetric matrices.
    """
    rng = random.Random(seed)
    for idx in range(count):
        n = rng.randint(1, max_points)
        labels = [f"m{i}" for i in range(n)]
        if idx % 2 == 0:
            k = rng.randint(1, n)
            positions = [Fraction(rng.randrange(0, 40), rng.choice([1, 2, 4, 5])) for _ in range(k)]
            assign = [rng.randrange(k) for _ in range(n)]
            rows = [
                [abs(positions[assign[i]] - positions[assign[j]]) for j in range(n)]
                for i in range(n)
            ]
        else:
            rows = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    val = Fraction(rng.randrange(0, 12), rng.choice([1, 2, 3]))
                    rows[i][j] = rows[j][i] = val
            for k in range(n):  # min-plus closure enforces the triangle axiom
                for i in range(n):
                    for j in range(n):
                        via = rows[i][k] + rows[k][j]
                        if via < rows[i][j]:
                            rows[i][j] = via
        yield pseudometric(labels, rows)


# ---------------------------------------------------------------------------
# Metric file format: {"points": [str], "dist": [["p/q" | "0.25" | number]]}
# ---------------------------------------------------------------------------


def _parse_distance(v) -> Fraction:
    """A finite exact distance from a JSON number or a fraction string.

    ``Fraction`` builds 10**exponent exactly, so an exponent of more than
    three digits is refused: it would stall the parse or the output.
    """
    if isinstance(v, bool) or not isinstance(v, (int, float, str)):
        raise InvalidMetric(f'field "dist" holds a bad distance {v!r}')
    if isinstance(v, str) and len(v.lower().partition("e")[2].lstrip("+-").lstrip("0")) > 3:
        raise InvalidMetric(f'field "dist" holds a distance with an over-long exponent {v!r}')
    try:
        # NaN and the infinities fail here, as does a zero denominator
        return Fraction(str(v) if isinstance(v, float) else v)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidMetric(f'field "dist" holds a bad distance {v!r}') from exc


def metric_from_json(obj: dict) -> PseudometricSpace:
    if not isinstance(obj, dict):
        raise InvalidMetric("a metric file must hold a JSON object")
    try:
        points = obj["points"]
        dist = obj["dist"]
    except KeyError as exc:
        raise InvalidMetric(f"metric object is missing field {exc}") from exc
    if not is_str_list(points) or not points:
        raise InvalidMetric('field "points" must be a non-empty list of strings')
    if len(points) > MAX_POINTS:  # before the quadratic parse and the cubic triangle check
        raise TooLarge(f"{len(points)} points exceeds the {MAX_POINTS}-point cap")
    if not isinstance(dist, list) or not all(isinstance(row, list) for row in dist):
        raise InvalidMetric('field "dist" must be a list of lists')
    _check_square(len(points), dist)  # before a long row's entries are parsed
    return pseudometric(points, [[_parse_distance(v) for v in row] for row in dist])


def metric_to_json(m: PseudometricSpace) -> dict:
    return {
        "points": list(m.labels),
        "dist": [[str(v) for v in row] for row in m.dist],
    }


def load_metric(path) -> PseudometricSpace:
    with open(path, "r", encoding="utf-8") as fh:
        return metric_from_json(json.load(fh))
