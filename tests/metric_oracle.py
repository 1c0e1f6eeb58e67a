"""Reference greedy run: the candidate-radius and ball scan over closures.

``reference_greedy_dense_sequence`` tries every candidate radius against
every open ball at every step and takes closures in the partition topology,
as the paper's statement reads.  ``metric.greedy_dense_sequence`` keeps one
distance row per pick instead, and must return the same ``GreedyRun``.
"""

from fractions import Fraction

from openpoint.metric import GreedyRun, PseudometricSpace, _mask, topology_from_pseudometric


def _ball(m: PseudometricSpace, center: int, radius: Fraction) -> int:
    out = 0
    for j in range(m.n):
        if m.dist[center][j] < radius:
            out |= 1 << j
    return out


def reference_greedy_dense_sequence(m: PseudometricSpace, start: int = 0) -> GreedyRun:
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
