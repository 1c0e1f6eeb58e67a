"""Reference invariant routes: the plain scans the library routes replaced.

``pi_weight_scan`` and ``weight_scan`` try every family of k non-empty
opens, k = 1, 2, ..., where ``invariants`` runs a least-cover search.
``delta_by_subspaces`` builds every dense subspace and brute-forces its
density, where ``invariants.delta_oracle`` reads ``closures`` alone.
``subspace_trace`` traces the whole open lattice on the subset and
validates the traces, where ``space.subspace`` restricts the rows.
``tightness_scan`` searches the least Z once per pair (x, Y), where
``invariants.tightness`` sweeps the subsets of each Y once.  They cost
more, most of them exponentially more, so they are kept for the tests only.
"""

from itertools import combinations

from openpoint.invariants import density_brute
from openpoint.space import EmptySubspace, _compress, bits, closures, space_from_masks


def least_family(members, is_cover) -> int:
    """Least k such that some k of ``members`` pass ``is_cover``, by trying every family."""
    for k in range(1, len(members) + 1):
        for family in combinations(members, k):
            if is_cover(family):
                return k
    raise AssertionError("no family of the members covers")


def pi_weight_scan(space) -> int:
    """Least k such that some k non-empty opens have a member inside every non-empty open."""
    opens = [u for u in space.opens if u]
    return least_family(
        opens, lambda family: all(any(u & b == b for b in family) for u in opens))


def weight_scan(space) -> int:
    """Least k such that some k opens give every open as the union of the members inside it."""
    opens = [u for u in space.opens if u]

    def is_base(family):
        for u in opens:
            cover = 0
            for b in family:
                if u & b == b:
                    cover |= b
            if cover != u:
                return False
        return True

    return least_family(opens, is_base)


def subspace_trace(space, subset: int, name=None):
    """The trace topology on ``subset``: every open met with it, re-indexed and validated."""
    if subset == 0:
        raise EmptySubspace("cannot take the subspace on the empty set")
    members = sorted(bits(subset))
    traced = {_compress(u & subset, members) for u in space.opens}
    labels = tuple(space.point_labels[i] for i in members)
    return space_from_masks(name or f"{space.name}|sub", labels, traced)


def delta_by_subspaces(space) -> int:
    """The largest ``density_brute`` over the traced subspaces on the dense subsets."""
    cls = closures(space)
    return max(density_brute(subspace_trace(space, a))
               for a in range(1, space.full + 1) if cls[a] == space.full)


def tightness_scan(cls) -> int:
    """max over (x, Y) with x in cl(Y) of the least |Z|, Z in Y, x in cl(Z), on a closure table.

    One scan of the non-empty subsets by size for each pair; ``cls`` is
    indexed by subset, as ``closures`` gives it.
    """
    full = len(cls) - 1
    by_size = sorted(range(1, full + 1), key=int.bit_count)
    worst = 0
    for x in range(full.bit_length()):
        for y_set in range(1, full + 1):
            if cls[y_set] >> x & 1:
                need = next(z.bit_count() for z in by_size if z & y_set == z and cls[z] >> x & 1)
                worst = max(worst, need)
    return worst
