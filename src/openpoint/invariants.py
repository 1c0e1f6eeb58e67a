"""Cardinal invariants of finite spaces: d, delta, gd, pi, w, t.

Every invariant comes in two routes: a fast structural formula and a
brute-force oracle that knows nothing about the formula.  The game
solver (``game.solved_gd``) is the oracle for gd.  The oracles for pi and
w are exact least-cover searches over the open lattice, and the oracle for
delta is the largest of ``dense_densities``, a sweep of the dense subsets
through ``closures``; none of them reads the minimal opens.  The test
suite equates the two routes on exhaustively enumerated corpora; nothing
in this module assumes the inequality chain it is used to verify.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from .space import FiniteSpace, bits, closures, minimal_opens


@cache
def _subsets_by_size(n: int) -> tuple[int, ...]:
    return tuple(sorted(range(1 << n), key=int.bit_count))


def density(space: FiniteSpace) -> int:
    """Least size of a dense subset = number of minimal opens.

    A dense set must hit every minimal open and those are pairwise
    disjoint; one point in each is already dense.
    """
    return len(minimal_opens(space))


def density_brute(space: FiniteSpace) -> int:
    """The size of the first dense subset in size order, read from ``closures``."""
    cls = closures(space)
    for mask in _subsets_by_size(space.n):
        if cls[mask] == space.full:
            return mask.bit_count()
    raise AssertionError("the full set is always dense")


def pi_weight(space: FiniteSpace) -> int:
    """Least size of a pi-base = number of minimal opens."""
    return len(minimal_opens(space))


def _least_cover(cands, need: int) -> int:
    """Fewest of the masks ``cands`` whose union holds every bit of ``need``.

    Each bit of ``need`` is a requirement and each candidate is the mask of
    the requirements it meets.  The search deepens k = 0, 1, 2, ... and,
    at each node, branches on the uncovered requirement met by the fewest
    candidates, trying each of them (Knuth, "Dancing links", 2000); the
    first k at which some branch covers ``need`` is the least.  A
    requirement that one candidate alone meets is thus found by counting,
    never given.
    """
    holders: dict[int, list[int]] = {}
    for cand in cands:
        for r in bits(cand & need):
            holders.setdefault(r, []).append(cand)
    if any(r not in holders for r in bits(need)):
        raise AssertionError("the candidates together leave a requirement unmet")
    fewest_first = sorted(holders, key=lambda r: len(holders[r]))
    k = 0
    while not _covered(holders, fewest_first, need, k):
        k += 1
    return k


def _covered(holders, fewest_first, left: int, k: int) -> bool:
    """Whether k of the candidates in ``holders`` cover ``left``: ``_least_cover``'s search."""
    if not left:
        return True
    if not k:
        return False
    r = next(r for r in fewest_first if left >> r & 1)
    return any(_covered(holders, fewest_first, left & ~cand, k - 1) for cand in holders[r])


def pi_weight_brute(space: FiniteSpace) -> int:
    """Least size of a family of non-empty opens with a member inside every non-empty open.

    One requirement per non-empty open U; a member B meets it when B is
    inside U.  ``_least_cover`` finds the fewest members.
    """
    opens = [u for u in space.opens if u]
    cands = [sum(1 << i for i, u in enumerate(opens) if u & b == b) for b in opens]
    return _least_cover(cands, (1 << len(opens)) - 1)


def weight(space: FiniteSpace) -> int:
    """Least size of a base = number of distinct minimal neighborhoods."""
    return len(set(space.nbhds))


def weight_brute(space: FiniteSpace) -> int:
    """Least size of a family of opens of which every open is the union of the members inside it.

    One requirement per pair (x, U) with x in the open U, bit ``i * n + x``
    for the i-th non-empty open, so the shifted masks summed below are
    disjoint; a member B meets it when x is in B and B is inside U.
    ``_least_cover`` finds the fewest members.
    """
    opens = [u for u in space.opens if u]
    n = space.n
    cands = [sum(b << i * n for i, u in enumerate(opens) if u & b == b) for b in opens]
    return _least_cover(cands, sum(u << i * n for i, u in enumerate(opens)))


def delta(space: FiniteSpace) -> int:
    """sup of densities of dense subsets = number of minimal opens.

    A set dense in a dense A is dense in the whole space, so it meets every
    (pairwise disjoint) minimal open; one point of A in each is already
    dense in A.  Every dense subset thus has density |minimal opens|.
    """
    return len(minimal_opens(space))


def dense_densities(space: FiniteSpace):
    """Yield (A, density of A) for every dense subset A, with no subspace built.

    The closure of Z inside A is cl(Z) & A, so the density of A is the
    least |Z| with Z inside A and A inside cl(Z); both are read from
    ``closures``.
    """
    cls = closures(space)
    by_size = _subsets_by_size(space.n)
    for a in range(1, space.full + 1):
        if cls[a] == space.full:
            yield a, next(z.bit_count() for z in by_size if z & a == z and cls[z] & a == a)


def delta_oracle(space: FiniteSpace) -> int:
    """The largest density of a dense subset, over ``dense_densities``."""
    return max(d for _, d in dense_densities(space))


def tightness(space: FiniteSpace) -> int:
    """max over (x, Y) with x in cl(Y) of the least |Z|, Z in Y, x in cl(Z).

    One sweep per Y of its subsets Z by size, striking the points of cl(Y)
    each cl(Z) reaches: the Z that strikes the last one has the largest
    least |Z|.  No additivity is assumed.
    """
    worst, cls = 0, closures(space)
    by_size = _subsets_by_size(space.n)[1:]
    for y_set in range(1, space.full + 1):
        left = cls[y_set]
        for z in by_size:
            if z & y_set == z and left & cls[z]:
                left &= ~cls[z]
                if not left:
                    worst = max(worst, z.bit_count())
                    break
    return worst


class InvariantReport(NamedTuple):
    d: int
    delta: int
    gd: int
    pi: int
    w: int
    t: int

    @property
    def chain_ok(self) -> bool:
        """1 <= d <= delta <= gd <= pi <= w, with w <= 2^n - 2 checked by caller."""
        return 1 <= self.d <= self.delta <= self.gd <= self.pi <= self.w

    def as_record(self, space: FiniteSpace) -> dict:
        return {"space": space.name, "n": space.n, **self._asdict()}


def invariant_report(space: FiniteSpace) -> InvariantReport:
    """The full chain from structural formulas, computed once per space.

    gd = |minimal opens|.  A point y in a minimal open M' has N(y) = M', so
    y in cl{x} puts x in M': the closure of a pick meets only the minimal
    open holding the pick, if any.  Every stage thus covers at most one
    minimal open, and offering an uncovered one each stage ends the game
    after exactly |minimal opens| stages; the solver is this route's oracle.

    t = 1.  Closure is additive on a finite space, so x in cl(Y) puts x in
    cl{y} for some y in Y; ``tightness`` is this route's oracle.
    """
    return space.memo("invariant_report", _report, space)


def _report(space: FiniteSpace) -> InvariantReport:
    return InvariantReport(
        d=density(space),
        delta=delta(space),
        gd=len(minimal_opens(space)),
        pi=pi_weight(space),
        w=weight(space),
        t=1,
    )
