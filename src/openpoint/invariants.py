"""Cardinal invariants of finite spaces: d, delta, gd, pi, w, t.

Every invariant comes in two routes: a fast structural formula and a
brute-force oracle that knows nothing about the formula.  The game
solver (``game.solved_gd``) is the oracle for gd.  The oracles for pi and
w are exact least-cover searches over holder masks, read off one table
per space of the non-empty opens and the opens inside each.  The oracle
for delta is the largest of ``dense_densities``, and the one for t is
``tightness``: sweeps of the subsets of each set, listed once per n by
``_submasks_by_size``, through ``closures``.  None of them reads the
rows, the minimal opens or the point closures.  The test suite equates
the two routes on exhaustively enumerated corpora and on random spaces
of up to 8 points; nothing in this module assumes the inequality chain
it is used to verify.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from .space import FiniteSpace, bits, closures, minimal_opens


@cache
def _subsets_by_size(n: int) -> tuple[int, ...]:
    return tuple(sorted(range(1 << n), key=int.bit_count))


@cache
def _submasks_by_size(n: int) -> tuple[tuple[int, ...], ...]:
    """Entry A: the subsets of A in size order, as ``_subsets_by_size`` orders them; 3^n masks in all."""
    by_size = _subsets_by_size(n)
    return tuple(tuple(z for z in by_size if z & a == z) for a in range(1 << n))


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


def _least_cover(holders) -> int:
    """Fewest candidates that together meet every requirement.

    Each entry of ``holders`` is one requirement, given as the mask of the
    candidate indices that meet it.  The distinct masks are sorted by
    popcount, and the search deepens k = 0, 1, 2, ...; at each node it
    branches on the first unmet mask, the requirement with the fewest
    holders, trying each of its bits in turn and keeping the masks that bit
    does not meet (Knuth, "Dancing links", 2000).  The first k at which
    some branch meets them all is the least.  A requirement that one
    candidate alone meets is thus found by counting, never given; an empty
    mask, a requirement no candidate meets, raises AssertionError.
    """
    masks = sorted(set(holders), key=int.bit_count)
    if masks and not masks[0]:
        raise AssertionError("the candidates together leave a requirement unmet")
    k = 0
    while not _covered(masks, k):
        k += 1
    return k


def _covered(masks, k: int) -> bool:
    """Whether k candidates meet every mask of ``masks``: ``_least_cover``'s search."""
    if not masks:
        return True
    if not k:
        return False
    first = masks[0]
    while first:
        low = first & -first
        if _covered([m for m in masks if not m & low], k - 1):
            return True
        first ^= low
    return False


def _open_inclusions(opens) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The non-empty opens, increasing, and per open U the mask of the indices of the opens inside U.

    A subset of U is no larger an integer, so only the opens up to U are tried.
    """
    opens = tuple(u for u in opens if u)
    inside = tuple(sum(1 << j for j, b in enumerate(opens[:i + 1]) if u & b == b)
                   for i, u in enumerate(opens))
    return opens, inside


def pi_weight_brute(space: FiniteSpace) -> int:
    """Least size of a family of non-empty opens with a member inside every non-empty open.

    One requirement per non-empty open U, met by the opens inside U: the
    mask ``inside[U]`` of the table shared with ``weight_brute``.
    ``_least_cover`` finds the fewest members.
    """
    _, inside = space.memo("open_inclusions", _open_inclusions, space.opens)
    return _least_cover(inside)


def weight(space: FiniteSpace) -> int:
    """Least size of a base = number of distinct minimal neighborhoods."""
    return len(set(space.nbhds))


def weight_brute(space: FiniteSpace) -> int:
    """Least size of a family of opens of which every open is the union of the members inside it.

    One requirement per pair (x, U) with x in the open U, met by the opens
    that hold x and lie inside U: ``holding[x] & inside[U]``, with
    ``holding[x]`` the mask of the opens that hold x.  ``_least_cover``
    finds the fewest members.
    """
    opens, inside = space.memo("open_inclusions", _open_inclusions, space.opens)
    holding = [sum(1 << j for j, b in enumerate(opens) if b >> x & 1) for x in range(space.n)]
    return _least_cover(holding[x] & inside[i] for i, u in enumerate(opens) for x in bits(u))


def delta(space: FiniteSpace) -> int:
    """sup of densities of dense subsets = number of minimal opens.

    A set dense in a dense A is dense in the whole space, so it meets every
    (pairwise disjoint) minimal open; one point of A in each is already
    dense in A.  Every dense subset thus has density |minimal opens|.
    """
    return len(minimal_opens(space))


def dense_densities(space: FiniteSpace) -> tuple[tuple[int, int], ...]:
    """(A, density of A) for every dense subset A, increasing in A; computed once per space.

    The closure of Z inside A is cl(Z) & A, so the density of A is the
    least |Z| with Z inside A and A inside cl(Z): the first such Z among
    the submasks of A in size order, read from ``closures``, with no
    subspace built.
    """
    return space.memo("dense_densities", _dense_densities, space)


def _dense_densities(space: FiniteSpace) -> tuple[tuple[int, int], ...]:
    cls, full = closures(space), space.full
    submasks = _submasks_by_size(space.n)
    return tuple((a, next(z.bit_count() for z in submasks[a] if cls[z] & a == a))
                 for a in range(1, full + 1) if cls[a] == full)


def delta_oracle(space: FiniteSpace) -> int:
    """The largest density of a dense subset, over ``dense_densities``."""
    return max(d for _, d in dense_densities(space))


def tightness(space: FiniteSpace) -> int:
    """max over (x, Y) with x in cl(Y) of the least |Z|, Z in Y, x in cl(Z).

    One sweep per Y of its non-empty subsets Z by size, striking the points
    of cl(Y) each cl(Z) reaches: the Z that strikes the last one has the
    largest least |Z|.  No additivity is assumed, nor that cl(empty) is
    empty, which is why the empty set, first in each sweep, is skipped.
    """
    worst, cls = 0, closures(space)
    submasks = _submasks_by_size(space.n)
    for y_set in range(1, space.full + 1):
        left = cls[y_set]
        for z in submasks[y_set][1:]:
            if left & cls[z]:
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
