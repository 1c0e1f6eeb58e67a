"""Cardinal invariants of finite spaces: d, delta, gd, pi, w, t.

Every invariant comes in two routes: a fast structural formula and a
brute-force oracle that knows nothing about the formula.  The game
solver (``game.solved_gd``) is the oracle for gd.  The test suite
equates the two on exhaustively enumerated corpora; nothing in this module
assumes the inequality chain it is used to verify.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .space import (
    FiniteSpace,
    closure,
    closures,
    minimal_opens,
    popcount,
    subspace,
)


def _subsets_by_size(full: int):
    masks = sorted(range(full + 1), key=popcount)
    return masks


def density(space: FiniteSpace) -> int:
    """Least size of a dense subset = number of minimal opens.

    A dense set must hit every minimal open and those are pairwise
    disjoint; one point in each is already dense.
    """
    return len(minimal_opens(space))


def density_brute(space: FiniteSpace) -> int:
    for mask in _subsets_by_size(space.full):
        if closure(space, mask) == space.full:
            return popcount(mask)
    raise AssertionError("the full set is always dense")


def pi_weight(space: FiniteSpace) -> int:
    """Least size of a pi-base = number of minimal opens."""
    return len(minimal_opens(space))


def _is_pi_base(opens, family) -> bool:
    """Whether every one of the non-empty ``opens`` contains a member of ``family``."""
    return all(any(u & b == b for b in family) for u in opens)


def pi_weight_brute(space: FiniteSpace) -> int:
    opens = [u for u in space.opens if u]
    for k in range(1, len(opens) + 1):
        for family in combinations(opens, k):
            if _is_pi_base(opens, family):
                return k
    raise AssertionError("the family of all non-empty opens is a pi-base")


def weight(space: FiniteSpace) -> int:
    """Least size of a base = number of distinct minimal neighborhoods."""
    return len(set(space.nbhds))


def _is_base(opens, family) -> bool:
    """Whether each of the ``opens`` is the union of the members inside it."""
    for u in opens:
        cover = 0
        for b in family:
            if u & b == b:
                cover |= b
        if cover != u:
            return False
    return True


def weight_brute(space: FiniteSpace) -> int:
    opens = [u for u in space.opens if u]
    for k in range(1, len(opens) + 1):
        for family in combinations(opens, k):
            if _is_base(opens, family):
                return k
    raise AssertionError("the family of all non-empty opens is a base")


def delta(space: FiniteSpace) -> int:
    """sup of densities of dense subsets = number of minimal opens.

    A set dense in a dense A is dense in the whole space, so it meets every
    (pairwise disjoint) minimal open; one point of A in each is already
    dense in A.  Every dense subset thus has density |minimal opens|.
    """
    return len(minimal_opens(space))


def delta_oracle(space: FiniteSpace) -> int:
    """Unpruned route: build every dense subspace and brute-force d there."""
    best = 0
    cls = closures(space)
    for a in range(1, space.full + 1):
        if cls[a] == space.full:
            best = max(best, density_brute(subspace(space, a)))
    return best


def tightness(space: FiniteSpace) -> int:
    """max over (x, Y) with x in cl(Y) of the least |Z|, Z in Y, x in cl(Z)."""
    worst = 0
    by_size = _subsets_by_size(space.full)
    cls = closures(space)
    for x in range(space.n):
        for y_set in range(1, space.full + 1):
            if not cls[y_set] >> x & 1:
                continue
            need = None
            for z in by_size:
                if z and z & y_set == z and cls[z] >> x & 1:
                    need = popcount(z)
                    break
            assert need is not None
            worst = max(worst, need)
    return worst


@dataclass(frozen=True)
class InvariantReport:
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
        return {
            "space": space.name,
            "n": space.n,
            "d": self.d,
            "delta": self.delta,
            "gd": self.gd,
            "pi": self.pi,
            "w": self.w,
            "t": self.t,
        }


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
    return space.memo("invariant_report", lambda: InvariantReport(
        d=density(space),
        delta=delta(space),
        gd=len(minimal_opens(space)),
        pi=pi_weight(space),
        w=weight(space),
        t=1,
    ))
