"""Reference game values: plain minimax under each variant's rules of play.

``oracle_values`` answers what ``game.StrategyTable`` answers without its
pruning or the minimal-open closure lemma: the chooser may offer every
non-empty open the variant allows, and the picker may answer with every
point of the offer or, in the multi-point variant, every non-empty subset,
each closed point by point.  It costs far more than the solver, so it is
kept for the tests only.

``trace_replies`` finds the reply list of the game on a subspace from its
own traces, for any subset; ``subspace-monotone`` restricts the whole
space's list to its open and dense subjects instead.
"""

import math
from functools import reduce
from operator import or_

from openpoint.game import GameVariant
from openpoint.space import inclusion_minimal, subset_points


def trace_replies(space, within):
    """``(m, cl(m) & within)`` per inclusion-minimal trace m = N(x) & within, in increasing order.

    These are the minimal opens of the subspace ``within``, each with its
    closure there, read off its lowest point: the ``replies`` on which
    ``StrategyTable`` solves the game on ``within``.
    """
    rows, clpt = space.nbhds, space.point_closures()
    mins = inclusion_minimal([rows[x] & within for x in subset_points(space, within)])
    return [(m, clpt[(m & -m).bit_length() - 1] & within) for m in mins]


def joined_closures(replies):
    """The union of the closures in a reply list ``(m, cl(m))``: the subset it is the list of."""
    return reduce(or_, (add for _, add in replies), 0)


def _points(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _replies(offer, multi):
    pts = _points(offer)
    if not multi:
        return [1 << p for p in pts]
    return [sum(1 << p for i, p in enumerate(pts) if code >> i & 1)
            for code in range(1, 1 << len(pts))]


def oracle_values(space, variant=GameVariant.RESTRICTED):
    """Optimal remaining length of every state reached from the empty one.

    Restricted offers avoid the closure; free and multi-point offers are
    every non-empty open.  A reply that leaves the closure unchanged stalls:
    the picker can repeat it forever, so it is worth ``math.inf``.
    """
    clpt = space.point_closures()
    free = variant is not GameVariant.RESTRICTED
    multi = variant is GameVariant.MULTI_POINT
    offers = [u for u in space.opens if u]
    memo = {space.full: 0}

    def close(picks):
        out = 0
        for x in _points(picks):
            out |= clpt[x]
        return out

    def visit(closed):
        if closed in memo:
            return memo[closed]
        best = math.inf
        for u in offers:
            if u & closed and not free:
                continue
            branch = 0
            for picks in _replies(u, multi):
                nxt = closed | close(picks)
                branch = max(branch, math.inf if nxt == closed else visit(nxt))
            best = min(best, 1 + branch)
        memo[closed] = best
        return best

    visit(0)
    return memo


def chooser_line_lengths(space, picker):
    """Length of every restricted play in which the chooser tries each legal open.

    Every line of offered opens is walked out and nothing is remembered;
    the picker's answer is closed through its lowest point.
    """
    clpt = space.point_closures()
    lengths = []

    def walk(closed, stage, acc):
        if closed == space.full:
            lengths.append(acc)
            return
        for u in space.opens:
            if u and not u & closed:
                picks = picker(closed, u, stage, None)
                walk(closed | clpt[(picks & -picks).bit_length() - 1], stage + 1, acc + 1)

    walk(0, 0, 0)
    return lengths
