"""Exact solver and play engine for the open-point game.

One position of the game is the closure of the points picked so far: the
chooser offers a non-empty open set, the picker answers with a point (or a
non-empty subset in the multi-point variant), and play stops once the picks
are dense.  The chooser minimizes the number of stages, the picker
maximizes it; ``gd`` is the resulting minimax value from the empty
position.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum

from .space import (
    FiniteSpace,
    TooLarge,
    bits,
    inclusion_minimal,
    minimal_opens,
    popcount,
    subset_points,
)

INFINITE = math.inf

MULTI_POINT_CAP = 12
STATES_CAP = 1 << 20


class GameVariant(Enum):
    RESTRICTED = "restricted"    # offered opens must avoid the current closure
    FREE = "free"                # any non-empty open may be offered
    MULTI_POINT = "multi-point"  # free offers; picker takes any non-empty subset


class IllegalMove(Exception):
    """A policy broke the rules; carries enough context to point at it."""

    def __init__(self, offender: str, space: FiniteSpace, closed: int, move: int, why: str):
        self.offender = offender
        self.closed = closed
        self.move = move
        super().__init__(
            f"{offender} played {sorted(space.label_set(move))} at closed state "
            f"{sorted(space.label_set(closed))}: {why}"
        )


class InvariantViolation(AssertionError):
    """An internal guarantee failed (e.g. a pi-base with no legal member)."""


def _multi_replies(move: int):
    pts = [1 << x for x in bits(move)]
    if len(pts) > MULTI_POINT_CAP:
        raise TooLarge(
            f"multi-point replies over a {len(pts)}-point open exceed the cap of {MULTI_POINT_CAP}"
        )
    subsets = [0]  # subsets[code] joins the points pts[i] with bit i set in code
    for p in pts:
        subsets += [s | p for s in subsets]
    return subsets[1:]


class StrategyTable:
    """Lazy memoized minimax: remaining length and a best offer per state.

    A table starts holding only the terminal state; ``table(closed)`` solves
    that state on demand and returns its value, so ``value`` and
    ``best_move`` hold exactly the states evaluated so far.  A state with no
    offer avoiding it (only possible for a set that is not closed) gets the
    value ``math.inf`` and no best move.

    Offers range over the minimal opens only: any open contains a minimal
    one whose picker replies are a subset of its own, so this never changes
    the value.  A minimal open is either inside the closure or disjoint from
    it, and one inside lets the picker re-pick a covered point forever, so
    in every variant the best offer is a disjoint minimal open.

    Every point x of a minimal open m has N(x) = m, so all points of m share
    one closure ``cl{x} = {y : x in N(y)}``, the closure of m.  Any reply to
    m, one point or any non-empty subset, leads to the same state
    ``closed | cl(m)``: one table serves every ``GameVariant``.
    The reply list ``(m, cl(m))`` is built once per table; solving a state
    is one pass over it that reads the memo before it recurses.

    The pass stops at the first reply that meets the state's floor.  Every
    stage adds some ``cl(m)``, so it closes at most ``a = max |cl(m)|`` new
    points, and ``value(closed) >= ceil(popcount(full & ~closed) / a)``.
    Replies are scanned in order and every earlier one scored above the
    floor, so the first reply that meets it is also the first minimum: each
    stored value is exact, and each best move is the one a complete scan
    picks.  The floor is a counting fact, not the collapse
    gd = |minimal opens| that this solver is the oracle for.  Callers that
    need a value or a line get this lazy table
    (``capped_table``, ``value_function``); on D4 x D4 the value from the
    empty state solves 17 of the 2^16 states.  ``solve_game`` turns the
    cut off, so its table holds every state reachable from the empty one.

    Given a set S = ``within`` of the space's points, the table solves the
    game on the subspace S in the space's own coordinates, and builds no
    subspace.  On S the smallest open around x is the trace N(x) & S, and
    cl_S{x} = cl{x} & S.  So the replies are the inclusion-minimal traces
    m, each with ``cl(m) & S``; the terminal state is S, and the floor
    counts |S| points in place of n.  ``subspace(space, S)`` relabels S by
    an increasing map, which keeps the numeric order of masks: the reply
    order, the floor, every value and every best move are the relabeled
    subspace table's.  Without ``within`` the table solves the whole space.
    """

    def __init__(self, space: FiniteSpace, within: int | None = None):
        within = space.full if within is None else within
        self.space = space
        self.value: dict[int, float] = {within: 0}
        self.best_move: dict[int, int] = {}
        self._replies = _reply_closures(space, within)
        self._widest = max((add.bit_count() for _, add in self._replies), default=1)
        self._last = within.bit_count() - 1
        self._cut = True

    @property
    def gd(self) -> int:
        return self(0)

    def __call__(self, closed: int) -> float:
        value, best = self.value, self.best_move
        got = value.get(closed)
        if got is not None:
            return got
        get, replies = value.get, self._replies
        cut, widest, last = self._cut, self._widest, self._last

        def visit(closed: int) -> float:
            best_val, best_mv = INFINITE, None
            for m, add in replies:
                if m & closed:
                    continue
                nxt = closed | add
                val = get(nxt)
                if val is None:
                    val = visit(nxt)
                if val < best_val:
                    best_val, best_mv = val, m
                    # a state of k of its |S| points has the floor
                    # ceil((|S| - k) / widest), which a next state worth
                    # (|S| - 1 - k) // widest meets
                    if cut and val <= (last - closed.bit_count()) // widest:
                        break
            value[closed] = best_val + 1
            if best_mv is not None:
                best[closed] = best_mv
            return best_val + 1

        return visit(closed)

    def records(self):
        for closed in sorted(self.value):
            rec = {
                "closed_set": sorted(self.space.label_set(closed)),
                "value": self.value[closed],
            }
            if closed in self.best_move:
                rec["best_move"] = sorted(self.space.label_set(self.best_move[closed]))
            yield rec


def _reply_closures(space: FiniteSpace, within: int) -> list[tuple[int, int]]:
    """``(m, cl(m) & within)`` per minimal open m of the subspace ``within``.

    The m are the inclusion-minimal traces N(x) & within, in increasing
    mask order; on the whole space they are the memoized ``minimal_opens``.
    Offering m at ``closed`` leads to ``closed | cl(m) & within`` whatever
    the picker takes from m; ``cl(m)`` is read off its lowest point.
    """
    if within == space.full:
        mins = minimal_opens(space)
    else:
        rows = space.nbhds
        mins = inclusion_minimal([rows[x] & within for x in subset_points(space, within)])
    clpt = space.point_closures()
    return [(m, clpt[(m & -m).bit_length() - 1] & within) for m in mins]


def capped_table(space: FiniteSpace, within: int | None = None) -> StrategyTable:
    """A lazy ``StrategyTable``, for callers that need a value or a line.

    ``solved_gd`` (and through it the metric checks), the subspace solves
    of ``subspace-monotone`` (``within`` a set of points, as in
    ``StrategyTable``) and optimal play in ``openpoint play`` read it.  Its
    states are unions of at most r reply closures, r the number of
    replies (the minimal opens, or on a subspace the minimal traces),
    since a pick's closure is the closure of its whole minimal open.
    Raises TooLarge when that 2^r bound passes ``STATES_CAP``: the floor
    cuts the search only where a reply meets it, so the bound stays the
    cap.
    """
    table = StrategyTable(space, within)
    most = len(table._replies)
    if 1 << most > STATES_CAP:
        raise TooLarge(f"a solve may visit 2^{most} states, over the cap of {STATES_CAP}")
    return table


def solve_game(space: FiniteSpace) -> StrategyTable:
    """The complete table for every variant: every closed state reachable from the empty one.

    For the callers that read every state, ``openpoint solve`` and the
    ``value-monotone`` check.  It runs the lazy table's visit loop with the
    cut off, so no reply list is cut short.  Raises TooLarge
    past ``STATES_CAP``, as ``capped_table`` does.
    """
    table = capped_table(space)
    table._cut = False
    table(0)
    if INFINITE in table.value.values():
        raise InvariantViolation("a reachable state has no finite value")
    return table


def _gd(space: FiniteSpace) -> int:
    return capped_table(space).gd


def solved_gd(space: FiniteSpace) -> int:
    """The game value of ``space``, for every variant, solved once per space.

    A lazy table cut by its floor solves the line it plays, not every
    state; only the integer is kept on the space, and the table is dropped.
    """
    return space.memo("gd", _gd, space)


def exact_force_set(space: FiniteSpace) -> frozenset[int]:
    """Lengths the chooser can force the game to have exactly.

    E(full) = {0}; otherwise k is forcible when some legal open makes every
    picker reply land in a state from which k-1 is forcible.  Offers follow
    the restricted rule, the formulation under which outcomes are unchanged
    and the recursion is well-founded.
    """
    replies = _reply_closures(space, space.full)
    memo: dict[int, frozenset[int]] = {space.full: frozenset({0})}

    def visit(closed: int) -> frozenset[int]:
        got = memo.get(closed)
        if got is not None:
            return got
        out: set[int] = set()
        for m, add in replies:
            if not m & closed:
                out.update(k + 1 for k in visit(closed | add))
        memo[closed] = frozenset(out)
        return memo[closed]

    return visit(0)


# ---------------------------------------------------------------------------
# Policy protocol and play engine
# ---------------------------------------------------------------------------
#
# A chooser is any object with:
#     initial_state() -> state            (hashable)
#     choose(closed, state) -> open mask
#     observe(state, picks) -> state     (picks answer choose's offer at state)
# Plain callables f(closed, stage) are adapted automatically.
#
# A picker is a callable picker(closed, offered, stage, rng) -> pick mask.


class FunctionChooser:
    """Adapter giving a stage counter to a stateless (closed, stage) policy."""

    def __init__(self, fn):
        self.fn = fn

    def initial_state(self):
        return 0

    def choose(self, closed, state):
        return self.fn(closed, state)

    def observe(self, state, picks):
        return state + 1


def as_chooser(policy):
    if hasattr(policy, "choose"):
        return policy
    return FunctionChooser(policy)


def _check_offer(space: FiniteSpace, closed: int, move: int, variant: GameVariant) -> None:
    if not move or not space.is_open(move):
        raise IllegalMove("chooser", space, closed, move, "offer is empty or not open")
    if variant is GameVariant.RESTRICTED and move & closed:
        raise IllegalMove("chooser", space, closed, move, "offer meets the closure")


def _check_pick(space: FiniteSpace, closed: int, offered: int, picks: int, variant: GameVariant) -> None:
    if not picks or picks & ~offered:
        raise IllegalMove("picker", space, closed, picks, "pick outside the offered open")
    if variant is not GameVariant.MULTI_POINT and popcount(picks) != 1:
        raise IllegalMove("picker", space, closed, picks, "exactly one point per stage")


def evaluate_chooser(space: FiniteSpace, policy, variant: GameVariant = GameVariant.RESTRICTED):
    """Worst-case game length for a chooser against every picker line.

    Full traversal of picker replies with memoization on (closed state,
    policy state).  Returns ``math.inf`` when some line never terminates,
    which only happens for policies that allow the picker to stall.
    """
    chooser = as_chooser(policy)
    full = space.full
    memo: dict = {}

    def worst(closed: int, state) -> float:
        if closed == full:
            return 0
        key = (closed, state)
        got = memo.get(key)
        if got is not None:
            return got
        memo[key] = INFINITE  # cycle guard while this node is open
        move = chooser.choose(closed, state)
        _check_offer(space, closed, move, variant)
        if variant is GameVariant.MULTI_POINT:
            replies = _multi_replies(move)
        else:
            replies = [1 << x for x in bits(move)]
        val: float = 0
        for picks in replies:
            nxt = closed | space.closure_of(picks)
            if nxt == closed:
                val = INFINITE
                break
            val = max(val, worst(nxt, chooser.observe(state, picks)))
        memo[key] = val + 1
        return val + 1

    return worst(0, chooser.initial_state())


@dataclass(frozen=True)
class Step:
    offered: int
    picks: int
    closure_after: int


@dataclass(frozen=True)
class Transcript:
    space: FiniteSpace
    steps: tuple[Step, ...]
    terminal: bool

    @property
    def length(self) -> int:
        return len(self.steps)

    def validate(self) -> None:
        prev = 0
        for step in self.steps:
            if not step.closure_after > prev or step.closure_after & prev != prev:
                raise InvariantViolation("closure sequence must strictly increase")
            prev = step.closure_after
        if self.terminal != (prev == self.space.full):
            raise InvariantViolation("terminal flag disagrees with the final closure")


def run_game(space: FiniteSpace, chooser_policy, picker, variant: GameVariant,
             rng=None, on_step=None):
    """Play one full game; returns the transcript and the chooser's last state.

    ``on_step`` is called with each Step as it happens, before the next
    offer, so interactive front-ends can echo the growing closure live.
    """
    chooser = as_chooser(chooser_policy)
    full = space.full
    closed, state, stage = 0, chooser.initial_state(), 0
    steps: list[Step] = []
    while closed != full:
        move = chooser.choose(closed, state)
        _check_offer(space, closed, move, variant)
        picks = picker(closed, move, stage, rng)
        _check_pick(space, closed, move, picks, variant)
        nxt = closed | space.closure_of(picks)
        if nxt == closed:
            raise InvariantViolation("play stalled: the closure stopped growing")
        state = chooser.observe(state, picks)
        step = Step(offered=move, picks=picks, closure_after=nxt)
        steps.append(step)
        if on_step is not None:
            on_step(stage, step)
        closed = nxt
        stage += 1
    transcript = Transcript(space=space, steps=tuple(steps), terminal=True)
    transcript.validate()
    return transcript, state


def play_transcript(space: FiniteSpace, chooser_policy, picker,
                    variant: GameVariant = GameVariant.RESTRICTED, seed: int = 0) -> Transcript:
    transcript, _ = run_game(space, chooser_policy, picker, variant, rng=random.Random(seed))
    return transcript


# A couple of reference pickers used by the CLI and the suites.

def random_picker(closed, offered, stage, rng):
    return 1 << rng.choice(list(bits(offered)))


def first_point_picker(closed, offered, stage, rng=None):
    return offered & -offered


def stalling_picker(space: FiniteSpace):
    """Greedy picker that grows the closure as little as possible."""
    clpt = space.point_closures()

    def pick(closed, offered, stage, rng=None):
        options = sorted(bits(offered), key=lambda x: (popcount(closed | clpt[x]), x))
        return 1 << options[0]

    return pick


def value_function(space: FiniteSpace) -> StrategyTable:
    """Memoized optimal remaining length, defined at every closed state."""
    return StrategyTable(space)


def table_picker(table: StrategyTable):
    """Pick the point that leaves the longest optimal remainder; ties go low."""
    clpt = table.space.point_closures()

    def pick(closed, offered, stage, rng=None):
        return 1 << max(bits(offered), key=lambda x: table(closed | clpt[x]))

    return pick


def optimal_picker(space: FiniteSpace):
    """Picker that maximizes the remaining optimal length."""
    return table_picker(value_function(space))
