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

from .space import FiniteSpace, TooLarge, bits, minimal_opens

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
        played = (space.labels_of(move) if isinstance(move, int) and 0 <= move <= space.full
                  else f"mask {move!r}, not a set of the {space.n} points,")
        super().__init__(
            f"{offender} played {played} at closed state "
            f"{space.labels_of(closed)}: {why}"
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
    is one pass over it that reads the memo before it descends, on an
    explicit stack of the states still open rather than by recursion.

    The pass stops at the first reply that meets the state's floor.  Every
    stage adds some ``cl(m)``, so it closes at most ``a = max |cl(m)|`` new
    points, and ``value(closed) >= ceil(|full & ~closed| / a)``.
    Replies are scanned in order and every earlier one scored above the
    floor, so the first reply that meets it is also the first minimum: each
    stored value is exact, and each best move is the one a complete scan
    picks.  The floor is a counting fact, not the collapse
    gd = |minimal opens| that this solver is the oracle for.  The table
    has one mode: a caller that needs a value or a line asks for the
    states it reads (``solved_gd``, ``value_function``, optimal play; on
    D4 x D4 the value from the empty state solves 17 of the 2^16 states),
    and ``solve_game`` asks for every state reachable from the empty one.

    A table holds at most ``STATES_CAP`` states: storing one more raises
    TooLarge, naming the cap.  It counts the states solved, not a bound on
    them, so a table is refused only once it has done that much work.

    Given the ``replies`` of a subset S, the table solves the game on the
    subspace S in the space's own coordinates, and builds no subspace.
    There N(x) & S is the smallest open around x and cl{x} & S its closure,
    so the replies are the inclusion-minimal traces m in increasing order,
    each with ``cl(m) & S``.  The terminal state S is the union of the
    closures: for x in S, N(x) & S holds a minimal trace m, and x is in
    cl{y} & S = cl(m) & S for each y in m.  The floor counts |S| points.
    ``subspace`` relabels S by an increasing map, which keeps the numeric
    order of masks: every value and best move are the relabeled subspace
    table's.  Any replies ``(m, add)`` with m non-empty and inside add are
    solved alike (``dense-lower-bound`` solves a picker's); any other reply
    could lead a state back to itself, forever, and is refused (ValueError).
    """

    def __init__(self, space: FiniteSpace, replies: list | None = None):
        self.space = space
        self._replies = _reply_closures(space) if replies is None else replies
        terminal, widest = 0, 1
        for m, add in self._replies:
            if not m or m & ~add:
                raise ValueError(f"the reply ({m:#b}, {add:#b}) cannot grow a state: "
                                 "its open must be non-empty and inside its closure")
            terminal |= add
            widest = max(widest, add.bit_count())
        self.value: dict[int, float] = {terminal: 0}
        self.best_move: dict[int, int] = {}
        self._widest = widest
        self._last = terminal.bit_count() - 1

    @property
    def gd(self) -> int:
        return self(0)

    def __call__(self, closed: int) -> float:
        value, best = self.value, self.best_move
        got = value.get(closed)
        if got is not None:
            return got
        get, replies, n = value.get, self._replies, len(self._replies)
        widest, last, cap = self._widest, self._last, STATES_CAP
        # one frame per open state: (state, next reply, best value, best move)
        stack = [(closed, 0, INFINITE, None)]
        while stack:
            state, i, best_val, best_mv = stack.pop()
            val = 0  # None below only if the scan stopped at an unsolved state
            for i in range(i, n):
                m, add = replies[i]
                if m & state:
                    continue
                nxt = state | add
                val = get(nxt)
                if val is None:
                    break
                if val < best_val:
                    best_val, best_mv = val, m
                    # a state of k of its |S| points has the floor
                    # ceil((|S| - k) / widest), which a next state worth
                    # (|S| - 1 - k) // widest meets
                    if val <= (last - state.bit_count()) // widest:
                        break
            if val is None:  # solve the next state, then read reply i again
                stack += (state, i, best_val, best_mv), (nxt, 0, INFINITE, None)
                continue
            if len(value) >= cap:
                raise TooLarge(f"the game table needs more than the cap of {cap} states")
            value[state] = best_val + 1
            if best_mv is not None:
                best[state] = best_mv
        return value[closed]

    def records(self):
        for closed in sorted(self.value):
            rec = {
                "closed_set": self.space.labels_of(closed),
                "value": self.value[closed],
            }
            if closed in self.best_move:
                rec["best_move"] = self.space.labels_of(self.best_move[closed])
            yield rec


def _reply_closures(space: FiniteSpace) -> list[tuple[int, int]]:
    """``(m, cl(m))`` per minimal open m, in increasing order; cl(m) is read off its lowest point."""
    clpt = space.point_closures()
    return [(m, clpt[(m & -m).bit_length() - 1]) for m in minimal_opens(space)]


def solve_game(space: FiniteSpace) -> StrategyTable:
    """The complete table for every variant: every closed state reachable from the empty one.

    For the callers that read every state, ``openpoint solve`` and the
    ``value-monotone`` check.  It walks the states reachable from the
    empty one and asks the table for each; a table cut at its floor
    stores exactly what a complete scan finds (``StrategyTable``).
    Raises TooLarge past ``STATES_CAP``, as every table does.
    """
    table, seen, reached = StrategyTable(space), {0}, [0]
    for closed in reached:  # grows while it is read
        table(closed)
        for m, add in table._replies:
            if not m & closed and (nxt := closed | add) not in seen:
                seen.add(nxt)
                reached.append(nxt)
    if INFINITE in table.value.values():
        raise InvariantViolation("a reachable state has no finite value")
    return table


def solved_gd(space: FiniteSpace) -> int:
    """The game value of ``space``, for every variant, solved once per space.

    A lazy table cut by its floor solves the line it plays, not every
    state; only the integer is kept on the space, and the table is dropped.
    """
    return space.memo("gd", lambda: StrategyTable(space).gd)


def exact_force_set(space: FiniteSpace) -> frozenset[int]:
    """Lengths the chooser can force the game to have exactly.

    E(full) = {0}; otherwise k is forcible when some legal open makes every
    picker reply land in a state from which k-1 is forcible.  Offers follow
    the restricted rule, the formulation under which outcomes are unchanged
    and the recursion is well-founded.
    """
    replies = _reply_closures(space)
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

    forcible = visit(0)
    del visit  # empties its own cell: no reference cycle keeps the memo alive
    return forcible


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
    if not isinstance(move, int):
        raise IllegalMove("chooser", space, closed, move, "an offer is an int mask")
    if not move or not space.is_open(move):
        raise IllegalMove("chooser", space, closed, move, "offer is empty or not open")
    if variant is GameVariant.RESTRICTED and move & closed:
        raise IllegalMove("chooser", space, closed, move, "offer meets the closure")


def _check_pick(space: FiniteSpace, closed: int, offered: int, picks: int, variant: GameVariant) -> None:
    if not isinstance(picks, int):
        raise IllegalMove("picker", space, closed, picks, "a pick is an int mask")
    if not picks or picks & ~offered:
        raise IllegalMove("picker", space, closed, picks, "pick outside the offered open")
    if variant is not GameVariant.MULTI_POINT and picks.bit_count() != 1:
        raise IllegalMove("picker", space, closed, picks, "exactly one point per stage")


def evaluate_chooser(space: FiniteSpace, policy, variant: GameVariant = GameVariant.RESTRICTED):
    """Worst-case game length for a chooser against every picker line.

    Full traversal of picker replies with memoization on (closed state,
    policy state).  Returns ``math.inf`` when some line never terminates,
    which only happens for policies that allow the picker to stall.  A
    line descends only while the closed set grows, so it meets no state twice.
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

    value = worst(0, chooser.initial_state())
    del worst  # empties its own cell: no reference cycle keeps the space alive
    return value


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
        options = sorted(bits(offered), key=lambda x: ((closed | clpt[x]).bit_count(), x))
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
