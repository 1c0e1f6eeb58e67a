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

from .space import FiniteSpace, TooLarge, bits, minimal_opens, popcount

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
    pts = list(bits(move))
    if len(pts) > MULTI_POINT_CAP:
        raise TooLarge(
            f"multi-point replies over a {len(pts)}-point open exceed the cap of {MULTI_POINT_CAP}"
        )
    subsets = []
    for code in range(1, 1 << len(pts)):
        mask = 0
        for i, p in enumerate(pts):
            if code >> i & 1:
                mask |= 1 << p
        subsets.append(mask)
    return subsets


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
    in every variant the best offer is a disjoint minimal open.  A
    multi-point reply S leads to ``closed | cl(S)``, the union of the
    single-point next states of its points, so the solver branches over the
    unions of the distinct single-point next states instead of over every
    reply subset.
    """

    def __init__(self, space: FiniteSpace, variant: GameVariant = GameVariant.RESTRICTED):
        self.space = space
        self.variant = variant
        self.value: dict[int, float] = {space.full: 0}
        self.best_move: dict[int, int] = {}

    @property
    def gd(self) -> int:
        return self(0)

    def __call__(self, closed: int) -> float:
        value, best = self.value, self.best_move
        got = value.get(closed)
        if got is not None:
            return got
        clpt = self.space.point_closures()
        mins = minimal_opens(self.space)
        multi = self.variant is GameVariant.MULTI_POINT

        def visit(closed: int) -> float:
            got = value.get(closed)
            if got is not None:
                return got
            best_val, best_mv = INFINITE, None
            for m in mins:
                if m & closed:
                    continue
                if multi:
                    nexts = {closed | clpt[x] for x in bits(m)}
                    if len(nexts) > 1:
                        nexts = _unions(nexts)
                    branch = max(visit(s) for s in nexts)
                else:
                    branch = max(visit(closed | clpt[x]) for x in bits(m))
                if branch < best_val:
                    best_val, best_mv = branch, m
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


def _unions(sets) -> set[int]:
    """Every union of a non-empty subfamily of ``sets``."""
    out: set[int] = set()
    for s in sets:
        out |= {s | u for u in out}
        out.add(s)
    return out


def solve_game(space: FiniteSpace, variant: GameVariant = GameVariant.RESTRICTED) -> StrategyTable:
    """Full minimax over every closed state reachable from the empty one.

    A pick's closure is the closure of its whole minimal open, so those
    states are unions of at most |minimal opens| closures.  Raises TooLarge
    when the 2^|minimal opens| bound passes ``STATES_CAP``.
    """
    most = len(minimal_opens(space))
    if 1 << most > STATES_CAP:
        raise TooLarge(f"a full solve may visit 2^{most} states, over the cap of {STATES_CAP}")
    table = StrategyTable(space, variant)
    table(0)
    if INFINITE in table.value.values():
        raise InvariantViolation("a reachable state has no finite value")
    return table


def solved_gd(space: FiniteSpace, variant: GameVariant = GameVariant.RESTRICTED) -> int:
    """``solve_game(space, variant).gd``, solved once per space and variant.

    Only the integer is kept on the space; the table is dropped.
    """
    return space.memo(("gd", variant), lambda: solve_game(space, variant).gd)


def exact_force_set(space: FiniteSpace) -> frozenset[int]:
    """Lengths the chooser can force the game to have exactly.

    E(full) = {0}; otherwise k is forcible when some legal open makes every
    picker reply land in a state from which k-1 is forcible.  Offers follow
    the restricted rule, the formulation under which outcomes are unchanged
    and the recursion is well-founded.
    """
    clpt = space.point_closures()
    mins = minimal_opens(space)
    memo: dict[int, frozenset[int]] = {space.full: frozenset({0})}

    def visit(closed: int) -> frozenset[int]:
        got = memo.get(closed)
        if got is not None:
            return got
        out: set[int] = set()
        for m in mins:
            if m & closed:
                continue
            shared = None
            for x in bits(m):
                nxt = visit(closed | clpt[x])
                shared = nxt if shared is None else shared & nxt
                if not shared:
                    break
            if shared:
                out.update(k + 1 for k in shared)
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


def value_function(space: FiniteSpace, variant: GameVariant = GameVariant.RESTRICTED) -> StrategyTable:
    """Memoized optimal remaining length, defined at every closed state."""
    return StrategyTable(space, variant)


def table_picker(table: StrategyTable):
    """Pick the point that leaves the longest optimal remainder; ties go low."""
    clpt = table.space.point_closures()

    def pick(closed, offered, stage, rng=None):
        return 1 << max(bits(offered), key=lambda x: table(closed | clpt[x]))

    return pick


def optimal_picker(space: FiniteSpace, variant: GameVariant = GameVariant.RESTRICTED):
    """Picker that maximizes the remaining optimal length."""
    return table_picker(value_function(space, variant))
