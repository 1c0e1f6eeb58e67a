"""Named strategy constructions for the open-point game.

Everything here produces a policy consumable by the game engine: either a
plain callable (closed, stage) -> open mask, or a stateful chooser object.
The product and aggregate choosers run coordinate games in parallel and
carry their bookkeeping in immutable states, so evaluating them against
every picker line stays a pure traversal.
"""

from __future__ import annotations

from itertools import product as iter_product
from typing import NamedTuple

from .game import InvariantViolation, evaluate_chooser, value_function
from .products import ProductSpace, product
from .space import FiniteSpace, Frozen, TopologyError, minimal_opens


class NotDense(TopologyError):
    pass


class LedgerOrderViolation(AssertionError):
    pass


class OrderedPiBase(Frozen):
    """A well-ordered pi-base: every non-empty open contains some member.

    Two bases are equal when they have the same space and the same members
    in the same order.
    """

    __slots__ = ("space", "members")

    def __init__(self, space: FiniteSpace, members: tuple[int, ...]):
        for m in members:
            if not m or not space.is_open(m):
                raise ValueError(f"base member {m:b} is empty or not open")
        # every non-empty open is a union of N(x), so checking the N(x) is enough
        for nbhd in space.nbhds:
            if not any(nbhd & m == m for m in members):
                raise ValueError(
                    f"open {space.labels_of(nbhd)} contains no base member"
                )
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "members", members)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.space, self.members) == (other.space, other.members)

    def __hash__(self) -> int:
        return hash((self.space, self.members))

    def __repr__(self) -> str:
        return f"OrderedPiBase(space={self.space!r}, members={self.members!r})"

    def __len__(self) -> int:
        return len(self.members)


def minimal_pi_base(space: FiniteSpace) -> OrderedPiBase:
    return OrderedPiBase(space, minimal_opens(space))


def pi_base_chooser(space: FiniteSpace, base: OrderedPiBase | None = None):
    """Play the least-index base member disjoint from the current closure.

    A true pi-base always has such a member at a non-terminal state, and no
    member is played twice, so play ends within len(base) stages.
    """
    base = base or minimal_pi_base(space)

    def choose(closed, stage):
        for m in base.members:
            if not m & closed:
                return m
        raise InvariantViolation(
            "no base member avoids the closure; the base cannot be a pi-base"
        )

    return choose


def dense_point_picker(space: FiniteSpace, dense_set: int):
    """Pick the least-index offered point inside a fixed dense set."""
    if space.closure_of(dense_set) != space.full:
        raise NotDense(
            f"{space.labels_of(dense_set)} is not dense in {space.name}"
        )

    def pick(closed, offered, stage, rng=None):
        inside = offered & dense_set
        if not inside:
            raise InvariantViolation("a dense set meets every non-empty open")
        return inside & -inside

    return pick


def table_chooser(table):
    """Play the solver's best move, solving each closed state on demand.

    The table answers at every closed state, not just those reachable from
    the empty one.  Worst case equals gd of the space.
    """

    def choose(closed, stage):
        table(closed)
        return table.best_move[closed]

    return choose


def optimal_chooser(space: FiniteSpace):
    """Best-move policy defined at every closed state."""
    return table_chooser(value_function(space))


# ---------------------------------------------------------------------------
# Two-factor product strategy: the pi-base of X times the pi-base of Y
# ---------------------------------------------------------------------------


class ProductChooser:
    """Run parallel Y-games, one per member of the minimal pi-base of X.

    Sub-game i offers base[i] x N with N the next minimal open of Y, in
    order: the state counts, per sub-game, the minimal opens of Y it has
    played.  That count is the whole Y-game.  A pick in base[i] x N
    projects into N, every point of a minimal open closes to cl(N), and
    cl(N) meets no other minimal open of Y; so the pi-base move after N is
    the next minimal open, and the sub-game is finished once it has played
    all of them.  The cursor round-robins over unfinished sub-games.  Every
    pi-base holds every minimal open M of X, and a finished sub-game on M
    has a pick in every M x N, so once every sub-game is finished the picks
    are dense and the game is over: an idle state is an
    ``InvariantViolation`` in every variant.
    """

    def __init__(self, prod: ProductSpace):
        if len(prod.factors) != 2:
            raise ValueError("product strategy wants exactly two factors")
        self.prod = prod
        self.base = minimal_pi_base(prod.factors[0])
        self.y_mins = minimal_opens(prod.factors[1])

    def initial_state(self):
        return (0, (0,) * len(self.base))

    def _current(self, state):
        cursor, played = state
        for step in range(len(played)):
            idx = (cursor + step) % len(played)
            if played[idx] < len(self.y_mins):
                return idx
        raise InvariantViolation("all sub-games finished before the game ended")

    def choose(self, closed, state):
        idx = self._current(state)
        return self.prod.box_mask([self.base.members[idx], self.y_mins[state[1][idx]]])

    def observe(self, state, picks):
        idx = self._current(state)
        played = state[1]
        played = played[:idx] + (played[idx] + 1,) + played[idx + 1:]
        return ((idx + 1) % len(played), played)


def product_chooser(x: FiniteSpace, y: FiniteSpace) -> ProductChooser:
    """The product strategy: the minimal pi-base of X times that of Y.

    At every closed state the least minimal open avoiding it is the
    solver's best move in every variant (each stage covers exactly one
    minimal open), so the strategy plays optimally in each Y-game without
    a game table.
    """
    return ProductChooser(product([x, y]))


# ---------------------------------------------------------------------------
# Aggregate strategy over a family of spaces, with a phase ledger
# ---------------------------------------------------------------------------


class LedgerEntry(NamedTuple):
    stage: int
    alpha: int
    beta: int
    eta: int
    epsilon: int


class PhaseLedger(NamedTuple):
    entries: tuple[LedgerEntry, ...]

    def check_increasing(self) -> None:
        prev = None
        for e in self.entries:
            key = (e.alpha, e.beta, e.eta, e.epsilon)
            if prev is not None and key <= prev:
                raise LedgerOrderViolation(f"ledger not increasing at stage {e.stage}")
            prev = key

    def records(self):
        for e in self.entries:
            yield e._asdict()


class AggState(NamedTuple):
    picks: int
    phase: int
    ledger: tuple


class Plan(NamedTuple):
    phase: int
    move: int
    beta: int
    eta: int


class AggregateChooser:
    """Phase-decomposed strategy on a finite product of spaces.

    Phase alpha targets density of the picks projected to the alpha-th
    non-empty index set, in the order of their bitmasks.  While some
    targeted coordinate is not yet dense, the per-coordinate minimal
    pi-base moves step jointly on an open box (beta phase;
    finished coordinates are skipped and get minimal-open filler parts, the
    finite form of relabeling away void innings).  Once every targeted
    coordinate is dense but the projection still is not, the strategy walks
    the family of candidate minimal-open boxes (eta phase), each of which
    the picker is forced to hit.  Epsilon counts innings inside a phase
    triple, and the resulting (alpha, beta, eta, epsilon) log is strictly
    increasing in lexicographic order.

    The minimal opens of a subproduct are the boxes of factor minimal opens,
    and a set is dense exactly when it meets every minimal open.  So the
    projection to an index set is dense exactly when the picks meet every
    cylinder over such a box (the box on the indexed axes, the whole factor
    elsewhere); no subproduct is built.  A minimal open m meets cl(P)
    exactly when P meets m, so the minimal pi-base move on axis g, the
    first minimal open avoiding the closure of the projected picks, is the
    first cylinder of (g,) the picks miss, and the axis is finished when
    there is none; no factor closure is taken.
    """

    def __init__(self, spaces):
        self.spaces = tuple(spaces)
        k = len(self.spaces)
        if k < 1:
            raise ValueError("need at least one space")
        self.prod = product(self.spaces)
        self.gammas = [
            tuple(i for i in range(k) if g >> i & 1) for g in range(1, 1 << k)
        ]
        self.fmins = [minimal_opens(f) for f in self.spaces]
        self.pools = {}
        for gamma in self.gammas:
            pool = []
            for combo in iter_product(*[self.fmins[g] for g in gamma]):
                parts = [f.full for f in self.spaces]
                for g, m in zip(gamma, combo):
                    parts[g] = m
                pool.append((combo, self.prod.box_mask(parts)))
            self.pools[gamma] = pool
        self.plans: dict[AggState, Plan] = {}

    def initial_state(self) -> AggState:
        return AggState(picks=0, phase=0, ledger=())

    def ledger_of(self, state: AggState) -> PhaseLedger:
        return PhaseLedger(entries=state.ledger)

    def _first_missed(self, gamma, picks: int):
        """Index of the first cylinder of ``gamma`` the picks miss, or None."""
        for i, (_, cylinder) in enumerate(self.pools[gamma]):
            if not cylinder & picks:
                return i
        return None

    def _plan(self, state: AggState) -> Plan:
        """The plan at ``state``, made once: ``observe`` replays what ``choose`` planned."""
        plan = self.plans.get(state)
        if plan is None:
            plan = self.plans[state] = self._make_plan(state)
        return plan

    def _make_plan(self, state: AggState) -> Plan:
        picks = state.picks
        phase = state.phase
        while phase < len(self.gammas):
            missed = self._first_missed(self.gammas[phase], picks)
            if missed is not None:
                break
            phase += 1
        else:
            raise InvariantViolation("asked for a move after every phase target was met")
        gamma = self.gammas[phase]
        parts = [mins[0] for mins in self.fmins]
        moves = {g: self._first_missed((g,), picks) for g in gamma}
        active = [g for g in gamma if moves[g] is not None]
        if active:
            beta, eta = len(gamma) - len(active), 0
            for g in active:
                parts[g] = self.fmins[g][moves[g]]
        else:
            beta, eta = len(gamma), missed + 1
            for g, m in zip(gamma, self.pools[gamma][missed][0]):
                parts[g] = m
        move = self.prod.box_mask(parts)
        return Plan(phase, move, beta, eta)

    def choose(self, closed, state: AggState) -> int:
        return self._plan(state).move

    def observe(self, state: AggState, picks) -> AggState:
        plan = self._plan(state)
        last = state.ledger[-1] if state.ledger else None
        if last is not None and (last.alpha, last.beta, last.eta) == (plan.phase, plan.beta, plan.eta):
            epsilon = last.epsilon + 1
        else:
            epsilon = 0
        entry = LedgerEntry(len(state.ledger), plan.phase, plan.beta, plan.eta, epsilon)
        if last is not None:
            if (entry.alpha, entry.beta, entry.eta, entry.epsilon) <= (
                last.alpha, last.beta, last.eta, last.epsilon
            ):
                raise LedgerOrderViolation(f"ledger would decrease at stage {entry.stage}")
        return AggState(
            picks=state.picks | picks,
            phase=plan.phase,
            ledger=state.ledger + (entry,),
        )


def aggregate_chooser(spaces, prod: ProductSpace | None = None) -> AggregateChooser:
    """The aggregate strategy with the minimal pi-base in every factor.

    As in ``product_chooser``, the pi-base move is the solver's best move at
    every closed state, in every variant.  ``prod`` is unused: the chooser
    takes ``product(spaces)``, and the keyword stays while the benchmark's
    self-test passes it.
    """
    return AggregateChooser(spaces)


def aggregate_worst(prod: ProductSpace) -> int:
    """Worst case of the aggregate chooser on ``prod``, once per product.

    ``evaluate_chooser`` of ``aggregate_chooser(prod.factors)``, restricted;
    only the integer is kept on the product space, as ``solved_gd`` does.
    """
    return prod.space.memo("aggregate_worst", _aggregate_worst, prod)


def _aggregate_worst(prod: ProductSpace) -> int:
    return evaluate_chooser(prod.space, aggregate_chooser(prod.factors))
