from itertools import product as iter_product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openpoint.game import (
    GameVariant,
    first_point_picker,
    random_picker,
    InvariantViolation,
    StrategyTable,
    evaluate_chooser,
    optimal_picker,
    play_transcript,
    run_game,
    solve_game,
    stalling_picker,
)
from openpoint.invariants import density, invariant_report, pi_weight
from openpoint.products import product
from openpoint.space import TooLarge, bits, is_dense, minimal_opens, subspace
from openpoint.strategies import (
    LedgerEntry,
    LedgerOrderViolation,
    NotDense,
    OrderedPiBase,
    PhaseLedger,
    Plan,
    aggregate_chooser,
    aggregate_worst,
    dense_point_picker,
    minimal_pi_base,
    optimal_chooser,
    pi_base_chooser,
    product_chooser,
    table_chooser,
)

from .conftest import make_discrete, make_indiscrete, make_sierpinski, make_two_sierpinski
from .game_oracle import chooser_line_lengths
from .util import spaces


class TestOrderedPiBase:
    def test_rejects_non_pi_base(self, sierpinski):
        with pytest.raises(ValueError):
            OrderedPiBase(sierpinski, (0b11,))  # {a,b} does not sit inside {b}

    def test_rejects_non_open_member(self, sierpinski):
        with pytest.raises(ValueError):
            OrderedPiBase(sierpinski, (0b01,))

    def test_minimal_base_is_valid(self, two_sierpinski):
        base = minimal_pi_base(two_sierpinski)
        assert base.members == (0b0010, 0b1000)

    @given(spaces(max_points=4), st.data())
    @settings(max_examples=80)
    def test_accepts_exactly_what_the_all_opens_scan_accepts(self, space, data):
        # the scan over every non-empty open the check no longer runs
        nonempty = [u for u in space.opens if u]
        members = tuple(data.draw(st.lists(st.sampled_from(nonempty), min_size=1, max_size=4)))
        covered = all(any(u & m == m for m in members) for u in nonempty)
        try:
            OrderedPiBase(space, members)
        except ValueError:
            assert not covered
        else:
            assert covered


class TestPiBaseChooser:
    def test_sierpinski_plays_open_point(self, sierpinski):
        chooser = pi_base_chooser(sierpinski)
        assert chooser(0, 0) == 0b10
        assert evaluate_chooser(sierpinski, chooser) == 1

    def test_two_sierpinski_worst_case_is_pi(self, two_sierpinski):
        chooser = pi_base_chooser(two_sierpinski)
        assert evaluate_chooser(two_sierpinski, chooser) == 2 == pi_weight(two_sierpinski)

    def test_discrete_any_order(self):
        d = make_discrete(3)
        base = OrderedPiBase(d, (0b100, 0b001, 0b010))
        assert evaluate_chooser(d, pi_base_chooser(d, base)) == 3

    def test_redundant_base_still_bounded_by_length(self, two_sierpinski):
        base = OrderedPiBase(
            two_sierpinski, (0b0011, 0b0010, 0b1100, 0b1000)
        )
        worst = evaluate_chooser(two_sierpinski, pi_base_chooser(two_sierpinski, base))
        assert worst <= len(base)

    @given(spaces(max_points=4))
    @settings(max_examples=60)
    def test_plays_the_solver_best_move_at_every_closed_state(self, space):
        # the game table the product strategies no longer build, as the oracle
        table = StrategyTable(space)
        choose = pi_base_chooser(space)
        for u in space.opens:
            closed = space.full & ~u
            if closed != space.full:
                table(closed)
                assert choose(closed, 0) == table.best_move[closed], closed

    def test_any_base_order_bounded_by_length(self, small_spaces):
        # the bound must not depend on the base being minimal or well-ordered
        for space in small_spaces:
            nonempty = tuple(u for u in space.opens if u)
            for members in (nonempty, tuple(reversed(nonempty))):
                base = OrderedPiBase(space, members)
                worst = evaluate_chooser(space, pi_base_chooser(space, base))
                assert worst <= len(base), space.name


class TestDensePicker:
    def test_requires_density(self, sierpinski):
        with pytest.raises(NotDense):
            dense_point_picker(sierpinski, 0b01)

    def test_singleton_dense_set(self, sierpinski):
        picker = dense_point_picker(sierpinski, 0b10)
        assert picker(0, sierpinski.full, 0) == 0b10

    def test_lower_bound_two_sierpinski(self, two_sierpinski):
        picker = dense_point_picker(two_sierpinski, 0b1010)
        lengths = chooser_line_lengths(two_sierpinski, picker)
        target = density(subspace(two_sierpinski, 0b1010))
        assert lengths and min(lengths) >= target == 2

    def test_lower_bound_every_dense_set(self, small_spaces):
        for space in small_spaces:
            for a in range(1, space.full + 1):
                if not is_dense(space, a):
                    continue
                picker = dense_point_picker(space, a)
                lengths = chooser_line_lengths(space, picker)
                assert min(lengths) >= density(subspace(space, a))

    def test_discrete_full_set_forces_n(self):
        d = make_discrete(3)
        picker = dense_point_picker(d, d.full)
        lengths = chooser_line_lengths(d, picker)
        assert set(lengths) == {3}


class TestTableChooser:
    @pytest.mark.parametrize("make", [make_sierpinski, make_two_sierpinski,
                                      lambda: make_discrete(4)])
    def test_worst_case_equals_gd(self, make):
        space = make()
        table = solve_game(space)
        assert evaluate_chooser(space, table_chooser(table)) == table.gd

    def test_optimal_chooser_matches_table(self, two_sierpinski):
        table = solve_game(two_sierpinski)
        assert evaluate_chooser(two_sierpinski, optimal_chooser(two_sierpinski)) == table.gd

    def test_solves_states_unreachable_from_empty(self, sierpinski):
        # {a} is closed, but optimal play from the empty state never meets it
        table = solve_game(sierpinski)
        assert 0b01 not in table.value
        assert table_chooser(table)(0b01, 0) == 0b10

    @given(spaces(max_points=4))
    @settings(max_examples=60)
    def test_choosers_play_the_table_move(self, space):
        table = solve_game(space)
        optimal, from_table = optimal_chooser(space), table_chooser(table)
        for closed, move in list(table.best_move.items()):
            assert optimal(closed, 0) == from_table(closed, 0) == move


class ClosureProductChooser:
    """The product strategy that closes each sub-game's picks in Y.

    Sub-game i offers base[i] x V with V the minimal pi-base move of Y at
    the closure of the Y-projections of the points picked inside it.
    """

    def __init__(self, prod):
        self.prod = prod
        self.base = minimal_pi_base(prod.factors[0])
        self.y_space = prod.factors[1]
        self.sub_move = pi_base_chooser(self.y_space)

    def initial_state(self):
        return (0, (0,) * len(self.base))

    def _current(self, state):
        cursor, y_closeds = state
        for step in range(len(y_closeds)):
            idx = (cursor + step) % len(y_closeds)
            if y_closeds[idx] != self.y_space.full:
                return idx
        raise InvariantViolation("all sub-games finished before the game ended")

    def choose(self, closed, state):
        idx = self._current(state)
        v = self.sub_move(state[1][idx], 0)
        return self.prod.box_mask([self.base.members[idx], v])

    def observe(self, state, picks):
        idx = self._current(state)
        y_closeds = state[1]
        grown = y_closeds[idx] | self.y_space.closure_of(projection(self.prod, picks, (1,)))
        y_closeds = y_closeds[:idx] + (grown,) + y_closeds[idx + 1:]
        return ((idx + 1) % len(y_closeds), y_closeds)


class Lockstep:
    """Two choosers stepped together; each state they visit must get one offer from both."""

    def __init__(self, first, second):
        self.first, self.second = first, second
        self.visited = 0

    def initial_state(self):
        return (self.first.initial_state(), self.second.initial_state())

    def choose(self, closed, state):
        move = self.first.choose(closed, state[0])
        assert move == self.second.choose(closed, state[1]), (closed, state)
        self.visited += 1
        return move

    def observe(self, state, picks):
        return (self.first.observe(state[0], picks), self.second.observe(state[1], picks))


class TestProductChooser:
    def test_sierpinski_square(self):
        s = make_sierpinski()
        prod = product([s, s])
        chooser = product_chooser(s, s)
        worst = evaluate_chooser(prod.space, chooser)
        assert worst == 1 == solve_game(prod.space).gd

    def test_discrete_times_sierpinski_hits_bound(self):
        x, y = make_discrete(2), make_sierpinski()
        prod = product([x, y])
        chooser = product_chooser(x, y)
        worst = evaluate_chooser(prod.space, chooser)
        assert worst == 2 == pi_weight(x) * solve_game(y).gd

    def test_indiscrete_square(self):
        x = make_indiscrete(2)
        prod = product([x, x])
        worst = evaluate_chooser(prod.space, product_chooser(x, x))
        assert worst == 1

    def test_bound_between_gd_and_pi_times_gd(self):
        x, y = make_two_sierpinski(), make_sierpinski()
        prod = product([x, y])
        worst = evaluate_chooser(prod.space, product_chooser(x, y))
        assert solve_game(prod.space).gd <= worst <= pi_weight(x) * solve_game(y).gd

    @pytest.mark.parametrize("variant", list(GameVariant))
    def test_free_and_multi_point_play_never_idles(self, variant):
        x, y = make_discrete(2), make_two_sierpinski()
        prod = product([x, y])
        chooser = product_chooser(x, y)
        assert evaluate_chooser(prod.space, chooser, variant) == 4
        done = (0, (len(minimal_opens(y)),) * 2)
        with pytest.raises(InvariantViolation, match="all sub-games finished"):
            chooser.choose(0, done)

    @pytest.mark.parametrize("variant", list(GameVariant))
    def test_offers_match_the_closure_chooser_on_every_pair(self, labeled_corpus, variant):
        # the Y-closure bookkeeping the counting chooser replaced, as the
        # reference, stepped in lockstep along every picker line
        upto3 = [s for n in (1, 2, 3) for s in labeled_corpus[n]]
        pairs = list(iter_product(upto3, repeat=2))
        assert len(pairs) == 1156
        for x, y in pairs:
            prod = product([x, y])
            counting = product_chooser(x, y)
            closing = ClosureProductChooser(prod)
            both = Lockstep(counting, closing)
            worst = evaluate_chooser(prod.space, both, variant)
            assert both.visited, prod.space.name
            assert worst == evaluate_chooser(prod.space, counting, variant)
            assert worst == evaluate_chooser(prod.space, closing, variant)

    def test_plays_on_the_cached_product(self):
        x, y = make_discrete(2), make_sierpinski()
        assert product_chooser(x, y).prod is product([x, y])

    def test_transcript_against_stalling_picker(self):
        x, y = make_discrete(2), make_sierpinski()
        prod = product([x, y])
        chooser = product_chooser(x, y)
        t = play_transcript(prod.space, chooser, stalling_picker(prod.space))
        assert t.terminal and t.length <= 2


def projection(prod, mask, axes):
    """The points of the product over ``axes`` that ``mask`` projects onto.

    Read through ``decode`` on both products.
    """
    sub = product([prod.factors[a] for a in axes])
    index = {sub.decode(j): j for j in range(sub.space.n)}
    out = 0
    for idx in bits(mask):
        coords = prod.decode(idx)
        out |= 1 << index[tuple(coords[a] for a in axes)]
    return out


def closure_plan(agg, state):
    """The aggregate plan from factor closures: each active axis plays its pi-base move.

    The reference for ``AggregateChooser._make_plan``, which reads the same
    moves off its single-axis cylinders.
    """
    picks, phase = state.picks, state.phase
    while phase < len(agg.gammas):
        missed = agg._first_missed(agg.gammas[phase], picks)
        if missed is not None:
            break
        phase += 1
    gamma = agg.gammas[phase]
    closeds = {g: agg.spaces[g].closure_of(projection(agg.prod, picks, (g,))) for g in gamma}
    active = [g for g in gamma if closeds[g] != agg.spaces[g].full]
    parts = [None] * len(agg.spaces)
    if active:
        beta, eta = len(gamma) - len(active), 0
        for g in active:
            parts[g] = pi_base_chooser(agg.spaces[g])(closeds[g], 0)
    else:
        beta, eta = len(gamma), missed + 1
        for g, m in zip(gamma, agg.pools[gamma][missed][0]):
            parts[g] = m
    for g in range(len(agg.spaces)):
        if parts[g] is None:
            parts[g] = agg.fmins[g][0]
    return Plan(phase, agg.prod.box_mask(parts), beta, eta)


class TestAggregateChooser:
    def test_two_sierpinski_factors(self):
        s = make_sierpinski()
        agg = aggregate_chooser([s, s])
        worst = evaluate_chooser(agg.prod.space, agg)
        assert worst == 1  # gd(S) * gd(S)

    def test_discrete_and_sierpinski(self):
        x, y = make_discrete(2), make_sierpinski()
        agg = aggregate_chooser([x, y])
        worst = evaluate_chooser(agg.prod.space, agg)
        assert worst <= solve_game(x).gd * solve_game(y).gd

    def test_single_factor_reduces_to_sub_strategy(self):
        x = make_indiscrete(2)
        agg = aggregate_chooser([x])
        assert evaluate_chooser(agg.prod.space, agg) == 1

    def test_ledger_increasing_on_play(self):
        x, y = make_discrete(2), make_discrete(2)
        agg = aggregate_chooser([x, y])
        transcript, final = run_game(
            agg.prod.space, agg, optimal_picker(agg.prod.space), GameVariant.RESTRICTED
        )
        ledger = agg.ledger_of(final)
        ledger.check_increasing()
        assert transcript.terminal
        assert len(ledger.entries) == transcript.length
        assert [e.stage for e in ledger.entries] == list(range(transcript.length))

    def test_ledger_rejects_decrease(self):
        bad = PhaseLedger(entries=(
            LedgerEntry(0, 0, 0, 0, 0),
            LedgerEntry(1, 0, 0, 0, 1),
            LedgerEntry(2, 0, 0, 0, 1),
        ))
        with pytest.raises(LedgerOrderViolation):
            bad.check_increasing()

    def test_three_small_factors(self):
        x = make_indiscrete(2)
        y = make_discrete(2)
        agg = aggregate_chooser([x, y, x])
        worst = evaluate_chooser(agg.prod.space, agg)
        assert worst <= 2  # product of the three gd values

    @given(spaces(max_points=3), spaces(max_points=3), st.data())
    @settings(max_examples=60)
    def test_cylinder_target_matches_the_subproduct_closure(self, x, y, data):
        # the subproduct-closure phase target the chooser no longer builds
        prod = product([x, y])
        agg = aggregate_chooser([x, y])
        for _ in range(8):
            picks = data.draw(st.integers(min_value=0, max_value=prod.space.full))
            for gamma in agg.gammas:
                sub = product([agg.spaces[g] for g in gamma])
                proj = projection(prod, picks, gamma)
                dense = sub.space.closure_of(proj) == sub.space.full
                assert (agg._first_missed(gamma, picks) is None) == dense

    def test_plans_match_the_closure_plan(self, labeled_corpus):
        # every ordered pair of factors with at most 3 points, and every
        # triple with at most 2, where the eta phase fills a third axis
        upto3 = [s for n in (1, 2, 3) for s in labeled_corpus[n]]
        upto2 = [s for n in (1, 2) for s in labeled_corpus[n]]
        families = [*iter_product(upto3, repeat=2), *iter_product(upto2, repeat=3)]
        assert len(families) == 1156 + 125
        filled = 0
        for factors in families:
            prod = product(list(factors))
            for variant in (GameVariant.RESTRICTED, GameVariant.FREE):
                agg = aggregate_chooser(factors)
                evaluate_chooser(prod.space, agg, variant)
                for state, plan in agg.plans.items():
                    assert plan == closure_plan(agg, state), (prod.space.name, state)
                    filled += plan.eta > 0 and len(agg.gammas[plan.phase]) < len(factors)
        assert filled

    @pytest.mark.parametrize("variant", list(GameVariant))
    def test_each_state_is_planned_once(self, monkeypatch, variant):
        x, y = make_discrete(2), make_sierpinski()
        agg = aggregate_chooser([x, y])
        planned = []
        make_plan = agg._make_plan

        def counted(state):
            planned.append(state)
            return make_plan(state)

        monkeypatch.setattr(agg, "_make_plan", counted)
        evaluate_chooser(agg.prod.space, agg, variant)
        assert planned and len(planned) == len(set(planned)) == len(agg.plans)

    def test_plays_on_the_cached_product(self):
        x, y = make_discrete(2), make_sierpinski()
        assert aggregate_chooser([x, y]).prod is product([x, y])
        assert aggregate_chooser([x, y, x]).prod is product([x, y, x])

    def test_aggregate_worst_is_evaluated_once_per_product(self, monkeypatch):
        import openpoint.strategies as strategies

        x, y = make_discrete(2), make_sierpinski()
        prod = product([x, y])
        agg = aggregate_chooser([x, y])
        want = evaluate_chooser(prod.space, agg)
        calls = []

        def counted(*args):
            calls.append(args)
            return evaluate_chooser(*args)

        monkeypatch.setattr(strategies, "evaluate_chooser", counted)
        assert aggregate_worst(prod) == want
        assert aggregate_worst(prod) == want
        assert len(calls) == 1


class TestLargeProductWithoutLattice:
    """D4 x D5 has 2^20 opens, past the cap; nothing below reads them."""

    @pytest.fixture
    def d4xd5(self, monkeypatch):
        import openpoint.space as space_module

        x, y = make_discrete(4, name="D4"), make_discrete(5, name="D5")
        prod = product([x, y])

        def boom(*args, **kwargs):
            raise AssertionError("the lattice was enumerated")

        monkeypatch.setattr(space_module, "enumerate_upsets", boom)
        return x, y, prod

    def test_builds_and_reports_from_the_rows(self, d4xd5):
        x, y, prod = d4xd5
        assert repr(prod.space) == "FiniteSpace('D4xD5', n=20, distinct_nbhds=20)"
        assert minimal_opens(prod.space) == tuple(1 << i for i in range(20))
        assert invariant_report(prod.space).gd == 20

    @pytest.mark.parametrize("strategy", ["product", "aggregate", "pi-base"])
    @pytest.mark.parametrize("picker", [random_picker, first_point_picker], ids=["random", "first"])
    def test_plays_need_no_lattice(self, d4xd5, strategy, picker):
        x, y, prod = d4xd5
        chooser = {
            "product": lambda: product_chooser(x, y),
            "aggregate": lambda: aggregate_chooser([x, y]),
            "pi-base": lambda: pi_base_chooser(prod.space),
        }[strategy]()
        transcript = play_transcript(prod.space, chooser, picker)
        assert transcript.terminal and transcript.length == 20

    def test_reading_the_opens_hits_the_cap(self):
        prod = product([make_discrete(4), make_discrete(5)])
        with pytest.raises(TooLarge, match="131072 up-sets"):
            prod.space.opens
