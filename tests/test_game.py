import gc
import itertools
import math
import re
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openpoint.game import (
    GameVariant,
    IllegalMove,
    StrategyTable,
    _reply_closures,
    as_chooser,
    evaluate_chooser,
    exact_force_set,
    first_point_picker,
    optimal_picker,
    play_transcript,
    random_picker,
    run_game,
    solve_game,
    solved_gd,
    stalling_picker,
    table_picker,
    value_function,
)
from openpoint.invariants import delta, density
from openpoint.products import product
from openpoint.enumeration import enumerate_labeled
from openpoint.strategies import (
    aggregate_chooser,
    optimal_chooser,
    pi_base_chooser,
    product_chooser,
    table_chooser,
)
from openpoint.space import (
    FiniteSpace,
    TooLarge,
    _compress,
    from_preorder,
    minimal_opens,
    subspace,
    validate_topology,
)

from .conftest import make_chain, make_cli_class_factors, make_discrete, make_indiscrete
from .game_oracle import (
    joined_closures,
    oracle_values,
    reference_evaluate_chooser,
    reference_exact_force_set,
    trace_replies,
)
from .util import spaces

ALL_VARIANTS = list(GameVariant)


class TestSolve:
    def test_sierpinski_restricted(self, sierpinski):
        table = solve_game(sierpinski)
        assert table.gd == 1
        assert table.best_move[0] == 0b10  # open point {b}

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_discrete_needs_every_point(self, n, variant):
        space = make_discrete(n)
        table = solve_game(space)
        assert table.gd == n
        # the table's moves are legal, and keep their value, under each variant's rules
        policy = lambda closed, stage: table.best_move[closed]
        assert evaluate_chooser(space, policy, variant) == n

    def test_two_sierpinski(self, two_sierpinski):
        assert solve_game(two_sierpinski).gd == 2

    def test_indiscrete(self):
        assert solve_game(make_indiscrete(3)).gd == 1

    def test_terminal_state_value_zero(self, sierpinski):
        table = solve_game(sierpinski)
        assert table.value[sierpinski.full] == 0

    @given(spaces(max_points=4))
    @settings(max_examples=60)
    def test_value_matches_unpruned_minimax(self, space):
        # oracle recursion over ALL legal opens, no minimal-move pruning
        table = solve_game(space)
        oracle = oracle_values(space)
        for closed, val in table.value.items():
            assert val == oracle[closed]

    @given(spaces(max_points=4))
    @settings(max_examples=60)
    def test_more_closure_never_hurts_the_chooser(self, space):
        table = solve_game(space)
        states = sorted(table.value)
        for a in states:
            for b in states:
                if a & b == b:  # a contains b
                    assert table.value[a] <= table.value[b]

    @given(spaces(max_points=4))
    @settings(max_examples=40)
    def test_variant_equivalences(self, space):
        # the table that matches the restricted oracle above also holds the
        # free values, where offers may meet the closure and a covered pick stalls
        table = solve_game(space)
        free = oracle_values(space, GameVariant.FREE)
        for closed, val in table.value.items():
            assert val == free[closed], closed

    @given(spaces(max_points=4))
    @settings(max_examples=40)
    def test_multi_point_matches_unpruned_oracle(self, space):
        # oracle over ALL non-empty opens and ALL non-empty reply subsets
        table = solve_game(space)
        oracle = oracle_values(space, GameVariant.MULTI_POINT)
        for closed, val in table.value.items():
            assert val == oracle[closed], closed

    def test_multi_point_branches_on_distinct_next_states(self):
        # every pick from the one open closes the space: no reply subsets
        assert solve_game(make_indiscrete(13)).gd == 1

    def test_multi_point_reply_cap(self):
        # a policy observes the picks, so evaluation enumerates reply subsets
        big = make_indiscrete(13)
        with pytest.raises(TooLarge):
            evaluate_chooser(big, lambda closed, stage: big.full, GameVariant.MULTI_POINT)

    def test_records_emitted_sorted(self, sierpinski):
        recs = list(solve_game(sierpinski).records())
        assert recs[0]["closed_set"] == []
        assert recs[0]["value"] == 1 and recs[0]["best_move"] == ["b"]


def _points(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _reference_solve(space, variant):
    """The solver before its reply list, as ``(value, best_move)`` from the empty state.

    Each state walks the points of every minimal open and, in the
    multi-point variant, builds the unions of its distinct next states anew.
    """
    clpt = space.point_closures()
    mins = minimal_opens(space)
    multi = variant is GameVariant.MULTI_POINT
    value, best = {space.full: 0}, {}

    def unions(sets):
        out = set()
        for s in sets:
            out |= {s | u for u in out}
            out.add(s)
        return out

    def visit(closed):
        got = value.get(closed)
        if got is not None:
            return got
        best_val, best_mv = math.inf, None
        for m in mins:
            if m & closed:
                continue
            if multi:
                nexts = {closed | clpt[x] for x in _points(m)}
                if len(nexts) > 1:
                    nexts = unions(nexts)
                branch = max(visit(s) for s in nexts)
            else:
                branch = max(visit(closed | clpt[x]) for x in _points(m))
            if branch < best_val:
                best_val, best_mv = branch, m
        value[closed] = best_val + 1
        if best_mv is not None:
            best[closed] = best_mv
        return best_val + 1

    visit(0)
    return value, best


class TestOracle:
    def test_a_free_offer_inside_the_closure_is_a_stall(self):
        # re-picking a covered point never ends the game, so such offers never help
        assert oracle_values(make_discrete(3), GameVariant.FREE)[0] == 3


class TestReferenceSolver:
    """The one table's values and best moves equal the reference solver's in every variant.

    The reference walks every point of an offer and every multi-point
    reply state, so this also checks that one closure per minimal open
    loses nothing.
    """

    @staticmethod
    def _assert_same(space):
        table = solve_game(space)
        for variant in ALL_VARIANTS:
            assert (table.value, table.best_move) == _reference_solve(space, variant)

    def test_every_labeled_space_up_to_four_points(self, labeled_corpus):
        for n in range(1, 5):
            for space in labeled_corpus[n]:
                self._assert_same(space)

    def test_pair_corpus_products(self, labeled_corpus):
        small = [s for n in (1, 2, 3) for s in labeled_corpus[n]]
        for x, y in itertools.product(small, repeat=2):
            self._assert_same(product([x, y]).space)

    def test_sixteen_point_product(self):
        self._assert_same(product(list(make_cli_class_factors())).space)


def _full_scan(replies, full):
    """Values and first best moves over a reply list ``(m, add)``, every reply scanned."""
    value, best = {full: 0}, {}

    def visit(closed):
        if closed not in value:
            best_val, best_mv = math.inf, None
            for m, add in replies:
                if not m & closed:
                    val = visit(closed | add)
                    if val < best_val:
                        best_val, best_mv = val, m
            value[closed] = best_val + 1
            if best_mv is not None:
                best[closed] = best_mv
        return value[closed]

    visit(0)
    return value, best


@st.composite
def reply_lists(draw):
    """A point count and replies ``(m, add)`` with m inside add, as a stage needs."""
    n = draw(st.integers(1, 6))
    full = (1 << n) - 1
    replies = []
    for m in draw(st.lists(st.integers(1, full), min_size=1, max_size=8)):
        replies.append((m, m | draw(st.integers(0, full))))
    return n, replies


class TestFloor:
    """The lazy table, cut at each state's floor, against a scan of every reply.

    After ``table(0)`` every state the lazy table holds has the complete
    table's value and best move; solving every other reachable state on
    the same table then fills it to the complete table exactly.  The
    complete table comes from ``_full_scan``, never from the table itself.
    """

    @staticmethod
    def _assert_agrees(lazy, value, best):
        assert lazy(0) == value[0]
        for closed, val in lazy.value.items():
            assert val == value[closed], closed
            assert lazy.best_move.get(closed) == best.get(closed), closed
        for closed in value:
            lazy(closed)
        assert (lazy.value, lazy.best_move) == (value, best)

    def _assert_same_as_scan(self, space):
        self._assert_agrees(StrategyTable(space), *_full_scan(_reply_closures(space), space.full))

    def test_every_labeled_space_up_to_five_points(self, labeled_corpus):
        five = list(enumerate_labeled(5))
        assert len(five) == 6942
        for space in [s for n in range(1, 5) for s in labeled_corpus[n]] + five:
            self._assert_same_as_scan(space)

    def test_pair_corpus_products(self, labeled_corpus):
        small = [s for n in (1, 2, 3) for s in labeled_corpus[n]]
        pairs = list(itertools.product(small, repeat=2))
        assert len(pairs) == 1156
        for x, y in pairs:
            self._assert_same_as_scan(product([x, y]).space)

    @pytest.mark.parametrize("factors", [
        make_cli_class_factors, lambda: (make_discrete(4), make_discrete(4)),
    ], ids=["cli-class", "D4xD4"])
    def test_large_products(self, factors):
        self._assert_same_as_scan(product(list(factors())).space)

    def test_d4_squared_solves_one_line(self):
        # every closure is one point, so every reply meets the floor: the
        # value from the empty state reads one state per stage
        d4 = make_discrete(4)
        space = product([d4, d4]).space
        lazy = StrategyTable(space)
        assert lazy.gd == 16 and len(lazy.value) <= 17
        assert len(solve_game(space).value) == 1 << 16

    # On a finite space every reply covers one minimal open, so the replies
    # from a state are all worth the same and any cut lands on a best move.
    # The lemma needs only that a stage adds at most ``a`` points, so it is
    # checked on reply lists whose replies differ, where a floor set too
    # high would stop at a worse reply.
    def _assert_a_later_reply_wins(self, space):
        p = [1 << i for i in range(6)]
        # the first reply leaves five points, which take two more stages;
        # the second leaves three, which the third closes in one
        replies = [(p[0], p[0]), (p[1], p[1] | p[2] | p[3]), (p[4], p[0] | p[4] | p[5])]
        lazy = StrategyTable(space, replies)
        assert (lazy.gd, lazy.best_move[0]) == (2, p[1])
        self._assert_agrees(lazy, *_full_scan(replies, (1 << 6) - 1))

    def test_a_later_reply_can_be_the_best(self):
        self._assert_a_later_reply_wins(make_discrete(6))

    def test_a_trace_floor_counts_its_own_points(self):
        # the same replies on 6 of 7 points: a floor that counted all 7
        # would stop at the first reply
        self._assert_a_later_reply_wins(make_discrete(7))

    @given(reply_lists())
    @settings(max_examples=200)
    def test_any_reply_list(self, case):
        n, replies = case
        lazy = StrategyTable(make_discrete(n), replies)
        self._assert_agrees(lazy, *_full_scan(replies, joined_closures(replies)))

    def test_lazy_table_keeps_the_state_cap(self, monkeypatch):
        import openpoint.game as game

        # D3 x D7: 21 minimal opens, 2^21 states in the complete table and
        # 22 in the lazy one, which the cap counts as it stores them
        space = product([make_discrete(3), make_discrete(7)]).space
        lazy = StrategyTable(space)
        assert lazy.gd == 21 and len(lazy.value) == 22
        monkeypatch.setattr(game, "STATES_CAP", 22)
        assert StrategyTable(space).gd == 21
        monkeypatch.setattr(game, "STATES_CAP", 21)
        with pytest.raises(TooLarge, match="cap of 21 states"):
            StrategyTable(space).gd

    def test_a_floor_that_cannot_cut_meets_the_cap(self, monkeypatch):
        import openpoint.game as game

        # the open point 0 has the points 1..6 in its closure; 7..12 are
        # isolated.  The widest reply closes 7 of the 13 points, so no
        # floor passes 2 while the values run up to 7: almost no scan is cut
        rows = [0b1] + [0b1 | 1 << x for x in range(1, 7)] + [1 << x for x in range(7, 13)]
        space = from_preorder(rows)
        table = StrategyTable(space)
        assert table.gd == 7
        assert len(table.value) == 127  # all but one of the 2^7 reachable states
        monkeypatch.setattr(game, "STATES_CAP", 64)
        with pytest.raises(TooLarge, match="cap of 64 states"):
            StrategyTable(space).gd

    def test_the_walk_is_refused_once_it_has_seen_more_states_than_the_cap(self, monkeypatch):
        import openpoint.game as game

        # D20 has 2^20 reachable states.  Under a cap of 1,000 the walk has
        # seen 1,310 of them when the table stores its 1,000th: the count of
        # states seen refuses it first
        monkeypatch.setattr(game, "STATES_CAP", 1000)
        with pytest.raises(TooLarge, match="more reachable states than the cap of 1000 states"):
            solve_game(from_preorder([1 << x for x in range(20)]))

    def test_a_walk_of_exactly_the_cap_is_solved(self, monkeypatch):
        import openpoint.game as game

        # D6: 64 reachable states, each stored
        monkeypatch.setattr(game, "STATES_CAP", 64)
        assert len(solve_game(make_discrete(6)).value) == 64
        monkeypatch.setattr(game, "STATES_CAP", 63)
        with pytest.raises(TooLarge, match="cap of 63 states"):
            solve_game(make_discrete(6))

    def test_d32_squared_needs_no_recursion(self):
        # 1,024 stages from the empty state, past the default recursion limit
        d32 = from_preorder([1 << x for x in range(32)])
        space = product([d32, d32]).space
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            lazy = StrategyTable(space)
            assert lazy.gd == 1024 and len(lazy.value) <= 1025
        finally:
            sys.setrecursionlimit(limit)


class TestTrace:
    """The table on the reply list of S against the table of ``subspace(space, S)``.

    ``subspace`` re-indexes S by ``_compress``, an increasing map, so the
    trace table relabeled by it must be that subspace's table exactly.  The
    trace table is completed as in ``TestFloor``: its lazy solve, then
    every state of the subspace's complete table, mapped back into S.  Its
    replies are the reference ``trace_replies``, found for any S.
    """

    @staticmethod
    def _relabeled(table, s):
        members = list(_points(s))
        return ({_compress(c, members): v for c, v in table.value.items()},
                {_compress(c, members): _compress(m, members) for c, m in table.best_move.items()})

    def test_complete_tables_match_every_subspace(self, labeled_corpus):
        for space in [s for n in range(1, 5) for s in labeled_corpus[n]]:
            for s in range(1, space.full + 1):
                members = list(_points(s))
                sub = solve_game(subspace(space, s))
                trace = StrategyTable(space, trace_replies(space, s))
                assert trace.gd == sub.gd
                for c in sub.value:
                    trace(sum(1 << members[i] for i in _points(c)))
                assert all(c & s == c for c in [*trace.value, *trace.best_move.values()])
                assert self._relabeled(trace, s) == (sub.value, sub.best_move), (space, s)

    def test_gd_on_the_oracle_corpus(self, oracle_corpus):
        five = [space for space in oracle_corpus if space.n == 5]
        assert len(five) == 992
        for space in five:
            for s in range(1, space.full + 1):
                trace = StrategyTable(space, trace_replies(space, s))
                assert trace.gd == solved_gd(subspace(space, s)), (space, s)

    def test_the_cap_counts_the_trace_states(self, monkeypatch):
        import openpoint.game as game

        # D3 x D7: a trace on 20 of the 21 points solves one line of 21 states
        space = product([make_discrete(3), make_discrete(7)]).space
        for x in range(space.n):
            within = space.full & ~(1 << x)
            trace = StrategyTable(space, trace_replies(space, within))
            assert trace.gd == 20 and len(trace.value) == 21
        last = space.full - 1
        monkeypatch.setattr(game, "STATES_CAP", 21)
        assert StrategyTable(space, trace_replies(space, last)).gd == 20
        monkeypatch.setattr(game, "STATES_CAP", 20)
        with pytest.raises(TooLarge, match="cap of 20 states"):
            StrategyTable(space, trace_replies(space, last)).gd

    def test_union_of_reply_closures_is_the_subset(self, oracle_corpus):
        # the table's terminal state: each x in S has a minimal trace m in
        # N(x) & S, and x lies in the closure of every point of m
        subsets = 0
        for space in oracle_corpus:
            assert joined_closures(_reply_closures(space)) == space.full, space.name
            for s in range(1, space.full + 1):
                assert joined_closures(trace_replies(space, s)) == s, (space.name, s)
            subsets += space.full
        assert (len(oracle_corpus), subsets) == (1381, 36293)

    def test_the_whole_space_list_is_its_trace_list(self, labeled_corpus):
        for space in [s for n in range(1, 5) for s in labeled_corpus[n]]:
            assert _reply_closures(space) == trace_replies(space, space.full), space.name


class TestReplyList:
    def test_points_of_a_minimal_open_share_one_closure(self, labeled_corpus):
        cases = [s for n in range(1, 5) for s in labeled_corpus[n]]
        cases.append(product(list(make_cli_class_factors())).space)
        for space in cases:
            clpt = space.point_closures()
            for m in minimal_opens(space):
                assert len({clpt[x] for x in _points(m)}) == 1, (space, m)

    @pytest.mark.parametrize("replies", [
        [(0b10, 0b01), (0b01, 0b11)],  # ({b}, {a}) leads {a} back to itself
        [(0b00, 0b01), (0b10, 0b11)],  # an empty open is legal at {a} and leads back to it
    ], ids=["open-outside-its-closure", "empty-open"])
    def test_a_reply_that_cannot_grow_the_state_is_refused(self, replies):
        # refused when the table is built: solving it would push the same
        # state on its stack until memory runs out
        bad = replies[0]
        with pytest.raises(ValueError, match=re.escape(f"({bad[0]:#b}, {bad[1]:#b})")):
            StrategyTable(make_discrete(2), replies)

    @pytest.fixture
    def reads(self, monkeypatch):
        """Names of the setup reads made while the patch is on, one entry per call."""
        import openpoint.game as game

        got = []
        mins, clpt = game.minimal_opens, FiniteSpace.point_closures

        def counted_mins(space):
            got.append("minimal_opens")
            return mins(space)

        def counted_clpt(space):
            got.append("point_closures")
            return clpt(space)

        monkeypatch.setattr(game, "minimal_opens", counted_mins)
        monkeypatch.setattr(FiniteSpace, "point_closures", counted_clpt)
        return got

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_built_once_per_table(self, reads, variant):
        # the one table serves every variant: its values agree with the
        # variant's reference, and its setup reads happen once
        space = product(list(make_cli_class_factors())).space
        clpt = space.point_closures()
        ref_value, _ = _reference_solve(space, variant)
        reads.clear()
        table = value_function(space)
        table(0)
        # next states off the reachable set are solved by later calls
        for closed in list(table.value):
            for c in clpt:
                table(closed | c)
        assert len(table.value) > 1 << len(minimal_opens(space))
        assert sorted(reads) == ["minimal_opens", "point_closures"]
        assert all(table.value[s] == v for s, v in ref_value.items())

    def test_exact_force_reads_once(self, reads):
        space = product(list(make_cli_class_factors())).space
        reads.clear()
        assert exact_force_set(space) == {6}
        assert sorted(reads) == ["minimal_opens", "point_closures"]


class TestSolvedGd:
    def test_solved_once_per_space(self, monkeypatch):
        import openpoint.game as game

        calls = []

        def counting(space):
            calls.append(space)
            return SimpleNamespace(gd=10 + len(calls))

        monkeypatch.setattr(game, "StrategyTable", counting)
        space, other = make_discrete(2), make_discrete(3)
        for _ in range(2):
            assert (solved_gd(space), solved_gd(other)) == (11, 12)
        assert calls == [space, other]

    def test_matches_the_solver(self, labeled_corpus):
        for space in labeled_corpus[3]:
            assert solved_gd(space) == solve_game(space).gd


def _evaluate_aggregate(factors):
    chooser = aggregate_chooser(factors)
    return evaluate_chooser(chooser.prod.space, chooser)


class TestNoReferenceCycle:
    """A walk over the states drops everything it made when it returns.

    With the cyclic collector off, a reference cycle left by one call
    would be found by the next ``gc.collect()``.
    """

    @pytest.mark.parametrize("walk", [
        lambda space: StrategyTable(space)(0), solve_game, exact_force_set,
        lambda space: evaluate_chooser(space, pi_base_chooser(space)),
        lambda space: _evaluate_aggregate([space]),
    ], ids=["StrategyTable", "solve_game", "exact_force_set",
            "evaluate_chooser-pi-base", "evaluate_chooser-aggregate"])
    def test_one_call_leaves_nothing_to_collect(self, walk):
        space = make_discrete(4)
        gc.collect()
        gc.disable()
        try:
            walk(space)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestExactForce:
    def test_sierpinski(self, sierpinski):
        assert exact_force_set(sierpinski) == {1}

    def test_discrete_two(self):
        assert exact_force_set(make_discrete(2)) == {2}

    def test_indiscrete_three(self):
        assert exact_force_set(make_indiscrete(3)) == {1}

    def test_split_three_point_space(self):
        s = validate_topology(["a", "b", "c"], [[], ["a"], ["b", "c"], ["a", "b", "c"]])
        assert exact_force_set(s) == {2}

    @given(spaces(max_points=4))
    @settings(max_examples=60)
    def test_every_forced_length_is_the_collapsed_invariant(self, space):
        forced = exact_force_set(space)
        gd = solve_game(space).gd
        for k in forced:
            assert k == gd == delta(space) == density(space)

    def test_every_labeled_space_up_to_five_points_matches_the_recursive_form(self, labeled_corpus):
        five = list(enumerate_labeled(5))
        for space in [s for n in range(1, 5) for s in labeled_corpus[n]] + five:
            assert exact_force_set(space) == reference_exact_force_set(space)

    def test_pair_corpus_products_match_the_recursive_form(self, labeled_corpus):
        small = [s for n in (1, 2, 3) for s in labeled_corpus[n]]
        for x, y in itertools.product(small, repeat=2):
            space = product([x, y]).space
            assert exact_force_set(space) == reference_exact_force_set(space)

    def test_the_walk_is_refused_once_it_has_seen_more_states_than_the_cap(self, monkeypatch):
        import openpoint.game as game

        # D12 has 2^12 reachable states; D6 has 64, each needed
        monkeypatch.setattr(game, "STATES_CAP", 1000)
        with pytest.raises(TooLarge, match="more reachable states than the cap of 1000 states"):
            exact_force_set(from_preorder([1 << x for x in range(12)]))
        monkeypatch.setattr(game, "STATES_CAP", 64)
        assert exact_force_set(make_discrete(6)) == {6}
        monkeypatch.setattr(game, "STATES_CAP", 63)
        with pytest.raises(TooLarge, match="more reachable states than the cap of 63 states"):
            exact_force_set(make_discrete(6))

    def test_d32_squared_is_refused_without_recursion(self, monkeypatch):
        import openpoint.game as game

        # a line of 1,024 stages; the walk has seen more than 10,000 states
        # after expanding about ten of them
        d32 = from_preorder([1 << x for x in range(32)])
        space = product([d32, d32]).space
        monkeypatch.setattr(game, "STATES_CAP", 10_000)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            with pytest.raises(TooLarge, match="more reachable states than the cap of 10000 states"):
                exact_force_set(space)
        finally:
            sys.setrecursionlimit(limit)


class TestEvaluate:
    def test_optimal_play_matches_gd(self, sierpinski):
        table = solve_game(sierpinski)
        policy = lambda closed, stage: table.best_move[closed]
        assert evaluate_chooser(sierpinski, policy) == 1

    def test_discrete_any_legal_policy(self):
        d = make_discrete(3)
        policy = lambda closed, stage: (d.full ^ closed) & -(d.full ^ closed)
        assert evaluate_chooser(d, policy) == 3

    def test_illegal_offer_identified(self, sierpinski):
        policy = lambda closed, stage: 0
        with pytest.raises(IllegalMove) as err:
            evaluate_chooser(sierpinski, policy)
        assert err.value.offender == "chooser"

    @pytest.mark.parametrize("space", [make_discrete(3), make_discrete(8),
                                       product(list(make_cli_class_factors())).space],
                             ids=["D3", "D8", "product16"])
    def test_illegal_move_outside_the_points_names_the_raw_mask(self, space):
        for move in (1 << space.n, -1):
            with pytest.raises(IllegalMove, match=rf"^chooser played mask {move}, not a set of the "
                                                  rf"{space.n} points, at closed state \[\]: offer is"):
                evaluate_chooser(space, lambda closed, stage: move)

    @pytest.mark.parametrize("move", [None, 1.5, "x"])
    def test_an_offer_that_is_no_int_is_illegal(self, sierpinski, move):
        with pytest.raises(IllegalMove, match=rf"^chooser played mask {re.escape(repr(move))}, not a set of the 2 points, "
                                              r"at closed state \[\]: an offer is an int mask$"):
            evaluate_chooser(sierpinski, lambda closed, stage: move)

    def test_restricted_rejects_overlapping_offer(self, sierpinski):
        policy = lambda closed, stage: sierpinski.full
        # first offer is fine; the follow-up meets the closure
        with pytest.raises(IllegalMove):
            evaluate_chooser(sierpinski, policy, GameVariant.RESTRICTED)

    def test_free_stall_is_infinite(self, sierpinski):
        policy = lambda closed, stage: sierpinski.full
        assert evaluate_chooser(sierpinski, policy, GameVariant.FREE) == math.inf

    @pytest.mark.parametrize("chooser", [
        lambda d, prod: pi_base_chooser(prod.space),
        lambda d, prod: optimal_chooser(prod.space),
        lambda d, prod: product_chooser(d, d),
        lambda d, prod: aggregate_chooser([d, d]),
    ], ids=["pi-base", "optimal", "product", "aggregate"])
    def test_d32_squared_needs_no_recursion(self, chooser):
        # 1,024 stages from the empty state, past the default recursion limit
        d32 = from_preorder([1 << x for x in range(32)])
        prod = product([d32, d32])
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            assert evaluate_chooser(prod.space, chooser(d32, prod)) == 1024
        finally:
            sys.setrecursionlimit(limit)


class _Recorder:
    """Forward every chooser call to ``policy`` and log it, in order.

    With ``illegal_on`` = k, the k-th offer is replaced by the empty set.
    """

    def __init__(self, policy, illegal_on=None):
        self.inner, self.illegal_on, self.offers, self.log = as_chooser(policy), illegal_on, 0, []

    def initial_state(self):
        self.log.append(("initial_state",))
        return self.inner.initial_state()

    def choose(self, closed, state):
        self.log.append(("choose", closed, state))
        self.offers += 1
        move = self.inner.choose(closed, state)
        return 0 if self.offers == self.illegal_on else move

    def observe(self, state, picks):
        self.log.append(("observe", state, picks))
        return self.inner.observe(state, picks)


class TestEvaluateAgainstTheRecursiveForm:
    """The frame stack against ``reference_evaluate_chooser``: the value and every call, in order.

    Each walk gets a fresh chooser from ``make``, wrapped in a recorder.
    """

    @staticmethod
    def _assert_same(space, make, variant=GameVariant.RESTRICTED):
        new, ref = _Recorder(make()), _Recorder(make())
        assert evaluate_chooser(space, new, variant) == reference_evaluate_chooser(space, ref, variant)
        assert new.log == ref.log
        return len(new.log)

    def test_pair_corpus_products(self, labeled_corpus):
        small = [s for n in (1, 2, 3) for s in labeled_corpus[n]]
        calls = 0
        for x, y in itertools.product(small, repeat=2):
            space = product([x, y]).space
            for make in (lambda: product_chooser(x, y), lambda: aggregate_chooser([x, y]),
                         lambda: pi_base_chooser(space)):
                calls += self._assert_same(space, make)
        assert calls > 10_000

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_every_labeled_space_up_to_four_points(self, labeled_corpus, variant):
        for n in range(1, 5):
            for space in labeled_corpus[n]:
                self._assert_same(space, lambda: pi_base_chooser(space), variant)
                self._assert_same(space, lambda: optimal_chooser(space), variant)

    @pytest.mark.parametrize("variant", [GameVariant.FREE, GameVariant.MULTI_POINT])
    def test_stalls(self, labeled_corpus, variant):
        # offering every point lets the picker re-pick a covered one
        for space in labeled_corpus[3]:
            self._assert_same(space, lambda: lambda closed, stage: space.full, variant)

    def test_the_same_illegal_offer_is_named_first(self, labeled_corpus):
        x, y = make_discrete(2), labeled_corpus[2][1]
        for space, make in [(s, lambda s=s: pi_base_chooser(s)) for s in labeled_corpus[3]] + [
            (product([x, y]).space, lambda: aggregate_chooser([x, y])),
            (product([y, x]).space, lambda: product_chooser(y, x)),
        ]:
            clean = _Recorder(make())
            evaluate_chooser(space, clean)
            for k in range(1, clean.offers + 1):
                new, ref = _Recorder(make(), k), _Recorder(make(), k)
                with pytest.raises(IllegalMove) as got:
                    evaluate_chooser(space, new)
                with pytest.raises(IllegalMove) as want:
                    reference_evaluate_chooser(space, ref)
                assert str(got.value) == str(want.value)
                assert new.log == ref.log


class TestPlay:
    def test_optimal_against_optimal_on_d4_cubed(self):
        d4 = make_discrete(4)
        space = product([d4, d4, d4]).space
        table = StrategyTable(space)
        transcript, _ = run_game(space, table_chooser(table), table_picker(table),
                                 GameVariant.RESTRICTED)
        assert transcript.length == table.gd == 64
        assert len(table.value) == 65  # both players read the one line it solved

    def test_optimal_vs_optimal_sierpinski(self, sierpinski):
        table = solve_game(sierpinski)
        chooser = lambda closed, stage: table.best_move[closed]
        t = play_transcript(sierpinski, chooser, optimal_picker(sierpinski))
        assert t.terminal and t.length == 1

    def test_discrete2_random_picker_any_seed(self):
        d = make_discrete(2)
        table = solve_game(d)
        chooser = lambda closed, stage: table.best_move[closed]
        t = play_transcript(d, chooser, random_picker, seed=7)
        assert t.length == 2

    def test_transcript_closures_increase(self, two_sierpinski):
        table = solve_game(two_sierpinski)
        chooser = lambda closed, stage: table.best_move[closed]
        t = play_transcript(two_sierpinski, chooser, stalling_picker(two_sierpinski))
        t.validate()
        assert t.length == 2

    def test_stalling_picker_grows_the_closure_least(self, sierpinski):
        # cl{a} = {a} and cl{b} = {a, b}: offered both, it picks a
        assert stalling_picker(sierpinski)(0, 0b11, 0) == 0b01
        # a tie on the closure's size goes to the lower point
        assert stalling_picker(make_discrete(3))(0, 0b110, 0) == 0b010

    def test_picker_outside_open_rejected(self, sierpinski):
        table = solve_game(sierpinski)
        chooser = lambda closed, stage: table.best_move[closed]
        bad_picker = lambda closed, offered, stage, rng: 0b01  # a is never in {b}
        with pytest.raises(IllegalMove) as err:
            play_transcript(sierpinski, chooser, bad_picker)
        assert err.value.offender == "picker"

    @pytest.mark.parametrize("pick", [None, 1.5, "x"])
    def test_a_pick_that_is_no_int_is_illegal(self, sierpinski, pick):
        chooser = lambda closed, stage: 0b10
        with pytest.raises(IllegalMove, match=rf"^picker played mask {re.escape(repr(pick))}, not a set of the 2 points, "
                                              r"at closed state \[\]: a pick is an int mask$"):
            run_game(sierpinski, chooser, lambda closed, offered, stage, rng: pick, GameVariant.RESTRICTED)

    def test_deterministic_given_seed(self):
        d = make_discrete(4)
        table = solve_game(d)
        chooser = lambda closed, stage: table.best_move[closed]
        a = play_transcript(d, chooser, random_picker, seed=42)
        b = play_transcript(d, chooser, random_picker, seed=42)
        assert a.steps == b.steps

    def test_first_point_picker_on_chain(self):
        c = make_chain(3)
        table = solve_game(c)
        chooser = lambda closed, stage: table.best_move[closed]
        t = play_transcript(c, chooser, first_point_picker)
        assert t.length == 1
