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

    @given(spaces(max_points=4), st.sampled_from(list(GameVariant)))
    @settings(max_examples=60)
    def test_plays_the_solver_best_move_at_every_closed_state(self, space, variant):
        # the game table the product strategies no longer build, as the oracle
        table = StrategyTable(space, variant)
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


def traverse_all_chooser_lines(space, picker, variant=GameVariant.RESTRICTED):
    """Lengths of every play where the chooser tries every legal open."""
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


class TestDensePicker:
    def test_requires_density(self, sierpinski):
        with pytest.raises(NotDense):
            dense_point_picker(sierpinski, 0b01)

    def test_singleton_dense_set(self, sierpinski):
        picker = dense_point_picker(sierpinski, 0b10)
        assert picker(0, sierpinski.full, 0) == 0b10

    def test_lower_bound_two_sierpinski(self, two_sierpinski):
        picker = dense_point_picker(two_sierpinski, 0b1010)
        lengths = traverse_all_chooser_lines(two_sierpinski, picker)
        target = density(subspace(two_sierpinski, 0b1010))
        assert lengths and min(lengths) >= target == 2

    def test_lower_bound_every_dense_set(self, small_spaces):
        for space in small_spaces:
            for a in range(1, space.full + 1):
                if not is_dense(space, a):
                    continue
                picker = dense_point_picker(space, a)
                lengths = traverse_all_chooser_lines(space, picker)
                assert min(lengths) >= density(subspace(space, a))

    def test_discrete_full_set_forces_n(self):
        d = make_discrete(3)
        picker = dense_point_picker(d, d.full)
        lengths = traverse_all_chooser_lines(d, picker)
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

    @given(spaces(max_points=4), st.sampled_from(list(GameVariant)))
    @settings(max_examples=60)
    def test_choosers_play_the_table_move(self, space, variant):
        table = solve_game(space, variant)
        optimal, from_table = optimal_chooser(space, variant), table_chooser(table)
        for closed, move in list(table.best_move.items()):
            assert optimal(closed, 0) == from_table(closed, 0) == move


class TestProductChooser:
    def test_sierpinski_square(self):
        s = make_sierpinski()
        prod = product([s, s])
        chooser = product_chooser(s, s, prod=prod)
        worst = evaluate_chooser(prod.space, chooser)
        assert worst == 1 == solve_game(prod.space).gd

    def test_discrete_times_sierpinski_hits_bound(self):
        x, y = make_discrete(2), make_sierpinski()
        prod = product([x, y])
        chooser = product_chooser(x, y, prod=prod)
        worst = evaluate_chooser(prod.space, chooser)
        assert worst == 2 == pi_weight(x) * solve_game(y).gd

    def test_indiscrete_square(self):
        x = make_indiscrete(2)
        prod = product([x, x])
        worst = evaluate_chooser(prod.space, product_chooser(x, x, prod=prod))
        assert worst == 1

    def test_bound_between_gd_and_pi_times_gd(self):
        x, y = make_two_sierpinski(), make_sierpinski()
        prod = product([x, y])
        worst = evaluate_chooser(prod.space, product_chooser(x, y, prod=prod))
        assert solve_game(prod.space).gd <= worst <= pi_weight(x) * solve_game(y).gd

    @pytest.mark.parametrize("variant", list(GameVariant))
    def test_free_and_multi_point_play_never_idles(self, variant):
        x, y = make_discrete(2), make_two_sierpinski()
        prod = product([x, y])
        chooser = product_chooser(x, y, prod=prod)
        assert evaluate_chooser(prod.space, chooser, variant) == 4
        done = (0, (y.full, y.full))
        with pytest.raises(InvariantViolation, match="all sub-games finished"):
            chooser.choose(0, done)

    def test_transcript_against_stalling_picker(self):
        x, y = make_discrete(2), make_sierpinski()
        prod = product([x, y])
        chooser = product_chooser(x, y, prod=prod)
        t = play_transcript(prod.space, chooser, stalling_picker(prod.space))
        assert t.terminal and t.length <= 2


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
        agg = aggregate_chooser([x, y], prod=prod)
        for _ in range(8):
            picks = data.draw(st.integers(min_value=0, max_value=prod.space.full))
            for gamma in agg.gammas:
                sub = product([agg.spaces[g] for g in gamma])
                proj = 0
                for idx in bits(picks):
                    coords = prod.decode(idx)
                    proj |= 1 << sub.encode(tuple(coords[g] for g in gamma))
                dense = sub.space.closure_of(proj) == sub.space.full
                assert (agg._first_missed(gamma, picks) is None) == dense

    @pytest.mark.parametrize("variant", list(GameVariant))
    def test_aggregate_worst_is_evaluated_once_per_product_and_variant(self, monkeypatch,
                                                                      variant):
        import openpoint.strategies as strategies

        x, y = make_discrete(2), make_sierpinski()
        prod = product([x, y])
        agg = aggregate_chooser([x, y], prod=prod)
        want = evaluate_chooser(prod.space, agg, variant)
        calls = []

        def counted(*args):
            calls.append(args)
            return evaluate_chooser(*args)

        monkeypatch.setattr(strategies, "evaluate_chooser", counted)
        assert aggregate_worst(prod, variant) == want
        assert aggregate_worst(prod, variant) == want
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
            "product": lambda: product_chooser(x, y, prod=prod),
            "aggregate": lambda: aggregate_chooser([x, y], prod=prod),
            "pi-base": lambda: pi_base_chooser(prod.space),
        }[strategy]()
        transcript = play_transcript(prod.space, chooser, picker)
        assert transcript.terminal and transcript.length == 20

    def test_reading_the_opens_hits_the_cap(self):
        prod = product([make_discrete(4), make_discrete(5)])
        with pytest.raises(TooLarge, match="131072 up-sets"):
            prod.space.opens
