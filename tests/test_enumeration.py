import gc
import weakref
from array import array
from dataclasses import replace
from functools import cache
from itertools import permutations
from math import factorial
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from openpoint import enumeration
from openpoint.enumeration import (
    PAIR_CHECKS,
    SPACE_CHECKS,
    _additivity_failure,
    _check_dense_lower_bound,
    _check_exact_force,
    _check_kuratowski,
    _check_metric,
    _check_oracles,
    _check_subspace_monotone,
    _check_variants,
    _picker_replies,
    canonical_form,
    enumerate_labeled,
    enumerate_unlabeled,
    verify_suite,
)
from openpoint.game import GameVariant, StrategyTable
from openpoint.products import FanStatus, product
from openpoint.space import FiniteSpace, TooLarge, bits, closures, is_dense, space_from_masks
from openpoint.strategies import dense_point_picker

from .conftest import make_discrete, make_indiscrete, make_sierpinski, make_two_sierpinski
from .game_oracle import chooser_line_lengths, joined_closures, trace_replies
from .util import closure_tables, spaces

LABELED_COUNTS = {1: 1, 2: 4, 3: 29, 4: 355}
UNLABELED_COUNTS = {1: 1, 2: 3, 3: 9, 4: 33}


def _permute_mask(mask, perm):
    out = 0
    for i in bits(mask):
        out |= 1 << perm[i]
    return out


def all_pairs_additivity_failure(cls):
    """The first pair s < t of subsets, in order, with cl(s | t) other than cl(s) | cl(t)."""
    for s, cs in enumerate(cls):
        for t in range(s + 1, len(cls)):
            if cls[s | t] != cs | cls[t]:
                return {"subset": s, "other": t}
    return None


def brute_canonical_form(space):
    """Least sorted-opens tuple, relabeling every open bit by bit."""
    return min(
        tuple(sorted(_permute_mask(u, perm) for u in space.opens))
        for perm in permutations(range(space.n))
    )


@cache
def _relabelings(n):
    """One table per permutation of n points: entry m is the image of mask m."""
    tables = []
    for perm in permutations(range(n)):
        img = [0] * (1 << n)
        for m in range(1, 1 << n):
            low = m & -m
            img[m] = img[m ^ low] | 1 << perm[low.bit_length() - 1]
        tables.append(tuple(img))
    return tuple(tables)


def sorted_image_form(space):
    """Least sorted-opens tuple, one sort per relabeling table: the form before packed keys."""
    opens = space.opens
    return min(tuple(sorted(map(t.__getitem__, opens))) for t in _relabelings(space.n))


@st.composite
def equal_size_mask_sets(draw):
    """(n, A, B): two sets of masks of n points, of one size."""
    n = draw(st.integers(1, 6))
    size = draw(st.integers(1, min(12, 1 << n)))
    masks = st.sets(st.integers(0, (1 << n) - 1), min_size=size, max_size=size)
    return n, draw(masks), draw(masks)


# One broken route per check: (check, the name it reads on ``enumeration``,
# the break, given the real route, and the failure payload).  Space checks
# run on ``make_two_sierpinski()``: points a, b, c, d as bits 0-3, minimal
# opens {b} and {d}, gd 2.  Pair checks run on D2 x S, gd 2 * 1.
BROKEN_ROUTES = [
    ("kuratowski", "closures",  # cl{a, c} = everything: not additive
     lambda real: lambda space: tuple(space.full if s == 0b0101 else c
                                      for s, c in enumerate(real(space))),
     {"subset": 0b0001, "other": 0b0100}),
    ("roundtrip", "from_preorder",  # every row the whole space
     lambda real: lambda rows: real([(1 << len(rows)) - 1] * len(rows)),
     {"rebuilt_opens": [0, 0b1111]}),
    ("minimal-opens", "minimal_opens",  # {b} dropped
     lambda real: lambda space: real(space)[1:],
     {"uncovered_open": 0b0010}),
    ("chain", "invariant_report",
     lambda real: lambda space: replace(real(space), d=3),
     {"space": "two_sierpinski", "n": 4, "d": 3, "delta": 2, "gd": 2, "pi": 2, "w": 4, "t": 1}),
    ("collapse", "density_brute",
     lambda real: lambda space: real(space) + 1,
     {"space": "two_sierpinski", "n": 4, "d": 3, "delta": 2, "gd": 2, "pi": 2, "w": 4, "t": 1}),
    ("pi-base-bound", "evaluate_chooser",
     lambda real: lambda space, policy: real(space, policy) + 1,
     {"worst": 3, "pi": 2}),
    ("value-monotone", "solve_game",  # the empty state claims the game is over
     lambda real: lambda space: SimpleNamespace(value={**real(space).value, 0: 0}),
     {"larger": 0b0011, "smaller": 0}),
    ("subspace-monotone", "StrategyTable",  # a subspace with more minimal opens
     lambda real: lambda space, replies: real(make_discrete(space.n + 1)),
     {"subset": 0b0010, "sub_gd": 5, "gd": 2}),
    ("dense-lower-bound", "dense_densities",
     lambda real: lambda space: ((a, d + 1) for a, d in real(space)),
     {"dense_set": 0b1010, "shortest": 2, "target": 3}),
    ("product-pi", "minimal_opens_via_preorder",
     lambda real: lambda factors: real(factors)[1:],
     {"minimal": [0b0010, 0b1000], "boxes": [0b0010, 0b1000], "preorder": [0b1000]}),
    ("product-gd", "product",  # D2 x D2 built in place of D2 x S
     lambda real: lambda factors: real([factors[0], factors[0]]),
     {"gd_product": 4, "gd_factors": 2}),
    ("product-strategies", "evaluate_chooser",
     lambda real: lambda space, policy: real(space, policy) + 1,
     {"product_worst": 3}),
    ("fan-link", "fan_tightness_check",  # the at-most-kappa-factors fallback
     lambda real: lambda factors, kappa, pool: replace(
         real(factors, kappa, pool), status=FanStatus.HOLDS_VIA_SUFFICIENT_CONDITION),
     {"fan": "holds-via-sufficient-condition"}),
    ("fan-link", "aggregate_worst",
     lambda real: lambda prod: real(prod) + 1,
     {"aggregate_worst": 3, "bound": 2}),
    ("metric", "greedy_run_violations",  # seed 0: the first space has 7 points
     lambda real: lambda sp: ["planted"],
     {"space": tuple(f"m{i}" for i in range(7)), "violations": ["planted"]}),
]


def _subject(check):
    """Fresh arguments for ``check``, so no memo of an earlier run answers it."""
    if check in SPACE_CHECKS:
        return (make_two_sierpinski(),)
    if check in PAIR_CHECKS:
        return (make_discrete(2), make_sierpinski())
    return (0,)


def _suite(n, checks):
    """Whether every record of the suite's stream passed, and the records."""
    records = list(verify_suite(n, checks=checks))
    return all(r["status"] == "pass" for r in records), records


class TestLabeled:
    @pytest.mark.parametrize("n,count", sorted(LABELED_COUNTS.items()))
    def test_counts_both_generators(self, n, count, labeled_corpus):
        assert len(labeled_corpus[n]) == count
        assert len(list(enumerate_labeled(n, method="family"))) == count

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_generators_agree(self, n):
        fam = [s.opens for s in enumerate_labeled(n, method="family")]
        pre = [s.opens for s in enumerate_labeled(n, method="preorder")]
        assert fam == pre
        # "both" revalidates internally and must not raise
        assert len(list(enumerate_labeled(n, method="both"))) == LABELED_COUNTS[n]

    def test_each_space_is_distinct(self, labeled_corpus):
        opens = [s.opens for s in labeled_corpus[4]]
        assert len(set(opens)) == len(opens)

    def test_family_method_capped(self):
        with pytest.raises(TooLarge):
            list(enumerate_labeled(5, method="family"))

    def test_out_of_range(self):
        with pytest.raises(TooLarge):
            list(enumerate_labeled(6))

    @pytest.mark.slow
    def test_five_point_count(self):
        assert sum(1 for _ in enumerate_labeled(5)) == 6942


class TestUnlabeled:
    @pytest.mark.parametrize("n,count", sorted(UNLABELED_COUNTS.items()))
    def test_class_counts(self, n, count, unlabeled_corpus):
        assert len(unlabeled_corpus[n]) == count

    def test_five_point_class_count(self):
        # OEIS A001930
        assert sum(1 for _ in enumerate_unlabeled(5)) == 139

    def test_representatives_are_canonical(self, unlabeled_corpus):
        for s in unlabeled_corpus[3]:
            assert canonical_form(s) == s.opens


class TestCanonicalForm:
    def test_matches_the_bitwise_relabeling(self, labeled_corpus):
        for spaces in labeled_corpus.values():
            for space in spaces:
                assert canonical_form(space) == brute_canonical_form(space), space.name

    @pytest.mark.slow
    def test_matches_the_sorted_images_at_five_points(self):
        for space in enumerate_labeled(5):
            assert canonical_form(space) == sorted_image_form(space), space.name

    def test_matches_the_sorted_images_on_six_point_products(self):
        pairs = [(x, y) for x in enumerate_labeled(2) for y in enumerate_labeled(3)]
        products = [product(list(f)).space for x, y in pairs for f in ((x, y), (y, x))]
        assert len(products) == 232 and {p.n for p in products} == {6}
        for space in products:
            assert canonical_form(space) == sorted_image_form(space), space.name

    @given(equal_size_mask_sets())
    @settings(max_examples=300)
    def test_least_differing_mask_orders_sorted_tuples(self, sets):
        """Sorted A < sorted B iff min(A ^ B) is in A, iff A's key is the larger."""
        n, a, b = sets
        top = (1 << n) - 1

        def key(masks):
            return sum(1 << top - x for x in masks)

        before = tuple(sorted(a)) < tuple(sorted(b))
        assert before == (a != b and min(a ^ b) in a) == (key(a) > key(b))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_a_field_is_one_array_item(self, n):
        code, nbytes, rows = enumeration._key_table(n)
        width = max(8, 1 << n) // 8
        assert array(code).itemsize == width
        assert nbytes == factorial(n) * width
        assert len(rows) == max(1, (1 << n) // 4)
        assert all(entry.bit_length() <= 8 * nbytes for row in rows for entry in row)

    def test_capped_past_six_points(self, monkeypatch):
        def boom(n):
            raise AssertionError("no key table past the cap")

        monkeypatch.setattr(enumeration, "_key_table", boom)
        with pytest.raises(TooLarge):
            canonical_form(make_indiscrete(7))

    @given(spaces(max_points=4))
    @settings(max_examples=40)
    def test_idempotent(self, space):
        form = canonical_form(space)
        rebuilt = space_from_masks("c", space.point_labels, form)
        assert canonical_form(rebuilt) == form

    @given(spaces(max_points=4), st.randoms(use_true_random=False))
    @settings(max_examples=40)
    def test_invariant_under_relabeling(self, space, rnd):
        perm = list(range(space.n))
        rnd.shuffle(perm)
        permuted = space_from_masks(
            "perm",
            space.point_labels,
            [sum(1 << perm[i] for i in range(space.n) if u >> i & 1) for u in space.opens],
        )
        assert canonical_form(permuted) == canonical_form(space)


class TestSuite:
    def test_chain_check_all_three_point_spaces(self):
        ok, records = _suite(3, "chain")
        assert ok
        assert len(records) == 29
        assert all(r["status"] == "pass" for r in records)

    def test_variant_check_two_point_spaces(self):
        ok, records = _suite(2, "variants")
        assert ok and len(records) == 4

    def test_variant_check_reads_the_solved_gd(self, monkeypatch):
        import openpoint.game as game

        space = make_two_sierpinski()
        assert enumeration.solved_gd(space) == 2

        def unsolvable(space):
            raise AssertionError("the variants check solved a second game")

        for name in ("StrategyTable", "solve_game"):
            monkeypatch.setattr(game, name, unsolvable)
        assert _check_variants(space) == {"_note": {"multi_equals_free": True}}

    def test_variant_check_fails_when_multi_point_play_exceeds_gd(self, monkeypatch):
        walked = []

        def too_long(space, policy, variant):
            walked.append(variant)
            return 3

        monkeypatch.setattr(enumeration, "evaluate_chooser", too_long)
        assert _check_variants(make_two_sierpinski()) == {"gd": 2, "multi": 3}
        assert walked == [GameVariant.MULTI_POINT]

    def test_monotonicity_checks_whole_corpus(self):
        for n, count in [(1, 1), (2, 4), (3, 29), (4, 355)]:
            ok, records = _suite(n, "subspace-monotone,value-monotone")
            assert ok and len(records) == 2 * count

    def test_dense_lower_bound_check_four_points(self):
        ok, records = _suite(4, "dense-lower-bound")
        assert ok and len(records) == 355

    def test_shortest_play_matches_the_unremembered_walk(self, labeled_corpus):
        for spaces in labeled_corpus.values():
            for space in spaces:
                for a in range(1, space.full + 1):
                    if is_dense(space, a):
                        picker = dense_point_picker(space, a)
                        shortest = StrategyTable(space, _picker_replies(space, picker)).gd
                        assert shortest == min(chooser_line_lengths(space, picker))

    def test_dense_lower_bound_reads_the_picks(self):
        # opens {}, {a, b}, {d}, {a, b, d}, with cl{b} widened to the whole
        # space: the picker confined to {b, d} takes b from {a, b} and ends
        # the game in one stage, while {a, d} still needs two.  A table
        # shared by every dense set, or replies read off the lowest point
        # of each minimal open, would miss it.
        space = space_from_masks("planted", ("a", "b", "d"), (0b000, 0b011, 0b100, 0b111))
        space._cache["point_closures"] = (0b011, 0b111, 0b100)
        assert _check_dense_lower_bound(space) == {"dense_set": 0b110, "shortest": 1, "target": 2}

    def test_shortest_play_leaves_no_reference_cycle(self):
        space = make_indiscrete(4)
        gc.collect()
        gc.disable()
        try:
            assert _check_dense_lower_bound(space) is None
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_dense_lower_bound_walks_five_points(self, monkeypatch):
        space = make_indiscrete(5)
        made = []

        def counted(space, dense_set):
            made.append(dense_set)
            return dense_point_picker(space, dense_set)

        monkeypatch.setattr(enumeration, "dense_point_picker", counted)
        assert _check_dense_lower_bound(space) is None
        assert made == list(range(1, space.full + 1))  # every non-empty set is dense

    @staticmethod
    def _assert_builds_no_space(monkeypatch, corpus, check):
        def boom(*args, **kwargs):
            raise AssertionError(f"{check.__name__} built a space")

        monkeypatch.setattr(FiniteSpace, "__init__", boom)
        for spaces_n in corpus.values():
            for space in spaces_n:
                assert check(space) is None, space.name

    def test_dense_lower_bound_builds_no_subspace(self, monkeypatch, labeled_corpus):
        self._assert_builds_no_space(monkeypatch, labeled_corpus, _check_dense_lower_bound)

    def test_subspace_monotone_builds_no_subspace(self, monkeypatch, labeled_corpus):
        self._assert_builds_no_space(monkeypatch, labeled_corpus, _check_subspace_monotone)

    def test_subspace_monotone_never_solves_the_whole_space(self, monkeypatch, labeled_corpus):
        real, seen = enumeration.StrategyTable, []

        def spy(space, replies):
            seen.append((space, joined_closures(replies)))
            return real(space, replies)

        monkeypatch.setattr(enumeration, "StrategyTable", spy)
        for spaces_n in labeled_corpus.values():
            for space in spaces_n:
                assert _check_subspace_monotone(space) is None, space.name
        assert len(seen) > 355
        assert all(within != space.full for space, within in seen)

    @staticmethod
    def _subject_replies(monkeypatch, space):
        """{S: the reply list ``subspace-monotone`` hands the table on S}, for a passing space.

        S is the union of the list's closures, the table's terminal state.
        """
        real, lists = enumeration.StrategyTable, {}

        def spy(space, replies):
            lists[joined_closures(replies)] = replies
            return real(space, replies)

        monkeypatch.setattr(enumeration, "StrategyTable", spy)
        assert _check_subspace_monotone(space) is None, space.name
        monkeypatch.undo()
        return lists

    def test_subject_replies_are_the_trace_replies(self, monkeypatch, oracle_corpus):
        # every open and dense subject's list, cut from the whole space's,
        # against the minimal traces found on the subject itself, order
        # included: on n <= 4 and the 992 five-point spaces
        assert len(oracle_corpus) == 1 + 4 + 29 + 355 + 992
        subjects = 0
        for space in oracle_corpus:
            cls, full = closures(space), space.full
            lists = self._subject_replies(monkeypatch, space)
            wanted = {u for u in space.opens if 0 < u < full}
            wanted |= {d for d in range(1, full) if cls[d] == full}
            assert set(lists) == wanted, space.name
            for s, replies in lists.items():
                assert replies == trace_replies(space, s), (space.name, s)
            subjects += len(lists)
        assert subjects == 16087

    def test_dense_traces_are_sorted(self, monkeypatch, labeled_corpus):
        # T3.17, rows 5, 2, 5: minimal opens {1} and {0, 2}; on the dense
        # D = {0, 1} their traces come out as {1}, {0}, out of order
        space = labeled_corpus[3][17]
        assert (space.name, space.nbhds) == ("T3.17", (0b101, 0b010, 0b101))
        assert [m & 0b011 for m in enumeration.minimal_opens(space)] == [0b010, 0b001]
        replies = self._subject_replies(monkeypatch, space)[0b011]
        assert replies == [(0b001, 0b001), (0b010, 0b010)] == trace_replies(space, 0b011)

    def test_subspace_monotone_checks_the_structural_gd(self, monkeypatch):
        # a solver one stage short on every subspace passes gd <= gd, and
        # only gd(S) = |minimal opens of S| catches it
        real = enumeration.StrategyTable
        monkeypatch.setattr(enumeration, "StrategyTable", lambda space, replies: (
            SimpleNamespace(gd=real(space, replies).gd - 1)))
        assert _check_subspace_monotone(make_two_sierpinski()) == {
            "subset": 0b0010, "sub_gd": 0, "minimal_opens": 1}

    def test_records_stream_in_report_order(self):
        # at n = 3 the pair subjects fall between the space subjects
        records = list(verify_suite(3, checks="product-pi,chain,metric"))
        keys = [(r["subject"], r["check"]) for r in records]
        assert keys == sorted(set(keys))
        assert len(keys) == 29 + 34 * 34 + 1
        assert keys.index(("T3.1*T1.0", "product-pi")) < keys.index(("T3.10", "chain"))
        assert keys.index(("T3.10", "chain")) < keys.index(("T3.2", "chain"))

    @staticmethod
    def _count_spaces(monkeypatch, n):
        """Every n-point space built from now on: (how many, a weak set of those alive)."""
        real, built, alive = FiniteSpace.__init__, [], weakref.WeakSet()

        def counted(self, *args, **kwargs):
            real(self, *args, **kwargs)
            if self.n == n:
                built.append(self.name)
                alive.add(self)

        monkeypatch.setattr(FiniteSpace, "__init__", counted)
        return built, alive

    def test_one_space_is_alive_at_each_record(self, monkeypatch):
        built, alive = self._count_spaces(monkeypatch, 4)
        records = 0
        for rec in verify_suite(4, checks=",".join(SPACE_CHECKS)):
            assert len(alive) <= 1, rec
            records += 1
        assert records == 355 * len(SPACE_CHECKS)
        assert sum(name.startswith("T4.") for name in built) == 355

    def test_first_record_comes_before_a_second_space(self, monkeypatch):
        built, _ = self._count_spaces(monkeypatch, 5)
        stream = verify_suite(5, checks="chain")
        assert built == []
        assert next(stream)["subject"] == "T5.0"
        assert len(built) == 1

    @pytest.mark.parametrize("check, route, breaking, payload", BROKEN_ROUTES,
                             ids=[f"{c}-{r}" for c, r, _, _ in BROKEN_ROUTES])
    def test_every_check_can_fail(self, monkeypatch, check, route, breaking, payload):
        fn = {**SPACE_CHECKS, **PAIR_CHECKS, "metric": _check_metric}[check]
        assert fn(*_subject(check)) is None
        monkeypatch.setattr(enumeration, route, breaking(getattr(enumeration, route)))
        assert fn(*_subject(check)) == payload

    @given(closure_tables())
    @example((0b1, 0b0))  # its one failing pair is (0, {0}): cl(0) is not inside cl{0}
    @example((0, 0b01, 0b10, 0b01))  # its one failing set, {0, 1}, holds the top point
    @settings(max_examples=300)
    def test_additivity_by_top_points_fails_with_every_pair(self, cls):
        assert (_additivity_failure(cls) is None) == (all_pairs_additivity_failure(cls) is None)

    def test_kuratowski_tests_splits_at_the_last_point(self, monkeypatch):
        space = make_two_sierpinski()
        assert _check_kuratowski(space) is None
        # cl{a, d} = everything, past cl{a} | cl{d} = {a, c, d}: still
        # extensive and idempotent, and only a split at d, the last point, sees it
        table = list(closures(space))
        assert table[0b1001] == 0b1101
        table[0b1001] = 0b1111
        monkeypatch.setattr(enumeration, "closures", lambda space: tuple(table))
        assert _check_kuratowski(space) == {"subset": 0b0001, "other": 0b1000}
        assert all_pairs_additivity_failure(table) == {"subset": 0b0001, "other": 0b1000}

    def test_one_point_space_all_space_checks(self):
        ok, records = _suite(
            1,
            "kuratowski,roundtrip,minimal-opens,chain,collapse,oracles,"
                   "variants,exact-force,pi-base-bound,value-monotone,"
                   "subspace-monotone,dense-lower-bound",
        )
        assert ok

    @pytest.mark.parametrize("route, key", [("solved_gd", "gd"), ("tightness", "t")])
    def test_oracles_compare_gd_and_t(self, monkeypatch, route, key):
        real = getattr(enumeration, route)
        monkeypatch.setattr(enumeration, route, lambda space: real(space) + 1)
        space = make_two_sierpinski()
        honest = real(space)
        assert _check_oracles(space) == {key: (honest, honest + 1)}

    def test_exact_force_needs_gd_to_be_forcible(self, monkeypatch):
        space = make_two_sierpinski()
        assert _check_exact_force(space) is None
        monkeypatch.setattr(enumeration, "exact_force_set", lambda space: frozenset())
        assert _check_exact_force(space) == {"forced": [], "gd": 2, "delta": 2, "d": 2}

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            verify_suite(2, checks="no-such-check")

    def test_pair_checks_tiny(self):
        ok, records = _suite(2, "product-pi,product-strategies")
        assert ok
        pair_records = [r for r in records if "*" in r["subject"]]
        assert len(pair_records) == 5 * 5 * 2
