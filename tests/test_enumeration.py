from dataclasses import replace
from itertools import permutations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from openpoint import enumeration
from openpoint.enumeration import (
    PAIR_CHECKS,
    SPACE_CHECKS,
    _check_dense_lower_bound,
    _check_exact_force,
    _check_metric,
    _check_oracles,
    _check_subspace_monotone,
    _check_variants,
    _shortest_play,
    canonical_form,
    enumerate_labeled,
    enumerate_unlabeled,
    verify_suite,
)
from openpoint.game import GameVariant
from openpoint.products import FanStatus
from openpoint.space import FiniteSpace, TooLarge, bits, is_dense, space_from_masks
from openpoint.strategies import dense_point_picker

from .conftest import make_discrete, make_indiscrete, make_sierpinski, make_two_sierpinski
from .game_oracle import chooser_line_lengths
from .util import spaces

LABELED_COUNTS = {1: 1, 2: 4, 3: 29, 4: 355}
UNLABELED_COUNTS = {1: 1, 2: 3, 3: 9, 4: 33}


def _permute_mask(mask, perm):
    out = 0
    for i in bits(mask):
        out |= 1 << perm[i]
    return out


def brute_canonical_form(space):
    """Least sorted-opens tuple, relabeling every open bit by bit."""
    return min(
        tuple(sorted(_permute_mask(u, perm) for u in space.opens))
        for perm in permutations(range(space.n))
    )


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
    ("subspace-monotone", "capped_table",  # a subspace with more minimal opens
     lambda real: lambda space, within: real(make_discrete(space.n + 1)),
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

    def test_capped_past_six_points(self, monkeypatch):
        def boom(n):
            raise AssertionError("no relabel table past the cap")

        monkeypatch.setattr(enumeration, "_relabelings", boom)
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
        ok, records = verify_suite(3, checks="chain")
        assert ok
        assert len(records) == 29
        assert all(r["status"] == "pass" for r in records)

    def test_variant_check_two_point_spaces(self):
        ok, records = verify_suite(2, checks="variants")
        assert ok and len(records) == 4

    def test_variant_check_reads_the_solved_gd(self, monkeypatch):
        import openpoint.game as game

        space = make_two_sierpinski()
        assert enumeration.solved_gd(space) == 2

        def unsolvable(space):
            raise AssertionError("the variants check solved a second game")

        for name in ("capped_table", "solve_game"):
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
            ok, records = verify_suite(n, checks="subspace-monotone,value-monotone")
            assert ok and len(records) == 2 * count

    def test_dense_lower_bound_check_four_points(self):
        ok, records = verify_suite(4, checks="dense-lower-bound")
        assert ok and len(records) == 355

    def test_shortest_play_matches_the_unremembered_walk(self, labeled_corpus):
        for spaces in labeled_corpus.values():
            for space in spaces:
                for a in range(1, space.full + 1):
                    if is_dense(space, a):
                        picker = dense_point_picker(space, a)
                        assert _shortest_play(space, picker) == min(chooser_line_lengths(space, picker))

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

    @pytest.mark.parametrize("check, route, breaking, payload", BROKEN_ROUTES,
                             ids=[f"{c}-{r}" for c, r, _, _ in BROKEN_ROUTES])
    def test_every_check_can_fail(self, monkeypatch, check, route, breaking, payload):
        fn = {**SPACE_CHECKS, **PAIR_CHECKS, "metric": _check_metric}[check]
        assert fn(*_subject(check)) is None
        monkeypatch.setattr(enumeration, route, breaking(getattr(enumeration, route)))
        assert fn(*_subject(check)) == payload

    def test_one_point_space_all_space_checks(self):
        ok, records = verify_suite(
            1,
            checks="kuratowski,roundtrip,minimal-opens,chain,collapse,oracles,"
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
        ok, records = verify_suite(2, checks="product-pi,product-strategies")
        assert ok
        pair_records = [r for r in records if "*" in r["subject"]]
        assert len(pair_records) == 5 * 5 * 2
