from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from openpoint import enumeration
from openpoint.enumeration import (
    _check_dense_lower_bound,
    _check_exact_force,
    _check_oracles,
    _check_variants,
    _shortest_play,
    canonical_form,
    enumerate_labeled,
    enumerate_unlabeled,
    verify_suite,
)
from openpoint.game import GameVariant
from openpoint.space import TooLarge, bits, is_dense, space_from_masks
from openpoint.strategies import dense_point_picker

from .conftest import make_indiscrete, make_two_sierpinski
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


def brute_shortest_play(space, picker):
    """Every line of offered opens walked out, nothing remembered."""
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
    return min(lengths)


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

        monkeypatch.setattr(game, "solve_game", unsolvable)
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
                        assert _shortest_play(space, picker) == brute_shortest_play(space, picker)

    def test_dense_lower_bound_walks_five_points(self, monkeypatch):
        space = make_indiscrete(5)
        made = []

        def counted(space, dense_set):
            made.append(dense_set)
            return dense_point_picker(space, dense_set)

        monkeypatch.setattr(enumeration, "dense_point_picker", counted)
        assert _check_dense_lower_bound(space) is None
        assert made == list(range(1, space.full + 1))  # every non-empty set is dense

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
