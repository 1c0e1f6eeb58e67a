import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from openpoint.enumeration import canonical_form
from openpoint.game import solve_game
from openpoint.invariants import pi_weight
from openpoint.products import (
    FanStatus,
    fan_tightness_check,
    minimal_open_boxes,
    minimal_opens_via_preorder,
    product,
    sufficient_condition_check,
)
from openpoint.space import (
    TooLarge,
    inclusion_minimal,
    minimal_opens,
    space_from_json,
    space_from_masks,
    space_to_json,
    subspace,
)

from .conftest import make_discrete, make_indiscrete, make_sierpinski
from .fan_oracle import fan_tightness_oracle
from .util import spaces


class TestProduct:
    def test_sierpinski_square(self):
        s = make_sierpinski()
        prod = product([s, s])
        assert prod.space.n == 4
        assert pi_weight(prod.space) == 1
        assert solve_game(prod.space).gd == 1

    def test_discrete_times_sierpinski(self):
        prod = product([make_discrete(2), make_sierpinski()])
        assert pi_weight(prod.space) == 2
        assert minimal_opens(prod.space) == minimal_open_boxes(prod)

    def test_times_point_is_homeomorphic(self):
        for make in (make_sierpinski, lambda: make_discrete(3), lambda: make_indiscrete(2)):
            space = make()
            prod = product([space, make_discrete(1)])
            assert canonical_form(prod.space) == canonical_form(space)

    def test_point_count_is_the_product(self):
        prod = product([make_discrete(3), make_indiscrete(2), make_sierpinski()])
        assert prod.space.n == 12

    def test_too_many_points(self):
        factors = [make_indiscrete(16)] * 4  # 65536 points
        with pytest.raises(TooLarge):
            product(factors)

    def test_too_many_opens(self):
        factors = [make_discrete(5)] * 4  # 625 points, 2^625 up-sets
        with pytest.raises(TooLarge):
            product(factors).space.opens

    def test_projection_masks(self):
        s = make_sierpinski()
        prod = product([make_discrete(2), s])
        box = prod.box_mask([0b01, 0b10])
        assert prod.proj_mask(box, 0) == 0b01
        assert prod.proj_mask(box, 1) == 0b10

    def test_opens_are_all_box_unions(self):
        s = make_sierpinski()
        prod = product([s, s])
        boxes = [
            prod.box_mask([u, v])
            for u in s.opens if u
            for v in s.opens if v
        ]
        unions = {0}
        frontier = [0]
        while frontier:
            cur = frontier.pop()
            for b in boxes:
                new = cur | b
                if new not in unions:
                    unions.add(new)
                    frontier.append(new)
        assert sorted(unions) == list(prod.space.opens)


class TestProductMemo:
    def test_same_factors_give_the_same_object(self):
        x, y = make_sierpinski(), make_discrete(2)
        assert product([x, y]) is product([x, y])
        assert product([x]) is product([x])

    def test_labels_and_names_are_part_of_the_key(self):
        x = make_sierpinski()
        y = make_discrete(2)
        renamed = make_discrete(2, name="other")
        relabeled = space_from_masks("discrete2", ["q0", "q1"], y.opens)
        assert y == renamed == relabeled  # equality ignores names and labels
        assert product([x, y]).space.name == "sierpinskixdiscrete2"
        assert product([x, renamed]).space.name == "sierpinskixother"
        assert product([x, relabeled]).space.point_labels == (
            "(a,q0)", "(a,q1)", "(b,q0)", "(b,q1)"
        )
        assert product([x, y], name="P").space.name == "P"
        prod = product([x, y])
        assert prod.space.name == "sierpinskixdiscrete2"
        assert prod.space.point_labels == ("(a,p0)", "(a,p1)", "(b,p0)", "(b,p1)")

    @settings(max_examples=60)
    @given(spaces(max_points=3), spaces(max_points=3), spaces(max_points=3))
    def test_memo_matches_a_fresh_build(self, x, y, z):
        def fresh(space):
            return space_from_json(space_to_json(space))

        for second, name in ((y, None), (z, None), (y, "P"), (y, None)):
            got = product([x, second], name=name)
            want = product([fresh(x), fresh(second)], name=name)
            assert space_to_json(got.space) == space_to_json(want.space)
            assert got.sizes == want.sizes


def lattice_minimal(space):
    """Minimal opens read off the enumerated lattice, not the stored N(x).

    A product's N(x) are the rows ``minimal_opens_via_preorder`` reads, so
    ``minimal_opens(prod.space)`` would not be an independent route.
    """
    return inclusion_minimal(u for u in space.opens if u)


@st.composite
def factor_lists(draw, most=16):
    """One to three random factors whose product has at most ``most`` points."""
    factors = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        room = most // math.prod(f.n for f in factors)
        factors.append(draw(spaces(max_points=min(4, room))))
    return factors


class TestBuiltFromRows:
    """Products skip the lattice validation; it runs here as the oracle."""

    @settings(max_examples=60, deadline=None)
    @given(factor_lists())
    def test_validation_accepts_what_the_rows_build(self, factors):
        prod = product(factors)
        space = prod.space
        checked = space_from_masks(space.name, space.point_labels, space.opens)
        assert checked.opens == space.opens
        assert checked.nbhds == space.nbhds
        # and they are the product's N(x): the meet of the open cylinders
        # U_i x (everything else) through each point, from the factor lattices
        for idx in range(space.n):
            coords = prod.decode(idx)
            meet = space.full
            for axis, f in enumerate(factors):
                for u in f.opens:
                    if u >> coords[axis] & 1:
                        meet &= prod.box_mask([u if i == axis else g.full
                                               for i, g in enumerate(factors)])
            assert space.nbhds[idx] == meet


class TestPiMultiplicativity:
    def test_all_pairs_of_small_representatives(self, small_spaces):
        for x, y in itertools.product(small_spaces, repeat=2):
            prod = product([x, y])
            mins = lattice_minimal(prod.space)
            assert mins == minimal_open_boxes(prod)
            assert mins == minimal_opens_via_preorder([x, y])
            assert len(mins) == pi_weight(x) * pi_weight(y)

    def test_all_triples_via_preorder_route(self, small_spaces):
        # too many opens to materialize for every triple; the preorder route
        # needs only the minimal neighborhoods
        for triple in itertools.product(small_spaces, repeat=3):
            mins = minimal_opens_via_preorder(triple)
            expect = 1
            for f in triple:
                expect *= pi_weight(f)
            assert len(mins) == expect

    def test_triple_boxes_agree_with_preorder_route(self, small_spaces):
        checked = 0
        for triple in itertools.product(small_spaces[:6], repeat=3):
            if triple[0].n * triple[1].n * triple[2].n > 12:
                continue
            try:
                prod = product(list(triple))
            except TooLarge:
                continue
            assert lattice_minimal(prod.space) == minimal_opens_via_preorder(triple)
            checked += 1
        assert checked >= 50


class TestGdMultiplicativity:
    def test_pairs_of_small_representatives(self, small_spaces):
        for x, y in itertools.product(small_spaces, repeat=2):
            prod = product([x, y])
            assert solve_game(prod.space).gd == solve_game(x).gd * solve_game(y).gd

    def test_triples_where_solvable(self, small_spaces):
        checked = 0
        for triple in itertools.product(small_spaces, repeat=3):
            if triple[0].n * triple[1].n * triple[2].n > 12:
                continue
            try:
                prod = product(list(triple))
            except TooLarge:
                continue
            expect = 1
            for f in triple:
                expect *= solve_game(f).gd
            assert solve_game(prod.space).gd == expect
            checked += 1
        assert checked >= 200


class TestSufficientCondition:
    def test_sierpinski_pair(self):
        s = make_sierpinski()
        assert sufficient_condition_check([s, s], 2) is True

    def test_discrete3_designated(self):
        # D3 has pi-weight 3 > 2 (designated), yet it shrinks below 2 in every open
        assert sufficient_condition_check([make_discrete(3), make_sierpinski()], 2) is True

    def test_single_point(self):
        assert sufficient_condition_check([make_discrete(1)], 1) is True

    def test_too_many_factors_fail(self):
        s = make_sierpinski()
        assert sufficient_condition_check([s, s, s], 2) is False

    def test_kappa_must_be_positive(self):
        with pytest.raises(ValueError):
            sufficient_condition_check([make_sierpinski()], 0)

    def test_every_space_shrinks_below_every_kappa(self, labeled_corpus):
        # the shrinking scan the check no longer runs, as its oracle
        for kappa in (1, 2, 3):
            for n, corpus in labeled_corpus.items():
                for space in corpus:
                    assert shrinks_below(space, kappa), (kappa, space.name)

    @given(st.lists(spaces(max_points=4), min_size=1, max_size=4),
           st.integers(min_value=1, max_value=4))
    @settings(max_examples=60)
    def test_matches_the_shrinking_scan(self, factors, kappa):
        # only the factor count decides: every factor shrinks below kappa
        ok = len(factors) <= kappa and all(
            pi_weight(f) <= kappa or shrinks_below(f, kappa) for f in factors
        )
        assert sufficient_condition_check(factors, kappa) is ok


def shrinks_below(space, kappa):
    """Every non-empty open contains a non-empty open of pi-weight <= kappa."""
    for v in space.opens:
        if not v:
            continue
        if not any(
            w and v & w == w and pi_weight(subspace(space, w)) <= kappa
            for w in space.opens
        ):
            return False
    return True


def _same_verdict(got, want):
    assert got.witness == want.witness
    assert got.unknown_cells == want.unknown_cells
    assert got.status is want.status


@st.composite
def small_factor_lists(draw, max_points=12):
    """One to three random factors whose product has at most ``max_points`` points."""
    factors = [draw(spaces(max_points=4))]
    room = max_points // factors[0].n
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        factors.append(draw(spaces(max_points=min(4, room))))
        room //= factors[-1].n
    return factors


class TestFanTightness:
    def test_sierpinski_pair_holds(self):
        s = make_sierpinski()
        verdict = fan_tightness_check([s, s], 2, "boxes")
        assert verdict.status is FanStatus.HOLDS
        # a witness for every (index set, non-empty open) cell
        assert len(verdict.witness) == 2 + 2 + 5

    def test_indiscrete_singleton_holds(self):
        verdict = fan_tightness_check([make_indiscrete(2)], 1)
        assert verdict.status is FanStatus.HOLDS

    def test_discrete_pair_holds_with_kappa_four(self):
        d = make_discrete(2)
        verdict = fan_tightness_check([d, d], 4, "boxes")
        assert verdict.status is FanStatus.HOLDS

    def test_all_opens_pool_agrees_on_small_pairs(self, small_spaces):
        for x in small_spaces[:6]:
            for y in small_spaces[:6]:
                boxes = fan_tightness_check([x, y], 3, "boxes")
                allo = fan_tightness_check([x, y], 3, "all")
                assert boxes.holds and allo.holds
                _same_verdict(boxes, fan_tightness_oracle([x, y], 3, "boxes"))
                _same_verdict(allo, fan_tightness_oracle([x, y], 3, "all"))

    @given(small_factor_lists(), st.sampled_from(["boxes", "all"]),
           st.integers(min_value=1, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_slice_search_matches_the_pick_set_scan(self, factors, pool, kappa):
        got = fan_tightness_check(factors, kappa, pool)
        _same_verdict(got, fan_tightness_oracle(factors, kappa, pool))

    def test_large_subproduct_falls_back_to_sufficient_condition(self):
        d4 = make_discrete(4)
        verdict = fan_tightness_check([d4, d4], 4, "boxes")
        assert verdict.status is FanStatus.HOLDS_VIA_SUFFICIENT_CONDITION
        assert verdict.unknown_cells

    def test_unknown_when_nothing_applies(self):
        d4 = make_discrete(4)
        verdict = fan_tightness_check([d4, d4], 1, "boxes")
        assert verdict.status is FanStatus.UNKNOWN

    def test_kappa_must_be_positive(self):
        with pytest.raises(ValueError):
            fan_tightness_check([make_sierpinski()], 0)

    def test_factor_count_capped_before_any_product(self, monkeypatch):
        import openpoint.products as products

        def boom(*args, **kwargs):
            raise AssertionError("no product may be built")

        monkeypatch.setattr(products, "product", boom)
        with pytest.raises(TooLarge, match="13 factors"):
            fan_tightness_check([make_discrete(1)] * 13, 2)

    def test_points_cap_enforced(self):
        factors = [make_indiscrete(16)] * 3  # 4096 points, over the all-opens cap
        with pytest.raises(TooLarge):
            fan_tightness_check(factors, 2, "all")
