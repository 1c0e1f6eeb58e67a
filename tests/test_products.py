import itertools
import math
from functools import reduce
from operator import or_

import pytest
from hypothesis import given, seed, settings, strategies as st

from openpoint.enumeration import canonical_form
from openpoint.game import solve_game, solved_gd
from openpoint.invariants import pi_weight
from openpoint.products import (
    FanStatus,
    _box,
    _fan_cells,
    _fibre_sets,
    _irredundant,
    _point_keys,
    _product_succ,
    _slice_closures,
    fan_tightness_check,
    minimal_open_boxes,
    minimal_opens_via_preorder,
    product,
    sufficient_condition_check,
)
from openpoint.space import (
    TooLarge,
    bits,
    inclusion_minimal,
    minimal_opens,
    space_from_json,
    space_from_masks,
    space_to_json,
    subspace,
)

from .conftest import make_discrete, make_indiscrete, make_sierpinski
from .fan_oracle import (
    fan_tightness_oracle,
    reference_fan_cells,
    reference_fibres,
    reference_point_keys,
)
from .util import preorders, spaces

# factor sizes of 2..4 points, two or three factors, at most 16 points in all
PRODUCT_SHAPES = [shape for k in (2, 3) for shape in itertools.product(range(2, 5), repeat=k)
                  if math.prod(shape) <= 16]


@st.composite
def random_products(draw):
    """A product of 2..3 random factors of 2..4 points each, with at most 16 points."""
    shape = draw(st.sampled_from(PRODUCT_SHAPES))
    return product([draw(preorders(min_points=n, max_points=n)) for n in shape])


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
        assert box == 1 << (0 * 2 + 1)  # point (c0, c1) is bit c0*s1 + c1
        assert {prod.decode(i)[0] for i in bits(box)} == {0}
        assert {prod.decode(i)[1] for i in bits(box)} == {1}

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
        prod = product([x, y])
        assert prod.space.name == "sierpinskixdiscrete2"
        assert prod.space.point_labels == ("(a,p0)", "(a,p1)", "(b,p0)", "(b,p1)")

    @settings(max_examples=60)
    @given(spaces(max_points=3), spaces(max_points=3), spaces(max_points=3))
    def test_memo_matches_a_fresh_build(self, x, y, z):
        def fresh(space):
            return space_from_json(space_to_json(space))

        for second in (y, z, y):
            got = product([x, second])
            want = product([fresh(x), fresh(second)])
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


def reference_encode(sizes, coords):
    idx = 0
    for size, c in zip(sizes, coords):
        idx = idx * size + c
    return idx


def reference_box(sizes, factor_masks):
    """The box point by point: every coordinate tuple, encoded row-major."""
    mask = 0
    for coords in itertools.product(*(list(bits(m)) for m in factor_masks)):
        mask |= 1 << reference_encode(sizes, coords)
    return mask


class TestIndexRule:
    """Boxes, rows, point keys and fibre sets spread axis by axis, against the
    point-by-point encoding."""

    @settings(max_examples=60, deadline=None)
    @given(factor_lists(), st.data())
    def test_spread_matches_the_point_by_point_encoding(self, factors, data):
        prod = product(factors)
        sizes = prod.sizes
        every = list(itertools.product(*map(range, sizes)))
        assert [reference_encode(sizes, coords) for coords in every] == list(range(prod.space.n))
        assert [prod.decode(idx) for idx in range(prod.space.n)] == every
        rows = tuple(reference_box(sizes, [f.nbhds[c] for f, c in zip(factors, coords)])
                     for coords in every)
        assert _product_succ(factors) == rows == prod.space.nbhds
        assert _point_keys(prod) == reference_point_keys(prod)
        if prod.space.n <= 12:
            # bit i of entry m: reference fibre i meets m
            fibres = reference_fibres(prod)
            met = _fibre_sets(sizes)
            assert len(met) == 1 << prod.space.n
            for m, got in enumerate(met):
                assert got == sum(1 << i for i, f in enumerate(fibres) if m & f)
        masks = [data.draw(st.integers(min_value=0, max_value=f.full)) for f in factors]
        assert _box(sizes, masks) == prod.box_mask(masks) == reference_box(sizes, masks)


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

    def test_cells_are_searched_once_per_subproduct(self, monkeypatch):
        import openpoint.products as products

        searched = []
        fan_cells = products._fan_cells

        def counted(sub, kappa, candidate_policy):
            searched.append(sub.space.name)
            return fan_cells(sub, kappa, candidate_policy)

        monkeypatch.setattr(products, "_fan_cells", counted)
        x, y = make_sierpinski(), make_discrete(2)
        first = fan_tightness_check([x, y], 2, "boxes")
        assert sorted(searched) == ["discrete2", "sierpinski", "sierpinskixdiscrete2"]
        assert fan_tightness_check([x, y], 2, "boxes") == first
        assert len(searched) == 3
        fan_tightness_check([x, y], 3, "boxes")
        assert len(searched) == 6
        fan_tightness_check([x, y], 3, "all")
        assert len(searched) == 9

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

    def test_no_table_past_the_subset_cap(self, monkeypatch):
        import openpoint.products as products

        shapes = []
        fibre_sets = products._fibre_sets

        def counted(sizes):
            shapes.append(sizes)
            return fibre_sets(sizes)

        monkeypatch.setattr(products, "_fibre_sets", counted)
        d4 = make_discrete(4)
        verdict = fan_tightness_check([d4, d4], 1, "boxes")
        assert verdict.status is FanStatus.UNKNOWN
        assert shapes == [(4,)]  # D4 alone, once: its memo serves the second axis


class TestFanCells:
    """``_fan_cells`` against the fibre-slice scan it replaced, witnesses and order included."""

    def test_cells_that_fan_link_searches(self, labeled_corpus):
        factors = [s for n in (1, 2, 3) for s in labeled_corpus[n]]
        searched = set()
        for x, y in itertools.product(factors, repeat=2):
            kappa = max(2, solved_gd(x), solved_gd(y))
            for sub_factors in ([x], [y], [x, y]):
                key = (tuple(f.name for f in sub_factors), kappa)
                if key not in searched:
                    searched.add(key)
                    sub = product(sub_factors)
                    assert _fan_cells(sub, kappa, "boxes") == reference_fan_cells(sub, kappa, "boxes")
        assert len(searched) == 1223

    def test_representative_pairs_with_every_open(self, small_spaces):
        assert len(small_spaces) == 13
        for x, y in itertools.product(small_spaces, repeat=2):
            sub = product([x, y])
            for kappa in (1, 2, 3):
                assert _fan_cells(sub, kappa, "all") == reference_fan_cells(sub, kappa, "all")

    def test_three_factor_products(self, unlabeled_corpus):
        twos, threes = unlabeled_corpus[2], unlabeled_corpus[3]
        for triple in itertools.product(twos, twos, threes):
            sub = product(list(triple))
            assert sub.space.n == 12
            for kappa in (1, 2, 3):
                assert _fan_cells(sub, kappa, "boxes") == reference_fan_cells(sub, kappa, "boxes")

    @seed(35)
    @given(random_products())
    @settings(max_examples=30, deadline=None)
    def test_random_products(self, sub):
        # products of more than 12 points take the capped path
        for pool in ("boxes", "all"):
            for kappa in (1, 2, 3):
                assert _fan_cells(sub, kappa, pool) == reference_fan_cells(sub, kappa, pool)


def irredundant_by_rest(keys):
    """Each key against the union of all the other keys, rebuilt per key."""
    return all(key & ~reduce(or_, keys[:i] + keys[i + 1:], 0) for i, key in enumerate(keys))


class TestSliceSearch:
    @given(st.lists(st.integers(min_value=0, max_value=255), max_size=6))
    def test_irredundant_matches_the_union_of_the_rest(self, keys):
        assert _irredundant(keys) == irredundant_by_rest(keys)

    def test_irredundant_examples(self):
        assert _irredundant([])
        assert _irredundant([0b01, 0b10])
        assert not _irredundant([0b01, 0b01])
        assert not _irredundant([0b011, 0b110, 0b010])
        assert not _irredundant([0b1, 0])


def assert_slice_lemma(sub):
    """Each point of a minimal open box V has one key, and V's only slice closure is cl(V)."""
    keys = _point_keys(sub)
    boxes = minimal_open_boxes(sub)
    for v in boxes:
        assert len({keys[p] for p in bits(v)}) == 1
        assert _slice_closures(sub.space, keys, v) == (sub.space.closure_of(v),)
    return len(boxes)


class TestSliceLemma:
    """The oracle for the ``boxes`` path of ``_fan_cells``, which reads cl(V) per member."""

    def test_every_subproduct_of_the_pair_corpus(self, labeled_corpus):
        factors = [s for n in (1, 2, 3) for s in labeled_corpus[n]]
        subs = [[x] for x in factors] + [[x, y] for x, y in itertools.product(factors, repeat=2)]
        assert len(subs) == 1190
        assert sum(assert_slice_lemma(product(sub)) for sub in subs) == 2450

    def test_three_factor_products(self, unlabeled_corpus):
        twos, threes = unlabeled_corpus[2], unlabeled_corpus[3]
        for triple in itertools.product(twos, twos, threes):
            sub = product(list(triple))
            assert sub.space.n == 12
            assert_slice_lemma(sub)
