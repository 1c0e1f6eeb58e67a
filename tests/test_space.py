import itertools
import json
import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from openpoint.enumeration import enumerate_labeled
from openpoint.products import product
from openpoint.space import (
    OPENS_CAP,
    DuplicateLabel,
    EmptySubspace,
    MissingEmptyOrFull,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
    NotReflexive,
    NotTransitive,
    TooLarge,
    TopologyError,
    UnknownLabel,
    bits,
    closure,
    closures,
    enumerate_upsets,
    from_preorder,
    inclusion_minimal,
    interior,
    is_dense,
    load_space,
    minimal_opens,
    save_space,
    space_from_json,
    space_from_masks,
    space_to_json,
    subspace,
    validate_topology,
)

from .conftest import make_cli_class_factors, make_discrete, make_indiscrete, make_two_sierpinski
from .invariant_oracle import subspace_trace
from .space_file_oracle import (
    ACCEPTED,
    MALFORMED,
    ref_labels,
    ref_space_from_json,
    ref_space_to_json,
)
from .util import close_family, space_and_subset, spaces


def _mask(points):
    out = 0
    for p in points:
        out |= 1 << p
    return out


def _pairwise_closed(family):
    """The definition itself: every pairwise union and intersection is a member."""
    members = set(family)
    return all(a | b in members and a & b in members for a in family for b in family)


@st.composite
def families(draw, max_points=5):
    """Subset families holding the empty and the full set, closed or nearly so."""
    n = draw(st.integers(min_value=1, max_value=max_points))
    full = (1 << n) - 1
    seeds = draw(st.lists(st.integers(min_value=0, max_value=full), max_size=8))
    family = set(close_family(n, seeds)) if draw(st.booleans()) else {0, full, *seeds}
    dropped = draw(st.sampled_from(sorted(family)))
    if dropped not in (0, full) and draw(st.booleans()):
        family.discard(dropped)
    return n, sorted(family)


def _assert_refused(n, family):
    """``family`` is refused, naming two members whose union or intersection is missing."""
    members = set(family)
    with pytest.raises((NotClosedUnderUnion, NotClosedUnderIntersection)) as err:
        space_from_masks("f", [f"p{i}" for i in range(n)], family)
    a, b = map(_mask, err.value.pair)
    joined = a | b if err.type is NotClosedUnderUnion else a & b
    assert a in members and b in members and joined not in members


class TestValidate:
    def test_sierpinski(self, sierpinski):
        assert sierpinski.n == 2
        assert sierpinski.opens == (0b00, 0b10, 0b11)

    def test_union_violation_reported(self):
        with pytest.raises(NotClosedUnderUnion) as err:
            validate_topology(["a", "b", "c"], [[], ["a"], ["b"], ["a", "b", "c"]])
        assert sorted(err.value.pair) == [[0], [1]]

    def test_intersection_violation_reported(self):
        with pytest.raises(NotClosedUnderIntersection) as err:
            validate_topology(["a", "b", "c"], [[], ["a", "b"], ["b", "c"], ["a", "b", "c"]])
        assert err.value.pair == ([0, 1], [1, 2])

    @given(families(max_points=6))
    def test_accepts_exactly_the_pairwise_closed_families(self, drawn):
        n, family = drawn
        if _pairwise_closed(family):
            space_from_masks("f", [f"p{i}" for i in range(n)], family)
        else:
            _assert_refused(n, family)

    @pytest.mark.parametrize("n, family, fault, pair", [
        # row(a) is ab, not inside ac, which holds a
        (3, [0b000, 0b011, 0b101, 0b111], NotClosedUnderIntersection, ([0, 1], [0, 2])),
        # row(c) is cd by size; numerically abc would come first
        (4, [0b0000, 0b0111, 0b1100, 0b1111], NotClosedUnderIntersection, ([2, 3], [0, 1, 2])),
        # the rows a, b, ac are transitive and their unions are members; bc is not a union
        (3, [0b000, 0b001, 0b010, 0b011, 0b101, 0b110, 0b111],
         NotClosedUnderIntersection, ([0, 2], [1, 2])),
        # as many members as unions of the rows a, b, ac, but ab is missing and bc is extra
        (3, [0b000, 0b001, 0b010, 0b101, 0b110, 0b111], NotClosedUnderUnion, ([0], [1])),
    ], ids=["meet-of-rows", "size-not-numeric-order", "member-not-a-union", "equal-count"])
    def test_first_member_by_size_not_inside_every_member_holding_its_point(
            self, n, family, fault, pair):
        with pytest.raises(fault) as err:
            space_from_masks("f", [f"p{i}" for i in range(n)], family)
        assert err.value.pair == pair
        _assert_refused(n, family)

    @pytest.mark.parametrize("factors, opens", [
        (make_cli_class_factors, 720), (lambda: (make_discrete(4), make_discrete(4)), 1 << 16),
    ], ids=["cli-class", "D4xD4"])
    def test_product_file_loads_back(self, tmp_path, factors, opens):
        prod = product(list(factors())).space
        path = tmp_path / "product.json"
        save_space(prod, path)
        loaded = load_space(path)
        assert loaded.nbhds == prod.nbhds and loaded.opens == prod.opens
        assert len(loaded.opens) == opens

    def test_every_one_open_change_to_a_product_is_refused(self):
        prod = product(list(make_cli_class_factors())).space
        opens = prod.opens
        assert len(opens) == 720
        for dropped in opens[1:-1]:
            _assert_refused(prod.n, [u for u in opens if u != dropped])
        members = set(opens)
        outside = [m for m in range(prod.full + 1) if m not in members]
        # every 64th of the 64,816 masks that are not open, spread over their range
        for added in outside[::64]:
            _assert_refused(prod.n, [*opens, added])

    def test_missing_empty_or_full(self):
        with pytest.raises(MissingEmptyOrFull):
            validate_topology(["a", "b"], [["b"], ["a", "b"]])

    def test_duplicate_label(self):
        with pytest.raises(DuplicateLabel):
            validate_topology(["a", "a"], [[], ["a", "a"]])

    def test_unknown_label(self):
        with pytest.raises(UnknownLabel):
            validate_topology(["a"], [[], ["z"], ["a"]])

    def test_too_many_points(self):
        labels = [f"p{i}" for i in range(17)]
        with pytest.raises(TooLarge):
            space_from_masks("big", labels, [0, (1 << 17) - 1])

    def test_opens_deduplicated_and_sorted(self):
        s = validate_topology(["a", "b"], [["a", "b"], [], ["b"], ["b"]])
        assert s.opens == (0b00, 0b10, 0b11)


class TestClosure:
    def test_sierpinski_open_point_closure(self, sierpinski):
        assert closure(sierpinski, 0b10) == 0b11  # cl({b}) = {a,b}

    def test_sierpinski_closed_point(self, sierpinski):
        assert closure(sierpinski, 0b01) == 0b01  # {a} is closed

    def test_empty_set_closed(self, sierpinski):
        assert closure(sierpinski, 0) == 0

    def test_discrete_everything_closed(self):
        d = make_discrete(3)
        assert closure(d, 0b101) == 0b101

    @given(space_and_subset())
    def test_kuratowski_axioms(self, pair):
        space, s = pair
        t = (s * 7 + 3) & space.full  # a second, correlated subset
        cs = closure(space, s)
        assert closure(space, 0) == 0
        assert cs & s == s
        assert closure(space, cs) == cs
        assert closure(space, s | t) == cs | closure(space, t)

    @given(space_and_subset())
    def test_additive_closure_matches_lattice_scan(self, pair):
        space, s = pair
        assert space.closure_of(s) == closure(space, s)

    @given(spaces())
    def test_closure_table_is_one_scan_per_subset(self, space):
        table = closures(space)
        assert table == tuple(closure(space, s) for s in range(space.full + 1))
        assert closures(space) is table

    @given(space_and_subset())
    def test_interior_duality(self, pair):
        space, s = pair
        assert interior(space, s) == space.full ^ closure(space, space.full ^ s)


class TestStoredNeighbourhoods:
    """The routes derived from the stored N(x), against the open lattice."""

    @given(spaces())
    def test_rows_are_intersections_of_the_opens(self, space):
        for x in range(space.n):
            meet = space.full
            for u in space.opens:
                if u >> x & 1:
                    meet &= u
            assert space.nbhds[x] == meet

    @given(spaces())
    def test_is_open_matches_the_open_family(self, space):
        opens = set(space.opens)
        for m in range(-1, space.full + 2):
            assert space.is_open(m) == (m in opens)

    @given(spaces())
    def test_point_closures_match_the_lattice_scan(self, space):
        for x in range(space.n):
            assert space.point_closures()[x] == closure(space, 1 << x)

    @given(spaces())
    def test_preorder_rows_are_the_neighbourhoods(self, space):
        # the specialization preorder: y in N(x) exactly when x in closure({y})
        for x in range(space.n):
            for y in range(space.n):
                assert (space.nbhds[x] >> y & 1) == (closure(space, 1 << y) >> x & 1)


def search_upsets(n, succ):
    """All sets U with x in U implying succ[x] a subset of U, sorted.

    The reference for the union-closure: a depth-first branch on the
    lowest undecided point, forcing successor closure on inclusion and
    predecessor exclusion on rejection.  It reads ``succ`` as a relation
    and never forms a union of rows.  Raises TooLarge past ``OPENS_CAP``
    results.
    """
    pred = [0] * n
    for x in range(n):
        for y in bits(succ[x]):
            pred[y] |= 1 << x
    full = (1 << n) - 1
    out = []
    stack = [(0, 0)]
    while stack:
        include, exclude = stack.pop()
        undecided = full & ~(include | exclude)
        if not undecided:
            if len(out) >= OPENS_CAP:
                raise TooLarge(f"more than {OPENS_CAP} up-sets")
            out.append(include)
            continue
        p = (undecided & -undecided).bit_length() - 1
        # include p: its successor closure comes along, unless blocked
        need = succ[p]
        grown = 1 << p
        while True:
            new = (need | grown) & ~grown
            if not new:
                break
            grown |= new
            need = 0
            for q in bits(new):
                need |= succ[q]
        if not (grown & exclude):
            stack.append((include | grown, exclude))
        # exclude p: everything reaching p is excluded too
        stack.append((include, exclude | pred[p] | (1 << p)))
    return sorted(out)


class TestUnionClosure:
    """``enumerate_upsets`` against the up-set search on every corpus the suite uses."""

    @staticmethod
    def _assert_same(space):
        assert enumerate_upsets(space.nbhds) == tuple(search_upsets(space.n, space.nbhds))

    def test_every_labeled_space_up_to_five_points(self, labeled_corpus):
        five = list(enumerate_labeled(5))
        assert len(five) == 6942
        for space in [s for n in range(1, 5) for s in labeled_corpus[n]] + five:
            self._assert_same(space)
            # the validated family, read from the opens rather than the rows
            assert enumerate_upsets(space.nbhds) == space.opens

    def test_pair_corpus_products(self, labeled_corpus):
        small = [s for n in (1, 2, 3) for s in labeled_corpus[n]]
        pairs = list(itertools.product(small, repeat=2))
        assert len(pairs) == 1156
        for x, y in pairs:
            self._assert_same(product([x, y]).space)

    @pytest.mark.parametrize("factors", [
        make_cli_class_factors, lambda: (make_discrete(4), make_discrete(4)),
    ], ids=["cli-class", "D4xD4"])
    def test_large_products(self, factors):
        self._assert_same(product(list(factors())).space)

    @given(spaces(max_points=6))
    def test_random_spaces(self, space):
        self._assert_same(space)

    def test_cap_boundary(self):
        # discrete rows: 17 give exactly OPENS_CAP = 2^17 opens, 18 one row too many
        assert OPENS_CAP == 1 << 17
        assert len(enumerate_upsets([1 << i for i in range(17)])) == OPENS_CAP
        with pytest.raises(TooLarge, match="more than 131072 up-sets"):
            enumerate_upsets([1 << i for i in range(18)])


class TestSubspace:
    def test_single_point(self, sierpinski):
        sub = subspace(sierpinski, 0b01)
        assert sub.n == 1 and sub.opens == (0, 1)

    def test_trace_is_sierpinski(self):
        s = validate_topology(["a", "b", "c"], [[], ["a", "b"], ["a", "b", "c"]])
        sub = subspace(s, s.mask_of(["b", "c"]))
        assert sub.point_labels == ("b", "c")
        assert sub.opens == (0b00, 0b01, 0b11)

    def test_full_subset_identity(self, two_sierpinski):
        assert subspace(two_sierpinski, two_sierpinski.full) == two_sierpinski

    def test_empty_rejected(self, sierpinski):
        with pytest.raises(EmptySubspace):
            subspace(sierpinski, 0)

    def test_negative_mask_rejected(self, sierpinski):
        with pytest.raises(TopologyError, match="mask -1 ") as info:
            subspace(sierpinski, -1)
        assert not isinstance(info.value, EmptySubspace)

    def test_mask_past_the_points_rejected(self, sierpinski):
        with pytest.raises(TopologyError, match="mask 4 ") as info:
            subspace(sierpinski, 0b100)
        assert not isinstance(info.value, EmptySubspace)

    def test_built_from_rows_without_its_lattice(self, two_sierpinski):
        sub = subspace(two_sierpinski, 0b1110)
        assert sub.nbhds == (0b001, 0b110, 0b100)
        assert "opens" not in sub._cache

    def test_matches_the_lattice_trace(self, oracle_corpus):
        for space in oracle_corpus:
            for s in range(1, space.full + 1):
                sub, traced = subspace(space, s), subspace_trace(space, s)
                assert sub.opens == traced.opens, (space, s)
                assert sub.point_labels == traced.point_labels, (space, s)


class TestMinimalOpens:
    def test_sierpinski(self, sierpinski):
        assert minimal_opens(sierpinski) == (0b10,)

    def test_discrete_singletons(self):
        assert minimal_opens(make_discrete(4)) == (1, 2, 4, 8)

    def test_two_sierpinski(self, two_sierpinski):
        assert minimal_opens(two_sierpinski) == (0b0010, 0b1000)

    @given(spaces())
    def test_pairwise_disjoint_and_covering(self, space):
        mins = minimal_opens(space)
        for i, a in enumerate(mins):
            for b in mins[i + 1:]:
                assert a & b == 0
        for u in space.opens:
            if u:
                assert any(m & u == m for m in mins)

    @given(spaces())
    def test_each_minimal_open_is_indiscrete(self, space):
        for m in minimal_opens(space):
            assert subspace(space, m).opens == (0, subspace(space, m).full)


def minimal_by_scan(rows):
    """Every distinct mask of ``rows`` that holds no other one, in increasing order."""
    distinct = set(rows)
    return sorted(m for m in distinct if not any(o != m and o & m == o for o in distinct))


@st.composite
def mask_rows(draw):
    """Masks on up to 6 points, each repeated or joined by a superset or a subset of it."""
    masks = st.integers(min_value=0, max_value=63)
    rows = draw(st.lists(masks, max_size=6))
    for m in list(rows):
        other = draw(masks)
        rows.append(draw(st.sampled_from([m, m | other, m & other])))
    return draw(st.permutations(rows))


class TestInclusionMinimal:
    @given(mask_rows())
    def test_matches_the_scan(self, rows):
        assert inclusion_minimal(rows) == tuple(minimal_by_scan(rows))

    @pytest.mark.parametrize("rows, want", [
        ([], ()),
        ([0b11, 0, 0b1, 0], (0,)),
        ([0b110, 0b011, 0b110, 0b010, 0b101], (0b010, 0b101)),
        ([0b100001, 0b1], (0b1,)),  # the subset drawn last, in one hash slot
        ([0b1000, 0b0111], (0b0111, 0b1000)),  # increasing, not by size
        ([0b011, 0b101, 0b110], (0b011, 0b101, 0b110)),  # overlapping, none nested
    ])
    def test_examples(self, rows, want):
        assert inclusion_minimal(rows) == want
        assert inclusion_minimal(iter(rows)) == want


class TestDensity:
    def test_sierpinski(self, sierpinski):
        assert is_dense(sierpinski, 0b10)
        assert not is_dense(sierpinski, 0b01)

    @given(space_and_subset())
    def test_full_set_dense(self, pair):
        space, _ = pair
        assert is_dense(space, space.full)

    @given(space_and_subset())
    def test_dense_iff_hits_every_minimal_open(self, pair):
        space, s = pair
        hits = all(m & s for m in minimal_opens(space))
        assert is_dense(space, s) == hits


class TestPreorder:
    def test_sierpinski_specialization(self, sierpinski):
        rows = sierpinski.nbhds
        assert rows[0] >> 1 & 1  # a in cl({b})
        assert not rows[1] >> 0 & 1
        assert rows[0] & 1 and rows[1] >> 1 & 1
        back = from_preorder(rows, point_labels=sierpinski.point_labels)
        assert back == sierpinski and back.opens == sierpinski.opens

    def test_discrete_is_identity(self):
        d = make_discrete(3)
        assert d.nbhds == (0b001, 0b010, 0b100)
        assert from_preorder(d.nbhds).opens == d.opens

    def test_indiscrete_all_related(self):
        s = make_indiscrete(2)
        assert s.nbhds == (0b11, 0b11)
        assert from_preorder(s.nbhds).opens == s.opens

    def test_rejects_non_reflexive(self):
        with pytest.raises(NotReflexive):
            from_preorder((0b10, 0b10))

    def test_rejects_non_transitive(self):
        with pytest.raises(NotTransitive):
            from_preorder((0b011, 0b110, 0b100))

    @pytest.mark.parametrize("rows", [(0b101, 0b010), (0b01, -1)],
                             ids=["bit-past-n", "negative"])
    def test_rejects_rows_outside_the_points(self, rows):
        with pytest.raises(TopologyError):
            from_preorder(rows)

    @pytest.mark.parametrize("labels, error", [
        (["a"], TopologyError), (["a", "b", "c"], TopologyError),
        (["a", 1], TopologyError), (["a", "a"], DuplicateLabel),
    ], ids=["too-few", "too-many", "not-a-string", "duplicate"])
    def test_rejects_labels_that_are_not_n_distinct_strings(self, labels, error):
        with pytest.raises(error):
            from_preorder((0b01, 0b10), point_labels=labels)

    def test_builds_no_lattice(self, monkeypatch):
        import openpoint.space as space_module

        def boom(*args, **kwargs):
            raise AssertionError("the lattice was enumerated")

        monkeypatch.setattr(space_module, "enumerate_upsets", boom)
        space = from_preorder((0b01, 0b11))
        assert space.nbhds == (0b01, 0b11) and minimal_opens(space) == (0b01,)
        with pytest.raises(AssertionError, match="enumerated"):
            space.opens

    @given(spaces())
    def test_roundtrip_identity(self, space):
        # ``space`` was validated by space_from_masks, so this is also the
        # oracle for the validation from_preorder leaves out; equal rows would
        # make the spaces equal by definition, so the lattices are compared
        back = from_preorder(space.nbhds)
        assert back.opens == space.opens
        assert back == space and hash(back) == hash(space)


@st.composite
def space_pairs(draw, max_points=3):
    """Two random spaces on the same number of points."""
    a = draw(spaces(max_points=max_points))
    b = draw(spaces(max_points=a.n).filter(lambda s: s.n == a.n))
    return a, b


class TestRowEquality:
    """Spaces compare and hash by their rows, which decide their opens."""

    @given(space_pairs())
    def test_equal_exactly_when_the_opens_are(self, pair):
        a, b = pair
        assert (a == b) == (a.opens == b.opens)
        if a == b:
            assert hash(a) == hash(b)

    @given(space_pairs())
    def test_rows_built_and_validated_spaces_agree(self, pair):
        a, b = pair
        rebuilt = from_preorder(b.nbhds)
        assert (a == rebuilt) == (a.opens == rebuilt.opens)
        assert rebuilt == b and hash(rebuilt) == hash(b)

    def test_repr_reads_no_lattice(self):
        space = from_preorder((0b01, 0b11, 0b100), name="s")
        assert repr(space) == "FiniteSpace('s', n=3, distinct_nbhds=3)"
        assert "opens" not in space._cache


class TestCorpusProperties:
    """The per-space laws, exhaustively over every topology with n <= 4."""

    def test_minimal_opens_disjoint_and_covering(self, labeled_corpus):
        for spaces in labeled_corpus.values():
            for space in spaces:
                mins = minimal_opens(space)
                for i, a in enumerate(mins):
                    for b in mins[i + 1:]:
                        assert a & b == 0, space.name
                for u in space.opens:
                    if u:
                        assert any(m & u == m for m in mins), space.name

    def test_kuratowski_all_subset_pairs(self, labeled_corpus):
        for spaces in labeled_corpus.values():
            for space in spaces:
                assert closure(space, 0) == 0
                cls = [closure(space, s) for s in range(space.full + 1)]
                for s in range(space.full + 1):
                    assert cls[s] & s == s
                    assert cls[cls[s]] == cls[s]
                    for t in range(s + 1, space.full + 1):
                        assert cls[s | t] == cls[s] | cls[t], space.name

    def test_preorder_roundtrip_whole_corpus(self, labeled_corpus):
        for spaces in labeled_corpus.values():
            for space in spaces:
                assert from_preorder(space.nbhds).opens == space.opens

    def test_dense_iff_hits_every_minimal_open(self, labeled_corpus):
        for spaces in labeled_corpus.values():
            for space in spaces:
                mins = minimal_opens(space)
                for a in range(space.full + 1):
                    assert is_dense(space, a) == all(m & a for m in mins)


class TestJsonRoundtrip:
    def test_writer_sorts_by_size_then_labels(self, two_sierpinski):
        obj = space_to_json(two_sierpinski)
        sizes = [len(o) for o in obj["opens"]]
        assert sizes == sorted(sizes)
        assert obj["opens"][0] == []
        assert obj["opens"] == sorted(obj["opens"], key=lambda o: (len(o), o))

    def test_reader_accepts_any_order(self, sierpinski):
        obj = {"name": "s", "points": ["a", "b"], "opens": [["a", "b"], [], ["b"]]}
        assert space_from_json(obj) == sierpinski

    @given(spaces())
    def test_roundtrip(self, space):
        blob = json.dumps(space_to_json(space))
        assert space_from_json(json.loads(blob)) == space

    @pytest.mark.parametrize("obj", [[1], 5, "s", None, ["name", "points", "opens"]])
    def test_top_level_must_be_an_object(self, obj):
        with pytest.raises(TopologyError, match="a space must be a JSON object"):
            space_from_json(obj)


# labels whose string order is not their index order: digits before upper
# before lower case, "10" before "9", and a non-ASCII label last
SCRAMBLED = ["a", "10", "\u00e9", "B", "9"]


def _relabel(space, labels, name=None):
    return from_preorder(space.nbhds, name or space.name, labels)


def _cli_class_products():
    """The product of ``make_cli_class_factors()`` in both orders, under four labellings each."""
    x, y = make_cli_class_factors()
    labellings = [
        (x.point_labels, y.point_labels),
        (["10", "9", "B", "a"], ["b", "A", "11", "2"]),
        (["\u00e9", "e", "E", "3"], ["z", "y", "x", "w"]),
        (["(", ")", ",", " "], ["", "a,b", "(a", "\u00e9\u00e9"]),
    ]
    for lx, ly in labellings:
        fx, fy = _relabel(x, lx), _relabel(y, ly)
        for factors in ((fx, fy), (fy, fx)):
            yield product(list(factors)).space


def _assert_file_format_matches(space):
    obj = space_to_json(space)
    assert obj == ref_space_to_json(space)
    assert json.dumps(obj) == json.dumps(ref_space_to_json(space))
    got = space_from_json(json.loads(json.dumps(obj)))
    want = ref_space_from_json(obj)
    assert (got.name, got.point_labels, got.nbhds, got.opens) == (
        want.name, want.point_labels, want.nbhds, want.opens)


# objects that only a caller of the API can pass: JSON has no tuples
API_TUPLES = [
    ("tuple-open", {"name": "s", "points": ["a"], "opens": [(), ("a",)]}),
    ("tuple-points", {"name": "s", "points": ("a",), "opens": [[], ["a"]]}),
    ("tuple-opens", {"name": "s", "points": ["a"], "opens": ([], ["a"])}),
]


def _error_of(read, obj):
    try:
        read(obj)
    except TopologyError as exc:
        return type(exc), str(exc)
    return None


class TestSpaceFileAgainstReference:
    """The one-pass reader and the table-driven writer against ``space_file_oracle``."""

    def test_every_labeled_space_up_to_four_points_scrambled(self, labeled_corpus):
        for n, spaces_n in labeled_corpus.items():
            labels = SCRAMBLED[:n]
            assert n == 1 or sorted(labels) != labels
            for space in spaces_n:
                relabeled = _relabel(space, labels, "scrambled")
                _assert_file_format_matches(relabeled)
                for mask in range(relabeled.full + 1):
                    assert relabeled.labels_of(mask) == ref_labels(relabeled, mask)

    def test_cli_class_products_and_d4xd4(self):
        prods = list(_cli_class_products())
        assert len(prods) == 8 and all(p.n == 16 and len(p.opens) == 720 for p in prods)
        d4 = _relabel(make_discrete(4), ["d", "10", "C", "9"], "D4")
        prods.append(product([d4, d4]).space)
        assert len(prods[-1].opens) == 1 << 16
        for prod in prods:
            _assert_file_format_matches(prod)

    @given(spaces(max_points=6), st.data())
    def test_text_labels(self, space, data):
        labels = data.draw(st.lists(st.text(max_size=3), min_size=space.n, max_size=space.n,
                                    unique=True))
        relabeled = _relabel(space, labels)
        _assert_file_format_matches(relabeled)
        for mask in range(relabeled.full + 1):
            assert relabeled.labels_of(mask) == ref_labels(relabeled, mask)

    def test_labels_of_every_mask_on_nine_points(self):
        space = _relabel(make_discrete(9), ["p", "10", "9", "\u00e9", "B", "a", "0", "Z", "b1"])
        for mask in range(space.full + 1):
            assert space.labels_of(mask) == ref_labels(space, mask)

    @pytest.mark.parametrize("n", [16, 17, 24])
    def test_labels_of_sampled_masks(self, n):
        labels = [str(n - i) if i % 2 else chr(0x3b1 + i) for i in range(n)]
        space = from_preorder([1 << i for i in range(n)], "discrete", labels)
        rng = random.Random(n)
        masks = [0, space.full, *(1 << i for i in range(n)),
                 *(rng.randrange(space.full + 1) for _ in range(2000))]
        for mask in masks:
            assert space.labels_of(mask) == ref_labels(space, mask)

    @pytest.mark.parametrize("n", [8, 9, 16])
    def test_labels_of_refuses_a_mask_outside_the_points(self, n):
        space = from_preorder([1 << i for i in range(n)], "discrete", [f"p{i}" for i in range(n)])
        for mask in (-1, space.full + 1, 1 << n, 1 << n | 1):
            with pytest.raises(TopologyError, match=rf"^mask {mask} is not a set of the {n} points$"):
                space.labels_of(mask)

    def test_labelling_a_few_sets_builds_a_few_label_entries(self):
        space = next(iter(_cli_class_products()))
        masks = [1, space.full, 0b1000_0000_0000_0011]
        for mask in masks:
            assert space.labels_of(mask) == ref_labels(space, mask)
        _, by_rank = space._cache["label_tables"]
        # the empty entry of each chunk and at most 8 per chunk a set reaches
        assert sum(len(table) for _, table in by_rank) <= 2 + 8 * 2 * len(masks)

    def test_many_point_labels_are_refused_without_wide_masks(self):
        labels = [f"p{i}" for i in range(20_000)]
        obj = {"name": "s", "points": labels, "opens": [[], *[[labels[-1]]] * 5_000]}
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge, match=r"^20000 points exceeds the 16-point cap$"):
                space_from_json(obj)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # an int 1 << i per label, or per open naming the last one, takes tens of MB
        assert peak < 8 << 20

    @pytest.mark.parametrize("obj", [obj for _, obj in MALFORMED + API_TUPLES],
                             ids=[name for name, _ in MALFORMED + API_TUPLES])
    def test_malformed_object_raises_the_reference_error(self, obj):
        want = _error_of(ref_space_from_json, obj)
        assert want is not None
        assert _error_of(space_from_json, obj) == want

    @pytest.mark.parametrize("obj", [obj for _, obj in ACCEPTED],
                             ids=[name for name, _ in ACCEPTED])
    def test_accepted_file_reads_as_the_reference(self, obj):
        got, want = space_from_json(obj), ref_space_from_json(obj)
        assert (got.point_labels, got.nbhds, got.opens) == (
            want.point_labels, want.nbhds, want.opens)


class TestMaskOf:
    def test_reads_one_memoized_index(self):
        space = _relabel(make_discrete(3), ["b", "a", "c"])
        assert space.mask_of(["a", "c"]) == 0b110
        index = space._cache["label_bits"]
        assert space.mask_of(["b", "b"]) == 0b001
        assert space._cache["label_bits"] is index

    def test_unknown_label_message(self):
        space = _relabel(make_discrete(2), ["a", "b"])
        with pytest.raises(UnknownLabel, match=r"^unknown point label 'z'$"):
            space.mask_of(["a", "z"])
