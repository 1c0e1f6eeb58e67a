from functools import reduce
from operator import or_
from unittest import mock

import pytest
from hypothesis import given, seed, settings, strategies as st

from openpoint import game, invariants
from openpoint import space as space_module
from openpoint.game import solved_gd
from openpoint.invariants import (
    InvariantReport,
    _least_cover,
    _subsets_by_size,
    delta,
    delta_oracle,
    dense_densities,
    density,
    density_brute,
    invariant_report,
    pi_weight,
    pi_weight_brute,
    tightness,
    weight,
    weight_brute,
)
from openpoint.space import FiniteSpace, bits, closures, subspace, validate_topology

from .conftest import make_chain, make_discrete, make_indiscrete, make_two_sierpinski
from .invariant_oracle import (
    delta_by_subspaces,
    least_family,
    pi_weight_scan,
    tightness_scan,
    weight_scan,
)
from .util import closure_tables, preorders, refuse, rowless, spaces


class TestDensity:
    def test_sierpinski(self, sierpinski):
        assert density(sierpinski) == 1
        assert density_brute(sierpinski) == 1

    def test_discrete_three(self):
        assert density(make_discrete(3)) == 3

    def test_two_sierpinski(self, two_sierpinski):
        assert density(two_sierpinski) == 2

    @given(spaces(max_points=6))
    def test_formula_matches_brute_force(self, space):
        assert density(space) == density_brute(space)

    @pytest.mark.parametrize("n", range(7))
    def test_subsets_come_in_size_order(self, n):
        # the brute routes rest on this order, not on the inclusion-minimality
        # that would make value order give the same answers
        order = _subsets_by_size(n)
        assert sorted(order) == list(range(1 << n))
        sizes = [m.bit_count() for m in order]
        assert sizes == sorted(sizes)


class TestPiWeight:
    def test_sierpinski(self, sierpinski):
        assert pi_weight(sierpinski) == 1

    def test_indiscrete(self):
        assert pi_weight(make_indiscrete(5)) == 1

    def test_discrete_four(self):
        assert pi_weight(make_discrete(4)) == 4

    @given(spaces(max_points=6))
    def test_formula_matches_brute_force(self, space):
        assert pi_weight(space) == pi_weight_brute(space)


class TestWeight:
    def test_sierpinski(self, sierpinski):
        assert weight(sierpinski) == 2

    def test_one_proper_open(self):
        s = validate_topology(["p", "a", "b"], [[], ["a", "b"], ["p", "a", "b"]])
        assert weight(s) == 2

    def test_discrete(self):
        assert weight(make_discrete(4)) == 4

    def test_sierpinski_witnesses_pi_below_w(self, sierpinski):
        assert pi_weight(sierpinski) < weight(sierpinski)

    @given(spaces(max_points=6))
    def test_formula_matches_brute_force(self, space):
        assert weight(space) == weight_brute(space)


class TestDelta:
    def test_sierpinski(self, sierpinski):
        assert delta(sierpinski) == 1

    def test_two_sierpinski(self, two_sierpinski):
        assert delta(two_sierpinski) == 2

    def test_discrete(self):
        assert delta(make_discrete(3)) == 3

    @given(spaces(max_points=6))
    def test_pruned_matches_subspace_oracle(self, space):
        assert delta(space) == delta_oracle(space)

    def test_oracle_builds_no_subspace(self, monkeypatch):
        space = make_two_sierpinski()

        def boom(*args, **kwargs):
            raise AssertionError("delta_oracle must not build a space")

        monkeypatch.setattr(FiniteSpace, "__init__", boom)
        assert delta_oracle(space) == 2

    def test_dense_densities_match_the_subspaces(self, labeled_corpus):
        for spaces_n in labeled_corpus.values():
            for space in spaces_n:
                cls = closures(space)
                want = [(a, density(subspace(space, a)))
                        for a in range(1, space.full + 1) if cls[a] == space.full]
                assert list(dense_densities(space)) == want, space
                assert delta_oracle(space) == max(d for _, d in want), space


def holder_masks(cands, need):
    """A ``(cands, need)`` cover instance transposed: per bit r of ``need``, the i with r in ``cands[i]``."""
    return [sum(1 << i for i, cand in enumerate(cands) if cand >> r & 1) for r in bits(need)]


class TestLeastCover:
    def test_no_requirement_has_one_candidate(self):
        # every requirement has two or three candidates, so the search
        # branches and backs out of the first branch that fails
        holders = holder_masks([0b000111, 0b011001, 0b100110, 0b111000, 0b000011], 0b111111)
        assert _least_cover(holders) == 2

    def test_nothing_to_cover(self):
        assert _least_cover(holder_masks([0b1], 0)) == 0

    def test_an_unmet_requirement_raises(self):
        with pytest.raises(AssertionError):
            _least_cover(holder_masks([0b01, 0b01], 0b11))

    def test_a_requirement_whose_holders_contain_anothers(self):
        # {1} inside {0, 1, 2}: candidate 1 meets both, and {2, 3} needs one more
        assert _least_cover([0b0111, 0b0010, 0b1100]) == 2
        assert _least_cover([0b0111, 0b0010]) == 1

    @given(st.lists(st.integers(min_value=0, max_value=63), max_size=7),
           st.integers(min_value=1, max_value=63))
    def test_matches_the_family_scan(self, cands, need):
        def covers(family):
            return reduce(or_, family) & need == need

        holders = holder_masks(cands, need)
        try:
            least = least_family(cands, covers)
        except AssertionError:
            with pytest.raises(AssertionError):
                _least_cover(holders)
        else:
            assert _least_cover(holders) == least


class TestAgainstScans:
    """The cover searches and the closure sweep against the plain scans they replaced."""

    def test_pi_and_w(self, oracle_corpus):
        for space in oracle_corpus:
            assert pi_weight_brute(space) == pi_weight_scan(space), space
            assert weight_brute(space) == weight_scan(space), space

    def test_delta(self, oracle_corpus):
        for space in oracle_corpus:
            assert delta_oracle(space) == delta_by_subspaces(space), space

    def test_discrete_six(self):
        space = make_discrete(6)
        assert pi_weight_brute(space) == weight_brute(space) == 6


# the brute route of each report key, gd aside: the game solver reads the minimal opens
BRUTE_ROUTES = {"d": density_brute, "delta": delta_oracle, "pi": pi_weight_brute,
                "w": weight_brute, "t": tightness}


class TestOracleIndependence:
    """The brute oracles answer from the open lattice alone: no rows, minimal opens or point closures."""

    def test_the_oracles_answer_without_the_structural_routes(self, oracle_corpus, monkeypatch):
        want = [invariant_report(space) for space in oracle_corpus]
        for module in (invariants, space_module):
            for name in ("minimal_opens", "inclusion_minimal"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        monkeypatch.setattr(FiniteSpace, "point_closures", refuse)
        monkeypatch.setattr(FiniteSpace, "closure_of", refuse)
        for space, rep in zip(oracle_corpus, want):
            bare = rowless(space)
            for key, oracle in BRUTE_ROUTES.items():
                assert oracle(bare) == getattr(rep, key), (space.name, key)


class TestRandomPreorders:
    """The oracles against the report on random spaces of 6 to 8 points, past the exhaustive corpus."""

    @seed(34)
    @given(preorders(min_points=6, max_points=8))
    @settings(max_examples=120, deadline=None)
    def test_the_oracles_match_the_report(self, space):
        rep = invariant_report(space)
        got = {key: oracle(space) for key, oracle in BRUTE_ROUTES.items()}
        assert got == {key: getattr(rep, key) for key in got}, space.nbhds
        if space.n == 6:
            assert rep.delta == delta_by_subspaces(space), space.nbhds
            assert rep.t == tightness_scan(closures(space)), space.nbhds


class TestTightness:
    def test_sierpinski(self, sierpinski):
        assert tightness(sierpinski) == 1

    def test_discrete_four(self):
        assert tightness(make_discrete(4)) == 1

    def test_indiscrete_five(self):
        assert tightness(make_indiscrete(5)) == 1

    @given(spaces(max_points=4))
    @settings(max_examples=30)
    def test_always_one_on_finite_spaces(self, space):
        assert tightness(space) == 1

    def test_the_sweep_matches_the_scan(self, oracle_corpus):
        assert len(oracle_corpus) == 1 + 4 + 29 + 355 + 992
        for space in oracle_corpus:
            assert tightness(space) == tightness_scan(closures(space)) == 1, space.name

    @given(closure_tables())
    @settings(max_examples=200)
    def test_the_sweep_assumes_no_additivity(self, cls):
        # on tables that are not closures of a space, t can pass 1
        space = make_discrete((len(cls) - 1).bit_length())
        with mock.patch.object(invariants, "closures", lambda space: cls):
            assert tightness(space) == tightness_scan(cls)

    def test_a_table_with_tightness_two(self):
        # the point 2 is reached by {0, 1} but by neither of 0 and 1
        cls = (0, 0b001, 0b010, 0b111, 0b100, 0b101, 0b110, 0b111)
        with mock.patch.object(invariants, "closures", lambda space: cls):
            assert tightness(make_discrete(3)) == tightness_scan(cls) == 2


class TestReport:
    def test_sierpinski_chain(self, sierpinski):
        rep = invariant_report(sierpinski)
        assert rep == InvariantReport(d=1, delta=1, gd=1, pi=1, w=2, t=1)
        assert rep.chain_ok

    def test_record_keys(self, sierpinski):
        rec = invariant_report(sierpinski).as_record(sierpinski)
        assert list(rec) == ["space", "n", "d", "delta", "gd", "pi", "w", "t"]

    def test_chain_flag_rejects_bad_chain(self):
        assert not InvariantReport(d=2, delta=1, gd=1, pi=1, w=1, t=1).chain_ok

    def test_chain3(self):
        rep = invariant_report(make_chain(3))
        assert (rep.d, rep.pi, rep.w) == (1, 1, 3)

    def test_report_is_computed_once(self):
        space = make_chain(3)
        assert invariant_report(space) is invariant_report(space)

    def test_report_never_solves_or_scans(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("the report must not solve a game or scan subsets")

        monkeypatch.setattr(game.StrategyTable, "__call__", boom)
        for name in ("tightness", "closures"):
            monkeypatch.setattr(invariants, name, boom)
        monkeypatch.setattr(space_module, "closure", boom)
        rep = invariant_report(make_two_sierpinski())
        assert rep == InvariantReport(d=2, delta=2, gd=2, pi=2, w=4, t=1)

    @given(spaces(max_points=4))
    @settings(max_examples=30)
    def test_structural_gd_and_t_match_their_oracles(self, space):
        rep = invariant_report(space)
        assert rep.gd == solved_gd(space)
        assert rep.t == tightness(space)

    def test_finite_collapse_on_whole_corpus(self, labeled_corpus):
        # computed finding: the oracle routes give d = delta = gd = pi on
        # every space with n <= 4 (the report's four are one formula)
        for spaces in labeled_corpus.values():
            for space in spaces:
                routes = (density_brute, delta_oracle, solved_gd, pi_weight_brute)
                assert len({route(space) for route in routes}) == 1, space.name
