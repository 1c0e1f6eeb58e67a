from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from openpoint.game import solve_game
from openpoint.invariants import delta, density, pi_weight, weight
from openpoint.metric import (
    GreedyRun,
    InvalidMetric,
    greedy_dense_sequence,
    greedy_run_violations,
    metric_from_json,
    metric_to_json,
    pseudometric,
    random_pseudometrics,
    topology_from_pseudometric,
    zero_classes,
)
from openpoint.space import TooLarge, closure, space_from_masks

from .conftest import make_discrete, make_indiscrete


def line_metric(positions):
    pos = [Fraction(p) for p in positions]
    labels = [f"q{i}" for i in range(len(pos))]
    return pseudometric(labels, [[abs(a - b) for b in pos] for a in pos])


class TestValidation:
    def test_nonzero_diagonal(self):
        with pytest.raises(InvalidMetric, match="self-distance"):
            pseudometric(["a"], [[1]])

    def test_asymmetry(self):
        with pytest.raises(InvalidMetric, match="asymmetry"):
            pseudometric(["a", "b"], [[0, 1], [2, 0]])

    def test_triangle_violation_located(self):
        with pytest.raises(InvalidMetric, match="triangle"):
            pseudometric(
                ["a", "b", "c"],
                [[0, 1, 5], [1, 0, 1], [5, 1, 0]],
            )

    def test_negative_distance(self):
        with pytest.raises(InvalidMetric, match="negative"):
            pseudometric(["a", "b"], [[0, -1], [-1, 0]])


class TestInducedTopology:
    def test_two_classes(self):
        m = pseudometric(["a", "b", "c"], [[0, 0, 1], [0, 0, 1], [1, 1, 0]])
        space = topology_from_pseudometric(m)
        assert space.opens == (0b000, 0b011, 0b100, 0b111)

    def test_all_positive_gives_discrete(self):
        m = line_metric([0, 1, 3])
        assert topology_from_pseudometric(m) == make_discrete(3)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_rows_match_the_validated_unions_of_classes(self, seed):
        # the union-of-classes family the topology is no longer built from
        for m in random_pseudometrics(count=4, max_points=8, seed=seed):
            classes = zero_classes(m)
            unions = [
                sum(cls for i, cls in enumerate(classes) if code >> i & 1)
                for code in range(1 << len(classes))
            ]
            want = space_from_masks("unions", m.labels, unions)
            got = topology_from_pseudometric(m)
            assert got.nbhds == want.nbhds and got.opens == want.opens

    def test_more_points_than_a_space_file_is_refused(self):
        m = line_metric(range(17))
        with pytest.raises(TooLarge, match="17 points"):
            topology_from_pseudometric(m)

    def test_all_zero_gives_indiscrete(self):
        m = pseudometric(["a", "b"], [[0, 0], [0, 0]])
        assert topology_from_pseudometric(m) == make_indiscrete(2)


class TestGreedy:
    def test_worked_line_example(self):
        m = line_metric([0, Fraction(2, 5), 1])
        run = greedy_dense_sequence(m, start=0)
        assert run == GreedyRun(order=(0, 2, 1), radii=(Fraction(1), Fraction(2, 5)))

    def test_all_zero_single_pick(self):
        m = pseudometric(["a", "b", "c"], [[0] * 3] * 3)
        run = greedy_dense_sequence(m, start=1)
        assert run.order == (1,) and run.radii == ()

    def test_two_classes_at_distance_one(self):
        m = pseudometric(["a", "b", "c"], [[0, 0, 1], [0, 0, 1], [1, 1, 0]])
        run = greedy_dense_sequence(m, start=0)
        assert len(run.order) == 2 and run.radii == (Fraction(1),)

    def test_run_length_equals_class_count(self):
        m = line_metric([0, 0, 2, 5, 5])
        run = greedy_dense_sequence(m, start=3)
        assert len(run.order) == len(zero_classes(m)) == 3

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_runs_clean(self, seed):
        for m in random_pseudometrics(count=3, max_points=7, seed=seed):
            assert greedy_run_violations(m) == []

    def test_separation_and_density(self):
        m = line_metric([0, 1, 2, 7, 9])
        run = greedy_dense_sequence(m)
        space = topology_from_pseudometric(m)
        covered = 0
        for p in run.order:
            covered |= 1 << p
        assert closure(space, covered) == space.full
        for beta in range(1, len(run.order)):
            for alpha in range(beta):
                assert m.dist[run.order[beta]][run.order[alpha]] >= run.radii[beta - 1] / 2


class TestMetricCollapse:
    def test_partition_topology_collapses(self):
        m = line_metric([0, 0, 1, 4])
        space = topology_from_pseudometric(m)
        gd = solve_game(space).gd
        assert density(space) == delta(space) == gd == pi_weight(space) == weight(space)


class TestJson:
    def test_fraction_and_decimal_strings(self):
        obj = {"points": ["a", "b"], "dist": [["0", "2/5"], ["0.4", 0]]}
        m = metric_from_json(obj)
        assert m.dist[0][1] == m.dist[1][0] == Fraction(2, 5)

    def test_roundtrip(self):
        m = line_metric([0, Fraction(1, 3), 2])
        assert metric_from_json(metric_to_json(m)) == m

    def test_exponents_up_to_three_digits(self):
        obj = {"points": ["a", "b"], "dist": [["0", "2E-007"], ["2e-0007", 0]]}
        assert metric_from_json(obj).dist[0][1] == Fraction(2, 10**7)
        obj["dist"] = [["0", "1e1000"], ["1e1000", 0]]
        with pytest.raises(InvalidMetric, match="exponent"):
            metric_from_json(obj)

    def test_bad_string_rejected(self):
        with pytest.raises(InvalidMetric):
            metric_from_json({"points": ["a"], "dist": [["zebra"]]})
