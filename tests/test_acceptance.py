"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line once its criterion holds (visible with
``pytest tests/test_acceptance.py -v -s``).  All tolerances are exact; the
only numeric caps are the stated wall-clock budgets.
"""

import hashlib
import io
import itertools
import time
from fractions import Fraction

import pytest

from openpoint.enumeration import enumerate_labeled, enumerate_unlabeled
from openpoint.game import (
    GameVariant,
    evaluate_chooser,
    exact_force_set,
    run_game,
    solve_game,
)
from openpoint.invariants import (
    delta,
    delta_oracle,
    density,
    density_brute,
    invariant_report,
    pi_weight,
    pi_weight_brute,
    weight,
    weight_brute,
)
from openpoint.metric import (
    greedy_dense_sequence,
    pseudometric,
    random_pseudometrics,
    topology_from_pseudometric,
    zero_classes,
)
from openpoint.products import FanStatus, fan_tightness_check, minimal_open_boxes, product
from openpoint.space import closure, is_dense, minimal_opens, subspace
from openpoint.strategies import (
    aggregate_chooser,
    dense_point_picker,
    pi_base_chooser,
    product_chooser,
)

from .game_oracle import chooser_line_lengths, oracle_values

pytestmark = pytest.mark.acceptance

METRIC_SEED = 20260808


@pytest.fixture(scope="module")
def corpus4():
    return [s for n in (1, 2, 3, 4) for s in enumerate_labeled(n)]


@pytest.fixture(scope="module")
def corpus3():
    return [s for n in (1, 2, 3) for s in enumerate_labeled(n)]


def test_criterion_1_enumeration_cross_check():
    start = time.time()
    labeled = {}
    for n, expect in [(1, 1), (2, 4), (3, 29), (4, 355)]:
        fam = [s.opens for s in enumerate_labeled(n, method="family")]
        pre = [s.opens for s in enumerate_labeled(n, method="preorder")]
        assert fam == pre, f"generators disagree at n={n}"
        assert len(fam) == expect, f"labeled count at n={n}: {len(fam)} != {expect}"
        labeled[n] = len(fam)
    unlabeled = {}
    for n, expect in [(2, 3), (3, 9), (4, 33)]:
        got = sum(1 for _ in enumerate_unlabeled(n))
        assert got == expect, f"unlabeled count at n={n}: {got} != {expect}"
        unlabeled[n] = got
    elapsed = time.time() - start
    assert elapsed < 60, f"criterion 1 took {elapsed:.1f}s (cap 60s)"
    print(f"PASS criterion 1: labeled {labeled}, unlabeled {unlabeled}, "
          f"generators identical ({elapsed:.1f}s)")


def test_criterion_2_invariant_chain(corpus4):
    start = time.time()
    four_point = 0
    for space in corpus4:
        rep = invariant_report(space)
        assert 1 <= rep.d <= rep.delta <= rep.gd <= rep.pi <= rep.w, \
            f"chain fails on {space.name}: {rep}"
        if space.n >= 2:
            assert rep.w <= (1 << space.n) - 2, f"w cap fails on {space.name}"
        assert rep.d == density_brute(space), space.name
        assert rep.pi == pi_weight_brute(space), space.name
        assert rep.w == weight_brute(space), space.name
        assert rep.delta == delta_oracle(space), space.name
        if space.n == 4:
            four_point += 1
    elapsed = time.time() - start
    assert four_point == 355
    assert elapsed < 300, f"criterion 2 took {elapsed:.1f}s (cap 300s)"
    print(f"PASS criterion 2: d<=delta<=gd<=pi<=w with oracle cross-checks on "
          f"{len(corpus4)} spaces incl. all 355 four-point ones ({elapsed:.1f}s)")


def test_criterion_3_variant_equivalences(corpus4):
    # the one solver table against plain minimax under the free and the
    # multi-point rules, every offer and every reply walked
    multi_always_equal = True
    for space in corpus4:
        gd = solve_game(space).gd
        gd_f = oracle_values(space, GameVariant.FREE)[0]
        gd_m = oracle_values(space, GameVariant.MULTI_POINT)[0]
        assert gd == invariant_report(space).gd, f"structural gd differs on {space.name}"
        assert gd == gd_f, f"solver and free oracle differ on {space.name}"
        assert gd_m <= gd_f, f"multi-point exceeds free on {space.name}"
        multi_always_equal &= gd_m == gd_f
    print(f"PASS criterion 3: gd_restricted = gd_free and gd_multi <= gd_free on "
          f"{len(corpus4)} spaces (multi-point equality everywhere: {multi_always_equal})")


def test_criterion_4_exact_force(corpus4):
    nonempty = 0
    for space in corpus4:
        forced = exact_force_set(space)
        gd = solve_game(space).gd
        for k in forced:
            assert k == gd == delta(space) == density(space), \
                f"exact-force mismatch on {space.name}: {k}"
        nonempty += bool(forced)
    print(f"PASS criterion 4: every forcible exact length equals gd = delta = d "
          f"on {len(corpus4)} spaces ({nonempty} with non-empty force sets)")


def test_criterion_5_pi_base_bound(corpus4):
    for space in corpus4:
        worst = evaluate_chooser(space, pi_base_chooser(space))
        assert worst == pi_weight(space), \
            f"pi-base worst case {worst} != pi {pi_weight(space)} on {space.name}"
    print(f"PASS criterion 5: minimal pi-base strategy worst case is exactly pi "
          f"on {len(corpus4)} spaces")


def test_criterion_6_dense_picker_lower_bound(corpus3):
    checked = 0
    for space in corpus3:
        for a in range(1, space.full + 1):
            if not is_dense(space, a):
                continue
            picker = dense_point_picker(space, a)
            target = density(subspace(space, a))
            lengths = chooser_line_lengths(space, picker)
            assert lengths and min(lengths) >= target, \
                f"picker beaten on {space.name}, dense set {a}"
            checked += 1
    print(f"PASS criterion 6: dense-picker lower bound holds for {checked} "
          f"(space, dense set) pairs over every chooser line")


def test_criterion_7_product_theorems(corpus3):
    start = time.time()
    pairs = fan_holds = 0
    for x, y in itertools.product(corpus3, repeat=2):
        prod = product([x, y])
        gd_x, gd_y = solve_game(x).gd, solve_game(y).gd
        gd_prod = solve_game(prod.space).gd
        pi_x, pi_y = pi_weight(x), pi_weight(y)

        mins = minimal_opens(prod.space)
        assert mins == minimal_open_boxes(prod), f"{prod.space.name}: minimal opens"
        assert len(mins) == pi_x * pi_y, f"{prod.space.name}: pi multiplicativity"

        worst = evaluate_chooser(prod.space, product_chooser(x, y, prod=prod))
        assert gd_prod <= worst <= pi_x * gd_y, \
            f"{prod.space.name}: product strategy worst {worst}"

        agg = aggregate_chooser([x, y], prod=prod)
        agg_worst = evaluate_chooser(prod.space, agg)
        assert agg_worst <= gd_x * gd_y, \
            f"{prod.space.name}: aggregate worst {agg_worst} > {gd_x * gd_y}"
        transcript, final = run_game(
            prod.space, agg,
            lambda closed, offered, stage, rng: offered & -offered,
            GameVariant.RESTRICTED,
        )
        ledger = agg.ledger_of(final)
        ledger.check_increasing()
        assert transcript.terminal and len(ledger.entries) == transcript.length

        # the transfinite conclusion gd <= kappa needs cardinal absorption;
        # the finite form of the theorem is the aggregate bound above
        kappa = max(2, gd_x, gd_y)
        verdict = fan_tightness_check([x, y], kappa, "boxes")
        if verdict.status is FanStatus.HOLDS:
            fan_holds += 1
            assert agg_worst <= gd_x * gd_y
        pairs += 1
    elapsed = time.time() - start
    assert pairs == len(corpus3) ** 2 == 1156
    assert fan_holds == pairs, "fan-tightness did not hold on every pair"
    assert elapsed < 600, f"criterion 7 took {elapsed:.1f}s (cap 600s)"
    print(f"PASS criterion 7: pi multiplicativity, strategy bounds, increasing "
          f"ledgers and the fan-link on all {pairs} ordered pairs ({elapsed:.1f}s)")


def test_criterion_8_greedy_metric():
    worked = pseudometric(
        ["a", "b", "c"],
        [[0, Fraction(2, 5), 1], [Fraction(2, 5), 0, Fraction(3, 5)], [1, Fraction(3, 5), 0]],
    )
    run = greedy_dense_sequence(worked, start=0)
    assert run.order == (0, 2, 1), f"worked example order {run.order}"
    assert run.radii == (Fraction(1), Fraction(2, 5)), f"worked example radii {run.radii}"

    checked = 0
    for m in random_pseudometrics(count=200, max_points=12, seed=METRIC_SEED):
        run = greedy_dense_sequence(m)
        for a, b in zip(run.radii, run.radii[1:]):
            assert b <= a, "radii increased"
        for step in range(1, len(run.order)):
            for alpha in range(step):
                assert m.dist[run.order[step]][run.order[alpha]] >= run.radii[step - 1] / 2, \
                    "separation violated"
        space = topology_from_pseudometric(m)
        picked = 0
        for p in run.order:
            picked |= 1 << p
        assert closure(space, picked) == space.full, "picks not dense"
        assert len(run.order) == len(zero_classes(m)), "length != class count"
        gd = solve_game(space).gd
        assert density(space) == delta(space) == gd == pi_weight(space) == weight(space), \
            "partition topology failed to collapse"
        checked += 1
    assert checked == 200
    print(f"PASS criterion 8: worked example exact, and 200 random pseudometric "
          f"spaces (n<=12) satisfy every greedy and collapse property")


def _suite_report(n):
    from openpoint.cli import run as cli_run

    out = io.StringIO()
    code = cli_run(
        ["--seed", "11", "suite", "--n", str(n), "--checks", "all"],
        out=out, err=io.StringIO(),
    )
    return code, out.getvalue()


def test_criterion_9_determinism():
    code1, report1 = _suite_report(3)
    code2, report2 = _suite_report(3)
    assert code1 == code2 == 0
    assert report1 == report2, "reports differ between identical runs"
    assert report1.count("\n") > 100
    assert hashlib.sha256(report1.encode()).hexdigest() == (
        "71de0832ba84ebf0853ee7bca07fd591c0a261e99f827f7d2b96511e0ea0c44f"
    ), "the n = 3 suite report changed"
    print(f"PASS criterion 9: two identical-seed suite runs produced "
          f"byte-identical NDJSON reports ({report1.count(chr(10))} lines)")


def test_suite_report_n4_is_pinned():
    code, report = _suite_report(4)
    assert code == 0
    assert hashlib.sha256(report.encode()).hexdigest() == (
        "d73a092b9b6b8eff3ee84ea9df9680d53ba334b5c2872fd7e9916011a5059417"
    ), "the n = 4 suite report changed"


@pytest.mark.slow
def test_suite_report_n5_is_pinned():
    code, report = _suite_report(5)
    assert code == 0
    assert hashlib.sha256(report.encode()).hexdigest() == (
        "473f58696bb347c3d1f783bf44f266a683b82297a5fc6e5f30e0c89c47d9c356"
    ), "the n = 5 suite report changed"
