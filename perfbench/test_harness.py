"""Self-tests of the benchmark harness.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from compare import compare, verdict  # noqa: E402
from pace import REF_S, Pace  # noqa: E402
from stats import percentile, tail_percentile  # noqa: E402
from tracing import Tracer, install, wrap  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class ScriptedClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # a: 0..10 holding b: 1..4 (which holds c: 2..3) and d: 5..6
        tracer = Tracer(clock=ScriptedClock([0, 1, 2, 3, 4, 5, 6, 10]))
        tracer.enter("a")
        tracer.enter("b")
        tracer.enter("c")
        tracer.exit()
        tracer.exit()
        tracer.enter("d")
        tracer.exit()
        tracer.exit()
        self.assertEqual(tracer.total_s["a"], 10)
        self.assertEqual(tracer.self_s["a"], 10 - 3 - 1)
        self.assertEqual(tracer.self_s["b"], 3 - 1)
        self.assertEqual(tracer.self_s["c"], 1)
        self.assertEqual(tracer.self_s["d"], 1)
        self.assertEqual(tracer.top_s, 10)
        self.assertEqual(sum(tracer.self_s.values()), tracer.top_s)

    def test_same_name_recursion_counts_time_once(self):
        tracer = Tracer(clock=ScriptedClock([0, 2, 5, 9]))
        tracer.enter("f")
        tracer.enter("f")
        tracer.exit()
        tracer.exit()
        self.assertEqual(tracer.self_s["f"], 9)
        self.assertEqual(tracer.top_s, 9)


class Scaling(unittest.TestCase):
    def test_spans_and_total_scale_by_the_readings_around_them(self):
        # readings take 1, 3 and 2 units; half speed means 2 * REF_S
        unit = REF_S
        clock = ScriptedClock([0, unit, 5 * unit, 8 * unit, 10 * unit, 12 * unit])
        pace = Pace(clock=clock, kernel=lambda: None)     # reading 0..1
        pace.record(3 * unit)                              # between readings of 1 and 3
        pace.probe()                                       # reading 5..8
        pace.record(unit)                                  # between readings of 3 and 2
        raw, scaled, total, scaled_total = pace.finish()   # reading 10..12
        self.assertEqual(raw, [3 * unit, unit])
        self.assertAlmostEqual(scaled[0], 3 * unit * 2 / (1 + 3))
        self.assertAlmostEqual(scaled[1], unit * 2 / (3 + 2))
        self.assertAlmostEqual(total, 4 * unit + 2 * unit)
        # time-weighted: each interval gets its own factor
        self.assertAlmostEqual(scaled_total, 4 * unit * 2 / (1 + 3) + 2 * unit * 2 / (3 + 2))

    def test_end_readings_average_their_kernel_runs(self):
        unit = REF_S
        clock = ScriptedClock([0, 4 * unit, 10 * unit, 12 * unit])
        pace = Pace(probes=2, clock=clock, kernel=lambda: None)   # 2 runs in 4 units
        _, _, total, scaled_total = pace.finish()                 # 2 runs in 2 units
        self.assertAlmostEqual(total, 6 * unit)
        self.assertAlmostEqual(scaled_total, 6 * unit * 2 / (2 + 1))

    def test_probe_tracks_nothing_the_gc_counts(self):
        import gc

        from pace import probe_kernel

        before = gc.get_count()[0]
        probe_kernel()
        self.assertLessEqual(gc.get_count()[0] - before, 1)


class TailRule(unittest.TestCase):
    def test_examples(self):
        self.assertEqual(tail_percentile(74), 86)
        self.assertEqual(tail_percentile(1156), 99)
        self.assertEqual(tail_percentile(1001), 99)

    def test_ten_samples_beyond(self):
        for n in range(20, 3000, 7):
            p = tail_percentile(n)
            self.assertGreaterEqual(n * (100 - p), 1000)
            self.assertTrue(p == 99 or n * (100 - p - 1) < 1000)

    def test_too_few_samples_fall_back_to_median(self):
        self.assertEqual(tail_percentile(5), 50)

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(percentile(values, 50), 50)
        self.assertEqual(percentile(values, 99), 99)
        self.assertEqual(percentile([3.0], 86), 3.0)


class Determinism(unittest.TestCase):
    def setUp(self):
        self.dirs = [tempfile.mkdtemp(prefix="_work-test-", dir=HERE) for _ in range(3)]

    def tearDown(self):
        for d in self.dirs:
            shutil.rmtree(d, ignore_errors=True)

    def _inputs(self, workload, seed, workdir):
        inputs = WORKLOADS[workload][0](seed, workdir)
        if workload == "pairs":
            return inputs, [(x.name, y.name) for x, y in inputs]
        if workload == "cli":
            files = {}
            for name in sorted(os.listdir(workdir)):
                with open(os.path.join(workdir, name), encoding="utf-8") as fh:
                    files[name] = fh.read().replace(workdir, "W")
            argvs = [[a.replace(workdir, "W") for a in argv] for _, _, argv in inputs]
            return inputs, (argvs, files)
        return inputs, repr(inputs)

    def test_same_seed_same_inputs_and_digest(self):
        limits = {"pairs": 40, "spaces": 12, "cli": 9}
        for workload, limit in limits.items():
            with self.subTest(workload=workload):
                run_pass = WORKLOADS[workload][1]
                a, key_a = self._inputs(workload, 7, self.dirs[0])
                b, key_b = self._inputs(workload, 7, self.dirs[1])
                _, key_c = self._inputs(workload, 8, self.dirs[2])
                self.assertEqual(key_a, key_b)
                self.assertNotEqual(key_a, key_c)
                ra, rb = run_pass(a, Pace(), limit=limit), run_pass(b, Pace(), limit=limit)
                self.assertEqual(ra.digest, rb.digest)
                self.assertEqual((ra.failed, ra.problems), (0, []))
                self.assertEqual(ra.attempted, rb.attempted)


class WrappedCalls(unittest.TestCase):
    def test_wrapper_returns_what_the_function_returns(self):
        def f(a, b=2):
            return [a, b]

        g = wrap(Tracer(), "f", f)
        self.assertEqual(g(1, b=3), f(1, b=3))
        self.assertEqual(g.__name__, "f")

    def test_generator_wrapper_yields_the_same_items(self):
        def gen(n):
            yield from range(n)

        tracer = Tracer()
        self.assertEqual(list(wrap(tracer, "g", gen)(4)), [0, 1, 2, 3])
        self.assertEqual(tracer.calls["g"], 1)

    def test_installed_library_gives_the_same_results(self):
        from openpoint import enumeration, game, invariants, products, strategies

        x, y = list(enumeration.enumerate_labeled(3))[5:7]

        def results():
            prod = products.product([x, y])
            value = game.value_function(prod.space)
            chooser = strategies.aggregate_chooser([x, y], prod=prod)
            return (
                [s.opens for s in enumeration.enumerate_labeled(3)],
                enumeration.canonical_form(x),
                invariants.invariant_report(prod.space),
                prod.space.opens,
                game.solve_game(prod.space).value,
                [value(c) for c in (0, 1, 3)],
                game.evaluate_chooser(prod.space, chooser),
                {name: fn(x, y) for name, fn in enumeration.PAIR_CHECKS.items()},
                {name: fn(x) for name, fn in enumeration.SPACE_CHECKS.items()},
            )

        plain = results()
        originals = (products.product, enumeration.PAIR_CHECKS["fan-link"], game.solve_game)
        tracer = Tracer()
        inst = install(tracer)
        try:
            self.assertIsNot(products.product, originals[0])
            traced = results()
        finally:
            inst.remove()
        self.assertEqual(plain, traced)
        self.assertGreater(tracer.calls["products.product"], 0)
        self.assertEqual(tracer.stack, [])
        self.assertEqual(
            (products.product, enumeration.PAIR_CHECKS["fan-link"], game.solve_game), originals)


class Verdicts(unittest.TestCase):
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]

    def test_same_runs_are_no_worse(self):
        pairs = list(zip(self.base, self.base))
        self.assertEqual(verdict(self.base, self.base, 0.1, True, pairs), "no worse")

    def test_slower_by_more_than_bound_is_worse(self):
        change = [v * 1.3 for v in self.base]
        self.assertEqual(verdict(self.base, change, 0.1, True, list(zip(self.base, change))), "worse")

    def test_clearly_faster_is_better(self):
        change = [v * 0.8 for v in self.base]
        self.assertEqual(verdict(self.base, change, 0.1, True, list(zip(self.base, change))), "better")

    def test_wide_spread_is_unresolved(self):
        change = [5.0, 15.0, 8.0, 12.0, 10.0, 7.0, 13.0, 9.0, 11.0, 10.5]
        self.assertEqual(verdict(self.base, change, 0.1, True, list(zip(self.base, change))), "unresolved")

    def test_higher_is_better_metrics(self):
        change = [v * 0.7 for v in self.base]
        self.assertEqual(verdict(self.base, change, 0.1, False, list(zip(self.base, change))), "worse")


class MissingRuns(unittest.TestCase):
    bench = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}

    def write(self, directory, workload, seed, wall=None):
        text = ""
        if wall is not None:
            info = {"workload": workload, "seed": seed, "trace": 0, "digest": "d"}
            result = {"correct": True, "attempted": 1, "failed": 0,
                      "metrics": {"wall_s": {"value": wall, "unit": "s"}}}
            text = f"bench-info {json.dumps(info)}\n{json.dumps(result)}\n"
        with open(os.path.join(directory, f"{workload}-seed{seed}.txt"), "w") as fh:
            fh.write(text)

    def test_crashed_and_missing_runs_are_noted(self):
        with tempfile.TemporaryDirectory() as base, tempfile.TemporaryDirectory() as change:
            for seed in range(3):
                for workload in ("a", "b"):
                    self.write(base, workload, seed, 1.0)
            self.write(change, "a", 0, 1.0)
            self.write(change, "a", 1)          # crashed: empty output
            rows = compare(base, change, self.bench)
        notes = sorted(r["note"] for r in rows if "note" in r)
        self.assertEqual(notes, [
            "change file a-seed1.txt holds no result",
            "the change has no result for seeds [1, 2]",
            "the change has no result for this workload",
        ])
        self.assertEqual([r["verdict"] for r in rows if "verdict" in r], ["no worse"])


if __name__ == "__main__":
    unittest.main()
