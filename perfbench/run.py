"""openpoint benchmark: one workload, one seed, measured for a fixed time.

    python3 perfbench/run.py --workload pairs|spaces|cli --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every pass (one full set of subjects)
runs in a fresh worker process, one after another, until the next pass
would overrun ``--seconds``; at least one pass always runs, and a traced
run makes at least two traced passes.  Times are
scaled to a reference machine speed (see pace.py); the unscaled figures are
printed too.  ``setup_s``, ``wall_s`` and ``peak_rss_mib`` are medians over
workers; ``p50_ms`` and ``tail_ms`` are taken over the subjects of every
pass.  The untraced run (``--trace 0``) prints the end-to-end metrics of
BENCHMARK.json; the traced run (``--trace 1``) alternates traced passes
with untraced reference passes and prints the per-layer metrics with the
tracing overhead.  The last line of standard output is one JSON
object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from stats import percentile, tail_percentile  # noqa: E402

SETUP_REPEATS = 5       # set-up-only workers, besides the set-up of every pass
RUN_LIMIT_S = 170       # the whole run, workers included, ends within this


class BenchError(Exception):
    pass


def _worker(workload: str, seed: int, deadline: float, *flags) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), *flags]
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError("no time left for another worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {RUN_LIMIT_S} s run limit") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {' '.join(flags) or 'pass'} failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _passes(workload, seed, seconds, deadline, kinds, min_rounds=1):
    """Rounds of one worker per kind, until the next round would overrun ``seconds``.

    ``kinds`` lists the worker flags of one round; a traced run alternates an
    untraced reference pass with a traced pass.  Rounds continue past
    ``seconds`` until there are ``min_rounds``, as long as the next round
    fits well within the run limit.  Returns one list per kind.
    """
    start = time.perf_counter()
    done: list = [[] for _ in kinds]
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        for flags, out in zip(kinds, done):
            out.append(_worker(workload, seed, deadline, *flags))
        now = time.perf_counter()
        longest = max(longest, now - t0)
        if now - start + longest <= seconds:
            continue
        if len(done[0]) < min_rounds and now + 1.5 * longest < deadline:
            continue
        return done


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    setups = [_worker(workload, seed, deadline, "--setup-only") for _ in range(SETUP_REPEATS)]
    if trace:
        # two traced passes at least, so that the counts can be seen to repeat
        plain, passes = _passes(workload, seed, seconds, deadline, [(), ("--trace",)], 2)
    else:
        plain = passes = _passes(workload, seed, seconds, deadline, [()])[0]
    every = plain + passes if trace else passes
    setups += every

    # the tail percentile follows from one pass's subject count, and is taken
    # over the subjects of every pass
    n = len(passes[0]["latencies"])
    p_tail = tail_percentile(n)
    pooled = [t for p in passes for t in p["latencies"]]
    raw_pooled = [t for p in passes for t in p["raw_latencies"]]
    digests = {p["digest"] for p in every}
    problems = sorted({msg for p in every for msg in p["problems"]})
    if len(digests) != 1:
        problems.append("passes with the same seed gave different outputs")
    attempted = sum(p["attempted"] for p in every)
    failed = sum(p["failed"] for p in every)
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "passes": len(passes),
        "subjects": n,
        "tail_percentile": p_tail,
        "digest": sorted(digests)[0],
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted if attempted else 1.0,
        "setup_s": statistics.median([p["setup_s"] for p in setups]),
        "wall_s": statistics.median([p["wall_s"] for p in passes]),
        "untraced_wall_s": statistics.median([p["wall_s"] for p in plain]),
        "p50_ms": percentile(pooled, 50) * 1e3,
        "tail_ms": percentile(pooled, p_tail) * 1e3,
        "raw": {
            "setup_s": statistics.median([p["raw_setup_s"] for p in setups]),
            "wall_s": statistics.median([p["raw_wall_s"] for p in passes]),
            "p50_ms": percentile(raw_pooled, 50) * 1e3,
            "tail_ms": percentile(raw_pooled, p_tail) * 1e3,
        },
        "peak_rss_mib": statistics.median([p["peak_rss_mib"] for p in passes]),
        "layers": [p["layers"] for p in passes] if trace else [],
    }


def layer_metrics(res: dict, names) -> tuple[dict, list]:
    """Per-layer medians over traced passes, and the counts that did not repeat.

    The second item is None when there was only one traced pass to compare.
    """
    layers = res["layers"]
    traced = res["wall_s"]
    plain = res["untraced_wall_s"]
    derived = {
        "bench.subjects": res["subjects"],
        "bench.trace_wall_s": traced,
        "bench.untraced_wall_s": plain,
        "bench.trace_overhead": traced / plain - 1,
    }
    out, unsteady = {}, []
    for name in names:
        if name in derived:
            out[name] = derived[name]
            continue
        values = [lay.get(name, 0) for lay in layers]
        timed = name.endswith(("_s", ".s")) or name.startswith("python.gc.")
        if not timed and len(set(values)) > 1:
            unsteady.append(name)
        out[name] = statistics.median(values)
    return out, unsteady if len(layers) > 1 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        if args.workload not in {w["name"] for w in bench["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        if not os.path.isfile(os.path.join(ROOT, "src", "openpoint", "__init__.py")):
            raise BenchError("src/openpoint is missing: run from the root of an openpoint checkout")
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    metric_defs = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in metric_defs}
    if args.trace:
        values, unsteady = layer_metrics(res, list(units))
    else:
        values, unsteady = {name: res[name] for name in units}, []

    print(f"workload {res['workload']}  seed {res['seed']}  trace {res['trace']}  "
          f"passes {res['passes']}  subjects/pass {res['subjects']}")
    for name, value in values.items():
        print(f"  {name:<48} {value:>14.6g} {units[name]}")
    print("  unscaled: " + "  ".join(f"{k} {v:.6g}" for k, v in res["raw"].items()))
    print(f"  tail_ms is p{res['tail_percentile']} of {res['subjects']} subjects per pass")
    print(f"  error_rate {res['error_rate']:.6g} ({res['failed']}/{res['attempted']} operations failed)")
    print(f"  output sha256 {res['digest']}")
    if args.trace:
        # the spans are measured in the traced passes, so they are checked against
        # the traced wall; what they leave out is the benchmark's own per-subject
        # code (probes excluded), allowed up to 5%
        covered, traced, plain = values["bench.top_spans_s"], res["wall_s"], res["untraced_wall_s"]
        accounted = abs(traced - covered) <= 0.05 * traced
        print(f"  top-level spans {covered:.4g} s of traced wall {traced:.4g} s "
              f"({covered / traced:.1%}): {'accounted' if accounted else 'NOT accounted'}")
        print(f"  untraced wall {plain:.4g} s - top-level spans = {plain - covered:+.4g} s; "
              f"tracing overhead {traced - plain:+.4g} s")
        if unsteady is None:
            print("  repeat check of counts did not run: only one traced pass")
        elif unsteady:
            print(f"  counts that did not repeat across passes: {', '.join(unsteady)}")
        else:
            print(f"  every count repeated exactly across {res['passes']} traced passes")
    for msg in res["problems"]:
        print(f"  PROBLEM: {msg}")
    info = {k: res[k] for k in ("workload", "seed", "trace", "passes", "subjects",
                                "tail_percentile", "digest", "error_rate")}
    print("bench-info " + json.dumps(info))
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
