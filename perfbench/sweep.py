"""Run the benchmark over several seeds and workloads, keep every result file.

    python3 perfbench/sweep.py --out DIR [--seeds 0-9] [--workloads pairs,cli]

Runs ``run.py`` untraced once per (workload, seed), one at a time, with
the ``run_seconds`` of BENCHMARK.json, and writes each run's standard
output to ``DIR/<workload>-seed<N>.txt``, empty if the run crashed.  Then prints, per workload and
end-to-end metric, the median, the quartiles and the spread (quartile
distance over median) against the metric's bound.  Two sweeps of this kind
are the input of compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from compare import load_results  # noqa: E402
from stats import quartiles, spread  # noqa: E402


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args(argv)

    os.makedirs(args.out, exist_ok=True)
    for workload in args.workloads.split(","):
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            path = os.path.join(args.out, f"{workload}-seed{seed}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(proc.stdout)
            last = proc.stdout.strip().splitlines()[-1:] or [proc.stderr.strip()]
            print(f"{workload} seed {seed}: exit {proc.returncode} {last[0][:160]}", flush=True)

    results, broken = load_results(args.out)
    for name in broken:
        print(f"{name} holds no result")
    for workload, runs in sorted(results.items()):
        for m in bench["end_to_end"]:
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in runs.values()]
            q1, med, q3 = quartiles(vals)
            s = spread(vals)
            print(f"{workload:<8} {m['name']:<14} median {med:<10.5g} q1 {q1:<10.5g} q3 {q3:<10.5g} "
                  f"spread {s:.4f}  bound {m['bound']}  ({s / m['bound']:.2f} of bound, "
                  f"{len(vals)} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
