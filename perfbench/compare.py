"""Compare two sets of benchmark result files, metric by metric.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

A result file is the standard output of one ``run.py`` run (``sweep.py``
writes one per workload and seed).  For every workload and end-to-end
metric of BENCHMARK.json this prints one verdict:

- worse: the change's median is worse than the base's by more than the
  metric's bound (with a spread above the bound, only when every change
  run is worse than every base run);
- unresolved: the run-to-run spread (quartile distance over median) of
  either side exceeds the bound and the runs do not separate cleanly;
- better: the medians differ by more than the base's own spread and the
  change wins at least nine tenths of the runs paired by seed, ties
  counting for neither (or every change run beats every base run);
- no worse: anything else.

Runs paired by seed must also produce the same output digest.  A NOTE
row, which makes the exit code 1, marks every result file with no result
in it (a crashed run), and every workload or seed the base has and the
change lacks, so a change that crashes on some inputs cannot pass.
"""

from __future__ import annotations

import glob
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from stats import quartiles  # noqa: E402


def _read(path: str):
    """(info, result) of one run's standard output, or None if it holds no result."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [line for line in fh.read().splitlines() if line.strip()]
        info = next(json.loads(line[len("bench-info "):]) for line in lines
                    if line.startswith("bench-info "))
        result = json.loads(lines[-1])
    except (OSError, ValueError, StopIteration, IndexError):
        return None
    if not (isinstance(info, dict) and isinstance(result, dict)
            and isinstance(result.get("metrics"), dict)):
        return None
    return info, result


def load_results(directory: str) -> tuple[dict, list]:
    """Untraced runs as {workload: {seed: {"info": ..., "result": ...}}}, and
    the names of the result files that hold no result."""
    out: dict = {}
    broken = []
    for path in sorted(glob.glob(os.path.join(directory, "*.txt"))):
        read = _read(path)
        if read is None:
            broken.append(os.path.basename(path))
            continue
        info, result = read
        if not info["trace"]:
            out.setdefault(info["workload"], {})[info["seed"]] = {"info": info, "result": result}
    return out, broken


def verdict(base: list, change: list, bound: float, lower_is_better: bool,
            pairs: list) -> str:
    """One of better / no worse / worse / unresolved (see the module doc)."""
    sign = 1 if lower_is_better else -1
    b1, mb, b3 = quartiles(base)
    c1, mc, c3 = quartiles(change)
    worse_by = sign * (mc - mb) / mb
    spread_b, spread_c = (b3 - b1) / mb, (c3 - c1) / mc
    all_better = all(sign * c < sign * b for c in change for b in base)
    all_worse = all(sign * c > sign * b for c in change for b in base)
    if max(spread_b, spread_c) > bound:
        if worse_by > bound and all_worse:
            return "worse"
        return "better" if all_better else "unresolved"
    if worse_by > bound:
        return "worse"
    wins = sum(1 for b, c in pairs if sign * c < sign * b)
    if -worse_by > spread_b and (all_better or (pairs and wins >= 0.9 * len(pairs))):
        return "better"
    return "no worse"


def compare(base_dir: str, change_dir: str, bench: dict) -> list:
    (base, base_broken), (change, change_broken) = load_results(base_dir), load_results(change_dir)
    # sweep.py names result files <workload>-seed<N>.txt
    rows = [{"workload": name.split("-seed")[0], "note": f"{side} file {name} holds no result"}
            for side, names in (("base", base_broken), ("change", change_broken)) for name in names]
    for workload in sorted(set(base) - set(change)):
        rows.append({"workload": workload, "note": "the change has no result for this workload"})
    for workload in sorted(set(base) & set(change)):
        b_runs, c_runs = base[workload], change[workload]
        seeds = sorted(set(b_runs) & set(c_runs))
        lacking = sorted(set(b_runs) - set(c_runs))
        if lacking:
            rows.append({"workload": workload, "note": f"the change has no result for seeds {lacking}"})
        differ = [s for s in seeds
                  if b_runs[s]["info"]["digest"] != c_runs[s]["info"]["digest"]]
        wrong = [s for s, r in sorted(c_runs.items()) if not r["result"]["correct"]]
        for m in bench["end_to_end"]:
            name = m["name"]

            def values(runs):
                return [r["result"]["metrics"][name]["value"] for r in runs.values()]

            pairs = [(b_runs[s]["result"]["metrics"][name]["value"],
                      c_runs[s]["result"]["metrics"][name]["value"]) for s in seeds]
            b_vals, c_vals = values(b_runs), values(c_runs)
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": m["unit"],
                "base": quartiles(b_vals),
                "change": quartiles(c_vals),
                "bound": m["bound"],
                "verdict": verdict(b_vals, c_vals, m["bound"], m["better"] == "lower", pairs),
            })
        if differ:
            rows.append({"workload": workload, "note": f"outputs differ for seeds {differ}"})
        if wrong:
            rows.append({"workload": workload, "note": f"incorrect change runs for seeds {wrong}"})
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    rows = compare(argv[0], argv[1], bench)
    if not any("verdict" in r for r in rows):
        print("no workload has results on both sides", file=sys.stderr)
        for r in rows:
            print(f"{r['workload']:<8} NOTE: {r['note']}", file=sys.stderr)
        return 2
    print(f"{'workload':<8} {'metric':<14} {'base median [q1, q3]':<32} "
          f"{'change median [q1, q3]':<32} {'bound':>6}  verdict")
    for r in rows:
        if "note" in r:
            print(f"{r['workload']:<8} NOTE: {r['note']}")
            continue
        b, c = r["base"], r["change"]
        print(f"{r['workload']:<8} {r['metric']:<14} "
              f"{f'{b[1]:.5g} [{b[0]:.5g}, {b[2]:.5g}]':<32} "
              f"{f'{c[1]:.5g} [{c[0]:.5g}, {c[2]:.5g}]':<32} {r['bound']:>6}  {r['verdict']}")
    return 1 if any(r.get("verdict") == "worse" or "note" in r for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
