"""The three workloads: set-up from a seed, then one timed pass.

Every workload is a closed loop with one client: subjects run one after
another in a single thread, each starting when the previous one finished.
The library is driven only through public entry points (the suite's check
registries, module functions and ``openpoint.cli.run``); the seed stays in
the benchmark and the library only receives the inputs made from it.

A pass hands each subject's latency to a ``pace.Pace`` and returns the
number of operations attempted and failed, a sha256 over its outputs in a
fixed order, and the problems found when checking those outputs.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import time
from dataclasses import dataclass, field

# Spaces workload: labeled topologies on 5 points (OEIS A000798) and their
# homeomorphism classes (A001930).
LABELED_5 = 6942
UNLABELED_5 = 139
SPACE_SAMPLE = 1000

# CLI workload: each session pairs a 4-point factor X with 3 minimal opens and
# 12 opens with a 4-point factor Y with 2 minimal opens and 6 opens; their
# products have 648..720 opens, the median of all such pairs.  Every command
# of a session loads or builds the product, so the lattice size sets its cost.
# Sessions of mixed sizes put the median and tail latency between clusters of
# commands, where they jumped by a fifth from run to run; sessions of one size
# keep each command kind in one cluster.  The seed picks the factors within
# the class, relabels their points and seeds the random picker.
CLI_SESSIONS = 8
CLI_CLASS = (12, 6)
CLI_KAPPA = "3"
D4_PLAYS = ("restricted", "multi-point")


@dataclass
class PassResult:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digest: str = ""
    extra: dict = field(default_factory=dict)


def _failed(detail) -> bool:
    """A check fails when it returns a payload other than a pure note."""
    if isinstance(detail, dict) and set(detail) == {"_note"}:
        return False
    return bool(detail)


def _run_check(fn, args, result: PassResult):
    result.attempted += 1
    try:
        detail = fn(*args)
    except Exception as exc:  # a crash is a failed operation, not a benchmark error
        result.failed += 1
        return {"error": f"{type(exc).__name__}: {exc}"}
    if _failed(detail):
        result.failed += 1
    return detail


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(json.dumps(item, sort_keys=True, separators=(",", ":"), default=repr).encode())
        h.update(b"\n")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# pairs: the suite's pair checks over every ordered pair of factors <= 3 points
# ---------------------------------------------------------------------------


def setup_pairs(seed: int, workdir: str):
    from openpoint import enumeration

    factors = [s for size in (1, 2, 3) for s in enumeration.enumerate_labeled(size)]
    subjects = [(x, y) for x in factors for y in factors]
    random.Random(seed).shuffle(subjects)
    return subjects


def run_pairs(subjects, pace, tracer=None, limit=None) -> PassResult:
    from openpoint import enumeration

    result = PassResult()
    records = []
    clock = time.perf_counter
    for x, y in subjects[:limit]:
        subject = f"{x.name}*{y.name}"
        pace.tick()
        t0 = clock()
        for name, fn in enumeration.PAIR_CHECKS.items():
            records.append((subject, name, _run_check(fn, (x, y), result)))
        pace.record(clock() - t0)
    records.sort(key=lambda r: (r[0], r[1]))
    result.digest = _digest(records)
    if result.failed:
        result.problems.append(f"{result.failed} pair checks failed")
    return result


# ---------------------------------------------------------------------------
# spaces: enumerate n = 5, then canonical form and every space check on a sample
# ---------------------------------------------------------------------------


def setup_spaces(seed: int, workdir: str):
    import openpoint  # noqa: F401  (set-up time includes the import)

    rng = random.Random(seed)
    return {"rng_state": rng.getstate(), "metric_seed": rng.randrange(1 << 31)}


def _stratified_sample(spaces, rng: random.Random, k: int):
    """One space from each of k runs of spaces ordered by lattice size.

    Check cost grows with the number of opens, so stratifying on it keeps
    the sampled work, and its tail, nearly the same for every seed.
    """
    order = sorted(range(len(spaces)), key=lambda i: (len(spaces[i].opens), i))
    bounds = [len(order) * j // k for j in range(k + 1)]
    return [spaces[order[rng.randrange(lo, hi)]] for lo, hi in zip(bounds, bounds[1:])]


def _space_signature(space):
    """Sizes of the opens and of the minimal opens: equal for homeomorphic spaces."""
    opens = [u for u in space.opens if u]
    minimal = [u for u in opens if not any(v != u and v & u == v for v in opens)]
    return sorted(u.bit_count() for u in opens), sorted(u.bit_count() for u in minimal)


def run_spaces(inputs, pace, tracer=None, limit=None) -> PassResult:
    from openpoint import enumeration, metric

    result = PassResult()
    clock = time.perf_counter
    spaces = list(enumeration.enumerate_labeled(5))
    if len(spaces) != LABELED_5:
        result.problems.append(f"enumerated {len(spaces)} labeled spaces, want {LABELED_5}")
    rng = random.Random()
    rng.setstate(inputs["rng_state"])
    sample = _stratified_sample(spaces, rng, SPACE_SAMPLE)[:limit]

    outputs = []
    classes: dict = {}
    for space in sample:
        pace.tick()
        t0 = clock()
        result.attempted += 1
        try:
            form = enumeration.canonical_form(space)
        except Exception as exc:  # a crash is a failed operation
            result.failed += 1
            form = f"{type(exc).__name__}: {exc}"
        details = [
            (name, _run_check(fn, (space,), result))
            for name, fn in enumeration.SPACE_CHECKS.items()
        ]
        pace.record(clock() - t0)
        outputs.append((space.name, form, details))
        classes.setdefault(repr(form), []).append(space)

    pace.tick()
    t0 = clock()
    violations = []
    for sp in metric.random_pseudometrics(count=20, max_points=8, seed=inputs["metric_seed"]):
        violations.append(_run_check(metric.greedy_run_violations, (sp,), result))
    pace.record(clock() - t0)
    outputs.append(("metric-corpus", inputs["metric_seed"], violations))

    if result.failed:
        result.problems.append(f"{result.failed} space operations failed")
    if len(classes) > UNLABELED_5:
        result.problems.append(f"{len(classes)} canonical forms, more than {UNLABELED_5} classes")
    for form, members in classes.items():
        if len({repr(_space_signature(s)) for s in members}) != 1:
            result.problems.append(f"canonical form {form} joins non-homeomorphic spaces")
            break
    result.digest = _digest(outputs)
    if tracer is not None:
        calls = tracer.calls["invariants.invariant_report"]
        result.extra["invariants.invariant_report.per_space"] = calls / max(1, len(sample))
    return result


# ---------------------------------------------------------------------------
# cli: seeded sessions of openpoint commands on product files, plus D4 x D4
# ---------------------------------------------------------------------------


def _relabel(space, perm, labels, name):
    from openpoint.space import space_from_masks

    def move(mask):
        out = 0
        for i in range(space.n):
            if mask >> i & 1:
                out |= 1 << perm[i]
        return out

    return space_from_masks(name, labels, [move(u) for u in space.opens])


def setup_cli(seed: int, workdir: str):
    from openpoint import enumeration
    from openpoint.space import minimal_opens, save_space, space_from_masks

    rng = random.Random(seed)
    pools: dict = {}
    for s in enumeration.enumerate_labeled(4):
        pools.setdefault((len(minimal_opens(s)), len(s.opens)), []).append(s)

    def path(name):
        return os.path.join(workdir, name)

    commands = []  # (session, kind, argv)
    px, py = pools[(3, CLI_CLASS[0])], pools[(2, CLI_CLASS[1])]
    for i in range(CLI_SESSIONS):
        x = _relabel(rng.choice(px), rng.sample(range(4), 4), [f"x{j}" for j in range(4)], f"X{i}")
        y = _relabel(rng.choice(py), rng.sample(range(4), 4), [f"y{j}" for j in range(4)], f"Y{i}")
        fx, fy, fp = path(f"x{i}.json"), path(f"y{i}.json"), path(f"p{i}.json")
        save_space(x, fx)
        save_space(y, fy)
        with open(path(f"spec{i}.json"), "w", encoding="utf-8") as fh:
            json.dump({"factors": [fx, fy]}, fh)
        commands += [
            (i, "invariants", ["invariants", fx]),
            (i, "product", ["product", fx, fy, "-o", fp]),
            (i, "solve", ["solve", fp, "--variant", "restricted"]),
            (i, "solve", ["solve", fp, "--variant", "free"]),
            (i, "solve", ["solve", fp, "--variant", "multi-point"]),
            (i, "play", ["--seed", str(rng.randrange(1 << 31)), "play", fx, fy,
                         "--pI", "aggregate", "--pII", "random", "--ledger", path(f"ledger{i}.ndjson")]),
            (i, "play", ["play", fx, fy, "--pI", "product", "--pII", "stall"]),
            (i, "play", ["play", fx, fy, "--pI", "optimal", "--pII", "optimal"]),
            (i, "fan-check", ["fan-check", path(f"spec{i}.json"), "--kappa", CLI_KAPPA]),
        ]
    d4 = path("d4.json")
    save_space(space_from_masks("D4", ["a", "b", "c", "d"], range(16)), d4)
    for variant in D4_PLAYS:
        commands.append(("D4xD4", "play", ["play", d4, d4, "--pI", "optimal", "--pII", "optimal",
                                           "--variant", variant]))
    return commands


def _check_cli_output(session, kind, argv, lines, solved, problems):
    """Check one command's NDJSON against what the theory guarantees."""
    recs = [json.loads(line) for line in lines]
    if kind == "invariants":
        r = recs[0]
        if not 1 <= r["d"] <= r["delta"] <= r["gd"] <= r["pi"] <= r["w"]:
            problems.append(f"invariant chain broken for session {session}: {r}")
    elif kind == "solve":
        start = [r["value"] for r in recs if r["closed_set"] == []]
        if start:
            solved.setdefault(session, {})[argv[-1]] = start[0]
        else:
            problems.append(f"solve gave no value at the empty state in session {session}")
    elif kind == "play":
        last = recs[-1]
        if last["length"] < last["gd"]:
            problems.append(f"play beat gd in session {session}: {argv}")
        if "optimal" == argv[argv.index("--pII") + 1] and not last["matched_gd"]:
            problems.append(f"optimal play missed gd in session {session}")
        if session == "D4xD4" and last["gd"] != 16:
            problems.append(f"gd(D4 x D4) = {last['gd']}, want 16")
    elif kind == "fan-check" and recs[0]["status"] == "unknown":
        problems.append(f"fan-check unknown in session {session}")


def run_cli(commands, pace, tracer=None, limit=None) -> PassResult:
    from openpoint import cli

    result = PassResult()
    clock = time.perf_counter
    outputs = []
    solved: dict = {}
    counted = ("game.solve_game.states", "game.value_function.evals")
    for session, kind, argv in commands[:limit]:
        out, err = io.StringIO(), io.StringIO()
        args = (argv, out, err, io.StringIO(""))
        before = [tracer.counts[k] for k in counted] if tracer else None
        pace.tick()
        t0 = clock()
        result.attempted += 1
        try:
            code = tracer.span(f"cli.{kind}", cli.run, *args) if tracer else cli.run(*args)
        except Exception as exc:  # a crash is a failed operation
            code = f"{type(exc).__name__}: {exc}"
        pace.record(clock() - t0)
        if tracer and session == "D4xD4":
            for key, b in zip(counted, before):
                result.extra[f"{key}_d4xd4"] = result.extra.get(f"{key}_d4xd4", 0) + tracer.counts[key] - b
        ledger = ""
        if "--ledger" in argv and code == 0:
            with open(argv[argv.index("--ledger") + 1], encoding="utf-8") as fh:
                ledger = fh.read()
        outputs.append((session, kind, code, out.getvalue(), ledger))
        if code != 0:
            result.failed += 1
            result.problems.append(f"{' '.join(argv)} exited {code}: {err.getvalue().strip()}")
            continue
        try:
            _check_cli_output(session, kind, argv, out.getvalue().splitlines(), solved, result.problems)
        except (ValueError, KeyError, IndexError) as exc:
            result.problems.append(f"unreadable output of {argv[0]} in session {session}: {exc}")
    for session, gd in solved.items():
        if len(gd) == 3 and not (gd["restricted"] == gd["free"] and gd["multi-point"] <= gd["free"]):
            result.problems.append(f"solve variants disagree in session {session}: {gd}")
    result.digest = _digest(outputs)
    return result


WORKLOADS = {
    "pairs": (setup_pairs, run_pairs),
    "spaces": (setup_spaces, run_spaces),
    "cli": (setup_cli, run_cli),
}
