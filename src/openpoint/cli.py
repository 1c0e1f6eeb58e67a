"""Command-line entry point.

One binary, subcommand style: data goes to stdout as NDJSON (or a pretty
rendering with --format pretty), diagnostics go to stderr.  Exit codes:
0 success, 1 usage or file error, 2 failed check or Unknown verdict.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from contextlib import contextmanager, redirect_stdout
from math import prod as size_product

from . import enumeration, metric, products, strategies
from .game import (
    GameVariant,
    StrategyTable,
    first_point_picker,
    random_picker,
    run_game,
    solve_game,
    stalling_picker,
    table_picker,
)
from .invariants import invariant_report
from .space import (
    MAX_POINTS,
    TopologyError,
    load_space,
    save_space,
    space_from_json,
    space_to_json,
)


class UsageError(Exception):
    pass


class _HelpWritten(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; usage errors are 1 here
        raise UsageError(message)

    def exit(self, status=0, message=None):  # only -h exits here, once its help is written
        raise _HelpWritten


def _emit(stream, obj, fmt):
    if fmt == "pretty":
        stream.write(json.dumps(obj, indent=2, sort_keys=False) + "\n")
    else:
        stream.write(json.dumps(obj, separators=(",", ":")) + "\n")


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read(path, load):
    """``load(path)``, with unreadable files and malformed JSON as usage errors.

    Bytes that are not UTF-8, over-long integers and over-deep nesting are malformed JSON.
    """
    try:
        return load(path)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except TopologyError:
        raise
    except (ValueError, RecursionError) as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc


def _write(path, save):
    """``save(path)``, with an unwritable path as a usage error."""
    try:
        save(path)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


@contextmanager
def _output(path, out):
    """The stream to write to: ``out``, or the file ``path``, opened at once.

    Commands open their output file before the work starts, so that an
    unwritable path fails fast, as a usage error.  A command that fails
    after that leaves no file behind.
    """
    if path is None:
        yield out
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            try:
                yield fh
            except BaseException:
                fh.close()
                os.remove(path)
                raise
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


@functools.cache
def build_parser() -> _Parser:
    """The parser of every command, built on the first call and shared by later ones.

    It holds no per-call state: each ``parse_args`` fills a fresh namespace,
    and ``run`` routes ``-h`` output per call.
    """
    parser = _Parser(prog="openpoint")
    parser.add_argument("--format", choices=["ndjson", "pretty"], default="ndjson")
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate",
                       help="validate a space file, print it with opens sorted by size, then labels")
    p.add_argument("space")

    p = sub.add_parser("invariants", help="compute d, delta, gd, pi, w, t for a space")
    p.add_argument("space")

    p = sub.add_parser("solve", help="emit the optimal-play table of a space")
    p.add_argument("space")
    p.add_argument("--variant", choices=[v.value for v in GameVariant],
                   default=GameVariant.RESTRICTED.value,
                   help="every variant prints the same table")

    p = sub.add_parser("play", help="play one game, interactively or between policies")
    p.add_argument("spaces", nargs="+",
                   help="a space file; several files mean their product")
    p.add_argument("--pI", dest="chooser", default="optimal",
                   choices=["optimal", "pi-base", "product", "aggregate"])
    p.add_argument("--pII", dest="picker", default="interactive",
                   choices=["interactive", "random", "first", "stall", "optimal", "dense"])
    p.add_argument("--dense-set", default=None,
                   help="comma-separated labels for the dense picker")
    p.add_argument("--variant", choices=[v.value for v in GameVariant],
                   default=GameVariant.RESTRICTED.value)
    p.add_argument("--ledger", default=None,
                   help="write the aggregate strategy's phase ledger here")

    p = sub.add_parser("enumerate", help="stream every topology of a given size")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=["labeled", "unlabeled"], default="labeled")
    p.add_argument("--method", choices=["family", "preorder", "both"], default="preorder")
    p.add_argument("--out", default=None)

    p = sub.add_parser("suite", help="run verification checks over the exhaustive corpus")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--checks", default="all")
    p.add_argument("--report", default=None)

    p = sub.add_parser("product", help="materialize the product of space files")
    p.add_argument("spaces", nargs="+")
    p.add_argument("-o", "--out", default=None)

    p = sub.add_parser("fan-check", help="search the fan-tightness condition on factors")
    p.add_argument("spec", help='JSON file {"factors": [space-or-path, ...]}')
    p.add_argument("--kappa", type=int, required=True)
    p.add_argument("--pool", choices=["boxes", "all"], default="boxes")

    p = sub.add_parser("greedy", help="run the greedy dense sequence on a metric file")
    p.add_argument("metric")
    p.add_argument("--start", default=None, help="label of the first pick")

    return parser


def cmd_validate(args, out, *_):
    space = _read(args.space, load_space)
    _emit(out, space_to_json(space), args.format)
    return 0


def cmd_invariants(args, out, *_):
    space = _read(args.space, load_space)
    _emit(out, invariant_report(space).as_record(space), args.format)
    return 0


def cmd_solve(args, out, *_):
    space = _read(args.space, load_space)
    table = solve_game(space)
    for rec in table.records():
        _emit(out, rec, args.format)
    return 0


def _build_chooser(args, spaces_list, prod, table):
    name = args.chooser
    if name in ("product", "aggregate") and prod is None:
        raise UsageError(f"--pI {name} needs at least two space files")
    if name == "optimal":
        return strategies.table_chooser(table), None
    if name == "pi-base":
        space = prod.space if prod else spaces_list[0]
        return strategies.pi_base_chooser(space), None
    if name == "product":
        if len(spaces_list) != 2:
            raise UsageError("--pI product wants exactly two space files")
        return strategies.product_chooser(spaces_list[0], spaces_list[1]), None
    agg = strategies.aggregate_chooser(spaces_list)
    return agg, agg


def _build_picker(args, space, table):
    if args.picker == "random":
        return random_picker
    if args.picker == "first":
        return first_point_picker
    if args.picker == "stall":
        return stalling_picker(space)
    if args.picker == "optimal":
        return table_picker(table)
    if args.picker == "dense":
        mask = space.full
        if args.dense_set is not None:
            mask = space.mask_of(_split_labels(args.dense_set))
        return strategies.dense_point_picker(space, mask)
    return None  # interactive


def _split_labels(text: str) -> list[str]:
    """Split a label list at the commas outside parentheses.

    Product labels such as ``(a,(b,c))`` keep their inner commas.
    """
    labels, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            labels.append(text[start:i])
            start = i + 1
    labels.append(text[start:])
    return labels


def _interactive_picker(space, err, stdin):
    def pick(closed, offered, stage, rng=None):
        while True:
            err.write(f"offered open: {space.labels_of(offered)}\n")
            err.write("pick a point: ")
            err.flush()
            line = stdin.readline()
            if not line:
                raise UsageError("input ended before the game did")
            label = line.strip()
            try:
                mask = space.mask_of([label])
            except TopologyError:
                err.write(f"unknown point {label!r}; try again\n")
                continue
            if mask & offered:
                return mask
            err.write(f"{label} is outside the offered open; try again\n")

    return pick


def cmd_play(args, out, err, stdin):
    if args.ledger is not None and args.chooser != "aggregate":
        raise UsageError("--ledger only applies to the aggregate strategy")
    if args.dense_set is not None and args.picker != "dense":
        raise UsageError("--dense-set only applies to the dense picker")
    spaces_list = [_read(p, load_space) for p in args.spaces]
    with _output(args.ledger, None) as ledger:
        prod = products.product(spaces_list) if len(spaces_list) > 1 else None
        space = prod.space if prod else spaces_list[0]
        table = None
        if "optimal" in (args.chooser, args.picker):
            table = StrategyTable(space)
        chooser, agg = _build_chooser(args, spaces_list, prod, table)
        picker = _build_picker(args, space, table)
        if picker is None:
            picker = _interactive_picker(space, err, stdin)

        def emit_step(stage, step):
            _emit(out, {
                "stage": stage,
                "offered": space.labels_of(step.offered),
                "picked": space.labels_of(step.picks),
                "closure": space.labels_of(step.closure_after),
            }, args.format)

        transcript, final_state = run_game(
            space, chooser, picker, GameVariant(args.variant),
            rng=random.Random(args.seed), on_step=emit_step,
        )
        # gd is |minimal opens| in every variant; the suite's ``oracles``
        # check ties it to the solver
        gd = invariant_report(space).gd
        _emit(out, {
            "length": transcript.length,
            "gd": gd,
            "matched_gd": transcript.length == gd,
        }, args.format)
        if ledger is not None:
            for rec in agg.ledger_of(final_state).records():
                _emit(ledger, rec, "ndjson")
    return 0


def cmd_enumerate(args, out, *_):
    if args.mode == "labeled":
        stream = enumeration.enumerate_labeled(args.n, method=args.method)
    else:
        stream = enumeration.enumerate_unlabeled(args.n, method=args.method)
    with _output(args.out, out) as dest:
        for space in stream:
            _emit(dest, space_to_json(space), args.format)
    return 0


def cmd_suite(args, out, err, *_):
    """Write each record as it arrives, then the pass count to stderr; exit 2 if a check failed.

    Bad input fails before any record.  If a check raises, the records
    already on stdout stay there; a ``--report`` file is removed.
    """
    with _output(args.report, out) as stream:
        try:
            records = enumeration.verify_suite(args.n, checks=args.checks, seed=args.seed)
        except enumeration.UnknownChecks as exc:
            raise UsageError(str(exc)) from exc
        passed = total = 0
        for total, rec in enumerate(records, 1):
            _emit(stream, rec, args.format)
            passed += rec["status"] == "pass"
    err.write(f"{passed}/{total} checks passed\n")
    return 0 if passed == total else 2


def cmd_product(args, out, *_):
    spaces_list = [_read(p, load_space) for p in args.spaces]
    total = size_product(s.n for s in spaces_list)
    if total > MAX_POINTS:
        raise UsageError(
            f"the product would have {total} points; space files hold at most {MAX_POINTS}"
        )
    prod = products.product(spaces_list)
    if args.out:
        _write(args.out, lambda path: save_space(prod.space, path))
    else:
        _emit(out, space_to_json(prod.space), args.format)
    return 0


def cmd_fan_check(args, out, *_):
    spec = _read(args.spec, _load_json)
    raw = spec.get("factors") if isinstance(spec, dict) else None
    if not isinstance(raw, list) or not raw:
        raise UsageError('fan-check spec needs a non-empty "factors" list')
    if args.kappa < 1:
        raise UsageError(f"--kappa must be at least 1, got {args.kappa}")
    factors = [
        _read(f, load_space) if isinstance(f, str) else space_from_json(f)
        for f in raw
    ]
    verdict = products.fan_tightness_check(factors, args.kappa, candidate_policy=args.pool)
    _emit(out, {
        "status": verdict.status.value,
        "kappa": verdict.kappa,
        "cells": len(verdict.witness),
        "unknown_cells": len(verdict.unknown_cells),
    }, args.format)
    for (gamma, u), family in sorted(verdict.witness.items()):
        sub = products.product([factors[g] for g in gamma]).space
        _emit(out, {
            "gamma": list(gamma),
            "open": sub.labels_of(u),
            "family": [sub.labels_of(v) for v in family],
        }, args.format)
    return 0 if verdict.holds else 2


def cmd_greedy(args, out, *_):
    m = _read(args.metric, metric.load_metric)
    start = 0
    if args.start is not None:
        if args.start not in m.labels:
            raise UsageError(f"unknown start point {args.start!r}")
        start = m.labels.index(args.start)
    run = metric.greedy_dense_sequence(m, start=start)
    for stage, point in enumerate(run.order):
        _emit(out, {
            "stage": stage,
            "point": m.labels[point],
            "radius": str(run.radii[stage - 1]) if stage else None,
        }, args.format)
    return 0


COMMANDS = {
    "validate": cmd_validate,
    "invariants": cmd_invariants,
    "solve": cmd_solve,
    "play": cmd_play,
    "enumerate": cmd_enumerate,
    "suite": cmd_suite,
    "product": cmd_product,
    "fan-check": cmd_fan_check,
    "greedy": cmd_greedy,
}


def run(argv, out=None, err=None, stdin=None) -> int:
    """Run one command and return its exit code; ``-h`` writes its help to ``out`` and returns 0."""
    out = out or sys.stdout
    err = err or sys.stderr
    stdin = stdin or sys.stdin
    try:
        with redirect_stdout(out):  # argparse writes the -h help to sys.stdout
            args = build_parser().parse_args(argv)
        return COMMANDS[args.command](args, out, err, stdin)
    except _HelpWritten:
        return 0
    except (UsageError, TopologyError) as exc:
        err.write(f"error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run(None))


if __name__ == "__main__":
    main()
