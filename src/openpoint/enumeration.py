"""Exhaustive enumeration of finite topologies and the verification suite.

Two independent generators back each other: one filters subset families for
closure under union and intersection, the other walks reflexive transitive
relations and converts them to topologies.  The claims verified by the
suite are universally quantified over spaces, so exhaustiveness at small n
is the whole point.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations

from .game import (
    GameVariant,
    capped_table,
    evaluate_chooser,
    exact_force_set,
    solve_game,
    solved_gd,
)
from .invariants import (
    delta_oracle,
    dense_densities,
    density_brute,
    invariant_report,
    pi_weight,
    pi_weight_brute,
    tightness,
    weight_brute,
)
from .metric import greedy_run_violations, random_pseudometrics
from .products import (
    FanStatus,
    fan_tightness_check,
    minimal_open_boxes,
    minimal_opens_via_preorder,
    product,
)
from .space import (
    FiniteSpace,
    TooLarge,
    closures,
    enumerate_upsets,
    from_preorder,
    inclusion_minimal,
    interior,
    minimal_opens,
    space_from_masks,
)
from .strategies import aggregate_worst, dense_point_picker, pi_base_chooser, product_chooser

FAMILY_METHOD_CAP = 4
PREORDER_METHOD_CAP = 5
CANONICAL_FORM_CAP = 6  # the relabel tables hold n! * 2^n entries
PAIR_CAP = 3  # pair checks use factors of at most this many points


def _label_names(n: int):
    return tuple(f"p{i}" for i in range(n))


def _family_closure_masks(n: int):
    """All union/intersection-closed families containing the empty and full set."""
    if n > FAMILY_METHOD_CAP:
        raise TooLarge(f"family-closure generation is capped at n = {FAMILY_METHOD_CAP}")
    full = (1 << n) - 1
    middles = [m for m in range(1, full)]
    out = []
    for code in range(1 << len(middles)):
        chosen = [m for i, m in enumerate(middles) if code >> i & 1]
        family = set(chosen)
        family.add(0)
        family.add(full)
        ok = True
        fam = sorted(family)
        for i, a in enumerate(fam):
            for b in fam[i + 1:]:
                if a | b not in family or a & b not in family:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(tuple(fam))
    return sorted(out)


def _preorder_masks(n: int):
    """Opens of every topology: the up-sets of each reflexive transitive relation.

    Row x, the points above x, is chosen for x = 0, 1, ... by backtracking.
    It holds x and agrees with every earlier row y both ways: y in row x
    needs row y inside row x, and x in row y needs row x inside row y.
    Every pair of points is checked once, so each completed choice is a
    preorder, and no two are the same; distinct preorders have distinct
    up-sets, so no family repeats.  The families are validated once, as
    spaces, by ``enumerate_labeled``.
    """
    if n > PREORDER_METHOD_CAP:
        raise TooLarge(f"preorder generation is capped at n = {PREORDER_METHOD_CAP}")
    rows = [0] * n
    out = []

    def place(x):
        if x == n:
            out.append(enumerate_upsets(rows))
            return
        bit = 1 << x
        for row in range(bit, 1 << n):
            if not row & bit:
                continue
            for y in range(x):
                ry = rows[y]
                if (row >> y & 1 and ry & ~row) or (ry & bit and row & ~ry):
                    break
            else:
                rows[x] = row
                place(x + 1)

    place(0)
    return sorted(out)


def enumerate_labeled(n: int, method: str = "preorder"):
    """Yield every topology on n labeled points, in canonical order.

    ``method``: "family" (n <= 4), "preorder" (n <= 5), or "both", which
    cross-validates the two generators and fails loudly if they disagree.
    """
    if not 1 <= n <= PREORDER_METHOD_CAP:
        raise TooLarge(f"labeled enumeration supports 1 <= n <= {PREORDER_METHOD_CAP}")
    if method == "family":
        families = _family_closure_masks(n)
    elif method == "preorder":
        families = _preorder_masks(n)
    elif method == "both":
        families = _preorder_masks(n)
        if families != _family_closure_masks(n):
            raise AssertionError("the two topology generators disagree")
    else:
        raise ValueError(f"unknown enumeration method {method!r}")
    labels = _label_names(n)
    for idx, fam in enumerate(families):
        yield space_from_masks(f"T{n}.{idx}", labels, fam)


@cache
def _relabelings(n: int) -> tuple[tuple[int, ...], ...]:
    """One table per permutation of n points: entry m is the image of mask m.

    These are constants of n, n! * 2^n entries in all.
    """
    tables = []
    for perm in permutations(range(n)):
        img = [0] * (1 << n)
        for m in range(1, 1 << n):
            low = m & -m
            img[m] = img[m ^ low] | 1 << perm[low.bit_length() - 1]
        tables.append(tuple(img))
    return tuple(tables)


def canonical_form(space: FiniteSpace) -> tuple[int, ...]:
    """Lexicographically least sorted-opens tuple over all relabelings."""
    if space.n > CANONICAL_FORM_CAP:
        raise TooLarge(f"canonical forms are capped at n = {CANONICAL_FORM_CAP}")
    opens = space.opens
    return min(tuple(sorted(map(t.__getitem__, opens))) for t in _relabelings(space.n))


def enumerate_unlabeled(n: int, method: str = "preorder"):
    """Yield one canonical representative per homeomorphism class.

    ``method`` picks the labeled generator, as in ``enumerate_labeled``.
    """
    seen = set()
    reps = []
    for space in enumerate_labeled(n, method=method):
        form = canonical_form(space)
        if form not in seen:
            seen.add(form)
            reps.append(form)
    labels = _label_names(n)
    for idx, fam in enumerate(sorted(reps)):
        yield space_from_masks(f"U{n}.{idx}", labels, fam)


# ---------------------------------------------------------------------------
# Verification suite
# ---------------------------------------------------------------------------


def _check_kuratowski(space):
    cls = closures(space)
    if cls[0] != 0:
        return {"subset": 0}
    for s, cs in enumerate(cls):
        if cs & s != s or cls[cs] != cs:
            return {"subset": s}
    for s, cs in enumerate(cls):
        for t in range(s + 1, space.full + 1):
            if cls[s | t] != cs | cls[t]:
                return {"subset": s, "other": t}
    return None


def _check_roundtrip(space):
    # equal rows make equal spaces, so the lattices are compared: the up-sets
    # of the rows against the family validation accepted
    back = from_preorder(space.nbhds)
    if back.opens != space.opens:
        return {"rebuilt_opens": list(back.opens)}
    return None


def _check_minimal_opens(space):
    mins = minimal_opens(space)
    for i, a in enumerate(mins):
        for b in mins[i + 1:]:
            if a & b:
                return {"overlap": [a, b]}
    for u in space.opens:
        if u and not any(m & u == m for m in mins):
            return {"uncovered_open": u}
    return None


def _check_chain(space):
    rep = invariant_report(space)
    ok = rep.chain_ok
    if space.n >= 2:
        ok = ok and rep.w <= (1 << space.n) - 2
    if not ok:
        return rep.as_record(space)
    return None


def _oracle(space, key: str) -> int:
    """One brute-route value per space and key, kept as an int on the space.

    The report's d, delta, gd and pi are all |minimal opens|, so ``collapse``
    compares these routes, and ``oracles`` reuses what it computed.
    """
    values = space.memo("oracles", dict)
    if key not in values:
        routes = {"d": density_brute, "pi": pi_weight_brute, "w": weight_brute,
                  "delta": delta_oracle, "gd": solved_gd, "t": tightness}
        values[key] = routes[key](space)
    return values[key]


def _check_collapse(space):
    got = {key: _oracle(space, key) for key in ("d", "delta", "gd", "pi")}
    if len(set(got.values())) != 1:
        return {**invariant_report(space).as_record(space), **got}
    return None


def _check_oracles(space):
    rep = invariant_report(space)
    pairs = {key: (getattr(rep, key), _oracle(space, key))
             for key in ("d", "pi", "w", "delta", "gd", "t")}
    bad = {k: v for k, v in pairs.items() if v[0] != v[1]}
    return bad or None


def _check_variants(space):
    """gd against the pi-base chooser's worst multi-point play, every reply subset walked.

    Its free play is its restricted play, which ``pi-base-bound`` checks.
    """
    gd = solved_gd(space)
    worst = evaluate_chooser(space, pi_base_chooser(space), GameVariant.MULTI_POINT)
    if worst > gd:
        return {"gd": gd, "multi": worst}
    return {"_note": {"multi_equals_free": worst == gd}}


def _check_exact_force(space):
    forced = exact_force_set(space)
    rep = invariant_report(space)
    if forced != {rep.gd} or not rep.gd == rep.delta == rep.d:
        return {"forced": sorted(forced), "gd": rep.gd, "delta": rep.delta, "d": rep.d}
    return None


def _check_pi_base_bound(space):
    worst = evaluate_chooser(space, pi_base_chooser(space))
    if worst != pi_weight(space):
        return {"worst": worst, "pi": pi_weight(space)}
    return None


def _check_value_monotone(space):
    table = solve_game(space)
    states = sorted(table.value)
    for a in states:
        for b in states:
            if a & b == b and table.value[a] > table.value[b]:
                return {"larger": a, "smaller": b}
    return None


def _check_subspace_monotone(space):
    """gd of every open and every dense subspace against the space's gd.

    The paper compares gd of a space with gd of its open and of its dense
    subspaces, so those are the subjects.  On them the regularity identity
    cl(int(cl S)) = cl S holds by itself: for an open U, U lies in
    int(cl U), which lies in cl U; for a dense D, cl D is the whole space.
    So a failed identity points at a wrong closure table.  Each subspace's gd
    comes from the solver, its oracle here, on a table ``within`` S in the
    space's own coordinates (the trace lemma of ``StrategyTable``), so no
    subspace is built; ``space.subspace`` is the tests' reference for it.
    """
    gd = solved_gd(space)
    cls = closures(space)
    subjects = {u for u in space.opens if u}
    subjects |= {a for a in range(1, space.full + 1) if cls[a] == space.full}
    for s in sorted(subjects):
        cl_s = cls[s]
        if cls[interior(space, cl_s)] != cl_s:
            return {"subset": s, "reason": "regularity identity failed"}
        sub_gd = capped_table(space, s).gd
        if sub_gd > gd:
            return {"subset": s, "sub_gd": sub_gd, "gd": gd}
    return None


def _shortest_play(space, picker) -> int:
    """Fewest stages the picker needs, over every line of offered minimal opens.

    Offering only minimal opens loses nothing.  If the picker takes x from
    an open U, N(x) inside U holds a minimal open m', and every y in m' has
    x in N(y) = m', so x is in cl{y} and cl{x} is inside cl(m'): whatever
    the picker takes from m' closes at least as much, and a larger closed
    set never needs more stages.  The picker ignores the stage, so the
    stages still needed depend only on the closed set, and each closed set
    is solved once.
    """
    clpt = space.point_closures()
    offers = minimal_opens(space)
    memo = {space.full: 0}

    def shortest(closed):
        got = memo.get(closed)
        if got is None:
            after = []
            for u in offers:
                if not u & closed:
                    picks = picker(closed, u, 0, None)
                    after.append(shortest(closed | clpt[(picks & -picks).bit_length() - 1]))
            got = memo[closed] = 1 + min(after)
        return got

    return shortest(0)


def _check_dense_lower_bound(space):
    for a, target in dense_densities(space):
        shortest = _shortest_play(space, dense_point_picker(space, a))
        if shortest < target:
            return {"dense_set": a, "shortest": shortest, "target": target}
    return None


SPACE_CHECKS = {
    "kuratowski": _check_kuratowski,
    "roundtrip": _check_roundtrip,
    "minimal-opens": _check_minimal_opens,
    "chain": _check_chain,
    "collapse": _check_collapse,
    "oracles": _check_oracles,
    "variants": _check_variants,
    "exact-force": _check_exact_force,
    "pi-base-bound": _check_pi_base_bound,
    "value-monotone": _check_value_monotone,
    "subspace-monotone": _check_subspace_monotone,
    "dense-lower-bound": _check_dense_lower_bound,
}


def _check_pair_product(x, y):
    prod = product([x, y])
    # three routes: the enumerated lattice, the boxes of factor minimal opens
    # and the product's rows; minimal_opens(prod.space) is the row route
    # again, since minimal_opens_via_preorder reads the same rows
    mins = inclusion_minimal(u for u in prod.space.opens if u)
    boxes = minimal_open_boxes(prod)
    via_pre = minimal_opens_via_preorder([x, y])
    if not (mins == boxes == via_pre):
        return {"minimal": list(mins), "boxes": list(boxes), "preorder": list(via_pre)}
    if len(mins) != pi_weight(x) * pi_weight(y):
        return {"pi_product": len(mins), "pi_x": pi_weight(x), "pi_y": pi_weight(y)}
    return None


def _check_pair_gd(x, y):
    prod = product([x, y])
    lhs = solved_gd(prod.space)
    rhs = solved_gd(x) * solved_gd(y)
    if lhs != rhs:
        return {"gd_product": lhs, "gd_factors": rhs}
    return None


def _check_pair_strategies(x, y):
    prod = product([x, y])
    gd_prod = solved_gd(prod.space)
    gd_bound = solved_gd(x) * solved_gd(y)
    worst = evaluate_chooser(prod.space, product_chooser(x, y, prod=prod))
    if not gd_prod <= worst <= pi_weight(x) * solved_gd(y):
        return {"product_worst": worst}
    agg_worst = aggregate_worst(prod)
    if agg_worst > gd_bound:
        return {"aggregate_worst": agg_worst, "bound": gd_bound}
    return None


def _check_pair_fan_link(x, y):
    gd_x, gd_y = solved_gd(x), solved_gd(y)
    kappa = max(2, gd_x, gd_y)
    verdict = fan_tightness_check([x, y], kappa, "boxes")
    if verdict.status is not FanStatus.HOLDS:
        return {"fan": verdict.status.value}
    # finite form of the main theorem: a positive fan verdict certifies the
    # aggregate strategy's product-of-gd bound (kappa itself only bounds gd
    # transfinitely, where kappa many stages absorb)
    prod = product([x, y])
    agg_worst = aggregate_worst(prod)
    if agg_worst > gd_x * gd_y:
        return {"aggregate_worst": agg_worst, "bound": gd_x * gd_y}
    return None


PAIR_CHECKS = {
    "product-pi": _check_pair_product,
    "product-gd": _check_pair_gd,
    "product-strategies": _check_pair_strategies,
    "fan-link": _check_pair_fan_link,
}


def _check_metric(seed: int):
    for sp in random_pseudometrics(count=20, max_points=8, seed=seed):
        bad = greedy_run_violations(sp)
        if bad:
            return {"space": sp.labels, "violations": bad}
    return None


class UnknownChecks(ValueError):
    """A ``checks`` selection names a check that does not exist."""


def verify_suite(n: int, checks="all", seed: int = 0):
    """Run the selected checks over the exhaustive corpus for size n.

    Space-level checks run on every labeled topology of exactly n points;
    pair-level checks run over all ordered pairs built from factors of at
    most min(n, PAIR_CAP) points.  Returns (ok, records): one record per
    (subject, check) with a pass/fail status and a counterexample payload
    on failure.  Failures are data, not exceptions.
    """
    live_space = dict(SPACE_CHECKS)
    live_pair = dict(PAIR_CHECKS)
    want_metric = True
    if checks != "all":
        wanted = set(checks.split(",")) if isinstance(checks, str) else set(checks)
        unknown = wanted - set(live_space) - set(live_pair) - {"metric"}
        if unknown:
            raise UnknownChecks(f"unknown checks: {sorted(unknown)}")
        live_space = {k: v for k, v in live_space.items() if k in wanted}
        live_pair = {k: v for k, v in live_pair.items() if k in wanted}
        want_metric = "metric" in wanted

    pair_spaces = [
        s for size in range(1, min(n, PAIR_CAP) + 1) for s in enumerate_labeled(size)
    ]
    jobs = [
        (space.name, name, fn, (space,))
        for space in enumerate_labeled(n)
        for name, fn in live_space.items()
    ]
    jobs += [
        (f"{x.name}*{y.name}", name, fn, (x, y))
        for x in pair_spaces
        for y in pair_spaces
        for name, fn in live_pair.items()
    ]
    if want_metric:
        jobs.append(("metric-corpus", "metric", _check_metric, (seed,)))

    records = []
    for subject, name, fn, args in jobs:
        detail = fn(*args)
        note = None
        if isinstance(detail, dict) and set(detail) == {"_note"}:
            note, detail = detail["_note"], None
        rec = {"subject": subject, "check": name, "status": "fail" if detail else "pass"}
        if detail:
            rec["detail"] = detail
        if note:
            rec["note"] = note
        records.append(rec)
    records.sort(key=lambda r: (r["subject"], r["check"]))
    ok = all(r["status"] == "pass" for r in records)
    return ok, records
