"""Exhaustive enumeration of finite topologies and the verification suite.

Two independent generators back each other: one filters subset families for
closure under union and intersection, the other walks reflexive transitive
relations and converts them to topologies.  The claims verified by the
suite are universally quantified over spaces, so exhaustiveness at small n
is the whole point.
"""

from __future__ import annotations

import sys
from array import array
from functools import cache
from heapq import merge
from itertools import permutations
from operator import attrgetter, itemgetter

from .game import (
    GameVariant,
    StrategyTable,
    _reply_closures,
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
CANONICAL_FORM_CAP = 6  # the key table packs n! fields of max(8, 2^n) bits per entry
PAIR_CAP = 3  # pair checks use factors of at most this many points


def _label_names(n: int):
    return tuple(f"p{i}" for i in range(n))


def _family_closure_masks(n: int):
    """All union/intersection-closed families containing the empty and full set."""
    if n > FAMILY_METHOD_CAP:
        raise TooLarge(f"family-closure generation is capped at n = {FAMILY_METHOD_CAP}")
    full = (1 << n) - 1
    out = []
    for code in range(1 << (full - 1)):  # bit m - 1 of code: the set m is in the family
        family = {0, full, *(m for m in range(1, full) if code >> (m - 1) & 1)}
        if all(a | b in family and a & b in family for a in family for b in family):
            out.append(tuple(sorted(family)))
    return sorted(out)


def _preorder_masks(n: int):
    """Opens of every topology: the up-sets of each reflexive transitive relation.

    Row x, the points above x, is chosen for x = 0, 1, ... by backtracking.
    It holds x and agrees with every earlier row y both ways: y in row x
    needs row y inside row x, and x in row y needs row x inside row y.
    Every pair of points is checked once, so each completed choice is a
    preorder, and no two are the same; distinct preorders have distinct
    up-sets, so no family repeats.  The families are validated once, as
    spaces, by ``_labeled_space``.
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


def _labeled_families(n: int, method: str = "preorder"):
    """The open families of every topology on n labeled points, sorted.

    ``method``: "family" (n <= 4), "preorder" (n <= 5), or "both", which
    cross-validates the two generators and fails loudly if they disagree.
    """
    if not 1 <= n <= PREORDER_METHOD_CAP:
        raise TooLarge(f"labeled enumeration supports 1 <= n <= {PREORDER_METHOD_CAP}")
    if method == "family":
        return _family_closure_masks(n)
    if method not in ("preorder", "both"):
        raise ValueError(f"unknown enumeration method {method!r}")
    families = _preorder_masks(n)
    if method == "both" and families != _family_closure_masks(n):
        raise AssertionError("the two topology generators disagree")
    return families


def _labeled_space(labels, idx: int, family) -> FiniteSpace:
    """``T{n}.{idx}``, the idx-th family validated once, on n ``labels`` its callers share."""
    return space_from_masks(f"T{len(labels)}.{idx}", labels, family)


def enumerate_labeled(n: int, method: str = "preorder"):
    """Yield every topology on n labeled points, in canonical order, from ``method``."""
    labels = _label_names(n)
    for idx, fam in enumerate(_labeled_families(n, method)):
        yield _labeled_space(labels, idx, fam)


@cache
def _key_table(n: int) -> tuple[str, int, tuple[tuple[int, ...], ...]]:
    """(typecode, byte count, rows): the keys of every relabeling, packed side by side.

    The key of a set of masks sets bit 2^n - 1 - x for each mask x in it;
    a larger key is an earlier sorted tuple (see ``canonical_form``).
    Each relabeling owns one field of max(8, 2^n) bits: an ``array`` of
    ``typecode``, whose items are that wide, reads the n! fields' ``byte
    count`` bytes, the i-th permutation of ``itertools.permutations`` as
    item i.  The fields travel as one int, converted both ways in
    ``sys.byteorder``, so OR acts on every field at once.  Row c is
    indexed by a 4-bit value v: its entry holds, in every field, the key
    of the images of the masks 4c + j with bit j set in v.  So the keys of
    an open set under all n! relabelings are the OR of one entry per row,
    picked by the open set's bitmap.  These are constants of n: at n = 5,
    8 rows of 16 entries of up to 480 bytes (about 64 KB as ints); at
    n = 6, 16 rows of entries of up to 5,760 bytes (about 1.5 MB).
    """
    size, width = 1 << n, max(8, 1 << n) // 8
    code = next((c for c in "BHILQ" if array(c).itemsize == width), None)
    assert code is not None, f"no array typecode is {width} bytes wide"
    images = []
    for perm in permutations(range(n)):
        img = [0] * size
        for m in range(1, size):
            low = m & -m
            img[m] = img[m ^ low] | 1 << perm[low.bit_length() - 1]
        images.append(img)
    # column x: the key bit of mask x's image in every field; zero columns
    # fill the last row at n = 1, with 2 masks
    cols = [int.from_bytes(array(code, [1 << size - 1 - img[x] for img in images]).tobytes(),
                           sys.byteorder) for x in range(size)] + [0] * (-size % 4)
    rows = []
    for start in range(0, size, 4):
        row = [0] * 16
        for v in range(1, 16):
            low = v & -v
            row[v] = row[v ^ low] | cols[start + low.bit_length() - 1]
        rows.append(tuple(row))
    return code, len(images) * width, tuple(rows)


def canonical_form(space: FiniteSpace) -> tuple[int, ...]:
    """Lexicographically least sorted-opens tuple over all relabelings.

    No image is sorted.  For sets A and B of masks of equal size, the
    sorted A comes before the sorted B exactly when the least mask of
    A ^ B (symmetric difference) lies in A: the tuples agree up to it.
    That mask sets the highest bit of key(A) ^ key(B), so the least sorted
    image is the one whose key (``_key_table``) is largest.  The n! keys
    are packed in one int, read as an array of fields, and the largest
    one is decoded: bit 2^n - 1 - x set means mask x is open.
    """
    if space.n > CANONICAL_FORM_CAP:
        raise TooLarge(f"canonical forms are capped at n = {CANONICAL_FORM_CAP}")
    code, nbytes, rows = _key_table(space.n)
    bitmap = keys = 0
    for u in space.opens:
        bitmap |= 1 << u
    for row in rows:
        keys |= row[bitmap & 15]
        bitmap >>= 4
    best = max(array(code, keys.to_bytes(nbytes, sys.byteorder)))
    # character x of the 2^n-digit binary string is bit 2^n - 1 - x
    return tuple(x for x, digit in enumerate(format(best, f"0{1 << space.n}b")) if digit == "1")


def enumerate_unlabeled(n: int, method: str = "preorder"):
    """Yield one canonical representative per homeomorphism class.

    ``method`` picks the labeled generator, as in ``enumerate_labeled``.
    """
    reps = sorted({canonical_form(space) for space in enumerate_labeled(n, method=method)})
    labels = _label_names(n)
    for idx, fam in enumerate(reps):
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
    return _additivity_failure(cls)


def _additivity_failure(cls):
    """The first T with cl(T) not cl(S) | cl{x}, x its top point: with none, induction gives all pairs."""
    for t in range(1, len(cls)):
        top = 1 << t.bit_length() - 1
        if cls[t] != cls[t ^ top] | cls[top]:
            return {"subset": t ^ top, "other": top}
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
    if rep.chain_ok and (space.n < 2 or rep.w <= space.full - 1):
        return None
    return rep.as_record(space)


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
    So a failed identity points at a wrong closure table.  The whole space
    is no subject: gd <= gd cannot fail, and its identity is cl(X) = X,
    which ``kuratowski`` checks.  Each subspace's gd comes from the solver
    on S's reply list, whose closures join to S, so no subspace is built,
    with replies cut from the space's minimal opens m: an open U keeps the
    m inside it, closing cl(m) & U, and a dense D, which meets every m, the
    m & D, closing cl(m) & D, sorted (on ``T3.17`` with D = {0, 1} they
    swap).  That gd must not pass gd(X) and must equal the structural gd,
    the reply count.
    """
    gd, full = solved_gd(space), space.full
    cls, replies = closures(space), _reply_closures(space)
    subjects = {d: sorted((m & d, c & d) for m, c in replies) for d in range(1, full) if cls[d] == full}
    subjects.update((u, [(m, c & u) for m, c in replies if m & u]) for u in space.opens if 0 < u < full)
    for s, sub_replies in sorted(subjects.items()):
        cl_s = cls[s]
        if cls[interior(space, cl_s)] != cl_s:
            return {"subset": s, "reason": "regularity identity failed"}
        sub_gd = StrategyTable(space, sub_replies).gd
        if sub_gd > gd:
            return {"subset": s, "sub_gd": sub_gd, "gd": gd}
        if sub_gd != len(sub_replies):
            return {"subset": s, "sub_gd": sub_gd, "minimal_opens": len(sub_replies)}
    return None


def _picker_replies(space, picker) -> tuple[tuple[int, int], ...]:
    """``(m, cl(p))`` per minimal open m, p = ``picker(0, m, 0, None)``; cl(p) is read off p's lowest point."""
    clpt = space.point_closures()
    picks = [(m, picker(0, m, 0, None)) for m in minimal_opens(space)]
    return tuple((m, clpt[(p & -p).bit_length() - 1]) for m, p in picks)


def _check_dense_lower_bound(space):
    """Every dense set A against the fewest stages of a picker confined to A.

    The picker takes the lowest point p of A in each offer m, whatever the
    state, so those stages are the game table's value on the replies
    (m, cl(p)).  Offering only minimal opens loses nothing: if the picker
    takes x from an open U, N(x) inside U holds a minimal open m', whose
    points y all have x in N(y) = m', so whatever is picked from m' closes
    cl{x} and more.  Dense sets with one reply list share a table, keyed by
    the list itself: no pick is assumed to close to cl(m).
    """
    shortest = {}
    for a, target in dense_densities(space):
        replies = _picker_replies(space, dense_point_picker(space, a))
        got = shortest.get(replies)
        if got is None:
            got = shortest[replies] = StrategyTable(space, replies).gd
        if got < target:
            return {"dense_set": a, "shortest": got, "target": target}
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
    worst = evaluate_chooser(prod.space, product_chooser(x, y))
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
    """Stream one record per (subject, check) for ``checks`` ("all" or names joined by commas).

    Space-level checks run on every labeled topology of exactly n points,
    pair-level checks on every ordered pair of factors of at most
    min(n, PAIR_CAP) points, ``metric`` once on the seeded pseudometric
    corpus.  A record has a pass/fail status and, on failure, a
    counterexample payload: failures are data, not exceptions.

    The selection and n are checked before the stream starts (an unknown
    check raises ``UnknownChecks``, n outside 1..5 ``TooLarge``).  Report
    order is (subject, check) as strings: ``T5.10`` comes before ``T5.2``,
    and at n <= 3 the pair subjects (``T3.0*T1.0``) fall between the space
    subjects.  A space is built when its subject is reached and dropped
    after its checks: one n-point space is live at a time, and the pair factors.
    """
    registry = {**SPACE_CHECKS, **PAIR_CHECKS, "metric": _check_metric}
    wanted = set(registry) if checks == "all" else set(checks.split(","))
    unknown = wanted - registry.keys()
    if unknown:
        raise UnknownChecks(f"unknown checks: {sorted(unknown)}")
    families, labels = _labeled_families(n), _label_names(n)
    spaces = ((f"T{n}.{i}", (_labeled_space(labels, i, families[i]),))
              for i in sorted(range(len(families)), key=str))
    return merge(
        _checked(registry, wanted & SPACE_CHECKS.keys(), spaces),
        _checked(registry, wanted & PAIR_CHECKS.keys(), _pair_subjects(min(n, PAIR_CAP))),
        _checked(registry, wanted & {"metric"}, [("metric-corpus", (seed,))]),
        key=itemgetter("subject"),
    )


def _pair_subjects(size: int):
    """(name, (x, y)) per ordered pair of factors of at most ``size`` points, in name order."""
    # '*' sorts below every character of a space name: factor name order is subject order
    factors = sorted((s for k in range(1, size + 1) for s in enumerate_labeled(k)),
                     key=attrgetter("name"))
    for x in factors:
        for y in factors:
            yield f"{x.name}*{y.name}", (x, y)


def _checked(registry, names, subjects):
    """The records of each (subject, args) of ``subjects``: the checks ``names``, in name order.

    ``subjects`` is not read when ``names`` is empty.
    """
    checks = [(name, registry[name]) for name in sorted(names)]
    for subject, args in subjects if checks else ():
        for name, fn in checks:
            detail = fn(*args)
            note = detail.pop("_note", None) if isinstance(detail, dict) else None
            rec = {"subject": subject, "check": name, "status": "fail" if detail else "pass"}
            if detail:
                rec["detail"] = detail
            if note:
                rec["note"] = note
            yield rec
