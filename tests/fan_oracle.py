"""Reference fan-tightness search: the exhaustive scan over every pick-set.

``fan_tightness_oracle`` answers the same question as
``products.fan_tightness_check`` without the minimal-slice lemma: for each
candidate family it closes every pick-set A of the subproduct whose slices
A & V have dense projections, and tests each open U against all of those
closures.  It costs 2^pts per family, so it is kept for the tests only.

``reference_fan_cells`` is the cell search of ``products._fan_cells`` as it
was before the fibre-set table: the same minimal slice closures, but each
cell tested slice by slice against the fibres, which are filed point by
point from the decoded coordinates.
"""

from functools import reduce
from itertools import combinations, islice, product as iter_product
from operator import or_

from openpoint.products import (
    FAMILY_TRY_CAP,
    SUBSET_LOOP_CAP,
    FanStatus,
    FanTightnessVerdict,
    _slice_closures,
    minimal_open_boxes,
    product,
    sufficient_condition_check,
)
from openpoint.space import inclusion_minimal


def reference_fibres(prod):
    """Every fibre, each point decoded and filed under each of its coordinates."""
    per_axis = [[0] * size for size in prod.sizes]
    for idx in range(prod.space.n):
        for masks, coord in zip(per_axis, prod.decode(idx)):
            masks[coord] |= 1 << idx
    return [mask for masks in per_axis for mask in masks]


def reference_point_keys(sub):
    """Each point's coordinates' factor closures, packed axis by axis, point by point."""
    factor_cl = [f.point_closures() for f in sub.factors]
    out = []
    for p in range(sub.space.n):
        key = shift = 0
        for coord, pcl, f in zip(sub.decode(p), factor_cl, sub.factors):
            key |= pcl[coord] << shift
            shift += f.n
        out.append(key)
    return out


def reference_fan_cells(sub, kappa: int, candidate_policy: str) -> tuple:
    """``products._fan_cells`` by the fibre-slice scan: D defeats U when no
    non-empty fibre slice of U lies in D."""
    opens_nonempty = [u for u in sub.space.opens if u]
    if (1 << sub.space.n) > SUBSET_LOOP_CAP:
        return tuple((u, None) for u in opens_nonempty)
    if candidate_policy == "boxes":
        pool = list(minimal_open_boxes(sub))
    else:
        pool = opens_nonempty
    fam_size = min(kappa, len(pool))
    families = list(islice(combinations(pool, fam_size), FAMILY_TRY_CAP))
    keys = reference_point_keys(sub)
    member_closures = {
        v: _slice_closures(sub.space, keys, v) for fam in families for v in fam
    }
    closure_sets = [
        inclusion_minimal(
            reduce(or_, combo, 0)
            for combo in iter_product(*(member_closures[v] for v in fam))
        )
        for fam in families
    ]
    fibres = reference_fibres(sub)
    cells = []
    for u in opens_nonempty:
        slices = [u & f for f in fibres if u & f]
        found = next((fam for fam, dset in zip(families, closure_sets)
                      if all(any(s & ~d == 0 for s in slices) for d in dset)), None)
        cells.append((u, found))
    return tuple(cells)


def _table_dp(n_points: int, per_point) -> list[int]:
    """tab[mask] = OR of per_point[x] over x in mask, for every subset."""
    tab = [0] * (1 << n_points)
    for mask in range(1, 1 << n_points):
        low = mask & -mask
        tab[mask] = tab[mask ^ low] | per_point[low.bit_length() - 1]
    return tab


def _constrained_closures(sub, family, cl_tab, proj_tabs, factor_cl):
    """Closures of every pick-set satisfying the per-member density constraint.

    A set A qualifies when, for each family member V and each axis, the
    factor closure of the projected A-and-V slice equals that of V itself.
    """
    axes = range(len(sub.factors))
    targets = [
        tuple(factor_cl[ax][proj_tabs[ax][v]] for ax in axes)
        for v in family
    ]
    out = set()
    for a in range(1 << sub.space.n):
        if all(
            factor_cl[ax][proj_tabs[ax][a & v]] == want[ax]
            for v, want in zip(family, targets)
            for ax in axes
        ):
            out.add(cl_tab[a])
    return sorted(out)


def fan_tightness_oracle(factors, kappa: int, candidate_policy: str = "boxes"):
    """``fan_tightness_check`` by the 2^pts pick-set scan (no input checks)."""
    factors = tuple(factors)
    witness: dict = {}
    unknown: list = []
    k = len(factors)
    for gamma_bits in range(1, 1 << k):
        gamma = tuple(i for i in range(k) if gamma_bits >> i & 1)
        sub = product([factors[g] for g in gamma])
        pts = sub.space.n
        opens_nonempty = [u for u in sub.space.opens if u]
        if (1 << pts) > SUBSET_LOOP_CAP:
            unknown.extend((gamma, u) for u in opens_nonempty)
            continue
        if candidate_policy == "boxes":
            pool = list(minimal_open_boxes(sub))
        else:
            pool = opens_nonempty
        fam_size = min(kappa, len(pool))
        families = list(islice(combinations(pool, fam_size), FAMILY_TRY_CAP))
        cl_tab = _table_dp(pts, sub.space.point_closures())
        proj_tabs = [
            _table_dp(pts, [1 << sub.decode(i)[ax] for i in range(pts)])
            for ax in range(len(gamma))
        ]
        factor_cl = [
            _table_dp(factors[g].n, factors[g].point_closures())
            for g in gamma
        ]
        closure_sets = [
            _constrained_closures(sub, fam, cl_tab, proj_tabs, factor_cl)
            for fam in families
        ]
        for u in opens_nonempty:
            projections = [(tab, tab[u]) for tab in proj_tabs]
            found = None
            for fam, dset in zip(families, closure_sets):
                for d in dset:
                    rest = u & ~d
                    for tab, proj in projections:
                        if tab[rest] != proj:
                            break
                    else:
                        break  # no projection of U minus D shrinks
                else:
                    found = fam
                    break
            if found is not None:
                witness[(gamma, u)] = found
            else:
                unknown.append((gamma, u))

    if not unknown:
        status = FanStatus.HOLDS
    elif sufficient_condition_check(factors, kappa):
        status = FanStatus.HOLDS_VIA_SUFFICIENT_CONDITION
    else:
        status = FanStatus.UNKNOWN
    return FanTightnessVerdict(
        kappa=kappa, status=status, witness=witness, unknown_cells=tuple(unknown)
    )
