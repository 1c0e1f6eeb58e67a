"""Reference fan-tightness search: the exhaustive scan over every pick-set.

``fan_tightness_oracle`` answers the same question as
``products.fan_tightness_check`` without the minimal-slice lemma: for each
candidate family it closes every pick-set A of the subproduct whose slices
A & V have dense projections, and tests each open U against all of those
closures.  It costs 2^pts per family, so it is kept for the tests only.
"""

from itertools import combinations, islice

from openpoint.products import (
    FAMILY_TRY_CAP,
    SUBSET_LOOP_CAP,
    FanStatus,
    FanTightnessVerdict,
    minimal_open_boxes,
    product,
    sufficient_condition_check,
)


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
            found = None
            for fam, dset in zip(families, closure_sets):
                if all(
                    any(
                        proj_tabs[ax][u & ~d] != proj_tabs[ax][u]
                        for ax in range(len(gamma))
                    )
                    for d in dset
                ):
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
