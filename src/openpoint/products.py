"""Product topologies and the fan-tightness condition on factor families.

A product of finite spaces is a FiniteSpace whose points are mixed-radix
tuples.  Its rows N((x, y)) = N(x) x N(y) go straight to ``from_preorder``;
its opens, the unions of open boxes, are enumerated only if something
reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache, reduce
from itertools import combinations, islice, product as iter_product
from math import prod as size_product
from operator import or_

from .space import (
    FiniteSpace,
    TooLarge,
    bits,
    from_preorder,
    inclusion_minimal,
    minimal_opens,
)

POINTS_CAP = 4096
# Cells of subproducts with more than 12 points (2^pts over this) stay
# unknown.  The cap stays because it bounds the cells that fan-check
# searches and prints: lifting it makes fan-check on two 4-point factors
# print 663-735 cells instead of 16, each command 4x slower.
SUBSET_LOOP_CAP = 1 << 12
FAMILY_TRY_CAP = 64


@dataclass(frozen=True, eq=False)
class ProductSpace:
    factors: tuple[FiniteSpace, ...]
    space: FiniteSpace
    sizes: tuple[int, ...]

    def decode(self, idx: int) -> tuple[int, ...]:
        return _decode(self.sizes, idx)

    def box_mask(self, factor_masks) -> int:
        """Product-point mask of the open box with the given factor masks."""
        return _box(self.sizes, factor_masks)


def _decode(sizes, idx: int) -> tuple[int, ...]:
    out = []
    for size in reversed(sizes):
        out.append(idx % size)
        idx //= size
    return tuple(reversed(out))


def _spread(mask: int, m: int, size: int) -> int:
    """Add an axis of ``size`` points: each x in ``mask`` becomes x*size + y for y in ``m``."""
    out = 0
    for x in bits(mask):
        out |= m << x * size
    return out


def _box(sizes, factor_masks) -> int:
    mask = 1
    for m, size in zip(factor_masks, sizes):
        mask = _spread(mask, m, size)
    return mask


def _product_succ(factors) -> tuple[int, ...]:
    """N((x, y, ...)) = N(x) x N(y) x ... for every product point, in index order."""
    rows = [1]
    for f in factors:
        rows = [_spread(row, nbhd, f.n) for row in rows for nbhd in f.nbhds]
    return tuple(rows)


def product(factors) -> ProductSpace:
    """Build the product topology of 1..k finite spaces from their rows.

    Point (c0, c1, ...) is bit (c0*s1 + c1)*s2 + ... for factor sizes s0, s1, ...:
    one rule, applied an axis at a time by ``_spread``, lays out the points,
    the rows and every box.  The first factor remembers its most recent
    product of each arity, so repeated calls on the same factors return the
    same (immutable) object.  The key holds every factor's name, labels and
    N(x) rows, which is all the build reads (equal rows mean equal opens):
    space equality ignores names and labels, but the product's name and
    labels come from them.
    """
    factors = tuple(factors)
    if not factors:
        raise ValueError("a product needs at least one factor")
    key = tuple((f.name, f.point_labels, f.nbhds) for f in factors)
    slot = ("product", len(factors))
    got = factors[0]._cache.get(slot)
    if got is not None and got[0] == key:
        return got[1]
    prod = _build_product(factors)
    factors[0]._cache[slot] = (key, prod)
    return prod


def _build_product(factors):
    sizes = tuple(f.n for f in factors)
    total = size_product(sizes)
    if total > POINTS_CAP:
        raise TooLarge(f"product would have {total} points (cap {POINTS_CAP})")
    labels = [
        "(" + ",".join(f.point_labels[c] for f, c in zip(factors, coords)) + ")"
        for coords in iter_product(*map(range, sizes))
    ]
    space = from_preorder(_product_succ(factors), "x".join(f.name for f in factors), labels)
    return ProductSpace(factors=factors, space=space, sizes=sizes)


def minimal_open_boxes(prod: ProductSpace) -> tuple[int, ...]:
    """Boxes built from factor minimal opens (the claimed minimal opens)."""
    per_factor = [minimal_opens(f) for f in prod.factors]
    return tuple(sorted(prod.box_mask(combo) for combo in iter_product(*per_factor)))


def minimal_opens_via_preorder(factors) -> tuple[int, ...]:
    """Minimal opens of the product computed from its N(x) rows.

    Reads the rows of ``product(factors)`` and enumerates no lattice, so it
    serves as the route for large products; it shares ``POINTS_CAP`` with
    the product it builds.
    """
    return minimal_opens(product(factors).space)


def sufficient_condition_check(factors, kappa: int) -> bool:
    """Cheap criterion implying the fan-tightness condition.

    Factors of pi-weight above kappa must shrink below it inside every open
    (those are the designated ones); the rest must have pi-weight <= kappa,
    and there may be at most kappa factors.  On a finite space every factor
    shrinks: each non-empty open holds a minimal open, an indiscrete
    subspace of pi-weight 1 <= kappa.  So only the factor count decides.
    """
    if kappa < 1:
        raise ValueError("kappa must be at least 1")
    return len(tuple(factors)) <= kappa


class FanStatus(Enum):
    HOLDS = "holds"
    HOLDS_VIA_SUFFICIENT_CONDITION = "holds-via-sufficient-condition"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class FanTightnessVerdict:
    kappa: int
    status: FanStatus
    witness: dict
    unknown_cells: tuple

    @property
    def holds(self) -> bool:
        return self.status is not FanStatus.UNKNOWN


def _slice_closures(space: FiniteSpace, keys, v: int) -> tuple[int, ...]:
    """Inclusion-minimal closures of the minimal slices of ``v`` with dense projections.

    A slice S of the open V qualifies when, on every axis, the factor
    closure of its projection equals that of V's projection.  Closure is
    additive, so a point enters only through its key, its coordinates'
    factor closures packed axis by axis into one integer: S qualifies when
    the keys of its points cover the keys of V.  The key also fixes the
    point's closure (the box of those factor closures), so one point per
    key is enough.  The minimal slices are the minimal covers; each branch
    covers the lowest bit still uncovered and is cut as soon as a point in
    it becomes redundant, which no later point can undo.
    """
    rep: dict[int, int] = {}
    for p in bits(v):
        rep.setdefault(keys[p], p)
    want = reduce(or_, rep, 0)
    covers: set[int] = set()

    def extend(chosen: list[int], covered: int) -> None:
        if covered == want:
            covers.add(sum(1 << rep[key] for key in chosen))
            return
        missing = want & ~covered
        low = missing & -missing
        for key in rep:
            if key & low and _irredundant(chosen + [key]):
                extend(chosen + [key], covered | key)

    extend([], 0)
    return inclusion_minimal(space.closure_of(s) for s in covers)


def _irredundant(keys: list[int]) -> bool:
    """Whether every key covers a bit that no other key in the list covers.

    One pass collects the bits covered at least twice; a key covers a bit
    of its own exactly when it has a bit outside them.
    """
    once = twice = 0
    for key in keys:
        twice |= once & key
        once |= key
    for key in keys:
        if key & ~twice == 0:
            return False
    return True


def _point_keys(sub: ProductSpace) -> list[int]:
    """Each point's coordinates' factor closures, packed axis by axis.

    The keys spread an axis at a time in index order, as ``_product_succ``
    spreads the rows.
    """
    keys = [0]
    shift = 0
    for f in sub.factors:
        keys = [key | pcl << shift for key in keys for pcl in f.point_closures()]
        shift += f.n
    return keys


@cache
def _fibre_sets(sizes: tuple[int, ...]) -> tuple[int, ...]:
    """One table per product shape: entry m is the set of fibres that meet m.

    A fibre is one coordinate on one axis (the whole factor elsewhere); it
    is bit ``offset + coord``, where ``offset`` is the number of points of
    the earlier factors.  These are constants of the shape, 2^pts entries.
    """
    own = [0]
    offset = 0
    for size in sizes:
        own = [fibres | 1 << offset + coord for fibres in own for coord in range(size)]
        offset += size
    met = [0] * (1 << len(own))
    for m in range(1, len(met)):
        low = m & -m
        met[m] = met[m ^ low] | own[low.bit_length() - 1]
    return tuple(met)


def _fan_cells(sub: ProductSpace, kappa: int, candidate_policy: str) -> tuple:
    """(U, its first witness family or None) for every non-empty open U of ``sub``.

    Some projection of U minus D shrinks exactly when U minus D meets
    fewer fibres than U, and a closed set D for which none does defeats the
    family.  Both fibre sets are read off one table per shape
    (``_fibre_sets``), built only once the subproduct passes the
    ``SUBSET_LOOP_CAP`` test, so it has at most 2^12 entries.  Each
    family's closed sets are kept complemented, so U minus D is one ``&``.

    In the ``boxes`` pool the closed sets come from the slice lemma: every
    point x of a minimal open box V has N(x) = V, so all points of V share
    one key and cl{x} = cl(V), and ``_slice_closures`` would return just
    ``(cl(V),)``.  A family F then has one closed set, D_F, the union of
    its members' closures, and no slice is searched.  The ``all`` pool
    searches the minimal slices of each member.
    """
    opens_nonempty = [u for u in sub.space.opens if u]
    if (1 << sub.space.n) > SUBSET_LOOP_CAP:
        return tuple((u, None) for u in opens_nonempty)
    if candidate_policy == "boxes":
        pool = list(minimal_open_boxes(sub))
    else:
        pool = opens_nonempty
    fam_size = min(kappa, len(pool))
    families = list(islice(combinations(pool, fam_size), FAMILY_TRY_CAP))
    full = sub.space.full
    if candidate_policy == "boxes":
        # slice lemma: one closed set per family, D_F = cl(V1) | ... = cl(V1 | ...)
        closure_of = sub.space.closure_of
        complements = [[full ^ closure_of(reduce(or_, fam))] for fam in families]
    else:
        keys = _point_keys(sub)
        member_closures = {
            v: _slice_closures(sub.space, keys, v) for fam in families for v in fam
        }
        complements = [
            [full ^ d for d in inclusion_minimal(
                reduce(or_, combo, 0)
                for combo in iter_product(*(member_closures[v] for v in fam))
            )]
            for fam in families
        ]
    met = _fibre_sets(sub.sizes)
    cells = []
    for u in opens_nonempty:
        mu = met[u]
        found = None
        for fam, outside in zip(families, complements):
            for not_d in outside:
                if met[u & not_d] == mu:
                    break  # D defeats the family: no projection of U minus D shrinks
            else:
                found = fam
                break
        cells.append((u, found))
    return tuple(cells)


def fan_tightness_check(factors, kappa: int,
                        candidate_policy: str = "boxes") -> FanTightnessVerdict:
    """Search for witnesses to the fan-tightness condition.

    For every non-empty set of factor indices and every non-empty open U of
    that subproduct, look for a family of up to kappa candidate opens such
    that any pick-set dense-in-projection on every member forces a proper
    shrink of some projection of U minus its closure.  The search is sound
    for a positive answer and deliberately bounded: cells it cannot settle
    make the verdict Unknown, never a refutation.

    No pick-set is enumerated.  A pick-set A qualifies when each slice
    A & V (V a family member) has dense projections; that is upward-closed
    in A and depends only on the slices.  The conclusion "some projection
    of U minus D shrinks" is upward-closed in the closed set D.  So only the
    closures of the minimal qualifying pick-sets decide a cell, and each is
    a union of minimal qualifying slices, one per member; closure is
    additive, so D runs over the unions of one minimal slice closure per
    member.  In the default ``boxes`` pool each member V is a minimal open
    of the subproduct, so every point x of V has N(x) = V and cl{x} =
    cl(V) (the slice lemma): every non-empty slice qualifies, each minimal
    slice closes to cl(V), and a family has the one closed set
    D = cl(V1) | cl(V2) | ....  A projection of U minus D shrinks exactly
    when U minus D meets fewer fibres than U (a fibre is the set of points
    with one coordinate on one axis).  Both fibre sets are read off one table per
    subproduct shape, built only for subproducts within
    ``SUBSET_LOOP_CAP``, so it has at most 2^12 entries.  Each
    subproduct's cells are searched once per kappa and pool and kept in its
    space's memo.  More than 12 factors are refused before any product is
    built: they would give 2^k - 1 >= 8,191 index sets, one subproduct
    each, however few points the factors have.
    """
    factors = tuple(factors)
    if kappa < 1:
        raise ValueError("kappa must be at least 1")
    if candidate_policy not in ("boxes", "all"):
        raise ValueError("candidate_policy must be 'boxes' or 'all'")
    most = POINTS_CAP.bit_length() - 1
    if len(factors) > most:
        raise TooLarge(f"{len(factors)} factors exceed the cap of {most}")
    total = size_product(f.n for f in factors)
    cap = 512 if candidate_policy == "all" else POINTS_CAP
    if total > cap:
        raise TooLarge(f"{total} product points exceed the {candidate_policy} cap of {cap}")

    witness: dict = {}
    unknown: list = []
    k = len(factors)
    for gamma_bits in range(1, 1 << k):
        gamma = tuple(i for i in range(k) if gamma_bits >> i & 1)
        sub = product([factors[g] for g in gamma])
        cells = sub.space.memo(("fan", kappa, candidate_policy),
                               _fan_cells, sub, kappa, candidate_policy)
        for u, fam in cells:
            if fam is None:
                unknown.append((gamma, u))
            else:
                witness[(gamma, u)] = fam

    if not unknown:
        status = FanStatus.HOLDS
    elif sufficient_condition_check(factors, kappa):
        status = FanStatus.HOLDS_VIA_SUFFICIENT_CONDITION
    else:
        status = FanStatus.UNKNOWN
    return FanTightnessVerdict(
        kappa=kappa,
        status=status,
        witness=witness,
        unknown_cells=tuple(unknown),
    )
