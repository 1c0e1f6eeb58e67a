"""Product topologies and the fan-tightness condition on factor families.

A product of finite spaces is a FiniteSpace whose points are mixed-radix
tuples.  Its rows N((x, y)) = N(x) x N(y) go straight to ``from_preorder``;
its opens, the unions of open boxes, are enumerated only if something
reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import reduce
from itertools import combinations, islice, product as iter_product
from math import prod as size_product
from operator import or_

from .invariants import pi_weight
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
# unknown.  The search no longer loops over pick-sets, so the cap bounds no
# loop; it only decides which cells are left undecided.
SUBSET_LOOP_CAP = 1 << 12
FAMILY_TRY_CAP = 64


@dataclass(frozen=True, eq=False)
class ProductSpace:
    factors: tuple[FiniteSpace, ...]
    space: FiniteSpace
    sizes: tuple[int, ...]

    def encode(self, coords) -> int:
        return _encode(self.sizes, coords)

    def decode(self, idx: int) -> tuple[int, ...]:
        return _decode(self.sizes, idx)

    def box_mask(self, factor_masks) -> int:
        """Product-point mask of the open box with the given factor masks."""
        return _box(self.sizes, factor_masks)

    def proj_mask(self, mask: int, axis: int) -> int:
        out = 0
        for idx in bits(mask):
            out |= 1 << self.decode(idx)[axis]
        return out


def _decode(sizes, idx: int) -> tuple[int, ...]:
    out = []
    for size in reversed(sizes):
        out.append(idx % size)
        idx //= size
    return tuple(reversed(out))


def _encode(sizes, coords) -> int:
    idx = 0
    for size, c in zip(sizes, coords):
        idx = idx * size + c
    return idx


def _box(sizes, factor_masks) -> int:
    mask = 0
    choices = [list(bits(m)) for m in factor_masks]
    for coords in iter_product(*choices):
        mask |= 1 << _encode(sizes, coords)
    return mask


def _product_succ(factors, sizes) -> tuple[int, ...]:
    """N((x, y, ...)) = N(x) x N(y) x ... for every product point, in index order."""
    return tuple(
        _box(sizes, [f.nbhds[c] for f, c in zip(factors, coords)])
        for coords in iter_product(*map(range, sizes))
    )


def product(factors, name: str | None = None) -> ProductSpace:
    """Build the product topology of 1..k finite spaces from their rows.

    The first factor remembers its most recent product of each arity, so
    repeated calls on the same factors return the same (immutable) object.
    The key holds every factor's name, labels and N(x) rows, which is all
    the build reads (equal rows mean equal opens): space equality ignores
    names and labels, but the product's name and labels come from them.
    """
    factors = tuple(factors)
    if not factors:
        raise ValueError("a product needs at least one factor")
    key = (name, tuple((f.name, f.point_labels, f.nbhds) for f in factors))
    slot = ("product", len(factors))
    got = factors[0]._cache.get(slot)
    if got is not None and got[0] == key:
        return got[1]
    prod = _build_product(factors, name)
    factors[0]._cache[slot] = (key, prod)
    return prod


def _build_product(factors, name):
    sizes = tuple(f.n for f in factors)
    total = size_product(sizes)
    if total > POINTS_CAP:
        raise TooLarge(f"product would have {total} points (cap {POINTS_CAP})")
    labels = [
        "(" + ",".join(f.point_labels[c] for f, c in zip(factors, coords)) + ")"
        for coords in iter_product(*map(range, sizes))
    ]
    space = from_preorder(_product_succ(factors, sizes), name or "x".join(f.name for f in factors),
                          labels)
    return ProductSpace(factors=factors, space=space, sizes=sizes)


def minimal_open_boxes(prod: ProductSpace) -> tuple[int, ...]:
    """Boxes built from factor minimal opens (the claimed minimal opens)."""
    per_factor = [minimal_opens(f) for f in prod.factors]
    return tuple(sorted(prod.box_mask(combo) for combo in iter_product(*per_factor)))


def minimal_opens_via_preorder(factors) -> tuple[int, ...]:
    """Minimal opens of the product computed from its N(x) rows.

    Builds no product space, so it serves as the independent route for
    large products.
    """
    factors = tuple(factors)
    sizes = tuple(f.n for f in factors)
    return inclusion_minimal(_product_succ(factors, sizes))


@dataclass(frozen=True)
class SufficientConditionResult:
    holds: bool
    kappa: int
    designated: tuple[int, ...]
    sigma_ok: bool

    def __bool__(self) -> bool:
        return self.holds


def sufficient_condition_check(factors, kappa: int) -> SufficientConditionResult:
    """Cheap criterion implying the fan-tightness condition.

    Factors of pi-weight above kappa must shrink below it inside every open
    (those are the designated ones); the rest must have pi-weight <= kappa,
    and there may be at most kappa factors.  On a finite space every factor
    shrinks: each non-empty open holds a minimal open, an indiscrete
    subspace of pi-weight 1 <= kappa.  So only the factor count decides.
    """
    if kappa < 1:
        raise ValueError("kappa must be at least 1")
    factors = tuple(factors)
    sigma_ok = len(factors) <= kappa
    designated = tuple(i for i, f in enumerate(factors) if pi_weight(f) > kappa)
    return SufficientConditionResult(
        holds=sigma_ok, kappa=kappa, designated=designated, sigma_ok=sigma_ok
    )


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
    """Whether every key covers a bit that no other key in the list covers."""
    for i, key in enumerate(keys):
        rest = 0
        for j, other in enumerate(keys):
            if j != i:
                rest |= other
        if key & ~rest == 0:
            return False
    return True


def _point_keys(sub: ProductSpace) -> list[int]:
    """Each point's coordinates' factor closures, packed axis by axis."""
    factor_cl = [f.point_closures() for f in sub.factors]
    out = []
    for p in range(sub.space.n):
        key = shift = 0
        for coord, pcl, f in zip(sub.decode(p), factor_cl, sub.factors):
            key |= pcl[coord] << shift
            shift += f.n
        out.append(key)
    return out


def _fibres(sub: ProductSpace) -> list[int]:
    """Every fibre: the points of ``sub`` with one given coordinate on one axis."""
    per_axis = [[0] * size for size in sub.sizes]
    for idx in range(sub.space.n):
        for masks, coord in zip(per_axis, sub.decode(idx)):
            masks[coord] |= 1 << idx
    return [mask for masks in per_axis for mask in masks]


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
    member.  A projection of U minus D shrinks exactly when some non-empty
    fibre slice of U (its points with one coordinate on one axis) lies in
    D.  More than 12 factors are refused before any product is built: with
    at least two points each they exceed ``POINTS_CAP``.
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
        opens_nonempty = [u for u in sub.space.opens if u]
        if (1 << sub.space.n) > SUBSET_LOOP_CAP:
            unknown.extend((gamma, u) for u in opens_nonempty)
            continue
        if candidate_policy == "boxes":
            pool = list(minimal_open_boxes(sub))
        else:
            pool = opens_nonempty
        fam_size = min(kappa, len(pool))
        families = list(islice(combinations(pool, fam_size), FAMILY_TRY_CAP))
        keys = _point_keys(sub)
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
        fibres = _fibres(sub)
        for u in opens_nonempty:
            slices = [u & f for f in fibres if u & f]
            for fam, dset in zip(families, closure_sets):
                if all(any(s & ~d == 0 for s in slices) for d in dset):
                    witness[(gamma, u)] = fam
                    break
            else:
                unknown.append((gamma, u))

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
