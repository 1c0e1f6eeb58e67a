"""Finite topological spaces as the minimal neighbourhoods of their points.

Points are indices 0..n-1; a set of points is one int whose bit i means
"point i is in the set", so every set operation is a single machine-word op.

A space stores the minimal neighbourhood N(x) of every point, and nothing
else describes its topology: the opens are exactly the unions of the N(x)
(Alexandroff, "Diskrete Räume", 1937).  Space equality compares the rows.
Point closures, ``is_open``, ``interior``, ``minimal_opens`` and
``subspace`` derive from them.  A product's rows grow with its points, its
open lattice grows exponentially; so ``opens`` is the family validated by
``space_from_masks`` or, for a space built from rows, the union-closure of
the rows built on first access, refused once it passes ``OPENS_CAP``.
``closure`` scans that lattice, as the oracle the derived routes are
checked against; ``closures`` keeps its value for every subset.  Every
value derived from the rows is kept on the space through ``memo``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator

PointSet = int

MAX_POINTS = 16
OPENS_CAP = 1 << 17


class TopologyError(ValueError):
    """Base class for malformed-input errors raised by this package."""


class DuplicateLabel(TopologyError):
    pass


class UnknownLabel(TopologyError):
    pass


class MissingEmptyOrFull(TopologyError):
    pass


class NotClosedUnderUnion(TopologyError):
    def __init__(self, a, b):
        self.pair = (a, b)
        super().__init__(f"union of opens {a} and {b} is not open")


class NotClosedUnderIntersection(TopologyError):
    def __init__(self, a, b):
        self.pair = (a, b)
        super().__init__(f"intersection of opens {a} and {b} is not open")


class EmptySubspace(TopologyError):
    pass


class NotReflexive(TopologyError):
    pass


class NotTransitive(TopologyError):
    pass


class TooLarge(TopologyError):
    pass


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def popcount(mask: int) -> int:
    return mask.bit_count()


@dataclass(frozen=True, eq=False)
class FiniteSpace:
    """A checked finite topology.

    ``nbhds[x]`` is N(x), the smallest open containing point x, computed
    by ``space_from_masks`` or given to ``from_preorder`` as checked rows.
    Instances are immutable and safe to share; two spaces compare equal
    when they have the same rows, names and labels aside, which is when
    they have the same opens.  ``_cache`` holds what is derived from the
    rows, the open lattice included.
    """

    name: str
    n: int
    point_labels: tuple[str, ...]
    nbhds: tuple[int, ...]
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def full(self) -> int:
        return (1 << self.n) - 1

    @property
    def opens(self) -> tuple[int, ...]:
        """Every open set, increasing; the union-closure of the rows on first use if not stored."""
        return self.memo("opens", enumerate_upsets, self.nbhds)

    def memo(self, key, compute, *args):
        """``compute(*args)``, called once per space and key; the value is kept on the space."""
        got = self._cache.get(key)
        if got is None:
            got = self._cache[key] = compute(*args)
        return got

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteSpace):
            return NotImplemented
        return self.n == other.n and self.nbhds == other.nbhds

    def __hash__(self) -> int:
        return hash((self.n, self.nbhds))

    def __repr__(self) -> str:
        return f"FiniteSpace({self.name!r}, n={self.n}, distinct_nbhds={len(set(self.nbhds))})"

    def label_set(self, mask: int) -> list[str]:
        return [self.point_labels[i] for i in bits(mask)]

    def mask_of(self, labels: Iterable[str]) -> int:
        index = {lab: i for i, lab in enumerate(self.point_labels)}
        mask = 0
        for lab in labels:
            if lab not in index:
                raise UnknownLabel(f"unknown point label {lab!r}")
            mask |= 1 << index[lab]
        return mask

    def is_open(self, mask: int) -> bool:
        """Whether ``mask`` is an up-set: N(x) inside it for each x in it."""
        if not 0 <= mask <= self.full:
            return False
        return all(self.nbhds[x] & ~mask == 0 for x in bits(mask))

    def point_closures(self) -> tuple[int, ...]:
        """closure({x}) = {y : x in N(y)} for every point x, indexed by x."""
        return self.memo("point_closures", _point_closures, self.nbhds)

    def closure_of(self, mask: int) -> int:
        """Closure of ``mask`` as the union of its points' cached closures."""
        pts = self.point_closures()
        out = 0
        for x in bits(mask):
            out |= pts[x]
        return out


def _point_closures(nbhds) -> tuple[int, ...]:
    """The transpose of the rows: entry x holds every y with x in ``nbhds[y]``."""
    out = [0] * len(nbhds)
    for y, nbhd in enumerate(nbhds):
        for x in bits(nbhd):
            out[x] |= 1 << y
    return tuple(out)


def _min_neighborhoods(n: int, opens, members) -> tuple[int, ...]:
    """N(x), the intersection of the opens containing x, for every point x.

    ``opens`` is increasing and ``members`` holds the same masks.  Each
    running intersection, started from the full set, must be a member;
    the first that is not raises NotClosedUnderIntersection on the
    intersection so far and the next open, both members.
    """
    out = []
    for x in range(n):
        nbhd = (1 << n) - 1
        for u in opens:
            if u >> x & 1:
                meet = nbhd & u
                if meet not in members:
                    raise NotClosedUnderIntersection(sorted(bits(nbhd)), sorted(bits(u)))
                nbhd = meet
        out.append(nbhd)
    return tuple(out)


def space_from_masks(name: str, point_labels: Iterable[str], opens: Iterable[int]) -> FiniteSpace:
    """Build a FiniteSpace of at most ``MAX_POINTS`` points from bitmask opens.

    Spaces given by their opens come through here: JSON files, enumerated
    families and metric topologies.  A family F holding the
    empty and the full set is closed under union and intersection exactly
    when (a) every minimal neighbourhood N(x), the intersection of the
    members containing x, is in F, and (b) U | N(x) is in F for every U in
    F and every point x.  Each U in F is the union of the N(x) over x in U;
    by (b) every such union is in F; and y in N(x) gives N(y) <= N(x), so
    these unions are closed under intersection too.  The check costs
    O(n * |F|) set lookups.  A failure names a pair of members whose union
    or intersection is missing.  The N(x) are kept as ``nbhds``.
    """
    labels = tuple(point_labels)
    n = len(labels)
    if n < 1:
        raise TopologyError("a space needs at least one point")
    if n > MAX_POINTS:
        raise TooLarge(f"{n} points exceeds the {MAX_POINTS}-point cap")
    if len(set(labels)) != n:
        raise DuplicateLabel(f"point labels {labels} contain a duplicate")
    full = (1 << n) - 1
    members = set(opens)
    family = sorted(members)
    if family and (family[0] < 0 or family[-1] > full):
        raise TopologyError("an open uses bits outside the point range")
    if 0 not in members or full not in members:
        raise MissingEmptyOrFull("the empty set and the full set must both be open")
    nbhds = _min_neighborhoods(n, family, members)
    distinct = sorted(set(nbhds))
    for u in family:
        for nbhd in distinct:
            if u | nbhd not in members:
                raise NotClosedUnderUnion(sorted(bits(u)), sorted(bits(nbhd)))
    return FiniteSpace(name=name, n=n, point_labels=labels, nbhds=nbhds,
                       _cache={"opens": tuple(family)})


def validate_topology(point_labels, raw_opens, name: str = "space") -> FiniteSpace:
    """Validate a label-level description and return the canonical space."""
    labels = tuple(point_labels)
    if len(set(labels)) != len(labels):
        raise DuplicateLabel(f"point labels {labels} contain a duplicate")
    index = {lab: i for i, lab in enumerate(labels)}
    masks = []
    for raw in raw_opens:
        mask = 0
        for lab in raw:
            if lab not in index:
                raise UnknownLabel(f"open set {list(raw)} mentions unknown label {lab!r}")
            mask |= 1 << index[lab]
        masks.append(mask)
    return space_from_masks(name, labels, masks)


def closure(space: FiniteSpace, subset: int) -> int:
    """Smallest closed set containing ``subset``.

    Computed as the complement of the largest open inside the complement,
    which is one scan of the lattice since opens are union-closed.
    """
    exterior = 0
    for u in space.opens:
        if u & subset == 0:
            exterior |= u
    return space.full ^ exterior


def closures(space: FiniteSpace) -> tuple[int, ...]:
    """``closure`` of every subset, indexed by the subset; built once per space.

    For the routes that sweep every subset.  A single query stays a
    ``closure`` call, so it never builds the 2^n entries.
    """
    return space.memo("closures", _all_closures, space)


def _all_closures(space: FiniteSpace) -> tuple[int, ...]:
    return tuple(closure(space, s) for s in range(space.full + 1))


def interior(space: FiniteSpace, subset: int) -> int:
    """Largest open set contained in ``subset``: the union of the N(x) inside it."""
    inner = 0
    for nbhd in space.nbhds:
        if nbhd & subset == nbhd:
            inner |= nbhd
    return inner


def is_dense(space: FiniteSpace, subset: int) -> bool:
    return closure(space, subset) == space.full


def minimal_opens(space: FiniteSpace) -> tuple[int, ...]:
    """All inclusion-minimal non-empty opens, in increasing bitmask order.

    These are pairwise disjoint, each carries the indiscrete subspace
    topology, and together they form the unique smallest pi-base.
    """
    return space.memo("minimal_opens", inclusion_minimal, space.nbhds)


def inclusion_minimal(rows) -> tuple[int, ...]:
    """The inclusion-minimal masks among ``rows``, in increasing bitmask order."""
    out: list[int] = []
    for cand in sorted(set(rows), key=lambda m: (popcount(m), m)):
        if not any(kept & cand == kept for kept in out):
            out.append(cand)
    return tuple(sorted(out))


def _compress(mask: int, members: list[int]) -> int:
    """Re-index a mask through the sorted point list ``members``."""
    out = 0
    for new, old in enumerate(members):
        if mask >> old & 1:
            out |= 1 << new
    return out


def subset_points(space: FiniteSpace, subset: int) -> list[int]:
    """The points of ``subset`` in increasing order, once it is checked.

    ``subset`` must be a non-empty set of the space's points: 0 raises
    EmptySubspace, any other mask outside 1..full raises TopologyError.
    """
    if subset == 0:
        raise EmptySubspace("cannot take the subspace on the empty set")
    if not 0 < subset <= space.full:
        raise TopologyError(f"subset mask {subset} is not a set of the {space.n} points")
    return list(bits(subset))


def subspace(space: FiniteSpace, subset: int) -> FiniteSpace:
    """The subspace topology on ``subset``, re-indexed to points 0..k-1.

    The trace N(x) & subset is the smallest open of the subspace around x,
    and the traces stay reflexive and transitive, so they are handed to
    ``from_preorder`` as rows; the subspace's lattice is enumerated only
    if something reads it.  ``subset`` is checked by ``subset_points``.

    No route of the package calls it: the game on a subspace is solved in
    the space's own coordinates (``game.StrategyTable`` with ``within``),
    and each dense set's density is read off ``closures``.  It stays public,
    the reference that those routes are tested against, and
    ``perfbench/tracing.py`` counts its calls.
    """
    members = subset_points(space, subset)
    rows = [_compress(space.nbhds[x] & subset, members) for x in members]
    labels = tuple(space.point_labels[i] for i in members)
    return from_preorder(rows, f"{space.name}|sub", labels)


def enumerate_upsets(rows) -> tuple[int, ...]:
    """Every union of ``rows``, the empty one included, in increasing order.

    The rows must be reflexive and transitive: x in rows[x], and y in
    rows[x] implies rows[y] inside rows[x].  Each row is then the least
    up-set holding its point, so the unions of rows are exactly the
    up-sets.  They are built by union-closure: start from {0} and join
    each distinct row to every set so far.  The set only grows, so it
    passes ``OPENS_CAP`` exactly when the lattice does; one row can at
    most double it, and TooLarge is raised after the row that passes it.
    """
    opens = {0}
    for row in set(rows):
        opens |= {u | row for u in opens}
        if len(opens) > OPENS_CAP:
            raise TooLarge(f"more than {OPENS_CAP} up-sets")
    return tuple(sorted(opens))


def from_preorder(rows, name: str = "space", point_labels=None) -> FiniteSpace:
    """The space on n = len(rows) points whose N(x) are the checked ``rows``.

    ``rows[x]`` holds the points y with x in closure({y}): the rows of the
    specialization preorder.  Rows inside the n points, reflexive and
    transitive, and n distinct string labels make the up-sets a topology
    with those N(x), so nothing is validated again and nothing is
    enumerated: the open lattice waits for its first reader.
    """
    rows = tuple(rows)
    n = len(rows)
    labels = tuple(point_labels) if point_labels else tuple(f"p{i}" for i in range(n))
    if n < 1:
        raise TopologyError("a space needs at least one point")
    if len(labels) != n or not all(isinstance(lab, str) for lab in labels):
        raise TopologyError(f"a space on {n} points needs {n} string labels")
    if len(set(labels)) != n:
        raise DuplicateLabel(f"point labels {labels} contain a duplicate")
    for x, row in enumerate(rows):
        if not 0 <= row < 1 << n:
            raise TopologyError(f"the row of point {x} uses bits outside the point range")
        if not row >> x & 1:
            raise NotReflexive(f"point {x} is not related to itself")
    for x, row in enumerate(rows):
        for y in bits(row):
            if rows[y] & ~row:
                raise NotTransitive(f"transitivity fails through points {x} <= {y}")
    return FiniteSpace(name=name, n=n, point_labels=labels, nbhds=rows)


# ---------------------------------------------------------------------------
# Space file format: {"name": str, "points": [str,...], "opens": [[str,...],...]}
# ---------------------------------------------------------------------------

def space_to_json(space: FiniteSpace) -> dict:
    """Opens are listed by size, then by their sorted labels."""
    opens = [sorted(space.label_set(m)) for m in space.opens]
    opens.sort(key=lambda labels: (len(labels), labels))
    return {"name": space.name, "points": list(space.point_labels), "opens": opens}


def space_from_json(obj: dict) -> FiniteSpace:
    if not isinstance(obj, dict):
        raise TopologyError("a space must be a JSON object")
    try:
        name = obj["name"]
        points = obj["points"]
        opens = obj["opens"]
    except KeyError as exc:
        raise TopologyError(f"space object is missing field {exc}") from exc
    if not isinstance(name, str):
        raise TopologyError('field "name" must be a string')
    if not is_str_list(points):
        raise TopologyError('field "points" must be a list of strings')
    if not isinstance(opens, list) or not all(is_str_list(u) for u in opens):
        raise TopologyError('field "opens" must be a list of lists of strings')
    return validate_topology(points, opens, name=name)


def is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def load_space(path) -> FiniteSpace:
    with open(path, "r", encoding="utf-8") as fh:
        return space_from_json(json.load(fh))


def save_space(space: FiniteSpace, path) -> None:
    # json.dumps encodes in C; json.dump to a stream runs the pure-Python encoder
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(space_to_json(space)) + "\n")
