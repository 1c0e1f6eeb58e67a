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
checked against; ``closures`` holds the closure of every subset, built
from the lattice in one pass over the subsets.  Every
value derived from the rows is kept on the space through ``memo``, as are
the label tables that ``mask_of`` and ``labels_of`` read.

Space files are read with one Python pass over their labels
(``space_from_json``) and written from the label tables
(``space_to_json``).
"""

from __future__ import annotations

import json
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


class Frozen:
    """Base of the slotted value classes: ``__init__`` sets each field once, then none changes.

    Fields are set with ``object.__setattr__``; assigning or deleting one
    afterwards raises AttributeError.  These classes are plain slotted
    classes rather than dataclasses, which generate their code at import.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class FiniteSpace(Frozen):
    """A checked finite topology.

    ``nbhds[x]`` is N(x), the smallest open containing point x, computed
    by ``space_from_masks`` or given to ``from_preorder`` as checked rows.
    Instances are immutable and safe to share; two spaces compare equal
    when they have the same rows, names and labels aside, which is when
    they have the same opens.  ``_cache`` holds what is derived from the
    rows, the open lattice included; it only ever gains entries.
    """

    __slots__ = ("name", "n", "point_labels", "nbhds", "_cache", "__weakref__")

    def __init__(self, name: str, n: int, point_labels: tuple[str, ...], nbhds: tuple[int, ...],
                 _cache: dict | None = None):
        set_field = object.__setattr__
        set_field(self, "name", name)
        set_field(self, "n", n)
        set_field(self, "point_labels", point_labels)
        set_field(self, "nbhds", nbhds)
        set_field(self, "_cache", {} if _cache is None else _cache)

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

    def labels_of(self, mask: int) -> list[str]:
        """The labels of the points in ``mask``, sorted; TopologyError if it is not a set of points.

        Read off the ``_label_tables`` of the space, built on first use.
        """
        if not 0 <= mask <= self.full:
            raise TopologyError(f"mask {mask} is not a set of the {self.n} points")
        to_rank, by_rank = self.memo("label_tables", _label_tables, self.point_labels)
        return _rank_labels(by_rank, _rank_mask(to_rank, mask))

    def mask_of(self, labels: Iterable[str]) -> int:
        """The set of the points labelled ``labels``; UnknownLabel names a label that is not a point's."""
        bit_of = self.memo("label_bits", _label_bits, self.point_labels)
        mask = 0
        for lab in labels:
            if lab not in bit_of:
                raise UnknownLabel(f"unknown point label {lab!r}")
            mask |= bit_of[lab]
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


def _label_bits(point_labels) -> dict:
    """``{label: 1 << i}`` for the label of every point i."""
    return {lab: 1 << i for i, lab in enumerate(point_labels)}


def _label_tables(point_labels) -> tuple[tuple, tuple]:
    """Lookup tables that turn a set of points into its labels in sorted order.

    The label of rank r among the n labels (rank 0 for the least string)
    is bit n-1-r of a *rank mask*, so a set's sorted labels are the bits of
    its rank mask from the top down.  ``to_rank`` holds, per 8-bit chunk
    of a point mask, a list from the chunk's value to the rank bits of its
    points: 2^k ints for a chunk of k bits, built at once.  ``by_rank``
    holds, per chunk of a rank mask from the top chunk down, a
    ``_SortedLabels`` table from the chunk's value to its labels in sorted
    order, whose entries are built as they are looked up: a space that
    labels a few sets builds a few label tuples, not 2^k.  Each entry is
    ``(shift, table)``.
    """
    n = len(point_labels)
    order = sorted(range(n), key=point_labels.__getitem__)
    rank_bit = [0] * n
    for r, x in enumerate(order):
        rank_bit[x] = 1 << (n - 1 - r)
    label_at = [(point_labels[x],) for x in reversed(order)]  # the label of each rank bit
    to_rank, by_rank = [], []
    for lo in range(0, n, 8):
        ranks = [0]
        for bit in rank_bit[lo:lo + 8]:
            # entry v + 2^j adds to entry v the rank bit of the chunk's point j
            ranks += [r | bit for r in ranks]
        to_rank.append((lo, ranks))
        by_rank.append((lo, _SortedLabels(label_at[lo:lo + 8])))
    return tuple(to_rank), tuple(reversed(by_rank))


class _SortedLabels(dict):
    """The sorted labels of each value of one rank-mask chunk, built on first lookup.

    ``names[j]`` is the 1-tuple of the label of the chunk's bit j.  The
    chunk's highest bit holds the least of its labels, so entry v is that
    label followed by the entry of v without it.
    """

    __slots__ = ("names",)

    def __init__(self, names):
        super().__init__(((0, ()),))
        self.names = names

    def __missing__(self, v):
        top = v.bit_length() - 1
        got = self[v] = self.names[top] + self[v ^ 1 << top]
        return got


def _rank_mask(to_rank, mask: int) -> int:
    rank = 0
    for shift, table in to_rank:
        rank |= table[mask >> shift & 255]
    return rank


def _rank_labels(by_rank, rank: int) -> list[str]:
    labels = []
    for shift, table in by_rank:
        labels += table[rank >> shift & 255]
    return labels


def _point_closures(nbhds) -> tuple[int, ...]:
    """The transpose of the rows: entry x holds every y with x in ``nbhds[y]``."""
    out = [0] * len(nbhds)
    for y, nbhd in enumerate(nbhds):
        for x in bits(nbhd):
            out[x] |= 1 << y
    return tuple(out)


def space_from_masks(name: str, point_labels: Iterable[str], opens: Iterable[int]) -> FiniteSpace:
    """Build a FiniteSpace of at most ``MAX_POINTS`` points from bitmask opens.

    Spaces given by their opens come through here: JSON files, enumerated
    families and metric topologies.  Let row(x) be the first member of the
    family F that holds x, in (size, mask) order.  F, holding the empty
    and the full set, is a topology exactly when the rows are transitive
    (y in row(x) gives row(y) <= row(x)) and the union-closure of the rows
    is F.  If so, the unions of transitive rows are the up-sets of a
    preorder, which form a topology whose N(x) are the rows (Alexandroff,
    "Diskrete Räume", 1937).  Conversely, in a topology N(x) is the unique
    smallest member holding x, so row(x) = N(x): transitive, and every
    open is the union of the N(x) inside it.

    One pass over F in that order checks both: a member that covers new
    points is a row, its old points must form a union of the earlier rows
    (transitivity), and its unions with every set built so far must be
    members.  What is built stays inside F, so it is F exactly when it is
    as large.  A refusal names a pair of members from the same rows.  A
    member U holding x with row(x) not inside U gives
    NotClosedUnderIntersection(row(x), U): row(x) & U would be a smaller
    member holding x.  Otherwise some U | row(x) is missing, which gives
    NotClosedUnderUnion.  The cost is one sort of F and, per distinct row,
    one set of unions no larger than F.  With Python 3.11 on a 2-vCPU Xeon
    VM that is about 0.5 ms for a 720-open product of 16 points, 20 ms for
    the 65,536 opens of D4 x D4 and 8 µs per 5-point family.  The rows are
    kept as ``nbhds``.
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
    nbhds = [0] * n
    found = 0       # the points whose row is known
    upsets = {0}    # every union of the rows so far, all members
    for row in sorted(family, key=int.bit_count):
        new = row & ~found
        if not new:
            continue
        if row & found not in upsets:
            y = next(y for y in bits(row & found) if nbhds[y] & ~row)
            raise NotClosedUnderIntersection(sorted(bits(nbhds[y])), sorted(bits(row)))
        grown = {u | row for u in upsets}
        if not grown <= members:
            u = min(u for u in upsets if u | row not in members)
            raise NotClosedUnderUnion(sorted(bits(u)), sorted(bits(row)))
        upsets |= grown
        found |= new
        while new:  # bits(new), inlined: this runs for every row of every family
            low = new & -new
            nbhds[low.bit_length() - 1] = row
            new ^= low
        if found == full:
            break
    if len(upsets) != len(members):
        u = min(members - upsets)
        x = next(x for x in bits(u) if nbhds[x] & ~u)
        raise NotClosedUnderIntersection(sorted(bits(nbhds[x])), sorted(bits(u)))
    return FiniteSpace(name=name, n=n, point_labels=labels, nbhds=tuple(nbhds),
                       _cache={"opens": tuple(family)})


_OPENS_FIELD = 'field "opens" must be a list of lists of strings'


def validate_topology(point_labels, raw_opens, name: str = "space") -> FiniteSpace:
    """Validate a label-level description and return the canonical space.

    ``raw_opens`` is a list of lists of labels.  One pass turns each open
    into a mask, one lookup per label.  An open that is not a list, or a
    label that is not a string, is refused at once, wherever it stands.
    The first unknown label is held until the pass is over and the points
    are checked for a duplicate, so the refusal is always the first of:
    a malformed open anywhere, a duplicate point, the first unknown label,
    and then whatever ``space_from_masks`` refuses.
    """
    labels = tuple(point_labels)
    # space_from_masks refuses more than MAX_POINTS points before it reads a
    # mask, so no mask needs a bit past MAX_POINTS: many labels build no wide ints
    bit_of = {lab: 1 << min(i, MAX_POINTS) for i, lab in enumerate(labels)}
    masks = []
    unknown = None
    for raw in raw_opens:
        if not isinstance(raw, list):
            raise TopologyError(_OPENS_FIELD)
        mask = 0
        for lab in raw:
            try:
                mask |= bit_of[lab]
            except (KeyError, TypeError):
                if not isinstance(lab, str):
                    raise TopologyError(_OPENS_FIELD) from None
                if unknown is None:
                    unknown = f"open set {list(raw)} mentions unknown label {lab!r}"
        masks.append(mask)
    if len(bit_of) != len(labels):
        raise DuplicateLabel(f"point labels {labels} contain a duplicate")
    if unknown is not None:
        raise UnknownLabel(unknown)
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
    """One pass over the subsets c in increasing order, read off the lattice alone.

    The largest open inside c, ``inner[c]``, is c if c is open; otherwise
    some x of c lies outside it, so it is the largest open inside one of
    the c minus a point, all of which come earlier: the OR of those.  The
    closure of s is then the complement of ``inner`` of its complement.
    No closure is joined from point closures: that would assume the
    additivity that ``kuratowski`` tests.
    """
    full, opens = space.full, set(space.opens)
    inner = [0] * (full + 1)
    for c in range(1, full + 1):
        if c in opens:
            inner[c] = c
            continue
        got, rest = 0, c
        while rest:  # bits(c), inlined: this runs for every subset of every space
            low = rest & -rest
            got |= inner[c ^ low]
            rest ^= low
        inner[c] = got
    return tuple(full ^ inner[full ^ s] for s in range(full + 1))


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
    """The inclusion-minimal masks among ``rows``, in increasing bitmask order.

    A proper subset of a mask is a smaller integer, so in value order every
    mask comes after its subsets: a mask that holds no mask kept so far is
    minimal, and the kept masks come out increasing.
    """
    out: list[int] = []
    for cand in sorted(set(rows)):
        if not any(kept & cand == kept for kept in out):
            out.append(cand)
    return tuple(out)


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
    the space's own coordinates (``game.StrategyTable`` on its reply list),
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
    """Opens are listed by size, then by their sorted labels.

    Among opens of one size, the sorted label lists ascend as the rank
    masks of ``_label_tables`` descend: the least label of the symmetric
    difference of two opens is the highest bit in which their rank masks
    differ.  So the opens are sorted as ints, and each open's labels are
    read off the tables once.
    """
    to_rank, by_rank = space.memo("label_tables", _label_tables, space.point_labels)
    ranks = sorted([_rank_mask(to_rank, m) for m in space.opens], reverse=True)
    ranks.sort(key=int.bit_count)
    opens = [_rank_labels(by_rank, r) for r in ranks]
    return {"name": space.name, "points": list(space.point_labels), "opens": opens}


def space_from_json(obj: dict) -> FiniteSpace:
    """The space of a space file's object; any malformed object raises a TopologyError.

    The object, its three fields, ``name`` and ``points`` are checked in
    that order; then ``validate_topology`` reads the opens in one pass over
    their labels.  An unknown label is reported only once that pass has
    found no malformed open and the points no duplicate.
    """
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
    if not isinstance(opens, list):
        raise TopologyError(_OPENS_FIELD)
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
