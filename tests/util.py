"""Hypothesis strategies and space helpers shared by the test modules."""

from hypothesis import strategies as st

from openpoint.space import FiniteSpace, from_preorder, space_from_masks


def close_family(n, masks):
    """Close a family of subsets of 0..n-1 under union and intersection."""
    full = (1 << n) - 1
    family = {0, full} | {m & full for m in masks}
    frontier = list(family)
    while frontier:
        a = frontier.pop()
        for b in list(family):
            for c in (a | b, a & b):
                if c not in family:
                    family.add(c)
                    frontier.append(c)
    return sorted(family)


@st.composite
def spaces(draw, max_points=5):
    """A random valid finite topology on 1..max_points points."""
    n = draw(st.integers(min_value=1, max_value=max_points))
    full = (1 << n) - 1
    seeds = draw(st.lists(st.integers(min_value=0, max_value=full), max_size=6))
    opens = close_family(n, seeds)
    labels = [f"p{i}" for i in range(n)]
    return space_from_masks("random", labels, opens)


@st.composite
def preorders(draw, min_points=1, max_points=8):
    """A random space on min_points..max_points points, built from its rows by ``from_preorder``.

    A drawn list of pairs (x, y), read as y in N(x), is closed reflexively
    and transitively (Warshall); the rows then build the space with no
    lattice built.  Short lists give near-discrete spaces, long ones merge
    points.
    """
    n = draw(st.integers(min_value=min_points, max_value=max_points))
    point = st.integers(min_value=0, max_value=n - 1)
    rows = [1 << x for x in range(n)]
    for x, y in draw(st.lists(st.tuples(point, point), max_size=2 * n)):
        rows[x] |= 1 << y
    for k in range(n):
        for x in range(n):
            if rows[x] >> k & 1:
                rows[x] |= rows[k]
    return from_preorder(rows, "preorder")


def refuse(*args, **kwargs):
    """A stand-in for a route that must not be taken."""
    raise AssertionError("a route that must not be taken was taken")


class UnreadableRows:
    """Rows that refuse every read: a space holding them answers only from its stored opens."""

    __iter__ = __len__ = __getitem__ = __hash__ = __eq__ = refuse


def rowless(space):
    """A fresh copy of ``space`` that holds its open lattice and no readable rows."""
    return FiniteSpace(space.name, space.n, space.point_labels, UnreadableRows(), {"opens": space.opens})


@st.composite
def space_and_subset(draw, max_points=5):
    space = draw(spaces(max_points=max_points))
    subset = draw(st.integers(min_value=0, max_value=space.full))
    return space, subset


@st.composite
def closure_tables(draw, max_points=4):
    """A table of 2^n masks on 1..max_points points, indexed by subset, as ``closures`` gives.

    It starts additive: entry T is the union of a drawn entry 0 and a drawn
    mask per point of T.  Then a few entries may be overwritten with any
    mask, so tables pass and fail additivity both, some only at one set.
    """
    n = draw(st.integers(min_value=1, max_value=max_points))
    full = (1 << n) - 1
    masks = st.integers(min_value=0, max_value=full)
    table = [draw(masks)]
    for _ in range(n):
        point = draw(masks)
        table += [c | point for c in table]
    for t in draw(st.lists(st.integers(min_value=0, max_value=full), max_size=2)):
        table[t] = draw(masks)
    return tuple(table)
