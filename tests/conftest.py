import pytest

from openpoint.space import from_preorder, space_from_masks, validate_topology


def make_sierpinski():
    # two points a, b; {b} open, {a} not
    return validate_topology(["a", "b"], [[], ["b"], ["a", "b"]], name="sierpinski")


def make_discrete(n, name=None):
    labels = [f"p{i}" for i in range(n)]
    return space_from_masks(name or f"discrete{n}", labels, range(1 << n))


def make_indiscrete(n, name=None):
    labels = [f"p{i}" for i in range(n)]
    return space_from_masks(name or f"indiscrete{n}", labels, [0, (1 << n) - 1])


def make_chain(n, name=None):
    # opens are the nested prefixes {p0}, {p0,p1}, ...
    labels = [f"p{i}" for i in range(n)]
    return space_from_masks(
        name or f"chain{n}", labels, [(1 << k) - 1 for k in range(n + 1)]
    )


def make_two_sierpinski():
    # disjoint union of two Sierpinski copies: {b} and {d} open
    opens = []
    for u in (0b0000, 0b0010, 0b0011):
        for v in (0b0000, 0b1000, 0b1100):
            opens.append(u | v)
    return space_from_masks("two_sierpinski", ["a", "b", "c", "d"], opens)


def make_cli_class_factors():
    """X with 3 minimal opens and 12 opens, Y with 2 minimal opens and 6 opens.

    Their product is a 16-point space of 720 opens and 6 minimal opens, the
    size class of the command sessions in the ``cli`` benchmark workload.
    """
    x = from_preorder([0b0001, 0b0010, 0b0100, 0b1001], "X", [f"x{i}" for i in range(4)])
    y = from_preorder([0b0001, 0b0010, 0b0111, 0b1111], "Y", [f"y{i}" for i in range(4)])
    return x, y


@pytest.fixture
def sierpinski():
    return make_sierpinski()


@pytest.fixture
def two_sierpinski():
    return make_two_sierpinski()


@pytest.fixture(scope="session")
def labeled_corpus():
    """All labeled topologies for n = 1..4, enumerated once per session."""
    from openpoint.enumeration import enumerate_labeled

    return {n: list(enumerate_labeled(n)) for n in range(1, 5)}


@pytest.fixture(scope="session")
def oracle_corpus(labeled_corpus):
    """Every labeled topology with n <= 4, then every 7th one with n = 5."""
    from openpoint.enumeration import enumerate_labeled

    small = [s for spaces in labeled_corpus.values() for s in spaces]
    return small + list(enumerate_labeled(5))[::7]


@pytest.fixture(scope="session")
def unlabeled_corpus():
    from openpoint.enumeration import enumerate_unlabeled

    return {n: list(enumerate_unlabeled(n)) for n in range(1, 5)}


@pytest.fixture(scope="session")
def small_spaces(unlabeled_corpus):
    """One representative per homeomorphism class, n <= 3."""
    return [s for n in (1, 2, 3) for s in unlabeled_corpus[n]]
