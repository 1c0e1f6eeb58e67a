"""Reference space-file reader and writer: a schema check, then a label loop.

``ref_space_from_json`` checks every field before it reads a label, then
turns each open into a mask label by label; ``ref_space_to_json`` sorts
each open's labels and then the opens.  ``openpoint.space`` reads and
writes the same format with one pass over the labels and lookup tables;
the tests hold it to these, value for value and error for error.
"""

from openpoint.space import DuplicateLabel, TopologyError, UnknownLabel, bits, space_from_masks


def ref_labels(space, mask):
    """The labels of the points in ``mask``, sorted."""
    return sorted([space.point_labels[i] for i in bits(mask)])


def ref_space_to_json(space):
    opens = [ref_labels(space, m) for m in space.opens]
    opens.sort(key=lambda labels: (len(labels), labels))
    return {"name": space.name, "points": list(space.point_labels), "opens": opens}


def _is_str_list(value):
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def ref_space_from_json(obj):
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
    if not _is_str_list(points):
        raise TopologyError('field "points" must be a list of strings')
    if not isinstance(opens, list) or not all(_is_str_list(u) for u in opens):
        raise TopologyError('field "opens" must be a list of lists of strings')
    labels = tuple(points)
    if len(set(labels)) != len(labels):
        raise DuplicateLabel(f"point labels {labels} contain a duplicate")
    index = {lab: i for i, lab in enumerate(labels)}
    masks = []
    for raw in opens:
        mask = 0
        for lab in raw:
            if lab not in index:
                raise UnknownLabel(f"open set {list(raw)} mentions unknown label {lab!r}")
            mask |= 1 << index[lab]
        masks.append(mask)
    return space_from_masks(name, labels, masks)


def _space(points, opens, name="s"):
    return {"name": name, "points": points, "opens": opens}


# (id, object): space objects each reader must refuse with the same error,
# or, for the ``accepted`` ones, read to the same space
MALFORMED = [
    ("schema-error-after-unknown-label", _space(["a"], [[], ["z"], [1], ["a"]])),
    ("duplicate-points-and-a-string-open", _space(["a", "a"], [[], ["a"], "a"])),
    ("duplicate-points", _space(["a", "a"], [[], ["a"]])),
    ("unknown-label", _space(["a", "b"], [[], ["a"], ["a", "c"], ["a", "b"]])),
    ("int-label", _space(["a"], [[], [1], ["a"]])),
    ("list-label", _space(["a"], [[], [["a"]], ["a"]])),
    ("dict-label", _space(["a"], [[], [{"a": 1}], ["a"]])),
    ("null-label", _space(["a"], [[], [None], ["a"]])),
    ("string-open", _space(["a"], [[], "a"])),
    ("opens-not-a-list", _space(["a"], {"a": ["a"]})),
    ("int-point", _space(["a", 1], [[], ["a"]])),
    ("list-point", _space(["a", ["b"]], [[], ["a"]])),
    ("points-a-string", _space("ab", [[], ["a"], ["a", "b"]])),
    ("name-not-a-string", {"name": 3, "points": ["a"], "opens": [[], ["a"]]}),
    ("missing-opens", {"name": "s", "points": ["a"]}),
    ("not-an-object", [["a"], [[], ["a"]]]),
    ("no-points", _space([], [[]])),
    ("too-many-points", _space([f"p{i}" for i in range(17)], [[]])),
    ("too-many-points-with-a-duplicate", _space([f"p{i}" for i in range(16)] + ["p0"], [[]])),
    ("a-hundred-thousand-points", _space([f"p{i}" for i in range(100_000)], [[], ["p99999"]])),
    ("missing-full-set", _space(["a", "b"], [[], ["a"], ["b"]])),
    ("not-closed-under-union", _space(["a", "b", "c"], [[], ["a"], ["b"], ["a", "b", "c"]])),
]
ACCEPTED = [
    ("repeated-label-in-an-open", _space(["a", "b"], [[], ["a", "a"], ["b", "a", "b"]])),
    ("opens-in-any-order", _space(["b", "a"], [["a", "b"], ["b"], [], ["b"]])),
]
