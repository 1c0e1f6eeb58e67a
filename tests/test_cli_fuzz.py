"""Random input files and flag values for every subcommand.

Whatever the files hold and whatever the flags say, ``run`` returns exit
code 0, 1 or 2; an exception escaping it fails the test.  Inputs stay
small (at most 3 points per space, at most 2 factors) so that every
example finishes quickly.
"""

import io
import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from openpoint.cli import run
from openpoint.space import TopologyError

from .space_file_oracle import MALFORMED, ref_space_from_json
from .util import close_family

LABELS = ["a", "b", "c", "(a,b)", ""]
COMMANDS = ["validate", "invariants", "solve", "play", "enumerate", "suite",
            "product", "fan-check", "greedy"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-3, max_value=20)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["name", "points", "opens", "dist", "factors"]) | st.text(max_size=3),
        inner, max_size=3),
    max_leaves=8,
)


@st.composite
def space_objects(draw):
    """A space file's object: valid, nearly valid or malformed."""
    kind = draw(st.sampled_from(["valid", "labels", "junk"]))
    if kind == "junk":
        return draw(json_values)
    if kind == "valid":
        n = draw(st.integers(min_value=1, max_value=3))
        labels = [f"p{i}" for i in range(n)]
        seeds = draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=3))
        opens = [[labels[i] for i in range(n) if u >> i & 1] for u in close_family(n, seeds)]
        return {"name": draw(st.sampled_from(["X", "Y"])), "points": labels, "opens": opens}
    points = draw(st.lists(st.sampled_from(LABELS), max_size=3))
    opens = draw(st.lists(st.lists(st.sampled_from(LABELS), max_size=3), max_size=5))
    return {"name": "S", "points": points, "opens": opens}


distances = st.sampled_from([0, 1, 2, -1, 0.5, "1/2", "0", "3", "x", "1/0", "1e5000", "2E-007",
                             True, None, float("nan"), float("inf"), 1e300])


@st.composite
def metric_objects(draw):
    if draw(st.booleans()):
        return draw(json_values)
    n = draw(st.integers(min_value=0, max_value=3))
    points = draw(st.lists(st.sampled_from(LABELS), min_size=n, max_size=n))
    rows = draw(st.lists(st.lists(distances, min_size=n, max_size=n), min_size=n, max_size=n))
    if draw(st.booleans()):  # make the matrix a metric more often than chance would
        rows = [[0 if i == j else 1 for j in range(n)] for i in range(n)]
    return {"points": points, "dist": rows}


def file_texts(objects):
    """JSON text of an object, or text that is not JSON, or bytes that are not UTF-8."""
    return st.one_of(
        objects.map(json.dumps),
        objects.map(json.dumps),
        st.sampled_from(["", "{", "[1,", "nul", '{"name": "S"']),
        st.just(b"\xff\xfe{}"),
    )


def flag(name, values):
    """Either no flag at all, or the flag with one of ``values``."""
    return st.one_of(st.just([]), st.sampled_from(values).map(lambda v: [name, v]))


VARIANTS = ["restricted", "free", "multi-point", "nope"]


@st.composite
def invocations(draw):
    """(argv with {i} file slots, the files' texts) for one random command."""
    command = draw(st.sampled_from(COMMANDS))
    files = []

    def space_file():
        files.append(draw(file_texts(space_objects())))
        return "{%d}" % (len(files) - 1)

    args = []
    if command in ("validate", "invariants"):
        args = [space_file()]
    elif command == "solve":
        args = [space_file()] + draw(flag("--variant", VARIANTS))
    elif command == "play":
        args = [space_file() for _ in range(draw(st.integers(min_value=1, max_value=2)))]
        args += draw(flag("--pI", ["optimal", "pi-base", "product", "aggregate", "nope"]))
        args += draw(flag("--pII", ["interactive", "random", "first", "stall", "optimal",
                                    "dense", "nope"]))
        args += draw(flag("--variant", VARIANTS))
        args += draw(flag("--dense-set", ["", "p0", "p0,p1", "(p0,p0)", "zz", "(p0,"]))
        args += draw(flag("--ledger", ["{out}", "{dir}"]))
    elif command == "enumerate":
        args = draw(flag("--n", ["-1", "0", "1", "2", "3", "6", "x"]))
        args += draw(flag("--mode", ["labeled", "unlabeled", "nope"]))
        args += draw(flag("--method", ["family", "preorder", "both", "nope"]))
        args += draw(flag("--out", ["{out}", "{dir}"]))
    elif command == "suite":
        args = draw(flag("--n", ["-1", "0", "1", "2", "6", "x"]))
        args += draw(flag("--checks", ["all", "chain", "metric,roundtrip", "fan-link", "nope", ""]))
        args += draw(flag("--report", ["{out}", "{dir}"]))
    elif command == "product":
        args = [space_file() for _ in range(draw(st.integers(min_value=1, max_value=2)))]
        args += draw(flag("-o", ["{out}", "{dir}"]))
    elif command == "fan-check":
        factors = draw(st.lists(space_objects() | st.sampled_from(["{0}", "", "missing.json"]),
                                max_size=2))
        if "{0}" in factors:
            files.append(draw(file_texts(space_objects())))
        spec = draw(st.sampled_from([{"factors": factors}, factors, {"factor": factors}]))
        files.append(draw(st.just(json.dumps(spec)) | file_texts(st.just(spec))))
        args = ["{%d}" % (len(files) - 1)]
        args += draw(flag("--kappa", ["-1", "0", "1", "2", "3", "x"]))
        args += draw(flag("--pool", ["boxes", "all", "nope"]))
    elif command == "greedy":
        files.append(draw(file_texts(metric_objects())))
        args = ["{0}"] + draw(flag("--start", ["a", "b", "zz", ""]))
    lead = draw(flag("--format", ["ndjson", "pretty", "nope"]))
    lead += draw(flag("--seed", ["0", "7", "-3", "x"]))
    return lead + [command] + args, files


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_every_subcommand_exits_with_a_code_and_no_traceback(invocation):
    argv, texts = invocation
    with tempfile.TemporaryDirectory() as workdir:
        paths = [os.path.join(workdir, f"f{i}.json") for i in range(len(texts))]
        for path, text in zip(paths, texts):
            if isinstance(text, str):
                # a fan-check spec names the first file as a factor path
                text = text.replace('"{0}"', json.dumps(paths[0])).encode()
            with open(path, "wb") as fh:
                fh.write(text)

        def fill(arg):
            arg = arg.replace("{out}", os.path.join(workdir, "out.ndjson"))
            arg = arg.replace("{dir}", workdir)
            for i, path in enumerate(paths):
                arg = arg.replace("{%d}" % i, path)
            return arg

        out, err = io.StringIO(), io.StringIO()
        code = run([fill(a) for a in argv], out=out, err=err, stdin=io.StringIO(""))
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        assert "error: " in err.getvalue(), argv


@pytest.mark.parametrize("obj", [obj for _, obj in MALFORMED], ids=[name for name, _ in MALFORMED])
@pytest.mark.parametrize("command", ["validate", "solve", "product"])
def test_malformed_space_file_exits_1_with_the_reference_error(tmp_path, command, obj):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(TopologyError) as ref:
        ref_space_from_json(obj)
    out, err = io.StringIO(), io.StringIO()
    code = run([command, str(path)], out=out, err=err, stdin=io.StringIO(""))
    assert (code, out.getvalue(), err.getvalue()) == (1, "", f"error: {ref.value}\n")
