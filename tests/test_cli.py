import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import openpoint
from openpoint.cli import COMMANDS, build_parser, run
from openpoint.space import space_from_json, space_to_json

from .conftest import make_cli_class_factors, make_discrete, make_indiscrete, make_sierpinski


@pytest.fixture
def sierpinski_file(tmp_path):
    path = tmp_path / "sierpinski.json"
    path.write_text(json.dumps(space_to_json(make_sierpinski())))
    return str(path)


@pytest.fixture
def discrete2_file(tmp_path):
    path = tmp_path / "discrete2.json"
    path.write_text(json.dumps(space_to_json(make_discrete(2))))
    return str(path)


# sha256 of ``solve`` on the product of ``make_cli_class_factors()``
SIXTEEN_POINT_SOLVE_SHA256 = "d5a75ddfbd8ba60a010931e090ff0123138cd558f9bd88848e93365483ebff3f"

# sha256 of ``solve`` on the product file of D3 x D3 that CI builds: 512 states
D3_SQUARED_SOLVE_SHA256 = "745e89f8822a2acdd6d4a4d98e33ba3a2630e5315fc7b78c6f31d192c1c7e877"

# the factors S x C3 x D2 of the fan-check spec that CI runs
CI_FAN_SPEC = {"factors": [
    {"name": "S", "points": ["a", "b"], "opens": [[], ["b"], ["a", "b"]]},
    {"name": "C3", "points": ["p", "q", "r"],
     "opens": [[], ["p"], ["p", "q"], ["p", "q", "r"]]},
    {"name": "D2", "points": ["x", "y"], "opens": [[], ["x"], ["y"], ["x", "y"]]},
]}
# sha256 of ``fan-check`` stdout on ``CI_FAN_SPEC`` by (kappa, pool): 140 lines
# each, the verdict and one witness family per cell, in cell order
CI_FAN_CHECK_SHA256 = {
    (1, "boxes"): "3fd70e2f27eb5fefc1932e489f9de966e05684ef8e2d45fc66bf6bb4229711e9",
    (1, "all"): "3fd70e2f27eb5fefc1932e489f9de966e05684ef8e2d45fc66bf6bb4229711e9",
    (2, "boxes"): "72677415c2f2c3119c2e5ff4401c90ea0cffbdb1854b0e882537ec6c51109a31",
    (2, "all"): "aae97867b67b2c8068e745f3c7f49c644266dc19573b98ad02994e90d4461456",
}

# the 16-point metric file that CI builds for ``greedy``: points at (i * i) % 29 / 3
# on a line, 15 zero classes and many tied radii
M16_POSITIONS = [(i * i) % 29 for i in range(16)]
M16 = {"points": [f"p{i}" for i in range(16)],
       "dist": [[str(Fraction(abs(a - b), 3)) for b in M16_POSITIONS] for a in M16_POSITIONS]}
# sha256 of ``greedy`` stdout on ``M16`` by start point: 15 lines each
M16_GREEDY_SHA256 = {
    None: "ba9d77395cf841987675fdf3058c4460cd738603830833b6f6033525e41a3a15",
    "p5": "d209d387544e028de6ff854d0dc46c77a0d358ed55b80453a4a19a7ad6461a32",
}


def invoke(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err, stdin=io.StringIO(stdin_text))
    return code, out.getvalue(), err.getvalue()


def ndjson_lines(text):
    return [json.loads(line) for line in text.splitlines() if line]


class TestValidate:
    def test_prints_canonical_form(self, sierpinski_file):
        code, out, _ = invoke(["validate", sierpinski_file])
        assert code == 0
        obj = json.loads(out)
        assert obj["opens"] == [[], ["b"], ["a", "b"]]

    def test_missing_file_is_usage_error(self):
        code, out, err = invoke(["validate", "/nowhere/x.json"])
        assert code == 1 and not out and "error" in err

    def test_invalid_topology_fails(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "bad", "points": ["a", "b"],
                                   "opens": [["b"], ["a", "b"]]}))
        code, out, err = invoke(["validate", str(bad)])
        assert code == 1 and "error" in err

    def test_intersection_violation_fails(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "bad", "points": ["a", "b", "c"],
                                   "opens": [[], ["a", "b"], ["b", "c"], ["a", "b", "c"]]}))
        code, out, err = invoke(["validate", str(bad)])
        assert code == 1 and not out and "intersection of opens [0, 1] and [1, 2]" in err

    @pytest.mark.parametrize("field, patch", [
        ("points", {"points": "ab"}),
        ("opens", {"opens": [[], ["b"], "ab"]}),
        ("points", {"points": [0, 1], "opens": [[], [0, 1]]}),
        ("name", {"name": 7}),
        ("opens", {"opens": [[], [["b"]], ["a", "b"]]}),
        ("opens", {"opens": 5}),
    ], ids=["points-string", "open-string", "integer-labels", "integer-name",
            "nested-open", "opens-integer"])
    def test_malformed_schema_fails(self, tmp_path, field, patch):
        obj = {"name": "s", "points": ["a", "b"], "opens": [[], ["b"], ["a", "b"]]}
        obj.update(patch)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        code, out, err = invoke(["validate", str(bad)])
        assert code == 1 and not out and f'field "{field}"' in err

    @pytest.mark.parametrize("blob, message", [
        (b"\xff\xfe{}", "can't decode byte 0xff"),
        (b'{"name": ' + b"1" * 5000 + b"}", "integer string conversion"),
        (b"[" * 100_000, "maximum recursion depth"),
    ], ids=["not-utf8", "long-integer", "deep-nesting"])
    def test_unreadable_json_is_usage_error(self, tmp_path, blob, message):
        bad = tmp_path / "bad.json"
        bad.write_bytes(blob)
        code, out, err = invoke(["validate", str(bad)])
        assert code == 1 and not out
        assert err.startswith(f"error: {bad} is not valid JSON: ") and message in err

    def test_top_level_that_is_not_an_object_fails(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1]")
        code, out, err = invoke(["validate", str(bad)])
        assert code == 1 and not out and "a space must be a JSON object" in err


class TestInvariants:
    def test_sierpinski_record(self, sierpinski_file):
        code, out, _ = invoke(["invariants", sierpinski_file])
        assert code == 0
        rec = json.loads(out)
        assert rec == {"space": "sierpinski", "n": 2,
                       "d": 1, "delta": 1, "gd": 1, "pi": 1, "w": 2, "t": 1}


class TestSolve:
    def test_table_lines(self, sierpinski_file):
        code, out, _ = invoke(["solve", sierpinski_file])
        assert code == 0
        recs = ndjson_lines(out)
        empty = next(r for r in recs if r["closed_set"] == [])
        assert empty["value"] == 1 and empty["best_move"] == ["b"]

    @pytest.mark.parametrize("variant", ["restricted", "free", "multi-point"])
    def test_sixteen_point_product_table_is_pinned(self, tmp_path, variant):
        # the three variants print the same 64 states and moves on this product
        paths = []
        for space in make_cli_class_factors():
            path = tmp_path / f"{space.name}.json"
            path.write_text(json.dumps(space_to_json(space)))
            paths.append(str(path))
        prod = str(tmp_path / "prod.json")
        assert invoke(["product", *paths, "-o", prod])[0] == 0
        code, out, err = invoke(["solve", prod, "--variant", variant])
        assert code == 0, err
        assert len(out.splitlines()) == 64
        assert hashlib.sha256(out.encode()).hexdigest() == SIXTEEN_POINT_SOLVE_SHA256

    def test_d3_squared_table_is_pinned(self, tmp_path):
        # every state reachable from the empty one, though the floor cuts
        # most scans: the first call solves one line, not all 512 states
        points = ["p0", "p1", "p2"]
        d3 = {"name": "D3", "points": points,
              "opens": [[p for i, p in enumerate(points) if u >> i & 1] for u in range(8)]}
        path, prod = tmp_path / "d3.json", str(tmp_path / "p.json")
        path.write_text(json.dumps(d3))
        assert invoke(["product", str(path), str(path), "-o", prod])[0] == 0
        code, out, err = invoke(["solve", prod])
        assert code == 0, err
        assert len(out.splitlines()) == 512
        assert hashlib.sha256(out.encode()).hexdigest() == D3_SQUARED_SOLVE_SHA256


class TestPlay:
    def test_interactive_legal_point(self, sierpinski_file):
        code, out, err = invoke(
            ["play", sierpinski_file, "--pI", "optimal"], stdin_text="b\n"
        )
        assert code == 0
        final = ndjson_lines(out)[-1]
        assert final == {"length": 1, "gd": 1, "matched_gd": True}

    @pytest.mark.parametrize("variant", ["restricted", "free", "multi-point"])
    def test_optimal_against_optimal_on_a_product(self, sierpinski_file, discrete2_file,
                                                  variant):
        code, out, _ = invoke([
            "play", discrete2_file, sierpinski_file,
            "--pI", "optimal", "--pII", "optimal", "--variant", variant,
        ])
        assert code == 0
        assert ndjson_lines(out)[-1] == {"length": 2, "gd": 2, "matched_gd": True}

    def test_interactive_reprompts_outside_point(self, sierpinski_file):
        code, out, err = invoke(
            ["play", sierpinski_file], stdin_text="a\nb\n"
        )
        assert code == 0
        assert "outside the offered open" in err

    def test_random_picker_seeded(self, discrete2_file):
        code1, out1, _ = invoke(["--seed", "7", "play", discrete2_file, "--pII", "random"])
        code2, out2, _ = invoke(["--seed", "7", "play", discrete2_file, "--pII", "random"])
        assert code1 == code2 == 0 and out1 == out2
        assert ndjson_lines(out1)[-1]["length"] == 2

    def test_aggregate_with_ledger(self, tmp_path, sierpinski_file, discrete2_file):
        ledger_path = tmp_path / "ledger.ndjson"
        code, out, _ = invoke([
            "play", discrete2_file, sierpinski_file,
            "--pI", "aggregate", "--pII", "first",
            "--ledger", str(ledger_path),
        ])
        assert code == 0
        entries = ndjson_lines(ledger_path.read_text())
        assert entries and list(entries[0]) == ["stage", "alpha", "beta", "eta", "epsilon"]
        keys = [(e["alpha"], e["beta"], e["eta"], e["epsilon"]) for e in entries]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)

    @pytest.mark.parametrize("chooser, files, message", [
        ("product", 1, "--pI product needs at least two space files"),
        ("aggregate", 1, "--pI aggregate needs at least two space files"),
        ("product", 3, "--pI product wants exactly two space files"),
    ])
    def test_product_choosers_want_their_factor_count(self, sierpinski_file, chooser,
                                                      files, message):
        code, out, err = invoke(
            ["play", *[sierpinski_file] * files, "--pI", chooser, "--pII", "first"])
        assert code == 1 and not out
        assert err == f"error: {message}\n"

    def test_unwritable_ledger_fails_before_any_stage(self, tmp_path, sierpinski_file,
                                                      discrete2_file):
        ledger_path = tmp_path / "missing-dir" / "ledger.ndjson"
        code, out, err = invoke([
            "play", discrete2_file, sierpinski_file, "--pI", "aggregate",
            "--ledger", str(ledger_path),
        ])
        # the interactive picker would prompt on stderr before the first stage
        assert code == 1 and not out
        assert err.startswith(f"error: cannot write {ledger_path}: ")

    def test_dense_set_names_product_points(self, tmp_path, sierpinski_file):
        code, out, err = invoke([
            "play", sierpinski_file, sierpinski_file,
            "--pI", "pi-base", "--pII", "dense", "--dense-set", "(b,b)",
        ])
        assert code == 0, err
        steps = ndjson_lines(out)
        assert steps[0]["picked"] == ["(b,b)"]
        assert steps[-1] == {"length": 1, "gd": 1, "matched_gd": True}
        # nested labels: a product file used as a factor again
        square = tmp_path / "square.json"
        assert invoke(["product", sierpinski_file, sierpinski_file, "-o", str(square)])[0] == 0
        code, out, err = invoke([
            "play", str(square), sierpinski_file, "--pI", "pi-base", "--pII", "dense",
            "--dense-set", "((a,b),b),((b,b),b)",
        ])
        assert code == 0, err
        assert ndjson_lines(out)[0]["picked"] == ["((b,b),b)"]

    @pytest.mark.parametrize("chooser, picker", [
        ("product", "random"), ("aggregate", "stall"), ("pi-base", "first"),
    ])
    def test_discrete_4_times_5_plays_without_its_lattice(self, tmp_path, chooser, picker):
        # 2^20 opens, past the cap: only the solver or a lattice reader would fail
        paths = []
        for n in (4, 5):
            path = tmp_path / f"d{n}.json"
            path.write_text(json.dumps(space_to_json(make_discrete(n))))
            paths.append(str(path))
        code, out, err = invoke(["play", *paths, "--pI", chooser, "--pII", picker])
        assert code == 0, err
        assert ndjson_lines(out)[-1] == {"length": 20, "gd": 20, "matched_gd": True}

    @pytest.mark.parametrize("chooser, picker", [
        ("pi-base", "random"), ("product", "stall"), ("aggregate", "first"),
        ("pi-base", "dense"), ("product", "interactive"),
    ])
    def test_non_optimal_players_never_call_the_solver(self, monkeypatch, sierpinski_file,
                                                       discrete2_file, chooser, picker):
        from openpoint.game import StrategyTable

        def boom(self, closed):
            raise AssertionError("the game solver ran")

        monkeypatch.setattr(StrategyTable, "__call__", boom)
        code, out, err = invoke(["play", discrete2_file, sierpinski_file,
                                 "--pI", chooser, "--pII", picker],
                                stdin_text="(p0,b)\n(p1,b)\n")
        assert code == 0, err
        assert ndjson_lines(out)[-1] == {"length": 2, "gd": 2, "matched_gd": True}

    def test_discrete_4_squared_optimal_multi_point_play(self, tmp_path):
        path = tmp_path / "d4.json"
        path.write_text(json.dumps(space_to_json(make_discrete(4))))
        code, out, err = invoke(["play", str(path), str(path), "--pI", "optimal",
                                 "--pII", "optimal", "--variant", "multi-point"])
        assert code == 0, err
        assert ndjson_lines(out)[-1] == {"length": 16, "gd": 16, "matched_gd": True}

    @staticmethod
    def _d3_d7_files(tmp_path):
        paths = []
        for n in (3, 7):
            path = tmp_path / f"d{n}.json"
            path.write_text(json.dumps(space_to_json(make_discrete(n))))
            paths.append(str(path))
        return paths

    def test_optimal_play_on_d3_times_d7(self, tmp_path):
        # 21 minimal opens: 2^21 states in the complete table, 22 in the lazy one
        code, out, err = invoke(["play", *self._d3_d7_files(tmp_path),
                                 "--pI", "optimal", "--pII", "optimal"])
        assert code == 0, err
        assert ndjson_lines(out)[-1] == {"length": 21, "gd": 21, "matched_gd": True}

    def test_optimal_play_past_the_state_cap_is_refused(self, monkeypatch, tmp_path):
        import openpoint.game as game

        # the chooser's first offer solves the 22 states of the line
        monkeypatch.setattr(game, "STATES_CAP", 21)
        code, out, err = invoke(["play", *self._d3_d7_files(tmp_path),
                                 "--pI", "optimal", "--pII", "first"])
        assert code == 1 and not out
        assert "cap of 21 states" in err and "Traceback" not in err

    def test_ledger_without_aggregate_rejected(self, sierpinski_file):
        code, _, err = invoke(["play", sierpinski_file, "--ledger", "x.ndjson"])
        assert code == 1 and "ledger" in err

    def test_dense_set_without_dense_picker_rejected(self, sierpinski_file):
        code, out, err = invoke(["play", sierpinski_file, "--pII", "first", "--dense-set", "zz"])
        assert code == 1 and not out and "--dense-set" in err


class TestEnumerate:
    def test_three_point_count(self):
        code, out, _ = invoke(["enumerate", "--n", "3", "--method", "both"])
        assert code == 0
        assert len(ndjson_lines(out)) == 29

    def test_unlabeled(self):
        code, out, _ = invoke(["enumerate", "--n", "3", "--mode", "unlabeled"])
        assert len(ndjson_lines(out)) == 9

    def test_unlabeled_family_past_its_cap_is_refused(self):
        code, out, err = invoke(["enumerate", "--n", "5", "--mode", "unlabeled",
                                 "--method", "family"])
        assert code == 1 and not out
        assert "family-closure generation is capped at n = 4" in err

    def test_unlabeled_both_cross_checks_the_generators(self, monkeypatch):
        from openpoint import enumeration

        real, calls = enumeration._family_closure_masks, []

        def spy(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(enumeration, "_family_closure_masks", spy)
        code, out, err = invoke(["enumerate", "--n", "3", "--mode", "unlabeled",
                                 "--method", "both"])
        assert code == 0, err
        assert len(ndjson_lines(out)) == 9 and calls == [3]

    def test_every_line_loads_back(self):
        _, out, _ = invoke(["enumerate", "--n", "2"])
        for rec in ndjson_lines(out):
            space_from_json(rec)

    def test_out_of_range(self):
        code, _, err = invoke(["enumerate", "--n", "9"])
        assert code == 1 and "error" in err


class TestSuite:
    def test_chain_on_three_points(self):
        code, out, err = invoke(["suite", "--n", "3", "--checks", "chain"])
        assert code == 0
        recs = ndjson_lines(out)
        assert len(recs) == 29 and all(r["status"] == "pass" for r in recs)
        assert "29/29" in err

    def test_report_file(self, tmp_path):
        report = tmp_path / "report.ndjson"
        code, out, _ = invoke(["suite", "--n", "2", "--checks", "variants",
                               "--report", str(report)])
        assert code == 0 and not out
        assert len(ndjson_lines(report.read_text())) == 4

    def test_unknown_checks_are_a_usage_error(self):
        code, out, err = invoke(["suite", "--n", "2", "--checks", "chain,nope"])
        assert code == 1 and not out and "unknown checks: ['nope']" in err

    def test_failed_suite_leaves_no_report(self, tmp_path):
        report = tmp_path / "r.ndjson"
        code, _, err = invoke(["suite", "--n", "2", "--checks", "nope",
                               "--report", str(report)])
        assert code == 1 and "unknown checks" in err and not report.exists()

    def test_unwritable_report_fails_before_the_suite_runs(self, tmp_path, monkeypatch):
        from openpoint import enumeration

        def boom(*args, **kwargs):
            raise AssertionError("the suite ran before the report path was tried")

        monkeypatch.setattr(enumeration, "verify_suite", boom)
        report = tmp_path / "missing-dir" / "r.ndjson"
        code, out, err = invoke(["suite", "--n", "3", "--report", str(report)])
        assert code == 1 and not out and "cannot write" in err

    @pytest.mark.parametrize("argv", [["--n", "5", "--checks", "chain,nope"], ["--n", "-1"],
                                      ["--n", "0"], ["--n", "6"]],
                             ids=["unknown-check", "n=-1", "n=0", "n=6"])
    def test_bad_input_is_refused_before_any_space_is_built(self, monkeypatch, argv):
        from openpoint.space import FiniteSpace

        def boom(*args, **kwargs):
            raise AssertionError("a space was built before the input was checked")

        monkeypatch.setattr(FiniteSpace, "__init__", boom)
        code, out, err = invoke(["suite", *argv])
        assert code == 1 and not out and "error: " in err

    @pytest.mark.parametrize("to_file", [True, False], ids=["report", "stdout"])
    def test_records_before_a_crash_stay_on_stdout_only(self, tmp_path, monkeypatch, to_file):
        from openpoint import enumeration

        def broken(space):
            if space.name == "T2.1":
                raise ValueError("a bug, not bad input")

        monkeypatch.setitem(enumeration.SPACE_CHECKS, "chain", broken)
        report = tmp_path / "r.ndjson"
        out, err = io.StringIO(), io.StringIO()
        with pytest.raises(ValueError, match="a bug"):
            run(["suite", "--n", "2", "--checks", "chain"]
                + (["--report", str(report)] if to_file else []), out=out, err=err)
        assert not report.exists()
        written = [r["subject"] for r in ndjson_lines(out.getvalue())]
        assert written == ([] if to_file else ["T2.0"])

    def test_error_inside_a_check_propagates(self, monkeypatch):
        from openpoint import enumeration

        def broken(space):
            raise ValueError("a bug, not bad input")

        monkeypatch.setitem(enumeration.SPACE_CHECKS, "chain", broken)
        with pytest.raises(ValueError, match="a bug"):
            invoke(["suite", "--n", "2", "--checks", "chain"])


class TestProduct:
    def test_product_file_roundtrip(self, tmp_path, sierpinski_file, discrete2_file):
        out_path = tmp_path / "prod.json"
        code, _, _ = invoke(["product", discrete2_file, sierpinski_file,
                             "-o", str(out_path)])
        assert code == 0
        prod = space_from_json(json.loads(out_path.read_text()))
        assert prod.n == 4 and len(prod.opens) == 9

    def test_product_file_is_the_space_object_on_one_line(self, tmp_path, sierpinski_file,
                                                          discrete2_file):
        out_path = tmp_path / "prod.json"
        invoke(["product", discrete2_file, sierpinski_file, "-o", str(out_path)])
        _, text, _ = invoke(["product", discrete2_file, sierpinski_file])
        assert out_path.read_text() == json.dumps(json.loads(text)) + "\n"


    @pytest.mark.parametrize("to_file", [True, False], ids=["file", "stdout"])
    def test_product_over_the_space_file_cap_is_refused(self, tmp_path, monkeypatch,
                                                        to_file):
        from openpoint import products

        paths = []
        for n in (3, 3, 2):
            path = tmp_path / f"i{n}.json"
            path.write_text(json.dumps(space_to_json(make_indiscrete(n))))
            paths.append(str(path))

        def boom(*args, **kwargs):
            raise AssertionError("no product may be built")

        monkeypatch.setattr(products, "product", boom)
        out_path = tmp_path / "prod.json"
        argv = ["product", *paths] + (["-o", str(out_path)] if to_file else [])
        code, out, err = invoke(argv)
        assert code == 1 and not out and not out_path.exists()
        assert "18 points" in err and "16" in err


class TestFanCheck:
    def test_holds_exit_zero(self, tmp_path):
        spec = tmp_path / "fan.json"
        s = space_to_json(make_sierpinski())
        spec.write_text(json.dumps({"factors": [s, s]}))
        code, out, _ = invoke(["fan-check", str(spec), "--kappa", "2"])
        assert code == 0
        head = ndjson_lines(out)[0]
        assert head["status"] == "holds" and head["unknown_cells"] == 0

    def test_factor_paths_accepted(self, tmp_path, sierpinski_file):
        spec = tmp_path / "fan.json"
        spec.write_text(json.dumps({"factors": [sierpinski_file]}))
        code, out, _ = invoke(["fan-check", str(spec), "--kappa", "1"])
        assert code == 0

    def test_spec_that_is_a_list_is_usage_error(self, tmp_path, sierpinski_file):
        spec = tmp_path / "fan.json"
        spec.write_text(json.dumps([sierpinski_file]))
        code, out, err = invoke(["fan-check", str(spec), "--kappa", "1"])
        assert code == 1 and not out and '"factors"' in err

    def test_malformed_factor_object_fails(self, tmp_path):
        spec = tmp_path / "fan.json"
        spec.write_text(json.dumps({"factors": [{"name": "s", "points": "ab", "opens": []}]}))
        code, out, err = invoke(["fan-check", str(spec), "--kappa", "1"])
        assert code == 1 and not out and 'field "points"' in err

    def test_factor_that_is_not_an_object_fails(self, tmp_path):
        spec = tmp_path / "fan.json"
        spec.write_text(json.dumps({"factors": [5]}))
        code, out, err = invoke(["fan-check", str(spec), "--kappa", "1"])
        assert code == 1 and not out and "a space must be a JSON object" in err

    def test_too_many_factors_is_an_error(self, tmp_path):
        spec = tmp_path / "fan.json"
        point = space_to_json(make_discrete(1))
        spec.write_text(json.dumps({"factors": [point] * 13}))
        code, out, err = invoke(["fan-check", str(spec), "--kappa", "1"])
        assert code == 1 and not out and "13 factors" in err

    def test_kappa_zero_is_usage_error(self, tmp_path, sierpinski_file):
        spec = tmp_path / "fan.json"
        spec.write_text(json.dumps({"factors": [sierpinski_file]}))
        code, out, err = invoke(["fan-check", str(spec), "--kappa", "0"])
        assert code == 1 and not out and "--kappa" in err

    def test_witness_lines_name_subproduct_points(self, tmp_path):
        spec = tmp_path / "fan.json"
        s = space_to_json(make_sierpinski())
        d = space_to_json(make_discrete(2))
        spec.write_text(json.dumps({"factors": [s, d]}))
        code, out, _ = invoke(["fan-check", str(spec), "--kappa", "2"])
        assert code == 0
        cells = ndjson_lines(out)[1:]
        assert [c["gamma"] for c in cells] == sorted(c["gamma"] for c in cells)
        assert {tuple(c["gamma"]) for c in cells} == {(0,), (1,), (0, 1)}
        points = {(0,): {"(a)", "(b)"}, (1,): {"(p0)", "(p1)"},
                  (0, 1): {"(a,p0)", "(a,p1)", "(b,p0)", "(b,p1)"}}
        for c in cells:
            assert set(c["open"]) <= points[tuple(c["gamma"])]

    @pytest.mark.parametrize("kappa, pool", sorted(CI_FAN_CHECK_SHA256))
    def test_ci_spec_output_is_pinned(self, tmp_path, kappa, pool):
        # guards every witness family and the order of the cells
        spec = tmp_path / "fan.json"
        spec.write_text(json.dumps(CI_FAN_SPEC))
        code, out, err = invoke(["fan-check", str(spec), "--kappa", str(kappa), "--pool", pool])
        assert code == 0, err
        assert len(out.splitlines()) == 140
        assert hashlib.sha256(out.encode()).hexdigest() == CI_FAN_CHECK_SHA256[(kappa, pool)]


class TestGreedy:
    def test_worked_example(self, tmp_path):
        path = tmp_path / "line.json"
        path.write_text(json.dumps({
            "points": ["a", "b", "c"],
            "dist": [["0", "2/5", "1"], ["2/5", "0", "3/5"], ["1", "3/5", "0"]],
        }))
        code, out, _ = invoke(["greedy", str(path), "--start", "a"])
        assert code == 0
        recs = ndjson_lines(out)
        assert [r["point"] for r in recs] == ["a", "c", "b"]
        assert [r["radius"] for r in recs] == [None, "1", "2/5"]

    @pytest.mark.parametrize("start", sorted(M16_GREEDY_SHA256, key=str))
    def test_ci_metric_output_is_pinned(self, tmp_path, start):
        path = tmp_path / "m16.json"
        path.write_text(json.dumps(M16))
        code, out, err = invoke(["greedy", str(path)] + (["--start", start] if start else []))
        assert code == 0, err
        assert len(out.splitlines()) == 15
        assert hashlib.sha256(out.encode()).hexdigest() == M16_GREEDY_SHA256[start]

    def test_unknown_start(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"points": ["a"], "dist": [["0"]]}))
        code, _, err = invoke(["greedy", str(path), "--start", "z"])
        assert code == 1

    def test_metric_past_the_point_cap_fails(self, tmp_path):
        path = tmp_path / "m.json"
        labels = [f"q{i}" for i in range(17)]
        path.write_text(json.dumps({"points": labels,
                                    "dist": [[abs(i - j) for j in range(17)] for i in range(17)]}))
        code, out, err = invoke(["greedy", str(path)])
        assert code == 1 and not out and "17 points exceeds the 16-point cap" in err

    @pytest.mark.parametrize("message, obj", [
        ('field "dist"', {"points": ["a", "b"], "dist": 5}),
        ('field "dist"', {"points": ["a", "b"], "dist": [5]}),
        ("JSON object", ["a", "b"]),
        ('field "points"', {"points": "ab", "dist": [["0", "1"], ["1", "0"]]}),
        ('field "points"', {"points": [], "dist": []}),
        ('field "dist"', {"points": ["a", "b"], "dist": [[0, float("nan")], [float("nan"), 0]]}),
        ('field "dist"', {"points": ["a", "b"], "dist": [[0, float("inf")], [float("inf"), 0]]}),
        ('field "dist"', {"points": ["a", "b"], "dist": [["0", "1/0"], ["1/0", "0"]]}),
        ("over-long exponent", {"points": ["a", "b"], "dist": [["0", "1e5000"], ["1e5000", "0"]]}),
        ("error: point labels ('a', 'a') contain a duplicate",
         {"points": ["a", "a"], "dist": [["0", "1"], ["1", "0"]]}),
    ], ids=["dist-integer", "dist-row-integer", "list-top-level", "points-string",
            "points-empty", "dist-nan", "dist-infinity", "dist-zero-denominator",
            "dist-huge-exponent", "points-duplicate"])
    def test_malformed_metric_fails(self, tmp_path, message, obj):
        # an exception escaping run() would fail the test before the assert
        path = tmp_path / "m.json"
        path.write_text(json.dumps(obj))  # NaN and Infinity as the JSON literals
        code, out, err = invoke(["greedy", str(path)])
        assert code == 1 and not out and message in err


@pytest.mark.parametrize("argv", [
    ["product", "{s}", "{s}", "-o", "{out}"],
    ["enumerate", "--n", "2", "--out", "{out}"],
    ["suite", "--n", "1", "--checks", "chain", "--report", "{out}"],
    ["play", "{s}", "{s}", "--pI", "aggregate", "--pII", "first", "--ledger", "{out}"],
], ids=["product", "enumerate", "suite", "play-ledger"])
def test_unwritable_output_path_is_usage_error(tmp_path, sierpinski_file, argv):
    # an exception escaping run() would fail the test before the assert
    out_path = str(tmp_path / "missing-dir" / "out.json")
    argv = [a.format(s=sierpinski_file, out=out_path) for a in argv]
    code, _, err = invoke(argv)
    assert code == 1
    assert err.splitlines()[-1].startswith(f"error: cannot write {out_path}: ")
    assert not os.path.exists(out_path)


class TestPrettyFormat:
    def test_validate_pretty_is_indented_json(self, sierpinski_file):
        code, out, _ = invoke(["--format", "pretty", "validate", sierpinski_file])
        assert code == 0 and out.startswith("{\n")
        assert json.loads(out)["name"] == "sierpinski"


class TestHelp:
    @pytest.mark.parametrize("argv", [["-h"], ["--help"], *([name, "-h"] for name in COMMANDS)],
                             ids=lambda argv: " ".join(argv))
    def test_help_goes_to_out_and_returns_zero(self, capsys, argv):
        code, out, err = invoke(argv)
        assert code == 0 and not err
        assert out.startswith(f"usage: {' '.join(['openpoint', *argv[:-1]])} [-h]")
        assert capsys.readouterr() == ("", "")


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_reused_parser_prints_what_a_fresh_one_does(self, tmp_path, sierpinski_file):
        indiscrete = tmp_path / "indiscrete3.json"
        indiscrete.write_text(json.dumps(space_to_json(make_indiscrete(3))))
        play = ["play", str(indiscrete), "--pI", "pi-base", "--pII", "random"]
        sequence = [
            ["play", sierpinski_file, "--ledger", str(tmp_path / "ledger.ndjson")],
            ["--seed", "5", *play],
            play,
            ["--format", "pretty", "validate", sierpinski_file],
            ["validate", sierpinski_file],
        ]
        fresh = []
        for argv in sequence:
            build_parser.cache_clear()
            fresh.append(invoke(argv))
        build_parser.cache_clear()
        reused = [invoke(argv) for argv in sequence]
        assert build_parser.cache_info().misses == 1
        assert reused == fresh
        # a seed or a format left behind by the previous call would show
        assert fresh[0][0] == 1 and fresh[1][1] != fresh[2][1] and fresh[3][1] != fresh[4][1]


class TestDeterminism:
    def test_suite_byte_identical(self):
        _, out1, _ = invoke(["--seed", "3", "suite", "--n", "2",
                             "--checks", "chain,variants,metric"])
        _, out2, _ = invoke(["--seed", "3", "suite", "--n", "2",
                             "--checks", "chain,variants,metric"])
        assert out1 == out2


@pytest.mark.parametrize("module", ["openpoint", "openpoint.cli"])
class TestModuleEntryPoints:
    def _run(self, module, *argv):
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(openpoint.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", module, *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    def test_runs_a_command(self, module, sierpinski_file):
        proc = self._run(module, "validate", sierpinski_file)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["name"] == "sierpinski"

    def test_help_exits_zero(self, module):
        proc = self._run(module, "-h")
        assert proc.returncode == 0 and proc.stdout.startswith("usage: openpoint")

    def test_bad_input_exits_one(self, module):
        proc = self._run(module, "validate", "/nowhere/x.json")
        assert proc.returncode == 1 and "error" in proc.stderr
