"""Command line surface: output formats, golden tables, exit codes."""

import io
import json
import os
import re
import runpy
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import validate as check_schema

import neutrocalc
from neutrocalc.cli import _COMMANDS, _arguments, _command_parser, build_parser, main

DATA = Path(__file__).parent / "data"

_COMPONENT_SCHEMA = {
    "oneOf": [
        {
            "type": "object",
            "properties": {
                "shape": {"const": "single"},
                "kind": {"const": "std"},
                "value": {"type": "number"},
            },
            "required": ["shape", "kind", "value"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "shape": {"const": "interval"},
                "lo": {"type": "number"},
                "hi": {"type": "number"},
            },
            "required": ["shape", "lo", "hi"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "shape": {"const": "hesitant"},
                "values": {"type": "array", "items": {"type": "number"}, "minItems": 1},
            },
            "required": ["shape", "values"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "shape": {"const": "nonstandard"},
                "members": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "oneOf": [
                            {
                                "type": "object",
                                "properties": {
                                    "kind": {
                                        "enum": ["std", "left", "right", "bimonad"]
                                    },
                                    "value": {"type": "number"},
                                },
                                "required": ["kind", "value"],
                                "additionalProperties": False,
                            },
                            {
                                "type": "object",
                                "required": ["kind_lo", "lo", "kind_hi", "hi"],
                            },
                        ]
                    },
                },
            },
            "required": ["shape", "members"],
            "additionalProperties": False,
        },
    ]
}

EVAL_SCHEMA = {
    "type": "object",
    "properties": {
        "result": {
            "type": "object",
            "properties": {
                "t": _COMPONENT_SCHEMA,
                "i": _COMPONENT_SCHEMA,
                "f": _COMPONENT_SCHEMA,
            },
            "required": ["t", "i", "f"],
            "additionalProperties": False,
        },
        "config": {
            "type": "object",
            "properties": {
                "family": {"enum": ["ti", "if", "plith"]},
                "tnorm": {"enum": ["minmax", "product", "luk"]},
                "scale": {"enum": ["unit", "percent"]},
                "psi": {"type": "number"},
                "omega": {"type": "number"},
            },
            "required": ["family", "tnorm", "scale", "psi", "omega"],
            "additionalProperties": False,
        },
        "warnings": {"type": "array", "items": {"type": "string"}},
    },
    "required": ["result", "config", "warnings"],
    "additionalProperties": False,
}

COMPARE_SCHEMA = {
    "type": "object",
    "properties": {
        "x": {"type": "object"},
        "y": {"type": "object"},
        "relation": {"enum": ["<N", "≤N", "=N", "≥N", ">N", "incomparable"]},
    },
    "required": ["x", "y", "relation"],
    "additionalProperties": False,
}


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


def run_module(argv, env=None):
    # The child imports the same checkout as this test, also when pytest
    # put it on sys.path through its pythonpath setting.
    src = str(Path(neutrocalc.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "neutrocalc", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path, **(env or {})},
    )


class TestEval:
    def test_plain_output(self, capsys):
        code, out, _ = run(capsys, ["eval", "<0.8,0.4,0.3> & <0.6,0.2,0.5>"])
        assert code == 0
        assert out == "<0.6, 0.4, 0.5>\n"

    def test_json_single(self, capsys):
        payload = run_json(
            capsys, ["eval", "<0.8,0.4,0.3> & <0.6,0.2,0.5>", "--json"]
        )
        check_schema(payload, EVAL_SCHEMA)
        assert payload["result"]["t"] == {
            "shape": "single",
            "kind": "std",
            "value": 0.6,
        }
        assert payload["config"]["family"] == "if"
        assert payload["warnings"] == []

    @pytest.mark.parametrize(
        "expr",
        [
            "<R(1),0,0> & <0,0,R(1)>",
            "<[0.1,0.4],[0,0],[0.2,0.3]> | <[0.3,0.5],[0,0],[0.1,0.2]>",
            "<{0.2,0.6},{0},{0.1}> & <{0.5},{0},{0.3}>",
            "!<1,0,0> -> <0.5,0.5,0.5>",
        ],
    )
    def test_json_schema_across_shapes(self, capsys, expr):
        check_schema(run_json(capsys, ["eval", expr, "--json"]), EVAL_SCHEMA)

    def test_json_nonstandard_union(self, capsys, monkeypatch):
        # No literal spells a union, so the result is put in evaluate's place.
        union = neutrocalc.Nonstandard(
            [neutrocalc.left(0.2), neutrocalc.NsInterval(neutrocalc.std(0.3), neutrocalc.right(2))]
        )
        zero = neutrocalc.Nonstandard(neutrocalc.std(0))
        result = neutrocalc.NeutroTriple(union, zero, zero)
        monkeypatch.setattr(neutrocalc.cli, "evaluate", lambda req: result)
        payload = run_json(capsys, ["eval", "<0,0,0>", "--json"])
        check_schema(payload, EVAL_SCHEMA)
        assert payload["result"]["t"] == {
            "shape": "nonstandard",
            "members": [
                {"kind": "left", "value": 0.2},
                {"kind_lo": "std", "lo": 0.3, "kind_hi": "right", "hi": 2.0},
            ],
        }
        assert list(payload["result"]["t"]["members"][1]) == ["kind_lo", "lo", "kind_hi", "hi"]
        assert payload["result"]["i"] == {
            "shape": "nonstandard",
            "members": [{"kind": "std", "value": 0.0}],
        }

    def test_family_and_tnorm_flags(self, capsys):
        code, out, _ = run(
            capsys,
            ["eval", "<0.5,0.5,0.5> & <0.5,0.5,0.5>", "--family", "ti", "--tnorm", "product"],
        )
        assert code == 0
        assert out == "<0.25, 0.25, 0.75>\n"

    def test_bindings(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "eval",
                "x | y",
                "--bind",
                "x=<0.2,0.5,0.9>",
                "--bind",
                "y=<0.4,0.1,0.6>",
            ],
        )
        assert code == 0
        assert out == "<0.4, 0.1, 0.6>\n"

    def test_percent_scale(self, capsys):
        code, out, _ = run(
            capsys, ["eval", "<80,40,30> & <60,20,50>", "--scale", "percent"]
        )
        assert code == 0
        assert out == "<0.6, 0.4, 0.5>\n"

    def test_clamp_warning_plain_goes_to_stderr(self, capsys):
        code, out, err = run(
            capsys,
            ["eval", "<1.2,0,0> | <0,0,1>", "--psi", "-0.5", "--omega", "1.5"],
        )
        assert code == 0
        assert out == "<1, 0, 0>\n"
        assert err.startswith("warning: degree 1.2 clamped")

    def test_clamp_warning_json(self, capsys):
        payload = run_json(
            capsys,
            [
                "eval",
                "<1.2,0,0> | <0,0,1>",
                "--psi",
                "-0.5",
                "--omega",
                "1.5",
                "--json",
            ],
        )
        check_schema(payload, EVAL_SCHEMA)
        assert payload["config"]["psi"] == -0.5
        assert len(payload["warnings"]) == 1

    def test_clamp_warnings_on_hesitant_operands(self, capsys):
        # One warning per clamped operand of each of the four T pairs.
        code, out, err = run(
            capsys, ["eval", "<{1.5,2},{0},{0}> & <{0.5,0.7},{0},{0}>", "--omega", "2"]
        )
        assert code == 0
        assert out == "<{0.5, 0.7}, {0}, {0}>\n"
        assert err.splitlines() == [
            f"warning: degree {v} clamped into [0, 1] for kernel application"
            for v in ("1.5", "1.5", "2.0", "2.0")
        ]


    @pytest.mark.parametrize(
        "degree, t",
        [("1.00000000000000000001", "0.5"), ("-0." + "0" * 399 + "1", "0"), ("1.2", "0.5")],
        ids=["float-rounds-to-1", "float-rounds-to-minus-0", "float-outside"],
    )
    def test_clamp_warning_names_the_degree(self, capsys, degree, t):
        argv = ["eval", f"<{degree},0,0> & <0.5,0.2,0.1>", "--psi", "-1", "--omega", "2"]
        warning = f"degree {degree} clamped into [0, 1] for kernel application"
        assert run(capsys, argv) == (0, f"<{t}, 0.2, 0.1>\n", f"warning: {warning}\n")
        code, out, err = run(capsys, [*argv, "--json"])
        assert (code, err) == (0, "")
        assert json.loads(out)["warnings"] == [warning]


class TestCompare:
    @pytest.mark.parametrize(
        "x, y, rel",
        [
            ("0.7", "0.2", ">N"),
            ("L(0.5)", "0.5", "<N"),
            ("L(0.5)", "B(0.5)", "≤N"),
            ("0.5", "B(0.5)", "incomparable"),
            ("R(0.3)", "R(0.3)", "=N"),
        ],
    )
    def test_plain(self, capsys, x, y, rel):
        code, out, _ = run(capsys, ["compare", x, y])
        assert code == 0
        assert out == rel + "\n"

    def test_json(self, capsys):
        payload = run_json(capsys, ["compare", "L(0.5)", "B(0.5)", "--json"])
        check_schema(payload, COMPARE_SCHEMA)
        assert payload["relation"] == "≤N"
        assert payload["x"] == {"kind": "left", "value": 0.5}

    @pytest.mark.parametrize(
        "x, y, symbol",
        [("L(0.5)", "R(0.5)", "≈"), ("0.2", "0.7", "≲"), ("0.7", "0.2", "≳")],
    )
    def test_rough(self, capsys, x, y, symbol):
        code, out, _ = run(capsys, ["rough-compare", x, y])
        assert code == 0
        assert out == symbol + "\n"


class TestInterval:
    def test_inf(self, capsys):
        code, out, _ = run(
            capsys, ["interval", "inf", "--lo", "left:0.2", "--hi", "right:0.8"]
        )
        assert code == 0
        assert out == "L(0.2)\n"

    def test_sup_json(self, capsys):
        payload = run_json(
            capsys, ["interval", "sup", "--lo", "l:0.2", "--hi", "r:0.8", "--json"]
        )
        assert payload == {"which": "sup", "result": {"kind": "right", "value": 0.8}}

    def test_invalid_interval_exits_1(self, capsys):
        code, _, err = run(
            capsys, ["interval", "inf", "--lo", "std:0.5", "--hi", "bimonad:0.5"]
        )
        assert code == 1
        assert err.startswith("error:")


class TestClassifyValidate:
    def test_classify(self, capsys):
        code, out, _ = run(capsys, ["classify", "1", "0", "1"])
        assert code == 0
        assert out == "dialetheism\nmulti-valued\n"

    def test_classify_json(self, capsys):
        payload = run_json(capsys, ["classify", "0.7", "0", "0.3", "--json"])
        assert payload == {"labels": ["fuzzy", "multi-valued"]}

    def test_classify_percent(self, capsys):
        code, out, _ = run(capsys, ["classify", "100", "0", "0", "--scale", "percent"])
        assert code == 0
        assert out == "boolean\nfuzzy\nmulti-valued\n"

    def test_validate_pass(self, capsys):
        code, out, _ = run(capsys, ["validate", "0.5", "0.5", "0.5"])
        assert code == 0
        assert out == "pass\n"

    def test_validate_failure_exits_1(self, capsys):
        code, out, _ = run(capsys, ["validate", "1.2", "0", "0"])
        assert code == 1
        assert out.startswith("t: value 1.2 above upper bound 1")

    def test_validate_widened_bounds(self, capsys):
        code, out, _ = run(
            capsys, ["validate", "1.2", "0", "0", "--psi", "-0.5", "--omega", "1.5"]
        )
        assert code == 0
        assert out == "pass\n"

    def test_validate_reads_negative_e_notation(self, capsys):
        # Each subcommand parser reads -1e-3 as a number, as it does after `--`.
        failing = (1, "t: value -0.001 below lower bound 0\nsum: lower sum -0.001 below 0\n", "")
        assert run(capsys, ["validate", "--", "-1e-3", "0", "0"]) == failing
        assert run(capsys, ["validate", "-1e-3", "0", "0"]) == failing
        parsed = build_parser().parse_args(["validate", "-1E+0", "-2.", "-.5e-1"])
        assert (parsed.t, parsed.i, parsed.f) == (-1, -2, Fraction(-1, 20))

    def test_validate_json(self, capsys):
        payload = json.loads(
            run(capsys, ["validate", "1.2", "0", "0", "--json"])[1]
        )
        assert payload["ok"] is False
        assert payload["violations"][0]["where"] == "t"


class TestTable:
    @pytest.mark.parametrize(
        "a, b, golden",
        [("0.7", "0.2", "table_07_02.txt"), ("0.5", "0.5", "table_05_05.txt")],
    )
    def test_matches_golden_file(self, capsys, a, b, golden):
        code, out, _ = run(capsys, ["table", "inequalities", "--a", a, "--b", b])
        assert code == 0
        assert out == (DATA / golden).read_text(encoding="utf-8")


class TestAnomaly:
    def test_plain(self, capsys):
        code, out, _ = run(
            capsys, ["anomaly", "--a", "0.2", "--b", "0.8", "--probes", "200"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "outer interval: ]0.2, R(0.8)["
        assert lines[1] == "inner interval: ]R(0.2), L(0.8)["
        assert "discrepancies: 0" in lines
        assert lines[-1].endswith("contain exactly the same probes")

    def test_json_deterministic_for_seed(self, capsys):
        argv = ["anomaly", "--a", "0.1", "--b", "0.9", "--seed", "42", "--json"]
        first = run_json(capsys, argv)
        second = run_json(capsys, argv)
        assert first == second
        assert first["discrepancies"] == 0
        assert first["memberships_coincide"] is True

    def test_requires_a_below_b(self, capsys):
        code, _, err = run(capsys, ["anomaly", "--a", "0.8", "--b", "0.2"])
        assert code == 1
        assert "requires a < b" in err


class TestExitCodes:
    def test_arity_error_exits_2(self, capsys):
        code, _, err = run(capsys, ["eval", "<0.5,0.5>"])
        assert code == 2
        assert "expected 3" in err

    def test_syntax_error_exits_2(self, capsys):
        code, _, err = run(capsys, ["eval", "a &"])
        assert code == 2
        assert err.startswith("error:")

    def test_bounds_violation_exits_1(self, capsys):
        code, _, err = run(capsys, ["eval", "<1.2,0,0> & <0,0,1>"])
        assert code == 1
        assert "outside active bounds" in err

    def test_unbound_identifier_exits_1(self, capsys):
        code, _, err = run(capsys, ["eval", "x & <1,0,0>"])
        assert code == 1
        assert "has no binding" in err

    @pytest.mark.parametrize("expr", ["x & y", "y & x"])
    @pytest.mark.parametrize(
        "bind", [[], ["--bind", "x=<2,0,0>", "--bind", "y=<3,0,0>"]], ids=["unbound", "bad"]
    )
    def test_first_identifier_named_under_every_hash_seed(self, expr, bind):
        for seed in range(6):
            proc = run_module(["eval", expr, *bind], env={"PYTHONHASHSEED": str(seed)})
            assert proc.returncode == 1
            assert f" {expr[0]!r} " in proc.stderr, (seed, proc.stderr)

    def test_deep_formula_exits_0(self):
        proc = run_module(["eval", "!" * 100_000 + "<1,0,0>"])
        assert (proc.returncode, proc.stdout) == (0, "<1, 0, 0>\n")
        assert "Traceback" not in proc.stderr

    def test_hesitant_product_past_the_limit_exits_1(self, capsys):
        # Eight literals of 5 distinct values per component: the product
        # conjunction would reach 5**8 values; the sixth "&" is refused.
        literals = [
            "<" + ",".join("{" + ",".join(f"0.{k}{c}{j}1" for j in range(1, 6)) + "}"
                           for c in range(3)) + ">"
            for k in range(1, 9)
        ]
        code, out, err = run(capsys, ["eval", " & ".join(literals), "--tnorm", "product"])
        assert (code, out) == (1, "")
        assert err == (
            "error: hesitant product of 15625 by 5 values exceeds the limit of 65536 pairs\n"
        )

    def test_unsupported_nonstandard_config_exits_1(self, capsys):
        code, _, err = run(
            capsys, ["eval", "<R(1),0,0> & <0,0,R(1)>", "--tnorm", "product"]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["nonsense"],
            ["interval", "inf", "--lo", "mid:0.5", "--hi", "r:0.8"],
            ["eval", "x", "--bind", "not an identifier=<1,0,0>"],
            ["eval", "x", "--bind", "x=<1,0>"],
            ["table", "inequalities", "--a", "0.5"],
            ["anomaly", "--a", "0", "--b", "1", "--probes", "-3"],
            ["anomaly", "--a", "0", "--b", "1", "--probes", "100001"],
            ["classify", "1e999999", "0", "0"],
            ["validate", "0", "0", "0", "--omega", "1E-99999"],
        ],
    )
    def test_usage_errors_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_limits_are_inclusive_and_documented(self, capsys):
        limit = sys.get_int_max_str_digits()
        assert run(capsys, ["classify", f"1e{limit}", "0", "0"]) == (0, "overtrue\n", "")
        assert run(capsys, ["validate", "0", "0", f"1e-{limit}"])[:2] == (0, "pass\n")
        with pytest.raises(SystemExit) as exc:
            main(["classify", f"1e{limit + 1}", "0", "0"])
        assert exc.value.code == 2
        args = build_parser().parse_args(["anomaly", "--a", "0", "--b", "1", "--probes", "100000"])
        assert args.probes == 100000
        with pytest.raises(SystemExit):
            main(["anomaly", "--help"])
        assert "0 to 100000" in capsys.readouterr().out

    def test_huge_exponent_is_a_usage_error(self):
        proc = run_module(["classify", "1e999999", "0", "0"])
        assert proc.returncode == 2
        assert "error: argument t: exponent of '1e999999' exceeds" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_an_option_reads_a_negative_number_in_e_notation(self, capsys):
        assert run(capsys, ["eval", "<0,0,0>", "--psi", "-1e-1"]) == (0, "<0, 0, 0>\n", "")
        payload = run_json(capsys, ["eval", "<0,0,0>", "--psi", "-1e-1", "--json"])
        assert payload["config"]["psi"] == -0.1

    def test_a_huge_negative_exponent_is_still_a_usage_error(self):
        proc = run_module(["eval", "<0,0,0>", "--psi", "-1e999999"])
        assert proc.returncode == 2
        assert "error: argument --psi: exponent of '-1e999999' exceeds" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("word", ["-e1", "-1e", "-1e-", "-.e1", "-.", "--1e1", "-1e1.5"])
    def test_other_dashed_words_stay_options(self, capsys, word):
        """Only a minus sign and a plain decimal, exponent included, is a
        value; any other word that starts with '-' is an option, as before."""
        with pytest.raises(SystemExit) as info:
            main(["validate", word, "0", "0"])
        assert info.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith("neutrocalc validate: error: ")

    def test_clamp_message_past_the_float_range(self):
        big = "1" + "0" * 310
        proc = run_module(["eval", f"<{big},0,0> | <0.5,0,0>", "--omega", "1e400"])
        assert (proc.returncode, proc.stdout) == (0, "<1, 0, 0>\n")
        assert proc.stderr == f"warning: degree {big} clamped into [0, 1] for kernel application\n"

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["eval", "<0,0,0>", "--omega", "1e400"], "<0, 0, 0>"),
            (["compare", "1" * 310, "0"], ">N"),
            (["interval", "inf", "--lo", f"s:{'1' * 310}", "--hi", "s:1e400"], "1" * 310),
        ],
    )
    def test_json_past_the_float_range_is_an_error(self, capsys, argv, text):
        error = "error: --json cannot show a value beyond the float range\n"
        assert run(capsys, [*argv, "--json"]) == (1, "", error)
        assert run(capsys, argv) == (0, text + "\n", "")  # text mode renders exactly

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "<0.1,0.2,0.3>", "--psi", "0.5"],
            ["validate", "0.1", "0.2", "0.3", "--omega", "0.5"],
        ],
    )
    def test_invalid_bounds_exit_1(self, argv):
        proc = run_module(argv)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: bounds must satisfy")
        assert "Traceback" not in proc.stderr


# argv -> (exit code, stdout, stderr) for every subcommand in text and
# --json, and for typed errors, which print only to stderr either way.
CLI_CASES = [
    (
        ["eval", "<0.8,0.4,0.3> & <0.6,0.2,0.5>"],
        0,
        "<0.6, 0.4, 0.5>\n",
        "",
    ),
    (
        ["eval", "<[0.1,0.4],[0,0],[0.2,0.3]> | !<[0.3,0.5],[0,0],[0.1,0.2]>", "--json"],
        0,
        (
            '{"result": {"t": {"shape": "interval", "lo": 0.1, "hi": 0.4}, '
            '"i": {"shape": "interval", "lo": 0.0, "hi": 0.0}, "f": {"shape": "interval", '
            '"lo": 0.2, "hi": 0.3}}, "config": {"family": "if", "tnorm": "minmax", '
            '"scale": "unit", "psi": 0.0, "omega": 1.0}, "warnings": []}\n'
        ),
        "",
    ),
    (
        ["eval", "<1.2,0,0> -> <0,0,1>", "--psi", "-0.5", "--omega", "1.5"],
        0,
        "<0, 0, 1>\n",
        "warning: degree 1.2 clamped into [0, 1] for kernel application\n",
    ),
    (
        ["eval", "<1.2,0,0> -> <0,0,1>", "--psi", "-0.5", "--omega", "1.5", "--json"],
        0,
        (
            '{"result": {"t": {"shape": "single", "kind": "std", "value": 0.0}, '
            '"i": {"shape": "single", "kind": "std", "value": 0.0}, "f": {"shape": "single", '
            '"kind": "std", "value": 1.0}}, "config": {"family": "if", "tnorm": "minmax", '
            '"scale": "unit", "psi": -0.5, "omega": 1.5}, '
            '"warnings": ["degree 1.2 clamped into [0, 1] for kernel application"]}\n'
        ),
        "",
    ),
    (
        ["eval", "<0.5,0.5,0.5> & <[0,1],[0,1],[0,1]>"],
        1,
        "",
        "error: operand shapes differ: single vs interval\n",
    ),
    (
        ["eval", "<0.5,[0,1],0.5>"],
        1,
        "",
        "error: triple components must share one shape\n",
    ),
    (
        ["eval", "<[0.5,0.2],[0,1],[0,1]>", "--json"],
        1,
        "",
        "error: [0.5, 0.2] is reversed\n",
    ),
    (
        ["eval", "<B(0.5),0,0> & <L(0.5),0,0>"],
        1,
        "",
        "error: bimonad operands cannot be ranked by min/max\n",
    ),
    (
        ["eval", "x", "--bind", "x=<2,0,0>", "--json"],
        1,
        "",
        "error: binding 'x' <2, 0, 0> outside active bounds: t: value 2 above upper bound 1\n",
    ),
    (
        ["eval", "<0.5,S(0),0>"],
        2,
        "",
        "error: expected a triple component, found identifier (at position 6)\n",
    ),
    (
        ["compare", "R(0.5)", "B(0.5)"],
        0,
        "≥N\n",
        "",
    ),
    (
        ["compare", "R(0.5)", "B(0.5)", "--json"],
        0,
        (
            '{"x": {"kind": "right", "value": 0.5}, "y": {"kind": "bimonad", "value": 0.5}, '
            '"relation": "≥N"}\n'
        ),
        "",
    ),
    (
        ["compare", "x", "0"],
        2,
        "",
        "error: expected a decorated number, found identifier (at position 1)\n",
    ),
    (
        ["compare", "L(0.5", "0", "--json"],
        2,
        "",
        "error: expected ')', found end of input (at position 6)\n",
    ),
    (
        ["rough-compare", "0.25", "R(0.25)"],
        0,
        "≈\n",
        "",
    ),
    (
        ["rough-compare", "0.25", "L(0.5)", "--json"],
        0,
        (
            '{"x": {"kind": "std", "value": 0.25}, "y": {"kind": "left", "value": 0.5}, '
            '"relation": "≲"}\n'
        ),
        "",
    ),
    (
        ["rough-compare", "(", "0"],
        2,
        "",
        "error: expected a decorated number, found '(' (at position 1)\n",
    ),
    (
        ["interval", "sup", "--lo", "Left:0.2", "--hi", "B:0.8"],
        0,
        "B(0.8)\n",
        "",
    ),
    (
        ["interval", "inf", "--lo", "s:0.2", "--hi", "right:0.8", "--json"],
        0,
        '{"which": "inf", "result": {"kind": "std", "value": 0.2}}\n',
        "",
    ),
    (
        ["interval", "sup", "--lo", "b:0.5", "--hi", "std:0.5", "--json"],
        1,
        "",
        "error: ]B(0.5), 0.5[ has endpoints out of order\n",
    ),
    (
        ["classify", "0.5", "0.5", "0.5"],
        0,
        (
            "multi-valued\n"
            "paraconsistent\n"
        ),
        "",
    ),
    (
        ["classify", "120", "0", "0", "--scale", "percent", "--json"],
        0,
        '{"labels": ["overtrue"]}\n',
        "",
    ),
    (
        ["validate", "1.2", "-0.3", "0.9"],
        1,
        (
            "t: value 1.2 above upper bound 1\n"
            "i: value -0.3 below lower bound 0\n"
        ),
        "",
    ),
    (
        ["validate", "1.2", "-0.3", "0.9", "--json"],
        1,
        (
            '{"ok": false, "violations": [{"where": "t", '
            '"message": "value 1.2 above upper bound 1"}, {"where": "i", '
            '"message": "value -0.3 below lower bound 0"}]}\n'
        ),
        "",
    ),
    (
        ["validate", "1/3", "1/3", "1/3", "--json"],
        0,
        '{"ok": true, "violations": []}\n',
        "",
    ),
    (
        ["table", "inequalities", "--a", "1/3", "--b", "0.5"],
        0,
        (
            "kind_a\tkind_b\trelation\n"
            "std\tstd\t<N\n"
            "std\tleft\t<N\n"
            "std\tright\t<N\n"
            "std\tbimonad\t<N\n"
            "left\tstd\t<N\n"
            "left\tleft\t<N\n"
            "left\tright\t<N\n"
            "left\tbimonad\t<N\n"
            "right\tstd\t<N\n"
            "right\tleft\t<N\n"
            "right\tright\t<N\n"
            "right\tbimonad\t<N\n"
            "bimonad\tstd\t<N\n"
            "bimonad\tleft\t<N\n"
            "bimonad\tright\t<N\n"
            "bimonad\tbimonad\t<N\n"
        ),
        "",
    ),
    (
        ["anomaly", "--a", "-0.5", "--b", "0.5", "--probes", "20", "--seed", "7"],
        0,
        (
            "outer interval: ]-0.5, R(0.5)[\n"
            "inner interval: ]R(-0.5), L(0.5)[\n"
            "probes: 20\n"
            "members of each: 9\n"
            "discrepancies: 0\n"
            "m"
            "e"
            "m"
            "b"
            "e"
            "r"
            "s"
            "h"
            "i"
            "p"
            " "
            "p"
            "r"
            "e"
            "d"
            "i"
            "c"
            "a"
            "t"
            "e"
            "s"
            " "
            "c"
            "o"
            "incide: the nominally wider and narrower intervals contain exactly the same probes\n"
        ),
        "",
    ),
    (
        ["anomaly", "--a", "-0.5", "--b", "0.5", "--probes", "20", "--seed", "7", "--json"],
        0,
        (
            '{"outer": "]-0.5, R(0.5)[", "inner": "]R(-0.5), L(0.5)[", "probes": 20, '
            '"members": 9, "discrepancies": 0, "memberships_coincide": true}\n'
        ),
        "",
    ),
    (
        ["anomaly", "--a", "0.5", "--b", "0.5", "--json"],
        1,
        "",
        "error: anomaly check requires a < b\n",
    ),
    # Any Unicode decimal digit reads as its value, as the formula grammar says.
    (["eval", "<٠.٥,0,0>"], 0, "<0.5, 0, 0>\n", ""),
    (["compare", "L(٠.٥)", "L(0.5)"], 0, "=N\n", ""),
]


@pytest.mark.parametrize(
    "argv, code, out, err", CLI_CASES, ids=[f"{i:02d}-{c[0][0]}" for i, c in enumerate(CLI_CASES)]
)
def test_cli_outputs(capsys, argv, code, out, err):
    assert run(capsys, argv) == (code, out, err)


def test_integers_past_the_str_digit_limit_render_exactly():
    # str() of an int with more than 4300 digits raises ValueError.
    env = {"PYTHONINTMAXSTRDIGITS": "4300"}
    proc = run_module(["validate", "1e4300", "0", "0"], env=env)
    assert proc.returncode == 1
    assert proc.stdout.splitlines() == [
        f"t: value 1{'0' * 4300} above upper bound 1",
        f"sum: upper sum 1{'0' * 4300} above 3",
    ]
    assert "Traceback" not in proc.stderr
    literal = "0." + "1" * 4399
    proc = run_module(["eval", f"<{literal},0,0>"], env=env)
    assert (proc.returncode, proc.stdout) == (0, f"<{literal}, 0, 0>\n")
    assert "Traceback" not in proc.stderr


def test_digit_strings_past_the_str_digit_limit_are_numbers():
    env = {"PYTHONINTMAXSTRDIGITS": "4300"}
    ones = "1" * 5000
    proc = run_module(["validate", ones, "0", "0"], env=env)
    assert proc.returncode == 1
    assert proc.stdout.splitlines() == [
        f"t: value {ones} above upper bound 1",
        f"sum: upper sum {ones} above 3",
    ]
    assert proc.stderr == ""
    for text in ("inf", "nan", "Infinity"):
        proc = run_module(["validate", text, "0", "0"], env=env)
        assert proc.returncode == 2
        assert proc.stderr.endswith(f"argument t: not a number: '{text}'\n")


def test_shared_parser_keeps_no_state_between_calls(capsys):
    triple = "<0.5,0.5,0.5> & <0.5,0.5,0.5>"
    code, out, _ = run(capsys, ["eval", "x", "--bind", "x=<0.2,0.5,0.9>"])
    assert (code, out) == (0, "<0.2, 0.5, 0.9>\n")
    code, _, err = run(capsys, ["eval", "x"])
    assert code == 1
    assert "has no binding" in err

    payload = run_json(capsys, ["eval", triple, "--json", "--family", "ti", "--tnorm", "product"])
    assert payload["config"]["family"] == "ti"
    code, out, _ = run(capsys, ["eval", triple])
    assert (code, out) == (0, "<0.5, 0.5, 0.5>\n")

    with pytest.raises(SystemExit) as exc:
        main(["compare", "0.5"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, ["compare", "L(0.5)", "0.5"]) == (0, "<N\n", "")


# Words an argv is drawn from: the subcommands and prefixes of them, every
# option of every subcommand, prefixes and misspellings of options, and
# values of each kind the subcommands read.
_OPTIONS = sorted({n for _, _, arguments in _COMMANDS.values() for names, _ in arguments
                   for n in names if n.startswith("-")})
_TOKENS = [
    *_COMMANDS, "comp", "rough", "eva", "val",
    *_OPTIONS, "--fam", "--js", "--p", "--b", "-h", "--", "--json=1", "--bogus",
    "0.5", "-0.5", "-1e5", "L(0.5)", "l:0.2", "x=<1,0,0>", "<1,0,0> & x",
    "inf", "inequalities", "ti", "product", "percent", "3",
]
_ARGVS = st.one_of(
    st.lists(st.sampled_from(_TOKENS), max_size=6),
    st.builds(lambda name, rest: [name, *rest],
              st.sampled_from(list(_COMMANDS)), st.lists(st.sampled_from(_TOKENS), max_size=5)),
)


def _read(parse, argv) -> tuple:
    """(arguments but `command`, or the exit code; stdout; stderr) of parse(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            read = vars(parse(argv))
            read.pop("command", None)
        except SystemExit as exc:
            read = exc.code
    return read, out.getvalue(), err.getvalue()


@settings(max_examples=300)
@given(_ARGVS)
def test_routing_reads_argv_as_the_full_parser_does(argv):
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        assert _read(_arguments, argv) == _read(build_parser().parse_args, argv)


def test_a_routed_call_builds_one_subcommand_parser(capsys):
    build_parser.cache_clear()
    _command_parser.cache_clear()
    assert main(("compare", "0.5", "L(0.5)")) == 0  # any sequence of words is an argv
    assert capsys.readouterr().out == ">N\n"
    assert (build_parser.cache_info().currsize, _command_parser.cache_info().currsize) == (0, 1)
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert build_parser.cache_info().currsize == 1


def test_module_entry_point(capsys, monkeypatch):
    proc = run_module(["compare", "L(0.5)", "R(0.5)"])
    assert proc.returncode == 0
    assert proc.stdout == "<N\n"
    # The same entry in this process, where a line tracer sees it run.
    monkeypatch.setattr(sys, "argv", ["neutrocalc", "compare", "L(0.5)", "R(0.5)"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("neutrocalc", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out == "<N\n"


def _screens() -> list[tuple[list[str], int, str]]:
    """(argv, exit code, output) of each `$ neutrocalc ...` block in cli_screens.txt."""
    text = (DATA / "cli_screens.txt").read_text(encoding="utf-8")
    screens = []
    for block in re.split(r"^\$ ", text, flags=re.M)[1:]:
        command, code, output = block.split("\n", 2)
        screens.append((shlex.split(command)[1:], int(code.removeprefix("exit ")), output))
    return screens


SCREENS = _screens()


def _words(text: str) -> str:
    """text with runs of whitespace collapsed and no quotes in a `choose from` list.

    Python 3.13 wraps the top-level usage line differently from 3.10-3.12,
    with the same words, and later 3.12 and 3.13 releases print the choices
    of an invalid-choice error bare ('if', 'ti' -> if, ti).
    """
    text = re.sub(r"\(choose from [^)]*\)", lambda m: m[0].replace("'", ""), text)
    return " ".join(text.split())


@pytest.mark.parametrize(
    "argv, code, output", SCREENS, ids=[" ".join(argv) or "no-arguments" for argv, _, _ in SCREENS]
)
def test_help_screens_and_usage_errors(capsys, monkeypatch, argv, code, output):
    # Help goes to stdout with exit 0, a usage error to stderr with exit 2.
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == code
    assert _words(err if code else out) == _words(output)
    assert (out if code else err) == ""
