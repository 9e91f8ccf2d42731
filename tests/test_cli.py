"""End-to-end CLI behavior: output schemas, exit codes, batch mode."""

import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gkdim.cli
import gkdim.weights
from gkdim import Z_RANGE_BOUND
from gkdim.errors import ParseError
from gkdim.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# "١", "٢", "٣" (Arabic-Indic digits) are Unicode digits that int() and a
# bare regex \d accept; int() also accepts underscores, as in "1_0".
def assert_parse_error(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ")


class TestGKdimCommand:
    def test_intro_example_json(self, capsys):
        code, out, _ = run(
            capsys, "gkdim", "--weight", "3,3.5,2,1.5,-1,5.5,-1,0,1.1"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["gk_dimension"] == 32
        assert obj["a_value"] == 4
        assert not obj["integral"]

    def test_json_rationals_round_trip(self, capsys):
        code, out, _ = run(capsys, "gkdim", "--weight", "1.1,0,1/3")
        obj = json.loads(out)
        tableau_entries = [
            F(s) for c in obj["classes"] for row in c["tableau"] for s in row
        ]
        assert sorted(tableau_entries) == sorted([F(11, 10), F(0), F(1, 3)])

    def test_pretty_agrees_with_json(self, capsys):
        weight = "3,3.5,2,1.5,-1,5.5,-1,0,1.1"
        _, out_json, _ = run(capsys, "gkdim", "--weight", weight)
        _, out_pretty, _ = run(
            capsys, "gkdim", "--weight", weight, "--output", "pretty"
        )
        obj = json.loads(out_json)
        assert f"GK dimension = {obj['gk_dimension']}" in out_pretty
        assert f"a-value = {obj['a_value']}" in out_pretty

    def test_empty_weight_is_parse_error(self, capsys):
        code, _, err = run(capsys, "gkdim", "--weight", "")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("weight", ["٣,٢,١", "3,2,1_0"])
    def test_non_ascii_digit_weight_is_parse_error(self, capsys, weight):
        assert_parse_error(capsys, "gkdim", "--weight", weight)

    def test_z_flag_rejected(self, capsys):
        code, _, err = run(capsys, "gkdim", "--weight", "1,2", "--z", "1")
        assert code == 1

    def test_missing_weight(self, capsys):
        code, _, err = run(capsys, "gkdim")
        assert code == 1

    @pytest.mark.parametrize(
        "argv", [("--weight", "-3,1,2"), ("--weight=-3,1,2",)]
    )
    def test_negative_first_coordinate(self, capsys, argv):
        code, out, _ = run(capsys, "gkdim", *argv)
        assert code == 0
        obj = json.loads(out)
        assert obj["gk_dimension"] == 3
        assert obj["classes"][0]["tableau"] == [["-3", "1", "2"]]


class TestHermitianCommand:
    def test_worked_example(self, capsys):
        code, out, _ = run(
            capsys, "hermitian", "--weight", "6,5,3,2,9,8,7,4,2,1",
            "--pq", "4,6",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["m"] == 4
        assert obj["gk_dimension"] == 24
        assert obj["orbit_index"] == 4
        assert obj["xi"] == [3, 2, 1, 1, 1, 1, 1, 0]

    def test_requires_pq(self, capsys):
        code, _, _ = run(capsys, "hermitian", "--weight", "1,2")
        assert code == 1

    def test_domain_error_object(self, capsys):
        code, out, _ = run(
            capsys, "hermitian", "--weight", "1,2,2,1", "--pq", "2,2"
        )
        assert code == 2
        obj = json.loads(out)
        assert obj["error"]["code"] == "not-pq-dominant"
        assert obj["error"]["details"]["i"] == 1

    def test_pretty_agrees(self, capsys):
        args = ("hermitian", "--weight", "6,5,3,2,9,8,7,4,2,1", "--pq", "4,6")
        _, out_json, _ = run(capsys, *args)
        _, out_pretty, _ = run(capsys, *args, "--output", "pretty")
        obj = json.loads(out_json)
        assert f"m = {obj['m']}" in out_pretty
        assert f"GK dimension = {obj['gk_dimension']}" in out_pretty

    def test_bad_pq(self, capsys):
        code, _, _ = run(capsys, "hermitian", "--weight", "1,2", "--pq", "x,1")
        assert code == 1

    @pytest.mark.parametrize(
        "argv", [("--pq", "-1,1"), ("--pq=-1,1",)], ids=["separate", "joined"]
    )
    def test_negative_pq_gets_the_cli_message(self, capsys, argv):
        # A value starting with "-" reaches the p,q parser in both spellings.
        got = run(capsys, "hermitian", "--weight", "1,0", *argv)
        assert got == (
            1, "", "error: expected p,q with positive integers: '-1,1'\n"
        )

    @pytest.mark.parametrize("pq", ["1.5,2", "2,3/1", "0,2"])
    def test_pq_not_positive_integers(self, capsys, pq):
        # PQContext's ValueError and the digit parser's both become this
        # ParseError.
        with pytest.raises(ParseError,
                           match="expected p,q with positive integers"):
            gkdim.cli._parse_pq(pq)
        got = run(capsys, "hermitian", "--weight", "1,0", "--pq", pq)
        assert got == (
            1, "", f"error: expected p,q with positive integers: {pq!r}\n"
        )

    def test_non_integral_pq_context_is_parse_error(self, monkeypatch):
        # With a digit parser that let "1.5" through, PQContext's own
        # ValueError would still become the CLI's ParseError.
        monkeypatch.setattr(gkdim.cli, "_ascii_int", float)
        with pytest.raises(ParseError, match="'1.5,2'"):
            gkdim.cli._parse_pq("1.5,2")

    @pytest.mark.parametrize("pq", ["٢,٣", "2,3_0", "²,3"])
    def test_non_ascii_digit_pq_is_parse_error(self, capsys, pq):
        assert_parse_error(
            capsys, "hermitian", "--weight", "3,2,4,3,2", "--pq", pq
        )


class TestSeriesCommand:
    def test_series_json(self, capsys):
        code, out, _ = run(
            capsys, "series", "--weight", "2,1,4,3,2", "--pq", "2,3",
            "--z-range", "0,5",
        )
        assert code == 0
        obj = json.loads(out)
        assert [(pt["z"], pt["gk_dimension"]) for pt in obj["series"]] == [
            (0, 6), (1, 6), (2, 6), (3, 4), (4, 0), (5, 0),
        ]

    @pytest.mark.parametrize(
        "argv", [("--z-range", "-8,12"), ("--z-range=-8,12",)]
    )
    def test_negative_range_start(self, capsys, argv):
        code, out, _ = run(
            capsys, "series", "--weight", "2,1,4,3,2", "--pq", "2,3", *argv
        )
        assert code == 0
        series = [(pt["z"], pt["gk_dimension"]) for pt in json.loads(out)["series"]]
        assert [z for z, _ in series] == list(range(-8, 13))
        assert series[8:14] == [(0, 6), (1, 6), (2, 6), (3, 4), (4, 0), (5, 0)]
        assert all(g == 6 for z, g in series if z < 0)

    @pytest.mark.parametrize(
        "argv", [("--z-range=0,1000000000",), ("--z-range", "-1000000000,0")]
    )
    def test_range_above_bound_is_domain_error(self, capsys, argv):
        t0 = time.perf_counter()
        code, out, _ = run(
            capsys, "series", "--weight", "2,1,4,3,2", "--pq", "2,3", *argv
        )
        assert time.perf_counter() - t0 < 1
        assert code == 2
        error = json.loads(out)["error"]
        assert error["code"] == "z-range-bound-exceeded"
        assert error["details"]["z_range_bound"] == Z_RANGE_BOUND

    def test_range_above_bound_in_batch_is_per_line(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("2,1,4,3,2\n2,1,4,3,2\n"))
        code, out, _ = run(
            capsys, "series", "--batch", "--pq", "2,3", "--z-range=0,1000000000"
        )
        assert code == 2
        lines = [json.loads(line) for line in out.splitlines()]
        assert [obj["error"]["code"] for obj in lines] == [
            "z-range-bound-exceeded"
        ] * 2

    def test_bad_range(self, capsys):
        code, _, _ = run(
            capsys, "series", "--weight", "2,1,4,3,2", "--pq", "2,3",
            "--z-range", "5",
        )
        assert code == 1

    @pytest.mark.parametrize("z_range", ["0,1_0", "٠,١", "-١,3"])
    def test_non_ascii_digit_range_is_parse_error(self, capsys, z_range):
        assert_parse_error(
            capsys, "series", "--weight", "2,1,4,3,2", "--pq", "2,3",
            f"--z-range={z_range}",
        )


class TestUnitaryCommand:
    def test_interval_only(self, capsys):
        code, out, _ = run(
            capsys, "unitary", "--weight", "2,1,4,3,2", "--pq", "2,3"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["threshold_real"] == 3 and obj["threshold_int"] == 4

    def test_with_z(self, capsys):
        code, out, _ = run(
            capsys, "unitary", "--weight", "2,1,4,3,2", "--pq", "2,3",
            "--z", "3",
        )
        obj = json.loads(out)
        assert obj["gk_dimension"] == 4

    @pytest.mark.parametrize("argv", [("--z", "-1/2"), ("--z=-1/2",)])
    def test_negative_z(self, capsys, argv):
        code, out, _ = run(
            capsys, "unitary", "--weight", "2,1,4,3,2", "--pq", "2,3", *argv
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["z"] == "-1/2"
        assert obj["gk_dimension"] == 6

    def test_z_outside(self, capsys):
        code, out, _ = run(
            capsys, "unitary", "--weight", "2,1,4,3,2", "--pq", "2,3",
            "--z", "7",
        )
        assert code == 2
        assert json.loads(out)["error"]["code"] == "outside-unitary-interval"

    @pytest.mark.parametrize("z", ["١", "1_0", "-١/2"])
    def test_non_ascii_digit_z_is_parse_error(self, capsys, z):
        assert_parse_error(
            capsys, "unitary", "--weight", "2,1,4,3,2", "--pq", "2,3", f"--z={z}"
        )

    def test_z_line_checks_dominance_once(self, capsys, monkeypatch):
        """One `unitary --z` answer checks its weight once and builds one
        unitarity interval."""
        checks, intervals = [], []
        check = gkdim.hermitian.pq_dominance_violation
        build = gkdim.hermitian.unitary_interval

        def counting_check(w, ctx):
            checks.append(w)
            return check(w, ctx)

        def counting_build(w, ctx):
            intervals.append(w)
            return build(w, ctx)
        monkeypatch.setattr(gkdim.hermitian, "pq_dominance_violation",
                            counting_check)
        # The CLI reads unitary_interval from gkdim.hermitian at call time.
        monkeypatch.setattr(gkdim.hermitian, "unitary_interval", counting_build)
        code, out, _ = run(
            capsys, "unitary", "--weight", "2,1,4,3,2", "--pq", "2,3", "--z=1"
        )
        assert (code, json.loads(out)["gk_dimension"]) == (0, 6)
        assert (len(checks), len(intervals)) == (1, 1)


class TestVerifyOracleCommand:
    def test_small_rank(self, capsys):
        code, out, _ = run(capsys, "verify-oracle", "--rank", "3")
        assert code == 0
        obj = json.loads(out)
        assert obj["ok"]
        assert [r["checked"] for r in obj["ranks"]] == [1, 2, 6]
        assert all(r["discrepancies"] == [] for r in obj["ranks"])

    def test_pretty(self, capsys):
        code, out, _ = run(
            capsys, "verify-oracle", "--rank", "2", "--output", "pretty"
        )
        assert code == 0
        assert "ok" in out

    @pytest.mark.parametrize("output", ["json", "pretty"])
    def test_disagreement_is_invariant_violation(self, capsys, monkeypatch,
                                                 output):
        # A tableau rule that is off by one at two permutations of S_3.
        tableau_rule = gkdim.cli.a_value_of_permutation
        wrong = {(2, 1, 3): 5, (3, 2, 1): 0}
        monkeypatch.setattr(
            gkdim.cli, "a_value_of_permutation",
            lambda sigma: wrong.get(sigma.one_line, tableau_rule(sigma)),
        )
        code, out, err = run(
            capsys, "verify-oracle", "--rank", "4", "--output", output
        )
        assert (code, err) == (3, "")
        error = json.loads(out)["error"]
        assert error["code"] == "invariant-violated"
        assert "2 permutation(s)" in error["message"]
        assert error["details"] == {"disagreements": [
            {"n": 3, "sigma": [2, 1, 3], "hecke": 1, "tableau": 5},
            {"n": 3, "sigma": [3, 2, 1], "hecke": 3, "tableau": 0},
        ]}

    def test_rank_above_bound_is_domain_error(self, capsys):
        code, out, _ = run(capsys, "verify-oracle", "--rank", "6")
        assert code == 2
        error = json.loads(out)["error"]
        assert error["code"] == "rank-bound-exceeded"
        assert error["details"] == {"n": 6, "rank_bound": 5}

    # "²" and "١" (Arabic-Indic one) are Unicode digits that int() rejects
    # or reads as 1.
    @pytest.mark.parametrize("rank", ["0", "-1", "x", "²", "١"])
    def test_nonpositive_rank_is_parse_error(self, capsys, rank):
        code, out, err = run(capsys, "verify-oracle", "--rank", rank)
        assert code == 1
        assert out == ""
        assert "--rank" in err
        assert "expected a positive integer" in err


class TestBatchMode:
    def test_one_json_per_line(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("1,2,3\n\n3,2,1\n")
        )
        code, out, _ = run(capsys, "gkdim", "--batch")
        assert code == 0
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert [l["gk_dimension"] for l in lines] == [3, 0]

    def test_batch_reports_domain_errors(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("6,5,3,2\n1,2,2,1\n"))
        code, out, _ = run(capsys, "hermitian", "--batch", "--pq", "2,2")
        assert code == 2
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert "gk_dimension" in lines[0]
        assert lines[1]["error"]["code"] == "not-pq-dominant"

    def test_invariant_violation_is_per_line(self, capsys, monkeypatch):
        real = gkdim.hermitian.ball_model_m
        monkeypatch.setattr(
            gkdim.hermitian, "ball_model_m",
            lambda xi: 0 if xi.runs == (3, 2, 1, 1, 1, 1, 1, 0) else real(xi),
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(
            "9,8,7,6,5,4,3,2,1,0\n"
            "6,5,3,2,9,8,7,4,2,1\n"
            "9.5,8.5,7.5,6.5,5,4,3,2,1,0\n"
            "1,2,3,4,5,6,7,8,9,10\n"
        ))
        code, out, err = run(capsys, "hermitian", "--batch", "--pq", "4,6")
        assert (code, err) == (3, "")
        lines = [json.loads(l) for l in out.splitlines()]
        assert [l.get("gk_dimension") for l in lines] == [0, None, 24, None]
        error = lines[1]["error"]
        assert error["code"] == "invariant-violated"
        assert (error["details"]["tableau_m"], error["details"]["ball_model_m"]) == (4, 0)
        assert lines[3]["error"]["code"] == "not-pq-dominant"

    def test_invariant_violation_single_weight(self, capsys, monkeypatch):
        monkeypatch.setattr(gkdim.hermitian, "ball_model_m", lambda xi: 0)
        code, out, err = run(
            capsys, "hermitian", "--weight", "6,5,3,2,9,8,7,4,2,1", "--pq", "4,6"
        )
        assert (code, err) == (3, "")
        assert json.loads(out)["error"]["code"] == "invariant-violated"

    def test_batch_excludes_weight_flag(self, capsys):
        code, _, _ = run(capsys, "gkdim", "--batch", "--weight", "1,2")
        assert code == 1


# Expected text recorded from the CLI before the pretty text became lazy.
PRETTY_GOLDEN = [
    (
        ("gkdim", "--weight", "3,3.5,2,1.5,-1,5.5,-1,0,1.1"),
        "n = 9   nu0 = 36   integral = False\n"
        "a-value = 4   GK dimension = 32\n"
        "class at positions [1, 3, 5, 7, 8]:\n"
        "  -1 -1 0\n"
        "  2\n"
        "  3\n"
        "class at positions [2, 4, 6]:\n"
        "  3/2  11/2\n"
        "  7/2\n"
        "class at positions [9]:\n"
        "  11/10\n",
    ),
    (
        ("hermitian", "--weight", "6,5,3,2,9,8,7,4,2,1", "--pq", "4,6"),
        "p = 4   q = 6   integral = True\n"
        "m = 4   GK dimension = 24\n"
        "orbit index = 4   orbit dimension = 24\n"
        "second column (top to bottom): 2, 4, 7, 8\n"
        "ball signature = (3, 2, 1, 1, 1, 1, 1, 0)\n",
    ),
    (
        ("hermitian", "--weight", "3,2,3/2,1/2", "--pq", "2,2"),
        "p = 2   q = 2   integral = False\n"
        "m = 2   GK dimension = 4\n"
        "orbit index = 2   orbit dimension = 4\n",
    ),
    (
        ("series", "--weight", "3,2,1,0,6,5,4,3", "--pq", "4,4",
         "--z-range=3,9"),
        "z = 3: GK dimension = 16\n"
        "z = 4: GK dimension = 15\n"
        "z = 5: GK dimension = 12\n"
        "z = 6: GK dimension = 7\n"
        "z = 7: GK dimension = 0\n"
        "z = 8: GK dimension = 0\n"
        "z = 9: GK dimension = 0\n",
    ),
    (
        ("unitary", "--weight", "3,2,1,0,6,5,4,3", "--pq", "4,4"),
        "p' = 4   q' = 4\n"
        "unitary for real z <= 4 and integer z <= 7\n",
    ),
    (
        ("unitary", "--weight", "3,2,1,0,6,5,4,3", "--pq", "4,4", "--z=1/2"),
        "p' = 4   q' = 4\n"
        "unitary for real z <= 4 and integer z <= 7\n"
        "GK dimension at z = 1/2: 16\n",
    ),
    (
        ("unitary", "--weight", "3,2,1,0,6,5,4,3", "--pq", "4,4", "--z=5"),
        "p' = 4   q' = 4\n"
        "unitary for real z <= 4 and integer z <= 7\n"
        "GK dimension at z = 5: 12\n",
    ),
]

GOLDEN_IDS = [f"{argv[0]}-{k}" for k, (argv, _) in enumerate(PRETTY_GOLDEN)]


class TestPrettyOutput:
    @pytest.mark.parametrize("argv,expected", PRETTY_GOLDEN, ids=GOLDEN_IDS)
    def test_golden(self, capsys, argv, expected):
        code, out, err = run(capsys, *argv, "--output", "pretty")
        assert (code, out, err) == (0, expected, "")

    @pytest.mark.parametrize("argv,_", PRETTY_GOLDEN, ids=GOLDEN_IDS)
    def test_json_builds_no_text(self, capsys, monkeypatch, argv, _):
        def refuse(*args):
            raise AssertionError("pretty text built for --output json")
        monkeypatch.setattr("gkdim.cli._pretty_gk", refuse)
        monkeypatch.setattr("gkdim.cli._pretty_hermitian", refuse)
        emit = gkdim.cli._emit

        def emit_unbuilt(obj, pretty, output):
            assert callable(pretty), "pretty text built before output chosen"
            emit(obj, refuse, output)
        monkeypatch.setattr("gkdim.cli._emit", emit_unbuilt)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        json.loads(out)


HUGE = "7" * 5000


class TestOverlongNumbers:
    """Integer strings past Python's conversion limit are parse errors."""

    def test_weight(self, capsys):
        code, out, err = run(capsys, "gkdim", "--weight", f"{HUGE},1")
        assert (code, out) == (1, "")
        assert "number too long (5000 characters)" in err
        assert "77777777777777777777...77777777" in err
        assert len(err) < 200

    @pytest.mark.parametrize(
        "token", [HUGE, f"1.{HUGE}", f"1/{HUGE}"],
        ids=["integer", "decimal", "fraction"],
    )
    def test_z(self, capsys, token):
        code, out, err = run(
            capsys, "unitary", "--weight", "3,2,1,0,6,5,4,3", "--pq", "4,4",
            f"--z={token}",
        )
        assert (code, out) == (1, "")
        assert "number too long" in err

    def test_batch_line_is_per_line(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(f"1,2\n{HUGE},1\n2,1\n"))
        code, out, _ = run(capsys, "gkdim", "--batch")
        assert code == 1
        first, bad, last = (json.loads(l) for l in out.splitlines())
        assert first["gk_dimension"] == 1
        assert bad["error"]["code"] == "parse-error"
        assert "number too long" in bad["error"]["message"]
        assert last["gk_dimension"] == 0


# Expected batch output recorded from the CLI before the options were parsed
# once per invocation.  Each batch has a good line, a parse-error line and,
# where the command has a precondition, a domain-error line.
BATCH_GOLDEN = [
    (
        ("gkdim",),
        "1,2,3\n1,x\n\n3,3.5,2,1.5\n",
        1,
        '{"n": 3, "nu0": 3, "a_value": 0, "gk_dimension": 3, '
        '"integral": true, '
        '"classes": [{"indices": [1, 2, 3], "tableau": [["1", "2", "3"]]}]}\n'
        '{"error": {"code": "parse-error", '
        '"message": "not a rational token: \'x\'"}}\n'
        '{"n": 4, "nu0": 6, "a_value": 2, "gk_dimension": 4, '
        '"integral": false, '
        '"classes": [{"indices": [1, 3], "tableau": [["2"], ["3"]]}, '
        '{"indices": [2, 4], "tableau": [["3/2"], ["7/2"]]}]}\n',
        "n = 3   nu0 = 3   integral = True\n"
        "a-value = 0   GK dimension = 3\n"
        "class at positions [1, 2, 3]:\n"
        "  1 2 3\n"
        "\n"
        '{"error": {"code": "parse-error", '
        '"message": "not a rational token: \'x\'"}}\n'
        "\n"
        "n = 4   nu0 = 6   integral = False\n"
        "a-value = 2   GK dimension = 4\n"
        "class at positions [1, 3]:\n"
        "  2\n"
        "  3\n"
        "class at positions [2, 4]:\n"
        "  3/2\n"
        "  7/2\n"
        "\n",
    ),
    (
        ("hermitian", "--pq", "4,6"),
        "6,5,3,2,9,8,7,4,2,1\n6,5,a\n1,2,3\n",
        2,
        '{"p": 4, "q": 6, "integral": true, "m": 4, '
        '"second_column": ["2", "4", "7", "8"], '
        '"xi": [3, 2, 1, 1, 1, 1, 1, 0], "gk_dimension": 24, '
        '"orbit_index": 4, "orbit_dimension": 24}\n'
        '{"error": {"code": "parse-error", '
        '"message": "not a rational token: \'a\'"}}\n'
        '{"error": {"code": "length-mismatch", '
        '"message": "weight has 3 entries but p+q=10", '
        '"details": {"weight_length": 3, "p": 4, "q": 6}}}\n',
        "p = 4   q = 6   integral = True\n"
        "m = 4   GK dimension = 24\n"
        "orbit index = 4   orbit dimension = 24\n"
        "second column (top to bottom): 2, 4, 7, 8\n"
        "ball signature = (3, 2, 1, 1, 1, 1, 1, 0)\n"
        "\n"
        '{"error": {"code": "parse-error", '
        '"message": "not a rational token: \'a\'"}}\n'
        "\n"
        '{"error": {"code": "length-mismatch", '
        '"message": "weight has 3 entries but p+q=10", '
        '"details": {"weight_length": 3, "p": 4, "q": 6}}}\n'
        "\n",
    ),
    (
        ("series", "--pq", "2,3", "--z-range=0,5"),
        "2,1,4,3,2\n2,1,4,3,\n1,2,3,4,5\n",
        2,
        '{"p": 2, "q": 3, "series": [{"z": 0, "gk_dimension": 6}, '
        '{"z": 1, "gk_dimension": 6}, {"z": 2, "gk_dimension": 6}, '
        '{"z": 3, "gk_dimension": 4}, {"z": 4, "gk_dimension": 0}, '
        '{"z": 5, "gk_dimension": 0}]}\n'
        '{"error": {"code": "parse-error", '
        '"message": "not a rational token: \'\'"}}\n'
        '{"error": {"code": "not-pq-dominant", '
        '"message": "entries 1 and 2 violate (p,q)-dominance", '
        '"details": {"i": 1, "j": 2, "p": 2, "q": 3}}}\n',
        "z = 0: GK dimension = 6\n"
        "z = 1: GK dimension = 6\n"
        "z = 2: GK dimension = 6\n"
        "z = 3: GK dimension = 4\n"
        "z = 4: GK dimension = 0\n"
        "z = 5: GK dimension = 0\n"
        "\n"
        '{"error": {"code": "parse-error", '
        '"message": "not a rational token: \'\'"}}\n'
        "\n"
        '{"error": {"code": "not-pq-dominant", '
        '"message": "entries 1 and 2 violate (p,q)-dominance", '
        '"details": {"i": 1, "j": 2, "p": 2, "q": 3}}}\n'
        "\n",
    ),
    (
        ("unitary", "--pq", "4,4", "--z=1/2"),
        "3,2,1,0,6,5,4,3\n3,2,1,0,6,5,4,x\n3,2,1,0,6,5,4,2\n",
        2,
        '{"p_prime": 4, "q_prime": 4, "threshold_real": 4, '
        '"threshold_int": 7, "z": "1/2", "gk_dimension": 16}\n'
        '{"error": {"code": "parse-error", '
        '"message": "not a rational token: \'x\'"}}\n'
        '{"error": {"code": "domain-error", '
        '"message": "first and last entries must coincide", '
        '"details": {"first": "3", "last": "2"}}}\n',
        "p' = 4   q' = 4\n"
        "unitary for real z <= 4 and integer z <= 7\n"
        "GK dimension at z = 1/2: 16\n"
        "\n"
        '{"error": {"code": "parse-error", '
        '"message": "not a rational token: \'x\'"}}\n'
        "\n"
        '{"error": {"code": "domain-error", '
        '"message": "first and last entries must coincide", '
        '"details": {"first": "3", "last": "2"}}}\n'
        "\n",
    ),
]


class TestRunner:
    """One runner reads --weight or stdin; options are parsed before it."""

    @pytest.mark.parametrize("output", ["json", "pretty"])
    @pytest.mark.parametrize(
        "argv,stdin,code,json_out,pretty_out", BATCH_GOLDEN,
        ids=[argv[0] for argv, *_ in BATCH_GOLDEN],
    )
    def test_batch_golden(self, capsys, monkeypatch, argv, stdin, code,
                          json_out, pretty_out, output):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        expected = json_out if output == "json" else pretty_out
        got = run(capsys, *argv, "--batch", "--output", output)
        assert got == (code, expected, "")

    def test_bad_z_is_one_error_before_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("3,2,1,0,6,5,4,3\n3,2,1,0,6,5,4,3\n")
        )
        code, out, err = run(
            capsys, "unitary", "--batch", "--pq", "4,4", "--z=abc"
        )
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert "abc" in err

    def test_z_parsed_once_per_invocation(self, capsys, monkeypatch):
        # `cli` and `parse_weight` both look parse_rational up in `weights`:
        # the --z text is parsed once, before stdin, then each line's entries.
        calls = []
        parse = gkdim.weights.parse_rational

        def counting(text):
            calls.append(text)
            return parse(text)
        monkeypatch.setattr("gkdim.weights.parse_rational", counting)
        monkeypatch.setattr("sys.stdin", io.StringIO("3,2,1,0,6,5,4,3\n" * 3))
        code, out, _ = run(
            capsys, "unitary", "--batch", "--pq", "4,4", "--z=5"
        )
        assert code == 0
        values = [json.loads(l)["gk_dimension"] for l in out.splitlines()]
        assert values == [12] * 3
        assert calls == ["5"] + "3,2,1,0,6,5,4,3".split(",") * 3

    def test_parser_built_once(self, capsys, monkeypatch):
        # One parser serves --help, a parse error and every golden batch.
        gkdim.cli._build_parser.cache_clear()
        code, out, err = run(capsys, "--help")
        assert (code, err) == (0, "")
        assert out.startswith("usage: gkdim")
        assert_parse_error(capsys, "hermitian", "--weight", "1,0", "--pq", "x")
        for argv, stdin, code, json_out, pretty_out in BATCH_GOLDEN:
            for output, expected in (("json", json_out), ("pretty", pretty_out)):
                monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
                got = run(capsys, *argv, "--batch", "--output", output)
                assert got == (code, expected, "")
        info = gkdim.cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1 + 2 * len(BATCH_GOLDEN))

    def test_verify_oracle_pretty_golden(self, capsys):
        got = run(capsys, "verify-oracle", "--rank", "3", "--output", "pretty")
        assert got == (
            0,
            "n = 1: 1 elements, ok\n"
            "n = 2: 2 elements, ok\n"
            "n = 3: 6 elements, ok\n",
            "",
        )


SRC = str(Path(gkdim.__file__).resolve().parents[1])
SERIES_WEIGHT = "6,5,4,3,11,10,9,8,7,6"


def _cli_env(buffered: bool) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.parametrize("buffered", [True, False],
                         ids=["buffered", "unbuffered"])
class TestClosedStdout:
    """A reader that closes stdout early, as `| head` does, stops the output
    with status 141 and nothing on stderr."""

    def test_batch_reader_closes_after_first_line(self, tmp_path, buffered):
        # Enough answers to overflow the pipe, so a write meets the closed end.
        stdin = tmp_path / "weights.txt"
        stdin.write_text(f"{SERIES_WEIGHT}\n" * 3000)
        with stdin.open() as lines:
            proc = subprocess.Popen(
                [sys.executable, "-m", "gkdim.cli", "series", "--batch",
                 "--pq", "4,6", "--z-range=-8,12"],
                stdin=lines, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env=_cli_env(buffered),
            )
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            proc.stderr.close()
            code = proc.wait(timeout=60)
        assert json.loads(first)["series"][0] == {"z": -8, "gk_dimension": 24}
        assert (code, err) == (141, b"")

    def test_reader_gone_before_one_answer(self, buffered):
        # A buffered answer meets the closed pipe only when stdout is flushed.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "gkdim.cli", "series",
                 "--weight", SERIES_WEIGHT, "--pq", "4,6", "--z-range=-8,12"],
                stdout=write_end, stderr=subprocess.PIPE,
                env=_cli_env(buffered), timeout=60,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, b"")


def _shell_cli(redirect: str, *argv: str) -> subprocess.CompletedProcess:
    """Run the CLI under sh with `redirect` (such as `<&-`) applied."""
    return subprocess.run(
        ["sh", "-c", f'"$0" -m gkdim.cli "$@" {redirect}', sys.executable, *argv],
        capture_output=True, env=_cli_env(buffered=True), timeout=60,
    )


class TestStreams:
    """Undecodable, closed or unwritable standard streams give an `error:`
    line or a parse-error answer, never a traceback."""

    def test_undecodable_stdin_line_is_a_parse_error(self):
        env = dict(_cli_env(buffered=True), PYTHONIOENCODING="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "gkdim.cli", "gkdim", "--batch"],
            input=b"3,1,2\n\xff,1\n2,1\n", capture_output=True, env=env,
            timeout=60,
        )
        answers = [json.loads(line) for line in proc.stdout.splitlines()]
        assert [a.get("gk_dimension") for a in answers] == [2, None, 0]
        assert answers[1]["error"]["code"] == "parse-error"
        assert (proc.returncode, proc.stderr) == (1, b"")

    def test_closed_stdin(self):
        proc = _shell_cli("<&-", "gkdim", "--batch")
        assert proc.returncode == 1
        assert proc.stderr == b"error: --batch reads stdin, which is closed\n"

    def test_closed_stdout(self):
        proc = _shell_cli(">&-", "gkdim", "--weight", "1,2")
        assert (proc.returncode, proc.stderr) == (4, b"error: stdout is closed\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_stdout(self):
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "gkdim.cli", "gkdim", "--batch"],
                input=b"1,2\n", stdout=full, stderr=subprocess.PIPE,
                env=_cli_env(buffered=True), timeout=60,
            )
        assert proc.returncode == 4
        assert proc.stderr == (
            b"error: cannot write to stdout: No space left on device\n")


# Fuzz strategies. Weights have at most 12 entries and every --rank that
# passes the rank gate is at most 5, so one example takes milliseconds.
_SUBCOMMANDS = ["gkdim", "hermitian", "series", "unitary", "verify-oracle"]
_OPTIONS = ["--weight", "--batch", "--pq", "--z-range", "--z", "--rank",
            "--output", "-h", "--help"]
_numbers = st.one_of(
    st.integers(-30, 30).map(str),
    st.builds("{}/{}".format, st.integers(-30, 30), st.integers(-3, 6)),
    st.builds("{}.{}".format, st.integers(-9, 9), st.integers(0, 99)),
    st.sampled_from(["", " ", "+1", "-0", "1e3", "1_0", "\u0661", "\xb2",
                     "\xbd", "x"]),
)
_weights = st.lists(_numbers, max_size=12).map(",".join)
_values = st.one_of(
    _numbers, _weights, st.text(max_size=6),
    st.sampled_from(["json", "pretty", "4,6", "2,3", "1,1", "0,5", "-3,3",
                     "5,-5"]),
)
_lines = st.lists(st.one_of(_weights, st.text(max_size=12)), max_size=4)


def _pq_weight(blacks, whites, shift):
    """--pq and --weight values for decreasing halves; a non-zero shift of
    the white half makes the weight non-integral."""
    entries = sorted(blacks, reverse=True) + [
        e + shift for e in sorted(whites, reverse=True)
    ]
    return f"{len(blacks)},{len(whites)}", ",".join(map(str, entries))


_halves = st.lists(st.integers(-9, 9), min_size=1, max_size=6, unique=True)
_pq_weights = st.one_of(
    st.builds(_pq_weight, _halves, _halves,
              st.sampled_from([0, 0, F(1, 2), F(-1, 3)])),
    st.sampled_from([("4,4", "3,2,1,0,6,5,4,3"), ("2,3", "2,1,4,3,2"),
                     ("4,6", "6,5,3,2,9,8,7,4,2,1")]),
    st.tuples(_values, _weights),
)
# The options each subcommand takes besides --weight, --batch and --pq.
_EXTRA_OPTIONS = {
    "gkdim": {"--output"},
    "hermitian": {"--output"},
    "series": {"--output", "--z-range"},
    "unitary": {"--output", "--z"},
    "verify-oracle": {"--output", "--rank"},
}
_extras = st.fixed_dictionaries({
    "--z-range": st.one_of(
        st.lists(st.integers(-12, 12), min_size=2, max_size=2).map(
            lambda ends: "{},{}".format(*sorted(ends))),
        _values),
}, optional={
    "--output": st.one_of(st.sampled_from(["json", "pretty"]), _values),
    "--z": st.one_of(_numbers, _values),
    "--rank": st.one_of(st.integers(-1, 5).map(str), _values),
})


def _invocation(cmd, pq_weight, batch, extras, lines):
    """(argv, stdin) of a command line that has the options `cmd` takes."""
    pq, weight = pq_weight
    argv = [cmd]
    if cmd in ("hermitian", "series", "unitary"):
        argv += ["--pq", pq]
    if cmd != "verify-oracle":
        argv += ["--batch"] if batch else ["--weight", weight]
    for option, value in extras.items():
        if option in _EXTRA_OPTIONS[cmd]:
            argv += [option, value]
    return argv, "\n".join([weight, *lines])


_well_formed = st.builds(_invocation, st.sampled_from(_SUBCOMMANDS),
                         _pq_weights, st.booleans(), _extras, _lines)
# Two thirds well-formed command lines, one third any tokens at all.
_invocations = st.one_of(
    st.tuples(
        st.lists(st.one_of(st.sampled_from(_SUBCOMMANDS + _OPTIONS), _values),
                 max_size=8),
        _lines.map("\n".join),
    ),
    _well_formed,
    _well_formed,
)


class TestFuzz:
    """Whatever the arguments and stdin, main returns a documented status
    and lets no exception escape."""

    @settings(max_examples=200, deadline=None)
    @given(_invocations)
    def test_main_returns_a_status(self, invocation):
        argv, stdin = invocation
        out, err = io.StringIO(), io.StringIO()
        saved, sys.stdin = sys.stdin, io.StringIO(stdin)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
        finally:
            sys.stdin = saved
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()

    @pytest.mark.parametrize("argv", [["--help"], ["series", "-h"]])
    def test_help_returns_zero(self, capsys, argv):
        # argparse prints the help and raises SystemExit, which main turns
        # into its status.
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: gkdim")
