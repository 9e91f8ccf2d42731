"""End-to-end CLI behavior: output schemas, exit codes, batch mode."""

import io
import json
import time
from fractions import Fraction as F

import pytest

from gkdim import Z_RANGE_BOUND
from gkdim.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_rank_above_bound_is_domain_error(self, capsys):
        code, out, _ = run(capsys, "verify-oracle", "--rank", "6")
        assert code == 2
        error = json.loads(out)["error"]
        assert error["code"] == "rank-bound-exceeded"
        assert error["details"] == {"n": 6, "rank_bound": 5}

    @pytest.mark.parametrize("rank", ["0", "-1", "x"])
    def test_nonpositive_rank_is_parse_error(self, capsys, rank):
        code, out, err = run(capsys, "verify-oracle", "--rank", rank)
        assert code == 1
        assert out == ""
        assert "--rank" in err


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

    def test_batch_excludes_weight_flag(self, capsys):
        code, _, _ = run(capsys, "gkdim", "--batch", "--weight", "1,2")
        assert code == 1
