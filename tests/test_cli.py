"""Command-line front end tests, driven through ``run`` for exit codes
and captured output."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math

import pytest

from zetagb import cli
from zetagb.cli import run
from zetagb.errors import SingularQError
from zetagb.zeta_core import EvalParams, remainder_bound, zeta_gb

FIRST_ORDINATE = 14.13472514172102


def invoke(capsys, *argv: str) -> tuple[int, str, str]:
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# eval and params
# ---------------------------------------------------------------------------


def test_eval_json(capsys) -> None:
    code, out, _ = invoke(capsys, "eval", "--re", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value_re"] == pytest.approx(math.pi**2 / 6, abs=1e-8)
    assert payload["auto_params"] is True
    assert payload["N"] == 9


def test_eval_accuracy_request_is_certified(capsys) -> None:
    code, out, _ = invoke(capsys, "eval", "--re", "2", "--eps", "1e-10", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["remainder_bound"] <= 1e-10
    assert payload["value_re"] == pytest.approx(1.6449340668, abs=1e-9)


def test_eval_text_format(capsys) -> None:
    code, out, _ = invoke(capsys, "eval", "--re", "2")
    assert code == 0
    assert "Z(2+0i)" in out
    assert "remainder bound" in out


def test_eval_csv_format(capsys) -> None:
    code, out, _ = invoke(capsys, "eval", "--re", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert float(rows[0]["value_re"]) == pytest.approx(math.pi**2 / 6, abs=1e-8)


def test_eval_explicit_params(capsys) -> None:
    code, out, _ = invoke(capsys, "eval", "--re", "2", "--N", "50", "--nu", "10",
                          "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["auto_params"] is False
    assert payload["N"] == 50
    assert payload["value_re"] == zeta_gb(2, EvalParams(50, 10)).value.real


def test_explicit_params_must_come_in_pairs(capsys) -> None:
    code, _, err = invoke(capsys, "eval", "--re", "2", "--N", "50")
    assert code == 2
    assert "--N and --nu" in err


def test_tail_order_beyond_the_bernoulli_table_exits_2(capsys) -> None:
    # the bound after nu = 30 terms reads B_62; the table stops at B_60
    code, out, err = invoke(capsys, "eval", "--re", "2", "--N", "16", "--nu", "30")
    assert (code, out) == (2, "")
    assert err.startswith("parameter error: tail_order 30")


def test_explicit_cutoff_above_the_schedule_exits_2(capsys) -> None:
    code, _, err = invoke(capsys, "eval", "--re", "0.5", "--im", "14", "--N", "64129", "--nu", "4")
    assert code == 2
    assert "cutoff_n must be an integer in [2, 64128]" in err


@pytest.mark.parametrize("argv", (
    ("eval", "--re", "-400", "--im", "0"),
    ("count", "--sigma-min", "-400", "--sigma-max", "-399", "--t-min", "10", "--t-max", "11"),
), ids=("eval", "count"))
def test_a_tail_order_too_small_exits_2_before_any_pass(capsys, argv) -> None:
    # n^400 overflows the Dirichlet pass or walk, so the order is refused first
    code, out, err = invoke(capsys, *argv, "--N", "16", "--nu", "2")
    assert (code, out) == (2, "")
    assert err.startswith("parameter error: tail order 2 too small for Re(s) = -400.0")


def test_a_valid_tail_order_keeps_the_pass_finite(capsys) -> None:
    code, out, _ = invoke(capsys, "eval", "--re", "-58", "--im", "3", "--N", "64128", "--nu", "29",
                          "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert math.isfinite(payload["value_re"]) and math.isfinite(payload["value_im"])


def test_eval_pole_exits_2(capsys) -> None:
    code, _, err = invoke(capsys, "eval", "--re", "1")
    assert code == 2
    assert "pole" in err


def test_eval_eps_floor_exits_3(capsys) -> None:
    code, _, err = invoke(capsys, "eval", "--re", "2", "--eps", "1e-20")
    assert code == 3
    assert "precision error" in err


def test_eval_writes_to_file(capsys, tmp_path) -> None:
    target = tmp_path / "out.json"
    code, out, _ = invoke(capsys, "eval", "--re", "2", "--format", "json",
                          "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["N"] == 9


def test_params_reports_the_schedule_choice(capsys) -> None:
    code, out, _ = invoke(capsys, "params", "--re", "0.5", "--im", "100",
                          "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["N"], payload["nu"]) == (40, 9)
    assert payload["certified_bound"] <= 1e-8


# ---------------------------------------------------------------------------
# zeros
# ---------------------------------------------------------------------------


def test_zeros_csv_and_json_carry_identical_numbers(capsys) -> None:
    code, csv_out, _ = invoke(capsys, "zeros", "--t-min", "14", "--t-max", "15",
                              "--format", "csv")
    assert code == 0
    code, json_out, _ = invoke(capsys, "zeros", "--t-min", "14", "--t-max", "15",
                               "--format", "json")
    assert code == 0
    csv_rows = list(csv.DictReader(io.StringIO(csv_out)))
    json_rows = json.loads(json_out)
    assert len(csv_rows) == len(json_rows) == 1
    assert float(csv_rows[0]["t"]) == json_rows[0]["t"]
    assert float(csv_rows[0]["q_re"]) == json_rows[0]["q_re"]
    assert int(csv_rows[0]["N"]) == json_rows[0]["N"]
    assert abs(json_rows[0]["t"] - FIRST_ORDINATE) <= 1e-8


def test_zeros_jsonl(capsys) -> None:
    code, out, _ = invoke(capsys, "zeros", "--t-min", "14", "--t-max", "15", "--format", "jsonl")
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == 1
    assert abs(json.loads(lines[0])["t"] - FIRST_ORDINATE) <= 1e-8
    # JSON lines have one spelling; the old flag is refused, not ignored
    code, out, err = invoke(capsys, "zeros", "--t-min", "14", "--t-max", "15", "--format", "csv", "--jsonl")
    assert code == 2
    assert out == ""
    assert "--jsonl" in err


def test_zeros_text_summary(capsys) -> None:
    code, out, _ = invoke(capsys, "zeros", "--t-min", "0", "--t-max", "5")
    assert code == 0
    assert "0 zero(s)" in out


def test_each_run_logs_to_its_own_stderr() -> None:
    # the two refinement warnings reach the stderr of each call, once each
    for _ in range(2):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run(["zeros", "--t-min", "14", "--t-max", "15", "--step", "0.5", "--max-iter", "1"]) == 0
        lines = err.getvalue().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("refinement skipped near t = 14.129486")
        assert "1 candidate(s) failed to refine" in lines[1]


def test_zeros_strict_refine_exits_5(capsys) -> None:
    code, _, err = invoke(capsys, "zeros", "--t-min", "14", "--t-max", "15", "--step", "0.5",
                          "--max-iter", "1", "--strict-refine")
    assert code == 5
    assert "refinement error" in err


def test_zeros_bad_range_exits_2(capsys) -> None:
    code, _, _ = invoke(capsys, "zeros", "--t-min", "-1", "--t-max", "5")
    assert code == 2


@pytest.mark.parametrize("command", ("zeros", "audit"))
def test_scan_commands_take_no_eps(capsys, command: str) -> None:
    code, _, err = invoke(capsys, command, "--t-min", "14", "--t-max", "15", "--eps", "1e-3")
    assert code == 2
    assert "--eps" in err


@pytest.mark.parametrize("command", ("zeros", "audit"))
def test_scan_commands_refuse_t_above_the_cap(capsys, command: str) -> None:
    # explicit params skip auto_params, whose own cap check would refuse t = 601
    code, out, err = invoke(capsys, command, "--t-min", "600", "--t-max", "601", "--N", "1300", "--nu", "4")
    assert code == 2
    assert out == ""
    assert "exceeds the supported range 500.0" in err


def test_audit_reports_explicit_params_without_a_target(capsys) -> None:
    code, out, _ = invoke(capsys, "audit", "--t-min", "14", "--t-max", "15", "--N", "40", "--nu", "6")
    assert code == 0
    assert json.loads(out)["params"] == {"N": 40, "nu": 6}


# ---------------------------------------------------------------------------
# count and audit
# ---------------------------------------------------------------------------


def test_count_prints_the_number(capsys) -> None:
    code, out, _ = invoke(capsys, "count", "--sigma-min", "0.01", "--sigma-max", "0.99",
                          "--t-min", "0.1", "--t-max", "16")
    assert code == 0
    assert out == "1\n"


def test_count_json_includes_the_residual(capsys) -> None:
    code, out, _ = invoke(capsys, "count", "--sigma-min", "0.01", "--sigma-max", "0.99",
                          "--t-min", "0.1", "--t-max", "10", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 0
    assert payload["winding_residual"] < 0.25


def test_count_with_a_zero_on_the_contour_exits_4(capsys) -> None:
    code, _, err = invoke(capsys, "count", "--sigma-min", "0.01", "--sigma-max", "0.5",
                          "--t-min", "0.1", "--t-max", str(FIRST_ORDINATE))
    assert code == 4
    assert "nudge" in err


def test_count_with_a_zero_just_off_the_contour_exits_4(capsys) -> None:
    # the first zero sits 3e-6 below the bottom side: every sample there
    # exceeds 1e-6, yet the phase step near it stays above pi/2
    code, _, err = invoke(capsys, "count", "--sigma-min", "0.41", "--sigma-max", "0.61",
                          "--t-min", "14.13472814172102", "--t-max", "15")
    assert code == 4
    assert "after 12 splits" in err


@pytest.mark.parametrize(("eps", "target"), (((), 1e-9), (("--eps", "1e-11"), 1e-11)))
def test_count_params_meet_eps_at_the_worst_corner(capsys, monkeypatch, eps, target) -> None:
    chosen = []
    winding = cli.rectangle_winding
    monkeypatch.setattr(cli, "rectangle_winding", lambda rect, params: chosen.append(params) or winding(rect, params))
    code, out, _ = invoke(capsys, "count", "--sigma-min", "0.01", "--sigma-max", "0.99",
                          "--t-min", "493", "--t-max", "499", *eps)
    assert (code, out) == (0, "5\n")
    (params,) = chosen
    # the truncation bound is largest at sigma_min: chosen at sigma_max,
    # (N=1000, nu=3) bounded 4.2e-7 there
    assert remainder_bound(complex(0.01, 499.0), params.cutoff_n, params.tail_order) <= target


def test_count_bad_rectangle_exits_2(capsys) -> None:
    code, _, _ = invoke(capsys, "count", "--sigma-min", "0.9", "--sigma-max", "0.1",
                        "--t-min", "0.1", "--t-max", "10")
    assert code == 2


def test_audit_json_to_stdout_summary_to_stderr(capsys) -> None:
    code, out, err = invoke(capsys, "audit", "--t-min", "14", "--t-max", "15")
    assert code == 0
    payload = json.loads(out)
    assert payload["complete"] is True
    assert len(payload["zeros"]) == 1
    assert "verdicts:" in err


def test_audit_takes_no_seed(capsys) -> None:
    # the audit draws no sample points, so there is no seed to choose
    code, out, err = invoke(capsys, "audit", "--t-min", "14", "--t-max", "15", "--seed", "7")
    assert code == 2
    assert out == ""
    assert "--seed" in err


def test_audit_report_to_file(capsys, tmp_path) -> None:
    target = tmp_path / "report.json"
    code, out, err = invoke(capsys, "audit", "--t-min", "14", "--t-max", "15",
                            "--out", str(target))
    assert code == 0
    assert out == ""
    assert "verdicts:" in err
    assert json.loads(target.read_text())["complete"] is True


@pytest.mark.parametrize("command", ["zeros", "audit"])
def test_singular_q_exits_3(capsys, monkeypatch, command: str) -> None:
    def singular(*args, **kwargs):
        raise SingularQError("|1/Q| underflowed")

    monkeypatch.setattr("zetagb.zero_scan.q_gb", singular)
    code, _, _ = invoke(capsys, command, "--t-min", "14", "--t-max", "15")
    assert code == 3


def test_audit_strict_refinement_failure_exits_5(capsys) -> None:
    code, out, _ = invoke(capsys, "audit", "--t-min", "14", "--t-max", "15", "--step", "0.5",
                          "--max-iter", "1", "--strict-refine")
    assert code == 5
    payload = json.loads(out)
    assert payload["complete"] is False
    assert "RefinementError" in payload["abort_reason"]


# ---------------------------------------------------------------------------
# bernoulli and argument parsing
# ---------------------------------------------------------------------------


def test_bernoulli_text(capsys) -> None:
    code, out, _ = invoke(capsys, "bernoulli", "--max-index", "12")
    assert code == 0
    assert "B_12 = -691/2730" in out


def test_bernoulli_csv(capsys) -> None:
    code, out, _ = invoke(capsys, "bernoulli", "--max-index", "8", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0] == {"index": "0", "numerator": "1", "denominator": "1"}
    assert rows[-1] == {"index": "8", "numerator": "-1", "denominator": "30"}


def test_bernoulli_bad_index_exits_2(capsys) -> None:
    code, _, _ = invoke(capsys, "bernoulli", "--max-index", "7")
    assert code == 2


def test_unknown_arguments_exit_2(capsys) -> None:
    code, _, _ = invoke(capsys, "eval", "--re", "2", "--format", "yaml")
    assert code == 2
    code, _, _ = invoke(capsys)
    assert code == 2


_OUT_COMMANDS = {
    "eval": ("eval", "--re", "0.5"),
    "params": ("params", "--re", "0.5", "--im", "14"),
    "zeros": ("zeros", "--t-min", "14", "--t-max", "15"),
    "count": ("count", "--sigma-min", "0.01", "--sigma-max", "0.99", "--t-min", "10", "--t-max", "15"),
    "audit": ("audit", "--t-min", "14", "--t-max", "15"),
    "bernoulli": ("bernoulli", "--max-index", "4"),
}


@pytest.mark.parametrize("command", sorted(_OUT_COMMANDS))
def test_an_unwritable_out_path_exits_2(capsys, tmp_path, command: str) -> None:
    # a missing directory and a directory in place of the file, each named in the message
    for target in (tmp_path / "missing" / "x", tmp_path):
        code, out, err = invoke(capsys, *_OUT_COMMANDS[command], "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("parameter error: cannot write --out")
        assert repr(str(target)) in err
        assert "Traceback" not in err
    written = tmp_path / "written"
    assert invoke(capsys, *_OUT_COMMANDS[command], "--out", str(written))[0] == 0
    assert written.read_text()
