"""Instance-file parsing, solve/bench dispatch, exit codes, determinism."""

import importlib
import json
import os
import random
import subprocess
import sys
from dataclasses import asdict
from types import SimpleNamespace

import pytest

import semipath as sp
from semipath import cli
from semipath.cli import (
    InstanceFile,
    main,
    parse_instance,
    random_bellman,
    random_yule_walker,
    run_bench,
    run_solve,
)
from semipath.semirings import REGISTRY, MaxMin

REPORT_KEYS = [
    "add_count", "mul_count", "closure_count", "inverse_count",
    "solution", "algorithm", "semiring", "elapsed",
]


def write(tmp_path, doc, name="inst.json"):
    path = tmp_path / name
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


# -- parsing -----------------------------------------------------------------

def test_parse_yule_walker_instance(tmp_path):
    path = write(tmp_path, {"semiring": "max-plus", "r0": -1, "r": [-2, -3]})
    inst = parse_instance(path)
    assert inst.semiring == "max-plus"
    assert inst.r0 == -1 and inst.r == [-2, -3] and inst.b is None


def test_parse_bellman_instance(tmp_path):
    path = write(tmp_path, {"semiring": "nonneg-real", "r0": 0.5, "r": [0.25], "b": [1.0, 2.0]})
    inst = parse_instance(path)
    assert inst.b == [1.0, 2.0]


def test_parse_accepts_matching_sentinels(tmp_path):
    path = write(tmp_path, {"semiring": "max-plus", "r0": "-inf", "r": [-1]})
    assert parse_instance(path).r0 == sp.NEG_INF
    path = write(tmp_path, {"semiring": "max-min", "r0": "inf", "r": [-1]})
    assert parse_instance(path).r0 == sp.POS_INF
    path = write(tmp_path, {"semiring": "max-min", "r0": "inf", "r": [3], "b": [1, "-inf"]})
    assert parse_instance(path).b == [1, sp.NEG_INF]


@pytest.mark.parametrize("doc,exc", [
    ({"semiring": "boolean", "r0": "-inf", "r": [1]}, sp.BadSentinel),
    ({"semiring": "max-plus", "r0": "inf", "r": [-1]}, sp.BadSentinel),
    ({"semiring": "nonneg-real", "r0": "inf", "r": [0.1]}, sp.BadSentinel),
    ({"semiring": "no-such-thing", "r0": 0, "r": [1]}, sp.UnknownSemiring),
    ({"semiring": "max-plus", "r0": -1, "r": [-2], "extra": 1}, sp.ParseError),
    ({"semiring": "max-plus", "r0": -1}, sp.ParseError),
    ({"semiring": "max-plus", "r0": -1, "r": []}, sp.ParseError),
    ({"semiring": "max-plus", "r0": -1, "r": [-2], "b": []}, sp.ParseError),
    ({"semiring": "max-plus", "r0": -1, "r": [-2, -3], "b": [0, 0]}, sp.ParseError),
    ({"semiring": "max-plus", "r0": -1, "r": "nope"}, sp.ParseError),
    ({"semiring": "max-plus", "r0": True, "r": [-2]}, sp.ParseError),
    ({"semiring": "max-plus", "r0": "-INF", "r": [-2]}, sp.ParseError),
    ({"semiring": "nonneg-real", "r0": -0.5, "r": [0.1]}, sp.ParseError),
    ({"semiring": "boolean", "r0": 5, "r": [1]}, sp.ParseError),
    ([1, 2, 3], sp.ParseError),
])
def test_parse_rejections(tmp_path, doc, exc):
    with pytest.raises(exc):
        parse_instance(write(tmp_path, doc))


def test_parse_rejects_bare_infinity_token(tmp_path):
    path = write(tmp_path, '{"semiring": "max-plus", "r0": -Infinity, "r": [-1]}')
    with pytest.raises(sp.ParseError):
        parse_instance(path)


def test_parse_syntax_error_reports_location(tmp_path):
    path = write(tmp_path, '{"semiring": "max-plus",')
    with pytest.raises(sp.ParseError) as exc:
        parse_instance(path)
    assert ":1:" in str(exc.value)


def test_missing_file_is_parse_error():
    with pytest.raises(sp.ParseError):
        parse_instance("/nonexistent/instance.json")


# files that json cannot decode without a syntax error to report
UNDECODABLE = [
    pytest.param(b'\xff{"semiring": "max-plus", "r0": -1, "r": [-2]}', id="not-utf-8"),
    # past the int-conversion limit of 4,300 digits (Python 3.11)
    pytest.param(b'{"semiring": "max-plus", "r0": ' + b"9" * 5000 + b', "r": [-2]}',
                 id="5000-digit-int"),
    pytest.param(b"[" * 100000 + b"]" * 100000, id="nested-past-the-recursion-limit"),
]


@pytest.mark.parametrize("data", UNDECODABLE)
def test_undecodable_file_is_a_parse_error_exit_2(tmp_path, capsys, data):
    path = tmp_path / "inst.json"
    path.write_bytes(data)
    with pytest.raises(sp.ParseError) as exc:
        parse_instance(str(path))
    assert str(exc.value).startswith(f"{path}: ")
    code = main(["solve", "--semiring", "max-plus", "--algorithm", "durbin",
                 "--input", str(path)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "ParseError"


# a 400-digit integer: valid JSON, but no float holds it
HUGE = "9" * 400

# numbers the solvers cannot compute with: (semiring, file text, failing field)
UNREPRESENTABLE_NUMBERS = [
    pytest.param("nonneg-real", f'{{"semiring": "nonneg-real", "r0": 0.5, "r": [{HUGE}]}}',
                 "r[0]", id="huge-int"),
    pytest.param("max-plus", f'{{"semiring": "max-plus", "r0": -1.5, "r": [-{HUGE}, -2]}}',
                 "r[0]", id="huge-negative-int"),
    # json reads 1e400 as a float inf
    pytest.param("max-min", '{"semiring": "max-min", "r0": 1, "r": [1e400, 2]}',
                 "r[0]", id="float-overflow"),
    pytest.param("max-plus", '{"semiring": "max-plus", "r0": -1, "r": [-2], "b": [0, -1e400]}',
                 "b[1]", id="negative-float-overflow"),
]


@pytest.mark.parametrize("name,text,field", UNREPRESENTABLE_NUMBERS)
def test_parse_rejects_numbers_that_are_not_finite_floats(tmp_path, name, text, field):
    with pytest.raises(sp.ParseError) as exc:
        parse_instance(write(tmp_path, text))
    assert str(exc.value).startswith(f"{field}: a number must be finite")


@pytest.mark.parametrize("name,text,field", UNREPRESENTABLE_NUMBERS)
def test_main_rejects_numbers_that_are_not_finite_floats_exit_2(
        tmp_path, capsys, name, text, field):
    code = main(["solve", "--semiring", name, "--algorithm", "bordering",
                 "--input", write(tmp_path, text)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "ParseError" and err["message"].startswith(f"{field}: ")


# -- run_solve -------------------------------------------------------------------

def test_run_solve_durbin_report():
    inst = InstanceFile(semiring="max-plus", r0=-1, r=[-2, -3])
    report = run_solve(inst, "durbin", check=True, count=True)
    assert report["solution"] == [-2, -3]
    assert report["residual_ok"] is True
    assert report["mul_count"] > 0 and report["add_count"] > 0
    assert list(report) == REPORT_KEYS[:4] + ["residual_ok"] + REPORT_KEYS[4:]


def test_run_solve_counts_zero_when_disabled():
    inst = InstanceFile(semiring="max-plus", r0=-1, r=[-2, -3])
    report = run_solve(inst, "durbin")
    assert report["add_count"] == report["mul_count"] == 0
    assert report["closure_count"] == report["inverse_count"] == 0
    assert "residual_ok" not in report


def test_uncounted_report_leads_with_a_zero_counter():
    # run_solve spells the zero counter out so that an uncounted solve never
    # imports dataclasses; the literal must not drift from OpCounter
    zero = asdict(sp.OpCounter())
    report = run_solve(InstanceFile(semiring="max-plus", r0=-1, r=[-2, -3]), "durbin")
    assert list(report.items())[:len(zero)] == list(zero.items())


def test_run_solve_incompatible_requests():
    yw = InstanceFile(semiring="max-plus", r0=-1, r=[-2, -3])
    bell = InstanceFile(semiring="max-plus", r0=-1, r=[-2], b=[0, -1])
    with pytest.raises(sp.IncompatibleRequest):
        run_solve(bell, "durbin")
    with pytest.raises(sp.IncompatibleRequest):
        run_solve(yw, "levinson")
    with pytest.raises(sp.IncompatibleRequest):
        run_solve(yw, "gauss")


def test_all_algorithms_agree_on_same_instance():
    bell = InstanceFile(semiring="max-plus", r0=-1, r=[-2], b=[0, -1])
    solutions = {
        alg: run_solve(bell, alg)["solution"]
        for alg in ("levinson", "bordering", "series")
    }
    assert solutions["levinson"] == solutions["bordering"] == solutions["series"] == [0, -1]
    yw = InstanceFile(semiring="max-plus", r0=-1, r=[-2, -3])
    assert run_solve(yw, "durbin")["solution"] == run_solve(yw, "bordering")["solution"]


def test_run_solve_sentinel_serialization():
    inst = InstanceFile(semiring="max-plus", r0=-1, r=[sp.NEG_INF, -3])
    report = run_solve(inst, "durbin")
    assert report["solution"][0] == "-inf"


def test_run_solve_times_the_plain_instance_and_counts_separately(monkeypatch):
    base = sp.get_semiring("max-plus")
    events = []

    def clock():
        events.append("clock")
        return 0.0

    def recording_durbin(sr, *args):
        events.append("base" if sr is base else type(sr).__name__)
        return sp.durbin(sr, *args)

    monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=clock))
    monkeypatch.setattr(cli, "durbin", recording_durbin)
    inst = InstanceFile(semiring="max-plus", r0=-1, r=[-2, -3])
    report = run_solve(inst, "durbin", count=True)
    assert events == ["clock", "base", "clock", "CountingSemiring"]
    assert (report["mul_count"], report["add_count"]) == (5, 3)
    assert report["solution"] == [-2, -3]


def test_run_solve_deterministic_except_elapsed():
    inst = InstanceFile(semiring="max-plus", r0=-3, r=[-2, -5, -1])
    a = run_solve(inst, "durbin", check=True, count=True)
    b = run_solve(inst, "durbin", check=True, count=True)
    a.pop("elapsed"), b.pop("elapsed")
    assert json.dumps(a) == json.dumps(b)


# -- main / exit codes --------------------------------------------------------------

def test_main_solve_success(tmp_path, capsys):
    path = write(tmp_path, {"semiring": "max-plus", "r0": -1, "r": [-2], "b": [0, -1]})
    code = main(["solve", "--semiring", "max-plus", "--algorithm", "levinson",
                 "--check", "--input", path])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["solution"] == [0, -1]
    assert report["residual_ok"] is True


def test_main_parse_error_exit_2(tmp_path, capsys):
    path = write(tmp_path, {"semiring": "boolean", "r0": "-inf", "r": [1]})
    code = main(["solve", "--semiring", "boolean", "--algorithm", "durbin",
                 "--input", path])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "BadSentinel"


def test_main_semiring_flag_must_match_file(tmp_path, capsys):
    path = write(tmp_path, {"semiring": "max-plus", "r0": -1, "r": [-2]})
    code = main(["solve", "--semiring", "boolean", "--algorithm", "durbin",
                 "--input", path])
    assert code == 2


def test_main_solver_undefined_exit_3(tmp_path, capsys):
    path = write(tmp_path, {"semiring": "max-plus", "r0": 1, "r": [-2]})
    code = main(["solve", "--semiring", "max-plus", "--algorithm", "durbin",
                 "--input", path])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ClosureUndefined" and err["step"] == 1


def test_main_overflow_is_a_typed_error_exit_3(tmp_path, capsys):
    # x[0] = 1e308 / (1 - 0.9) overflows to inf at size 1
    path = write(tmp_path, {"semiring": "nonneg-real", "r0": 0.9, "r": [0], "b": [1e308, 0]})
    code = main(["solve", "--semiring", "nonneg-real", "--algorithm", "levinson",
                 "--check", "--input", path])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "OutsideCarrier" and err["step"] == 1
    assert err["message"] == "solution entry inf at size 1 is outside the nonneg-real carrier"


@pytest.mark.parametrize("algorithm", ["levinson", "bordering", "series"])
def test_main_overflow_at_size_2_exit_3_for_each_rhs_algorithm(tmp_path, capsys, algorithm):
    # x = (I - T)^-1 b doubles b = 1e308 to inf; the series stays finite
    # until its product with b
    doc = {"semiring": "nonneg-real", "r0": 0.25, "r": [0.25], "b": [1e308, 1e308]}
    path = write(tmp_path, doc)
    code = main(["solve", "--semiring", "nonneg-real", "--algorithm", algorithm,
                 "--check", "--input", path])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "OutsideCarrier" and err["step"] == 2


@pytest.mark.parametrize("doc,algorithm,error,step,value", [
    # the size-2 pivot max(-1, 5 + 5) has no max-plus star
    ({"semiring": "max-plus", "r0": -1, "r": [5, -1]}, "durbin", "ClosureUndefined", 2, 10),
    ({"semiring": "max-plus", "r0": -1, "r": [5], "b": [5, 0]}, "bordering",
     "ClosureUndefined", 2, 10),
    ({"semiring": "nonneg-real", "r0": 0.9, "r": [0], "b": [1e308, 0]}, "levinson",
     "OutsideCarrier", 1, "inf"),
    ({"semiring": "nonneg-real", "r0": 0.25, "r": [0.25], "b": [1e308, 1e308]}, "series",
     "OutsideCarrier", 2, "inf"),
])
def test_main_error_json_carries_the_failing_value(tmp_path, capsys, doc, algorithm, error,
                                                   step, value):
    path = write(tmp_path, doc)
    code = main(["solve", "--semiring", doc["semiring"], "--algorithm", algorithm,
                 "--input", path])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["step"], err["value"]) == (error, step, value)


@pytest.mark.parametrize("algorithm", ["durbin", "bordering"])
def test_closure_undefined_error_json_claims_the_leading_block(tmp_path, capsys, algorithm):
    # the size-2 pivot max(-1, 5 + 5) has no star: the leading 1x1 block
    # [-1] has a closure and the leading 2x2 block, with its 2-cycle of
    # weight 10, has none
    path = write(tmp_path, {"semiring": "max-plus", "r0": -1, "r": [5, -1]})
    code = main(["solve", "--semiring", "max-plus", "--algorithm", algorithm,
                 "--input", path])
    assert code == 3
    assert json.loads(capsys.readouterr().err) == {
        "error": "ClosureUndefined", "message": "closure undefined in max-plus at size 2",
        "step": 2, "value": 10, "claim": "leading 2x2 block has no closure"}
    # only a closure failure makes the claim
    path = write(tmp_path, {"semiring": "nonneg-real", "r0": 0.9, "r": [0], "b": [1e308, 0]})
    assert main(["solve", "--semiring", "nonneg-real", "--algorithm", "levinson",
                 "--input", path]) == 3
    assert "claim" not in json.loads(capsys.readouterr().err)


def test_error_json_encodes_a_nan_value_as_a_string(capsys):
    # the size-2 pivot of this matrix is 0 * inf, a NaN
    A = sp.Matrix.from_rows([[0.5, 1e308], [0, 0]], sp.get_semiring("nonneg-real"))
    with pytest.raises(sp.OutsideCarrier) as exc:
        sp.bordering_closure(A)
    assert cli._fail(exc.value, 3) == 3
    raw = capsys.readouterr().err
    assert "NaN" not in raw
    assert json.loads(raw)["value"] == "nan"
    assert cli._fail(sp.ParseError("bad"), 2) == 2
    assert json.loads(capsys.readouterr().err)["value"] is None


def test_main_series_on_a_positive_cycle_answers_inf(tmp_path, capsys):
    # the star of the cycle weight 1 is +inf; the finite partial sums never get there
    path = write(tmp_path, {"semiring": "max-plus-complete", "r0": 1, "r": [1]})
    code = main(["solve", "--semiring", "max-plus-complete", "--algorithm", "series",
                 "--check", "--input", path])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["solution"] == ["inf"] and report["residual_ok"] is True


def test_main_series_divergence_exit_3(tmp_path, capsys):
    path = write(tmp_path, {"semiring": "nonneg-real", "r0": 1.5, "r": [], "b": [1.0]})
    code = main(["solve", "--semiring", "nonneg-real", "--algorithm", "series",
                 "--input", path])
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"] == "NotStabilized"


def test_main_residual_failure_exit_4(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, {"semiring": "max-plus", "r0": -1, "r": [-2, -3]})
    monkeypatch.setattr(cli, "residual_check", lambda *a: False)
    code = main(["solve", "--semiring", "max-plus", "--algorithm", "durbin",
                 "--check", "--input", path])
    assert code == 4
    assert json.loads(capsys.readouterr().out)["residual_ok"] is False


def test_main_float_max_plus_residual_passes(tmp_path, capsys):
    # durbin's and the residual check's float sums differ in the last bits here
    path = write(tmp_path, {"semiring": "max-plus", "r0": -1.3578259377496948, "r": [
        -1.9755139179478616, -2.642530180919752, -2.2329526637224024,
        -0.6045506263720689, -2.732483341324393, -0.6770118994025807,
        -0.5919162527215647, -1.666739052371152, -1.7613239007666506]})
    code = main(["solve", "--semiring", "max-plus", "--algorithm", "durbin",
                 "--check", "--input", path])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["residual_ok"] is True


# Accepted inputs on which levinson, bordering and series all return a wrong
# solution that only the residual check catches (exit 4).  A correct solution
# or a typed error would both flip these tests.
RESIDUAL_DEFECTS = {
    # -1e308 + -1e308 overflows to -inf, the max-plus zero, so mul stops
    # being associative; the least solution is all inf
    "max-plus-complete-overflow": {
        "semiring": "max-plus-complete", "r0": -3,
        "r": [-1e308, "-inf", -1e308, "inf"], "b": [0.0, "-inf", -0.0, -0.5, -1],
    },
    # subnormal intermediates put x[0] off by 10-19%
    "nonneg-real-subnormal": {"semiring": "nonneg-real", "r0": 0.1, "r": [5e-324],
                              "b": [0, 1e154]},
}


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="float overflow and subnormals: residual fails, no typed error")
@pytest.mark.parametrize("algorithm", ["levinson", "bordering", "series"])
@pytest.mark.parametrize("case", sorted(RESIDUAL_DEFECTS))
def test_accepted_input_solves_or_raises_a_typed_error(tmp_path, case, algorithm):
    inst = parse_instance(write(tmp_path, RESIDUAL_DEFECTS[case]))
    try:
        report = run_solve(inst, algorithm, check=True)
    except sp.SemipathError:
        return
    assert report["residual_ok"]


def test_main_rejects_bad_cli_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--algorithm", "gauss", "--semiring", "max-plus", "--input", "x"])
    assert exc.value.code == 2
    # there is one pivot update, so no flag selects one
    for argv in (["solve", "--algorithm", "durbin", "--semiring", "max-plus",
                  "--variant", "recompute", "--input", "x"],
                 ["bench", "--algorithm", "durbin", "--semiring", "max-min",
                  "--variant", "recursive", "--sizes", "4,8", "--seeds", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_main_semirings_listing(capsys):
    assert main(["semirings"]) == 0
    names = json.loads(capsys.readouterr().out)
    assert names == ["nonneg-real", "max-plus", "max-plus-complete", "max-min", "boolean"]


# -- bench -----------------------------------------------------------------------

def test_bench_single_size_has_empty_ratio():
    table = run_bench("max-plus", "durbin", [16], seeds=1)
    assert len(table["rows"]) == 1
    assert table["rows"][0]["mul_ratio"] is None
    assert table["rows"][0]["mul_count"] > 0


def test_bench_growth_ratio_quadratic():
    table = run_bench("max-plus", "durbin", [32, 64], seeds=2)
    ratio = table["rows"][1]["mul_ratio"]
    assert 3.5 <= ratio <= 4.5


def test_bench_growth_ratio_cubic_for_bordering():
    table = run_bench("max-plus", "bordering", [64, 128], seeds=1)
    ratio = table["rows"][1]["mul_ratio"]
    assert 7.0 <= ratio <= 9.0


def test_bench_validation():
    with pytest.raises(sp.IncompatibleRequest):
        run_bench("max-plus", "durbin", [64, 32], seeds=1)
    with pytest.raises(sp.IncompatibleRequest):
        run_bench("max-plus", "durbin", [], seeds=1)
    with pytest.raises(sp.IncompatibleRequest):
        run_bench("max-plus", "durbin", [8], seeds=0)


def test_bench_deterministic_given_seed():
    t1 = run_bench("nonneg-real", "levinson", [4, 8], seeds=3)
    t2 = run_bench("nonneg-real", "levinson", [4, 8], seeds=3)
    assert json.dumps(t1) == json.dumps(t2)
    assert t1["seed"] == 42


@pytest.mark.parametrize("name,sizes,seeds", [
    ("max-plus", [2, 5, 9], 3),
    ("nonneg-real", [2, 4], 2),
])
def test_bench_reads_no_environment(monkeypatch, name, sizes, seeds):
    # series counts follow the draws, so a seed read from the environment shows here
    monkeypatch.delenv("SEMIPATH_SEED", raising=False)
    unset = run_bench(name, "series", sizes, seeds)
    monkeypatch.setenv("SEMIPATH_SEED", "7")
    assert json.dumps(run_bench(name, "series", sizes, seeds)) == json.dumps(unset)


def test_bench_series_on_nonneg_real_stabilizes():
    # the draws contract by up to 0.85, within the float series budget
    for sizes, seeds in (([1, 2, 3, 5, 8], 3), ([2, 4], 3), ([16], 5)):
        table = run_bench("nonneg-real", "series", sizes, seeds)
        assert [row["size"] for row in table["rows"]] == sizes


def test_bench_series_on_max_plus_complete():
    table = run_bench("max-plus-complete", "series", [2, 5, 9], 3)
    assert [row["size"] for row in table["rows"]] == [2, 5, 9]


def test_bench_solves_each_instance_once_through_a_counter(monkeypatch):
    solved = []

    def recording_solve(sr, *args):
        solved.append(sr)
        return solve(sr, *args)

    def no_clock():
        raise AssertionError("run_bench read the clock")

    solve = cli._solve
    monkeypatch.setattr(cli, "_solve", recording_solve)
    monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=no_clock))
    table = run_bench("max-plus", "levinson", [4, 8], 3)
    assert len(solved) == 6
    assert all(isinstance(sr, sp.CountingSemiring) for sr in solved)
    assert [list(row) for row in table["rows"]] == [
        ["size", "seeds", "add_count", "mul_count", "closure_count", "inverse_count",
         "mul_ratio"],
    ] * 2


def test_main_bench_command(capsys):
    code = main(["bench", "--semiring", "max-plus", "--algorithm", "levinson",
                 "--sizes", "8,16", "--seeds", "2"])
    assert code == 0
    table = json.loads(capsys.readouterr().out)
    assert [row["size"] for row in table["rows"]] == [8, 16]


def test_main_bench_bad_sizes(capsys):
    assert main(["bench", "--semiring", "max-plus", "--algorithm", "durbin",
                 "--sizes", "8,oops", "--seeds", "1"]) == 2


def test_main_bench_typed_error_exit_2(capsys):
    code = main(["bench", "--semiring", "max-min", "--algorithm", "durbin",
                 "--sizes", "8,4", "--seeds", "1"])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "IncompatibleRequest"


# -- instance generators ----------------------------------------------------------

# (instance, n, seed, random_yule_walker, then random_bellman on the same rng,
#  then the next rng.random()): the exact stream.  The instances behind every
# seeded `semipath bench` table come from it.
GENERATOR_STREAM = [
    ("nonneg-real", 1, 3, (0.07917491139948901, [0.18064797342838124]),
     (0.07896735545401048, [], [0.013167991554874137]), 0.83746908209646),
    ("nonneg-real", 3, 11,
     (0.055139849198654785, [0.06820092473045043, 0.11252376002651591, 0.056753804388944375]),
     (0.18059510597513964, [0.05698540789943785, 0.1574289231834529],
      [0.7929768725199526, 0.09412345622921847, 0.3034012626245255]), 0.0906705374918394),
    ("max-plus", 1, 3, (-7, [-1]), (-2, [], [-5]), 0.9159448117309811),
    ("max-plus", 3, 11, (-3, [-2, -3, -3]), (-2, [-1, -7], [-8, -2, -3]), 0.6298827202168019),
    ("max-plus-complete", 1, 3, (-3, [8]), (7, [], [1]), 0.9159448117309811),
    ("max-plus-complete", 3, 11, (4, [7, 4, 4]), (6, [8, -4], [-5, 6, 5]), 0.6298827202168019),
    ("max-min", 1, 3, (-3, [8]), (7, [], [1]), 0.9159448117309811),
    ("max-min", 3, 11, (4, [7, 4, 4]), (6, [8, -4], [-5, 6, 5]), 0.6298827202168019),
    ("boolean", 1, 3, (0, [0]), (1, [], [0]), 0.6055995301393269),
    ("boolean", 3, 11, (1, [1, 1, 0]), (0, [1, 0], [0, 1, 1]), 0.14179512925945614),
]


@pytest.mark.parametrize("name,n,seed,yule_walker,bellman,tail", GENERATOR_STREAM)
@pytest.mark.parametrize("counted", [False, True])
def test_generator_stream_is_pinned(name, n, seed, yule_walker, bellman, tail, counted):
    sr = sp.get_semiring(name)
    if counted:
        sr = sp.CountingSemiring(sr)
    rng = random.Random(seed)
    assert random_yule_walker(sr, n, rng) == yule_walker
    assert random_bellman(sr, n, rng) == bellman
    assert rng.random() == tail


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_generator_sizes_out_of_range_raise_typed_errors(name):
    sr = sp.get_semiring(name)
    rng = random.Random(0)
    r0, r = random_yule_walker(sr, 0, rng)
    assert sr.contains(r0) and r == []
    with pytest.raises(sp.IncompatibleRequest):
        random_yule_walker(sr, -1, rng)
    with pytest.raises(sp.IncompatibleRequest):
        random_bellman(sr, 0, rng)
    with pytest.raises(sp.IncompatibleRequest):
        random_bellman(sr, -3, rng)


def test_generator_rejects_an_instance_without_a_draw_rule():
    class Plain(sp.Semiring):
        name = "plain"

    with pytest.raises(sp.IncompatibleRequest, match="no instance generator"):
        random_yule_walker(Plain(), 3, random.Random(0))


def test_bench_runs_a_newly_registered_complete_semiring(monkeypatch):
    class Bottleneck(MaxMin):
        name = "bottleneck"

    monkeypatch.setitem(REGISTRY, "bottleneck", Bottleneck())
    plugged = run_bench("bottleneck", "levinson", [2, 4, 8], 2)
    reference = run_bench("max-min", "levinson", [2, 4, 8], 2)
    assert plugged["semiring"] == "bottleneck"
    assert plugged["rows"] == reference["rows"]


# -- import path ----------------------------------------------------------------

IMPORT_PROBE = """
import io, json, sys
from contextlib import redirect_stdout
before = set(sys.modules)
import semipath.cli
loaded = sorted(set(sys.modules) - before)


def solve(algorithm):
    out = io.StringIO()
    with redirect_stdout(out):
        code = semipath.cli.main(["solve", "--semiring", "max-plus", "--algorithm", algorithm,
                                  "--check", "--input", sys.argv[1]])
    modules = sorted(m for m in sys.modules if m.split(".")[0] == "semipath")
    return {"code": code, "report": json.loads(out.getvalue()), "modules": modules}


levinson = solve("levinson")
bordering = solve("bordering")
from semipath import CountingSemiring, OpCounter
import dataclasses
print(json.dumps({"loaded": loaded, "levinson": levinson, "bordering": bordering,
                  "counter_is_dataclass": dataclasses.is_dataclass(OpCounter),
                  "wrapper": CountingSemiring.__name__}))
"""


def _probe(source, *argv):
    """Run ``source`` in a fresh interpreter, so this process's imports do not
    count, and decode the JSON it prints."""
    src = os.path.dirname(os.path.dirname(sp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", source, *argv], env=env,
                          capture_output=True, text=True, check=True, timeout=60)
    return json.loads(proc.stdout)


def test_cli_import_leaves_dataclasses_and_the_counter_unloaded(tmp_path):
    # the probe lists the modules that importing the cli added, then those a
    # Toeplitz solve and a bordering solve of one file leave loaded
    path = write(tmp_path, {"semiring": "max-plus", "r0": -1, "r": [-2, -3], "b": [0, -1, -2]})
    probe = _probe(IMPORT_PROBE, path)
    assert not {"dataclasses", "inspect", "ast", "dis", "semipath.counting"} & set(probe["loaded"])
    levinson, bordering = probe["levinson"], probe["bordering"]
    # the quadratic path needs neither the dense nor the cubic module
    assert levinson["modules"] == ["semipath", "semipath.cli", "semipath.errors",
                                   "semipath.semirings", "semipath.toeplitz"]
    assert {"semipath.bordering", "semipath.matrices"} <= set(bordering["modules"])
    assert levinson["code"] == bordering["code"] == 0
    assert levinson["report"]["residual_ok"] is bordering["report"]["residual_ok"] is True
    assert levinson["report"]["solution"] == bordering["report"]["solution"] == [0, -1, -2]
    assert probe["counter_is_dataclass"] is True  # benchmarks/layers.py calls asdict on it
    assert probe["wrapper"] == "CountingSemiring"


TIMER_PROBE = """
import json, sys, time
import semipath.cli

clock, loaded_at_start = time.perf_counter, []


def probed_clock():
    loaded_at_start.append(
        sorted(m for m in ("semipath.bordering", "semipath.matrices") if m in sys.modules))
    return clock()


inst = semipath.cli.parse_instance(sys.argv[1])
time.perf_counter = probed_clock
report = semipath.cli.run_solve(inst, sys.argv[2])
print(json.dumps({"loaded": loaded_at_start[0], "solution": report["solution"]}))
"""


@pytest.mark.parametrize("algorithm,loaded", [
    ("levinson", []),
    ("bordering", ["semipath.bordering", "semipath.matrices"]),
    ("series", ["semipath.bordering", "semipath.matrices"]),
])
def test_elapsed_starts_after_the_solver_modules_load(tmp_path, algorithm, loaded):
    # ``elapsed`` must not time an import: the dense and cubic modules are
    # loaded when the clock starts, and only for the routes that use them
    path = write(tmp_path, {"semiring": "max-plus", "r0": -1, "r": [-2], "b": [0, -1]})
    probe = _probe(TIMER_PROBE, path, algorithm)
    assert probe["loaded"] == loaded
    assert probe["solution"] == [0, -1]


#: the public names, under the module that defines each
PUBLIC_NAMES = {
    "semipath.semirings": [
        "Semiring", "NonNegReal", "MaxPlus", "MaxPlusComplete", "MaxMin", "Boolean",
        "REGISTRY", "get_semiring", "axiom_suite", "NEG_INF", "POS_INF",
    ],
    "semipath.counting": ["CountingSemiring", "OpCounter"],
    "semipath.matrices": ["Matrix"],
    "semipath.bordering": [
        "bordering_closure", "bordering_solve", "series_closure", "enumerate_solutions",
    ],
    "semipath.toeplitz": [
        "SymToeplitz", "durbin", "durbin_steps", "levinson", "levinson_steps",
        "residual_check", "SolveState",
        "VARIANTS", "VARIANT_RECOMPUTE", "VARIANT_RECURSIVE", "VARIANT_FALLBACK",
    ],
    "semipath.errors": [
        "SemipathError", "ShapeMismatch", "InstanceMismatch", "UnsupportedInstance",
        "SolverUndefined", "ClosureUndefined", "OutsideCarrier", "NotStabilized",
        "EnumerationTooLarge", "ParseError", "UnknownSemiring", "BadSentinel",
        "IncompatibleRequest",
    ],
}

PACKAGE_PROBE = """
import json, sys
import semipath
listed = dir(semipath)
untouched = sorted(m for m in sys.modules if m.startswith("semipath."))
from semipath import cli
print(json.dumps({"dir": listed, "all": semipath.__all__, "untouched": untouched,
                  "cli": cli.__name__}))
"""


def test_each_public_name_resolves_to_its_defining_module():
    homes = {name: module for module, names in PUBLIC_NAMES.items() for name in names}
    assert len(homes) == 42
    assert len(sp.__all__) == len(set(sp.__all__)) == 42
    assert set(sp.__all__) == set(homes)
    for name, module in homes.items():
        value = getattr(sp, name)
        assert value is getattr(importlib.import_module(module), name), name
        if callable(value):
            assert value.__module__ == module, name

    star = {}
    exec("from semipath import *", star)
    assert set(homes) <= set(star)

    with pytest.raises(AttributeError, match="no_such_name"):
        sp.no_such_name

    # a fresh interpreter: dir() lists every name before any is loaded, and
    # ``from semipath import cli`` falls back to the submodule
    probe = _probe(PACKAGE_PROBE)
    assert probe["untouched"] == []
    assert set(probe["all"]) <= set(probe["dir"])
    assert probe["cli"] == "semipath.cli"
