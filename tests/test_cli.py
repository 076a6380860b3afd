import json
import os
import subprocess
import sys
import time
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import pytest

from monoval import cli
from monoval.emit import to_jsonable
from monoval.exactnum import CFExpansion, CFStream, _clipped, cf_expand, cf_value, sqrt2_stream
from monoval.resolution import ThroughOrigin, resolve
from monoval.valtree import positive_path
from monoval.valuation import MonomialValuation


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cf_text(capsys):
    code, out, _ = run(capsys, "cf", "24/7")
    assert code == 0
    assert out == "24/7 = [3; 2, 3]\n"


def test_cf_json(capsys):
    code, out, _ = run(capsys, "cf", "24/7", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"digits": [3, 2, 3]}


def test_cf_negative_rational(capsys):
    code, out, _ = run(capsys, "cf", "-7/3")
    assert code == 0
    assert out == "-7/3 = [-3; 1, 2]\n"
    code, out, _ = run(capsys, "cf", "-7/3", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"digits": [-3, 1, 2]}
    code, _, err = run(capsys, "cf", "--bogus")
    assert code == 1 and err.startswith("usage error:")


def test_cf_bad_input(capsys):
    code, _, err = run(capsys, "cf", "24/seven")
    assert code == 1 and err
    code, _, err = run(capsys, "cf", "1/0")
    assert code == 1 and err


def test_path_text_and_json(capsys):
    code, out, _ = run(capsys, "path", "3", "2")
    assert code == 0
    assert "k[x/y, y^2/x]" in out and "complete" in out
    code, out, _ = run(capsys, "path", "24", "7", "--format", "json")
    data = json.loads(out)
    assert len(data["vertices"]) == 8 and data["status"] == "complete"


def test_path_stream(capsys):
    code, out, _ = run(capsys, "path", "--stream", "sqrt2", "--max-steps", "10")
    assert code == 0
    assert out.count("k[") == 10 and "truncated" in out
    # explicit preperiod;period spec: sqrt(3) = [1; 1, 2, 1, 2, ...]
    code, out, _ = run(capsys, "path", "--stream", "1;1,2", "--max-steps", "6", "--format", "json")
    assert code == 0
    assert json.loads(out)["status"] == "truncated"


def test_path_usage_errors(capsys):
    code, _, err = run(capsys, "path", "3")
    assert code == 1 and err
    code, _, err = run(capsys, "path", "3", "2", "--stream", "sqrt2")
    assert code == 1
    code, _, err = run(capsys, "path", "--stream", "1,2,3")  # no period
    assert code == 1
    code, _, err = run(capsys, "path", "3", "3")  # nu(x) = nu(y)
    assert code == 1


def test_ringgens(capsys):
    code, out, _ = run(capsys, "ringgens", "24", "7", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"u": "y^24/x^7", "v": "x^5/y^17", "p": 5, "q": 17}
    code, out, _ = run(capsys, "ringgens", "3", "2")
    assert "u = y^3/x^2" in out and "v = x/y" in out
    code, _, err = run(capsys, "ringgens", "4", "2")
    assert code == 1


def test_member(capsys):
    code, out, _ = run(capsys, "member", "x/y", "--a", "3", "--b", "2")
    assert code == 0 and "member of" in out and "(value 1)" in out
    code, out, _ = run(capsys, "member", "y/x", "--a", "3", "--b", "2")
    assert code == 0 and "not a member" in out
    code, out, _ = run(capsys, "member", "x^2/y^3", "--a", "3", "--b", "2", "--format", "json")
    data = json.loads(out)
    assert data["member"] is True and data["value"] == "0"


def test_member_expression_with_a_leading_minus(capsys):
    code, out, _ = run(capsys, "member", "-x^2", "--a", "3", "--b", "2", "--format", "json")
    assert code == 0 and json.loads(out)["value"] == "6"
    code, out, _ = run(capsys, "member", "-y", "--a", "3", "--b", "2")
    assert code == 0 and out == "-y: member of the valuation ring for nu(x) = 3, nu(y) = 2 (value 2)\n"
    code, out, err = run(capsys, "member", "-x^2", "--a", "3", "--b", "2", "--bogus")
    assert code == 1 and out == "" and err.startswith("usage error:")


def test_member_deep_nesting(capsys):
    deep = "(" * 3000 + "x" + ")" * 3000
    code, out, err = run(capsys, "member", deep, "--a", "3", "--b", "2")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "Traceback" not in err
    assert "nest deeper than" in err
    nested = "(" * 100 + "x^2/y^3" + ")" * 100
    code, out, _ = run(capsys, "member", nested, "--a", "3", "--b", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["member"] is True and data["value"] == "0"


def test_member_zero_function(capsys):
    code, out, _ = run(capsys, "member", "y - y", "--a", "3", "--b", "2")
    assert code == 0 and "member of" in out and "infinity" in out


def test_member_errors(capsys):
    code, _, err = run(capsys, "member", "x +", "--a", "3", "--b", "2")
    assert code == 1 and "position" in err
    code, _, err = run(capsys, "member", "1/(y-y)", "--a", "3", "--b", "2")
    assert code == 1


def test_member_reports_an_expression_error_before_bad_weights(capsys):
    code, out, err = run(capsys, "member", "1/(y-y)", "--a", "0", "--b", "2")
    assert (code, out, err) == (1, "", "error: division by zero (at position 1)\n")
    for a, b in (("0", "2"), ("1", "0")):
        code, out, err = run(capsys, "member", "x", "--a", a, "--b", b)
        assert (code, out, err) == (1, "", "error: nu(x) and nu(y) must both be positive\n")


def test_member_reports_bad_weights_at_once_behind_a_large_expression(capsys):
    # Looking for an expression error expands nothing large, and work past
    # the budget is no expression error: the last two powers tie and cancel,
    # and x^20001 is heavier, so the search meets the budget.
    for expression in ("(x+y)^2000", "(x+y)^20000 - (x+y)^20000 + x", "(x - y)^900 * (x + y)^900",
                       "(x+y)^20000 - (x+y)^20000 + x^20001"):
        start = time.perf_counter()
        code, out, err = run(capsys, "member", expression, "--a", "0", "--b", "2")
        assert (code, out, err) == (1, "", "error: nu(x) and nu(y) must both be positive\n")
        assert time.perf_counter() - start < 0.5


def test_member_refuses_work_past_its_budget(capsys):
    # The two powers cancel and y^20001 is heavier, so the difference is
    # computed exactly, past the budget.
    code, out, err = run(capsys, "member", "(x+y)^20000 - (x+y)^20000 + y^20001", "--a", "3", "--b", "2")
    assert (code, out) == (1, "") and err.count("\n") == 1
    assert err.startswith("error: the power would take the evaluation past its work budget")
    code, out, _ = run(capsys, "member", "(x+y)^20000", "--a", "3", "--b", "2")
    assert code == 0 and out.endswith("(value 40000)\n")


def test_member_charges_nothing_for_the_operand_a_sum_drops(capsys):
    # With a = b = 1 the initial form of (x+y)^20000 is the whole power,
    # past the budget: alone it is never built, and a sum of equal weights
    # builds it.  As the heavier operand of a sum it is never built.
    start = time.perf_counter()
    code, out, err = run(capsys, "member", "(x+y)^20000*3^3000000", "--a", "1", "--b", "1")
    assert (code, err) == (0, "") and out.endswith("(value 20000)\n")
    assert time.perf_counter() - start < 0.5
    code, out, err = run(capsys, "member", "x^20000 + (x+y)^20000*3^3000000", "--a", "1", "--b", "1")
    assert (code, out) == (1, "") and err.startswith(
        "error: the power would take the evaluation past its work budget")
    start = time.perf_counter()
    code, out, err = run(capsys, "member", "x + (x+y)^20000*3^3000000", "--a", "1", "--b", "1")
    assert (code, err) == (0, "") and out.endswith("(value 1)\n")
    assert time.perf_counter() - start < 0.5


def test_member_drops_a_sum_of_equal_weights_unbuilt_when_a_lighter_operand_outweighs_it(capsys):
    # With a = b = 1 the two powers tie, and building their sum would pass
    # the budget; x is strictly lighter than that sum, cancel as it may.
    for expression, value in (("x + ((x+y)^1300 + (x+y)^1300)", 1),
                              ("x*(x + ((x+y)^1300 + (x+y)^1300))", 2)):
        start = time.perf_counter()
        code, out, err = run(capsys, "member", expression, "--a", "1", "--b", "1")
        assert (code, err) == (0, "") and out.endswith(f"(value {value})\n")
        assert time.perf_counter() - start < 0.5


def test_resolve(capsys):
    code, out, _ = run(capsys, "resolve", "3", "2")
    assert code == 0 and "3 blow-ups" in out
    code, out, _ = run(capsys, "resolve", "3", "2", "--trace")
    assert "V(y^2) + V(-(y - (x/y)^2))" in out
    code, out, _ = run(capsys, "resolve", "24", "7", "--format", "json")
    assert json.loads(out)["count"] == 8
    code, out, _ = run(capsys, "resolve", "3", "2", "--format", "dot")
    assert out.startswith("digraph resolution_trace {")
    code, _, err = run(capsys, "resolve", "4", "2")
    assert code == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["resolve", "2", "2"], "need a > b > 1"),
        (["ringgens", "3", "3"], "need a > b >= 1"),
        (["resolve", "6", "4"], "(6, 4) are not coprime"),
        (["ringgens", "4", "2"], "(4, 2) are not coprime"),
    ],
)
def test_a_pair_that_is_not_ordered_and_coprime_is_one_error_line(capsys, argv, message):
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


def test_verify_ok(capsys):
    code, out, _ = run(capsys, "verify", "--max", "10")
    assert code == 0 and "all checks passed" in out
    code, out, _ = run(capsys, "verify", "--max", "2")
    assert code == 0 and "0 coprime pairs" in out  # empty sweep passes
    code, out, _ = run(capsys, "verify", "--max", "8", "--format", "json")
    assert json.loads(out)["all_passed"] is True


def test_verify_failure_exit_code(capsys, monkeypatch):
    from monoval.verify import Failure, VerifyReport

    def fake_run_verify(max_a):
        report = VerifyReport(max_a=max_a, pairs=1)
        report.checks["blow-up-count"].record(False)
        report.first_failure = Failure(3, 2, "blow-up-count", "synthetic")
        return report

    monkeypatch.setattr(cli, "run_verify", fake_run_verify)
    code, out, _ = run(capsys, "verify", "--max", "5")
    assert code == 2
    assert "FAILURES FOUND" in out and "synthetic" in out


def test_unknown_flags_rejected(capsys):
    code, _, err = run(capsys, "cf", "3/2", "--frobnicate")
    assert code == 1
    code, _, err = run(capsys, "cf", "3/2", "--format", "dot")  # dot not offered here
    assert code == 1
    code, _, err = run(capsys, "frobnicate")
    assert code == 1


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "path.json"
    code, out, _ = run(capsys, "path", "3", "2", "--format", "json", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["status"] == "complete"


def test_cf_zero_denominator(capsys):
    code, out, err = run(capsys, "cf", "1/0")
    assert code == 1 and out == ""
    assert err == "error: cannot read '1/0': the denominator is zero\n"


def test_out_unwritable_path(capsys, tmp_path, monkeypatch):
    for target in (tmp_path / "missing" / "f.json", tmp_path):
        code, out, err = run(capsys, "cf", "24/7", "--out", str(target))
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot write {_clipped(str(target))}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    # an OSError with no strerror is quoted by its message
    def refuse(path, chunks):
        raise OSError("quota exceeded")

    monkeypatch.setattr(cli, "_write_file", refuse)
    assert run(capsys, "cf", "24/7", "--out", "f") == (1, "", "error: cannot write f: quota exceeded\n")


def first_vertex_past_640_digits() -> int:
    # Found with str() while the default limit of 4300 digits still allows it.
    path = positive_path(MonomialValuation.from_stream(sqrt2_stream()), max_steps=4000)
    return next(
        i
        for i, v in enumerate(path)
        if any(len(str(abs(e))) > 640 for e in (v.f.ex, v.f.ey, v.g.ex, v.g.ey))
    )


def run_under_640_digits(capsys, *argv):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        return run(capsys, *argv)
    finally:
        sys.set_int_max_str_digits(old)


def test_path_past_the_int_str_limit_fails_before_output(capsys):
    first = first_vertex_past_640_digits()
    code, out, err = run_under_640_digits(
        capsys, "path", "--stream", "sqrt2", "--max-steps", "4000", "--format", "json"
    )
    assert code == 1 and out == ""
    assert err == (
        f"error: vertex {first} of the path has an exponent longer than 640 digits,"
        " the interpreter's limit for printing an integer\n"
    )


def test_path_stops_walking_at_the_first_unprintable_vertex(capsys, monkeypatch):
    first = first_vertex_past_640_digits()
    produced = []
    real_walk = cli.walk_runs

    def counting_walk(nu):
        for run in real_walk(nu):
            produced.append(run)
            yield run

    monkeypatch.setattr(cli, "walk_runs", counting_walk)
    # Six times the failing index: a walk that went on to the end would
    # produce the runs of all 20,000 vertices, with exponents of thousands
    # of digits.
    code, out, err = run_under_640_digits(
        capsys, "path", "--stream", "sqrt2", "--max-steps", "20000", "--format", "json"
    )
    assert code == 1 and out == ""
    assert err.startswith(f"error: vertex {first} of the path has an exponent longer than 640")
    assert sum(n for _, n in produced[:-1]) <= first


def test_bisection_finds_the_first_index_that_passes():
    for n in range(1, 70):
        for first in range(n):
            assert cli._first(n, lambda j: j >= first) == first
    assert cli._first(10**4000, lambda j: j >= 10**3999 + 7) == 10**3999 + 7


def test_path_names_the_first_unprintable_vertex_inside_a_run(capsys):
    # Digits of 50: the first vertex past 640 digits is the 13th of its run,
    # which the check finds by bisection.
    nu = MonomialValuation.from_stream(CFStream.from_periodic([1], [50]))
    first = next(
        i
        for i, v in enumerate(positive_path(nu, max_steps=20000))
        if max(abs(v.f.ex), abs(v.f.ey), abs(v.g.ex), abs(v.g.ey)) >= 10**640
    )
    assert first == 18814
    code, out, err = run_under_640_digits(
        capsys, "path", "--stream", "1;50", "--max-steps", "20000", "--format", "json"
    )
    assert code == 1 and out == ""
    assert err.startswith(f"error: vertex {first} of the path has an exponent longer than 640")


def test_path_refuses_a_vertex_inside_a_run_only_when_it_is_printed(capsys):
    # Digits of 5: the first vertex past 640 digits is the third of its run
    # of five, so both budgets below end inside that run.
    nu = MonomialValuation.from_stream(CFStream.from_periodic([1], [5]))
    path = positive_path(nu, max_steps=6000)
    first = next(
        i
        for i, v in enumerate(path)
        if max(abs(v.f.ex), abs(v.f.ey), abs(v.g.ex), abs(v.g.ey)) >= 10**640
    )
    starts = [0, *accumulate(n for _, n in path.runs)]
    r = bisect_right(starts, first) - 1
    assert starts[r] < first - 1 and first + 1 < starts[r + 1]
    code, out, err = run_under_640_digits(
        capsys, "path", "--stream", "1;5", "--max-steps", str(first), "--format", "json"
    )
    assert code == 0 and err == "" and len(json.loads(out)["vertices"]) == first
    for fmt in ("json", "dot", "text"):
        assert run_under_640_digits(
            capsys, "path", "--stream", "1;5", "--max-steps", str(first + 1), "--format", fmt
        ) == (1, "", f"error: vertex {first} of the path has an exponent longer than 640 digits,"
                     " the interpreter's limit for printing an integer\n")


def test_a_stream_of_ones_is_refused_at_a_vertex_that_starts_its_own_run(capsys):
    # [1; 1, 1, ...]: past the root every run is one vertex long, so the
    # guard reads each run's only vertex, which is also its first.
    nu = MonomialValuation.from_stream(CFStream.from_periodic([1], [1]))
    path = positive_path(nu, max_steps=4000)
    first = next(
        i
        for i, v in enumerate(path)
        if max(abs(v.f.ex), abs(v.f.ey), abs(v.g.ex), abs(v.g.ey)) >= 10**640
    )
    starts = [0, *accumulate(n for _, n in path.runs)]
    assert first in starts and starts[starts.index(first) + 1] == first + 1
    code, out, err = run_under_640_digits(
        capsys, "path", "--stream", "1;1", "--max-steps", str(first), "--format", "json"
    )
    assert code == 0 and err == "" and len(json.loads(out)["vertices"]) == first
    for fmt in ("json", "dot", "text"):
        assert run_under_640_digits(
            capsys, "path", "--stream", "1;1", "--max-steps", str(first + 1), "--format", fmt
        ) == (1, "", f"error: vertex {first} of the path has an exponent longer than 640 digits,"
                     " the interpreter's limit for printing an integer\n")


def test_a_run_whose_bound_reaches_the_limit_is_read_exactly():
    # The second run's bound, 2 * (5 * 10**639 + 2), reaches 10**640, but
    # neither of its vertices does: they print.  The third run's exponent
    # 2 - 10**640 - j first reaches it at j = 2, vertex 5 of the path.
    def guard(count):
        runs = [((1, 0, 0, 1), 1), ((1, 0, 5 * 10**639, 1), 2), ((1, 0, 2 - 10**640, 1), 3)]
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            taken = cli._printable_runs(iter(runs), count, cli._VERTEX, cli._base_at,
                                        lambda i: f"vertex {i} has an exponent")
            return list(taken) == runs
        finally:
            sys.set_int_max_str_digits(old)

    assert guard(3) and guard(5)
    with pytest.raises(ValueError, match="^vertex 5 has an exponent longer than 640 digits"):
        guard(6)


def test_path_does_not_refuse_the_vertex_after_the_last(capsys):
    # The walk is asked for one vertex past --max-steps to tell whether the
    # path is complete; that vertex is not printed, so it may be too long.
    first = first_vertex_past_640_digits()
    code, out, err = run_under_640_digits(
        capsys, "path", "--stream", "sqrt2", "--max-steps", str(first), "--format", "json"
    )
    assert code == 0 and err == ""
    path = json.loads(out)
    assert path["status"] == "truncated" and len(path["vertices"]) == first


def first_step_past_640_digits(trace) -> int:
    """The index of the first step whose chart or children hold an integer past 640 digits.

    Found with str() under the default limit, over every integer of the
    three charts, which holds every integer JSON and --trace print.
    """

    def ints(c):
        p = c.proper
        powers = (p.s, p.t) if isinstance(p, ThroughOrigin) else (p.f_exp, p.g_exp)
        return (c.basis.f.ex, c.basis.f.ey, c.basis.g.ex, c.basis.g.ey, c.exc_f, c.exc_g, *powers)

    return next(
        i
        for i, step in enumerate(trace.steps)
        if any(len(str(abs(n))) > 640
               for c in (step.chart, *(child for child, _ in step.children)) for n in ints(c))
    )


def refusal_of_blow_up(i: int) -> str:
    return (f"error: blow-up {i} of the resolution prints an integer longer than 640"
            " digits, the interpreter's limit for printing an integer\n")


def test_resolve_past_the_int_str_limit_fails_before_output(capsys):
    # A Fibonacci pair of 400 digits: exponents stay below 640 digits while
    # the exceptional multiplicities pass it.
    a, b = 1, 1
    while len(str(a)) < 400:
        a, b = a + b, a
    first = first_step_past_640_digits(resolve(a, b))
    message = refusal_of_blow_up(first + 1)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        results = {
            fmt: run(capsys, "resolve", str(a), str(b), *fmt)
            for fmt in (("--format", "json"), ("--trace",), ("--format", "dot"),
                        ("--format", "dot", "--trace"), ())
        }
    finally:
        sys.set_int_max_str_digits(old)
    for fmt in (("--format", "json"), ("--trace",)):
        assert results[fmt] == (1, "", message)
    for fmt in (("--format", "dot"), ("--format", "dot", "--trace"), ()):
        code, out, err = results[fmt]
        assert code == 0 and err == "" and out
    # --trace changes text output only
    assert results[("--format", "dot", "--trace")] == results[("--format", "dot")]


@pytest.mark.parametrize("digit, length, place", [(10, 324, "first"), (9, 338, "last")])
def test_resolve_refuses_at_the_first_or_last_row_of_a_run(capsys, digit, length, place):
    # a/b = [digit; digit, ...]: its resolution runs are about digit rows
    # long, and these lengths put the first unprintable blow-up at the
    # named end of a run of more than one row.
    h, h1, k, k1 = 1, 0, 0, 1
    for _ in range(length):
        h, h1, k, k1 = digit * h + h1, h, digit * k + k1, k
    trace = resolve(h, k)
    first = first_step_past_640_digits(trace)
    starts = [0, *accumulate(n for _, n in trace.runs)]
    r = bisect_right(starts, first) - 1
    assert starts[r + 1] - starts[r] > 1
    assert first == (starts[r] if place == "first" else starts[r + 1] - 1)
    for fmt in (("--format", "json"), ("--trace",)):
        result = run_under_640_digits(capsys, "resolve", str(h), str(k), *fmt)
        assert result == (1, "", refusal_of_blow_up(first + 1))


# ------------------------------------------------- one parser per process


def test_calls_in_one_process_share_no_arguments(capsys, tmp_path):
    target = tmp_path / "cf.json"
    assert run(capsys, "cf", "24/7", "--format", "json", "--out", str(target)) == (0, "", "")
    assert run(capsys, "cf", "24/7") == (0, "24/7 = [3; 2, 3]\n", "")  # no --out, text
    code, out, _ = run(capsys, "resolve", "24", "7", "--trace")
    assert code == 0 and "steps:" in out
    code, out, _ = run(capsys, "resolve", "24", "7")
    assert code == 0 and "steps:" not in out
    code, out, _ = run(capsys, "path", "--stream", "sqrt2", "--max-steps", "3")
    assert code == 0 and "truncated" in out
    code, out, _ = run(capsys, "path", "24", "7")  # no stream; a + b steps by default
    assert code == 0 and out.endswith("status: complete (8 vertices)\n")


def test_a_usage_error_after_a_successful_call_is_one_line(capsys):
    assert run(capsys, "ringgens", "24", "7")[0] == 0
    code, out, err = run(capsys, "ringgens", "24")
    assert (code, out) == (1, "") and err.startswith("usage error:") and err.count("\n") == 1
    assert run(capsys, "ringgens", "24", "7")[0] == 0


def test_a_command_named_first_is_parsed_by_its_own_parser_alone(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the top-level parser parsed an argv that names its command first")

    monkeypatch.setattr(cli._parser(), "parse_known_args", refuse)
    assert run(capsys, "cf", "24/7") == (0, "24/7 = [3; 2, 3]\n", "")
    assert run(capsys, "ringgens", "24") == (1, "", "usage error: the following arguments are required: b\n")
    with pytest.raises(AssertionError, match="the top-level parser parsed"):
        cli.main(["--format", "json", "cf", "24/7"])


@pytest.mark.parametrize("argv", [["-h"], ["cf", "-h"], ["resolve", "--help"]])
def test_help_is_the_text_of_a_fresh_parser(capsys, argv):
    with pytest.raises(SystemExit) as fresh:
        cli.build_parser().parse_args(argv)
    expected = capsys.readouterr().out
    assert fresh.value.code == 0 and expected.startswith("usage: monoval")
    for _ in range(2):
        run(capsys, "cf", "3/2", "--format", "json")
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0 and capsys.readouterr().out == expected


def test_help_prints_the_docstring_but_its_note_on_the_code(capsys):
    with pytest.raises(SystemExit):
        cli.main(["-h"])
    out = " ".join(capsys.readouterr().out.split())
    assert "Commands: cf, path, ringgens, member, resolve, verify." in out
    assert "2 verification failure." in out and "once per process" not in out


def subprocess_env():
    """The environment, with this package's ``src`` first on PYTHONPATH, for a fresh interpreter."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def test_importing_the_cli_builds_no_parser():
    program = """if True:
        import argparse
        import sys
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        argparse.ArgumentParser.__init__ = counting_init
        from monoval import cli
        print(len(built), file=sys.stderr)
        cli.main(["cf", "1/2"])
        print(len(built), file=sys.stderr)
        cli.main(["cf", "2/3"])
        print(len(built), file=sys.stderr)
    """
    counts = subprocess.run([sys.executable, "-c", program], env=subprocess_env(), capture_output=True,
                            text=True, check=True).stderr
    # None at import; the parser and its subparsers on the first call, none on the second.
    at_import, first, second = map(int, counts.split())
    assert at_import == 0 and first > 0 and second == first, counts


@pytest.mark.parametrize(
    "rational", ["-7/3", "5", "-9", "0", f"{7**355}/{3**400}", "255", "256",
                 str(cf_value(CFExpansion((-1, 255, 256, 10**300, 2))))],
    ids=["negative", "integral", "negative integral", "zero", "300 digits",
         "the last tabled digit", "the first untabled digit", "digits straddling the table"],
)
def test_cf_json_is_json_dumps_of_to_jsonable(capsys, rational):
    code, out, err = run(capsys, "cf", rational, "--format", "json")
    expected = json.dumps(to_jsonable(cf_expand(Fraction(rational))), sort_keys=True, indent=2)
    assert (code, out, err) == (0, expected, "")
    # The text answer prints every digit as str does.
    head, *tail = cf_expand(Fraction(rational)).digits
    text = f"[{head}; {', '.join(map(str, tail))}]" if tail else f"[{head}]"
    assert run(capsys, "cf", rational) == (0, f"{Fraction(rational)} = {text}\n", "")


def run_in_a_subprocess(limit, argvs):
    """``run`` of each argv in one fresh interpreter under int-str limit ``limit``.

    It is killed after 60 s, so a request that hangs fails the test
    instead of stalling the suite.
    """
    program = """if True:
        import contextlib, io, json, sys
        from monoval import cli
        limit, argvs = json.loads(sys.stdin.read())
        sys.set_int_max_str_digits(limit)
        results = []
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                results.append((cli.main(argv), out.getvalue(), err.getvalue()))
        print(json.dumps(results))
    """
    done = subprocess.run([sys.executable, "-c", program], input=json.dumps([limit, argvs]),
                          env=subprocess_env(), capture_output=True, text=True, timeout=60, check=True)
    return [tuple(result) for result in json.loads(done.stdout)]


def test_cf_past_the_int_str_limit_fails_before_output():
    # The CLI's own words, naming the digit; not CPython's advice to raise the limit.
    # In a subprocess with a timeout: an exponent of 10^8 is refused, or read
    # as 0 after a zero mantissa, without computing 10^(10^8).
    refused = {
        "1e640": "digit 0 of the continued fraction is",  # 10^640, the least of 641 digits
        "1e700": "digit 0 of the continued fraction is",
        "-1e700": "digit 0 of the continued fraction is",
        "1e-700": "digit 1 of the continued fraction is",
        "-2.5e-700": "digit 2 of the continued fraction is",  # [-1; 1, 4 * 10^699]
        "1e99999999": "digit 0 of the continued fraction is",
        "-1E+99999999": "digit 0 of the continued fraction is",
        "1.e-99999999": "digit 1 of the continued fraction is",
        "0.25e-99999999": "digit 1 of the continued fraction is",
        "-2.5E-99999999": "digit 2 of the continued fraction is",
        "7" * 700 + "e99999999": "the integer at position 0 of the rational is",  # read first
    }
    argvs = [["cf", rational, "--format", fmt] for rational in refused for fmt in ("json", "text")]
    for argv, result in zip(argvs, run_in_a_subprocess(640, argvs)):
        what = refused[argv[1]]
        doing = "reading" if "integer" in what else "printing"
        assert result == (1, "", f"error: {what} longer than 640 digits,"
                                 f" the interpreter's limit for {doing} an integer\n"), argv
    # The largest printable integer, zero mantissas, and exponents past the
    # limit by no more than the mantissa's digits, whose digits all print.
    answered = [("9" * 640, int("9" * 640)), ("0e99999999", 0), ("-0.0E-99999999", 0),
                ("0.0001e641", 10**637), ("1000e-642", Fraction(1, 10**639)),
                ("-1000e-642", Fraction(-1, 10**639))]
    if sys.version_info >= (3, 11):  # Fraction reads '_' from 3.11 on
        answered.append((" 0_0.0e+99_999_999 ", 0))
    results = run_in_a_subprocess(640, [["cf", rational] for rational, _ in answered])
    assert results == [(0, f"{Fraction(v)} = {cf_expand(Fraction(v))}\n", "") for _, v in answered]
    # The literals of the default limit read as before.
    results = run_in_a_subprocess(4300, [["cf", r] for r in ("1e3", "-1e-3", "0e5000", "1e5000", "1e-5000")])
    too_long = " longer than 4300 digits, the interpreter's limit for printing an integer\n"
    assert results == [
        (0, "1000 = [1000]\n", ""),
        (0, "-1/1000 = [-1; 1, 999]\n", ""),
        (0, "0 = [0]\n", ""),
        (1, "", "error: digit 0 of the continued fraction is" + too_long),
        (1, "", "error: digit 1 of the continued fraction is" + too_long),
    ]


def test_cf_text_refuses_a_rational_too_long_to_print(capsys):
    # Digits of 600 places, a denominator of 700: JSON prints only the digits.
    rational = "0." + "7" * 600 + "e-100"
    code, out, err = run_under_640_digits(capsys, "cf", rational, "--format", "json")
    assert code == 0 and json.loads(out)["digits"][0] == 0 and err == ""
    code, out, err = run_under_640_digits(capsys, "cf", rational)
    assert (code, out) == (1, "")
    assert err == ("error: the denominator of the rational is longer than 640 digits,"
                   " the interpreter's limit for printing an integer\n")
    # 600 digits on each side of the point: a numerator of 1,200, a denominator of 601
    rational = str(3**1300)[:600] + "." + str(7**1400)[:600]
    code, out, err = run_under_640_digits(capsys, "cf", rational, "--format", "json")
    assert code == 0 and len(str(json.loads(out)["digits"][0])) == 600 and err == ""
    assert run_under_640_digits(capsys, "cf", rational) == (
        1, "", "error: the numerator of the rational is longer than 640 digits,"
               " the interpreter's limit for printing an integer\n")


def test_cf_of_an_integer_past_the_int_str_limit_fails_before_output(capsys):
    # CPython reads no integer longer than its limit; the CLI names which one.
    def message(position, limit):
        return (f"error: the integer at position {position} of the rational is longer than"
                f" {limit} digits, the interpreter's limit for reading an integer\n")

    code, out, err = run(capsys, "cf", "7" * 5000)
    assert (code, out, err) == (1, "", message(0, sys.get_int_max_str_digits()))
    for rational, position in (("1/" + "3" * 700, 2), ("2.5e" + "1_1" * 350, 4)):
        code, out, err = run_under_640_digits(capsys, "cf", rational, "--format", "json")
        assert (code, out, err) == (1, "", message(position, 640))


def test_cf_with_no_int_str_limit_prints_a_rational_of_any_length(capsys):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        rational = Fraction(int("7" * 5000), 3)
        code, out, err = run(capsys, "cf", str(rational))
        assert (code, out, err) == (0, f"{rational} = {cf_expand(rational)}\n", "")
        # and a literal that is no rational is refused as such, whatever its integers' lengths
        assert run(capsys, "cf", "7/x") == (1, "", "error: Invalid literal for Fraction: '7/x'\n")
    finally:
        sys.set_int_max_str_digits(old)


def test_with_no_int_str_limit_member_and_path_answer_as_under_it(capsys):
    argvs = (("member", "x^2 + 3*y", "--a", "3", "--b", "2"), ("path", "--stream", "sqrt2", "--max-steps", "9"))
    answers = [run(capsys, *argv) for argv in argvs]
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert [run(capsys, *argv) for argv in argvs] == answers
    finally:
        sys.set_int_max_str_digits(old)
    assert [code for code, _, _ in answers] == [0, 0]


def test_a_parser_given_no_argv_reads_sys_argv(monkeypatch):
    monkeypatch.setattr(sys, "argv", ["monoval", "cf", "24/7", "--format", "json"])
    args = cli.build_parser().parse_args()
    assert (args.command, args.rational, args.format) == ("cf", "24/7", "json")
    # and clips a refusal by it
    monkeypatch.setattr(sys, "argv", ["monoval", "cf", "24/7", "x" * 300])
    with pytest.raises(cli.UsageError) as info:
        cli.build_parser().parse_args()
    assert str(info.value) == f"unrecognized arguments: {_clipped('x' * 300)}"


def test_the_cli_module_runs_as_a_script():
    done = subprocess.run([sys.executable, "-m", "monoval.cli", "cf", "24/7"], env=subprocess_env(),
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "24/7 = [3; 2, 3]\n", "")


def test_member_integer_past_the_int_str_limit_fails_before_output(capsys):
    long = "7" * 700
    cases = [
        (f"x + {long}", "integer at position 4"),
        (f"y^{long}", "exponent at position 2"),
        (f"x^-{long} + (", "exponent at position 3"),
    ]
    for expression, what in cases:
        for fmt in ("text", "json"):
            code, out, err = run_under_640_digits(
                capsys, "member", expression, "--a", "3", "--b", "2", "--format", fmt)
            assert (code, out) == (1, "")
            assert err == (f"error: the {what} of the expression is longer than 640 digits,"
                           " the interpreter's limit for reading an integer\n")


def test_a_stream_digit_past_the_int_str_limit_is_named_by_position(capsys):
    def message(position, limit):
        return (f"error: the digit at position {position} of the stream spec is longer than"
                f" {limit} digits, the interpreter's limit for reading an integer\n")

    long = "2" * (sys.get_int_max_str_digits() + 1)
    code, out, err = run(capsys, "path", "--stream", f"1;{long}")
    assert (code, out, err) == (1, "", message(2, sys.get_int_max_str_digits()))
    for spec, position in ((f"{'3' * 641},1;2", 0), (f"1, ,2;3, +{'1_1' * 400}", 9)):
        code, out, err = run_under_640_digits(capsys, "path", "--stream", spec, "--format", "json")
        assert (code, out, err) == (1, "", message(position, 640)), spec
    # the first digit int() refuses decides; one that is no integer is named by position too
    for spec, position in (("1;2,x", 4), (f"1;x,{long}", 2)):
        code, out, err = run(capsys, "path", "--stream", spec)
        assert (code, out, err) == (
            1, "", f"error: the digit at position {position} of the stream spec is not an integer\n")


def test_stream_spec_refusals_are_one_short_line(capsys):
    long = "2" * (sys.get_int_max_str_digits() + 1)
    no_integer = "the digit at position {} of the stream spec is not an integer"
    for spec, message in ((f"1;2,x,{long}", no_integer.format(4)),
                          (f"1,{long}", "the stream spec has no period; use 'sqrt2' or 'pre;period' digit lists"),
                          ("1;2;3", no_integer.format(2))):  # the period's digits split at commas only
        code, out, err = run(capsys, "path", "--stream", spec)
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert len(err) <= 200


def test_refusals_that_quote_the_input_are_one_short_line(capsys):
    limit = sys.get_int_max_str_digits()
    too_long = (f"the integer is longer than {limit} digits,"
                " the interpreter's limit for reading an integer")
    cases = (
        (("resolve", "1" * 5000, "2"), f"usage error: argument a: {too_long}"),
        (("verify", "--max", "9" * 5000), f"usage error: argument --max: {too_long}"),
        (("path", "3", "2", "--max-steps", "x" * 5000),
         f"usage error: argument --max-steps: invalid int value: '{'x' * 63}..."),
        (("cf", "x" * 5000), f"error: Invalid literal for Fraction: '{'x' * 63}..."),
        (("cf", "1/" + "0" * 4000), f"error: cannot read '1/{'0' * 61}...: the denominator is zero"),
        (("member", "x " + "1" * 4000, "--a", "1", "--b", "2"),
         f"error: unexpected '{'1' * 63}... (at position 2)"),
        # two integers of 4,000 digits that share a factor
        (("resolve", "6" + "0" * 3999, "4" + "0" * 3999),
         f"error: ({'6' + '0' * 63}..., {'4' + '0' * 63}...) are not coprime"),
        (("ringgens", "6" + "0" * 3999, "4" + "0" * 3999),
         f"error: ({'6' + '0' * 63}..., {'4' + '0' * 63}...) are not coprime"),
        (("cf", "1/2", "--out", "/nonexistent/" + "x" * 300),
         f"error: cannot write /nonexistent/{'x' * 51}...: No such file or directory"),
    )
    for argv, message in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", message + "\n"), argv[0]
        assert len(err) <= 200
    # argparse's own refusals, whose list of choices each Python version words its own way:
    # an invalid choice, unrecognized arguments, an unknown command
    cases = (
        (("path", "3", "2", "--format", "x" * 5000),
         f"usage error: argument --format: invalid choice: '{'x' * 63}... ("),
        (("path", "3", "2", "x" * 5000), f"usage error: unrecognized arguments: {'x' * 64}...\n"),
        (("path", "3", "2", *["a"] * 3000), f"usage error: unrecognized arguments: {'a ' * 32}...\n"),
        (("x" * 5000,), f"usage error: argument command: invalid choice: '{'x' * 63}... ("),
    )
    for argv, start in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and err.startswith(start), argv[0]
        assert len(err) <= 200 and err.count("\n") == 1
    # an argument to a flag that takes none, and an option that abbreviates several
    cases = (
        (("resolve", "3", "2", "--trace=" + "x" * 300),
         f"usage error: argument --trace: ignored explicit argument '{'x' * 63}...\n"),
        (("resolve", "3", "2", "--trace=" + "x " * 300),
         f"usage error: argument --trace: ignored explicit argument '{'x ' * 31}x...\n"),
        (("resolve", "3", "2", "--=" + "x" * 300),
         f"usage error: ambiguous option: --={'x' * 61}... could match "),
    )
    for argv, start in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and err.startswith(start), argv[-1][:10]
        assert len(err) <= 200 and err.count("\n") == 1
    # a short input is quoted whole, as before
    assert run(capsys, "resolve", "3", "2", "--trace=y")[2] == (
        "usage error: argument --trace: ignored explicit argument 'y'\n")
    assert run(capsys, "resolve", "3", "2", "--=x")[2].startswith(
        "usage error: ambiguous option: --=x could match --")
    assert run(capsys, "path", "3", "2", "a", "b")[2] == "usage error: unrecognized arguments: a b\n"
    assert run(capsys, "frob")[2].startswith("usage error: argument command: invalid choice: 'frob' (")
    assert run(capsys, "resolve", "7", "2.5")[2] == "usage error: argument b: invalid int value: '2.5'\n"
    assert run(capsys, "cf", "2/0")[2] == "error: cannot read '2/0': the denominator is zero\n"


def test_a_refusal_of_any_wording_clips_the_argv_strings_it_holds(capsys, monkeypatch):
    # A message form no argparse gives today, quoting one long argument and an option's long value
    # with repr and holding them bare too: the rule reads the argv, not the wording.
    def parse_known_args(self, args=None, namespace=None):
        option, long = args[-2:]
        self.error(f"argument {option[:5]}: new {option.partition('=')[2]!r} and {long!r}; bare {option} {long}")

    monkeypatch.setattr(cli._Parser, "parse_known_args", parse_known_args)
    code, out, err = run(capsys, "resolve", "--zap=" + "y" * 300, "z " * 100)
    assert (code, out) == (1, "")
    assert err == (f"usage error: argument --zap: new '{'y' * 63}... and '{('z ' * 32)[:63]}...;"
                   f" bare --zap={'y' * 58}... {'z ' * 32}...\n")
    # a value that is no string, as a caller may pass after '--', is left alone
    assert cli._clip_argv(f"{'y' * 65} 7", ["y" * 65, 7]) == f"{_clipped('y' * 65)} 7"
    # strings of at most 64 characters are left whole, each in the form the message gave it
    code, out, err = run(capsys, "resolve", "--zap=" + "y" * 58, "z" * 64)
    assert err == (f"usage error: argument --zap: new '{'y' * 58}' and '{'z' * 64}';"
                   f" bare --zap={'y' * 58} {'z' * 64}\n")


def test_member_reads_decimal_digits_only(capsys):
    code, out, err = run(capsys, "member", "x^\u00b2", "--a", "1", "--b", "2")
    assert (code, out, err) == (1, "", "error: unexpected character '\u00b2' (at position 2)\n")
    code, out, err = run(capsys, "member", "x^\u0663", "--a", "1", "--b", "2")  # Arabic-Indic 3
    assert code == 0 and out.endswith("(value 3)\n") and err == ""


def test_member_value_past_the_int_str_limit_fails_before_output(capsys):
    n = "7" * 4000
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "member", f"x^{n}", "--a", n, "--b", "2", "--format", fmt)
        assert (code, out) == (1, "")
        assert err == (f"error: the value is longer than {sys.get_int_max_str_digits()} digits,"
                       " the interpreter's limit for printing an integer\n")
