"""The single-pass sweep: one trace and one path per pair, checks still strict."""

import json

import oracles
from monoval import cli, resolution, valtree, verify
from monoval.valtree import CorrespondenceReport, PositivePath
from monoval.verify import Failure, coprime_pairs, run_verify


def test_sweep_catches_a_flipped_chart_sign(monkeypatch):
    real_resolve = verify.resolve

    def resolve_with_bad_chart(a, b):
        trace = real_resolve(a, b)
        if (a, b) != (7, 5):
            return trace
        # Flip the sign of row 1: both its children then expand to -(x^5 - y^7).
        rows = list(trace.rows)
        rows[1] = rows[1][:-1] + (-rows[1][-1],)
        return oracles.trace_from_rows(a, b, rows)

    monkeypatch.setattr(verify, "resolve", resolve_with_bad_chart)
    report = run_verify(12)
    assert not report.all_passed
    assert report.checks["reconstruction"].failed == 1
    assert all(
        counts.failed == 0 for name, counts in report.checks.items() if name != "reconstruction"
    )
    assert report.first_failure == Failure(
        7, 5, "reconstruction", "some chart does not expand back to the curve"
    )


def test_a_failed_sweep_names_its_first_failure_in_json(monkeypatch, capsys):
    real_resolve = verify.resolve

    def resolve_with_bad_chart(a, b):
        trace = real_resolve(a, b)
        if (a, b) != (7, 5):
            return trace
        rows = list(trace.rows)
        rows[1] = rows[1][:-1] + (-rows[1][-1],)
        return oracles.trace_from_rows(a, b, rows)

    monkeypatch.setattr(verify, "resolve", resolve_with_bad_chart)
    assert cli.main(["verify", "--max", "12", "--format", "json"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["all_passed"] is False
    assert report["checks"]["reconstruction"] == {"passed": report["pairs"] - 1, "failed": 1}
    assert report["first_failure"] == {
        "a": 7,
        "b": 5,
        "check": "reconstruction",
        "detail": "some chart does not expand back to the curve",
    }


def test_sweep_catches_a_dropped_path_vertex(monkeypatch):
    real_path = verify._pair_path

    def path_missing_last_vertex(a, b):
        path = real_path(a, b)
        return PositivePath(path.vertices[:-1], complete=path.complete)

    monkeypatch.setattr(verify, "_pair_path", path_missing_last_vertex)
    report = run_verify(12)
    pairs = report.pairs
    assert report.checks["path-equality"].failed == pairs
    assert report.checks["cf-correspondence"].failed == pairs
    assert report.checks["blow-up-count"].failed == 0
    assert report.checks["reconstruction"].failed == 0
    assert report.first_failure == Failure(
        3, 2, "path-equality", "bad-chart path differs from positive path"
    )


def only_failing(report, name):
    """Whether ``name`` is the one check of the sweep that failed, and for one pair."""
    return all(
        counts.failed == (name == check) for check, counts in report.checks.items()
    )


def test_sweep_reports_a_wrong_branch_split_with_its_lengths(monkeypatch):
    real_report = verify.correspondence_report

    def report_without_the_last_vertex(a, b, path):
        if (a, b) == (7, 5):
            path = PositivePath(path.vertices[:-1], complete=path.complete)
        return real_report(a, b, path)

    monkeypatch.setattr(verify, "correspondence_report", report_without_the_last_vertex)
    report = run_verify(12)
    assert only_failing(report, "cf-correspondence")
    assert report.first_failure == Failure(
        7, 5, "cf-correspondence", "branch lengths (1, 2) vs digits (1, 2, 2)"
    )


def test_sweep_reports_a_miscounted_digit_sum_with_both_counts(monkeypatch):
    real_report = verify.correspondence_report

    def report_with_one_digit_too_many(a, b, path):
        corr = real_report(a, b, path)
        if (a, b) == (7, 5):
            return CorrespondenceReport(**{**corr._asdict(), "cf_digits": corr.cf_digits + (1,)})
        return corr

    monkeypatch.setattr(verify, "correspondence_report", report_with_one_digit_too_many)
    report = run_verify(12)
    assert only_failing(report, "blow-up-count")
    assert report.first_failure == Failure(
        7, 5, "blow-up-count", "5 blow-ups vs digit sum 6"
    )


def test_each_pair_is_resolved_and_walked_once(monkeypatch):
    calls = {"resolve": [], "positive_path": []}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name].append(args)
            return fn(*args, **kwargs)

        return wrapper

    # Patch every binding the sweep could reach, so a hidden second call shows.
    for module in (verify, resolution, valtree):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    report = run_verify(20)
    pairs = list(coprime_pairs(20))
    assert report.all_passed and report.pairs == len(pairs)
    assert calls["resolve"] == pairs
    assert len(calls["positive_path"]) == len(pairs)
    assert [(nu.group.vx, nu.group.vy) for nu, *_ in calls["positive_path"]] == pairs
