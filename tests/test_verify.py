"""The single-pass sweep: one trace and one path per pair, checks still strict."""

import oracles
from monoval import resolution, valtree, verify
from monoval.valtree import PositivePath
from monoval.verify import coprime_pairs, run_verify


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
    failure = report.first_failure
    assert (failure.a, failure.b, failure.check) == (7, 5, "reconstruction")


def test_sweep_catches_a_dropped_path_vertex(monkeypatch):
    real_path = verify.positive_path

    def path_missing_last_vertex(nu, max_steps=64):
        path = real_path(nu, max_steps=max_steps)
        return PositivePath(path.vertices[:-1], complete=path.complete)

    monkeypatch.setattr(verify, "positive_path", path_missing_last_vertex)
    report = run_verify(12)
    pairs = report.pairs
    assert report.checks["path-equality"].failed == pairs
    assert report.checks["cf-correspondence"].failed == pairs
    assert report.checks["blow-up-count"].failed == 0
    assert report.checks["reconstruction"].failed == 0
    failure = report.first_failure
    assert (failure.a, failure.b, failure.check) == (3, 2, "path-equality")


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
