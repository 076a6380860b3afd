"""Smoke tests of the benchmark harness, so it cannot rot unnoticed.

Run with ``python3 -m pytest bench`` from the repository root.  Each
workload runs once at its tiny ``--smoke`` size, traced and untraced;
the oracles must reject tampered outputs; a checkout without the
program's sources must fail without printing a result.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import checks
import hostspeed
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    for name in result["metrics"]:
        assert name in proc.stdout.split("{", 1)[0], f"{name} missing from the table"


def test_sweep_trace_counts_checks_per_pair():
    proc = run_bench("--workload", "sweep", "--seed", "1", "--seconds", "1",
                     "--trace", "1", "--smoke")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["verify.resolves_per_pair"]["value"] >= 1
    assert metrics["verify.paths_per_pair"]["value"] >= 1
    assert metrics["resolution.blow_ups"]["value"] > 0
    assert metrics["laurent.terms_created"]["value"] > 0


def test_missing_program_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "queries", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_passes_depend_only_on_seed_and_index():
    for name in workloads.WORKLOADS:
        first = workloads.make_pass(name, 5, 1, workloads.SMOKE)
        again = workloads.make_pass(name, 5, 1, workloads.SMOKE)
        assert [r.argv for r in first] == [r.argv for r in again]
    deep = [r.argv for r in workloads.make_pass("deep", 5, 1, workloads.SMOKE)]
    other = [r.argv for r in workloads.make_pass("deep", 6, 1, workloads.SMOKE)]
    assert deep != other


def test_stream_depths_reach_past_the_convergent_budget():
    # sqrt(2) needs about 512 steps to exhaust 256 convergents; the draw
    # must keep reaching past that, so the refusal stays visible.
    depths = [
        r.expect["steps"]
        for k in range(5)
        for r in workloads.make_pass("queries", 1, k, workloads.FULL)
        if r.kind == "stream"
    ]
    assert max(depths) > 600
    assert min(depths) < 256


def test_digit_walk_matches_known_path():
    # 24/7 = [3; 2, 3]: eight vertices, the first branch k[y, x/y^m].
    path = checks.rational_path(24, 7)
    assert len(path) == 8
    assert path[:4] == [
        frozenset({(1, 0), (0, 1)}),
        frozenset({(0, 1), (1, -1)}),
        frozenset({(0, 1), (1, -2)}),
        frozenset({(0, 1), (1, -3)}),
    ]
    assert checks.parse_monomial("y^7/x^2") == (-2, 7)
    assert checks.parse_monomial("1/(x*y^3)") == (-1, -3)


def _program_output(argv) -> str:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import monoval.cli as cli
    finally:
        sys.path.pop(0)
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(list(argv)) == 0
    return buf.getvalue()


@pytest.mark.parametrize("fmt", ["json", "dot", "text"])
def test_oracles_accept_real_and_reject_tampered_outputs(fmt):
    for kind in ("path", "resolve"):
        if fmt != "text":
            extra = ("--format", fmt)
        else:
            extra = ("--trace",) if kind == "resolve" else ()
        req = workloads.Request(kind, (kind, "24", "7") + extra, {"a": 24, "b": 7}, 1, 8)
        text = _program_output(req.argv)
        assert checks.judge(req, 0, text, "") is True
        tampered = text.replace("x^3", "x^4", 1)
        assert tampered != text
        with pytest.raises(checks.WrongOutput):
            checks.judge(req, 0, tampered, "")
        with pytest.raises(checks.WrongOutput):
            checks.judge(req, 1, text, "error: boom")
        with pytest.raises(checks.WrongOutput):
            checks.judge(req, 3, "", checks.INDECISIVE)


def test_indecisive_stream_is_a_failure_not_a_wrong_answer():
    req = workloads.Request(
        "stream", ("path", "--stream", "1;2", "--max-steps", "600", "--format", "json"),
        {"pre": [1], "period": [2], "steps": 600}, 0, 600,
    )
    assert checks.judge(req, 3, "", checks.INDECISIVE + ": budget") is False
    with pytest.raises(checks.WrongOutput):
        checks.judge(req, 3, "", "error: something else")
    ok = _program_output(("path", "--stream", "1;2", "--max-steps", "40", "--format", "json"))
    short = workloads.Request("stream", (), {"pre": [1], "period": [2], "steps": 40}, 0, 40)
    assert checks.judge(short, 0, ok, "") is True
    wrong = workloads.Request("stream", (), {"pre": [1], "period": [3], "steps": 40}, 0, 40)
    with pytest.raises(checks.WrongOutput):
        checks.judge(wrong, 0, ok, "")


def test_query_oracles_on_real_outputs():
    for k in range(2):
        for req in workloads.make_pass("queries", 7, k, workloads.SMOKE):
            if req.kind == "stream":
                continue
            text = _program_output(req.argv)
            assert checks.judge(req, 0, text, "") is True
            data = json.loads(text)
            key = {"member": "value", "cf": "digits", "ringgens": "p"}[req.kind]
            data[key] = data[key][:-1] if req.kind == "cf" else (
                str(int(data[key]) + 1) if req.kind == "member" else data[key] + 1)
            with pytest.raises(checks.WrongOutput):
                checks.judge(req, 0, json.dumps(data), "")


def test_reference_seconds_use_the_host_speed_during_the_interval():
    sampler = hostspeed.Sampler(1.0)
    ref = hostspeed.REFERENCE_S[sampler.loop]
    sampler.starts = [0.0, 1.0, 2.0, 3.0, 4.0]
    sampler.loops = [ref, ref, 2 * ref, 2 * ref, 2 * ref]
    # Samples at 2 and 3 fall inside; 1 and 4 are the neighbours.
    assert sampler.reference_seconds(1.5, 3.5, 3.0) == pytest.approx(3.0 * 4 / 7)
    assert sampler.reference_seconds(0.2, 0.4, 0.2) == pytest.approx(0.2)
    with hostspeed.Sampler(0.0005) as live:  # ticks faster than a loop
        sum(range(2_000_000))
    assert len(live.loops) >= 3 and live.spent > 0


def test_untraced_runs_have_a_fixed_sample_count():
    spec_seconds = SPEC["run_seconds"]
    counts = {w: workloads.untraced_passes(w, spec_seconds, workloads.FULL)
              for w in workloads.WORKLOADS}
    assert counts == {"sweep": 2, "deep": 2, "queries": 19}
