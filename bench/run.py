"""monoval benchmark: run one workload, check every output, print metrics.

Usage (from the root of a source checkout):

    python3 bench/run.py --workload sweep|deep|queries|all --seed N \\
        --seconds S --trace 0|1 [--smoke]

The workload runs in a fresh worker process (``worker.py``) against
``monoval.cli.main`` from ``src/``; this process measures set-up time,
then checks every output the worker wrote against the oracles in
``checks.py`` and prints one line per metric.  Times are in reference
seconds: wall time scaled by the host's speed, sampled during each
request (``hostspeed.py``), so they do not drift with a shared machine's
speed.  The last line of stdout is
a JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run with ``--trace 1``.  A wrong output makes ``correct`` false and
the exit code 1; a checkout without ``src/monoval`` exits 2 and prints no
result.  ``--workload all`` runs the three workloads in turn and prints
one row per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from math import ceil
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_RUNS = 20
WORKER_TIMEOUT_S = 160

# Metric names and units, listed once, in BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Times the import in a fresh interpreter, sampling the host's speed with a
# loop that imports nothing; prints the import time in reference seconds.
SETUP_SNIPPET = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import hostspeed\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "with hostspeed.Sampler(0.002, hostspeed.integer_loop) as sampler:\n"
    "    spent, start = sampler.spent, time.perf_counter()\n"
    "    import monoval.cli\n"
    "    end, spent = time.perf_counter(), sampler.spent - spent\n"
    "print(sampler.reference_seconds(start, end, end - start - spent))\n"
)


class BenchError(Exception):
    """The harness could not produce a result (not a wrong answer)."""


def setup_samples(n: int) -> list[float]:
    """Reference seconds for each of n fresh interpreters to import monoval.cli.

    Byte-code is written even where PYTHONDONTWRITEBYTECODE is set, so the
    first import caches it as an install would, and later ones time a
    user's import rather than compilation.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    times = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(BENCH)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, env=env,
        )
        if proc.returncode != 0:
            raise BenchError(f"import monoval.cli failed:\n{proc.stderr}")
        times.append(float(proc.stdout))
    return times


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(ceil(q * len(ordered)) - 1, 0)]


def run_worker(args, workdir: Path) -> dict:
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--src", str(SRC), "--workdir", str(workdir),
    ] + (["--smoke"] if args.smoke else [])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads((workdir / "result.json").read_text(encoding="utf-8"))


def check_records(args, records: list[dict], workdir: Path) -> tuple[list, list[bool], list[str]]:
    """Judge every request; returns the requests, served flags and wrong answers."""
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    passes: dict[int, list] = {}
    reqs, served, wrong = [], [], []
    for rec in records:
        k = rec["pass"]
        if k not in passes:
            passes[k] = workloads.make_pass(args.workload, args.seed, k, sizes)
        req = passes[k][rec["index"]]
        path = workdir / rec["file"]
        text = path.read_text(encoding="utf-8")
        path.unlink()
        reqs.append(req)
        try:
            served.append(checks.judge(req, rec["code"], text, rec["stderr"]))
        except checks.WrongOutput as exc:
            served.append(False)
            wrong.append(f"{' '.join(req.argv)[:160]}: {exc}")
    return reqs, served, wrong


def end_to_end(result: dict, reqs: list, served: list[bool], setup_s: float) -> dict:
    """Every end-to-end value; times in reference seconds (see hostspeed.py).

    Throughputs count the work of every attempted request, as ``req_per_s``
    counts every attempted request: which stream requests a seed's draw
    sends past the convergent budget changes from run to run, and
    ``served_frac`` reports those refusals.
    """
    records = result["requests"]
    busy = sum(r["latency_ref"] for r in records)
    latencies_ms = [r["latency_ref"] * 1000 for r in records]
    values = {
        "setup_s": setup_s,
        "pairs_per_s": sum(req.pairs for req in reqs) / busy,
        "steps_per_s": sum(req.steps for req in reqs) / busy,
        "req_per_s": len(records) / busy,
        "latency_p50_ms": statistics.median(latencies_ms),
        "latency_p95_ms": percentile(latencies_ms, 0.95),
        "served_frac": sum(served) / len(records),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }
    return values


def with_units(values: dict, listed: list[dict]) -> dict:
    """The metrics BENCHMARK.json lists, in its order and with its units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}


def run_one(args) -> dict:
    """Run a workload; returns the result object printed as the last line."""
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        setup = []
        if not args.trace:
            # An unmeasured import first: byte-code compilation is paid once
            # per install, not per invocation.  Half the samples are taken
            # after the worker, so they span the run's machine conditions.
            setup_samples(1)
            setup = setup_samples(SETUP_RUNS // 2)
        result = run_worker(args, workdir)
        if not args.trace:
            setup += setup_samples(SETUP_RUNS - len(setup))
        reqs, served, wrong = check_records(args, result["requests"], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = len(served)
    failed = attempted - sum(served)
    if args.trace:
        metrics = with_units(result["layers"], SPEC["per_layer"])
    else:
        values = end_to_end(result, reqs, served, statistics.median(setup))
        metrics = with_units(values, SPEC["end_to_end"])

    for line in wrong[:20]:
        print(f"WRONG OUTPUT: {line}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"requests {attempted}  failed {failed}  failed_frac {failed / attempted:.4f}  "
          f"wrong {len(wrong)}")
    if not args.trace:
        wall = sum(r["latency"] for r in result["requests"])
        ref = sum(r["latency_ref"] for r in result["requests"])
        print(f"  (latency percentiles over {attempted} requests; setup_s is the "
              f"median of {SETUP_RUNS} fresh interpreters; times in reference "
              f"seconds, request time {ref:.3f} s = {wall:.3f} s of wall time)")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    return {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the harness tests")
    args = p.parse_args(argv)

    if not (SRC / "monoval" / "cli.py").is_file():
        print(f"error: no monoval sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            out = run_one(args)
            print(json.dumps(out))
            return 0 if out["correct"] else 1
        rows = {}
        for name in workloads.WORKLOADS:
            rows[name] = run_one(argparse.Namespace(**{**vars(args), "workload": name}))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print()
    for name, out in rows.items():
        cells = [f"{k}={m['value']:.6g} {m['unit']}" for k, m in out["metrics"].items()]
        print(f"{name:8s} failed_frac={out['failed'] / out['attempted']:.4f}  " + "  ".join(cells))
    print(json.dumps(rows))
    return 0 if all(out["correct"] for out in rows.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
