"""One workload in a fresh single-threaded process: a closed loop, one client.

Run by ``run.py``; not meant to be started by hand.  Each request calls
``monoval.cli.main(argv)`` in this process with stdout sent to a file of
its own under the work directory, so output is neither held by the
harness nor parsed inside the timed interval.  The harness checks the
files after this process has ended, which keeps the oracles' memory out
of this process's peak RSS.

Untraced: a fixed number of whole passes, the number that takes
--seconds on the reference host (``workloads.untraced_passes``), so every
run has the same sample count whatever the machine's speed.  A
``hostspeed.Sampler`` times the host every ``SAMPLE_INTERVAL_S`` meanwhile;
each request's latency is also recorded in reference seconds, less the
sampler's own time inside it.  Traced: a fixed set of passes, so counts
repeat exactly; each request runs untraced and then traced, and the
difference of the two latency sums, in reference seconds, is the tracing
overhead.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import traceback
from pathlib import Path
from time import perf_counter

import hostspeed
import workloads

SAMPLE_INTERVAL_S = 0.02


def peak_rss_kb() -> int:
    """High-water RSS of this process since it was exec'd (VmHWM).

    Not getrusage's ru_maxrss: Linux carries the spawning process's peak
    into it across exec, so it would report the harness's memory.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def run_request(cli, argv, out_path: Path) -> tuple[int, float, float, str]:
    """Exit code, start, latency and stderr of one call; a traceback is exit -1."""
    err = io.StringIO()
    saved = sys.stdout, sys.stderr
    with open(out_path, "w", encoding="utf-8") as out:
        sys.stdout, sys.stderr = out, err
        start = perf_counter()
        try:
            code = cli.main(list(argv))
        except Exception:  # a crash is a wrong answer; record it, keep going
            code = -1
            traceback.print_exc(file=err)
        finally:
            latency = perf_counter() - start
            sys.stdout, sys.stderr = saved
    return code, start, latency, err.getvalue()


class Client:
    """Closed loop with one client: runs requests and records each outcome."""

    def __init__(self, cli, args, sizes):
        self.cli, self.args, self.sizes = cli, args, sizes
        self.records: list[dict] = []

    def requests(self, k: int):
        return workloads.make_pass(self.args.workload, self.args.seed, k, self.sizes)

    def serve(self, k: int, j: int, argv, tag: str, sampler: hostspeed.Sampler) -> None:
        """Run request j of pass k, noting the sampler's time inside it."""
        name = f"{tag}-{k}-{j}.out"
        spent = sampler.spent
        code, start, latency, err = run_request(self.cli, argv, self.args.workdir / name)
        self.records.append({"pass": k, "index": j, "file": name, "code": code,
                             "start": start, "latency": latency,
                             "sampling": sampler.spent - spent, "stderr": err[:1000]})

    def scale(self, sampler: hostspeed.Sampler) -> None:
        """Add each request's latency in reference seconds, less sampling."""
        for rec in self.records:
            rec["latency_ref"] = sampler.reference_seconds(
                rec["start"], rec["start"] + rec["latency"], rec["latency"] - rec["sampling"])


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--src", type=Path, required=True)
    p.add_argument("--workdir", type=Path, required=True)
    args = p.parse_args()
    sizes = workloads.SMOKE if args.smoke else workloads.FULL

    sys.path.insert(0, str(args.src))
    import monoval.cli as cli

    client = Client(cli, args, sizes)
    result: dict = {"requests": client.records}
    if args.trace:
        # Each request runs untraced, then traced, back to back.  Spans
        # leave out the sampler's time; the overhead is in reference seconds.
        import spans

        with hostspeed.Sampler(SAMPLE_INTERVAL_S) as sampler:
            tracer = spans.Tracer(sampler)
            for k in workloads.trace_passes(args.workload, sizes):
                for j, req in enumerate(client.requests(k)):
                    client.serve(k, j, req.argv, "plain", sampler)
                    tracer.request = len(client.records)
                    tracer.install()
                    try:
                        client.serve(k, j, req.argv, "traced", sampler)
                    finally:
                        tracer.uninstall()
        client.scale(sampler)
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = sum(
            rec["latency_ref"] * (1 if rec["file"].startswith("traced") else -1)
            for rec in client.records)
        metrics["trace.spans"] = tracer.next_id
        tracer.write_spans(args.workdir.parent / f"spans-{args.workload}-seed{args.seed}.jsonl")
        result["layers"] = metrics
    else:
        with hostspeed.Sampler(SAMPLE_INTERVAL_S) as sampler:
            for k in range(workloads.untraced_passes(args.workload, args.seconds, sizes)):
                for j, req in enumerate(client.requests(k)):
                    client.serve(k, j, req.argv, "pass", sampler)
        client.scale(sampler)
    result["peak_rss_kb"] = peak_rss_kb()
    (args.workdir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
