import functools
import importlib.util
import sys
import time
from pathlib import Path

from hypothesis import settings

# Make the sibling oracle helpers importable regardless of invocation dir.
sys.path.insert(0, str(Path(__file__).resolve().parent))

# Tier-1 draws the same examples on every run, so the lines it covers do not
# change from run to run.  `--hypothesis-profile=explore` draws new examples
# (with `--hypothesis-seed=N` a run repeats).  Neither profile changes a
# test's own settings, such as its max_examples.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, database=None)
settings.load_profile("tier1")


# The run's time in reference seconds: its wall time scaled by the benchmark's
# host-speed loop, so that a time is comparable across hosts (see
# bench/hostspeed.py).  The loop is timed (best of 5) at the start, after every
# _SAMPLE_EVERY tests and at the end, and each stretch between two samples is
# scaled half by the one and half by the other, so each moment goes by the
# sample nearest it.  A copy of the tests without bench/ reports the wall time
# alone.
_HOSTSPEED = Path(__file__).resolve().parent.parent / "bench" / "hostspeed.py"
_SAMPLE_EVERY = 50
_run = {"tests": 0, "samples": []}  # samples: (perf_counter, loop seconds)


@functools.cache
def _hostspeed():
    """bench/hostspeed.py, loaded without putting bench/ on the path; None when it is absent."""
    if not _HOSTSPEED.is_file():
        return None
    spec = importlib.util.spec_from_file_location("hostspeed", _HOSTSPEED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sample():
    hostspeed = _hostspeed()
    if hostspeed is not None:
        loop = min(hostspeed.loop_seconds(hostspeed.fraction_loop) for _ in range(5))
        _run["samples"].append((time.perf_counter(), loop))


def pytest_sessionstart(session):
    _run["wall"], _run["cpu"] = time.perf_counter(), time.process_time()
    _sample()


def pytest_runtest_logfinish(nodeid, location):
    _run["tests"] += 1
    if _run["tests"] % _SAMPLE_EVERY == 0:
        _sample()


def pytest_terminal_summary(terminalreporter):
    _sample()
    wall = time.perf_counter() - _run["wall"]
    cpu = time.process_time() - _run["cpu"]
    samples = _run["samples"]
    if not samples:
        terminalreporter.write_line(f"wall time {wall:.1f} s, CPU time {cpu:.1f} s")
        return
    hostspeed = _hostspeed()
    scaled = sum((t1 - t0) / 2 * (1 / s0 + 1 / s1) for (t0, s0), (t1, s1) in zip(samples, samples[1:]))
    reference = scaled * hostspeed.REFERENCE_S[hostspeed.fraction_loop]
    loops = sorted(s for _, s in samples)
    terminalreporter.write_line(
        f"wall time {wall:.1f} s, {reference:.1f} reference s, CPU time {cpu:.1f} s"
        f" (fraction loop {loops[0] * 1e3:.2f} to {loops[-1] * 1e3:.2f} ms,"
        f" median {loops[len(loops) // 2] * 1e3:.2f} ms, over {len(loops)} samples)"
    )
