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
# host-speed loop, timed (best of 5) at the start and the end of the run, so
# that a time is comparable across hosts (see bench/hostspeed.py).  A copy of
# the tests without bench/ reports the wall time alone.
_HOSTSPEED = Path(__file__).resolve().parent.parent / "bench" / "hostspeed.py"
_run = {}


@functools.cache
def _hostspeed():
    """bench/hostspeed.py, loaded without putting bench/ on the path; None when it is absent."""
    if not _HOSTSPEED.is_file():
        return None
    spec = importlib.util.spec_from_file_location("hostspeed", _HOSTSPEED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _loop_seconds(hostspeed):
    return min(hostspeed.loop_seconds(hostspeed.fraction_loop) for _ in range(5))


def pytest_sessionstart(session):
    hostspeed = _hostspeed()
    _run["loop"] = hostspeed and _loop_seconds(hostspeed)
    _run["wall"] = time.perf_counter()


def pytest_terminal_summary(terminalreporter):
    wall = time.perf_counter() - _run["wall"]
    hostspeed = _hostspeed()
    if hostspeed is None:
        terminalreporter.write_line(f"wall time {wall:.1f} s")
        return
    first, last = _run["loop"], _loop_seconds(hostspeed)
    reference = wall * hostspeed.REFERENCE_S[hostspeed.fraction_loop] * 2 / (first + last)
    terminalreporter.write_line(
        f"wall time {wall:.1f} s, {reference:.1f} reference s"
        f" (fraction loop {first * 1e3:.2f} ms at the start, {last * 1e3:.2f} ms at the end)"
    )
