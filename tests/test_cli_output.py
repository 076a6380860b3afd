"""How the CLI writes its output: in chunks, to a closed pipe, and to --out."""

import io
import json
import os
import stat
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings

import monoval
from monoval import cli, emit
from monoval.cli import parse_stream_spec
from monoval.emit import _BLOCK, emit_dot, emit_json, format_path_text, format_trace_text, to_jsonable
from monoval.exactnum import sqrt2_stream
from monoval.resolution import resolve
from monoval.valtree import positive_path
from monoval.valuation import MonomialValuation
import oracles
from oracles import coprime_pairs


class Writer:
    """A stdout that keeps every write, or raises BrokenPipeError at write number ``fail_at``."""

    def __init__(self, fail_at=None, keep=True):
        self.fail_at, self.keep = fail_at, keep
        self.writes, self.calls, self.length = [], 0, 0

    def write(self, text):
        if self.calls == self.fail_at:
            raise BrokenPipeError(32, "Broken pipe")
        self.calls += 1
        self.length += len(text)
        if self.keep:
            self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def run_into(writer, *argv):
    """Exit code and stderr of the CLI writing to ``writer``."""
    err = io.StringIO()
    with redirect_stdout(writer), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, err.getvalue()


@settings(max_examples=15, deadline=None)
@given(coprime_pairs(10**6))
def test_streamed_output_equals_the_library_string(pair):
    a, b = pair
    trace = resolve(a, b)
    path = positive_path(MonomialValuation.rational(a, b), max_steps=a + b)
    heading = f"positive path for nu(x) = {a}, nu(y) = {b}:"
    expected = {
        ("resolve", "--format", "json"): emit_json(trace),
        ("resolve", "--format", "dot"): emit_dot(trace),
        ("resolve",): format_trace_text(trace),
        ("resolve", "--trace"): format_trace_text(trace, show_steps=True),
        ("path", "--format", "json"): emit_json(path),
        ("path", "--format", "dot"): emit_dot(path),
        ("path",): format_path_text(path, heading),
    }
    for (command, *options), text in expected.items():
        writer = Writer()
        code, err = run_into(writer, command, str(a), str(b), *options)
        assert (code, err) == (0, "")
        assert "".join(writer.writes) == text, (command, options)
        assert len(writer.writes) > 1, (command, options)


def test_streamed_stream_path_equals_the_library_string():
    nu = MonomialValuation.from_stream(sqrt2_stream())
    path = positive_path(nu, max_steps=300)
    for fmt, text in (("json", emit_json(path)), ("dot", emit_dot(path)),
                      ("text", format_path_text(path, f"positive path for {nu.describe()}:"))):
        writer = Writer()
        code, _ = run_into(writer, "path", "--stream", "sqrt2", "--max-steps", "300", "--format", fmt)
        assert code == 0 and "".join(writer.writes) == text and len(writer.writes) > 1


def test_resolve_json_is_never_held_whole():
    writer = Writer(keep=False)
    tracemalloc.start()
    try:
        code, _ = run_into(writer, "resolve", "5001", "5000", "--format", "json")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and writer.length > 4_000_000
    assert peak < writer.length // 4, (peak, writer.length)


@pytest.mark.parametrize("args, draws", [
    (("--format", "json"), 1),
    (("--format", "dot"), 1),
    ((), 0),
    (("--trace",), 1),
])
def test_a_resolve_draws_the_blow_up_kernel_only_to_print_children_and_once(monkeypatch, args, draws):
    # Plain text prints the bad-vertex path; JSON, the DOT nodes and the
    # --trace steps print children, each from one pass of ``_blow_ups``.
    drawn = []
    blow_ups = emit._blow_ups

    def counted(trace, number):
        drawn.append(trace)
        return blow_ups(trace, number)

    monkeypatch.setattr(emit, "_blow_ups", counted)
    assert run_into(Writer(keep=False), "resolve", "6001", "2000", *args) == (0, "")
    assert len(drawn) == draws


def cli_writes(*argv) -> list[str]:
    """The writes of a CLI run that exits 0 with nothing on stderr."""
    writer = Writer()
    assert run_into(writer, *argv) == (0, "")
    return writer.writes


def dumps(obj) -> str:
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=2)


def path_oracle(path, heading: str, fmt: str) -> str:
    """The path's output in ``fmt``: JSON from ``json.dumps``, DOT and text from the path oracles."""
    if fmt == "json":
        return dumps(path)
    if fmt == "dot":
        return oracles.path_dot(path)
    return oracles.path_text(path, heading)


def assert_path_writes_equal_the_oracles(path, heading, *argv):
    for fmt in ("json", "dot", "text"):
        assert "".join(cli_writes(*argv, "--format", fmt)) == path_oracle(path, heading, fmt), fmt


@settings(max_examples=10, deadline=None)
@given(coprime_pairs(10**40))
def test_path_writes_equal_the_path_oracles_up_to_10_40(pair):
    a, b = pair
    path = positive_path(MonomialValuation.rational(a, b), max_steps=a + b)
    assert_path_writes_equal_the_oracles(path, f"positive path for nu(x) = {a}, nu(y) = {b}:",
                                         "path", str(a), str(b))


def test_stream_path_writes_equal_the_path_oracles():
    nu = MonomialValuation.from_stream(sqrt2_stream())
    path = positive_path(nu, max_steps=3000)
    assert_path_writes_equal_the_oracles(path, f"positive path for {nu.describe()}:",
                                         "path", "--stream", "sqrt2", "--max-steps", "3000")


@pytest.mark.parametrize("spec, steps", [("1;1", 3000), ("1,1;2,1", 722), ("4,3;2,1,4", 1000)])
def test_short_run_stream_paths_write_what_the_path_oracles_write(spec, steps):
    # Small digits: runs of one to four vertices, each named from the run before.
    nu = MonomialValuation.from_stream(parse_stream_spec(spec))
    path = positive_path(nu, max_steps=steps)
    assert max(n for _, n in path.runs) <= 4
    assert_path_writes_equal_the_oracles(path, f"positive path for {nu.describe()}:",
                                         "path", "--stream", spec, "--max-steps", str(steps))


def stream_path_output(spec: str, steps: int, fmt: str) -> tuple[list[str], str]:
    """The CLI's writes of ``path --stream spec --max-steps steps`` in ``fmt``, and the path oracle's text."""
    nu = MonomialValuation.from_stream(parse_stream_spec(spec))
    path = positive_path(nu, max_steps=steps)
    want = path_oracle(path, f"positive path for {nu.describe()}:", fmt)
    return cli_writes("path", "--stream", spec, "--max-steps", str(steps), "--format", fmt), want


def trace_output(a: int, b: int, fmt: str) -> tuple[list[str], str]:
    """The CLI's writes of ``resolve a b`` in ``fmt`` ("trace" for --trace), and the trace oracle's text."""
    trace = resolve(a, b)
    if fmt == "json":
        want = oracles.trace_json(trace)
    elif fmt == "dot":
        want = oracles.trace_dot(trace)
    else:
        want = oracles.trace_text(trace, show_steps=fmt == "trace")
    options = ("--trace",) if fmt == "trace" else ("--format", fmt)
    return cli_writes("resolve", str(a), str(b), *options), want


# Requests whose section at write ``index`` is exactly one block long at
# the middle input, shorter at the first, and longer at the last: a path
# cut one vertex earlier or later, or a pair whose last continued-fraction
# digit is one less or one more.  The sections are a path's vertices
# (JSON, text) or nodes (DOT), and a trace's blow-ups (JSON), bad charts
# (text), nodes (DOT) or steps (--trace, after its bad charts and the
# "steps:" line).
BLOCK_EDGES = [
    (stream_path_output, "json", 1, [("0;2,4", 372), ("0;2,4", 373), ("0;2,4", 374)]),
    (stream_path_output, "dot", 1, [("1;6", 418), ("1;6", 419), ("1;6", 420)]),
    (stream_path_output, "text", 1, [("3;2,3,2", 393), ("3;2,3,2", 394), ("3;2,3,2", 395)]),
    (trace_output, "json", 1, [(535, 247), (548, 253), (561, 259)]),  # [2; 6, 41..43]
    (trace_output, "dot", 1, [(240752, 55779), (241339, 55915), (241926, 56051)]),  # [4; 3, 6, 7, 410..412]
    (trace_output, "text", 1, [(473567, 115784), (474021, 115895), (474475, 116006)]),  # [4; 11, 10, 1043..1045]
    (trace_output, "trace", 3, [(133886, 122933), (134815, 123786), (135744, 124639)]),  # [1; 11, 4, 2, 8, 144..146]
]


@pytest.mark.parametrize("output, fmt, index, inputs", BLOCK_EDGES,
                         ids=[f"{output.__name__}-{fmt}" for output, fmt, _, _ in BLOCK_EDGES])
def test_writes_land_under_at_and_over_one_block(output, fmt, index, inputs):
    (under, want_under), (at, want_at), (over, want_over) = (output(*x, fmt) for x in inputs)
    assert "".join(under) == want_under
    assert "".join(at) == want_at
    assert "".join(over) == want_over
    assert len(under[index]) < _BLOCK and len(under) == len(at)
    assert len(at[index]) == _BLOCK
    assert len(over[index]) >= _BLOCK and len(over) == len(at) + 1


def test_resolve_json_is_written_in_few_blocks_of_about_64_kb():
    writes = cli_writes("resolve", "20001", "20000", "--format", "json")
    assert "".join(writes) == oracles.trace_json(resolve(20001, 20000))
    total = sum(map(len, writes))
    assert len(writes) <= total // _BLOCK + 3
    # a block ends at the item that fills it, so it overshoots by less than one item
    longest_item = max(map(len, "".join(writes).split(",\n    {"))) + len(",\n    {")
    assert max(map(len, writes)) < _BLOCK + longest_item


@pytest.mark.parametrize("fail_at", [0, 1, 5])
def test_a_closed_stdout_exits_1_with_one_line(fail_at):
    code, err = run_into(Writer(fail_at=fail_at), "resolve", "201", "200", "--format", "json")
    assert code == 1
    assert err == "error: stdout was closed before all output was written\n"


# The console script; and a caller that goes on writing to stdout after
# main returns, which finds it pointed at the null device.
AFTER_MAIN = "import sys; from monoval.cli import main; c = main(sys.argv[1:]); print('more'); sys.exit(c)"
DEEP_JSON = ("resolve", "20001", "20000", "--format", "json")
# Pairs whose longest run is sys.maxsize and sys.maxsize + 1 blow-ups or
# vertices long: every format streams such a run, with no count past what
# a C integer holds, until the reader stops.
PAST_MAXSIZE = [(sys.maxsize + 3, sys.maxsize + 2), (sys.maxsize + 4, sys.maxsize + 3)]
EVERY_FORMAT = [("resolve", "--format", f) for f in ("text", "json", "dot")] + [("resolve", "--trace")] + [
    ("path", "--format", f) for f in ("text", "json", "dot")]
CLOSES_EARLY = [(["-m", "monoval"], DEEP_JSON, 100), (["-c", AFTER_MAIN], DEEP_JSON, 100)] + [
    (["-m", "monoval"], (command, str(a), str(b), *options), _BLOCK)
    for a, b in PAST_MAXSIZE for command, *options in EVERY_FORMAT]


@pytest.mark.parametrize("program, argv, size", CLOSES_EARLY)
def test_a_reader_that_closes_early_gets_no_traceback(program, argv, size):
    src = str(Path(monoval.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.Popen(
        [sys.executable, *program, *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        assert len(proc.stdout.read(size)) == size
    finally:
        proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == "error: stdout was closed before all output was written\n"


def failing_after_the_first_chunk(exc):
    def chunks(obj):
        yield "{"
        raise exc
    return chunks


def test_out_is_left_as_it_was_when_the_output_fails(capsys, tmp_path, monkeypatch):
    target = tmp_path / "path.json"
    target.write_bytes(b"earlier output\n")
    monkeypatch.setattr(cli, "json_chunks", failing_after_the_first_chunk(ValueError("midway")))
    code = cli.main(["path", "3", "2", "--format", "json", "--out", str(target)])
    assert (code, capsys.readouterr()) == (1, ("", "error: midway\n"))
    assert target.read_bytes() == b"earlier output\n"
    assert list(tmp_path.iterdir()) == [target]
    # An interrupt is not caught, but the partial file goes all the same.
    monkeypatch.setattr(cli, "json_chunks", failing_after_the_first_chunk(KeyboardInterrupt()))
    with pytest.raises(KeyboardInterrupt):
        cli.main(["path", "3", "2", "--format", "json", "--out", str(target)])
    assert target.read_bytes() == b"earlier output\n"
    assert list(tmp_path.iterdir()) == [target]


def test_out_gets_the_mode_open_would_give(tmp_path):
    umask = os.umask(0)
    os.umask(umask)
    target = tmp_path / "cf.txt"
    assert cli.main(["cf", "24/7", "--out", str(target)]) == 0
    assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask
    target.chmod(0o640)
    assert cli.main(["cf", "3/2", "--out", str(target)]) == 0
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert target.read_text() == "3/2 = [1; 2]\n"


def test_out_writes_through_a_symlink(tmp_path):
    real = tmp_path / "real.txt"
    real.write_text("old\n")
    link = tmp_path / "link.txt"
    link.symlink_to(real)
    assert cli.main(["cf", "24/7", "--out", str(link)]) == 0
    assert link.is_symlink() and real.read_text() == "24/7 = [3; 2, 3]\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "real.txt"]


def test_out_writes_into_a_pipe_in_place(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert cli.main(["path", "3", "2", "--format", "json", "--out", str(fifo)]) == 0
        data = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert json.loads(data)["status"] == "complete"
