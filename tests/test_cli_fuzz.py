"""Generated argv for every command: a documented exit code, never a traceback.

Values stay small so that each call takes milliseconds, but ``member``
powers go up to 2,000, also in sums whose initial forms cancel and are
then computed exactly: the work budget refuses what would take long.
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from monoval import cli

SMALL = st.integers(-3, 120).map(str)
INTEGERS = st.one_of(
    SMALL, SMALL, SMALL,
    st.sampled_from(["0", "1", "2", "10001", "10000", "-7", "+5", "007", "1_000", "x", "", "3.5"]),
)
# a > b > 1, coprime: the values every pair command accepts
PAIRS = st.builds(lambda b, k: [str(b + k), str(b)], st.integers(2, 80), st.integers(1, 80)).filter(
    lambda pair: gcd(int(pair[0]), int(pair[1])) == 1
)
POSITIONALS = st.one_of(PAIRS, PAIRS, PAIRS, st.lists(INTEGERS, max_size=3))
RATIONALS = st.one_of(
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-50, 50), st.integers(-5, 50)),
    st.sampled_from(["24/7", "-7/3", "1/0", "0", "3.25", "1e3", "-1e-3", "nan", "inf", "x", "",
                     "1/", "/2", " 5/3 ", "2/4"]),
)
STREAMS = st.one_of(
    st.builds(
        lambda pre, period: ",".join(map(str, pre)) + ";" + ",".join(map(str, period)),
        st.lists(st.integers(-1, 5), max_size=3), st.lists(st.integers(-1, 5), max_size=3),
    ),
    st.sampled_from(["sqrt2", "1,2,3", ";", "1;", ";1", "a;b", "1;;2", " sqrt2 ", ""]),
)
ATOMS = st.sampled_from(["x", "y", "1", "2", "-x", "x^2", "y^-3", "(x+y)", "(x - y + 1)", "0"])
POWERS = st.integers(0, 2000)
OPS = st.sampled_from(["+", "-", "*", "/"])
EXPRESSIONS = st.one_of(
    st.builds(lambda base, k, op, other: f"{base}^{k} {op} {other}", ATOMS, POWERS, OPS, ATOMS),
    st.builds(lambda base, k, op, other: f"{base}^{k} - {base}^{k} {op} {other}",
              ATOMS, POWERS, OPS, ATOMS),
    st.sampled_from(["x +", "1/(y-y)", "y - y", "((x)", "x^^2", "x^-1/y", "2^100", "",
                     "x^(2)", "x y", "(x+y)^20/(x-y)^20", "(x+y)^20000 - (x+y)^20000 + x"]),
)
FORMATS = st.sampled_from(["text", "json", "dot", "text", "json", "dot", "xml"])


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["cf", "path", "ringgens", "member", "resolve", "verify", "junk"]))
    if command == "cf":
        argv = ["cf", draw(RATIONALS)]
    elif command == "path":
        if draw(st.booleans()):
            argv = ["path", "--stream", draw(STREAMS)] + draw(st.lists(INTEGERS, max_size=1))
        else:
            argv = ["path"] + draw(POSITIONALS)
        if draw(st.booleans()):
            argv += ["--max-steps", draw(INTEGERS)]
    elif command == "ringgens":
        argv = ["ringgens"] + draw(POSITIONALS)
    elif command == "member":
        argv = ["member", draw(EXPRESSIONS)]
        a, b = draw(st.one_of(PAIRS, PAIRS, st.lists(INTEGERS, min_size=2, max_size=2)))
        argv += draw(st.sampled_from([["--a", a, "--b", b], ["--a", a, "--b", b], ["--a", a]]))
    elif command == "resolve":
        argv = ["resolve"] + draw(POSITIONALS)
        if draw(st.booleans()):
            argv.append("--trace")
    elif command == "verify":
        argv = ["verify", "--max", draw(st.one_of(st.integers(-2, 20).map(str), st.just("x")))]
    else:
        argv = draw(st.lists(st.sampled_from(["cf", "path", "--format", "--out", "--", "-", "-7/3",
                                              "--bogus", "3", "json"]), max_size=4))
    if draw(st.booleans()):
        argv += ["--format", draw(FORMATS)]
    out = draw(st.sampled_from([None, "out.txt", "missing/out.txt", "."]))
    return argv, out


@settings(max_examples=300, deadline=None)
@given(argvs())
def test_any_argv_ends_in_a_documented_exit_code(case):
    argv, out = case
    with tempfile.TemporaryDirectory() as tmp:
        target = os.path.join(tmp, out) if out else None
        if target:
            argv = argv + ["--out", target]
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli.main(argv)
        err = stderr.getvalue()
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err
        if code == 1:  # refused before any output, with one line
            assert stdout.getvalue() == "" and err.count("\n") == 1, (argv, err)
            if target and os.path.isfile(target):
                raise AssertionError(f"a failed run left {target}")
            return
        assert err == "", (argv, err)
        if target:
            assert stdout.getvalue() == ""
            with open(target, encoding="utf-8") as fh:
                output = fh.read()
        else:
            output = stdout.getvalue()
        if cli.build_parser().parse_args(argv).format == "json":
            json.loads(output)


def run_sequence(cases, tmp):
    """stdout, stderr, exit code and any --out file of each call, in one process."""
    results = []
    for argv, out in cases:
        target = os.path.join(tmp, out) if out else None
        if target:
            argv = argv + ["--out", target]
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli.main(argv)
        written = None
        if target and os.path.isfile(target):
            with open(target, encoding="utf-8") as fh:
                written = fh.read()
            os.unlink(target)
        results.append((stdout.getvalue(), stderr.getvalue().replace(tmp, "TMP"), code, written))
    return results


@settings(max_examples=60, deadline=None)
@given(st.lists(argvs(), min_size=2, max_size=6))
def test_a_sequence_of_calls_answers_as_a_fresh_parser_per_call_does(cases):
    # main keeps one parser for the process; building one per call is the reference.
    with tempfile.TemporaryDirectory() as tmp:
        shared = run_sequence(cases, tmp)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "_parser", cli.build_parser):
        fresh = run_sequence(cases, tmp)
    assert shared == fresh


def top_level_parser():
    """A new parser that names no command to ``main``, so every argv goes through the top-level parser."""
    parser = cli.build_parser()
    parser.commands = {}
    return parser


def answer(argv, out, tmp):
    """stdout, stderr, exit code (or SystemExit code) and any --out file of ``main(argv)``."""
    target = os.path.join(tmp, out) if out else None
    if target:
        argv = argv + ["--out", target]
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
    written = None
    if target and os.path.isfile(target):
        with open(target, encoding="utf-8") as fh:
            written = fh.read()
        os.unlink(target)
    return stdout.getvalue(), stderr.getvalue().replace(tmp, "TMP"), code, written


def assert_dispatch_answers_as_the_top_level_parser(argv, out=None):
    with tempfile.TemporaryDirectory() as tmp:
        dispatched = answer(argv, out, tmp)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "_parser", top_level_parser):
        reference = answer(argv, out, tmp)
    assert dispatched == reference, argv


COMMANDS = ["cf", "path", "ringgens", "member", "resolve", "verify"]
LONG = "1" * 70 + "/7"
DISPATCH_CORPUS = [
    [], ["-h"], ["--help"], ["--"], ["--", "--"], ["-"],
    *([command, flag] for command in COMMANDS for flag in ("-h", "--help", "--h", "--he")),
    *([command] for command in COMMANDS),
    ["--", "cf", "3/7"], ["cf", "--", "3/7"], ["cf", "3/7", "--"], ["cf", "--", "-7/3"], ["cf", "--", "--"],
    ["cf", "--", "-h"], ["cf", "3/7", "--", "--format", "json"], ["ringgens", "3", "--", "2"],
    ["member", "--", "-x^2", "--a", "1", "--b", "2"], ["path", "--stream", "sqrt2", "--", "3"],
    ["junk"], ["junk", "3/7"], ["c", "3/7"], ["cfx", "3/7"], ["ring", "3", "2"], ["cf=3/7"], ["CF", "3/7"],
    ["--format", "json", "cf", "3/7"], ["--out", "x", "cf", "3/7"], ["-h", "cf", "3/7"], ["--he", "cf"],
    ["cf", "3/7", "--h"], ["cf", "3/7", "--he"], ["cf", "3/7", "--help=1"], ["cf", "3/7", "-hx"],
    ["cf", "-7/3"], ["cf", "-7/3", "--format", "json"], ["member", "-x^2", "--a", "1", "--b", "2"],
    ["member", "-x^2", "--a", "-3", "--b", "2"], ["path", "-7", "3"],
    ["cf", "3/7", "--format", "json", "--format", "text"], ["ringgens", "3", "2", "--format", "json", "--format", "json"],
    ["resolve", "3", "2", "--trace", "--trace"], ["member", "x", "--a", "1", "--a", "2", "--b", "3"],
    ["ringgens", "3", "2", "extra", "--bogus"], ["cf", "3/7", "4/9"], ["verify", "--max", "3", "-q"],
    ["resolve", "3", "2", "--trace=1"], ["path", "--max", "3", "--stream", "sqrt2"],
    ["cf", "3/7", "--for", "json"], ["cf", "3/7", "--format=xml"], ["member", "x", "--a=1", "--b=2"],
    ["verify"], ["path", "--stream"], ["member", "x", "--a", "1"],
    ["cf", LONG], ["cf", "3/7", LONG], ["cf", "3/7", "--format", "x" * 70],
    ["cf", "3/7", "--format=" + "x" * 70], ["ringgens", "3", "2", "--" + "z" * 70], [LONG, "cf"],
    ["resolve", "a" * 65, "2"], ["member", "x" * 65, "--a", "1", "--b", "2"],
]


@pytest.mark.parametrize("argv", DISPATCH_CORPUS, ids=map(repr, DISPATCH_CORPUS))
def test_a_command_s_own_parser_answers_as_the_top_level_parser(argv):
    assert_dispatch_answers_as_the_top_level_parser(argv)


@settings(max_examples=150, deadline=None)
@given(argvs())
def test_a_generated_argv_answers_as_through_the_top_level_parser(case):
    assert_dispatch_answers_as_the_top_level_parser(*case)
