"""Command-line front end.

Commands: cf, path, ringgens, member, resolve, verify.  Output goes to
stdout (or --out) as text, JSON, or DOT, written in chunks as it is made.
--out is written whole or not at all: into a new file in the target's
directory, renamed onto the target at the end.  Exit codes: 0 success,
1 usage, parse or output error (including a reader that closes stdout
early), 2 verification failure.

``main`` builds its parser once per process, on its first call, and
keeps it; a one-shot ``monoval`` process builds it once either way.
Importing this module builds none.  An argv whose first string names a
command goes straight to that command's own parser, without the
top-level one, which would only pick the parser and hand it the rest;
any other argv, such as an empty one, ``-h``, an option or ``--``
before the command, or a name that is no command, goes through the
top-level parser.  Only that one sets ``command``, which no handler
reads.  One guard,
``_printable_runs``, refuses a stream's path or a trace with an integer
longer than ``str`` prints, run by run, before any output.  Per run it
reads, with no call, the sum of four integers of the run's start: times
the number of items the run prints, that bounds every integer they
print, and only a run whose bound reaches the limit has its last
printed item read exactly.  A pair's path needs none: it is Euclid's
algorithm on (a, b), so no exponent exceeds max(a, b), which was read
from argv under the same limit.  The same bound holds for a trace's
chart bases and its powers s and t.  Only the exceptional
multiplicities grow past a and b, and only JSON and ``--trace`` text
print them (DOT prints none, with ``--trace`` or without); a chart's
own are below its children's, e = A + B + min(s, t), so those two
formats check e of each blow-up.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import stat
import sys
import tempfile
from collections.abc import Iterable
from fractions import Fraction

from .emit import (
    dot_chunks,
    emit_json,
    format_verify_text,
    json_chunks,
    path_text_chunks,
    trace_text_chunks,
)
from .exactnum import CFStream, _clipped, _quoted, cf_expand, sqrt2_stream
from .expr import LongIntegerError, WorkBudgetError, initial_value, parse_expression
from .resolution import _children, _row_at, resolve
from .valring import ring_generators
from .valtree import _base_at, positive_path, take_runs, walk_runs
from .valuation import MonomialValuation
from .verify import run_verify


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; this CLI reserves 2 for
    # verification failures, so route usage errors through an exception.
    def error(self, message):
        raise UsageError(message)

    # argparse quotes an argument whole in some refusals, such as an invalid
    # choice or an argument given to a flag, and lists unrecognized arguments
    # whole; every refusal is clipped here, as the CLI's own refusals are
    # (see ``_clip_argv``).  A subcommand's parser raises through this one.
    def parse_args(self, args=None, namespace=None):
        argv = sys.argv[1:] if args is None else list(args)
        try:
            args, extra = self.parse_known_args(argv, namespace)
            if extra:  # many short arguments make a long line too
                self.error(f"unrecognized arguments: {_clipped(' '.join(extra))}")
        except UsageError as exc:
            raise UsageError(_clip_argv(str(exc), argv)) from None
        return args

    # argparse knows '-7' and '-1.5' as negative numbers but reads any
    # other argument that starts with '-', such as the rational '-7/3' or
    # the expression '-x^2', as an unknown option.  One that starts with a
    # single '-' and names no option of this parser is a positional
    # argument; an unknown '--name' is still a usage error.
    def _parse_optional(self, arg_string):
        if (arg_string[:1] == "-" and arg_string[1:2] != "-"
                and arg_string.split("=", 1)[0] not in self._option_string_actions):
            return None
        return super()._parse_optional(arg_string)


def _clip_argv(message: str, argv) -> str:
    """``message``, each argv string longer than 64 characters in it clipped, and such an option's value after '='.

    One quoted with ``repr`` becomes ``_quoted(text)``, and one held bare
    ``_clipped(text)``.  The longest go first, so that an option and its
    value clip to the option's start.  A caller's argv may hold other
    values than strings after '--'; those are left alone.
    """
    long = {text for arg in argv if isinstance(arg, str) for text in (arg, arg.partition("=")[2]) if len(text) > 64}
    for text in sorted(long, key=len, reverse=True):
        message = message.replace(repr(text), _quoted(text)).replace(text, _clipped(text))
    return message


def parse_stream_spec(spec: str) -> CFStream:
    """Stream spec: 'sqrt2' or '<preperiod>;<period>' comma lists.

    Example: sqrt(3) is '1;1,2'.  Finite digit lists denote rationals and
    are rejected; an irrational stream needs its period.
    """
    spec = spec.strip()
    if spec == "sqrt2":
        return sqrt2_stream()
    if ";" not in spec:
        raise ValueError("the stream spec has no period; use 'sqrt2' or 'pre;period' digit lists")
    cut, pre, per = spec.index(";"), [], []
    # The digits, split at commas and at the first semicolon only, each from its first non-space.
    for digit in re.finditer(r"[^,\s][^,]*", spec.replace(";", ",", 1)):
        try:
            (pre if digit.start() < cut else per).append(int(digit.group()))
        except ValueError:
            where = f"the digit at position {digit.start()} of the stream spec is"
            if _INTEGER.fullmatch(digit.group()):  # which int() reads, but for its length
                raise _too_long(where, "reading") from None
            raise ValueError(f"{where} not an integer") from None
    return CFStream.from_periodic(tuple(pre), tuple(per))


# A literal that int() reads, but for its length: a sign and digits, maybe spaced and grouped by _.
_INTEGER = re.compile(r"\s*[+-]?\d(?:_?\d)*\s*")


def _integer_argument(text: str) -> int:
    """``int(text)``, for argparse: a refusal quotes at most the start of ``text``."""
    try:
        return int(text)
    except ValueError:
        if _INTEGER.fullmatch(text):
            raise argparse.ArgumentTypeError(str(_too_long("the integer is", "reading"))) from None
        raise argparse.ArgumentTypeError(f"invalid int value: {_quoted(text)}") from None


# What a command returns: its output, in pieces written as they are made,
# and its exit code.
Output = tuple[Iterable[str], int]


# Fraction's decimal literal with an exponent, on Python 3.10 to 3.13 (3.10 reads no '_'):
# sign, whole part, fractional part, exponent's sign, exponent.  Compiled on its first use.
_DIGITS = r"\d+(?:_\d+)*" if sys.version_info >= (3, 11) else r"\d+"
_DECIMAL = rf"(?i)\s*([-+]?)(?=\d|\.\d)(\d*|{_DIGITS})(?:\.(\d*|{_DIGITS}))?E([-+]?)({_DIGITS})\s*"


def _read_rational(text: str) -> Fraction:
    """``Fraction(text)``, but an exponent that settles the answer is not raised to a power.

    Under an int-str limit L, a decimal literal whose integers ``int``
    reads is 0 when its mantissa is 0, whatever the exponent.  Else, with
    d the mantissa's digits, |exp| > L + d puts the value past 10**L, or
    within 10**-(L + 1) of 0, so the first digit of its continued
    fraction longer than L digits is digit 0, digit 1 (above 0) or
    digit 2 (below 0: [-1; 1, ...]).  That digit is refused at once, in
    ``_cmd_cf``'s words, before ``Fraction`` computes 10**|exp|.  A
    refusal quotes at most the start of ``text``.
    """
    limit = sys.get_int_max_str_digits()
    # An "e" first: on a long p/q the match alone takes longer than Fraction's reading.
    literal = limit and ("e" in text or "E" in text) and re.fullmatch(_DECIMAL, text)
    if literal:
        sign, whole, part, exp_sign, exp = (g.replace("_", "") for g in literal.groups(""))
        if max(len(whole), len(part), len(exp)) <= limit:  # else Fraction refuses one at once
            mantissa = whole + part
            if not any(map(int, mantissa)):
                return Fraction(0)
            if int(exp) > limit + len(mantissa):
                digit = 0 if exp_sign != "-" else 2 if sign == "-" else 1
                raise _too_long(f"digit {digit} of the continued fraction is")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"cannot read {_quoted(text)}: the denominator is zero") from None
    except ValueError:  # not a rational, or one with an integer longer than int() reads
        for run in re.finditer(r"\d(?:_?\d)*", text):
            if limit and len(run.group().replace("_", "")) > limit:
                where = f"the integer at position {run.start()} of the rational is"
                raise _too_long(where, "reading") from None
        raise ValueError(f"Invalid literal for Fraction: {_quoted(text)}") from None


def _cmd_cf(args) -> Output:
    r = _read_rational(args.rational)
    cf = cf_expand(r)
    unprintable = _print_test()
    # No digit exceeds the larger of |numerator| and denominator.
    if unprintable(r.numerator, r.denominator):
        too_long = next((i for i, d in enumerate(cf.digits) if unprintable(d)), None)
        if too_long is not None:
            raise _too_long(f"digit {too_long} of the continued fraction is")
        if args.format == "text":  # which prints the rational too
            part = "numerator" if unprintable(r.numerator) else "denominator"
            raise _too_long(f"the {part} of the rational is")
    if args.format == "json":
        return (emit_json(cf),), 0
    return (f"{r} = {cf}\n",), 0


def _cmd_path(args) -> Output:
    if args.stream is not None:
        if args.a is not None:  # argparse fills b only after a
            raise ValueError("give either a stream or integer values, not both")
        stream = parse_stream_spec(args.stream)
        nu = MonomialValuation.from_stream(stream)
        max_steps = args.max_steps if args.max_steps is not None else 64
        runs = _printable_runs(walk_runs(nu), max_steps, _VERTEX, _base_at,
                               lambda i: f"vertex {i} of the path has an exponent")
        path = take_runs(runs, max_steps)
    else:
        if args.a is None or args.b is None:
            raise ValueError("need both a and b (or --stream)")
        nu = MonomialValuation.rational(args.a, args.b)
        # No print guard: see the module docstring.
        path = positive_path(nu, args.a + args.b if args.max_steps is None else args.max_steps)
    if args.format == "json":
        return json_chunks(path), 0
    if args.format == "dot":
        return dot_chunks(path), 0
    return path_text_chunks(path, f"positive path for {nu.describe()}:"), 0


def _print_test():
    """A test of whether one of some ints has more digits than ``str`` prints, under today's limit.

    It reads the limit and its power of ten once; without a limit it is
    never true.
    """
    limit = sys.get_int_max_str_digits()
    if not limit:
        return lambda *ints: False
    bound = _power_of_ten(limit)
    return lambda *ints: max(map(abs, ints)) >= bound


@functools.cache
def _power_of_ten(n: int) -> int:
    """10**n, computed once per n: 10**4300 takes tens of microseconds, a small request's share."""
    return 10**n


def _too_long(what: str, doing: str = "printing") -> ValueError:
    return ValueError(
        f"{what} longer than {sys.get_int_max_str_digits()} digits,"
        f" the interpreter's limit for {doing} an integer"
    )


def _first(n: int, test) -> int:
    """The least j < n with ``test(j)``, for a test false up to some j and true from there on."""
    lo, hi = 0, n - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if test(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


# What ``_printable_runs`` sums of a run's start.  Vertex j of a stream's
# run from (fx, fy, gx, gy) has exponents fx, fy, gx - j*fx and gy - j*fy,
# each at most (j + 1)(|fx| + |fy| + |gx| + |gy|).  Blow-up j of a trace's
# run from a row (..., A, B, s, t, sign), all four nonnegative, has
# children's multiplicity A + j(B + t) + B + min(s - j*t, t), at most
# (j + 1)(A + B + s + t) (see ``resolution._row_at`` and ``_children``).
_VERTEX = slice(0, 4)
_EXCEPTIONAL = slice(4, 8)


def _printable_runs(runs, count: int, bounded: slice, printed, name):
    """Runs, refusing the first of their first ``count`` items to print an integer ``str`` cannot.

    ``printed(start, j)`` is the integers of item j of the run (start, n)
    that may pass the limit: a stream's vertex exponents, or a blow-up's
    children's multiplicity (see the module docstring).  ``start[bounded]``
    is a slice of the run's start whose absolute values sum to S with
    no integer of item j above (j + 1) * S.  ``name(i)`` is the words that
    name item i of all runs, such as "vertex i of the path has an
    exponent".  Of a run's m items among the first ``count``, the guard
    reads m * S, with no call: below 10**limit, the run prints.  Only a
    run that reaches it has its last of those items read with
    ``printed``; the integers never shrink along a run, so when that item
    fails the first that does is found by bisection inside the run.  The
    runs stop at the first that fails, before any output, and an item
    past ``count`` is never read.  The print limit is read once, when the
    first run is read.  Each run is finite, as a trace's and a stream
    walk's are.
    """
    limit = sys.get_int_max_str_digits()
    bound, unprintable = _power_of_ten(limit), _print_test()
    left = count if limit else 0  # items still to check; none without a limit
    for start, n in runs:
        if left > 0:
            m = n if n < left else left  # items of the run to print
            a, b, c, d = start[bounded]
            if m * (abs(a) + abs(b) + abs(c) + abs(d)) >= bound and unprintable(*printed(start, m - 1)):
                j = _first(m, lambda j: unprintable(*printed(start, j)))
                raise _too_long(name(count - left + j))
            left -= n
        yield start, n


def _cmd_ringgens(args) -> Output:
    pres = ring_generators(args.a, args.b)
    if args.format == "json":
        return (emit_json(pres),), 0
    lines = [
        f"a = {pres.a}, b = {pres.b}: p = {pres.p}, q = {pres.q}"
        f" ({pres.p}*{pres.a} - {pres.q}*{pres.b} = 1)",
        f"u = {pres.u} (value 0)",
        f"v = {pres.v} (value 1)",
        "valuation ring: k[u, v] localized at (v)",
    ]
    return ("\n".join(lines) + "\n",), 0


# nu(y) for the walk that looks for expression errors behind bad weights:
# x^i y^j and x^k y^l tie only when |i - k| is a multiple of it.
_UNTIED_WEIGHT = 1_000_003


def _cmd_member(args) -> Output:
    try:
        node = parse_expression(args.expression)
    except LongIntegerError as exc:
        where = f"the {exc.what} at position {exc.position} of the expression is"
        raise _too_long(where, "reading") from None
    if args.a <= 0 or args.b <= 0:
        # An error in the expression is reported before one in the weights,
        # which initial_value raises.  Any positive weights find it; these
        # seldom tie, so forms stay short.
        try:
            initial_value(node, 1, _UNTIED_WEIGHT)
        except WorkBudgetError:
            pass
    v = initial_value(node, args.a, args.b)
    if v is None:
        member, value = True, "infinity"
    else:
        value = v.m * args.a + v.n * args.b
        if _print_test()(value):
            raise _too_long("the value is")
        member = value >= 0
    if args.format == "json":
        payload = {
            "a": args.a,
            "b": args.b,
            "expression": args.expression,
            "member": member,
            "value": str(value),
        }
        return (emit_json(payload),), 0
    verdict = "member of" if member else "not a member of"
    text = (f"{args.expression.strip()}: {verdict} the valuation ring for "
            f"nu(x) = {args.a}, nu(y) = {args.b} (value {value})\n")
    return (text,), 0


def _cmd_resolve(args) -> Output:
    trace = resolve(args.a, args.b)
    if args.format == "json" or args.trace and args.format == "text":  # see the module docstring
        for _ in _printable_runs(  # refuses before any output
                trace.runs, trace.blow_up_count, _EXCEPTIONAL,
                lambda row, j: (_children(_row_at(row, j))[0][4],),
                lambda i: f"blow-up {i + 1} of the resolution prints an integer"):
            pass
    if args.format == "json":
        return json_chunks(trace), 0
    if args.format == "dot":
        return dot_chunks(trace), 0
    return trace_text_chunks(trace, show_steps=args.trace), 0


def _cmd_verify(args) -> Output:
    report = run_verify(args.max)
    code = 0 if report.all_passed else 2
    if args.format == "json":
        return (emit_json(report),), code
    return (format_verify_text(report),), code


def build_parser() -> _Parser:
    """A new parser for the command line, on every call."""
    # -h prints the module docstring but its last paragraph, which is about the code.
    parser = _Parser(prog="monoval", description=__doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # each command's name to its parser, filled below

    def add_common(p, formats=("text", "json")):
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", metavar="PATH", help="write output to a file")

    p = sub.add_parser("cf", help="continued fraction of a rational p/q")
    p.add_argument("rational", help="rational number, e.g. 24/7")
    add_common(p)
    p.set_defaults(func=_cmd_cf)

    p = sub.add_parser("path", help="positive path of a monomial valuation")
    p.add_argument("a", nargs="?", type=_integer_argument, help="nu(x)")
    p.add_argument("b", nargs="?", type=_integer_argument, help="nu(y)")
    p.add_argument("--stream", help="digit stream spec: 'sqrt2' or 'pre;period'")
    p.add_argument("--max-steps", type=_integer_argument, dest="max_steps")
    add_common(p, formats=("text", "json", "dot"))
    p.set_defaults(func=_cmd_path)

    p = sub.add_parser("ringgens", help="valuation ring generators for nu(x)=a, nu(y)=b")
    p.add_argument("a", type=_integer_argument)
    p.add_argument("b", type=_integer_argument)
    add_common(p)
    p.set_defaults(func=_cmd_ringgens)

    p = sub.add_parser("member", help="valuation ring membership of an expression")
    p.add_argument("expression", help="expression in x and y, e.g. \"x^2 - y^3\"")
    p.add_argument("--a", type=_integer_argument, required=True, help="nu(x)")
    p.add_argument("--b", type=_integer_argument, required=True, help="nu(y)")
    add_common(p)
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("resolve", help="blow-up resolution of x^b = y^a")
    p.add_argument("a", type=_integer_argument)
    p.add_argument("b", type=_integer_argument)
    p.add_argument("--trace", action="store_true", help="show every blow-up step")
    add_common(p, formats=("text", "json", "dot"))
    p.set_defaults(func=_cmd_resolve)

    p = sub.add_parser("verify", help="exhaustive checks over coprime pairs")
    p.add_argument("--max", type=_integer_argument, required=True, help="largest a in the sweep")
    add_common(p)
    p.set_defaults(func=_cmd_verify)

    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser ``main`` uses: built on the first call, then shared.

    ``parse_args`` keeps no state between calls (each fills a new
    namespace), so one parser serves every call in a process.
    """
    return build_parser()


def _write_file(path: str, chunks: Iterable[str]) -> None:
    """Write the chunks to ``path`` whole or not at all.

    They go to a new file in the target's directory, renamed onto the
    target once the last is written.  On any failure the new file is
    removed and an existing target is left as it was.  A target that
    exists and is no regular file, such as a device or a pipe, is
    written in place: renaming would replace it.
    """
    target = os.path.realpath(path)  # through a symlink, as open() writes
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        return
    fd, tmp = tempfile.mkstemp(prefix=f".{os.path.basename(target)}.", dir=os.path.dirname(target))
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.chmod(tmp, _new_file_mode(target))
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _new_file_mode(target: str) -> int:
    """The mode the target would have after ``open(target, "w")``, not mkstemp's 0o600."""
    try:
        return stat.S_IMODE(os.stat(target).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask


def _silence_stdout() -> None:
    """Point stdout's descriptor at the null device, so the flush at exit meets no closed pipe."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # not backed by a descriptor
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _parser()
    # A command named first gets the rest of argv, as the top-level parser would hand it on.
    command = parser.commands.get(argv[0]) if argv else None
    try:
        args = command.parse_args(argv[1:]) if command else parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        chunks, code = args.func(args)
        if args.out:
            try:
                _write_file(args.out, chunks)
            except OSError as exc:
                print(f"error: cannot write {_clipped(args.out)}: {exc.strerror or exc}", file=sys.stderr)
                return 1
        else:
            write = sys.stdout.write
            for chunk in chunks:
                write(chunk)
            sys.stdout.flush()
        return code
    except BrokenPipeError:
        _silence_stdout()
        print("error: stdout was closed before all output was written", file=sys.stderr)
        return 1
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
