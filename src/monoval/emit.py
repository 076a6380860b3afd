"""Deterministic JSON and DOT emitters.

Identical inputs produce byte-identical output: JSON keys are sorted,
numbers are exact Python integers (arbitrary precision survives the
round trip), rationals are "p/q" strings, and DOT nodes are emitted in a
fixed traversal order.  Monomials print in reduced fraction form, which
is also what the expression parser reads back.

``to_jsonable`` is the plain dict/list view of every emittable object,
and ``emit_json(obj)`` is ``json.dumps(to_jsonable(obj), sort_keys=True,
indent=2)`` byte for byte.  Resolution traces and positive paths, the
outputs that run to tens of megabytes, and continued fractions and ring
presentations, the most frequent small requests, fill layouts that
``json.dumps`` lays out once, at import: ``_dumped`` dumps a document of
the chart, vertex, blow-up and presentation shapes that ``to_jsonable``
builds, with slots for the values, and ``_cut`` cuts a document with a
list at its slots.  ``json.dumps`` with an indent runs its pure-Python
encoder, several times slower than filling an f-string.  A continued
fraction's digits print by ``exactnum._digit_strings``, the rule its
text prints by.  Every other object, a verify report, a theorem report,
a correspondence report or a chart, goes through ``json.dumps`` itself.

Traces and paths are streamed: ``json_chunks``, ``dot_chunks``,
``trace_text_chunks`` and ``path_text_chunks`` yield each heading alone,
then each section's items (a blow-up, a vertex, a node or an edge)
joined into blocks of about 64 KB (``_blocks``), so a caller can write
the output as it is made and never holds the whole document; a write
per item cost more than filling the item.  ``emit_json``, ``emit_dot``,
``format_trace_text`` and ``format_path_text`` join those chunks; there is
no second code path.  Two sections come out in another order than the
rows are read in, and take a second pass: DOT prints every node before
every edge, and writes the edges from the trace's runs (``_dot_edges``);
``--trace`` text prints every bad chart before every step.

Only the trace emitters that print children, JSON, the DOT nodes and the
``--trace`` steps, read the per-blow-up kernel ``_blow_ups`` over a
trace's runs (see ``resolution``), each once.  It builds no
``ResolutionStep`` and no ``Monomial``.
Inside a run every row blows up into a first child that is the next row
and a second child that misses its origin, and every row has the run's
first classification; so each row's integers come by addition from the
last, and only the run's last row is read with ``resolution._children``
and ``_kind``, the rules ``resolve`` runs.  The kernel yields the other
rows of a run in stretches of at most ``_STRETCH`` rows, as columns.
The run's constants, f, exc_g, t, the sign and the classification, are
printed once, and each row brings only two new monomials, g/f and f/g,
and two new numbers, the children's multiplicity e and |s - t|; a row's
own g, exc_f and s are the row before's g/f, e and |s - t|.  f/g is the
inverse of g/f, and both are named from one printing of each exponent:
exponents of a wide pair run to hundreds of digits, and ``str`` of an
int takes time quadratic in its length.  Inside a run, g/f^j has
exponents affine in j, so a run's names come from ``laurent``'s
``_stretch_names``, each stretch of one printed shape.  The rule for a
short run is ``laurent``'s too: ``_stretch_names`` names a short run or
piece a row at a time.  e and |s - t| are arithmetic progressions down
a run, and e grows along the trace, to hundreds of digits on a wide pair;
``_progression`` prints a column of wide values as exact decimals, whose
``str`` takes time linear in the digits.

Each emitter fills a stretch's rows from one f-string per row, around
text joined once per stretch from the run's constants, so only the
values that vary fill each row.  All three take that text from the
fillers of a single row, ``_json_step``, ``_dot_node`` and
``_step_text``, filled once per stretch with a marker for each value
that varies and split there, so each lays out a row in one place; a
run's last row is filled from its tuple through the same three.  So
``_chart_text`` and ``_pow_str`` are the only place the decomposition
rules are written: which powers print, how the sign wraps, and which
names take parentheses (``_grouped``).  f-strings fill faster than a
``%`` template or ``str.format``: those parse their format again on
every fill.  Monomial names and classifications hold no character that
JSON escapes, so they fill the JSON layout's string slots as they are.
Each JSON array item carries the ``,\\n`` separator that ``_cut`` cuts
with it, and the first drops the comma.

The bad charts are the vertices of the positive path of nu(x) = a,
nu(y) = b, and each row of a trace's runs begins with its chart's
generators, so plain text names them from the trace's runs by
``laurent.path_names``, as the path emitters name a path's, each with
its run's first classification.  DOT's edges need only which children
of each blow-up are resolved: inside a run the second; at a run's end
the child the next run does not start at, or both when no run follows.
So neither builds anything per blow-up.

A path's vertices are named in one place, ``laurent.path_names``, a run
at a time and each generator once; the path emitters fill its names into
their layouts, and build no ``TreeVertex`` or ``Monomial``.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Iterator
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, Rounded
from itertools import accumulate, chain, count, islice, repeat, starmap
from fractions import Fraction
from os.path import commonprefix

from .exactnum import CFExpansion, _digit_strings
from .laurent import _STRETCH, _stretch_names, monomial_name, monomial_names, path_names
from .resolution import (
    ChartState,
    Classification,
    ResolutionTrace,
    TheoremReport,
    _children,
    _kind,
    _row_at,
)
from .valring import RingPresentation
from .valtree import CorrespondenceReport, PositivePath
from .verify import Failure, VerifyReport


# Values of this many bits or more print as exact decimals (see ``_progression``).
_DECIMAL_BITS = 700
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, Rounded])


def _progression(start: int, step: int, m: int) -> list[str]:
    """``[str(start + k*step) for k in range(m)]``, in time linear in the digits.

    ``str`` of an int takes time quadratic in its length, and ``str`` of a
    decimal integer linear.  So a column of three values or more, one of
    ``_DECIMAL_BITS`` bits or more, is summed as exact decimals: start and
    step are converted once, each conversion costing about one ``str``,
    and the m - 1 sums are printed.  ``_EXACT`` holds every digit and
    traps any rounding, so none can be lost.  A value that may pass the
    interpreter's limit for printing an int is printed by ``str``, so it
    raises that limit's ValueError as ``str`` does.
    """
    bits = max(abs(start), abs(start + (m - 1) * step)).bit_length()
    limit = sys.get_int_max_str_digits()
    # 33219/10000 < log2(10): a value under 2**bits then has at most `limit` digits
    if m < 3 or bits < _DECIMAL_BITS or (limit and bits * 10000 > limit * 33219):
        return list(map(str, islice(count(start, step), m)))
    return list(map(str, accumulate(repeat(Decimal(step), m - 1), _EXACT.add, initial=Decimal(start))))


class _Stretch(tuple):
    """Rows of a run's interior, as ``_blow_ups`` yields them.

    The tuple is (f, exc_g, t, sign, kind, g, exc_f, s, names, inverses,
    es, ds).  f, exc_g, t, the sign and the classification are the
    run's; g, exc_f and s are the chart's at the stretch's first row.  The
    four columns hold, for each row, g/f and f/g, and its children's
    multiplicity e and |s - t|.  So row k is the chart (f, names[k - 1],
    es[k - 1], exc_g, ds[k - 1], t), its fields at k = 0 being g, exc_f
    and s; its first child is the next row, (f, names[k], es[k], exc_g,
    ds[k], t), through its origin, and its second (names[k - 1],
    inverses[k], es[k], es[k - 1], ds[k], ds[k - 1]), with the sign
    negated, resolved.  A plain tuple but for its type, which tells it
    from a run's last row.
    """

    __slots__ = ()


def _unprinted(_: int) -> None:
    """No number: what ``_blow_ups`` holds in place of an integer it is not asked to print."""
    return None


def _blow_ups(trace: ResolutionTrace, printed: bool):
    """Per blow-up of a trace, read from its runs: its chart and children as printed.

    The emitters that print children draw it once each: JSON, the DOT
    nodes and the ``--trace`` steps.  Plain text and the DOT edges read
    the runs themselves (see the module docstring).

    Yields, run by run, the run's rows but the last as ``_Stretch``
    columns of at most ``_STRETCH`` rows each, then the last row as a
    tuple: the chart's fields (f, g, exc_f, exc_g, s, t), the monomials
    named and the integers printed; each child's fields in the same
    order, the power of its proper transform's first coordinate being
    |s - t|; whether each child's curve passes through its origin; the
    chart's sign, which the second child negates; and the
    classifications of the chart and its children, by value.  The first
    child of (f, g, exc_f, exc_g, s, t) is (f, g/f, e, exc_g, |s - t|, t)
    and the second (g, f/g, e, exc_f, |s - t|, s), where e is the
    children's multiplicity (see ``resolution._children``).

    Row j of a run starting at (f, g, A, B, s, t) is (f, g/f^j,
    A + j(B + t), B, s - jt, t), and its first child, through its
    origin, is row j + 1; its second child is resolved.  Every row of a
    run has s >= 2 and the run's t, with t >= 2 or exc_g >= 1, so all of
    them share the first row's classification: a cusp, or a tangential
    crossing when t = 1.  So a stretch holds the run's constants, printed
    once, and four columns for the rows' children: the names of g/f and
    f/g, and e and |s - t|, printed by ``_progression``.  Every e and
    |s - t| there is at least 2, and so is every row's s; only a run's
    first row has an exc_f, the run's A, that may be 0 or 1.
    ``_children`` and ``_kind`` read each run's last row, so the blow-up
    and classification rules are ``resolve``'s.  The next chart is a
    child, so it keeps that child's fields and classification.  An
    emitter that prints no numbers, DOT, passes ``printed`` false and
    gets None for each: ``str`` of one may pass the interpreter's limit
    for printing an integer.
    """
    kinds, resolved = _KIND, _RESOLVED
    number = str if printed else _unprinted
    row = trace.runs[0][0]
    fx, fy, gx, gy, a, b, s, t, _ = row
    f, g = monomial_name(fx, fy), monomial_name(gx, gy)
    chart = (f, g, number(a), number(b), number(s), number(t))
    kind = kinds[_kind(row)]
    for row, n in trace.runs:
        if n > 1:
            fx, fy, gx, gy, a, b, s, t, sign = row
            step = b + t
            f, g, exc_f, exc_g, s_, t_ = chart
            j = 1  # the first row of each stretch blows up into row j
            for names, inverses in _stretch_names(fx, fy, gx, gy, 1, n, True):
                m = len(names)
                if printed:
                    es, ds = _progression(a + j * step, step, m), _progression(s - j * t, -t, m)
                else:
                    es = ds = [None] * m
                yield _Stretch((f, exc_g, t_, sign, kind, g, exc_f, s_, names, inverses, es, ds))
                g, exc_f, s_, j = names[-1], es[-1], ds[-1], j + m
                del names, inverses, es, ds  # before the next stretch is named
            chart = (f, g, exc_f, exc_g, s_, t_)
            row = _row_at(row, n - 1)
        first, second = _children(row)
        k1, k2 = kinds[_kind(first)], kinds[_kind(second)]
        f, g, exc_f, exc_g, s_, t_ = chart
        g_over_f, f_over_g = monomial_names(first[2], first[3])
        e, d = number(first[4]), number(abs(first[6]))
        c1, c2 = (f, g_over_f, e, exc_g, d, t_), (g, f_over_g, e, exc_f, d, s_)
        yield chart, c1, c2, first[6] > 0, second[6] > 0, row[8], kind, k1, k2
        if k1 != resolved:
            chart, kind = c1, k1
        else:
            chart, kind = c2, k2


def _filled(trace: ResolutionTrace, printed: bool, fill_stretch, fill_row, i: int = 0) -> Iterator[str]:
    """The items of ``_blow_ups(trace, printed)`` filled in order.

    A stretch's rows come from ``fill_stretch(i, stretch)`` and a run's
    last row from ``fill_row(i, *row)``, i being the index of the first
    blow-up each fills, counted from the i given.
    """
    for item in _blow_ups(trace, printed):
        if type(item) is _Stretch:
            yield from fill_stretch(i, item)
            i += len(item[8])
        else:
            yield fill_row(i, *item)
            i += 1
        del item  # before the next stretch is made


_PROPER = ("misses-origin", "through-origin")  # a proper transform's kind, by whether it passes through the origin


def _vertex_json(f, g) -> dict:
    return {"f": f, "g": g}


def _chart_json(f, g, exc_f, exc_g, p, q, proper, sign) -> dict:
    """A chart on generators f, g: proper transform f^p - g^q when ``proper`` is through-origin, else 1 - f^p g^q."""
    return {
        "basis": _vertex_json(f, g),
        "exceptional": {"f": exc_f, "g": exc_g},
        "proper": {"kind": proper, "f_power": p, "g_power": q},
        "sign": sign,
    }


def _blow_up_json(chart, kind, children) -> dict:
    """A blow-up of ``chart`` of classification ``kind`` into ``children``, (chart, classification) pairs."""
    return {
        "chart": chart,
        "classification": kind,
        "children": [{"chart": child, "classification": k} for child, k in children],
    }


def _ring_json(u, v, p, q) -> dict:
    """A ring presentation: generators u and v, and the exponents p and q of v."""
    return {"u": u, "v": v, "p": p, "q": q}


def to_jsonable(obj):
    """Plain dict/list view of any emittable object."""
    if isinstance(obj, CFExpansion):
        return {"digits": list(obj.digits)}
    if isinstance(obj, PositivePath):
        return {
            "status": obj.status,
            "vertices": [_vertex_json(str(v.f), str(v.g)) for v in obj.vertices],
        }
    if isinstance(obj, RingPresentation):
        return _ring_json(str(obj.u), str(obj.v), obj.p, obj.q)
    if isinstance(obj, ResolutionTrace):
        return {
            "a": obj.a,
            "b": obj.b,
            "count": obj.blow_up_count,
            "blow_ups": [
                _blow_up_json(to_jsonable(step.chart), step.classification.value,
                              [(to_jsonable(child), kind.value) for child, kind in step.children])
                for step in obj.steps
            ],
        }
    if isinstance(obj, TheoremReport):
        return {
            "a": obj.a,
            "b": obj.b,
            "equal": obj.equal,
            "resolution_path": to_jsonable(obj.resolution_path),
            "valuation_path": to_jsonable(obj.valuation_path),
        }
    if isinstance(obj, (CorrespondenceReport, Failure)):  # tuples, but JSON objects
        return to_jsonable(obj._asdict())
    if isinstance(obj, VerifyReport):
        return {
            "max_a": obj.max_a,
            "pairs": obj.pairs,
            "all_passed": obj.all_passed,
            "checks": {
                name: {"passed": c.passed, "failed": c.failed}
                for name, c in obj.checks.items()
            },
            "first_failure": to_jsonable(obj.first_failure),
        }
    if isinstance(obj, ChartState):  # a tuple, but not a JSON list
        return _chart_json(monomial_name(obj.fx, obj.fy), monomial_name(obj.gx, obj.gy), obj.exc_f, obj.exc_g,
                           abs(obj.p), obj.q, _PROPER[obj.p > 0], obj.sign)
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {k: to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    raise TypeError(f"cannot emit {type(obj).__name__} as JSON")


_TEXT, _NUMBER = "@", "#"  # slots in a dumped layout: no key or fixed value holds either, and JSON escapes neither


def _dumped(doc: dict) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)`` with each ``_NUMBER`` slot's quotes dropped."""
    return json.dumps(doc, sort_keys=True, indent=2).replace(json.dumps(_NUMBER), _TEXT)


def _cut(doc: dict, key: str, item) -> list[list[str]]:
    """``json.dumps(doc, sort_keys=True, indent=2)`` with list ``doc[key]`` of ``item``s, cut at its slots.

    A ``_TEXT`` slot is a string's place inside its quotes; a ``_NUMBER``
    slot's quotes are dropped, so a number fills it.  The document is
    dumped with the list empty, of one item and of two, and cut into the
    head up to the list's ``[``, an item with the ``,\\n`` before it (what
    a second item adds), the tail after a list of items and the tail
    after an empty list.  Each is split at its slots.
    """
    none, one, two = (_dumped({**doc, key: [item] * n}) for n in range(3))
    head = commonprefix((none, one))
    k = len(commonprefix((one, two)))  # the first item's end
    return [text.split(_TEXT) for text in (head, two[k:k + len(two) - len(one)], one[k:], none[len(head):])]


_TRACE_HEAD, _STEP, _TRACE_TAIL, _ = _cut(
    {"a": _NUMBER, "b": _NUMBER, "count": _NUMBER}, "blow_ups",
    _blow_up_json(_chart_json(_TEXT, _TEXT, _NUMBER, _NUMBER, _NUMBER, _NUMBER, _PROPER[True], _NUMBER), _TEXT,
                  [(_chart_json(_TEXT, _TEXT, _NUMBER, _NUMBER, _NUMBER, _NUMBER, _TEXT, _NUMBER), _TEXT)] * 2))
_PATH_HEAD, _VERTEX, (_PATH_TAIL,), (_PATH_EMPTY_TAIL,) = _cut(
    {"status": _TEXT}, "vertices", _vertex_json(_TEXT, _TEXT))
(_CF_HEAD,), (_CF_DIGIT, _), (_CF_TAIL,), _ = _cut({}, "digits", _NUMBER)
_CF_HEAD += _CF_DIGIT[1:]  # an expansion has at least one digit, and the first drops the separator's comma
# A presentation's slots, in the sorted order of their keys: p, q, u, v.
_RING = _dumped(_ring_json(_TEXT, _TEXT, _NUMBER, _NUMBER)).split(_TEXT)


_BLOCK = 1 << 16  # characters per write, about; the emitters write ASCII, so bytes


def _blocks(items: Iterator[str]) -> Iterator[str]:
    """The items joined in order into blocks of at least ``_BLOCK`` characters, the last maybe fewer.

    A block ends at the first item that brings it to ``_BLOCK``, so none
    is longer than that plus one item.  Bounding a block by characters,
    not by items, keeps the memory it holds flat on wide pairs, whose
    ``--trace`` steps run to kilobytes each.
    """
    block, size = [], 0
    for item in items:
        block.append(item)
        size += len(item)
        if size >= _BLOCK:
            yield "".join(block)
            block, size = [], 0
    if block:
        yield "".join(block)


def _json_items(items: Iterator[str]) -> Iterator[str]:
    """Blocks of a JSON array's items after its ``[``; each item opens with ``,\\n``, the first with ``\\n``."""
    first = next(items, None)
    if first is not None:
        yield from _blocks(chain((first[1:],), items))


def _json_step(_: int, chart, first, second, through1, through2, sign, kind, k1, k2) -> str:
    """A run's last blow-up of ``_blow_ups`` as a JSON array item, its ``,\\n`` first.

    The item is ``_STEP``, the blow-up's layout cut from ``json.dumps``
    output at import, filled with the row's values in one f-string.
    Monomial names and classifications hold no character that JSON
    escapes, so they fill the string slots as they are.  JSON prints no
    index.
    """
    f, g, exc_f, exc_g, s, t = chart
    f1, g1, exc_f1, exc_g1, s1, t1 = first
    f2, g2, exc_f2, exc_g2, s2, t2 = second
    (p0, p1, p2, p3, p4, p5, p6, p7, p8, p9, p10, p11, p12, p13, p14, p15, p16, p17, p18, p19, p20, p21, p22, p23,
     p24, p25, p26) = _STEP
    return (f"{p0}{f}{p1}{g}{p2}{exc_f}{p3}{exc_g}{p4}{s}{p5}{t}{p6}{sign}"
            f"{p7}{f1}{p8}{g1}{p9}{exc_f1}{p10}{exc_g1}{p11}{s1}{p12}{t1}{p13}{_PROPER[through1]}{p14}{sign}"
            f"{p15}{k1}{p16}{f2}{p17}{g2}{p18}{exc_f2}{p19}{exc_g2}{p20}{s2}{p21}{t2}{p22}{_PROPER[through2]}"
            f"{p23}{-sign}{p24}{k2}{p25}{kind}{p26}")


_MARK = "\0"  # a marker for a value in a row's layout; no name or number holds it


def _json_stretch(_: int, stretch: _Stretch) -> Iterator[str]:
    """A stretch's rows as JSON array items, laid out by ``_json_step`` in the layout cut from ``json.dumps``.

    ``_json_step`` is filled once per stretch with the run's constants and
    ``_MARK`` for each of the 12 values that vary down a run; each row
    then fills those 12 between the 13 pieces of text around them.
    """
    f, exc_g, t, sign, kind, g, exc_f, s, names, inverses, es, ds = stretch
    v = _MARK
    p0, p1, p2, p3, p4, p5, p6, p7, p8, p9, p10, p11, p12 = _json_step(
        0, (f, v, v, exc_g, v, t), (f, v, v, exc_g, v, t), (v, v, v, v, v, v),
        True, False, sign, kind, kind, _RESOLVED,
    ).split(v)
    return (
        f"{p0}{g}{p1}{a}{p2}{s}{p3}{g1}{p4}{e}{p5}{d}{p6}{g}{p7}{fg}{p8}{e}{p9}{a}{p10}{d}{p11}{s}{p12}"
        for g, g1, fg, a, e, s, d in zip(chain((g,), names), names, inverses,
                                         chain((exc_f,), es), es, chain((s,), ds), ds)
    )


_KIND = {k: k.value for k in Classification}  # faster than the enum's .value
_RESOLVED = _KIND[Classification.RESOLVED]


def _trace_json(trace: ResolutionTrace) -> Iterator[str]:
    (h0, h1, h2), (t0, t1) = _TRACE_HEAD, _TRACE_TAIL
    yield f"{h0}{trace.a}{h1}{trace.b}{h2}"
    yield from _json_items(_filled(trace, True, _json_stretch, _json_step))
    yield f"{t0}{trace.blow_up_count}{t1}"


def _path_json(path: PositivePath) -> Iterator[str]:
    (h0, h1), (v0, v1, v2) = _PATH_HEAD, _VERTEX
    yield f"{h0}{path.status}{h1}"
    yield from _json_items(f"{v0}{f}{v1}{g}{v2}" for f, g in path_names(path.runs))
    yield _PATH_TAIL if path.count else _PATH_EMPTY_TAIL


def json_chunks(obj) -> Iterator[str]:
    """``emit_json(obj)`` in pieces; a trace or path is made a block of items at a time.

    Any other object is written whole before this returns, so an integer
    too long to print raises here, not while the chunks are drawn.
    """
    if isinstance(obj, ResolutionTrace):
        return _trace_json(obj)
    if isinstance(obj, PositivePath):
        return _path_json(obj)
    if isinstance(obj, CFExpansion):
        return iter((f"{_CF_HEAD}{_CF_DIGIT.join(_digit_strings(obj.digits))}{_CF_TAIL}",))
    if isinstance(obj, RingPresentation):
        r0, r1, r2, r3, r4 = _RING
        return iter((f"{r0}{obj.p}{r1}{obj.q}{r2}{obj.u}{r3}{obj.v}{r4}",))
    return iter((json.dumps(to_jsonable(obj), sort_keys=True, indent=2),))


def emit_json(obj) -> str:
    """``json.dumps(to_jsonable(obj), sort_keys=True, indent=2)``, byte for byte."""
    return "".join(json_chunks(obj))


def _dot_head(name: str) -> str:
    return f'digraph {name} {{\n  rankdir=LR;\n  node [shape=box, fontname="monospace"];\n'


def _dot_path(path: PositivePath) -> Iterator[str]:
    yield _dot_head("positive_path")
    yield from _blocks(f'  v{i} [label="k[{f}, {g}]", style=bold];\n'
                       for i, (f, g) in enumerate(path_names(path.runs)))
    if not path.complete:
        yield '  trunc [label="(truncated)", shape=plaintext];\n'
    yield from _blocks(f"  v{i} -> v{i + 1};\n" for i in range(path.count - 1))
    if not path.complete and path.count:
        yield f"  v{path.count - 1} -> trunc [style=dashed];\n"
    yield "}\n"


def _dot_children(i: int, resolved: int) -> tuple[str, str]:
    """DOT node names of blow-up i's children; bit k of ``resolved`` is set when child k is.

    A child left to blow up is the next bold node, b(i + 1); resolved
    children are side nodes, numbered in order.
    """
    first = f"s{i}_0" if resolved & 1 else f"b{i + 1}"
    second = f"s{i}_{resolved & 1}" if resolved & 2 else f"b{i + 1}"
    return first, second


def _dot_node(name: str, f: str, g: str, kind: str) -> str:
    """A trace's DOT node for the chart on generators f, g of classification ``kind``: bold unless resolved."""
    bold = "" if kind == _RESOLVED else ", style=bold"
    return f'  {name} [label="k[{f}, {g}]\\n({kind})"{bold}];\n'


def _dot_row(i: int, chart, c1, c2, through1, through2, sign, kind, k1, k2) -> str:
    """The DOT nodes of the children of blow-up i, a run's last."""
    n1, n2 = _dot_children(i, (k1 == _RESOLVED) | (k2 == _RESOLVED) << 1)
    return _dot_node(n1, c1[0], c1[1], k1) + _dot_node(n2, c2[0], c2[1], k2)


def _dot_stretch(i: int, stretch: _Stretch) -> Iterator[str]:
    """The DOT nodes of the children of a stretch's rows, laid out by ``_dot_node``.

    The first child of blow-up k is the next bold node, b(k + 1), and its
    second the resolved side node s(k)_0; the stretch starts at blow-up
    i.  The two nodes are filled once per stretch with ``_MARK`` for the
    values that vary, and each number is printed once, for a blow-up k
    and for b(k + 1).
    """
    f, _, _, _, kind, g, _, _, names, inverses, _, _ = stretch
    v = _MARK
    p0, p1, p2, p3, p4, p5 = (_dot_node(f"b{v}", f, v, kind) + _dot_node(f"s{v}_0", v, v, _RESOLVED)).split(v)
    numbers = list(map(str, range(i, i + len(names) + 1)))
    return (f"{p0}{j}{p1}{g1}{p2}{k}{p3}{g}{p4}{fg}{p5}"
            for k, j, g, g1, fg in zip(numbers, islice(numbers, 1, None), chain((g,), names), names, inverses))


def _dot_nodes(trace: ResolutionTrace) -> Iterator[str]:
    """A trace's DOT nodes: the first chart, blown up so bold, then each blow-up's children."""
    row = trace.runs[0][0]
    yield _dot_node("b0", monomial_name(row[0], row[1]), monomial_name(row[2], row[3]), _KIND[_kind(row)])
    yield from _filled(trace, False, _dot_stretch, _dot_row)


def _dot_edges(trace: ResolutionTrace) -> Iterator[str]:
    """A trace's DOT edges, as ``_dot_children`` names them, read from its runs.

    Inside a run the first child is blown up next and the second is
    resolved (bits 2), so all but a run's last blow-up are written a
    stretch at a time.  The last has bits 2 when the next run keeps the
    run's f, as the first child (f, g/f) does; 1 when the next run starts
    at the second child, whose f is g; and 3 when no run follows.
    """
    runs, i = trace.runs, 0
    for (row, n), (after, _) in zip(runs, chain(runs[1:], ((None, 0),))):
        last = i + n - 1
        for i0 in range(i, last, _STRETCH):
            yield from _dot_edge_stretch(i0, min(i0 + _STRETCH, last))
        resolved = 3 if after is None else 2 if after[:2] == row[:2] else 1
        first, second = _dot_children(last, resolved)
        yield f"  b{last} -> {first};\n  b{last} -> {second};\n"
        i = last + 1


def _dot_edge_stretch(i0: int, i1: int) -> list[str]:
    """The DOT edges of blow-ups i0 to i1 - 1 inside a run: each blows up its first child next.

    Each number is printed once, for a blow-up i and for the next bold
    node b(i + 1).
    """
    numbers = list(map(str, range(i0, i1 + 1)))
    return [f"  b{i} -> b{j};\n  b{i} -> s{i}_0;\n" for i, j in zip(numbers, numbers[1:])]


def _dot_trace(trace: ResolutionTrace) -> Iterator[str]:
    yield _dot_head("resolution_trace")
    yield from _blocks(_dot_nodes(trace))
    yield from _blocks(_dot_edges(trace))
    yield "}\n"


def dot_chunks(obj) -> Iterator[str]:
    """``emit_dot(obj)`` in pieces; a trace or path is made a block of items at a time."""
    if isinstance(obj, PositivePath):
        return _dot_path(obj)
    if isinstance(obj, ResolutionTrace):
        return _dot_trace(obj)
    raise TypeError(f"cannot emit {type(obj).__name__} as DOT")


def emit_dot(obj) -> str:
    """DOT digraph for a positive path or a resolution trace.

    Path and bad-chart vertices are bold; a truncated path ends in a
    dashed marker node; resolved side charts of a trace appear unbolded.
    """
    return "".join(dot_chunks(obj))


def path_text_chunks(path: PositivePath, heading: str) -> Iterator[str]:
    """``format_path_text(path, heading)`` in pieces: the heading, blocks of vertices, the status."""
    yield heading + "\n"
    yield from _blocks(f"  {i}: k[{f}, {g}]\n" for i, (f, g) in enumerate(path_names(path.runs)))
    yield f"status: {path.status} ({path.count} vertices)\n"


def format_path_text(path: PositivePath, heading: str) -> str:
    return "".join(path_text_chunks(path, heading))


def _grouped(name: str) -> str:
    """``name`` parenthesised to take an exponent, when it is a product, quotient or power."""
    return f"({name})" if "*" in name or "/" in name or "^" in name else name


def _pow_str(name: str, e: str) -> str:
    """``name`` raised to the power written ``e``."""
    if e == "0":
        return "1"
    name = _grouped(name)
    return name if e == "1" else f"{name}^{e}"


def _chart_text(f: str, g: str, exc_f: str, exc_g: str, p: str, q: str,
                through: bool, sign: int) -> str:
    """The decomposition of the chart on names f, g with the powers written as given.

    The proper transform is f^p - g^q when ``through``, else 1 - f^p g^q.
    """
    exc_parts = [x for x in (_pow_str(f, exc_f), _pow_str(g, exc_g)) if x != "1"]
    exc = " * ".join(exc_parts) if exc_parts else "1"
    if through:
        proper = f"{_pow_str(f, p)} - {_pow_str(g, q)}"
    else:
        pieces = [x for x in (_pow_str(f, p), _pow_str(g, q)) if x != "1"]
        proper = f"1 - {' * '.join(pieces)}"
    return f"V({exc}) + V({proper})" if sign == 1 else f"V({exc}) + V(-({proper}))"


def format_chart_text(c: ChartState) -> str:
    """One-line ``V(exceptional) + V(proper)`` decomposition of a chart."""
    return _chart_text(monomial_name(c.fx, c.fy), monomial_name(c.gx, c.gy), str(c.exc_f),
                       str(c.exc_g), str(abs(c.p)), str(c.q), c.p > 0, c.sign)


def _step_text(n, chart, first, second, through1, through2, sign, kind, k1, k2) -> str:
    """Blow-up n of ``_blow_ups`` as ``--trace`` text: its chart and each child's decomposition."""
    text1 = _chart_text(*first, through1, sign)
    text2 = _chart_text(*second, through2, -sign)
    return (f"  blow-up {n} at the origin of k[{chart[0]}, {chart[1]}]:\n"
            f"    k[{first[0]}, {first[1]}]: {text1} [{k1}]\n"
            f"    k[{second[0]}, {second[1]}]: {text2} [{k2}]\n")


def _step_stretch(n: int, stretch: _Stretch) -> Iterator[str]:
    """A stretch's rows as ``--trace`` steps, laid out by ``_step_text``.

    ``_step_text`` is filled once per stretch with the run's constants and
    ``_MARK`` for each of the 17 values that vary down a run; each row then
    fills those 17 between the 18 pieces of text around them.  A name is
    marked bare in k[f, g] and, ``_grouped``, where ``_chart_text`` raises
    it to a power.  Each varying power is at least 2 (see ``_blow_ups``),
    so ``_pow_str`` prints it as it prints the marker.
    """
    f, exc_g, t, sign, kind, g, exc_f, s, names, inverses, es, ds = stretch
    v = _MARK
    first = (f, v, v, exc_g, v, t)
    pieces = _step_text(v, first, first, (v,) * 6, True, False, sign, kind, kind, _RESOLVED).split(v)
    grouped = list(map(_grouped, names))
    excs = grouped
    if exc_g == "0":  # _chart_text leaves the first child's g^0 out: an empty place stands for it
        pieces.insert(4, "")
        excs = repeat("")
    rows = zip(map(str, count(n)), chain((g,), names), names, inverses, chain((exc_f,), es), es,
               chain((s,), ds), ds, chain((_grouped(g),), grouped), grouped, map(_grouped, inverses), excs)

    def text(k, g, g1, fg, a, e, s, d, *_) -> str:
        return _step_text(k, (f, g), (f, g1, e, exc_g, d, t), (g, fg, e, a, d, s),
                          True, False, sign, kind, kind, _RESOLVED)

    if len(pieces) < 18:  # a t of 0 leaves out the first child's g^t too; no run that resolve makes has one
        yield from starmap(text, rows)
        return
    if exc_f in ("0", "1"):  # a run's first row may have a power of 0 or 1, which the layout cannot print
        yield text(*next(rows))
    p0, p1, p2, p3, p4, p5, p6, p7, p8, p9, p10, p11, p12, p13, p14, p15, p16, p17 = pieces
    for k, g, g1, fg, a, e, s, d, pg, pg1, pfg, x in rows:
        yield (f"{p0}{k}{p1}{g}{p2}{g1}{p3}{e}{p4}{x}{p5}{d}{p6}{pg1}{p7}{g}{p8}{fg}"
               f"{p9}{pg}{p10}{e}{p11}{pfg}{p12}{a}{p13}{pg}{p14}{d}{p15}{pfg}{p16}{s}{p17}")


def trace_text_chunks(trace: ResolutionTrace, show_steps: bool = False) -> Iterator[str]:
    """``format_trace_text(trace, show_steps)`` in pieces: each heading, then its section in blocks.

    The bad charts are named from the trace's runs by ``path_names``,
    each row with its run's classification; only the steps print
    children, so only ``show_steps`` reads ``_blow_ups``.
    """
    yield (f"resolution of x^{trace.b} = y^{trace.a}: {trace.blow_up_count} blow-ups\n"
           "bad charts:\n")
    # range, not repeat: a run may be longer than a C integer
    kinds = (kind for row, n in trace.runs for kind in [_KIND[_kind(row)]] for _ in range(n))
    yield from _blocks(f"  {i}: k[{f}, {g}] ({kind})\n"
                       for i, ((f, g), kind) in enumerate(zip(path_names(trace.runs), kinds)))
    if not show_steps:
        return
    yield "steps:\n"
    yield from _blocks(_filled(trace, True, _step_stretch, _step_text, 1))


def format_trace_text(trace: ResolutionTrace, show_steps: bool = False) -> str:
    return "".join(trace_text_chunks(trace, show_steps))


def format_verify_text(report: VerifyReport) -> str:
    lines = [f"verify sweep up to a = {report.max_a}: {report.pairs} coprime pairs"]
    for name, counts in report.checks.items():
        lines.append(f"  {name}: {counts.passed} passed, {counts.failed} failed")
    if report.first_failure is not None:
        f = report.first_failure
        lines.append(f"first failure: ({f.a}, {f.b}) {f.check}: {f.detail}")
    lines.append("all checks passed" if report.all_passed else "FAILURES FOUND")
    return "\n".join(lines) + "\n"
