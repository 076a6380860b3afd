"""Deterministic JSON and DOT emitters.

Identical inputs produce byte-identical output: JSON keys are sorted,
numbers are exact Python integers (arbitrary precision survives the
round trip), rationals are "p/q" strings, and DOT nodes are emitted in a
fixed traversal order.  Monomials print in reduced fraction form, which
is also what the expression parser reads back.

``to_jsonable`` is the plain dict/list view of every emittable object,
and ``emit_json(obj)`` is ``json.dumps(to_jsonable(obj), sort_keys=True,
indent=2)`` byte for byte.  Resolution traces and positive paths, the
outputs that run to tens of megabytes, are written straight from the
objects through fixed ``str.format`` templates laid out as that call lays
them out; monomial names go through ``encode_basestring_ascii``, the
escaper ``json.dumps`` itself uses.  Every other object goes through
``json.dumps``.

Consecutive charts and path vertices share generators, and a chart's
exponents recur in its children, so each trace or path emitter names
every monomial once per output, and the trace emitters write every
exponent once, in a memo local to the call.  The memo is keyed by ``Monomial`` (and ``int``), never
by ``ChartBasis``: a basis compares equal under swapped generators while
its ``str`` does not.  Exponents of a wide pair run to hundreds of digits,
and ``str`` of an int takes time quadratic in its length.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .exactnum import CFExpansion
from .laurent import ChartBasis, Monomial
from .resolution import (
    ChartState,
    Classification,
    ResolutionTrace,
    TheoremReport,
    ThroughOrigin,
)
from .valring import RingPresentation
from .valtree import CorrespondenceReport, PositivePath
from .verify import VerifyReport


class _Names(dict):
    """``str`` of each monomial or exponent, computed on first use.

    An ``int`` never equals a ``Monomial``, so both kinds share one memo.
    """

    __slots__ = ()

    def __missing__(self, key: Monomial | int) -> str:
        name = self[key] = str(key)
        return name

    def basis(self, v: ChartBasis) -> str:
        """``str(v)``, from the memo."""
        return f"k[{self[v.f]}, {self[v.g]}]"


class _JsonNames(dict):
    """JSON string literal of each monomial's name, computed on first use."""

    __slots__ = ()

    def __missing__(self, mono: Monomial) -> str:
        name = self[mono] = encode_basestring_ascii(str(mono))
        return name


def _vertex_json(v: ChartBasis) -> dict:
    return {"f": str(v.f), "g": str(v.g)}


def _chart_json(c: ChartState) -> dict:
    if isinstance(c.proper, ThroughOrigin):
        proper = {"kind": "through-origin", "f_power": c.proper.s, "g_power": c.proper.t}
    else:
        proper = {
            "kind": "misses-origin",
            "f_power": c.proper.f_exp,
            "g_power": c.proper.g_exp,
        }
    return {
        "basis": _vertex_json(c.basis),
        "exceptional": {"f": c.exc_f, "g": c.exc_g},
        "proper": proper,
        "sign": c.sign,
    }


def to_jsonable(obj):
    """Plain dict/list view of any emittable object."""
    if isinstance(obj, CFExpansion):
        return {"digits": list(obj.digits)}
    if isinstance(obj, PositivePath):
        return {
            "status": obj.status,
            "vertices": [_vertex_json(v) for v in obj.vertices],
        }
    if isinstance(obj, RingPresentation):
        return {"u": str(obj.u), "v": str(obj.v), "p": obj.p, "q": obj.q}
    if isinstance(obj, ResolutionTrace):
        return {
            "a": obj.a,
            "b": obj.b,
            "count": obj.blow_up_count,
            "blow_ups": [
                {
                    "chart": _chart_json(step.chart),
                    "classification": step.classification.value,
                    "children": [
                        {"chart": _chart_json(child), "classification": kind.value}
                        for child, kind in step.children
                    ],
                }
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
    if isinstance(obj, CorrespondenceReport):
        return {
            "a": obj.a,
            "b": obj.b,
            "branch_lengths": list(obj.branch_lengths),
            "cf_digits": list(obj.cf_digits),
            "expected_lengths": list(obj.expected_lengths),
            "match": obj.match,
        }
    if isinstance(obj, VerifyReport):
        return {
            "max_a": obj.max_a,
            "pairs": obj.pairs,
            "all_passed": obj.all_passed,
            "checks": {
                name: {"passed": c.passed, "failed": c.failed}
                for name, c in obj.checks.items()
            },
            "first_failure": None
            if obj.first_failure is None
            else {
                "a": obj.first_failure.a,
                "b": obj.first_failure.b,
                "check": obj.first_failure.check,
                "detail": obj.first_failure.detail,
            },
        }
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {k: to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    raise TypeError(f"cannot emit {type(obj).__name__} as JSON")


def _json_list(items: list[str]) -> str:
    """JSON array, as a top-level value's field, of items rendered at depth 4."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n  ]"


def _chart_template(depth: int) -> str:
    """The eight ``_chart_fields`` of a chart object whose ``{`` opens a line at ``depth``."""
    return """{{
  "basis": {{
    "f": {},
    "g": {}
  }},
  "exceptional": {{
    "f": {},
    "g": {}
  }},
  "proper": {{
    "f_power": {},
    "g_power": {},
    "kind": {}
  }},
  "sign": {}
}}""".replace("\n", "\n" + " " * depth)


# A child at depth 8: its chart's fields, then its classification.
_CHILD = (
    '        {{\n          "chart": ' + _chart_template(10)
    + ',\n          "classification": {}\n        }}'
)
# A blow-up at depth 4: its chart's fields, both children, then its own
# classification.
_STEP = (
    '    {{\n      "chart": ' + _chart_template(6) + ',\n      "children": [\n'
    + _CHILD + ",\n" + _CHILD + '\n      ],\n      "classification": {}\n    }}'
)
_TRACE = '{{\n  "a": {},\n  "b": {},\n  "blow_ups": {},\n  "count": {}\n}}'
_VERTEX = '    {{\n      "f": {},\n      "g": {}\n    }}'
_PATH = '{{\n  "status": {},\n  "vertices": {}\n}}'
_THROUGH = encode_basestring_ascii("through-origin")
_MISSES = encode_basestring_ascii("misses-origin")
_KIND = {k: encode_basestring_ascii(k.value) for k in Classification}


def _chart_fields(c: ChartState, names: _JsonNames, nums: _Names) -> tuple:
    p = c.proper
    if isinstance(p, ThroughOrigin):
        f_power, g_power, kind = p.s, p.t, _THROUGH
    else:
        f_power, g_power, kind = p.f_exp, p.g_exp, _MISSES
    return (names[c.basis.f], names[c.basis.g], nums[c.exc_f], nums[c.exc_g],
            nums[f_power], nums[g_power], kind, c.sign)


def _trace_json(trace: ResolutionTrace) -> str:
    names, nums = _JsonNames(), _Names()
    step_t = _STEP.format
    steps = []
    for step in trace.steps:
        (first, k1), (second, k2) = step.children
        steps.append(step_t(
            *_chart_fields(step.chart, names, nums),
            *_chart_fields(first, names, nums), _KIND[k1],
            *_chart_fields(second, names, nums), _KIND[k2],
            _KIND[step.classification],
        ))
    return _TRACE.format(trace.a, trace.b, _json_list(steps), trace.blow_up_count)


def _path_json(path: PositivePath) -> str:
    names = _JsonNames()
    vertex = _VERTEX.format
    vertices = [vertex(names[v.f], names[v.g]) for v in path.vertices]
    return _PATH.format(encode_basestring_ascii(path.status), _json_list(vertices))


def emit_json(obj) -> str:
    """``json.dumps(to_jsonable(obj), sort_keys=True, indent=2)``, byte for byte."""
    if isinstance(obj, ResolutionTrace):
        return _trace_json(obj)
    if isinstance(obj, PositivePath):
        return _path_json(obj)
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=2)


def _dot_path(path: PositivePath) -> str:
    names = _Names()
    lines = [
        "digraph positive_path {",
        "  rankdir=LR;",
        '  node [shape=box, fontname="monospace"];',
    ]
    for i, v in enumerate(path.vertices):
        lines.append(f'  v{i} [label="{names.basis(v)}", style=bold];')
    if not path.complete:
        lines.append('  trunc [label="(truncated)", shape=plaintext];')
    for i in range(len(path.vertices) - 1):
        lines.append(f"  v{i} -> v{i + 1};")
    if not path.complete and path.vertices:
        lines.append(f"  v{len(path.vertices) - 1} -> trunc [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_trace(trace: ResolutionTrace) -> str:
    names = _Names()
    lines = [
        "digraph resolution_trace {",
        "  rankdir=LR;",
        '  node [shape=box, fontname="monospace"];',
    ]
    node_lines: list[str] = []
    edge_lines: list[str] = []
    for i, step in enumerate(trace.steps):
        if i == 0:
            label = f"{names.basis(step.chart.basis)}\\n({step.classification.value})"
            node_lines.append(f'  b0 [label="{label}", style=bold];')
        side = 0
        for child, kind in step.children:
            label = f"{names.basis(child.basis)}\\n({kind.value})"
            if kind is not Classification.RESOLVED:
                name = f"b{i + 1}"
                node_lines.append(f'  {name} [label="{label}", style=bold];')
            else:
                name = f"s{i}_{side}"
                side += 1
                node_lines.append(f'  {name} [label="{label}"];')
            edge_lines.append(f"  b{i} -> {name};")
    lines.extend(node_lines)
    lines.extend(edge_lines)
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_dot(obj) -> str:
    """DOT digraph for a positive path or a resolution trace.

    Path and bad-chart vertices are bold; a truncated path ends in a
    dashed marker node; resolved side charts of a trace appear unbolded.
    """
    if isinstance(obj, PositivePath):
        return _dot_path(obj)
    if isinstance(obj, ResolutionTrace):
        return _dot_trace(obj)
    raise TypeError(f"cannot emit {type(obj).__name__} as DOT")


def format_path_text(path: PositivePath, heading: str) -> str:
    names = _Names()
    lines = [heading]
    for i, v in enumerate(path.vertices):
        lines.append(f"  {i}: {names.basis(v)}")
    lines.append(f"status: {path.status} ({len(path)} vertices)")
    return "\n".join(lines) + "\n"


def _pow_str(names: _Names, mono: Monomial, e: int) -> str:
    if e == 0:
        return "1"
    name = names[mono]
    if "*" in name or "/" in name or "^" in name:
        name = f"({name})"
    return name if e == 1 else f"{name}^{names[e]}"


def _chart_text(c: ChartState, names: _Names) -> str:
    f, g = c.basis.f, c.basis.g
    exc_f, exc_g = _pow_str(names, f, c.exc_f), _pow_str(names, g, c.exc_g)
    exc_parts = [p for p in (exc_f, exc_g) if p != "1"]
    exc = " * ".join(exc_parts) if exc_parts else "1"
    if isinstance(c.proper, ThroughOrigin):
        proper = f"{_pow_str(names, f, c.proper.s)} - {_pow_str(names, g, c.proper.t)}"
    else:
        mono = _pow_str(names, f, c.proper.f_exp)
        mono_g = _pow_str(names, g, c.proper.g_exp)
        pieces = [p for p in (mono, mono_g) if p != "1"]
        proper = f"1 - {' * '.join(pieces)}"
    sign = "" if c.sign == 1 else "-"
    return f"V({exc}) + V({sign}({proper}))" if sign else f"V({exc}) + V({proper})"


def format_chart_text(c: ChartState) -> str:
    """One-line ``V(exceptional) + V(proper)`` decomposition of a chart."""
    return _chart_text(c, _Names())


def format_trace_text(trace: ResolutionTrace, show_steps: bool = False) -> str:
    names = _Names()
    lines = [
        f"resolution of x^{trace.b} = y^{trace.a}: {trace.blow_up_count} blow-ups",
        "bad charts:",
    ]
    for i, step in enumerate(trace.steps):
        lines.append(f"  {i}: {names.basis(step.chart.basis)} ({step.classification.value})")
    if show_steps:
        lines.append("steps:")
        for i, step in enumerate(trace.steps):
            lines.append(f"  blow-up {i + 1} at the origin of {names.basis(step.chart.basis)}:")
            for child, kind in step.children:
                lines.append(
                    f"    {names.basis(child.basis)}: {_chart_text(child, names)} [{kind.value}]"
                )
    return "\n".join(lines) + "\n"


def format_verify_text(report: VerifyReport) -> str:
    lines = [f"verify sweep up to a = {report.max_a}: {report.pairs} coprime pairs"]
    for name, counts in report.checks.items():
        lines.append(f"  {name}: {counts.passed} passed, {counts.failed} failed")
    if report.first_failure is not None:
        f = report.first_failure
        lines.append(f"first failure: ({f.a}, {f.b}) {f.check}: {f.detail}")
    lines.append("all checks passed" if report.all_passed else "FAILURES FOUND")
    return "\n".join(lines) + "\n"
