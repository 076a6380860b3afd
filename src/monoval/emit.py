"""Deterministic JSON and DOT emitters.

Identical inputs produce byte-identical output: JSON keys are sorted,
numbers are exact Python integers (arbitrary precision survives the
round trip), rationals are "p/q" strings, and DOT nodes are emitted in a
fixed traversal order.  Monomials print in reduced fraction form, which
is also what the expression parser reads back.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .exactnum import CFExpansion
from .laurent import ChartBasis
from .resolution import (
    ChartState,
    Classification,
    MissesOrigin,
    ResolutionTrace,
    TheoremReport,
    ThroughOrigin,
)
from .valring import RingPresentation
from .valtree import CorrespondenceReport, PositivePath
from .verify import VerifyReport


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


def emit_json(obj) -> str:
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=2)


def _dot_path(path: PositivePath) -> str:
    lines = [
        "digraph positive_path {",
        "  rankdir=LR;",
        '  node [shape=box, fontname="monospace"];',
    ]
    for i, v in enumerate(path.vertices):
        lines.append(f'  v{i} [label="{v}", style=bold];')
    if not path.complete:
        lines.append('  trunc [label="(truncated)", shape=plaintext];')
    for i in range(len(path.vertices) - 1):
        lines.append(f"  v{i} -> v{i + 1};")
    if not path.complete and path.vertices:
        lines.append(f"  v{len(path.vertices) - 1} -> trunc [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_trace(trace: ResolutionTrace) -> str:
    lines = [
        "digraph resolution_trace {",
        "  rankdir=LR;",
        '  node [shape=box, fontname="monospace"];',
    ]
    node_lines: list[str] = []
    edge_lines: list[str] = []
    for i, step in enumerate(trace.steps):
        if i == 0:
            node_lines.append(
                f'  b0 [label="{step.chart.basis}\\n({step.classification.value})", style=bold];'
            )
        side = 0
        for child, kind in step.children:
            if kind is not Classification.RESOLVED:
                name = f"b{i + 1}"
                node_lines.append(
                    f'  {name} [label="{child.basis}\\n({kind.value})", style=bold];'
                )
            else:
                name = f"s{i}_{side}"
                side += 1
                node_lines.append(f'  {name} [label="{child.basis}\\n({kind.value})"];')
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
    lines = [heading]
    for i, v in enumerate(path.vertices):
        lines.append(f"  {i}: {v}")
    lines.append(f"status: {path.status} ({len(path)} vertices)")
    return "\n".join(lines) + "\n"


def _pow_str(mono, e: int) -> str:
    if e == 0:
        return "1"
    s = str(mono)
    if any(ch in s for ch in "*/^"):
        s = f"({s})"
    return s if e == 1 else f"{s}^{e}"


def format_chart_text(c: ChartState) -> str:
    """One-line ``V(exceptional) + V(proper)`` decomposition of a chart."""
    f, g = c.basis.f, c.basis.g
    exc_parts = [p for p in (_pow_str(f, c.exc_f), _pow_str(g, c.exc_g)) if p != "1"]
    exc = " * ".join(exc_parts) if exc_parts else "1"
    if isinstance(c.proper, ThroughOrigin):
        proper = f"{_pow_str(f, c.proper.s)} - {_pow_str(g, c.proper.t)}"
    else:
        mono = _pow_str(f, c.proper.f_exp)
        mono_g = _pow_str(g, c.proper.g_exp)
        pieces = [p for p in (mono, mono_g) if p != "1"]
        proper = f"1 - {' * '.join(pieces)}"
    sign = "" if c.sign == 1 else "-"
    return f"V({exc}) + V({sign}({proper}))" if sign else f"V({exc}) + V({proper})"


def format_trace_text(trace: ResolutionTrace, show_steps: bool = False) -> str:
    lines = [
        f"resolution of x^{trace.b} = y^{trace.a}: {trace.blow_up_count} blow-ups",
        "bad charts:",
    ]
    for i, step in enumerate(trace.steps):
        lines.append(f"  {i}: {step.chart.basis} ({step.classification.value})")
    if show_steps:
        lines.append("steps:")
        for i, step in enumerate(trace.steps):
            lines.append(f"  blow-up {i + 1} at the origin of {step.chart.basis}:")
            for child, kind in step.children:
                lines.append(f"    {child.basis}: {format_chart_text(child)} [{kind.value}]")
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
