"""Span tracing around monoval's public functions, installed from outside.

``Tracer.install`` wraps each function and method named in ``TARGETS``.
A module-level function is replaced in every ``monoval`` module namespace
that holds it, so calls made through ``from .x import f`` bindings are
traced too; a method is replaced on its class.  Each call records a span
(id, name, start, end, parent id, request id).  Self time is a span's
duration minus the time its child spans cover; durations leave out the
time the host-speed sampler (``hostspeed.py``) spends inside the span.  Aggregates are kept for
every span; the raw span list is capped so a long sweep stays small.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

# (module, attribute path, span name)
TARGETS = (
    ("exactnum", "cf_expand", "exactnum.cf_expand"),
    ("exactnum", "cf_value", "exactnum.cf_value"),
    ("exactnum", "cf_convergents", "exactnum.cf_convergents"),
    ("exactnum", "stream_compare", "exactnum.stream_compare"),
    ("exactnum", "CFStream.digit", "exactnum.stream_digit"),
    ("laurent", "LaurentPolynomial.__init__", "laurent.init"),
    ("laurent", "LaurentPolynomial.__mul__", "laurent.mul"),
    ("laurent", "LaurentPolynomial.__rmul__", "laurent.mul"),
    ("laurent", "LaurentPolynomial.__add__", "laurent.add"),
    ("laurent", "LaurentPolynomial.__sub__", "laurent.sub"),
    ("laurent", "LaurentPolynomial.__neg__", "laurent.neg"),
    ("laurent", "LaurentPolynomial.__pow__", "laurent.pow"),
    ("laurent", "LaurentPolynomial.shift", "laurent.shift"),
    ("laurent", "LaurentPolynomial.__eq__", "laurent.eq"),
    ("laurent", "rewrite_in_chart", "laurent.rewrite_in_chart"),
    ("laurent", "expand_from_chart", "laurent.expand_from_chart"),
    ("laurent", "factor_monomial_content", "laurent.factor_monomial_content"),
    ("valuation", "RationalRatioGroup.compare", "valuation.rational_compare"),
    ("valuation", "StreamRatioGroup.compare", "valuation.stream_compare"),
    ("valuation", "LexZ2Group.compare", "valuation.lex_compare"),
    ("valuation", "MonomialValuation.__call__", "valuation.eval"),
    ("valtree", "positive_path", "valtree.path"),
    ("valtree", "positive_child", "valtree.positive_child"),
    ("valtree", "children", "valtree.children"),
    ("valtree", "branch_decomposition", "valtree.branch"),
    ("valtree", "cf_correspondence_check", "valtree.cf_check"),
    ("valring", "ring_generators", "valring.ringgens"),
    ("valring", "bezout", "valring.bezout"),
    ("valring", "membership_structural", "valring.membership"),
    ("valring", "membership_by_value", "valring.membership"),
    ("valring", "membership_union", "valring.membership"),
    ("expr", "parse_expression", "expr.parse"),
    ("expr", "lower", "expr.lower"),
    ("expr", "parse_rational_function", "expr.parse_rational_function"),
    ("resolution", "resolve", "resolution.resolve"),
    ("resolution", "blow_up", "resolution.blow_up"),
    ("resolution", "classify", "resolution.classify"),
    ("resolution", "check_theorem", "resolution.check_theorem"),
    ("resolution", "bad_vertex_path", "resolution.bad_vertex_path"),
    ("resolution", "expand_chart", "resolution.expand_chart"),
    ("resolution", "verify_reconstruction", "resolution.verify_reconstruction"),
    ("resolution", "chart_agrees_with_lattice", "resolution.chart_agrees_with_lattice"),
    ("verify", "run_verify", "verify.run"),
    ("emit", "emit_json", "emit.json"),
    ("emit", "emit_dot", "emit.dot"),
    ("emit", "format_path_text", "emit.text"),
    ("emit", "format_trace_text", "emit.text"),
    ("emit", "format_verify_text", "emit.text"),
    ("emit", "format_chart_text", "emit.text"),
    ("cli", "main", "cli.main"),
)

LAYERS = (
    "exactnum", "laurent", "valuation", "valtree", "valring",
    "expr", "resolution", "verify", "emit", "cli",
)

SPAN_CAP = 200_000


class Tracer:
    def __init__(self, sampler) -> None:
        self.sampler = sampler  # a running hostspeed.Sampler; its time is left out
        self.request = -1
        self.stack: list[list] = []  # [span id, name, start, child time, sampler time]
        self.agg: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.next_id = 0
        self._undo: list[tuple] = []
        self.polynomial_type: type = type(None)

    # ------------------------------------------------------------ wrap

    def _wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        counter = _COUNTERS.get(name)
        stack, agg, spans, sampler = self.stack, self.agg, self.spans, self.sampler

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self.next_id
            self.next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, name, perf_counter(), 0.0, sampler.spent]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[2] - (sampler.spent - frame[4])
                entry = agg.get(name)
                if entry is None:
                    entry = agg[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - frame[3]
                if parent is not None:
                    parent[3] += dur
                if span_id < SPAN_CAP:
                    spans.append(
                        (span_id, name, frame[2], end,
                         parent[0] if parent is not None else None, self.request)
                    )
            if counter is not None:
                nested = parent is not None and parent[1].split(".", 1)[0] == layer
                counted = perf_counter()
                counter(self, args, result, nested)
                if parent is not None:  # the harness's time, not the caller's
                    parent[3] += perf_counter() - counted
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target; ``uninstall`` restores the originals."""
        package = importlib.import_module("monoval")
        self.polynomial_type = package.LaurentPolynomial
        modules = [package] + [
            m for key, m in sys.modules.items() if key.startswith("monoval.")
        ]
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(f"monoval.{module_name}")
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                self._undo.append((owner, method, original))
                setattr(owner, method, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._undo.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def inside(self, name: str) -> bool:
        return any(frame[1] == name for frame in self.stack)

    # ---------------------------------------------------------- report

    def metrics(self) -> dict[str, float]:
        """Per-layer values, all keyed as in BENCHMARK.json."""
        def calls(name):
            return self.agg.get(name, (0, 0.0, 0.0))[0]

        def self_s(*names):
            return sum(self.agg.get(n, (0, 0.0, 0.0))[2] for n in names)

        c = self.counts
        pairs = c.get("verify.pairs", 0)
        out = {
            "laurent.init_calls": calls("laurent.init"),
            "laurent.terms_created": c.get("laurent.terms", 0),
            "laurent.mul_s": self_s("laurent.mul"),
            "laurent.mul_calls": calls("laurent.mul"),
            "laurent.eq_s": self_s("laurent.eq"),
            "resolution.expand_chart_s": self_s("resolution.expand_chart"),
            "resolution.charts_expanded": calls("resolution.expand_chart"),
            "resolution.resolve_s": self_s("resolution.resolve"),
            "resolution.blow_ups": calls("resolution.blow_up"),
            "resolution.check_theorem_s": self_s("resolution.check_theorem"),
            "verify.run_s": self_s("verify.run"),
            "verify.resolves_per_pair": c.get("verify.resolves", 0) / pairs if pairs else 0.0,
            "verify.paths_per_pair": c.get("verify.paths", 0) / pairs if pairs else 0.0,
            "valuation.rational_compare_s": self_s("valuation.rational_compare"),
            "valuation.rational_compare_calls": calls("valuation.rational_compare"),
            "valuation.eval_s": self_s("valuation.eval"),
            "valuation.eval_calls": calls("valuation.eval"),
            "valuation.stream_compare_s": self_s("valuation.stream_compare"),
            "valuation.stream_compare_calls": calls("valuation.stream_compare"),
            "exactnum.stream_digits": calls("exactnum.stream_digit"),
            "valtree.path_s": self_s("valtree.path"),
            "valtree.path_vertices": c.get("valtree.vertices", 0),
            "valtree.branch_s": self_s("valtree.branch"),
            "valtree.cf_check_s": self_s("valtree.cf_check"),
            "exactnum.cf_expand_s": self_s("exactnum.cf_expand"),
            "exactnum.cf_expand_calls": calls("exactnum.cf_expand"),
            "valring.ringgens_s": self_s("valring.ringgens"),
            "expr.parse_s": self_s("expr.parse"),
            "expr.lower_s": self_s("expr.lower"),
            "emit.json_s": self_s("emit.json"),
            "emit.dot_s": self_s("emit.dot"),
            "emit.text_s": self_s("emit.text"),
            "emit.bytes": c.get("emit.bytes", 0),
            "cli.self_s": self_s("cli.main"),
            "cli.requests": calls("cli.main"),
        }
        for layer in LAYERS[:-1]:  # cli.self_s is the cli layer's busy time
            out[f"{layer}.busy_s"] = sum(
                entry[2] for name, entry in self.agg.items() if name.split(".", 1)[0] == layer
            )
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, request in sorted(self.spans):
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request,
                }) + "\n")


# ----------------------------------------------------------- counters
# Called after a span closes: (tracer, call args, result, nested), where
# nested means the caller is a span of the same layer, so a layer's
# internal calls are not counted twice.  Their time is kept out of the
# caller's self time.


def _laurent_terms(tracer, args, result, nested):
    if nested:
        return
    made = args[0] if result is None else result  # __init__ returns None
    if isinstance(made, tuple):  # factor_monomial_content: (content, primitive)
        made = made[1]
    if isinstance(made, tracer.polynomial_type):
        tracer.count("laurent.terms", len(made))


def _path_vertices(tracer, args, result, nested):
    tracer.count("valtree.vertices", len(result))
    if tracer.inside("verify.run"):
        tracer.count("verify.paths")


def _resolve(tracer, args, result, nested):
    if tracer.inside("verify.run"):
        tracer.count("verify.resolves")


def _verify(tracer, args, result, nested):
    tracer.count("verify.pairs", result.pairs)


def _emit_bytes(tracer, args, result, nested):
    if not nested:
        tracer.count("emit.bytes", len(result))  # the emitters write ASCII


_COUNTERS = {
    **{name: _laurent_terms for _, _, name in TARGETS if name.startswith("laurent.")
       and name != "laurent.eq"},
    "valtree.path": _path_vertices,
    "resolution.resolve": _resolve,
    "verify.run": _verify,
    "emit.json": _emit_bytes,
    "emit.dot": _emit_bytes,
    "emit.text": _emit_bytes,
}
