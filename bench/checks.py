"""Output oracles for every benchmark request, independent of monoval.

Paths are checked vertex for vertex against a digit-driven walk: each
continued-fraction digit d of nu(x)/nu(y) is one branch k[s, t/s^m],
m = 1..d, of the tree of coordinate rings.  Rational pairs take their
digits from Euclid quotients, digit streams from their periodic pattern.
Resolutions must blow up exactly the charts of that path, as many times
as the digit sum.  Membership values come from least term weights, cf
digits from the generator, ring generators from Bezout's identity.

Vertices are compared as unordered generator pairs, since k[f, g] and
k[g, f] are the same ring.
"""

from __future__ import annotations

import functools
import itertools
import json
import re
from typing import Iterable, Iterator

from workloads import Request, euclid_quotients

Mono = tuple[int, int]
Vertex = frozenset

INDECISIVE = "error: indecisive stream comparison"


class WrongOutput(Exception):
    """The program's output contradicts the oracle."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise WrongOutput(what)


# ------------------------------------------------------------ monomials


_FACTOR = re.compile(r"^([xy])(?:\^(\d+))?$")


@functools.lru_cache(maxsize=1 << 16)
def _factors(text: str) -> Mono:
    ex = ey = 0
    if text == "1":
        return 0, 0
    for part in text.split("*"):
        m = _FACTOR.match(part)
        require(m is not None, f"bad monomial factor {part!r}")
        e = int(m.group(2) or 1)
        if m.group(1) == "x":
            ex += e
        else:
            ey += e
    return ex, ey


@functools.lru_cache(maxsize=1 << 16)
def parse_monomial(text: str) -> Mono:
    """Exponent pair of a monomial printed as ``num`` or ``num/den``."""
    num, _, den = text.partition("/")
    nx, ny = _factors(num)
    if not den:
        return nx, ny
    if den.startswith("(") and den.endswith(")"):
        den = den[1:-1]
    dx, dy = _factors(den)
    return nx - dx, ny - dy


def parse_vertex(text: str) -> Vertex:
    """``k[f, g]`` as the unordered pair of its generators."""
    require(text.startswith("k[") and text.endswith("]"), f"bad vertex {text[:80]!r}")
    f, sep, g = text[2:-1].partition(", ")
    require(bool(sep), f"bad vertex {text[:80]!r}")
    return frozenset((parse_monomial(f), parse_monomial(g)))


# ----------------------------------------------------------------- walk


def digit_walk(digits: Iterable[int], finite: bool) -> Iterator[Vertex]:
    """Positive path driven by the continued-fraction digits of nu(x)/nu(y).

    With big/small the generators of larger/smaller value, a digit d is
    the branch {small, big/small^m} for m = 1..d, after which small and
    big/small^d are the new big and small.  A finite expansion's last
    branch stops one short, where the two values coincide.
    """
    big, small = (1, 0), (0, 1)
    yield frozenset((big, small))
    digits = list(digits) if finite else digits
    for i, d in enumerate(digits):
        last = finite and i == len(digits) - 1
        for m in range(1, d if last else d + 1):
            yield frozenset((small, (big[0] - m * small[0], big[1] - m * small[1])))
        big, small = small, (big[0] - d * small[0], big[1] - d * small[1])


def tree_children(v: Vertex) -> set[Vertex]:
    """Children k[f, g/f] and k[g, f/g] of the vertex k[f, g]."""
    (f, g) = tuple(v)
    return {
        frozenset((f, (g[0] - f[0], g[1] - f[1]))),
        frozenset((g, (f[0] - g[0], f[1] - g[1]))),
    }


def rational_path(a: int, b: int) -> list[Vertex]:
    return list(digit_walk(euclid_quotients(a, b), finite=True))


def stream_digits(pre: list[int], period: list[int]) -> Iterator[int]:
    return itertools.chain(pre, itertools.cycle(period))


# ---------------------------------------------------------- per command


def _path_json(text: str, path: list[Vertex], status: str) -> None:
    data = json.loads(text)
    require(data["status"] == status, f"status {data['status']!r}, expected {status!r}")
    got = [frozenset((parse_monomial(v["f"]), parse_monomial(v["g"]))) for v in data["vertices"]]
    _same_vertices(got, path)


def _same_vertices(got: list[Vertex], path: list[Vertex]) -> None:
    require(len(got) == len(path), f"{len(got)} vertices, expected {len(path)}")
    for i, (u, v) in enumerate(zip(got, path)):
        require(u == v, f"vertex {i} differs from the digit-driven walk")


_DOT_PATH_NODE = re.compile(r'^  v(\d+) \[label="(k\[.*\])", style=bold\];$')


def _path_dot(text: str, path: list[Vertex]) -> None:
    lines = text.splitlines()
    require(lines[0] == "digraph positive_path {" and lines[-1] == "}", "not a path digraph")
    got = []
    edges = 0
    for line in lines:
        m = _DOT_PATH_NODE.match(line)
        if m:
            require(int(m.group(1)) == len(got), "path nodes out of order")
            got.append(parse_vertex(m.group(2)))
        elif " -> " in line:
            edges += 1
    _same_vertices(got, path)
    require(edges == len(path) - 1, f"{edges} edges for {len(path)} vertices")
    require("trunc" not in text, "complete path drawn as truncated")


def _path_text(text: str, path: list[Vertex], a: int, b: int) -> None:
    lines = text.splitlines()
    require(lines[0] == f"positive path for nu(x) = {a}, nu(y) = {b}:", "bad heading")
    require(lines[-1] == f"status: complete ({len(path)} vertices)", "bad status line")
    got = []
    for i, line in enumerate(lines[1:-1]):
        prefix = f"  {i}: "
        require(line.startswith(prefix), f"bad path line {i}")
        got.append(parse_vertex(line[len(prefix):]))
    _same_vertices(got, path)


def _resolve_json(text: str, path: list[Vertex], a: int, b: int) -> None:
    data = json.loads(text)
    n = len(path)
    require((data["a"], data["b"]) == (a, b), "wrong pair echoed")
    require(data["count"] == n, f"count {data['count']}, expected digit sum {n}")
    steps = data["blow_ups"]
    require(len(steps) == n, f"{len(steps)} blow-ups listed, expected {n}")

    def vertex(chart: dict) -> Vertex:
        basis = chart["basis"]
        return frozenset((parse_monomial(basis["f"]), parse_monomial(basis["g"])))

    for i, step in enumerate(steps):
        require(vertex(step["chart"]) == path[i], f"bad chart {i} is off the positive path")
        require(step["classification"] != "resolved", f"resolved chart {i} was blown up")
        unresolved = [c for c in step["children"] if c["classification"] != "resolved"]
        charts = {vertex(c["chart"]) for c in step["children"]}
        require(charts == tree_children(path[i]), f"blow-up {i} charts are not its children")
        if i + 1 < n:
            require(len(unresolved) == 1, f"blow-up {i} leaves {len(unresolved)} bad charts")
            require(vertex(unresolved[0]["chart"]) == path[i + 1], f"bad child {i} off path")
        else:
            require(not unresolved, "last blow-up leaves a bad chart")


_DOT_CHART = re.compile(r'^  ([bs][\d_]+) \[label="(k\[.*\])\\n\(([a-z-]+)\)"(, style=bold)?\];$')
_DOT_EDGE = re.compile(r"^  b(\d+) -> ([bs][\d_]+);$")


def _resolve_dot(text: str, path: list[Vertex]) -> None:
    lines = text.splitlines()
    require(lines[0] == "digraph resolution_trace {" and lines[-1] == "}", "not a trace digraph")
    nodes: dict[str, Vertex] = {}
    got = []
    edges: dict[int, set] = {}
    for line in lines:
        m = _DOT_CHART.match(line)
        if m:
            name, vertex, kind, bold = m.groups()
            nodes[name] = parse_vertex(vertex)
            require((kind != "resolved") == bool(bold) == name.startswith("b"),
                   f"chart {name} drawn with the wrong classification")
            if name.startswith("b"):
                require(name == f"b{len(got)}", "bad-chart nodes out of order")
                got.append(nodes[name])
        elif m := _DOT_EDGE.match(line):
            edges.setdefault(int(m.group(1)), set()).add(m.group(2))
    _same_vertices(got, path)
    require(sorted(edges) == list(range(len(path))), "edges leave the wrong charts")
    for i, targets in edges.items():
        require({nodes.get(t) for t in targets} == tree_children(path[i]),
               f"blow-up {i} charts are not its children")


def _resolve_text(text: str, path: list[Vertex], a: int, b: int, steps_shown: bool) -> None:
    lines = text.splitlines()
    n = len(path)
    require(lines[0] == f"resolution of x^{b} = y^{a}: {n} blow-ups", "bad count line")
    require(lines[1] == "bad charts:", "missing bad-chart list")
    got = []
    for i, line in enumerate(lines[2 : 2 + n]):
        prefix = f"  {i}: "
        require(line.startswith(prefix) and line.endswith(")"), f"bad chart line {i}")
        got.append(parse_vertex(line[len(prefix) :].rsplit(" (", 1)[0]))
    _same_vertices(got, path)
    steps = lines[2 + n :]
    if not steps_shown:
        require(not steps, "unexpected lines after the bad charts")
        return
    require(steps[0] == "steps:" and len(steps) == 1 + 3 * n, "steps section has wrong size")
    for i in range(n):
        header = steps[1 + 3 * i]
        prefix = f"  blow-up {i + 1} at the origin of "
        require(header.startswith(prefix) and header.endswith(":"), f"bad step header {i}")
        require(parse_vertex(header[len(prefix) : -1]) == path[i], f"step {i} off path")
        charts = {parse_vertex(line.strip().split(": V(", 1)[0]) for line in steps[2 + 3 * i : 4 + 3 * i]}
        require(charts == tree_children(path[i]), f"blow-up {i} charts are not its children")


def _verify_json(text: str, e: dict) -> None:
    data = json.loads(text)
    pairs = e["pairs"]
    require(data["max_a"] == e["max_a"], "wrong max_a")
    require(data["pairs"] == pairs, f"{data['pairs']} pairs, expected {pairs}")
    require(data["all_passed"] is True and data["first_failure"] is None, "sweep failed")
    for name, counts in data["checks"].items():
        require(counts == {"passed": pairs, "failed": 0}, f"check {name} counts {counts}")
    require(len(data["checks"]) == 4, "expected four checks")


def _stream_json(text: str, e: dict) -> None:
    walk = digit_walk(stream_digits(e["pre"], e["period"]), finite=False)
    path = list(itertools.islice(walk, e["steps"]))
    _path_json(text, path, "truncated")


def _member_json(text: str, e: dict) -> None:
    data = json.loads(text)
    value = e["value"]
    require(data["expression"] == e["expression"], "wrong expression echoed")
    require((data["a"], data["b"]) == (e["a"], e["b"]), "wrong pair echoed")
    require(data["value"] == str(value), f"value {data['value']}, expected {value}")
    require(data["member"] is (value >= 0), "wrong membership verdict")


def _cf_json(text: str, e: dict) -> None:
    require(json.loads(text) == {"digits": e["digits"]}, "wrong digits")


def _ringgens_json(text: str, e: dict) -> None:
    data = json.loads(text)
    a, b = e["a"], e["b"]
    p, q = data["p"], data["q"]
    require(p * a - q * b == 1, "p*a - q*b != 1")
    require(1 <= p <= b and q >= 0, "(p, q) is not the minimal positive solution")
    require(parse_monomial(data["u"]) == (-b, a), "u is not y^a/x^b")
    require(parse_monomial(data["v"]) == (p, -q), "v is not x^p/y^q")


def check_output(req: Request, text: str) -> None:
    """Raise WrongOutput unless ``text`` is the right answer to ``req``."""
    e = req.expect
    try:
        if req.kind == "verify":
            _verify_json(text, e)
        elif req.kind in ("path", "resolve"):
            path = rational_path(e["a"], e["b"])
            fmt = req.fmt
            if req.kind == "path":
                if fmt == "json":
                    _path_json(text, path, "complete")
                elif fmt == "dot":
                    _path_dot(text, path)
                else:
                    _path_text(text, path, e["a"], e["b"])
            elif fmt == "json":
                _resolve_json(text, path, e["a"], e["b"])
            elif fmt == "dot":
                _resolve_dot(text, path)
            else:
                _resolve_text(text, path, e["a"], e["b"], "--trace" in req.argv)
        elif req.kind == "stream":
            _stream_json(text, e)
        elif req.kind == "member":
            _member_json(text, e)
        elif req.kind == "cf":
            _cf_json(text, e)
        else:
            _ringgens_json(text, e)
    except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
        raise WrongOutput(f"malformed output: {exc!r}") from exc


def judge(req: Request, code: int, text: str, err: str) -> bool:
    """True when served, False when refused as documented; else WrongOutput.

    A stream path may end in exit 3 ("indecisive") without output: that is
    the program's documented refusal, counted as a failed request but not
    as a wrong answer.  Every other outcome must be exit 0 and correct.
    """
    if code == 3 and req.kind == "stream":
        require(text == "" and err.startswith(INDECISIVE), "exit 3 without the indecisive message")
        return False
    require(code == 0, f"exit {code}: {err.strip()[:200]}")
    check_output(req, text)
    return True
