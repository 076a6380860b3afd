"""Independent oracles used to derive and confirm expected test values.

Everything here is deliberately written from first principles, separate
from the package's own code paths: Euclidean quotients instead of the
expansion routine, top-down nested fractions instead of the convergent
recurrence, and interval bisection on t^2 - 2 instead of convergent
brackets for sqrt(2) sign decisions.  The positive path is walked here
by one value comparison per vertex, as the cross-check for the package's
walk from continued-fraction digits, and a walk's vertices are taken
here as a path of one run per vertex (``take_path``).  The resolution
is driven here on ``ChartState`` objects, blow-up by blow-up, and
charts are expanded by monomial powers and a shift, as the cross-check
for the package's integer rows and one-pass expansion; ``resolve_rows``
drives the package's rules one row at a time, as the cross-check for
its runs.
A trace is written here in JSON, DOT and text from ``BlowUp`` views of
its rows, naming every monomial with ``str`` and filling ``str.format``
templates, as the cross-check for the package's emitters over the runs:
a chart's decomposition is written from its generators' exponents and
its integer powers, and DOT's head and node names from templates here;
a path is written here in JSON, DOT and text from its vertices, with
``str`` of each generator, as the cross-check for the package's emitters
over a path's runs.
Branches are split here vertex by vertex, as the cross-check for the
package's decomposition over a path's runs.  Runs that continue each
other are merged here into maximal runs, the form in which the
resolution's bad-chart path and the positive path have equal runs.
Polynomials are added, multiplied, shifted and rewritten here on term
maps keyed by ``Monomial``, as the cross-check for the package's maps
keyed by exponent pairs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import gcd
from typing import NamedTuple, Optional

from hypothesis import strategies as st

from monoval.laurent import (
    UNIT,
    ChartBasis,
    LaurentPolynomial,
    Monomial,
    RationalFunction,
    X,
    Y,
    lattice_solve,
)
from monoval.exactnum import cf_expand
from monoval.resolution import (
    ChartState,
    Classification,
    MissesOrigin,
    ResolutionInvariantError,
    ResolutionStep,
    ResolutionTrace,
    ThroughOrigin,
    _children,
    _kind,
    initial_chart,
)
from monoval.valtree import ROOT, Branch, CorrespondenceReport, PositivePath, TreeVertex, take_runs


def euclid_quotients(a: int, b: int) -> list[int]:
    """Quotient sequence of the Euclidean algorithm on (a, b), b > 0."""
    qs = []
    while b:
        q, r = divmod(a, b)
        qs.append(q)
        a, b = b, r
    return qs


def nested_cf_value(digits) -> Fraction:
    """Evaluate [d0; d1, ...] straight from the nested-fraction definition."""
    if len(digits) == 1:
        return Fraction(digits[0])
    return digits[0] + 1 / nested_cf_value(digits[1:])


def sqrt2_cmp(t: Fraction) -> int:
    """Sign of sqrt(2) - t by exact interval bisection on the square.

    Maintains lo^2 < 2 < hi^2 with rational endpoints; a rational can
    never equal sqrt(2), so the loop terminates.
    """
    t = Fraction(t)
    lo, hi = Fraction(1), Fraction(2)
    while lo < t < hi:
        mid = (lo + hi) / 2
        if mid * mid < 2:
            lo = mid
        else:
            hi = mid
    return 1 if t <= lo else -1


def sqrt2_value_sign(m: int, n: int) -> int:
    """Sign of m*sqrt(2) + n, decided through the bisection oracle."""
    if m == 0:
        return (n > 0) - (n < 0)
    s = sqrt2_cmp(Fraction(-n, m))
    return s if m > 0 else -s


def bracket_walk(nu, max_steps: int) -> tuple[list[TreeVertex], bool]:
    """Positive path by one comparison per vertex: (vertices, complete).

    The generator values evolve by (max, min) -> (min, max - min), so one
    comparison both picks the positive child and keeps positivity; the
    walk ends when the two values are equal.  For a stream valuation each
    comparison reads the stream's digits up to the first that differs.
    """
    vf, vg = nu(X), nu(Y)
    vertex = ROOT
    vertices = [vertex]
    while len(vertices) <= max_steps:
        c = nu.compare(vf, vg)
        if c == 0:
            return vertices, True
        if c > 0:
            vertex = TreeVertex(vertex.g, vertex.f / vertex.g)
            vf, vg = vg, vf - vg
        else:
            vertex = TreeVertex(vertex.f, vertex.g / vertex.f)
            vf, vg = vf, vg - vf
        vertices.append(vertex)
    return vertices[:max_steps], False


def take_path(vertices, max_steps: int) -> PositivePath:
    """The first ``max_steps`` vertices of a walk, as a path of one run per vertex.

    The path is complete when the walk ends within them; the walk is
    asked for one vertex more to tell.  The budget is read by the
    package's ``take_runs``.
    """
    return take_runs((((v.f.ex, v.f.ey, v.g.ex, v.g.ey), 1) for v in vertices), max_steps)


def random_coprime_pair(rng: random.Random, max_a: int, min_b: int = 1) -> tuple[int, int]:
    while True:
        a = rng.randint(max(min_b + 1, 2), max_a)
        b = rng.randint(min_b, a - 1)
        if gcd(a, b) == 1:
            return a, b


def random_polynomial(
    rng: random.Random,
    max_degree: int = 6,
    max_terms: int = 6,
    max_coeff: int = 10,
    laurent: bool = False,
) -> LaurentPolynomial:
    """Random nonzero polynomial; plain exponents unless ``laurent``."""
    lo = -max_degree if laurent else 0
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            while True:
                ex = rng.randint(lo, max_degree)
                ey = rng.randint(lo, max_degree)
                if laurent or ex + ey <= max_degree:
                    break
            c = rng.randint(-max_coeff, max_coeff)
            if c:
                terms[Monomial(ex, ey)] = terms.get(Monomial(ex, ey), 0) + c
        p = LaurentPolynomial(terms)
        if not p.is_zero:
            return p


def random_rational_function(rng: random.Random, **kw) -> RationalFunction:
    return RationalFunction(random_polynomial(rng, **kw), random_polynomial(rng, **kw))


def last_convergent(digits, max_value: int) -> tuple[int, int]:
    """(h, k) of the last convergent h/k of [d0; d1, ...] with h <= max_value."""
    h, h1, k, k1 = 1, 0, 0, 1
    for d in digits:
        if d * h + h1 > max_value:
            break
        h, h1, k, k1 = d * h + h1, h, d * k + k1, k
    return h, k


def coprime_pairs(max_value: int):
    """Coprime a > b > 1 up to ``max_value``: the last fitting convergent of drawn digits."""
    return (
        st.lists(st.integers(1, 20), min_size=len(str(max_value)), max_size=80)
        .map(lambda digits: last_convergent(digits, max_value))
        .filter(lambda pair: pair[1] > 1)
    )


def chart_blow_up(c: ChartState) -> tuple[ChartState, ChartState]:
    """The charts (c1, c2/c1) and (c2, c1/c2) over a through-origin chart.

    The curve sign * c1^A c2^B (c1^s - c2^t) becomes, with c2 = c1*w,
    sign * c1^(A+B+min(s,t)) w^B (c1^(s-t) - w^t) if s > t, else
    sign * c1^(A+B+min(s,t)) w^B (1 - c1^(t-s) w^t); the second chart
    rewrites the curve as -sign * c2^B c1^A (c2^t - c1^s) first.
    """

    def chart(c1, c2, A, B, s, t, sign):
        proper = ThroughOrigin(s - t, t) if s > t else MissesOrigin(t - s, t)
        return ChartState(ChartBasis(c1, c2 / c1), A + B + min(s, t), B, proper, sign)

    f, g = c.basis.f, c.basis.g
    s, t = c.proper.s, c.proper.t
    return (
        chart(f, g, c.exc_f, c.exc_g, s, t, c.sign),
        chart(g, f, c.exc_g, c.exc_f, t, s, -c.sign),
    )


def chart_classify(c: ChartState) -> Classification:
    """Classification of a chart by its proper transform and exceptional axes."""
    p = c.proper
    if isinstance(p, MissesOrigin):
        return Classification.RESOLVED
    if p.s >= 2 and p.t >= 2:
        return Classification.CUSP_SINGULAR
    if p.s >= 2:  # t == 1: tangent to the c2-axis
        return Classification.TANGENTIAL_CROSSING if c.exc_g else Classification.RESOLVED
    if p.t >= 2:  # s == 1: tangent to the c1-axis
        return Classification.TANGENTIAL_CROSSING if c.exc_f else Classification.RESOLVED
    if c.exc_f and c.exc_g:
        return Classification.TRIPLE_POINT
    return Classification.RESOLVED


def resolve_steps(a: int, b: int) -> list[ResolutionStep]:
    """Blow up the unique bad ``ChartState`` until every chart is resolved."""
    chart = initial_chart(a, b)
    steps = []
    while True:
        first, second = chart_blow_up(chart)
        children = ((first, chart_classify(first)), (second, chart_classify(second)))
        steps.append(ResolutionStep(chart, chart_classify(chart), children))
        unresolved = [c for c, kind in children if kind is not Classification.RESOLVED]
        if len(unresolved) > 1:
            raise ResolutionInvariantError(f"step {len(steps)} of ({a}, {b})")
        if not unresolved:
            return steps
        chart = unresolved[0]


def resolve_rows(a: int, b: int):
    """The rows of the resolution of x^b = y^a, the package's rules applied row by row.

    This is the stepwise driver that ``resolve`` replaced by runs: each
    row's children from ``_children``, each child classified by ``_kind``.
    It shares those two rules with ``resolve`` on purpose: what it checks
    is the runs, that the closed form of a run's rows and its length
    equal those rules applied one row at a time.  The rules themselves
    are checked against ``chart_blow_up`` and ``chart_classify``.
    """
    row = tuple(initial_chart(a, b))
    resolved = Classification.RESOLVED
    while True:
        yield row
        unresolved = [c for c in _children(row) if _kind(c) is not resolved]
        if len(unresolved) > 1:
            raise ResolutionInvariantError(f"two unresolved charts in ({a}, {b})")
        if not unresolved:
            return
        row = unresolved[0]


def continues_run(row) -> bool:
    """Whether the row blown up after ``row`` belongs to its run.

    It does when s - t >= 2, and t >= 2 or exc_g >= 1: then the first
    child, a cusp or a tangential crossing like ``row`` itself, is the
    next row, and only integers in arithmetic progression change.
    """
    _, _, _, _, _, exc_g, s, t, _ = row
    return s - t >= 2 and (t >= 2 or exc_g >= 1)


def trace_from_rows(a: int, b: int, rows) -> ResolutionTrace:
    """A trace of the given rows, one run each."""
    return ResolutionTrace(a, b, tuple((tuple(row), 1) for row in rows))


def chart_terms(c: ChartState) -> tuple[Monomial, Monomial]:
    """The monomials m1, m2 of a chart's curve sign * (m1 - m2), from its nine ints.

    The curve is sign * f^exc_f g^exc_g times the proper transform: f^p - g^q
    where it passes through the origin (p > 0), else 1 - f^(-p) g^q.
    """
    f, g = Monomial(c.fx, c.fy), Monomial(c.gx, c.gy)
    content = f ** c.exc_f * g ** c.exc_g
    if c.p > 0:
        return content * f ** c.p, content * g ** c.q
    return content, content * f ** -c.p * g ** c.q


def reconstruction_by_rows(trace: ResolutionTrace) -> bool:
    """The reconstruction verdict with every row blown up by the public ``blow_up``.

    The root chart and both children of every row, as ``all_charts``
    gives them, are compared by their two terms and sign with those of
    x^b - y^a.  This is the check ``verify_reconstruction`` certifies
    from the last row of each run.  Unlike it, this raises ``ValueError``
    on a row that misses the origin, where ``verify_reconstruction``
    returns False.
    """
    x_b, y_a = X ** trace.b, Y ** trace.a
    curve = {1: (x_b, y_a), -1: (y_a, x_b)}  # the terms, by sign
    return all(chart_terms(c) == curve.get(c.sign) for c in trace.all_charts())


def expand_chart(c: ChartState) -> LaurentPolynomial:
    """sign * f^exc_f g^exc_g * proper, by monomial powers and a shift."""
    f, g = c.basis.f, c.basis.g
    content = f ** c.exc_f * g ** c.exc_g
    if isinstance(c.proper, ThroughOrigin):
        body = LaurentPolynomial({f ** c.proper.s: 1, g ** c.proper.t: -1})
    else:
        body = LaurentPolynomial({UNIT: 1, f ** c.proper.f_exp * g ** c.proper.g_exp: -1})
    return body.shift(content) * c.sign


def off_origin_crossings(k: int, l: int, exc_f: int, exc_g: int, characteristic: int):
    """(points, skipped) where 1 - c1^k c2^l meets an exceptional axis off the origin.

    On c1 = 0, exceptional when exc_f >= 1, the curve is 1 - c2^l when
    k = 0 and the constant 1 when k >= 1; on c2 = 0 the same with the
    roles swapped.  A meeting is a root eta of eta^e = 1 with e the
    other exponent.  In characteristic p > 0, eta^e - 1 is the p^m-th
    power of eta^(e / p^m) - 1 when p^m is the largest power of p that
    divides e, and that has e / p^m distinct roots, since p does not
    divide it; in characteristic 0 there are e.  Of the distinct roots,
    +1 and -1 are enumerated (one root when they coincide, as they do in
    characteristic 2), the rest counted as skipped.  The derivative
    -e*eta^(e - 1) vanishes there exactly when the characteristic
    divides e.
    """
    points, skipped = [], 0
    for axis, present, own, e in (("c1", exc_f >= 1, k, l), ("c2", exc_g >= 1, l, k)):
        if not present or own != 0 or e < 1:
            continue
        distinct = e
        while characteristic and distinct % characteristic == 0:
            distinct //= characteristic
        in_field = (lambda n: n % characteristic) if characteristic else (lambda n: n)
        roots = {}  # each root once, keyed by its value in the prime field
        for eta in (1, -1):
            if in_field(eta**distinct - 1) == 0:
                roots.setdefault(in_field(eta), eta)
        transversal = characteristic == 0 or e % characteristic != 0
        points += [(f"{axis} = 0, unit coordinate {eta:+d}", transversal) for eta in roots.values()]
        skipped += distinct - len(roots)
    return tuple(points), skipped


def monomial_name(ex: int, ey: int) -> str:
    """x^ex * y^ey as a reduced fraction: positive powers over the line, x first."""
    num, den = [], []
    for name, e in (("x", ex), ("y", ey)):
        if e > 0:
            num.append(name if e == 1 else f"{name}^{e}")
        elif e < 0:
            den.append(name if e == -1 else f"{name}^{-e}")
    if not den:
        return "*".join(num) or "1"
    den_s = den[0] if len(den) == 1 else f"({'*'.join(den)})"
    return f"{'*'.join(num) or '1'}/{den_s}"


# ------------------------------------------------------------ term maps


def _exact(c):
    """``c`` as an ``int`` when integral, else as a ``Fraction``."""
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class MonomialTerms:
    """A Laurent polynomial whose term map is keyed by ``Monomial``.

    This is the arithmetic ``LaurentPolynomial`` did before it keyed its
    terms by (ex, ey) pairs: a ``Monomial`` is built for every term of a
    sum, product, shift or chart rewrite.  ``terms()`` lists the terms
    as ``LaurentPolynomial.terms()`` does, sorted on (ex, ey).
    """

    __slots__ = ("_terms",)

    def __init__(self, data: dict):
        self._terms = data

    @classmethod
    def of(cls, p: LaurentPolynomial) -> "MonomialTerms":
        return cls(dict(p.terms()))

    def terms(self) -> list:
        return sorted(self._terms.items(), key=lambda kv: (kv[0].ex, kv[0].ey))

    def shift(self, mono: Monomial) -> "MonomialTerms":
        dx, dy = mono.ex, mono.ey
        return MonomialTerms({Monomial(m.ex + dx, m.ey + dy): c for m, c in self._terms.items()})

    def __add__(self, other: "MonomialTerms") -> "MonomialTerms":
        data = dict(self._terms)
        for m, c in other._terms.items():
            s = _exact(data.get(m, 0) + c)
            if s:
                data[m] = s
            elif m in data:
                del data[m]
        return MonomialTerms(data)

    def __mul__(self, other) -> "MonomialTerms":
        if isinstance(other, MonomialTerms):
            data = {}
            right = [(m.ex, m.ey, c) for m, c in other._terms.items()]
            for m1, c1 in self._terms.items():
                for ex2, ey2, c2 in right:
                    m = Monomial(m1.ex + ex2, m1.ey + ey2)
                    s = _exact(data.get(m, 0) + c1 * c2)
                    if s:
                        data[m] = s
                    elif m in data:
                        del data[m]
            return MonomialTerms(data)
        other = _exact(other)
        if not other:
            return MonomialTerms({})
        return MonomialTerms({m: _exact(c * other) for m, c in self._terms.items()})


def rewrite_in_chart(p: MonomialTerms, basis: ChartBasis) -> MonomialTerms:
    """Each term's exponents solved in the basis, one ``Monomial`` per term."""
    out = {}
    for mono, c in p._terms.items():
        alpha, beta = lattice_solve(mono, basis)
        out[Monomial(alpha, beta)] = c
    return MonomialTerms(out)


def expand_from_chart(p: MonomialTerms, basis: ChartBasis) -> MonomialTerms:
    """Each term's basis monomials multiplied back out as ``Monomial`` powers."""
    return MonomialTerms(
        {basis.f ** mono.ex * basis.g ** mono.ey: c for mono, c in p._terms.items()}
    )


def factor_monomial_content(p: MonomialTerms) -> tuple[Monomial, MonomialTerms]:
    """The componentwise least exponents as a ``Monomial``, and p shifted by its inverse."""
    content = Monomial(min(m.ex for m in p._terms), min(m.ey for m in p._terms))
    return content, p.shift(content.inverse())


# ------------------------------------------------------------------ branches


def branch_decomposition(path: PositivePath) -> tuple[Branch, ...]:
    """Branches B(s, t) of a path, split vertex by vertex on the generator each shares."""
    verts = tuple(path)
    if len(verts) < 2:
        raise ValueError("need at least two vertices to decompose")
    branches = []
    pivot = t_mono = None
    length = 0
    for prev, cur in zip(verts, verts[1:]):
        prev_gens = {prev.f, prev.g}
        if cur.f in prev_gens:
            shared, other = cur.f, cur.g
        elif cur.g in prev_gens:
            shared, other = cur.g, cur.f
        else:
            raise ValueError(f"{prev} and {cur} are not parent and child")
        if shared == pivot:
            length += 1
        else:
            if pivot is not None:
                branches.append(Branch(pivot, t_mono, length))
            pivot, t_mono, length = shared, shared * other, 1
    branches.append(Branch(pivot, t_mono, length))
    return tuple(branches)


def maximal_runs(runs) -> list[tuple[tuple[int, int, int, int], int]]:
    """Finite runs as ((fx, fy, gx, gy), n), each merged with the runs that continue it.

    A run ((f, g), m) absorbs the run that follows it when that run
    starts at (f, g/f^m): the vertices are the same, in the same order.
    """
    merged = []
    for start, n in runs:
        if merged:
            (fx, fy, gx, gy), m = merged[-1]
            if start[:4] == (fx, fy, gx - m * fx, gy - m * fy):
                merged[-1] = merged[-1][0], m + n
                continue
        merged.append((start[:4], n))
    return merged


def correspondence_report(a: int, b: int, path: PositivePath) -> CorrespondenceReport:
    """Branch lengths of the vertex-split path against the digits of a/b, last one less."""
    lengths = tuple(br.length for br in branch_decomposition(path))
    digits = cf_expand(Fraction(a, b)).digits
    expected = list(digits)
    expected[-1] -= 1
    if expected and expected[-1] == 0:
        expected.pop()
    return CorrespondenceReport(a, b, lengths, digits, tuple(expected), lengths == tuple(expected))


# ------------------------------------------------------------ trace emitters


class BlowUp(NamedTuple):
    """One blow-up of a trace, by name.

    The chart blown up has basis (f, g), f = x^fx y^fy and g = x^gx y^gy,
    and curve sign * f^exc_f * g^exc_g * (f^s - g^t).  Its first child
    has basis (f, g/f), multiplicities (e, exc_g), proper exponents
    (s - t, t) and the sign; its second has basis (g, f/g),
    multiplicities (e, exc_f), proper exponents (t - s, s) and the sign
    negated.  ``bad`` is the index of the child blown up next, or None
    after the last blow-up.
    """

    fx: int
    fy: int
    gx: int
    gy: int
    exc_f: int
    exc_g: int
    s: int
    t: int
    sign: int
    kind: Classification
    e: int
    kinds: tuple[Classification, Classification]
    bad: Optional[int]

    @property
    def f(self) -> Monomial:
        return Monomial(self.fx, self.fy)

    @property
    def g(self) -> Monomial:
        return Monomial(self.gx, self.gy)

    @property
    def g_over_f(self) -> Monomial:
        return Monomial(self.gx - self.fx, self.gy - self.fy)

    @property
    def f_over_g(self) -> Monomial:
        return Monomial(self.fx - self.gx, self.fy - self.gy)


def blow_up_view(step: ResolutionStep) -> BlowUp:
    """The ``BlowUp`` of a step."""
    (first, k1), (second, k2) = step.children
    resolved = Classification.RESOLVED
    bad = 0 if k1 is not resolved else 1 if k2 is not resolved else None
    return BlowUp._make(tuple(step.chart) + (step.classification, first.exc_f, (k1, k2), bad))


def blow_up_views(trace: ResolutionTrace):
    """The ``BlowUp`` of every step of a trace, each built when it is read."""
    return map(blow_up_view, trace.steps)


def blow_up_names(trace: ResolutionTrace, name, number):
    """Per ``BlowUp`` view: the chart and children as printed, names carried down the path.

    Yields the chart's fields (f, g, exc_f, exc_g, s, t) as ``name`` of
    the monomials and ``number`` of the integers, each child's fields in
    the same order, whether each child's curve passes through its origin,
    the chart's sign and the classifications of the chart and children.
    """
    u = blow_up_view(trace.steps[0])
    chart = (name(u.f), name(u.g), number(u.exc_f), number(u.exc_g), number(u.s), number(u.t))
    for u in blow_up_views(trace):
        f, g, a, b, s, t = chart
        p, q = u.s, u.t
        e, d = number(u.e), number(abs(p - q))
        children = ((f, name(u.g_over_f), e, b, d, t), (g, name(u.f_over_g), e, a, d, s))
        yield chart, children, (p > q, q > p), u.sign, u.kind, u.kinds
        if u.bad is not None:
            chart = children[u.bad]


def _json_chart(depth: int) -> str:
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


_JSON_CHILD = (
    '        {{\n          "chart": ' + _json_chart(10)
    + ',\n          "classification": {}\n        }}'
)
_JSON_STEP = (
    '    {{\n      "chart": ' + _json_chart(6) + ',\n      "children": [\n'
    + _JSON_CHILD + ",\n" + _JSON_CHILD + '\n      ],\n      "classification": {}\n    }}'
)
_THROUGH = encode_basestring_ascii("through-origin")
_MISSES = encode_basestring_ascii("misses-origin")
_JSON_KIND = {k: encode_basestring_ascii(k.value) for k in Classification}


def _json_name(mono: Monomial) -> str:
    return encode_basestring_ascii(str(mono))


def trace_json(trace: ResolutionTrace) -> str:
    """``emit_json(trace)``, from the views and ``str.format`` templates."""
    steps = ",\n".join(
        _JSON_STEP.format(
            *chart, _THROUGH, sign,
            *first, _THROUGH if through1 else _MISSES, sign, _JSON_KIND[k1],
            *second, _THROUGH if through2 else _MISSES, -sign, _JSON_KIND[k2],
            _JSON_KIND[kind],
        )
        for chart, (first, second), (through1, through2), sign, kind, (k1, k2)
        in blow_up_names(trace, _json_name, str)
    )
    return (f'{{\n  "a": {trace.a},\n  "b": {trace.b},\n  "blow_ups": [\n' + steps
            + f'\n  ],\n  "count": {trace.blow_up_count}\n}}')


_DOT_HEAD = 'digraph {} {{\n  rankdir=LR;\n  node [shape=box, fontname="monospace"];\n'
_DOT_NODE = {
    k: '  {} [label="k[{}, {}]\\n(' + k.value + ')"'
    + ("" if k is Classification.RESOLVED else ", style=bold") + "];\n"
    for k in Classification
}


def dot_children(i: int, resolved) -> list[str]:
    """DOT node names of blow-up i's children, ``resolved`` saying which are.

    A child left to blow up is the next bold node, b(i + 1); the resolved
    ones are side nodes s(i)_0, s(i)_1, numbered in order.
    """
    names, side = [], 0
    for done in resolved:
        names.append(f"s{i}_{side}" if done else f"b{i + 1}")
        side += done
    return names


def trace_dot(trace: ResolutionTrace) -> str:
    """``emit_dot(trace)``: every node, then every edge, from the views."""
    out = [_DOT_HEAD.format("resolution_trace")]
    resolved = Classification.RESOLVED
    children = []
    for i, (chart, (c1, c2), _, _, kind, (k1, k2)) in enumerate(blow_up_names(trace, str, int)):
        if i == 0:
            out.append(_DOT_NODE[kind].format("b0", chart[0], chart[1]))
        n1, n2 = dot_children(i, (k1 is resolved, k2 is resolved))
        children.append((n1, n2))
        out.append(_DOT_NODE[k1].format(n1, c1[0], c1[1]) + _DOT_NODE[k2].format(n2, c2[0], c2[1]))
    for i, (n1, n2) in enumerate(children):
        out.append(f"  b{i} -> {n1};\n  b{i} -> {n2};\n")
    return "".join(out) + "}\n"


def _raised(mono: Monomial, e: int) -> str:
    """``mono`` to the power e as a step writes it: x and y alone take no parentheses."""
    base = str(mono) if (mono.ex, mono.ey) in ((1, 0), (0, 1)) else f"({mono})"
    return "1" if e == 0 else base if e == 1 else f"{base}^{e}"


def chart_text(f: Monomial, g: Monomial, exc_f: int, exc_g: int, p: int, q: int,
               through: bool, sign: int) -> str:
    """The ``V(exceptional) + V(proper)`` decomposition of the chart on f, g, powers as integers.

    The proper transform is f^p - g^q when ``through``, else 1 - f^p g^q;
    a power to the 0 is left out of a product, and a product of none is 1.
    """
    exc = " * ".join(_raised(m, e) for m, e in ((f, exc_f), (g, exc_g)) if e) or "1"
    if through:
        proper = f"{_raised(f, p)} - {_raised(g, q)}"
    else:
        proper = "1 - " + " * ".join(_raised(m, e) for m, e in ((f, p), (g, q)) if e)
    return f"V({exc}) + V({proper})" if sign == 1 else f"V({exc}) + V(-({proper}))"


def trace_text(trace: ResolutionTrace, show_steps: bool = False) -> str:
    """``format_trace_text(trace, show_steps)``: bad charts, then each step, from the views."""
    out = [f"resolution of x^{trace.b} = y^{trace.a}: {trace.blow_up_count} blow-ups\n"
           "bad charts:\n"]
    for i, (chart, _, _, _, kind, _) in enumerate(blow_up_names(trace, str, int)):
        out.append(f"  {i}: k[{chart[0]}, {chart[1]}] ({kind.value})\n")
    if show_steps:
        out.append("steps:\n")
        for i, (chart, children, through, sign, _, kinds) in enumerate(
            blow_up_names(trace, lambda mono: mono, int)
        ):
            out.append(f"  blow-up {i + 1} at the origin of k[{chart[0]}, {chart[1]}]:\n")
            for child, through_, sign_, k in zip(children, through, (sign, -sign), kinds):
                out.append(f"    k[{child[0]}, {child[1]}]: {chart_text(*child, through_, sign_)}"
                           f" [{k.value}]\n")
    return "".join(out)


_JSON_VERTEX = '    {{\n      "f": {},\n      "g": {}\n    }}'


def path_json(path: PositivePath) -> str:
    """``emit_json(path)``, from ``str`` of each vertex's generators and ``str.format`` templates."""
    vertices = ",\n".join(_JSON_VERTEX.format(_json_name(v.f), _json_name(v.g)) for v in path.vertices)
    return '{{\n  "status": {},\n  "vertices": {}\n}}'.format(
        encode_basestring_ascii(path.status), f"[\n{vertices}\n  ]" if vertices else "[]")


def path_dot(path: PositivePath) -> str:
    """``emit_dot(path)``: every vertex, then every edge, from ``str`` of each vertex's generators."""
    out = [_DOT_HEAD.format("positive_path")]
    out += [f'  v{i} [label="k[{v.f}, {v.g}]", style=bold];\n' for i, v in enumerate(path.vertices)]
    if not path.complete:
        out.append('  trunc [label="(truncated)", shape=plaintext];\n')
    out += [f"  v{i} -> v{i + 1};\n" for i in range(len(path.vertices) - 1)]
    if not path.complete and path.vertices:
        out.append(f"  v{len(path.vertices) - 1} -> trunc [style=dashed];\n")
    return "".join(out) + "}\n"


def path_text(path: PositivePath, heading: str) -> str:
    """``format_path_text(path, heading)``, from ``str`` of each vertex's generators."""
    out = [heading + "\n"]
    out += [f"  {i}: k[{v.f}, {v.g}]\n" for i, v in enumerate(path.vertices)]
    out.append(f"status: {path.status} ({len(path.vertices)} vertices)\n")
    return "".join(out)
