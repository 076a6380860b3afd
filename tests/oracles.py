"""Independent oracles used to derive and confirm expected test values.

Everything here is deliberately written from first principles, separate
from the package's own code paths: Euclidean quotients instead of the
expansion routine, top-down nested fractions instead of the convergent
recurrence, and interval bisection on t^2 - 2 instead of convergent
brackets for sqrt(2) sign decisions.  The positive path is walked here
by one value comparison per vertex, as the cross-check for the package's
walk from continued-fraction digits.  The resolution is driven here on
``ChartState`` objects, blow-up by blow-up, and charts are expanded by
monomial powers and a shift, as the cross-check for the package's
integer rows and one-pass expansion.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from hypothesis import strategies as st

from monoval.laurent import (
    UNIT,
    ChartBasis,
    LaurentPolynomial,
    Monomial,
    RationalFunction,
    X,
    Y,
)
from monoval.resolution import (
    ChartState,
    Classification,
    MissesOrigin,
    ResolutionInvariantError,
    ResolutionStep,
    ThroughOrigin,
    initial_chart,
)
from monoval.valtree import ROOT, TreeVertex


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
    walk ends when the two values are equal.  For a stream valuation the
    comparisons bracket convergents and are bounded by its ``max_iters``.
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


def expand_chart(c: ChartState) -> LaurentPolynomial:
    """sign * f^exc_f g^exc_g * proper, by monomial powers and a shift."""
    f, g = c.basis.f, c.basis.g
    content = f ** c.exc_f * g ** c.exc_g
    if isinstance(c.proper, ThroughOrigin):
        body = LaurentPolynomial({f ** c.proper.s: 1, g ** c.proper.t: -1})
    else:
        body = LaurentPolynomial({UNIT: 1, f ** c.proper.f_exp * g ** c.proper.g_exp: -1})
    return body.shift(content) * c.sign
