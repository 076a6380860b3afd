"""Blow-up resolution of the plane cusp x^b = y^a.

A chart state records everything exactly and symbolically: the chart
coordinates (two Laurent monomials in x, y), the exceptional multiplicities
on each coordinate, the proper transform of the curve, and a global sign.
The proper transform is either a binomial c1^s - c2^t through the chart
origin (with s, t coprime) or a unit-minus-monomial 1 - c1^k c2^l that
misses it.  Exponents grow fast along a resolution, so nothing is expanded
except in the reconstruction check, which multiplies a chart back out and
must recover x^b - y^a on the nose.

Blowing up a chart origin substitutes one coordinate for the product of
the other two and refactors; the driver repeatedly blows up the unique
chart that is still singular or has a non-normal crossing, and the bases
of the blown-up charts form exactly the positive path of the monomial
valuation with nu(x) = a, nu(y) = b; a chart basis is a tree vertex.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import gcd
from typing import Union

from .laurent import (
    IDENTITY_BASIS,
    ChartBasis,
    LaurentPolynomial,
    Monomial,
    UNIT,
    factor_monomial_content,
    rewrite_in_chart,
)
from .valtree import PositivePath, positive_path
from .valuation import MonomialValuation


class ResolutionInvariantError(RuntimeError):
    """More than one unresolved chart appeared in a blow-up step.

    Signals an implementation bug: a correct transform never produces two.
    """


@dataclass(frozen=True)
class ThroughOrigin:
    """Proper transform c1^s - c2^t, vanishing at the chart origin."""

    s: int
    t: int

    def __post_init__(self) -> None:
        if self.s < 1 or self.t < 1:
            raise ValueError("exponents of a binomial through the origin must be >= 1")
        if gcd(self.s, self.t) != 1:
            raise ValueError(f"({self.s}, {self.t}) are not coprime")


@dataclass(frozen=True)
class MissesOrigin:
    """Proper transform 1 - c1^f_exp c2^g_exp, nonzero at the chart origin."""

    f_exp: int
    g_exp: int

    def __post_init__(self) -> None:
        if self.f_exp < 0 or self.g_exp < 0:
            raise ValueError("exponents must be nonnegative")
        if self.f_exp == 0 and self.g_exp == 0:
            raise ValueError("1 - 1 is not a curve component")


Proper = Union[ThroughOrigin, MissesOrigin]


class Classification(enum.Enum):
    RESOLVED = "resolved"
    CUSP_SINGULAR = "cusp-singular"
    TANGENTIAL_CROSSING = "tangential-crossing"
    TRIPLE_POINT = "triple-point"


@dataclass(frozen=True, eq=False)
class ChartState:
    """One affine chart of the total transform.

    The full curve in this chart is
    ``sign * c1^exc_f * c2^exc_g * proper(c1, c2)`` with c1 = basis.f and
    c2 = basis.g; expanded back into x and y it equals x^b - y^a exactly.
    """

    basis: ChartBasis
    exc_f: int
    exc_g: int
    proper: Proper
    sign: int

    def __post_init__(self) -> None:
        if self.exc_f < 0 or self.exc_g < 0:
            raise ValueError("exceptional multiplicities are nonnegative")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    # Ordered, unlike the basis: exc_f, exc_g and sign belong to basis.f, basis.g.
    def _key(self) -> tuple:
        return (self.basis.f, self.basis.g, self.exc_f, self.exc_g, self.proper, self.sign)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


@dataclass(frozen=True)
class ResolutionStep:
    """One blow-up: the chart blown up and its two classified children."""

    chart: ChartState
    classification: Classification
    children: tuple[tuple[ChartState, Classification], tuple[ChartState, Classification]]


@dataclass(frozen=True)
class ResolutionTrace:
    a: int
    b: int
    steps: tuple[ResolutionStep, ...]

    @property
    def blow_up_count(self) -> int:
        return len(self.steps)

    def all_charts(self) -> list[ChartState]:
        """The root chart plus every child produced along the trace."""
        charts = [self.steps[0].chart]
        for step in self.steps:
            charts.extend(child for child, _ in step.children)
        return charts


@dataclass(frozen=True)
class TheoremReport:
    """Bad-chart path of the resolution against the valuation's positive path."""

    a: int
    b: int
    resolution_path: PositivePath
    valuation_path: PositivePath
    equal: bool


@dataclass(frozen=True)
class OffOriginReport:
    """Transversality of axis crossings away from the chart origin.

    Only intersection points with exactly representable coordinates
    (roots of unity in the ground field: 1, and -1 for even exponents)
    are checked; the rest are counted as skipped, never assumed.
    """

    points: tuple[tuple[str, bool], ...]
    skipped: int

    @property
    def all_transversal(self) -> bool:
        return all(ok for _, ok in self.points)


def cusp_polynomial(a: int, b: int) -> LaurentPolynomial:
    """x^b - y^a."""
    return LaurentPolynomial({Monomial(b, 0): 1, Monomial(0, a): -1})


def initial_chart(a: int, b: int) -> ChartState:
    """The chart k[x, y] carrying the curve x^b - y^a."""
    a, b = int(a), int(b)
    if not (a > b > 1):
        raise ValueError("need a > b > 1")
    if gcd(a, b) != 1:
        raise ValueError(f"({a}, {b}) are not coprime")
    return ChartState(
        basis=IDENTITY_BASIS,
        exc_f=0,
        exc_g=0,
        proper=ThroughOrigin(s=b, t=a),
        sign=1,
    )


def blow_up(c: ChartState) -> tuple[ChartState, ChartState]:
    """Blow up the chart origin; returns the two covering charts.

    With coordinates (c1, c2) and curve sign * c1^A c2^B (c1^s - c2^t),
    the first chart is (c1, c2/c1).  The second, (c2, c1/c2), is the same
    construction for the same curve written as
    -sign * c2^B c1^A (c2^t - c1^s), so it flips the tracked sign.  Charts
    whose curve misses the origin have nothing to blow up and are rejected.
    """
    if not isinstance(c.proper, ThroughOrigin):
        raise ValueError("chart curve misses the origin; nothing to blow up")
    f, g = c.basis.f, c.basis.g
    A, B = c.exc_f, c.exc_g
    s, t = c.proper.s, c.proper.t
    return _chart(f, g, A, B, s, t, c.sign), _chart(g, f, B, A, t, s, -c.sign)


def _chart(c1: Monomial, c2: Monomial, A: int, B: int, s: int, t: int, sign: int) -> ChartState:
    """The (c1, w = c2/c1) chart of the curve sign * c1^A c2^B (c1^s - c2^t).

    Substituting c2 = c1*w leaves sign * c1^(A+B+min(s,t)) w^B times
    c1^(s-t) - w^t when s > t, else 1 - c1^(t-s) w^t (1 - w if s = t = 1).
    """
    proper = ThroughOrigin(s - t, t) if s > t else MissesOrigin(t - s, t)
    return ChartState(ChartBasis(c1, c2 / c1), A + B + min(s, t), B, proper, sign)


def classify(c: ChartState) -> Classification:
    """Origin-local classification of the total transform in one chart.

    A curve missing the origin leaves only exceptional axes there, which
    cross normally.  A binomial c1^s - c2^t is a cusp when both exponents
    are at least 2; with s >= 2, t = 1 it is smooth but tangent to the
    c2 = 0 axis, a non-normal crossing whenever that axis is a component;
    and with s = t = 1 it is a line through the origin, a triple point
    when both axes are components.
    """
    p = c.proper
    if isinstance(p, MissesOrigin):
        return Classification.RESOLVED
    if p.s >= 2 and p.t >= 2:
        return Classification.CUSP_SINGULAR
    if p.s >= 2:  # t == 1, tangent to the c2-axis
        return (
            Classification.TANGENTIAL_CROSSING if c.exc_g >= 1 else Classification.RESOLVED
        )
    if p.t >= 2:  # s == 1, tangent to the c1-axis
        return (
            Classification.TANGENTIAL_CROSSING if c.exc_f >= 1 else Classification.RESOLVED
        )
    if c.exc_f >= 1 and c.exc_g >= 1:
        return Classification.TRIPLE_POINT
    return Classification.RESOLVED


def resolve(a: int, b: int) -> ResolutionTrace:
    """Blow up the unique bad chart until every chart is resolved.

    Asserts at every step that at most one child is unresolved; the walk
    of bad charts is therefore a path, and its length is the digit sum of
    the continued fraction of a/b.
    """
    chart = initial_chart(a, b)
    steps: list[ResolutionStep] = []
    while True:
        cls = classify(chart)
        first, second = blow_up(chart)
        k1, k2 = classify(first), classify(second)
        steps.append(ResolutionStep(chart, cls, ((first, k1), (second, k2))))
        unresolved = [
            child
            for child, kind in ((first, k1), (second, k2))
            if kind is not Classification.RESOLVED
        ]
        if len(unresolved) > 1:
            raise ResolutionInvariantError(
                f"step {len(steps)} of ({a}, {b}) produced two unresolved charts"
            )
        if not unresolved:
            return ResolutionTrace(int(a), int(b), tuple(steps))
        chart = unresolved[0]


def bad_vertex_path(trace: ResolutionTrace) -> PositivePath:
    """Bases of the blown-up charts, in order, as tree vertices."""
    return PositivePath(tuple(step.chart.basis for step in trace.steps), complete=True)


def theorem_report(trace: ResolutionTrace, val_path: PositivePath) -> TheoremReport:
    """Compare a trace's bad-chart path with a valuation's positive path.

    ``val_path`` should be the positive path of nu(x) = a, nu(y) = b for
    the trace's (a, b); it must be complete to count as equal.  Vertices
    are compared as unordered generator pairs.
    """
    res_path = bad_vertex_path(trace)
    equal = (
        val_path.complete
        and len(res_path) == len(val_path)
        and all(u == v for u, v in zip(res_path, val_path))
    )
    return TheoremReport(trace.a, trace.b, res_path, val_path, equal)


def check_theorem(a: int, b: int) -> TheoremReport:
    """Compare the resolution's bad-chart path with the positive path.

    Both are computed independently: one by driving blow-ups and
    classifying charts, the other by walking the tree with the valuation
    nu(x) = a, nu(y) = b.
    """
    trace = resolve(a, b)
    nu = MonomialValuation.rational(a, b)
    return theorem_report(trace, positive_path(nu, max_steps=a + b))


def expand_chart(c: ChartState) -> LaurentPolynomial:
    """Multiply a chart's factors back out into x, y coordinates.

    The reconstruction invariant: for every chart of every trace of
    x^b - y^a this equals x^b - y^a exactly (the tracked sign absorbs the
    sign changes of the refactoring steps).
    """
    f, g = c.basis.f, c.basis.g
    content = f ** c.exc_f * g ** c.exc_g
    if isinstance(c.proper, ThroughOrigin):
        body = LaurentPolynomial({f ** c.proper.s: 1, g ** c.proper.t: -1})
    else:
        body = LaurentPolynomial({UNIT: 1, f ** c.proper.f_exp * g ** c.proper.g_exp: -1})
    return body.shift(content) * c.sign


def verify_reconstruction(trace: ResolutionTrace) -> bool:
    """True when every chart of the trace expands to x^b - y^a exactly."""
    curve = cusp_polynomial(trace.a, trace.b)
    return all(expand_chart(c) == curve for c in trace.all_charts())


def chart_agrees_with_lattice(c: ChartState, a: int, b: int) -> bool:
    """Cross-check a chart against a direct unimodular rewrite.

    Independently of the blow-up recursion, rewriting x^b - y^a in the
    chart basis and factoring out the monomial content must reproduce the
    chart's exceptional exponents and proper transform.
    """
    in_chart = rewrite_in_chart(cusp_polynomial(a, b), c.basis)
    content, primitive = factor_monomial_content(in_chart)
    if content != Monomial(c.exc_f, c.exc_g):
        return False
    if isinstance(c.proper, ThroughOrigin):
        expected = LaurentPolynomial(
            {Monomial(c.proper.s, 0): c.sign, Monomial(0, c.proper.t): -c.sign}
        )
    else:
        expected = LaurentPolynomial(
            {UNIT: c.sign, Monomial(c.proper.f_exp, c.proper.g_exp): -c.sign}
        )
    return primitive == expected


def is_smooth_component(component: Proper, characteristic: int = 0) -> bool:
    """Jacobian smoothness of a single curve component.

    A binomial c1^s - c2^t is singular exactly when both exponents are at
    least 2 (the origin kills both partials; coprimality rules out other
    singular points).  A unit-minus-monomial 1 - c1^k c2^l never meets the
    origin; its partials can only vanish along the curve when the
    characteristic divides both exponents, in which case it is a p-th
    power and not reduced.
    """
    if characteristic < 0:
        raise ValueError("characteristic must be nonnegative")
    if isinstance(component, ThroughOrigin):
        return not (component.s >= 2 and component.t >= 2)
    if isinstance(component, MissesOrigin):
        if characteristic == 0:
            return True
        return not (
            component.f_exp % characteristic == 0
            and component.g_exp % characteristic == 0
        )
    raise TypeError(f"not a curve component: {type(component).__name__}")


def off_origin_crossing_report(c: ChartState, characteristic: int = 0) -> OffOriginReport:
    """Check normal crossings away from the origin in a resolved chart.

    A component 1 - c1^k c2^l meets the c1 = 0 axis only when k = 0, at
    the points (0, eta) with eta^l = 1; the crossing there is transversal
    unless the characteristic divides l.  Only eta = 1 (and eta = -1 for
    even l) have exactly representable coordinates; the remaining roots of
    unity are reported as skipped.  Binomials through the origin meet the
    axes only at the origin itself, which is the classifier's job.
    """
    if not isinstance(c.proper, MissesOrigin):
        return OffOriginReport(points=(), skipped=0)
    points: list[tuple[str, bool]] = []
    skipped = 0

    def axis_meetings(exp_on_other: int, axis: str, axis_present: bool) -> None:
        nonlocal skipped
        if not axis_present:
            return
        representable = 1 + (1 if exp_on_other % 2 == 0 else 0)
        skipped += max(exp_on_other - representable, 0)
        transversal = characteristic == 0 or exp_on_other % characteristic != 0
        points.append((f"{axis} = 0, unit coordinate +1", transversal))
        if exp_on_other % 2 == 0:
            points.append((f"{axis} = 0, unit coordinate -1", transversal))

    k, l = c.proper.f_exp, c.proper.g_exp
    if k == 0 and l >= 1:
        axis_meetings(l, "c1", c.exc_f >= 1)
    if l == 0 and k >= 1:
        axis_meetings(k, "c2", c.exc_g >= 1)
    return OffOriginReport(points=tuple(points), skipped=skipped)
