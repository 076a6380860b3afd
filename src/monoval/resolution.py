"""Blow-up resolution of the plane cusp x^b = y^a.

A chart of the total transform is nine exact integers,
``(fx, fy, gx, gy, exc_f, exc_g, p, q, sign)``, and ``ChartState`` is the
named tuple of them.  Its coordinates are the Laurent monomials
c1 = f = x^fx y^fy and c2 = g = x^gx y^gy, and the curve in it is
``sign * c1^exc_f * c2^exc_g * proper``.  The proper transform is the
binomial c1^p - c2^q through the chart origin when p > 0 (p, q coprime),
and the unit-minus-monomial 1 - c1^-p c2^q that misses it when p <= 0.
The blow-up rule (``blow_up``), the classification rule (``classify``)
and the expansion (``expand_chart``) read any tuple in that layout.

``resolve`` blows up rows with ``blow_up`` and keeps one plain tuple per
blow-up, the chart blown up, so a trace is a tuple of int tuples, which
CPython's cyclic collector stops tracking.  ``ResolutionTrace.blow_ups``
reads each row as a ``BlowUp``, with its children's new generators and
multiplicity, and ``ResolutionTrace.steps`` names the charts of each
``ResolutionStep``; both build an index on access.  Exponents grow fast
along a resolution, so nothing is expanded except in the reconstruction
check, which multiplies each chart back out in one pass with
``expand_chart`` and must recover x^b - y^a on the nose.

Blowing up a chart origin substitutes one coordinate for the product of
the other two and refactors; the driver repeatedly blows up the unique
chart that is still singular or has a non-normal crossing, and the bases
of the blown-up charts form exactly the positive path of the monomial
valuation with nu(x) = a, nu(y) = b; a chart basis is a tree vertex.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, partial
from math import gcd
from typing import Callable, Iterator, NamedTuple, Optional, Union

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


class _Chart(NamedTuple):
    """The nine ints of a chart (see ``ChartState``)."""

    fx: int
    fy: int
    gx: int
    gy: int
    exc_f: int
    exc_g: int
    p: int
    q: int
    sign: int


class ChartState(_Chart):
    """One affine chart of the total transform, as its nine ints.

    The full curve in this chart is
    ``sign * c1^exc_f * c2^exc_g * proper(c1, c2)`` with c1 = basis.f and
    c2 = basis.g; expanded back into x and y it equals x^b - y^a exactly.
    The constructor takes the chart's parts and checks them;
    ``ChartState._make(row)`` names a row as it is.  Equality is the
    tuple's, so generators are ordered: exc_f, exc_g and sign belong to
    basis.f and basis.g.
    """

    __slots__ = ()

    def __new__(cls, basis: ChartBasis, exc_f: int, exc_g: int, proper: Proper, sign: int):
        if exc_f < 0 or exc_g < 0:
            raise ValueError("exceptional multiplicities are nonnegative")
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        f, g = basis.f, basis.g
        if isinstance(proper, ThroughOrigin):
            p, q = proper.s, proper.t
        else:
            p, q = -proper.f_exp, proper.g_exp
        return tuple.__new__(cls, (f.ex, f.ey, g.ex, g.ey, exc_f, exc_g, p, q, sign))

    # copy and pickle rebuild from the ints, which the constructor does not take
    def __reduce__(self):
        return self._make, (tuple(self),)

    @property
    def basis(self) -> ChartBasis:
        return ChartBasis(Monomial(self.fx, self.fy), Monomial(self.gx, self.gy))

    @property
    def proper(self) -> Proper:
        p = self.p
        return ThroughOrigin(p, self.q) if p > 0 else MissesOrigin(-p, self.q)


# ChartState._make without its length check: names a row as it is
_named = partial(tuple.__new__, ChartState)


class ResolutionStep(NamedTuple):
    """One blow-up: the chart blown up and its two classified children."""

    chart: ChartState
    classification: Classification
    children: tuple[tuple[ChartState, Classification], tuple[ChartState, Classification]]


class BlowUp(NamedTuple):
    """One blow-up of a trace, by name (``ResolutionTrace.blow_ups``).

    The chart blown up has basis (f, g), f = x^fx y^fy and g = x^gx y^gy,
    and curve sign * f^exc_f * g^exc_g * (f^s - g^t).  Its first child
    has basis (f, g/f), multiplicities (e, exc_g), proper exponents
    (s - t, t) and the sign; its second has basis (g, f/g),
    multiplicities (e, exc_f), proper exponents (t - s, s) and the sign
    negated.  A child's proper transform passes through its origin when
    its first exponent is positive (see ``_children``).  ``bad`` is the
    index of the child blown up next, or None after the last blow-up.
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


@dataclass(frozen=True)
class ResolutionTrace:
    """The charts blown up along a resolution, one row each, in order.

    A row is a plain tuple in ``ChartState``'s layout.  Row k + 1 is the
    unresolved child of row k, and both children of the last row are
    resolved.
    """

    a: int
    b: int
    rows: tuple[tuple[int, ...], ...]

    @property
    def steps(self) -> _RowViews:
        """The ``ResolutionStep`` of every row, each built when it is read."""
        return _RowViews(self.rows, _step_view)

    @property
    def blow_ups(self) -> _RowViews:
        """The ``BlowUp`` of every row, each built when it is read."""
        return _RowViews(self.rows, _blow_up_view)

    @property
    def blow_up_count(self) -> int:
        return len(self.rows)

    def all_charts(self) -> list[ChartState]:
        """The root chart plus every child produced along the trace."""
        return list(map(_named, _chart_rows(self)))


class _RowViews(Sequence):
    """Read-only sequence of ``view(row)`` over a trace's rows, built on access."""

    __slots__ = ("_rows", "_view")

    def __init__(self, rows: tuple[tuple[int, ...], ...], view: Callable[[tuple], object]):
        self._rows = rows
        self._view = view

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self._view, self._rows[i]))
        return self._view(self._rows[i])

    def __iter__(self) -> Iterator:
        return map(self._view, self._rows)


@dataclass(frozen=True)
class TheoremReport:
    """Bad-chart path of the resolution against the valuation's positive path.

    ``equal`` is decided on the trace's rows; ``resolution_path``, a chart
    basis per row, is built when first read (``run_verify`` never reads it).
    """

    trace: ResolutionTrace
    valuation_path: PositivePath
    equal: bool

    @property
    def a(self) -> int:
        return self.trace.a

    @property
    def b(self) -> int:
        return self.trace.b

    @cached_property
    def resolution_path(self) -> PositivePath:
        return bad_vertex_path(self.trace)


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


def _children(row: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The rows of the two charts covering the blown-up origin of a through-origin row.

    With coordinates (c1, c2) and curve sign * c1^A c2^B (c1^s - c2^t),
    the first chart is (c1, w = c2/c1).  Substituting c2 = c1*w leaves
    sign * c1^(A+B+min(s,t)) w^B times c1^(s-t) - w^t when s > t, else
    1 - c1^(t-s) w^t (1 - w if s = t = 1): in both cases p = s - t, q = t.
    The second, (c2, c1/c2), is the same construction for the same curve
    written as -sign * c2^B c1^A (c2^t - c1^s), so it flips the sign.
    """
    fx, fy, gx, gy, A, B, s, t, sign = row
    e = A + B + (s if s < t else t)
    return (
        (fx, fy, gx - fx, gy - fy, e, B, s - t, t, sign),
        (gx, gy, fx - gx, fy - gy, e, A, t - s, s, -sign),
    )


def _kind(row: tuple[int, ...]) -> Classification:
    """Origin-local classification of the total transform in a row's chart.

    A curve missing the origin leaves only exceptional axes there, which
    cross normally.  A binomial c1^p - c2^q is a cusp when both exponents
    are at least 2; with p >= 2, q = 1 it is smooth but tangent to the
    c2 = 0 axis, a non-normal crossing whenever that axis is a component;
    and with p = q = 1 it is a line through the origin, a triple point
    when both axes are components.
    """
    _, _, _, _, exc_f, exc_g, p, q, _ = row
    if p <= 0:
        return Classification.RESOLVED
    if p >= 2 and q >= 2:
        return Classification.CUSP_SINGULAR
    if p >= 2:  # q == 1, tangent to the c2-axis
        return Classification.TANGENTIAL_CROSSING if exc_g >= 1 else Classification.RESOLVED
    if q >= 2:  # p == 1, tangent to the c1-axis
        return Classification.TANGENTIAL_CROSSING if exc_f >= 1 else Classification.RESOLVED
    if exc_f >= 1 and exc_g >= 1:
        return Classification.TRIPLE_POINT
    return Classification.RESOLVED


def _step_view(row: tuple[int, ...]) -> ResolutionStep:
    """The ``ResolutionStep`` of a row."""
    first, second = _children(row)
    return ResolutionStep(
        _named(row), _kind(row),
        ((_named(first), _kind(first)), (_named(second), _kind(second))),
    )


def _blow_up_view(row: tuple[int, ...]) -> BlowUp:
    """The ``BlowUp`` of a row."""
    resolved = Classification.RESOLVED
    first, second = _children(row)
    k1, k2 = _kind(first), _kind(second)
    bad = 0 if k1 is not resolved else 1 if k2 is not resolved else None
    return BlowUp._make(row + (_kind(row), first[4], (k1, k2), bad))


def _chart_rows(trace: ResolutionTrace) -> Iterator[tuple[int, ...]]:
    """The root chart's row, then both children of every row, in order."""
    yield trace.rows[0]
    for row in trace.rows:
        yield from _children(row)


def blow_up(c: ChartState) -> tuple[ChartState, ChartState]:
    """Blow up the chart origin; returns the two covering charts.

    The first chart is (c1, c2/c1) and the second (c2, c1/c2), with the
    sign flipped (see ``_children``).  ``c`` may be any tuple in
    ``ChartState``'s layout, as ``resolve``'s rows are.  Charts whose
    curve misses the origin have nothing to blow up and are rejected.
    """
    if c[6] <= 0:
        raise ValueError("chart curve misses the origin; nothing to blow up")
    first, second = _children(c)
    return _named(first), _named(second)


def classify(c: ChartState) -> Classification:
    """Origin-local classification of the total transform in one chart (see ``_kind``)."""
    return _kind(c)


def resolve(a: int, b: int) -> ResolutionTrace:
    """Blow up the unique bad chart until every chart is resolved.

    Each step reads only the blown-up chart's own row: its children and
    their classifications.  Asserts at every step that at most one child
    is unresolved; the walk of bad charts is therefore a path, and its
    length is the digit sum of the continued fraction of a/b.  Rows are
    kept as plain tuples, which the cyclic collector stops tracking.
    """
    row = tuple(initial_chart(a, b))
    rows = []
    resolved = Classification.RESOLVED
    while True:
        rows.append(row)
        first, second = blow_up(row)
        if _kind(first) is not resolved:
            if _kind(second) is not resolved:
                raise ResolutionInvariantError(
                    f"step {len(rows)} of ({a}, {b}) produced two unresolved charts"
                )
            row = tuple(first)
        elif _kind(second) is not resolved:
            row = tuple(second)
        else:
            return ResolutionTrace(int(a), int(b), tuple(rows))


def bad_vertex_path(trace: ResolutionTrace) -> PositivePath:
    """Bases of the blown-up charts, in order, as tree vertices."""
    return PositivePath(
        tuple(ChartBasis(Monomial(r[0], r[1]), Monomial(r[2], r[3])) for r in trace.rows),
        complete=True,
    )


def theorem_report(trace: ResolutionTrace, val_path: PositivePath) -> TheoremReport:
    """Compare a trace's bad-chart path with a valuation's positive path.

    ``val_path`` should be the positive path of nu(x) = a, nu(y) = b for
    the trace's (a, b); it must be complete to count as equal.  Vertices
    are compared as unordered generator pairs.
    """
    equal = (
        val_path.complete
        and len(trace.rows) == len(val_path)
        and all(map(_is_vertex, trace.rows, val_path))
    )
    return TheoremReport(trace, val_path, equal)


def _is_vertex(row: tuple[int, ...], v: ChartBasis) -> bool:
    """Whether a row's basis is the vertex v, generators in either order."""
    fx, fy, gx, gy = row[:4]
    f, g = v.f, v.g
    return (fx == f.ex and fy == f.ey and gx == g.ex and gy == g.ey) or (
        fx == g.ex and fy == g.ey and gx == f.ex and gy == f.ey
    )


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
    """Multiply a chart's factors back out into x, y coordinates, in one pass.

    The reconstruction invariant: for every chart of every trace of
    x^b - y^a this equals x^b - y^a exactly (the tracked sign absorbs the
    sign changes of the refactoring steps).  Through the origin the curve
    is sign * (f^(A+p) g^B - f^A g^(B+q)); missing it,
    sign * (f^A g^B - f^(A-p) g^(B+q)).  The two terms are summed, so a
    tuple whose two monomials coincide, as they can over a degenerate
    basis or with p = q = 0, expands to zero.
    """
    fx, fy, gx, gy, A, B, p, q, sign = c
    i, j = (A + p, A) if p > 0 else (A, A - p)  # powers of f in the two terms
    k = B + q
    return LaurentPolynomial((
        (Monomial(fx * i + gx * B, fy * i + gy * B), sign),
        (Monomial(fx * j + gx * k, fy * j + gy * k), -sign),
    ))


def verify_reconstruction(trace: ResolutionTrace) -> bool:
    """True when every chart of the trace expands to x^b - y^a exactly."""
    curve = cusp_polynomial(trace.a, trace.b)
    return all(expand_chart(row) == curve for row in _chart_rows(trace))


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
