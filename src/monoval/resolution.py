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

The charts blown up form one path, and it changes direction only once
per continued-fraction digit of a/b: while s - t >= 2, the first child
of a chart with p = s, q = t is the next chart blown up, and it differs
only by arithmetic progressions.  Row j
of such a run from (f, g, A, B, s, t, sign) is
(f, g/f^j, A + j(B + t), B, s - jt, t, sign).  So ``resolve`` keeps a
trace as runs (first row, length): it jumps over a run with one
division of the chart's own s by t, and steps each run's last row with
``_children`` and ``_kind``.  It never reads the digits of a/b and
never calls a valuation.  A trace takes memory in the number of digits,
not of blow-ups: ``ResolutionTrace.rows`` and ``steps`` are lazy
sequences over the runs, which build row j of a run with ``_row_at``
and index by walking the runs to the one that holds the index, and
``blow_up_count`` is a sum.  Exponents grow fast along a resolution, so
no polynomial is built on the way.  The reconstruction check proves
that the root chart and both children of every row recover x^b - y^a on
the nose, a run at a time.  It compares the exponent pairs of the two
terms that ``expand_chart`` would multiply back out, and the chart's
sign, as ints with those of x^b - y^a; so a chart costs about what its
integers cost.  Two facts make one blow-up per run enough.  The first
child of a row has the row's exponent pairs and sign; the second, whose
generators are swapped, has the same pairs in the other order and the
sign flipped, so it expands to the same polynomial.  And ``_row_at``
keeps a run's pairs fixed for as long as p = s - jt > 0.  So a run
whose two ends have s > 0 is decided by blowing up its last row, once,
with the public ``blow_up``; that is the row ``resolve`` steps with
``_children``.  The check therefore proves every chart from the closed
form that ``_row_at``, ``_children`` and ``_chart_pairs`` implement, in
time that follows the number of runs, not of blow-ups; ``all_charts``
still builds every chart.

Blowing up a chart origin substitutes one coordinate for the product of
the other two and refactors; the driver repeatedly blows up the unique
chart that is still singular or has a non-normal crossing, and the bases
of the blown-up charts form exactly the positive path of the monomial
valuation with nu(x) = a, nu(y) = b; a chart basis is a tree vertex.
"""

from __future__ import annotations

import enum
from functools import partial
from typing import Iterator, NamedTuple, Union

from .exactnum import _PRIME_TEST_BOUND, _coprime_pair, _is_prime, _record, _require_coprime
from .laurent import ChartBasis, LaurentPolynomial, Monomial, factor_monomial_content, rewrite_in_chart
from .valtree import ExpandedRuns, PositivePath, _pair_path, _same_vertices


class ResolutionInvariantError(RuntimeError):
    """More than one unresolved chart appeared in a blow-up step.

    Signals an implementation bug: a correct transform never produces two.
    """


class _Binomial(NamedTuple):
    """The two ints of a ``ThroughOrigin``."""

    s: int
    t: int


class _Unit(NamedTuple):
    """The two ints of a ``MissesOrigin``."""

    f_exp: int
    g_exp: int


@_record
class ThroughOrigin(_Binomial):
    """Proper transform c1^s - c2^t, vanishing at the chart origin."""

    __slots__ = ()

    def __new__(cls, s: int, t: int):
        if s < 1 or t < 1:
            raise ValueError("exponents of a binomial through the origin must be >= 1")
        _require_coprime(s, t)
        return tuple.__new__(cls, (s, t))


@_record
class MissesOrigin(_Unit):
    """Proper transform 1 - c1^f_exp c2^g_exp, nonzero at the chart origin."""

    __slots__ = ()

    def __new__(cls, f_exp: int, g_exp: int):
        if f_exp < 0 or g_exp < 0:
            raise ValueError("exponents must be nonnegative")
        if f_exp == 0 and g_exp == 0:
            raise ValueError("1 - 1 is not a curve component")
        return tuple.__new__(cls, (f_exp, g_exp))


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


# (first row, length): the rows row_j = (f, g/f^j, A + j(B + t), B, s - jt,
# t, sign) for j < length, of a first row (f, g, A, B, s, t, sign).
RowRun = tuple[tuple[int, ...], int]


class _Trace(NamedTuple):
    """The three fields of a ``ResolutionTrace``."""

    a: int
    b: int
    runs: tuple[RowRun, ...]


@_record
class ResolutionTrace(_Trace):
    """The charts blown up along a resolution, in order, kept as runs.

    A row is a plain tuple in ``ChartState``'s layout.  Row k + 1 is the
    unresolved child of row k, and both children of the last row are
    resolved.  ``runs`` holds (first row, length) pairs, at least one;
    inside a run each row's unresolved child is its first, and the rows
    follow ``_row_at``.  ``rows`` and ``steps`` expand the runs when read.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int, runs: tuple[RowRun, ...]):
        if not runs:
            raise ValueError("a resolution trace needs at least one run")
        return tuple.__new__(cls, (a, b, runs))

    @property
    def blow_up_count(self) -> int:
        return sum(n for _, n in self.runs)

    @property
    def rows(self) -> ExpandedRuns:
        """Every row, a tuple of nine ints, each built when it is read.

        ``blow_up_count`` holds their number.  Past ``sys.maxsize`` rows,
        ``len`` raises ``OverflowError``, as Python's ``len`` does for any
        length that does not fit a C integer.
        """
        return ExpandedRuns(self.runs, self.blow_up_count, _row_at)

    @property
    def steps(self) -> ExpandedRuns:
        """The ``ResolutionStep`` of every row, each built when it is read."""
        return ExpandedRuns(self.runs, self.blow_up_count, _step_at)

    def all_charts(self) -> list[ChartState]:
        """The root chart plus every child produced along the trace."""
        return list(_charts(self))


@_record
class TheoremReport(NamedTuple):
    """Bad-chart path of the resolution against the valuation's positive path.

    ``equal`` is decided on the trace's rows; ``resolution_path``, a chart
    basis per row, is built when read (``run_verify`` never reads it).
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

    @property
    def resolution_path(self) -> PositivePath:
        return bad_vertex_path(self.trace)


@_record
class OffOriginReport(NamedTuple):
    """Transversality of axis crossings away from the chart origin.

    Only intersection points with exactly representable coordinates
    (roots of unity in the ground field: 1, and -1 where it is a root
    distinct from 1) are checked; the other distinct roots are counted
    as skipped, never assumed.
    """

    points: tuple[tuple[str, bool], ...]
    skipped: int

    @property
    def all_transversal(self) -> bool:
        return all(ok for _, ok in self.points)


def cusp_polynomial(a: int, b: int) -> LaurentPolynomial:
    """x^b - y^a."""
    return LaurentPolynomial({(b, 0): 1, (0, a): -1})


def initial_chart(a: int, b: int) -> ChartState:
    """The chart k[x, y] carrying the curve x^b - y^a."""
    a, b = _coprime_pair(a, b, least_b=2)
    return _named((1, 0, 0, 1, 0, 0, b, a, 1))


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


def _row_at(row: tuple[int, ...], j: int) -> tuple[int, ...]:
    """Row j of the run that starts at ``row``."""
    fx, fy, gx, gy, A, B, s, t, sign = row
    return (fx, fy, gx - j * fx, gy - j * fy, A + j * (B + t), B, s - j * t, t, sign)


def _step_at(row: tuple[int, ...], j: int) -> ResolutionStep:
    """The ``ResolutionStep`` of row j of the run that starts at ``row``."""
    row = _row_at(row, j)
    first, second = blow_up(row)
    return ResolutionStep(_named(row), _kind(row), ((first, _kind(first)), (second, _kind(second))))


def _charts(trace: ResolutionTrace) -> Iterator[ChartState]:
    """The root chart, then both children of every row from ``blow_up``, in order."""
    yield _named(trace.runs[0][0])
    for row in trace.rows:
        yield from blow_up(row)


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
    """Blow up the unique bad chart until every chart is resolved, a run at a time.

    A run starts at the chart blown up next.  While its s - t >= 2, its
    first child has p = s - t >= 2 and is a cusp or a tangential crossing,
    and its second misses the origin.  That holds at t = 1 too, since
    exc_g >= 1 follows there: every run but the first starts at a child
    that ``_kind`` found unresolved, and one with q = 1 and p >= 2 is
    resolved unless exc_g >= 1; the first starts at s = b < a = t.  So with
    k = (s - 2) // t the run is k + 1 rows long, and it ends at row k,
    where s - kt is 2 to t + 1.  Otherwise it is one row.  The run's last row is blown up
    with ``_children`` and its children classified with ``_kind``, and
    each time at most one child may be unresolved; the walk of bad charts
    is therefore a path, and its length is the digit sum of the continued
    fraction of a/b.  Rows are plain tuples, which the cyclic collector
    stops tracking.
    """
    row = tuple(initial_chart(a, b))
    b, a = row[6], row[7]  # the ints initial_chart read
    runs = []
    resolved = Classification.RESOLVED
    while True:
        s, t = row[6], row[7]
        if s - t < 2:
            runs.append((row, 1))
            last = row
        else:
            k = (s - 2) // t
            runs.append((row, k + 1))
            last = _row_at(row, k)
        first, second = _children(last)
        if _kind(first) is not resolved:
            if _kind(second) is not resolved:
                step = sum(n for _, n in runs)
                raise ResolutionInvariantError(
                    f"step {step} of ({a}, {b}) produced two unresolved charts"
                )
            row = first
        elif _kind(second) is not resolved:
            row = second
        else:
            return ResolutionTrace(a, b, tuple(runs))


def bad_vertex_path(trace: ResolutionTrace) -> PositivePath:
    """Bases of the blown-up charts, in order, as tree vertices."""
    return PositivePath.from_runs(((row[:4], n) for row, n in trace.runs), complete=True)


def theorem_report(trace: ResolutionTrace, val_path: PositivePath) -> TheoremReport:
    """Compare a trace's bad-chart path with a valuation's positive path.

    ``val_path`` should be the positive path of nu(x) = a, nu(y) = b for
    the trace's (a, b); it must be complete to count as equal.  Their
    runs are walked side by side, a stretch inside one run of each at a
    time, and each stretch is decided by its first vertices, compared as
    ints (see ``valtree._same_vertices``); no vertex is built.
    """
    equal = (
        val_path.complete
        and trace.blow_up_count == val_path.count
        and _same_vertices(trace.runs, val_path.runs)
    )
    return TheoremReport(trace, val_path, equal)


def check_theorem(a: int, b: int) -> TheoremReport:
    """Compare the resolution's bad-chart path with the positive path.

    Both are computed independently: one by driving blow-ups and
    classifying charts, the other by walking the tree with the valuation
    nu(x) = a, nu(y) = b.
    """
    return theorem_report(resolve(a, b), _pair_path(a, b))


def _chart_pairs(c: tuple[int, ...]) -> tuple[int, int, int, int]:
    """The exponent pairs (ex1, ey1) and (ex2, ey2) of a chart's two terms, in a row.

    Through the origin the curve is sign * (f^(A+p) g^B - f^A g^(B+q));
    missing it, sign * (f^A g^B - f^(A-p) g^(B+q)).
    """
    fx, fy, gx, gy, A, B, p, q, _ = c
    i, j = (A + p, A) if p > 0 else (A, A - p)  # powers of f in the two terms
    k = B + q
    return fx * i + gx * B, fy * i + gy * B, fx * j + gx * k, fy * j + gy * k


def expand_chart(c: ChartState) -> LaurentPolynomial:
    """Multiply a chart's factors back out into x, y coordinates, in one pass.

    The reconstruction invariant: for every chart of every trace of
    x^b - y^a this equals x^b - y^a exactly (the tracked sign absorbs the
    sign changes of the refactoring steps).  The constructor sums the two
    terms of ``_chart_pairs``, so a tuple whose two monomials coincide,
    as they can over a degenerate basis or with p = q = 0, expands to
    zero.
    """
    ex1, ey1, ex2, ey2 = _chart_pairs(c)
    return LaurentPolynomial((((ex1, ey1), c[8]), ((ex2, ey2), -c[8])))


def verify_reconstruction(trace: ResolutionTrace) -> bool:
    """True when every chart of the trace expands to x^b - y^a exactly.

    The charts are the root's and both children of every row.  A chart
    is checked as its exponent pairs and sign, as ints: ``expand_chart``
    gives sign * (m1 - m2), which is x^b - y^a exactly when m1 = x^b and
    m2 = y^a with sign 1, or the other way round with sign -1.  Any other
    sign fails, and so do coinciding pairs, which expand to 0.  No
    polynomial is built; the first chart that differs ends the check.

    One row of each run is blown up, its last, with the public
    ``blow_up``.  The first child of a row has the row's exponent pairs
    and sign, and the second, whose generators ``_children`` swaps, has
    them in the other order with the sign flipped, so both expand to the
    row's polynomial; and row j of a run (start, n) has the start's
    pairs while p = s - j*t > 0 (``_row_at``).  So when
    min(s, s - (n - 1)*t) > 0 every row of the run passes through the
    origin, and the last row's children matching proves every chart the
    run's rows give.  A run whose end misses the origin has a row that
    cannot be blown up, and the check returns False for it rather than
    raising.  A run of no rows holds no chart.  The check thus proves the
    charts from the closed form that ``_row_at``, ``_children`` and
    ``_chart_pairs`` implement, rather than building each one: a fault
    of that code at an interior row alone is for the tests to find.
    """
    a, b = trace.a, trace.b
    want = {1: (b, 0, 0, a), -1: (0, a, b, 0)}.get  # the pairs, by sign
    root = trace.runs[0][0]
    if _chart_pairs(root) != want(root[8]):
        return False
    for start, n in trace.runs:
        if n > 0:
            s, t = start[6], start[7]
            if min(s, s - (n - 1) * t) <= 0:
                return False
            first, second = blow_up(_row_at(start, n - 1))
            if _chart_pairs(first) != want(first[8]) or _chart_pairs(second) != want(second[8]):
                return False
    return True


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
    p, q, sign = c.p, c.q, c.sign
    # sign * (c1^p - c2^q), or sign * (1 - c1^-p c2^q) when p <= 0
    first, second = ((p, 0), (0, q)) if p > 0 else ((0, 0), (-p, q))
    return primitive == LaurentPolynomial(((first, sign), (second, -sign)))


def _check_characteristic(characteristic: int) -> None:
    """ValueError unless the characteristic is 0 or a prime."""
    if characteristic < 0:
        raise ValueError("characteristic must be nonnegative")
    if characteristic >= _PRIME_TEST_BOUND:
        raise ValueError(f"characteristic must be below {_PRIME_TEST_BOUND}, where primes are told exactly")
    if characteristic and not _is_prime(characteristic):
        raise ValueError(f"characteristic must be 0 or a prime, not {characteristic}")


def is_smooth_component(component: Proper, characteristic: int = 0) -> bool:
    """Jacobian smoothness of a single curve component.

    A binomial c1^s - c2^t is singular exactly when both exponents are at
    least 2 (the origin kills both partials; coprimality rules out other
    singular points).  A unit-minus-monomial 1 - c1^k c2^l never meets the
    origin; its partials can only vanish along the curve when the
    characteristic divides both exponents, in which case it is a p-th
    power and not reduced.  A characteristic that is not 0 or a prime is
    refused.
    """
    _check_characteristic(characteristic)
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

    A component 1 - c1^k c2^l meets the exceptional axis c1 = 0 only when
    k = 0, at (0, eta) with eta^e = 1 for e = l, and c2 = 0 only when
    l = 0, with e = k; so at most one axis is met.  The crossing is
    transversal unless the characteristic divides e.  The distinct roots
    number e', which is e with every factor of the characteristic p > 0
    removed, and e itself in characteristic 0.  Only eta = 1, and eta = -1
    when e' is even, have exactly representable coordinates; the other
    roots are reported as skipped.  Binomials through the origin meet the
    axes only at the origin itself, the classifier's job.  A characteristic
    that is not 0 or a prime is refused.
    """
    _check_characteristic(characteristic)
    k, l = -c.p, c.q
    if k == 0 and l >= 1 and c.exc_f >= 1:
        e, axis = l, "c1"
    elif l == 0 and k >= 1 and c.exc_g >= 1:
        e, axis = k, "c2"
    else:
        return OffOriginReport(points=(), skipped=0)
    transversal = characteristic == 0 or e % characteristic != 0
    roots = e
    while characteristic > 1 and roots % characteristic == 0:
        roots //= characteristic
    units = ("+1", "-1") if roots % 2 == 0 else ("+1",)
    points = tuple((f"{axis} = 0, unit coordinate {u}", transversal) for u in units)
    return OffOriginReport(points=points, skipped=roots - len(points))
