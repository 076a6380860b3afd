import copy
import gc
import pickle
import random
from fractions import Fraction
from itertools import accumulate, product
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from monoval import resolution
from monoval.laurent import ChartBasis, LaurentPolynomial, Monomial, X, Y
from monoval.resolution import (
    ChartState,
    Classification,
    MissesOrigin,
    ResolutionInvariantError,
    ResolutionTrace,
    ThroughOrigin,
    bad_vertex_path,
    blow_up,
    chart_agrees_with_lattice,
    check_theorem,
    classify,
    cusp_polynomial,
    expand_chart,
    initial_chart,
    is_smooth_component,
    off_origin_crossing_report,
    resolve,
    theorem_report,
    verify_reconstruction,
)
from monoval.valring import bezout
from monoval.valtree import (
    ROOT,
    PositivePath,
    TreeVertex,
    cf_correspondence_check,
    children,
    positive_path,
)
from monoval.valuation import MonomialValuation

RESOLVED = Classification.RESOLVED
CUSP = Classification.CUSP_SINGULAR
TANGENTIAL = Classification.TANGENTIAL_CROSSING
TRIPLE = Classification.TRIPLE_POINT


def chart_tuple(c: ChartState):
    return (c.basis.f, c.basis.g, c.exc_f, c.exc_g, c.proper, c.sign)


def test_initial_chart():
    c = initial_chart(3, 2)
    assert chart_tuple(c) == (X, Y, 0, 0, ThroughOrigin(2, 3), 1)
    assert expand_chart(c) == cusp_polynomial(3, 2)
    assert chart_tuple(initial_chart(24, 7))[4] == ThroughOrigin(7, 24)
    assert chart_tuple(initial_chart(5, 2))[4] == ThroughOrigin(2, 5)
    for bad in [(4, 2), (2, 3), (3, 1), (3, 3)]:
        with pytest.raises(ValueError):
            initial_chart(*bad)


# Each entry point that takes a coprime pair a > b, with the least b it takes.
@pytest.mark.parametrize(
    "check, a, b, message",
    [
        (initial_chart, 2, 2, "need a > b > 1"),
        (initial_chart, 3, 1, "need a > b > 1"),
        (initial_chart, 2, 3, "need a > b > 1"),
        (initial_chart, 6, 4, "(6, 4) are not coprime"),
        (initial_chart, "9", "6", "(9, 6) are not coprime"),
        (bezout, 3, 3, "need a > b >= 1"),
        (bezout, 2, 0, "need a > b >= 1"),
        (bezout, 4, 2, "(4, 2) are not coprime"),
        (cf_correspondence_check, 1, 2, "need a > b >= 1"),
        (cf_correspondence_check, 5, 5, "need a > b >= 1"),
        (cf_correspondence_check, 15.0, 10, "(15, 10) are not coprime"),
    ],
)
def test_a_pair_that_is_not_ordered_and_coprime_is_refused_in_the_same_words(check, a, b, message):
    with pytest.raises(ValueError) as info:
        check(a, b)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "kind, exponents, message",
    [
        (ThroughOrigin, (0, 1), "exponents of a binomial through the origin must be >= 1"),
        (ThroughOrigin, (2, -1), "exponents of a binomial through the origin must be >= 1"),
        (ThroughOrigin, (4, 6), "(4, 6) are not coprime"),
        (MissesOrigin, (-1, 2), "exponents must be nonnegative"),
        (MissesOrigin, (1, -2), "exponents must be nonnegative"),
        (MissesOrigin, (0, 0), "1 - 1 is not a curve component"),
    ],
)
def test_a_proper_transform_refuses_exponents_of_no_curve_component(kind, exponents, message):
    with pytest.raises(ValueError) as info:
        kind(*exponents)
    assert str(info.value) == message


def test_blow_up_requires_curve_through_origin():
    c = initial_chart(3, 2)
    first, second = blow_up(c)
    with pytest.raises(ValueError):
        blow_up(first)  # curve misses the origin there


def test_cusp_3_2_charts_match_reference_decompositions():
    """Every chart of the (3, 2) resolution, frozen exactly."""
    trace = resolve(3, 2)
    assert trace.blow_up_count == 3
    (s1, s2, s3) = trace.steps

    # blow-up 1: children (x, y/x) and (y, x/y)
    u1, u2 = s1.children
    assert chart_tuple(u1[0]) == (X, Monomial(-1, 1), 2, 0, MissesOrigin(1, 3), 1)
    assert u1[1] is RESOLVED  # V(x^2) + V(1 - x (y/x)^3)
    assert chart_tuple(u2[0]) == (Y, Monomial(1, -1), 2, 0, ThroughOrigin(1, 2), -1)
    assert u2[1] is TANGENTIAL  # V(y^2) + V((x/y)^2 - y)

    # blow-up 2 at (y, x/y): children (y, x/y^2) and (x/y, y^2/x)
    u4, u3 = s2.children
    assert chart_tuple(u4[0]) == (Y, Monomial(1, -2), 3, 0, MissesOrigin(1, 2), -1)
    assert u4[1] is RESOLVED  # V(y^3) + V(1 - (x/y^2)^2 y)
    assert chart_tuple(u3[0]) == (
        Monomial(1, -1), Monomial(-1, 2), 3, 2, ThroughOrigin(1, 1), 1,
    )
    assert u3[1] is TRIPLE  # V((x/y)^3 (y^2/x)^2) + V(x/y - y^2/x)

    # blow-up 3 at (x/y, y^2/x): children (x/y, y^3/x^2) and (y^2/x, x^2/y^3)
    u5, u6 = s3.children
    assert chart_tuple(u5[0]) == (
        Monomial(1, -1), Monomial(-2, 3), 6, 2, MissesOrigin(0, 1), 1,
    )
    assert u5[1] is RESOLVED  # V((x/y)^6 (y^3/x^2)^2) + V(1 - y^3/x^2)
    assert chart_tuple(u6[0]) == (
        Monomial(-1, 2), Monomial(2, -3), 6, 3, MissesOrigin(0, 1), -1,
    )
    assert u6[1] is RESOLVED  # V((y^2/x)^6 (x^2/y^3)^3) + V(x^2/y^3 - 1)

    # each chart multiplies back out to x^2 - y^3 on the nose
    curve = cusp_polynomial(3, 2)
    for c in trace.all_charts():
        assert expand_chart(c) == curve


def test_classify_known():
    # (y, x/y) chart of x^2 - y^3: smooth but tangent to the exceptional axis
    c = ChartState(ChartBasis(Y, Monomial(1, -1)), 2, 0, ThroughOrigin(1, 2), -1)
    assert classify(c) is TANGENTIAL
    # same curve with no exceptional component is just resolved
    c2 = ChartState(c.basis, 0, 0, ThroughOrigin(1, 2), 1)
    assert classify(c2) is RESOLVED
    # triple point: line through the origin with both axes present
    c3 = ChartState(
        ChartBasis(Monomial(1, -1), Monomial(-1, 2)), 3, 2, ThroughOrigin(1, 1), 1
    )
    assert classify(c3) is TRIPLE
    assert classify(initial_chart(3, 2)) is CUSP
    c4 = ChartState(c.basis, 2, 0, MissesOrigin(1, 3), 1)
    assert classify(c4) is RESOLVED


@pytest.mark.parametrize("a, b, count", [(3, 2, 3), (24, 7, 8), (5, 2, 4)])
def test_resolve_counts(a, b, count):
    assert resolve(a, b).blow_up_count == count


def test_bad_vertex_path_known():
    path = bad_vertex_path(resolve(3, 2))
    assert path.vertices == (
        TreeVertex(X, Y),
        TreeVertex(Y, Monomial(1, -1)),
        TreeVertex(Monomial(1, -1), Monomial(-1, 2)),
    )
    assert len(bad_vertex_path(resolve(5, 2))) == 4
    path24 = bad_vertex_path(resolve(24, 7))
    assert len(path24) == 8
    assert path24.vertices[-1] == TreeVertex(Monomial(-2, 7), Monomial(5, -17))


def test_final_charts_of_24_7_match_reference():
    trace = resolve(24, 7)
    last = trace.steps[-1]
    kids = [child.basis for child, _ in last.children]
    assert TreeVertex(Monomial(-2, 7), Monomial(7, -24)) in kids   # k[y^7/x^2, x^7/y^24]
    assert TreeVertex(Monomial(5, -17), Monomial(-7, 24)) in kids  # k[x^5/y^17, y^24/x^7]


@pytest.mark.parametrize("a, b", [(3, 2), (24, 7), (5, 2), (13, 5)])
def test_check_theorem_known(a, b):
    assert check_theorem(a, b).equal


def test_check_theorem_sweep_small():
    for a in range(3, 41):
        for b in range(2, a):
            if gcd(a, b) == 1:
                assert check_theorem(a, b).equal, (a, b)


def test_reconstruction_and_lattice_cross_check_sweep():
    for a in range(3, 31):
        for b in range(2, a):
            if gcd(a, b) != 1:
                continue
            trace = resolve(a, b)
            assert verify_reconstruction(trace)
            for c in trace.all_charts():
                assert chart_agrees_with_lattice(c, a, b), (a, b)


def test_lattice_cross_check_rejects_a_wrong_exceptional_content():
    chart = resolve(24, 7).all_charts()[3]
    assert chart_agrees_with_lattice(chart, 24, 7)
    raised = ChartState._make((*chart[:4], chart.exc_f + 1, *chart[5:]))
    assert not chart_agrees_with_lattice(raised, 24, 7)


def test_lemma_invariants_along_traces():
    # at most one unresolved child per step, coprime (s, t) everywhere,
    # and the (s, t) pairs follow the subtractive Euclid on (b, a)
    for a, b in [(3, 2), (5, 2), (24, 7), (21, 8)]:
        trace = resolve(a, b)
        st_pairs = []
        for step in trace.steps:
            unresolved = [k for _, k in step.children if k is not RESOLVED]
            assert len(unresolved) <= 1
            assert isinstance(step.chart.proper, ThroughOrigin)
            st_pairs.append(tuple(sorted((step.chart.proper.s, step.chart.proper.t))))
            for child, _ in step.children:
                if isinstance(child.proper, ThroughOrigin):
                    assert gcd(child.proper.s, child.proper.t) == 1
        assert st_pairs[0] == (b, a)
        for (lo, hi), cur in zip(st_pairs, st_pairs[1:]):
            assert cur == tuple(sorted((lo, hi - lo)))
        assert st_pairs[-1] == (1, 1)
        # final step resolves both children
        assert all(k is RESOLVED for _, k in trace.steps[-1].children)


def test_is_smooth_component():
    assert is_smooth_component(MissesOrigin(0, 1))            # 1 - y^3/x^2 style
    assert is_smooth_component(ThroughOrigin(2, 1))           # (x/y)^2 - y style
    assert not is_smooth_component(ThroughOrigin(2, 3))       # the cusp itself
    assert is_smooth_component(ThroughOrigin(1, 1))
    # characteristic p: p-th powers are not reduced
    assert not is_smooth_component(MissesOrigin(2, 4), characteristic=2)
    assert is_smooth_component(MissesOrigin(1, 4), characteristic=2)
    assert not is_smooth_component(MissesOrigin(0, 3), characteristic=3)
    assert is_smooth_component(MissesOrigin(0, 3), characteristic=5)
    # the origin criterion for binomials does not depend on characteristic
    assert not is_smooth_component(ThroughOrigin(2, 3), characteristic=2)
    with pytest.raises(ValueError):
        is_smooth_component(MissesOrigin(0, 1), characteristic=-1)


@pytest.mark.parametrize("characteristic", [1, 4, 6, -2, 2**89])
def test_a_characteristic_that_is_not_0_or_a_prime_is_refused(characteristic):
    chart = ChartState._make((1, 0, -1, 1, 1, 0, 0, 6, 1))
    if characteristic < 0:
        message = "characteristic must be nonnegative"
    elif characteristic > 6:
        message = "characteristic must be below 3317044064679887385961981, where primes are told exactly"
    else:
        message = f"characteristic must be 0 or a prime, not {characteristic}"
    for call in (lambda: off_origin_crossing_report(chart, characteristic),
                 lambda: is_smooth_component(MissesOrigin(0, 6), characteristic)):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message


def test_a_characteristic_that_is_a_prime_is_taken():
    chart = ChartState._make((1, 0, -1, 1, 1, 0, 0, 6, 1))
    for p in (2, 3, 5, 2**61 - 1):
        assert off_origin_crossing_report(chart, p).points[0][0] == "c1 = 0, unit coordinate +1"
        assert is_smooth_component(MissesOrigin(0, 6), p) is (p > 3)


def test_smoothness_refuses_what_is_not_a_curve_component():
    with pytest.raises(TypeError) as err:
        is_smooth_component(object())
    assert str(err.value) == "not a curve component: object"


def test_off_origin_crossing_report():
    chart = ChartState(
        ChartBasis(Monomial(1, -1), Monomial(-2, 3)), 6, 2, MissesOrigin(0, 1), 1
    )
    rep = off_origin_crossing_report(chart)
    assert rep.points and rep.all_transversal and rep.skipped == 0
    # even exponent: two representable points, rest skipped
    chart2 = ChartState(ChartBasis(X, Monomial(-1, 1)), 2, 0, MissesOrigin(0, 4), 1)
    rep2 = off_origin_crossing_report(chart2)
    assert len(rep2.points) == 2 and rep2.skipped == 2
    assert rep2.all_transversal
    # characteristic dividing the exponent breaks transversality
    rep3 = off_origin_crossing_report(chart2, characteristic=2)
    assert not rep3.all_transversal
    # binomial charts have nothing to report
    assert off_origin_crossing_report(initial_chart(3, 2)).points == ()
    # every resolved chart of a real trace passes in characteristic 0
    for a, b in [(3, 2), (24, 7)]:
        for c in resolve(a, b).all_charts():
            if isinstance(c.proper, MissesOrigin):
                assert off_origin_crossing_report(c).all_transversal


def test_off_origin_crossings_lie_only_on_exceptional_axes():
    # 1 - c1^4 meets c2 = 0 at c1^4 = 1: +1 and -1 are exact, two roots skipped
    chart = ChartState(ChartBasis(X, Monomial(-1, 1)), 0, 2, MissesOrigin(4, 0), 1)
    rep = off_origin_crossing_report(chart)
    assert rep.points == (
        ("c2 = 0, unit coordinate +1", True),
        ("c2 = 0, unit coordinate -1", True),
    )
    assert rep.skipped == 2
    # with neither axis exceptional there is no crossing to check
    bare = ChartState(ChartBasis(X, Monomial(-1, 1)), 0, 0, MissesOrigin(0, 4), 1)
    assert off_origin_crossing_report(bare) == resolution.OffOriginReport(points=(), skipped=0)


def test_off_origin_crossings_count_distinct_roots_in_positive_characteristic():
    # 1 - c2^2 on the exceptional c1 = 0: in characteristic 2, -1 = +1 is one double root
    rep = off_origin_crossing_report(ChartState._make((1, 0, -1, 1, 1, 0, 0, 2, 1)), 2)
    assert rep == resolution.OffOriginReport(points=(("c1 = 0, unit coordinate +1", False),), skipped=0)
    six = ChartState._make((1, 0, -1, 1, 1, 0, 0, 6, 1))  # eta^6 = 1
    # characteristic 3: eta^6 - 1 = (eta^2 - 1)^3, roots +1 and -1
    rep3 = off_origin_crossing_report(six, 3)
    assert [u for u, _ in rep3.points] == ["c1 = 0, unit coordinate +1", "c1 = 0, unit coordinate -1"]
    assert rep3.skipped == 0 and not rep3.all_transversal
    # characteristic 2: eta^6 - 1 = (eta^3 - 1)^2, roots +1 and two cube roots of unity
    rep2 = off_origin_crossing_report(six, 2)
    assert [u for u, _ in rep2.points] == ["c1 = 0, unit coordinate +1"] and rep2.skipped == 2
    # characteristic 5 does not divide 6: six distinct roots, four skipped
    rep5 = off_origin_crossing_report(six, 5)
    assert len(rep5.points) == 2 and rep5.skipped == 4 and rep5.all_transversal


def test_off_origin_crossings_equal_the_enumeration_oracle():
    # Every misses-origin proper transform 1 - c1^k c2^l with k, l <= 12 (and
    # the degenerate k = l = 0), over every exceptional pattern, in
    # characteristic 0, 2, 3 and 5; a chart through the origin (p > 0) has
    # nothing to report.
    none = resolution.OffOriginReport(points=(), skipped=0)
    for k, l, exc_f, exc_g, char in product(range(13), range(13), (0, 1), (0, 1), (0, 2, 3, 5)):
        chart = ChartState._make((1, 0, -1, 1, exc_f, exc_g, -k, l, 1))
        report = off_origin_crossing_report(chart, char)
        expected = oracles.off_origin_crossings(k, l, exc_f, exc_g, char)
        assert (report.points, report.skipped) == expected, chart
        assert off_origin_crossing_report(chart._replace(p=k + 1, q=l + 1), char) == none


def test_component_smoothness_along_traces():
    for a, b in [(3, 2), (24, 7), (9, 4)]:
        trace = resolve(a, b)
        for step in trace.steps:
            for child, kind in step.children:
                if kind is RESOLVED:
                    assert is_smooth_component(child.proper)


def test_chart_equality_keeps_generator_order():
    # the pair itself is unordered, but exc_f, exc_g and sign belong to
    # c1 = basis.f and c2 = basis.g, so a swapped basis is another chart
    f, g = Y, Monomial(1, -1)
    assert ChartBasis(f, g) == ChartBasis(g, f)
    c = ChartState(ChartBasis(f, g), 2, 2, ThroughOrigin(1, 1), 1)
    swapped = ChartState(ChartBasis(g, f), 2, 2, ThroughOrigin(1, 1), 1)
    assert c != swapped
    assert c == ChartState(ChartBasis(f, g), 2, 2, ThroughOrigin(1, 1), 1)
    assert hash(c) == hash(ChartState(ChartBasis(f, g), 2, 2, ThroughOrigin(1, 1), 1))
    root = initial_chart(3, 2).basis
    assert (root.f, root.g) == (ROOT.f, ROOT.g)


def test_bad_charts_are_the_path_vertices():
    # the bad-chart path holds the charts' bases, generators in their order
    trace = resolve(24, 7)
    path = bad_vertex_path(trace)
    assert len(path) == len(trace.steps)
    for v, step in zip(path, trace.steps):
        assert type(v) is ChartBasis
        assert (v.f, v.g) == (step.chart.basis.f, step.chart.basis.g)


def test_theorem_report_compares_rows_with_vertices_as_unordered_pairs():
    trace = resolve(24, 7)
    path = positive_path(MonomialValuation.rational(24, 7), max_steps=31)
    report = theorem_report(trace, path)
    assert report.equal and report.resolution_path == bad_vertex_path(trace)
    swapped = PositivePath(tuple(ChartBasis(v.g, v.f) for v in path), complete=True)
    assert theorem_report(trace, swapped).equal
    sibling = next(v for v in children(path.vertices[-2]) if v != path.vertices[-1])
    moved = PositivePath(path.vertices[:-1] + (sibling,), complete=True)
    report = theorem_report(trace, moved)
    assert not report.equal
    assert report.resolution_path == bad_vertex_path(trace) != report.valuation_path
    assert not theorem_report(trace, PositivePath(path.vertices, complete=False)).equal


def test_theorem_report_builds_the_resolution_path_when_it_is_read(monkeypatch):
    trace = resolve(24, 7)
    built = counting(monkeypatch, "bad_vertex_path")
    report = theorem_report(trace, positive_path(MonomialValuation.rational(24, 7), max_steps=31))
    assert report.equal and (report.a, report.b) == (24, 7) and built == []
    path = report.resolution_path
    assert built == [trace]
    assert path == bad_vertex_path(trace)


# ------------------------------------------ integer rows against the oracles


def chart_row(c: ChartState) -> tuple:
    p = c.proper
    powers = (p.s, p.t) if isinstance(p, ThroughOrigin) else (-p.f_exp, p.g_exp)
    return (c.basis.f.ex, c.basis.f.ey, c.basis.g.ex, c.basis.g.ey,
            c.exc_f, c.exc_g, *powers, c.sign)


def assert_trace_equals_oracle(a, b):
    trace = resolve(a, b)
    expected = oracles.resolve_steps(a, b)
    assert trace.rows == tuple(chart_row(step.chart) for step in expected)
    assert list(trace.steps) == expected
    assert trace.blow_up_count == len(expected)


def test_rows_and_steps_equal_the_oracle_for_a_below_120():
    for a in range(3, 120):
        for b in range(2, a):
            if gcd(a, b) == 1:
                assert_trace_equals_oracle(a, b)


@settings(max_examples=30, deadline=None)
@given(oracles.coprime_pairs(10**40))
def test_rows_and_steps_equal_the_oracle_up_to_10_40(pair):
    assert_trace_equals_oracle(*pair)


@settings(max_examples=30, deadline=None)
@given(oracles.coprime_pairs(10**40))
def test_fused_expansion_equals_the_oracle_chart_by_chart(pair):
    a, b = pair
    curve = cusp_polynomial(a, b)
    for c in resolve(a, b).all_charts():
        assert expand_chart(c) == oracles.expand_chart(c) == curve


@st.composite
def chart_parts(draw):
    """Any chart's constructor arguments: a tree vertex as basis, generators in either order, any curve."""
    v = ROOT
    for side in draw(st.lists(st.integers(0, 1), max_size=30)):
        v = children(v)[side]
    f, g = (v.g, v.f) if draw(st.booleans()) else (v.f, v.g)
    if draw(st.booleans()):
        s, t = draw(st.integers(1, 50)), draw(st.integers(1, 50))
        proper = ThroughOrigin(s // gcd(s, t), t // gcd(s, t))
    else:
        k, l = draw(st.integers(0, 50)), draw(st.integers(0, 50))
        proper = MissesOrigin(k, l) if k or l else MissesOrigin(0, 1)
    exc_f, exc_g = draw(st.integers(0, 10**30)), draw(st.integers(0, 10**30))
    return ChartBasis(f, g), exc_f, exc_g, proper, draw(st.sampled_from((1, -1)))


def charts():
    return chart_parts().map(lambda parts: ChartState(*parts))


@settings(max_examples=300, deadline=None)
@given(charts())
def test_chart_rules_equal_the_oracle_on_any_chart(c):
    assert expand_chart(c) == oracles.expand_chart(c)
    assert classify(c) is oracles.chart_classify(c)
    if isinstance(c.proper, ThroughOrigin):
        assert blow_up(c) == oracles.chart_blow_up(c)


# Two tuples whose terms coincide, so they expand to 0: x * x^0 - x^0 * x
# over the degenerate basis (x, x), and the proper transform 1 - c1^0 c2^0.
# A sign of 0, or one that is not an int, takes the general constructor.
@example((1, 0, 1, 0, 0, 0, 1, 1, 1))
@example((1, 0, 0, 1, 2, 3, 0, 0, 1))
@settings(max_examples=300, deadline=None)
@given(st.tuples(*[st.integers(-2, 2)] * 4, *[st.integers(0, 3)] * 2,
                 st.integers(-2, 2), st.integers(0, 2),
                 st.one_of(st.integers(-2, 2), st.sampled_from((Fraction(1, 2), Fraction(-2))))))
def test_expand_chart_sums_its_two_terms_on_any_tuple(row):
    fx, fy, gx, gy, A, B, p, q, sign = row
    f, g = Monomial(fx, fy), Monomial(gx, gy)
    if p > 0:  # sign * (f^(A+p) g^B - f^A g^(B+q))
        first, second = f ** (A + p) * g ** B, f ** A * g ** (B + q)
    else:  # sign * (f^A g^B - f^(A-p) g^(B+q))
        first, second = f ** A * g ** B, f ** (A - p) * g ** (B + q)
    expected = LaurentPolynomial.monomial(first, sign) - LaurentPolynomial.monomial(second, sign)
    expanded = expand_chart(row)
    assert expanded == expected == LaurentPolynomial(((first, sign), (second, -sign)))
    # the term map holds what the constructor would: exact, nonzero, ints when integral
    assert all(c and type(c) is (int if c.denominator == 1 else Fraction)
               for _, c in expanded.terms())


@settings(max_examples=200, deadline=None)
@given(chart_parts())
def test_a_chart_is_its_nine_ints_by_name(parts):
    basis, exc_f, exc_g, proper, sign = parts
    c = ChartState(*parts)
    assert (c.exc_f, c.exc_g, c.proper, c.sign) == (exc_f, exc_g, proper, sign)
    assert (c.basis.f, c.basis.g) == (basis.f, basis.g)
    assert type(c.basis) is ChartBasis and type(c.proper) is type(proper)
    assert tuple(c) == chart_row(c) and all(type(n) is int for n in c)
    assert ChartState._make(tuple(c)) == c
    assert ChartState(c.basis, c.exc_f, c.exc_g, c.proper, c.sign) == c


def test_charts_copy_and_pickle_as_charts():
    for c in resolve(24, 7).all_charts():
        for twin in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
            assert type(twin) is ChartState and twin == c
            assert (twin.basis.f, twin.basis.g, twin.proper) == (c.basis.f, c.basis.g, c.proper)
    step = resolve(3, 2).steps[0]
    assert pickle.loads(pickle.dumps(step)) == step


def test_chart_state_rejects_negative_multiplicities_and_bad_signs():
    basis = ChartBasis(Y, Monomial(1, -1))
    for exc_f, exc_g in [(-1, 0), (0, -1)]:
        with pytest.raises(ValueError, match="nonnegative"):
            ChartState(basis, exc_f, exc_g, ThroughOrigin(1, 2), 1)
    for sign in (0, 2, -2):
        with pytest.raises(ValueError, match="sign"):
            ChartState(basis, 2, 0, ThroughOrigin(1, 2), sign)


def test_a_rule_leaving_two_unresolved_children_raises(monkeypatch):
    monkeypatch.setattr(resolution, "_kind", lambda row: Classification.CUSP_SINGULAR)
    with pytest.raises(ResolutionInvariantError, match=r"step 1 of \(24, 7\)"):
        resolve(24, 7)


def counting(monkeypatch, name):
    """Replace a function of ``resolution`` by one that records its argument."""
    calls = []
    real = getattr(resolution, name)

    def wrapper(c):
        calls.append(c)
        return real(c)

    monkeypatch.setattr(resolution, name, wrapper)
    return calls


def last_rows(runs):
    """The last row of each run."""
    return [resolution._row_at(start, n - 1) for start, n in runs]


@pytest.mark.parametrize("pair", [(24, 7), (14, 3), (17, 3), (23, 3), (20001, 20000)])
def test_reconstruction_blows_up_the_last_row_of_each_run(monkeypatch, pair):
    trace = resolve(*pair)
    checked = counting(monkeypatch, "_chart_pairs")
    blown = counting(monkeypatch, "blow_up")
    assert verify_reconstruction(trace) is True
    assert blown == last_rows(trace.runs)
    assert checked[0] == trace.runs[0][0]  # the root
    assert len(checked) == 1 + 2 * len(trace.runs)  # and both children of each last row


def test_a_trace_of_no_runs_is_refused_when_built():
    with pytest.raises(ValueError, match="^a resolution trace needs at least one run$"):
        ResolutionTrace(3, 2, ())


@pytest.mark.parametrize("pair, run, extra", [((17, 3), 1, 1), ((23, 3), 1, 1), ((23, 3), 1, 2)])
def test_reconstruction_refuses_a_run_lengthened_past_the_origin_unblown(monkeypatch, pair, run, extra):
    # Lengthened, the run's last row misses the origin, so it has no
    # children: the verdict is False, and no row of the run is blown up.
    runs = list(resolve(*pair).runs)
    start, n = runs[run]
    runs[run] = start, n + extra
    trace = ResolutionTrace(*pair, tuple(runs))
    s, t = start[6], start[7]
    assert s - (n + extra - 1) * t <= 0 < s - (n - 1) * t
    blown = counting(monkeypatch, "blow_up")
    assert verify_reconstruction(trace) is False
    assert blown == last_rows(runs[:run])


def oracle_reconstruction(trace) -> bool:
    """The reconstruction verdict of the oracle expansion of every chart.

    A row that misses the origin has no children, and a tuple that names
    no chart (a basis that is not unimodular, a proper transform that is
    no curve) has no oracle expansion: both fail.
    """
    curve = cusp_polynomial(trace.a, trace.b)
    try:
        return all(oracles.expand_chart(c) == curve for c in trace.all_charts())
    except ValueError:
        return False


def int_reconstruction(trace) -> bool:
    return verify_reconstruction(trace)  # never raises, where the oracles may


def test_the_int_check_agrees_with_the_oracle_expansion_for_a_up_to_60():
    for a in range(3, 61):
        for b in range(2, a):
            if gcd(a, b) == 1:
                trace = resolve(a, b)
                assert verify_reconstruction(trace) is oracle_reconstruction(trace) is True


@st.composite
def corrupted_traces(draw):
    """A trace of one-row runs with one row corrupted: an entry moved by one,
    a sign of 0 or +-2, or a basis (f, f) with p = q, whose two pairs coincide."""
    a, b = draw(oracles.coprime_pairs(500))
    rows = [list(row) for row in resolve(a, b).rows]
    row = rows[draw(st.integers(0, len(rows) - 1))]
    how = draw(st.sampled_from(("entry", "sign", "coincide")))
    if how == "entry":
        row[draw(st.integers(0, 8))] += draw(st.sampled_from((-1, 1)))
    elif how == "sign":
        row[8] = draw(st.sampled_from((0, 2, -2)))
    else:
        row[2:4], row[7] = row[0:2], row[6]
    return oracles.trace_from_rows(a, b, rows)


@example(oracles.trace_from_rows(3, 2, [(1, 0, 1, 0, 0, 0, 1, 1, 1)]))
@example(oracles.trace_from_rows(3, 2, [(1, 0, 0, 1, 0, 0, 2, 3, 2)]))
@settings(max_examples=300, deadline=None)
@given(corrupted_traces())
def test_the_int_check_agrees_with_the_oracle_expansion_on_corrupted_traces(trace):
    assert int_reconstruction(trace) == oracle_reconstruction(trace)


def by_rows(trace) -> bool:
    try:
        return oracles.reconstruction_by_rows(trace)
    except ValueError:
        return False


@settings(max_examples=60, deadline=None)
@given(oracles.coprime_pairs(10**40))
def test_the_run_certificate_agrees_with_blowing_up_every_row_up_to_10_40(pair):
    trace = resolve(*pair)
    assert int_reconstruction(trace) is by_rows(trace) is True


@example(5, "n + 1, n")
@example(5, "n, 2")
@example(7, "n, 3")
@settings(max_examples=30, deadline=None)
@given(st.integers(4, 3000), st.sampled_from(("n + 1, n", "n, 2", "n, 3")))
def test_the_run_certificate_agrees_with_blowing_up_every_row_on_long_branches(n, family):
    a, b = {"n + 1, n": (n + 1, n), "n, 2": (n, 2), "n, 3": (n, 3)}[family]
    assume(gcd(a, b) == 1)
    trace = resolve(a, b)
    assert max(m for _, m in trace.runs) >= n // 3 - 1  # one run of about n, n/2 or n/3 rows
    assert int_reconstruction(trace) is by_rows(trace) is True


@st.composite
def corrupted_runs(draw):
    """A trace with one run of two rows or more corrupted: an entry of its
    first row moved by 1 or 2, its sign set to 0, +-2 or flipped, or its
    length off by one."""
    a, b = draw(oracles.coprime_pairs(10**6))
    runs = list(resolve(a, b).runs)
    long = [i for i, (_, n) in enumerate(runs) if n > 1]
    assume(long)
    i = draw(st.sampled_from(long))
    row, n = list(runs[i][0]), runs[i][1]
    how = draw(st.sampled_from(("entry", "sign", "length")))
    if how == "entry":
        row[draw(st.integers(0, 8))] += draw(st.sampled_from((-2, -1, 1, 2)))
    elif how == "sign":
        row[8] = draw(st.sampled_from((0, 2, -2, -row[8])))
    else:
        n += draw(st.sampled_from((-1, 1)))
    runs[i] = tuple(row), n
    return ResolutionTrace(a, b, tuple(runs))


@example(ResolutionTrace(17, 3, (((1, 0, 0, 1, 0, 0, 3, 17, 1), 1), ((0, 1, 1, -1, 3, 0, 14, 3, -1), 6))))
# a run of no rows, at a chart that misses the origin, holds no chart
@example(ResolutionTrace(3, 2, (((1, 0, 0, 1, 0, 0, 2, 3, 1), 1), ((0, 1, 1, -1, 2, 0, 1, 2, -1), 1),
                                ((1, -1, -1, 2, 3, 2, 1, 1, 1), 1), ((1, -1, -2, 3, 6, 2, 0, 1, 1), 0))))
# the 19,998-row run lengthened by two, to a last row with s = 0
@example(ResolutionTrace(20001, 20000, (((1, 0, 0, 1, 0, 0, 20000, 20001, 1), 1),
                                        ((0, 1, 1, -1, 20000, 0, 1, 20000, -1), 1),
                                        ((1, -1, -1, 2, 20001, 20000, 19999, 1, 1), 20000),
                                        ((1, -1, -19999, 20000, 399999999, 20000, 1, 1, 1), 1))))
@example(ResolutionTrace(23, 3, (((1, 0, 0, 1, 0, 0, 3, 23, 1), 1), ((0, 1, 1, -1, 3, 0, 20, 3, 1), 7))))
@settings(max_examples=300, deadline=None)
@given(corrupted_runs())
def test_the_run_certificate_agrees_with_blowing_up_every_row_on_corrupted_runs(trace):
    assert int_reconstruction(trace) == by_rows(trace)


def test_resolve_steps_each_run_end_with_the_blow_up_rule(monkeypatch):
    stepped = counting(monkeypatch, "_children")
    for (a, b), runs in [((377, 233), 13), ((20001, 20000), 4)]:
        stepped.clear()
        trace = resolve(a, b)
        ends = accumulate(n for _, n in trace.runs)
        assert tuple(stepped) == tuple(trace.rows[i - 1] for i in ends)
        assert len(stepped) == len(trace.runs) == runs


def test_public_rules_take_rows_and_charts_alike():
    trace = resolve(24, 7)
    for row, step in zip(trace.rows, trace.steps):
        first, second = blow_up(row)
        assert (ChartState._make(first), ChartState._make(second)) == blow_up(step.chart)
        assert classify(row) is classify(step.chart) is step.classification
        assert expand_chart(row) == expand_chart(step.chart) == cusp_polynomial(24, 7)
    with pytest.raises(ValueError, match="misses the origin"):
        blow_up(second)


@settings(max_examples=30, deadline=None)
@given(oracles.coprime_pairs(10**40))
def test_blow_up_views_name_the_steps(pair):
    trace = resolve(*pair)
    views = list(oracles.blow_up_views(trace))
    assert len(views) == trace.blow_up_count
    for u, step in zip(views, trace.steps):
        (c1, k1), (c2, k2) = step.children
        assert (u.f, u.g) == (step.chart.basis.f, step.chart.basis.g)
        assert (u.exc_f, u.exc_g, u.sign) == (step.chart.exc_f, step.chart.exc_g, step.chart.sign)
        assert (u.s, u.t) == (step.chart.proper.s, step.chart.proper.t)
        assert (u.kind, u.kinds) == (step.classification, (k1, k2))
        assert (c1.basis.f, c1.basis.g, c2.basis.f, c2.basis.g) == (u.f, u.g_over_f, u.g, u.f_over_g)
        assert u.e == c1.exc_f == c2.exc_f
        unresolved = [i for i, k in enumerate(u.kinds) if k is not Classification.RESOLVED]
        assert u.bad == (unresolved[0] if unresolved else None)
    assert views[-1].bad is None


def test_rows_are_exact_int_tuples_the_collector_stops_tracking():
    # A trace keeps only its runs, (first row, length) pairs; the other rows
    # are built when read.  A pass of the collector untracks a run's row, and
    # the next the pair that holds it.
    trace = resolve(20001, 20000)
    gc.collect()
    gc.collect()
    assert all(type(row) is tuple and len(row) == 9 for row in trace.rows)
    assert all(type(n) is int for row in trace.rows for n in row)
    assert not any(gc.is_tracked(run) or gc.is_tracked(run[0]) for run in trace.runs)


def test_rows_stay_plain_tuples_whichever_child_is_blown_up_next():
    trace = resolve(24, 7)
    assert {u.bad for u in oracles.blow_up_views(trace)} == {0, 1, None}
    assert all(type(row) is tuple for row in trace.rows)


def test_steps_are_built_on_access():
    trace = resolve(24, 7)
    steps = trace.steps
    assert len(steps) == trace.blow_up_count == 8
    assert steps[-1] == steps[7] and steps[0] == next(iter(steps))
    assert steps[2:4] == (steps[2], steps[3])
    assert steps[0] is not steps[0]  # each read builds a fresh step
    with pytest.raises(IndexError):
        steps[8]


@settings(max_examples=60, deadline=None)
@given(oracles.coprime_pairs(10**40))
def test_multiplicity_never_shrinks_down_the_bad_chart_path(pair):
    # A child's multiplicity exc_f + exc_g + min(s, t) is the largest of its
    # blow-up; the CLI's check for integers too long to print looks only at
    # the last blow-up.
    largest = 0
    for step in resolve(*pair).steps:
        here = max(n for child, _ in step.children for n in (child.exc_f, child.exc_g))
        assert here >= max(step.chart.exc_f, step.chart.exc_g)
        assert here >= largest
        largest = here


@pytest.mark.parametrize("pair", [(24, 7), (377, 233), "random"])
def test_every_chart_expands_to_the_curve_in_sympy(pair):
    sympy = pytest.importorskip("sympy")
    if pair == "random":
        rng = random.Random(6)
        pair = oracles.last_convergent([rng.randint(1, 20) for _ in range(40)], 10**6 - 1)
    a, b = pair
    x, y = sympy.symbols("x y")
    curve = x**b - y**a
    for c in resolve(a, b).all_charts():
        f = x**c.basis.f.ex * y**c.basis.f.ey
        g = x**c.basis.g.ex * y**c.basis.g.ey
        if isinstance(c.proper, ThroughOrigin):
            proper = f**c.proper.s - g**c.proper.t
        else:
            proper = 1 - f**c.proper.f_exp * g**c.proper.g_exp
        assert sympy.expand(c.sign * f**c.exc_f * g**c.exc_g * proper - curve) == 0
