from math import gcd

import pytest

from monoval.laurent import ChartBasis, Monomial, X, Y
from monoval.resolution import (
    ChartState,
    Classification,
    MissesOrigin,
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
    verify_reconstruction,
)
from monoval.valtree import ROOT, TreeVertex

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
    assert initial_chart(3, 2).basis is ROOT


def test_bad_charts_are_the_path_vertices():
    # the bad-chart path holds the charts' own bases, in order
    trace = resolve(24, 7)
    path = bad_vertex_path(trace)
    assert all(v is step.chart.basis for v, step in zip(path, trace.steps))
