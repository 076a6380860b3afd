import random
from fractions import Fraction
from math import gcd

import pytest

import monoval
from monoval.exactnum import cf_expand, euclid_digits, sqrt2_stream
from monoval.laurent import (
    IDENTITY_BASIS,
    ChartBasis,
    LaurentPolynomial,
    Monomial,
    X,
    Y,
    expand_from_chart,
    lattice_solve,
    rewrite_in_chart,
)
from monoval.valtree import (
    Branch,
    CorrespondenceReport,
    PositivePath,
    ROOT,
    TreeVertex,
    _pair_path,
    branch_decomposition,
    cf_correspondence_check,
    children,
    correspondence_report,
    lex_valuation_from_tail,
    positive_child,
    positive_path,
    walk_runs,
)
from monoval.valuation import MonomialValuation, Value

import oracles


def vert(fx, fy, gx, gy):
    return TreeVertex(Monomial(fx, fy), Monomial(gx, gy))


# the two reference paths, vertex by vertex
PATH_3_2 = (
    vert(1, 0, 0, 1),      # k[x, y]
    vert(0, 1, 1, -1),     # k[y, x/y]
    vert(1, -1, -1, 2),    # k[x/y, y^2/x]
)
PATH_24_7 = (
    vert(1, 0, 0, 1),      # k[x, y]
    vert(0, 1, 1, -1),     # k[y, x/y]
    vert(0, 1, 1, -2),     # k[y, x/y^2]
    vert(0, 1, 1, -3),     # k[y, x/y^3]
    vert(1, -3, -1, 4),    # k[x/y^3, y^4/x]
    vert(1, -3, -2, 7),    # k[x/y^3, y^7/x^2]
    vert(-2, 7, 3, -10),   # k[y^7/x^2, x^3/y^10]
    vert(-2, 7, 5, -17),   # k[y^7/x^2, x^5/y^17]
)


def test_vertex_identity_ignores_order():
    assert vert(1, 0, 0, 1) == vert(0, 1, 1, 0)
    assert hash(vert(1, 0, 0, 1)) == hash(vert(0, 1, 1, 0))
    assert vert(1, 0, 0, 1) != vert(0, 1, 1, -1)
    with pytest.raises(ValueError):
        TreeVertex(X, Monomial(2, 0))


def test_children_first_levels():
    c1, c2 = children(ROOT)
    assert c1 == vert(1, 0, -1, 1)   # k[x, y/x]
    assert c2 == vert(0, 1, 1, -1)   # k[y, x/y]
    d1, d2 = children(vert(0, 1, 1, -1))
    assert d1 == vert(0, 1, 1, -2)   # k[y, x/y^2]
    assert d2 == vert(1, -1, -1, 2)  # k[x/y, y^2/x]


def test_positive_child_known():
    nu = MonomialValuation.rational(3, 2)
    assert positive_child(nu, ROOT) == vert(0, 1, 1, -1)
    assert positive_child(nu, vert(1, -1, -1, 2)) is None  # values tie at 1
    nu24 = MonomialValuation.rational(24, 7)
    assert positive_child(nu24, vert(0, 1, 1, -3)) == vert(1, -3, -1, 4)
    # k[y, x/y^2] and k[x/y^2, y] are not positive under (3, 2): nu(x/y^2) = -1
    for v in (vert(0, 1, 1, -2), vert(1, -2, 0, 1)):
        with pytest.raises(ValueError):
            positive_child(nu, v)


def test_positive_path_ground_truth():
    nu = MonomialValuation.rational(3, 2)
    path = positive_path(nu, max_steps=64)
    assert path.complete
    assert path.vertices == PATH_3_2
    path24 = positive_path(MonomialValuation.rational(24, 7), max_steps=64)
    assert path24.complete
    assert path24.vertices == PATH_24_7


def test_positive_path_stream_truncates():
    nu = MonomialValuation.from_stream(sqrt2_stream())
    path = positive_path(nu, max_steps=10)
    assert not path.complete
    assert len(path) == 10
    assert path.status == "truncated"


def test_positive_path_budget_edge_cases():
    nu = MonomialValuation.rational(24, 7)
    # exactly enough budget: the path completes right at the cap
    assert positive_path(nu, max_steps=8).complete
    short = positive_path(nu, max_steps=5)
    assert not short.complete and len(short) == 5
    with pytest.raises(ValueError):
        positive_path(nu, max_steps=0)
    with pytest.raises(ValueError):
        positive_path(MonomialValuation.rational(2, 2), max_steps=4)


def test_take_path_asks_for_one_vertex_past_the_budget():
    vertices, complete = oracles.bracket_walk(MonomialValuation.rational(24, 7), 64)
    vertices = tuple(vertices)
    assert complete and len(vertices) == 8
    assert oracles.take_path(iter(vertices), 8) == PositivePath(vertices, complete=True)
    assert oracles.take_path(iter(vertices), 7) == PositivePath(vertices[:7], complete=False)
    assert oracles.take_path(iter(vertices), 2**70) == PositivePath(vertices, complete=True)
    with pytest.raises(ValueError, match="max_steps"):
        oracles.take_path(iter(vertices), 0)


def test_walk_refuses_valuations_without_a_path():
    with pytest.raises(ValueError, match="degenerate"):
        next(walk_runs(MonomialValuation.rational(5, 5)))
    with pytest.raises(ValueError, match="not positive"):
        next(walk_runs(MonomialValuation.lex((-1, 0), (1, 0))))


def test_branch_decomposition_known():
    path24 = positive_path(MonomialValuation.rational(24, 7), max_steps=64)
    branches = branch_decomposition(path24)
    assert tuple(br.length for br in branches) == (3, 2, 2)
    assert branches[0] == Branch(Y, X, 3)
    assert branches[1] == Branch(Monomial(1, -3), Y, 2)
    assert branches[2] == Branch(Monomial(-2, 7), Monomial(1, -3), 2)

    path32 = positive_path(MonomialValuation.rational(3, 2), max_steps=64)
    assert tuple(br.length for br in branch_decomposition(path32)) == (1, 1)

    # integer ratio 5: single branch of length 4 (walk stops at m = 4)
    path51 = positive_path(MonomialValuation.rational(5, 1), max_steps=64)
    branches51 = branch_decomposition(path51)
    assert len(branches51) == 1
    assert branches51[0] == Branch(Y, X, 4)

    with pytest.raises(ValueError):
        branch_decomposition(PositivePath((ROOT,), True))


def test_cf_correspondence_known():
    r = cf_correspondence_check(24, 7)
    assert r.match and r.branch_lengths == (3, 2, 2) and r.cf_digits == (3, 2, 3)
    r = cf_correspondence_check(3, 2)
    assert r.match and r.branch_lengths == (1, 1)
    r = cf_correspondence_check(5, 1)
    assert r.match and r.branch_lengths == (4,)
    with pytest.raises(ValueError):
        cf_correspondence_check(4, 2)
    with pytest.raises(ValueError):
        cf_correspondence_check(2, 3)


def test_cf_correspondence_sweep_to_100():
    for a in range(2, 101):
        for b in range(1, a):
            if gcd(a, b) == 1:
                assert cf_correspondence_check(a, b).match, (a, b)


def test_euclid_quotients_are_the_digits_of_the_fraction_at_any_scale():
    for a in range(2, 61):
        for b in range(1, a):
            digits = cf_expand(Fraction(a, b)).digits
            for k in range(1, 6):
                assert tuple(euclid_digits(k * a, k * b)) == digits, (k, a, b)


def test_correspondence_report_equals_the_record_built_from_the_expansion():
    for a in range(2, 61):
        for b in range(1, a):
            if gcd(a, b) == 1:
                path = _pair_path(a, b)
                lengths = tuple(br.length for br in oracles.branch_decomposition(path))
                digits = cf_expand(Fraction(a, b)).digits
                expected = digits[:-1] + (digits[-1] - 1,)
                report = CorrespondenceReport(a, b, lengths, digits, expected, lengths == expected)
                assert correspondence_report(a, b, path) == report, (a, b)


def test_branches_do_not_depend_on_the_order_of_a_vertex_s_generators():
    for a in range(2, 25):
        for b in range(1, a):
            if gcd(a, b) != 1:
                continue
            path = positive_path(MonomialValuation.rational(a, b), max_steps=a + b)
            branches = branch_decomposition(path)
            report = correspondence_report(a, b, path)
            vertices = list(path.vertices)
            flipped = [TreeVertex(v.g, v.f) for v in vertices]
            for i in range(len(vertices)):
                for other in (vertices[:i] + flipped[i:i + 1] + vertices[i + 1:],
                              flipped[:i] + vertices[i:i + 1] + flipped[i + 1:]):
                    other = PositivePath(other, complete=True)
                    assert branch_decomposition(other) == branches, (a, b, i)
                    assert correspondence_report(a, b, other) == report, (a, b, i)


def _value_pairs_along_path(a, b):
    nu = MonomialValuation.rational(a, b)
    path = positive_path(nu, max_steps=a + b)
    assert path.complete
    realize = nu.group.realize
    return path, [
        (realize(nu(v.f)), realize(nu(v.g))) for v in path.vertices
    ]


def test_subtractive_euclid_invariant():
    for a, b in [(3, 2), (24, 7), (9, 5), (13, 8), (17, 4)]:
        path, pairs = _value_pairs_along_path(a, b)
        for (p1, p2), (n1, n2) in zip(pairs, pairs[1:]):
            hi, lo = max(p1, p2), min(p1, p2)
            assert {n1, n2} == {lo, hi - lo}
        assert pairs[-1] == (1, 1)


def test_path_vertex_count_is_digit_sum():
    for a in range(3, 60):
        for b in range(2, a):
            if gcd(a, b) != 1:
                continue
            path = positive_path(MonomialValuation.rational(a, b), max_steps=a + b)
            assert len(path) == cf_expand(Fraction(a, b)).digit_sum(), (a, b)


def test_exactly_one_positive_child():
    for a, b in [(3, 2), (24, 7), (11, 4)]:
        nu = MonomialValuation.rational(a, b)
        path = positive_path(nu, max_steps=a + b)
        for v in path.vertices[:-1]:
            kids = children(v)
            positive = [
                k
                for k in kids
                if nu.is_positive(k.f) and nu.is_positive(k.g)
            ]
            assert len(positive) == 1
            assert positive[0] == positive_child(nu, v)
        # terminal vertex: equal values, no positive child
        last = path.vertices[-1]
        assert positive_child(nu, last) is None


def test_ascending_chain():
    # each vertex ring contains its predecessor: the parent's generators
    # have nonnegative coordinates in the child basis
    for a, b in [(3, 2), (24, 7), (13, 5)]:
        path = positive_path(MonomialValuation.rational(a, b), max_steps=a + b)
        for prev, cur in zip(path.vertices, path.vertices[1:]):
            for gen in prev.generators:
                alpha, beta = lattice_solve(gen, cur)
                assert alpha >= 0 and beta >= 0


def test_unimodularity_preserved():
    # children of any unimodular vertex are unimodular by construction;
    # TreeVertex would raise otherwise, so a deep walk is the test
    path = positive_path(MonomialValuation.rational(89, 55), max_steps=200)
    assert path.complete
    for v in path.vertices:
        det = v.f.ex * v.g.ey - v.g.ex * v.f.ey
        assert abs(det) == 1


def test_lex_valuation_from_tail_examples():
    nu = lex_valuation_from_tail(Y, X)
    assert nu.group.realize(Value(1, 0)) == (1, 0)  # nu(x)
    assert nu.group.realize(Value(0, 1)) == (0, 1)  # nu(y)

    f, g = Monomial(1, -1), Monomial(-1, 2)
    nu = lex_valuation_from_tail(f, g)
    assert nu.group.realize(nu(f)) == (0, 1)
    assert nu.group.realize(nu(g)) == (1, 0)

    # every tail vertex k[f, g/f^t] is positive and on the path
    for t in range(1, 51):
        tail = TreeVertex(f, g / f ** t)
        assert nu.is_positive(tail.f) and nu.is_positive(tail.g)
    path = positive_path(nu, max_steps=53)
    assert not path.complete
    for t in range(0, 51):
        assert TreeVertex(f, g / f ** t) in path.vertices

    with pytest.raises(ValueError):
        lex_valuation_from_tail(X, Monomial(2, 0))


def test_tree_vertex_is_the_chart_basis():
    assert TreeVertex is ChartBasis
    assert monoval.TreeVertex is monoval.ChartBasis is ChartBasis
    assert ROOT is IDENTITY_BASIS
    v = vert(1, -1, -1, 2)
    assert (v.f, v.g) == (Monomial(1, -1), Monomial(-1, 2))  # order kept
    assert v.det == 1 and vert(-1, 2, 1, -1).det == -1
    assert str(v) == "k[x/y, y^2/x]"


def test_path_vertex_is_a_chart_basis():
    # a path vertex goes straight into the chart functions, no conversion
    path = positive_path(MonomialValuation.rational(24, 7), max_steps=31)
    curve = LaurentPolynomial({Monomial(7, 0): 1, Monomial(0, 24): -1})
    for v in path:
        alpha, beta = lattice_solve(X, v)
        assert v.f ** alpha * v.g ** beta == X
        assert expand_from_chart(rewrite_in_chart(curve, v), v) == curve


def _largest_exponent(v):
    return max(abs(e) for e in (v.f.ex, v.f.ey, v.g.ex, v.g.ey))


def test_largest_exponent_never_shrinks_down_the_tree():
    # Below the root the two generators have exponents of opposite signs,
    # so a child's largest exponent is at least its parent's; the CLI's
    # check for exponents too long to print looks only at a path's end.
    rng = random.Random(5)
    for _ in range(200):
        v = ROOT
        for _ in range(rng.randint(1, 60)):
            child = children(v)[rng.randint(0, 1)]
            assert _largest_exponent(child) >= _largest_exponent(v)
            v = child
