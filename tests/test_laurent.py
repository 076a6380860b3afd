import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from monoval.exactnum import CFStream, cf_expand
from monoval.laurent import (
    ChartBasis,
    IDENTITY_BASIS,
    LaurentPolynomial,
    Monomial,
    RationalFunction,
    UNIT,
    X,
    Y,
    ZeroPolynomialError,
    expand_from_chart,
    factor_monomial_content,
    lattice_solve,
    monomial_names,
    path_names,
    rewrite_in_chart,
)
from monoval import laurent
from monoval.resolution import bad_vertex_path, resolve
from monoval.valtree import PositivePath, positive_path
from monoval.valuation import MonomialValuation, Value

import oracles
from oracles import MonomialTerms, monomial_name, random_polynomial


def poly(d):
    return LaurentPolynomial(d)


# -- monomials ---------------------------------------------------------------


def test_monomial_combine():
    assert Monomial(1, 1) * Monomial(-1, 0) == Y
    assert X / Y == Monomial(1, -1)
    assert Monomial(-2, 3) * Monomial(1, -1) ** 3 == X
    assert Monomial(2, -3) ** 2 == Monomial(4, -6)
    assert Monomial(2, -3).inverse() == Monomial(-2, 3)
    assert UNIT.is_unit and not X.is_unit


@pytest.mark.parametrize(
    "mono, text",
    [
        (UNIT, "1"),
        (X, "x"),
        (Monomial(1, -1), "x/y"),
        (Monomial(-2, 3), "y^3/x^2"),
        (Monomial(2, 3), "x^2*y^3"),
        (Monomial(-1, -2), "1/(x*y^2)"),
        (Monomial(0, -1), "1/y"),
        (Monomial(5, -17), "x^5/y^17"),
    ],
)
def test_monomial_str(mono, text):
    assert str(mono) == text


SMALL_EXPONENTS = (-2, -1, 0, 1, 3)


@pytest.mark.parametrize("ex", SMALL_EXPONENTS)
@pytest.mark.parametrize("ey", SMALL_EXPONENTS)
def test_monomial_and_its_inverse_are_named_in_fraction_form(ex, ey):
    # every sign pattern, with the exponents 0 and +-1 that print no power
    assert str(Monomial(ex, ey)) == monomial_name(ex, ey)
    assert monomial_names(ex, ey) == (monomial_name(ex, ey), monomial_name(-ex, -ey))


huge_exponents = st.one_of(st.sampled_from((0, 1, -1)), st.integers(-(10**400), 10**400))


@given(huge_exponents, huge_exponents)
@settings(max_examples=200)
def test_monomial_names_are_str_of_the_monomial_and_its_inverse(ex, ey):
    names = monomial_names(ex, ey)
    assert names == (str(Monomial(ex, ey)), str(Monomial(-ex, -ey)))
    assert names[0] == monomial_name(ex, ey)


# -- a run's names, a stretch at a time --------------------------------------


def stretch_names(fx, fy, gx, gy, start, stop, inverses: bool) -> list:
    """``_stretch_names``' lists joined in order: the names, or (name, inverse) pairs when ``inverses``."""
    out = []
    for stretch in laurent._stretch_names(fx, fy, gx, gy, start, stop, inverses):
        if inverses:
            names, inverses_ = stretch
            assert type(names) is type(inverses_) is list and len(names) == len(inverses_) > 0
            out.extend(zip(names, inverses_))
        else:
            assert type(stretch) is list and stretch
            out.extend(stretch)
    return out


def assert_run_named_as_each_monomial(fx, fy, gx, gy, start, stop):
    """The stretch kernel names g/f^j as ``monomial_names`` and ``monomial_name`` do, at every j."""
    exponents = [(gx - j * fx, gy - j * fy) for j in range(start, stop)]
    assert stretch_names(fx, fy, gx, gy, start, stop, True) == [monomial_names(*e) for e in exponents]
    assert stretch_names(fx, fy, gx, gy, start, stop, False) == [monomial_name(*e) for e in exponents]


# Slopes of a run's f, and g near where an exponent crosses -1, 0 and 1 inside it.
slopes = st.integers(-4, 4)


@example(1, 0, 5, 1, 0, 12)  # x^5*y, ..., x*y, y, y/x, ...: crosses 1, 0 and -1; y constant at 1
@example(2, -1, 5, -3, 0, 8)  # x^5, x^3, x, 1/x: skips 0; y's exponent crosses 0
@example(5, 3, 12, -7, 0, 6)  # x's exponent 12, 7, 2, -3: changes sign and skips -1, 0 and 1
@example(1, 0, 5, 1, 0, 40)  # the same three, as runs long enough to be cut
@example(2, -1, 5, -3, 0, 40)
@example(5, 3, 12, -7, 0, 40)
@example(0, 1, -1, 4, 0, 9)  # x's exponent constant at -1
@example(0, 0, 2, -1, 3, 7)  # no slope: one name throughout
@given(slopes, slopes, st.integers(-40, 40), st.integers(-40, 40), st.integers(-3, 3), st.integers(0, 40))
@settings(max_examples=300)
def test_a_run_is_named_as_its_monomials_with_small_slopes(fx, fy, gx, gy, start, length):
    assert_run_named_as_each_monomial(fx, fy, gx, gy, start, start + length)


BIG = 10**300


@example(1, -1, BIG + 5, -BIG, 10)
@example(BIG // 10, 1, BIG + 1, 3, 14)  # x's exponent crosses 1 at j = 10
@given(st.one_of(slopes, st.integers(-BIG, BIG)), st.one_of(slopes, st.integers(-BIG, BIG)),
       st.integers(-BIG - 50, -BIG + 50) | st.integers(BIG - 50, BIG + 50) | st.integers(-50, 50),
       st.integers(-BIG - 50, -BIG + 50) | st.integers(BIG - 50, BIG + 50), st.integers(0, 60))
@settings(max_examples=100)
def test_a_run_is_named_as_its_monomials_near_10_300(fx, fy, gx, gy, length):
    assert_run_named_as_each_monomial(fx, fy, gx, gy, 0, length)


CAP = laurent._STRETCH
SHORT_RUN = laurent._SHORT_RUN  # shorter runs and pieces are named a row at a time


@pytest.mark.parametrize("length", (1, SHORT_RUN - 1, SHORT_RUN, SHORT_RUN + 1, CAP - 1, CAP, CAP + 1, 2 * CAP + 3))
@pytest.mark.parametrize("fx, fy, gx, gy", [
    (1, -1, -1, 2),  # the run of a thin pair, y^(j + 2)/x^(j + 1)
    (0, 1, 1, -1),  # x/y^(j + 1): x's exponent constant at 1
    (1, 0, 3, 1),  # x's exponent crosses 1, 0 and -1 at j = 2 to 4, inside a short run
    (1, 0, CAP, 1),  # x's exponent crosses 0 at j = CAP, where the first stretch would end
    (-1, 1, -CAP - 1, CAP + 2),  # both cross 0 past the first stretch
    (3, -2, 2 * CAP, -5),
])
def test_a_run_is_named_as_its_monomials_past_the_stretch_cap_and_the_short_run_cut(fx, fy, gx, gy, length):
    assert_run_named_as_each_monomial(fx, fy, gx, gy, 0, length)
    assert_run_named_as_each_monomial(fx, fy, gx, gy, 5, 5 + length)


def test_a_stretch_holds_at_most_the_cap():
    lengths = [len(names) for names, _ in laurent._stretch_names(1, -1, -1, 2, 1, 3 * CAP + 2, True)]
    assert lengths == [CAP, CAP, CAP, 1]
    # 1/x^j from j = -2: x^2, x, 1, 1/x, then 1/x^2 to 1/x^39 in one shape
    stretches = list(laurent._stretch_names(1, 0, 0, 0, -2, 40, False))
    assert stretches[:4] == [["x^2"], ["x"], ["1"], ["1/x"]]
    assert stretches[4:] == [[f"1/x^{e}" for e in range(2, 40)]]


@pytest.mark.parametrize("inverses", [True, False])
def test_a_run_shorter_than_the_short_run_cut_is_named_a_row_at_a_time_in_one_list(inverses):
    # 1/x^j from j = -2 to SHORT_RUN - 4, SHORT_RUN - 1 of them: the cuts at j = -1, 0, 1 and 2 are not made
    js = range(-2, SHORT_RUN - 3)
    names, inverses_ = [monomial_name(-j, 0) for j in js], [monomial_name(j, 0) for j in js]
    stretches = list(laurent._stretch_names(1, 0, 0, 0, -2, SHORT_RUN - 3, inverses))
    assert stretches == ([(names, inverses_)] if inverses else [names])
    # one more j, and the run is cut there
    assert len(list(laurent._stretch_names(1, 0, 0, 0, -2, SHORT_RUN - 2, inverses))) == 5


def vertex_names(path) -> list[tuple[str, str]]:
    return [(str(v.f), str(v.g)) for v in path]


# A thin pair (3b + 1, b) has one long run of b - 2 bad charts: here
# _SHORT_RUN - 1, _SHORT_RUN, _SHORT_RUN + 1 and _STRETCH + 1 of them.
# The wide pair's 35 runs are all shorter than _SHORT_RUN.
@pytest.mark.parametrize("pair, longest", [
    *(((3 * n + 7, n + 2), n) for n in (SHORT_RUN - 1, SHORT_RUN, SHORT_RUN + 1, CAP + 1)),
    ((488032046811688643031, 127468235891474990090), 9),
])
def test_path_names_names_a_trace_s_runs_as_its_bad_vertex_path(pair, longest):
    trace = resolve(*pair)
    assert max(n for _, n in trace.runs) == longest
    path = bad_vertex_path(trace)
    assert list(path_names(trace.runs)) == vertex_names(path) == list(path_names(path.runs))


def test_path_names_names_a_path_of_one_run_per_vertex_and_the_empty_path():
    nu = MonomialValuation.from_stream(CFStream.from_periodic([1], [1]))
    path = positive_path(nu, max_steps=200)
    assert len(path.runs) == path.count == 200
    assert list(path_names(path.runs)) == vertex_names(path)
    assert list(path_names(PositivePath((), complete=True).runs)) == [] == list(path_names(()))


# -- polynomials -------------------------------------------------------------


def test_polynomial_basics():
    p = poly({(2, 0): 1, (0, 3): -1})
    assert not p.is_zero
    assert p.coefficient(Monomial(2, 0)) == 1
    assert p.coefficient(Monomial(1, 1)) == 0
    assert len(p) == 2
    assert poly({}).is_zero
    assert poly({(1, 1): Fraction(1, 2), (1, 1): Fraction(1, 2)}) == poly(
        {(1, 1): Fraction(1, 2)}
    )
    # zero coefficients are dropped, including after cancellation
    assert (p - p).is_zero
    assert poly({(0, 0): 0}).is_zero


def test_coefficient_reads_a_monomial_or_a_pair():
    p = poly({(1, 0): 1, Monomial(-2, 3): Fraction(1, 2)})
    assert p.coefficient(X) == p.coefficient((1, 0)) == 1
    assert p.coefficient(Monomial(-2, 3)) == p.coefficient((-2, 3)) == Fraction(1, 2)
    assert p.coefficient([-2, 3]) == Fraction(1, 2)
    assert p.coefficient(Y) == p.coefficient((0, 1)) == 0  # absent


def test_polynomial_arithmetic():
    p = poly({(1, 0): 1, (0, 1): 1})  # x + y
    q = poly({(1, 0): 1, (0, 1): -1})  # x - y
    assert p * q == poly({(2, 0): 1, (0, 2): -1})
    assert p + q == poly({(1, 0): 2})
    assert p ** 2 == poly({(2, 0): 1, (1, 1): 2, (0, 2): 1})
    assert p ** 0 == LaurentPolynomial.constant(1)
    assert 3 * p == poly({(1, 0): 3, (0, 1): 3})
    assert 0 * p == LaurentPolynomial.zero()
    with pytest.raises(ValueError):
        p ** -1


def test_polynomial_str_is_deterministic():
    p = poly({(2, 0): 1, (0, 3): -1, (1, 1): Fraction(3, 2)})
    assert str(p) == "-y^3 + 3/2*x*y + x^2"
    assert str(LaurentPolynomial.zero()) == "0"
    assert str(poly({(0, 0): -5})) == "-5"


# -- lattice solves and chart rewrites ---------------------------------------


def test_lattice_solve_known():
    basis = ChartBasis(Monomial(-2, 3), Monomial(1, -1))  # (y^3/x^2, x/y)
    assert lattice_solve(X, basis) == (1, 3)
    assert lattice_solve(Y, basis) == (1, 2)
    assert lattice_solve(basis.f, basis) == (1, 0)
    assert lattice_solve(basis.g, basis) == (0, 1)
    # rebuild via monomial arithmetic
    a, b = lattice_solve(Y, basis)
    assert basis.f ** a * basis.g ** b == Y


def test_non_unimodular_rejected():
    with pytest.raises(ValueError):
        ChartBasis(X, Monomial(2, 0))
    with pytest.raises(ValueError):
        ChartBasis(Monomial(1, 1), Monomial(1, 1))


def _random_unimodular_basis(rng):
    # random product of elementary column operations applied to (x, y)
    f, g = X, Y
    for _ in range(rng.randint(0, 8)):
        k = rng.randint(-2, 2)
        if rng.random() < 0.5:
            f = f * g ** k
        else:
            g = g * f ** k
        if rng.random() < 0.2:
            f, g = g, f
    return ChartBasis(f, g)


def test_lattice_solve_round_trip_random():
    rng = random.Random(11)
    for _ in range(300):
        basis = _random_unimodular_basis(rng)
        target = Monomial(rng.randint(-30, 30), rng.randint(-30, 30))
        a, b = lattice_solve(target, basis)
        assert basis.f ** a * basis.g ** b == target


def test_rewrite_in_chart_known():
    # x^2 - y^3 in the chart (y, x/y)
    basis = ChartBasis(Y, Monomial(1, -1))
    p = poly({(2, 0): 1, (0, 3): -1})
    assert rewrite_in_chart(p, basis) == poly({(2, 2): 1, (3, 0): -1})
    # identity chart leaves everything alone
    assert rewrite_in_chart(p, IDENTITY_BASIS) == p
    # x in the chart (y^3/x^2, x/y)
    basis2 = ChartBasis(Monomial(-2, 3), Monomial(1, -1))
    assert rewrite_in_chart(LaurentPolynomial.monomial(X), basis2) == poly({(1, 3): 1})


def test_rewrite_is_ring_isomorphism_random():
    rng = random.Random(23)
    for _ in range(120):
        basis = _random_unimodular_basis(rng)
        p = random_polynomial(rng, max_degree=4, laurent=True)
        q = random_polynomial(rng, max_degree=4, laurent=True)
        assert rewrite_in_chart(p * q, basis) == rewrite_in_chart(p, basis) * rewrite_in_chart(q, basis)
        assert rewrite_in_chart(p + q, basis) == rewrite_in_chart(p, basis) + rewrite_in_chart(q, basis)
        assert expand_from_chart(rewrite_in_chart(p, basis), basis) == p


def test_factor_monomial_content():
    # y^2 w^2 - y^3 in coordinates (w, y)
    p = poly({(2, 2): 1, (0, 3): -1})
    content, primitive = factor_monomial_content(p)
    assert content == Monomial(0, 2)
    assert primitive == poly({(2, 0): 1, (0, 1): -1})
    # trivial content
    content, primitive = factor_monomial_content(poly({(1, 0): 1, (0, 1): -1}))
    assert content == UNIT
    # x^6 y^2 (x - 1), expanded then re-factored
    p = poly({(6, 2): 1}) * poly({(1, 0): 1, (0, 0): -1})
    content, primitive = factor_monomial_content(p)
    assert content == Monomial(6, 2)
    assert primitive == poly({(1, 0): 1, (0, 0): -1})
    with pytest.raises(ZeroPolynomialError):
        factor_monomial_content(LaurentPolynomial.zero())


def test_the_zero_polynomial_has_no_least_exponents():
    with pytest.raises(ZeroPolynomialError) as err:
        LaurentPolynomial().min_exponents()
    assert str(err.value) == "zero polynomial has no exponents"


def test_factor_content_reassembles_random():
    rng = random.Random(5)
    for _ in range(200):
        p = random_polynomial(rng, max_degree=5, laurent=True)
        content, primitive = factor_monomial_content(p)
        assert primitive.shift(content) == p
        assert primitive.min_exponents() == (0, 0)


# -- rational functions ------------------------------------------------------


def test_rational_function_equality_cross_multiplies():
    x = LaurentPolynomial.monomial(X)
    y = LaurentPolynomial.monomial(Y)
    h = poly({(1, 1): 2, (0, 0): 1})
    assert RationalFunction(x * h, y * h) == RationalFunction(x, y)
    assert RationalFunction(x, y) != RationalFunction(y, x)


def test_rational_function_arithmetic():
    x = RationalFunction.from_monomial(X)
    y = RationalFunction.from_monomial(Y)
    one = RationalFunction.constant(1)
    assert (x / y) * (y / x) == one
    assert x + (-x) == RationalFunction.constant(0)
    assert (x / y) ** -2 == (y / x) ** 2
    with pytest.raises(ZeroDivisionError):
        x / RationalFunction.constant(0)
    with pytest.raises(ZeroDivisionError):
        RationalFunction(LaurentPolynomial.monomial(X), LaurentPolynomial.zero())


def test_the_zero_rational_function_has_no_negative_powers():
    with pytest.raises(ZeroDivisionError) as err:
        RationalFunction(LaurentPolynomial()) ** -1
    assert str(err.value) == "cannot invert the zero rational function"


def test_rational_function_difference():
    x = RationalFunction.from_monomial(X)
    y = RationalFunction.from_monomial(Y)
    assert x - y == RationalFunction(poly({(1, 0): 1, (0, 1): -1}))
    assert x / y - y / x == RationalFunction(poly({(2, 0): 1, (0, 2): -1}), poly({(1, 1): 1}))
    assert (x - x).is_zero


# -- lean representation -----------------------------------------------------

exponents = st.integers(-(10**30), 10**30)


@given(exponents, exponents)
@settings(max_examples=200)
def test_monomial_value_semantics(ex, ey):
    m1, m2 = Monomial(ex, ey), Monomial(ex, ey)
    assert m1 == m2 and hash(m1) == hash(m2)
    assert repr(m1) == f"Monomial(ex={ex!r}, ey={ey!r})"
    assert m1 != (ex, ey) and (ex, ey) != m1
    assert m1 != Monomial(ex + 1, ey) and m1 != Monomial(ex, ey - 1)
    assert {m1: 1}[m2] == 1


def test_monomial_is_immutable():
    import copy
    import pickle

    m = Monomial(2, -3)
    with pytest.raises(AttributeError):
        m.ex = 5
    with pytest.raises(AttributeError):
        del m.ey
    assert (m.ex, m.ey) == (2, -3)
    assert pickle.loads(pickle.dumps(m)) == m
    assert copy.copy(m) == m and copy.deepcopy(m) == m
    assert Monomial(1, 0) != (1, 0)


small_terms = st.dictionaries(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    st.integers(-(10**20), 10**20),
    max_size=6,
)


@given(small_terms, small_terms)
@settings(max_examples=200)
def test_int_and_fraction_coefficients_agree(d1, d2):
    p_int, q_int = poly(d1), poly(d2)
    p_frac = poly({k: Fraction(v) for k, v in d1.items()})
    q_frac = poly({k: Fraction(v * 6, 6) for k, v in d2.items()})
    for left, right in [
        (p_int, p_frac),
        (q_int, q_frac),
        (p_int * q_int, p_frac * q_frac),
        (p_int + q_int, p_frac + q_frac),
        (p_int - q_int, p_frac - q_frac),
        (p_int.shift(Monomial(2, -1)), p_frac.shift(Monomial(2, -1))),
        (3 * p_int, Fraction(3) * p_frac),
    ]:
        assert left == right
        assert str(left) == str(right)
        assert repr(left) == repr(right)


def test_integral_fractions_are_stored_as_int():
    half = poly({(1, 0): Fraction(1, 2)})
    whole = half + half
    assert whole == poly({(1, 0): 1})
    assert type(whole.coefficient(X)) is int
    assert type((2 * half).coefficient(X)) is int
    assert type((half * poly({(0, 0): 2})).coefficient(X)) is int
    assert type(poly({(0, 1): Fraction(4, 2)}).coefficient(Y)) is int
    assert type(LaurentPolynomial.constant(Fraction(6, 3)).coefficient(UNIT)) is int
    assert type(half.coefficient(X)) is Fraction
    assert repr(whole) == "LaurentPolynomial({Monomial(ex=1, ey=0): 1})"
    assert LaurentPolynomial.constant(0).is_zero and LaurentPolynomial.monomial(X, 0).is_zero


# -- term maps keyed by exponent pairs, against the Monomial-keyed oracle -----

small_exponents = st.integers(-3, 3)
coefficients = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


def _key(ex, ey, form):
    return {"monomial": Monomial(ex, ey), "tuple": (ex, ey), "list": [ex, ey]}[form]


@st.composite
def keyed_items(draw):
    """Terms keyed by a Monomial, a tuple or a list; some repeated with the opposite sign."""
    terms = st.tuples(small_exponents, small_exponents, coefficients)
    items = draw(st.lists(terms, max_size=6))
    cancelled = [(ex, ey, -c) for ex, ey, c in items if draw(st.booleans())]
    forms = st.sampled_from(("monomial", "tuple", "list"))
    return [(_key(ex, ey, draw(forms)), c) for ex, ey, c in items + cancelled]


def oracle_of(items) -> MonomialTerms:
    """The items summed one ``Monomial``-keyed term at a time."""
    total = MonomialTerms({})
    for key, c in items:
        mono = key if isinstance(key, Monomial) else Monomial(*key)
        total = total + MonomialTerms({mono: c} if c else {})
    return total


def assert_same_terms(new: LaurentPolynomial, old: MonomialTerms):
    assert [(m, c, type(c)) for m, c in new.terms()] == [(m, c, type(c)) for m, c in old.terms()]
    assert all(type(m) is Monomial for m in new.monomials())
    assert all(
        type(k) is tuple and len(k) == 2 and type(k[0]) is int and type(k[1]) is int
        for k in new._terms
    )
    assert repr(new) == f"LaurentPolynomial({dict(old.terms())!r})"


# Every key form, a Fraction, a cancelling pair of terms and a basis
# (x^9 y^4, x^2 y) in one example, so a broken term map fails at once.
@example(
    [(Monomial(2, -1), 3), ((0, 1), Fraction(1, 2)), ([-1, 0], -2), ([0, 1], Fraction(-1, 2))],
    [((1, 0), 1), (Monomial(0, -2), Fraction(3, 4)), ([-1, 0], 2)],
    1, -2, Fraction(2, 3), 3,
)
@settings(max_examples=150, deadline=None)
@given(keyed_items(), keyed_items(), small_exponents, small_exponents, coefficients,
       st.integers(0, 2**32))
def test_pair_keyed_arithmetic_matches_the_monomial_keyed_oracle(
    p_items, q_items, dx, dy, k, seed
):
    p, q = LaurentPolynomial(p_items), LaurentPolynomial(q_items)
    op, oq = oracle_of(p_items), oracle_of(q_items)
    m = Monomial(dx, dy)
    basis = _random_unimodular_basis(random.Random(seed))
    for new, old in [
        (p, op),
        (q, oq),
        (p + q, op + oq),
        (p - q, op + oq * -1),
        (p + (-p), MonomialTerms({})),
        (p * q, op * oq),
        (p * k, op * k),
        (p.shift(m), op.shift(m)),
        (p.shift((dx, dy)), op.shift(m)),
        (rewrite_in_chart(p, basis), oracles.rewrite_in_chart(op, basis)),
        (expand_from_chart(p, basis), oracles.expand_from_chart(op, basis)),
    ]:
        assert_same_terms(new, old)
    if not p.is_zero:
        content, primitive = factor_monomial_content(p)
        old_content, old_primitive = oracles.factor_monomial_content(op)
        assert type(content) is Monomial and content == old_content
        assert_same_terms(primitive, old_primitive)


PROTOCOLS = range(pickle.HIGHEST_PROTOCOL + 1)
_p = LaurentPolynomial({(1, 0): 1, (0, -2): Fraction(-1, 3)})
PUBLIC_VALUES = {
    "Monomial": Monomial(2, -3),
    "LaurentPolynomial": _p,
    "RationalFunction": RationalFunction(_p, _p * _p),
    "ChartBasis": ChartBasis(Monomial(1, 0), Monomial(1, 1)),
    "PositivePath": positive_path(MonomialValuation.rational(24, 7), 50),
    "ResolutionTrace": resolve(24, 7),
    "ChartState": resolve(24, 7).all_charts()[3],
    "CFExpansion": cf_expand(Fraction(24, 7)),
    "Value": Value(3, -4),
}


@given(keyed_items())
@settings(max_examples=50, deadline=None)
def test_a_pair_keyed_polynomial_pickles_and_copies(items):
    p = LaurentPolynomial(items)
    pickled = [pickle.loads(pickle.dumps(p, proto)) for proto in PROTOCOLS]
    for twin in (*pickled, copy.copy(p), copy.deepcopy(p)):
        assert twin == p
        assert twin.terms() == p.terms() and repr(twin) == repr(p)


@pytest.mark.parametrize("proto", PROTOCOLS)
@pytest.mark.parametrize("name", PUBLIC_VALUES)
def test_public_value_types_pickle_at_every_protocol(name, proto):
    value = PUBLIC_VALUES[name]
    twin = pickle.loads(pickle.dumps(value, proto))
    assert type(twin) is type(value) and twin == value and repr(twin) == repr(value)


def test_values_leave_operations_with_other_types_to_python():
    p = LaurentPolynomial.monomial(X, 2)
    for value in (X, p, IDENTITY_BASIS, RationalFunction(p)):
        assert value.__eq__(object()) is NotImplemented
        assert value != object()
    assert p.__mul__("x") is NotImplemented
    with pytest.raises(TypeError):
        p * "x"
