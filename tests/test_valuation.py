import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from monoval.exactnum import cf_convergents, sqrt2_stream
from monoval.laurent import (
    LaurentPolynomial,
    Monomial,
    RationalFunction,
    UNIT,
    X,
    Y,
    ZeroPolynomialError,
)
from monoval.valuation import (
    LexZ2Group,
    MonomialValuation,
    RationalRatioGroup,
    StreamRatioGroup,
    Value,
    ZERO,
)

from oracles import random_polynomial, sqrt2_value_sign


def poly(d):
    return LaurentPolynomial(d)


def test_value_arithmetic():
    assert Value(1, 2) + Value(3, -1) == Value(4, 1)
    assert Value(1, 2) - Value(3, -1) == Value(-2, 3)
    assert -Value(1, -2) == Value(-1, 2)


def test_monomial_values():
    nu = MonomialValuation.rational(3, 2)
    assert nu(Monomial(2, 1)) == Value(2, 1)
    assert nu.group.realize(nu(Monomial(2, 1))) == 8
    assert nu.group.realize(nu(Monomial(-2, 3))) == 0  # y^3/x^2
    assert nu(UNIT) == ZERO


def test_polynomial_values():
    nu = MonomialValuation.rational(3, 2)
    assert nu.group.realize(nu(poly({(1, 0): 1, (0, 2): 1}))) == 3  # x + y^2
    assert nu.group.realize(nu(poly({(2, 0): 1, (0, 3): -1}))) == 6  # tie
    with pytest.raises(ZeroPolynomialError):
        nu(LaurentPolynomial.zero())


def test_rational_function_values():
    nu = MonomialValuation.rational(3, 2)
    x = LaurentPolynomial.monomial(X)
    y = LaurentPolynomial.monomial(Y)
    assert nu.group.realize(nu(RationalFunction(x, y))) == 1
    assert nu.group.realize(nu(RationalFunction(x ** 2, y ** 3))) == 0
    h = poly({(1, 1): 5, (0, 0): 3})
    assert nu(RationalFunction(x * h, y * h)) == nu(RationalFunction(x, y))


def test_compare_values_rational():
    g = RationalRatioGroup(3, 2)
    assert g.compare(Value(1, -1), ZERO) > 0
    assert g.compare(Value(-2, 3), ZERO) == 0
    assert g.compare(Value(1, 0), Value(0, 2)) < 0  # 3 < 4


def test_compare_values_stream():
    g = StreamRatioGroup(sqrt2_stream())
    assert g.compare(Value(1, -1), ZERO) > 0  # sqrt2 - 1 > 0
    assert g.sign(Value(-1, 1)) < 0
    assert g.sign(Value(0, 3)) > 0
    rng = random.Random(3)
    for _ in range(200):
        m, n = rng.randint(-30, 30), rng.randint(-30, 30)
        if m == 0 and n == 0:
            continue
        assert g.sign(Value(m, n)) == sqrt2_value_sign(m, n)


def test_compare_values_lex():
    # nu(f) = (0,1), nu(g) = (1,0): g/f^t has value (1, -t), always positive
    g = LexZ2Group((1, 0), (0, 1))
    for t in range(1, 51):
        assert g.sign(Value(1, -t)) > 0
    assert g.compare(Value(0, 1), Value(1, -100)) < 0
    assert g.realize(Value(2, 3)) == (2, 3)


def test_describe_names_the_values_of_x_and_y():
    assert MonomialValuation.lex((1, 0), (0, 1)).describe() == (
        "nu(x) = (1, 0), nu(y) = (0, 1) in Z^2 (lex)"
    )
    assert LexZ2Group((2, -1), (0, 3)).describe() == "nu(x) = (2, -1), nu(y) = (0, 3) in Z^2 (lex)"
    assert MonomialValuation.rational(Fraction(3, 2), 1).describe() == "nu(x) = 3/2, nu(y) = 1"


def test_rational_group_keeps_the_given_values_in_either_order():
    g = RationalRatioGroup(2, 3)
    assert (g.vx, g.vy, g.px, g.py) == (2, 3, 2, 3)
    assert g.realize(Value(1, 0)) == 2  # nu(x) stays the given value
    g2 = RationalRatioGroup(Fraction(3, 2), Fraction(1, 2))
    assert (g2.px, g2.py) == (6, 2)  # each times the other's denominator
    assert g2.compare(Value(1, 0), Value(0, 3)) == 0
    with pytest.raises(ValueError):
        RationalRatioGroup(0, 1)
    with pytest.raises(ValueError):
        RationalRatioGroup(3, -2)


@pytest.mark.parametrize(
    "weight, held, printed",
    [
        (3, 3, "3"),
        (True, 1, "1"),
        ("4", 4, "4"),
        (Fraction(6, 2), 3, "3"),
        ("3/2", Fraction(3, 2), "3/2"),
        (Fraction(3, 2), Fraction(3, 2), "3/2"),
        (1.5, Fraction(3, 2), "3/2"),
    ],
)
def test_rational_group_holds_a_weight_as_an_int_when_integral(weight, held, printed):
    for g, kept in ((RationalRatioGroup(weight, 5), "vx"), (RationalRatioGroup(5, weight), "vy")):
        value = getattr(g, kept)
        assert type(value) is type(held) and value == held
        for v in (Value(1, 0), Value(0, 1), Value(2, 0), Value(2, 1)):
            realized = g.realize(v)
            integral = realized == int(realized)
            assert type(realized) is (int if integral else Fraction)
    assert RationalRatioGroup(weight, 5).describe() == f"nu(x) = {printed}, nu(y) = 5"
    assert RationalRatioGroup(5, weight).describe() == f"nu(x) = 5, nu(y) = {printed}"


@pytest.mark.parametrize("weight", [0, -1, "0"])
def test_rational_group_refuses_a_weight_that_is_not_positive(weight):
    for vx, vy in ((weight, 1), (1, weight)):
        with pytest.raises(ValueError, match=r"^nu\(x\) and nu\(y\) must both be positive$"):
            RationalRatioGroup(vx, vy)


def test_equivalent_valuations_order_isomorphic():
    rng = random.Random(17)
    g1 = RationalRatioGroup(Fraction(7, 3), Fraction(4, 3))
    g2 = RationalRatioGroup(Fraction(7, 3) * 5, Fraction(4, 3) * 5)
    for _ in range(300):
        v1 = Value(rng.randint(-20, 20), rng.randint(-20, 20))
        v2 = Value(rng.randint(-20, 20), rng.randint(-20, 20))
        assert g1.compare(v1, v2) == g2.compare(v1, v2)
        # magnitudes differ by the scalar
        assert g2.realize(v1) == 5 * g1.realize(v1)


def _axiom_suite(nu, rng, rounds):
    for _ in range(rounds):
        p = random_polynomial(rng, max_degree=4, max_terms=4, laurent=True)
        q = random_polynomial(rng, max_degree=4, max_terms=4, laurent=True)
        assert nu(p * q) == nu(p) + nu(q)
        s = p + q
        if not s.is_zero:
            # ultrametric: nu(p + q) >= min(nu(p), nu(q))
            lo = nu(p) if nu.compare(nu(p), nu(q)) <= 0 else nu(q)
            assert nu.compare(nu(s), lo) >= 0
    assert nu(LaurentPolynomial.constant(rng.randint(1, 9))) == ZERO


def test_valuation_axioms_rational():
    _axiom_suite(MonomialValuation.rational(3, 2), random.Random(1), 150)
    _axiom_suite(
        MonomialValuation.rational(Fraction(9, 4), Fraction(2, 3)), random.Random(2), 150
    )


def test_valuation_axioms_stream():
    _axiom_suite(MonomialValuation.from_stream(sqrt2_stream()), random.Random(3), 40)


def test_valuation_axioms_lex():
    _axiom_suite(MonomialValuation.lex((1, 2), (1, 1)), random.Random(4), 150)
    _axiom_suite(MonomialValuation.lex((1, 0), (0, 1)), random.Random(5), 150)


def test_stream_signs_decide_at_deep_convergents():
    # k*sqrt(2) - h for sqrt(2)'s convergent h/k has the sign of 2k^2 - h^2,
    # on both sides of the comparison.
    nu = MonomialValuation.from_stream(sqrt2_stream())
    for c in cf_convergents(sqrt2_stream(), 400):
        h, k = c.numerator, c.denominator
        sign = (2 * k * k > h * h) - (2 * k * k < h * h)
        assert nu.sign(Value(k, -h)) == sign == -nu.sign(Value(-k, h))
        assert nu.compare(Value(k, 0), Value(0, h)) == sign


def test_valuation_rejects_unknown_types():
    nu = MonomialValuation.rational(3, 2)
    with pytest.raises(TypeError):
        nu("x + y")


# Non-integer positive rationals, with numerators and denominators of any size.
non_integer_rationals = st.builds(
    Fraction, st.integers(1, 10**25), st.integers(2, 10**25)
).filter(lambda r: r.denominator != 1)
big_values = st.builds(Value, st.integers(-(10**40), 10**40), st.integers(-(10**40), 10**40))


def _fraction_sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


@given(non_integer_rationals, non_integer_rationals, big_values, big_values)
@settings(max_examples=300)
def test_rational_compare_matches_fraction_difference(vx, vy, v1, v2):
    g = RationalRatioGroup(vx, vy)
    assert g.compare(v1, v2) == _fraction_sign(g.realize(v1) - g.realize(v2))
    assert g.sign(v1) == _fraction_sign(g.realize(v1))
    assert g.compare(v1, v1) == 0 and g.sign(ZERO) == 0
    assert g.realize(v1) == v1.m * vx + v1.n * vy


@given(non_integer_rationals, non_integer_rationals, st.integers(-(10**6), 10**6))
@settings(max_examples=200)
def test_rational_compare_decides_exact_ties(vx, vy, k):
    # (m, n) = k * (den-scaled nu(y), -nu(x)) realizes exactly 0
    g = RationalRatioGroup(vx, vy)
    v = Value(k * g.py, -k * g.px)
    assert g.realize(v) == 0 and g.sign(v) == 0
    assert g.compare(v + Value(1, 0), v) == 1 and g.compare(v, v + Value(0, 1)) == -1
