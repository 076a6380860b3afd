import random
from fractions import Fraction

import pytest

from monoval.expr import (
    ExpressionError,
    MAX_NESTING,
    Literal,
    Negation,
    Power,
    Quotient,
    Sum,
    Variable,
    lower,
    parse_expression,
    parse_rational_function,
)
from monoval.laurent import (
    LaurentPolynomial,
    Monomial,
    RationalFunction,
    X,
    Y,
)

from monoval.valuation import MonomialValuation, Value

from oracles import random_polynomial


def rf_of(terms, den_terms=None):
    num = LaurentPolynomial(terms)
    den = LaurentPolynomial(den_terms) if den_terms else None
    return RationalFunction(num, den)


def test_parse_cusp_polynomial():
    assert parse_rational_function("x^2 - y^3") == rf_of({(2, 0): 1, (0, 3): -1})


def test_parse_monomial_quotient():
    assert parse_rational_function("x/y") == rf_of({(1, 0): 1}, {(0, 1): 1})


def test_parse_lattice_identity():
    # (y^3/x^2) * (x/y)^3 simplifies to x
    assert parse_rational_function("(y^3/x^2) * (x/y)^3") == rf_of({(1, 0): 1})


@pytest.mark.parametrize(
    "text, expected",
    [
        ("  x ^ 2-y^3 ", rf_of({(2, 0): 1, (0, 3): -1})),
        ("x + y*x^2", rf_of({(1, 0): 1, (2, 1): 1})),
        ("-x^2", rf_of({(2, 0): -1})),
        ("x^-1", rf_of({(-1, 0): 1})),
        ("3/2*x", rf_of({(1, 0): Fraction(3, 2)})),
        ("(x + y)^2", rf_of({(2, 0): 1, (1, 1): 2, (0, 2): 1})),
        ("(x + y)^-1", rf_of({(0, 0): 1}, {(1, 0): 1, (0, 1): 1})),
        ("1/2/2", rf_of({(0, 0): Fraction(1, 4)})),
        ("--x", rf_of({(1, 0): 1})),
        ("2^3", rf_of({(0, 0): 8})),
    ],
)
def test_parse_values(text, expected):
    assert parse_rational_function(text) == expected


def test_ast_shapes():
    node = parse_expression("-(x/y)^2 + 3")
    assert isinstance(node, Sum)
    neg = node.left
    assert isinstance(neg, Negation)
    assert isinstance(neg.operand, Power)
    assert isinstance(neg.operand.base, Quotient)
    assert node.right == Literal(Fraction(3))
    assert parse_expression("x") == Variable("x")


@pytest.mark.parametrize(
    "text, position",
    [
        ("x +", 3),
        ("x ^ y", 4),
        ("(x + y", 6),
        ("x @ y", 2),
        ("x y", 2),
        ("", 0),
        (")x", 0),
    ],
)
def test_syntax_errors_carry_positions(text, position):
    with pytest.raises(ExpressionError) as err:
        parse_expression(text)
    assert err.value.position == position


def test_lowering_rejects_zero_division():
    with pytest.raises(ExpressionError):
        parse_rational_function("1/(y - y)")
    with pytest.raises(ExpressionError):
        parse_rational_function("x/0")
    with pytest.raises(ExpressionError):
        parse_rational_function("(y - y)^-1")
    # zero numerator is fine
    assert parse_rational_function("(y - y)/x").is_zero


def test_nesting_limit():
    deep = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse_rational_function(deep) == RationalFunction.from_monomial(X)
    assert parse_rational_function("-" * MAX_NESTING + "y") == RationalFunction.from_monomial(Y)
    for text in (
        "(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1),
        "(" * 3000 + "x" + ")" * 3000,
        "-" * (MAX_NESTING + 1) + "x",
        "(-" * (MAX_NESTING // 2 + 1) + "x" + ")" * (MAX_NESTING // 2 + 1),
    ):
        with pytest.raises(ExpressionError) as err:
            parse_expression(text)
        assert err.value.position == MAX_NESTING
        assert f"deeper than {MAX_NESTING} levels" in str(err.value)


def test_long_chains_lower_without_deep_recursion():
    n = 3000
    assert parse_rational_function("+".join(["x"] * n)) == RationalFunction(
        LaurentPolynomial({X: n})
    )
    assert parse_rational_function("*".join(["y"] * n)) == RationalFunction.from_monomial(
        Monomial(0, n)
    )
    nu = MonomialValuation.rational(3, 2)
    assert nu(parse_rational_function("x" + "/y" * n)) == Value(1, -n)
    # the first zero divisor from the left is the one reported
    with pytest.raises(ExpressionError) as err:
        parse_rational_function("1/0/0")
    assert err.value.position == 1


def test_print_parse_round_trip_random():
    rng = random.Random(71)
    for _ in range(200):
        num = random_polynomial(rng, max_degree=4, laurent=True)
        den = random_polynomial(rng, max_degree=4, laurent=True)
        r = RationalFunction(num, den)
        assert parse_rational_function(str(r)) == r


def test_print_parse_round_trip_edge_cases():
    for terms in [{(0, 0): Fraction(-5, 3)}, {(-1, -2): 1}, {(0, 0): 1, (1, 1): -1}]:
        r = rf_of(terms)
        assert parse_rational_function(str(r)) == r
    zero = RationalFunction(LaurentPolynomial.zero())
    assert parse_rational_function(str(zero)) == zero
