import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from monoval.expr import (
    ExpressionError,
    MAX_NESTING,
    Literal,
    Negation,
    Power,
    Product,
    Quotient,
    Sum,
    Variable,
    WorkBudgetError,
    _Work,
    _initial,
    _power_units,
    _size,
    initial_value,
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
    x, y, two = Variable("x"), Variable("y"), Literal(Fraction(2))
    # A unary minus reads one more exponent; see the "x^2^3" error below.
    assert parse_expression("-x^2^3") == Power(Negation(Power(x, 2, 2)), 3, 4)
    assert parse_expression("2*-x") == Product(two, Negation(x), 1)
    assert parse_expression("x--y") == Sum(x, Negation(Negation(y)), 1)
    # Each node is at its sign; the term after '-' is closed before the sum takes it.
    assert parse_expression("x - y*x/2^3") == Sum(
        x, Negation(Quotient(Product(y, x, 5), Power(two, 3, 9), 7)), 2
    )
    for text, message in (("(x", "expected ')' (at position 2)"),
                          ("x^-", "expected an integer exponent (at position 3)"),
                          ("x^2^3", "unexpected '^' (at position 3)")):
        with pytest.raises(ExpressionError) as err:
            parse_expression(text)
        assert str(err.value) == message


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
        ("x^2^3", 3),
        ("(x", 2),
        ("x^-", 3),
        ("-x^2^3^4", 6),
    ],
)
def test_syntax_errors_carry_positions(text, position):
    with pytest.raises(ExpressionError) as err:
        parse_expression(text)
    assert err.value.position == position


@pytest.mark.parametrize("text, position", [("x^\u00b2", 2), ("\u00b9", 0), ("x + \u2460", 4), ("12\u00b3", 2)])
def test_digits_int_does_not_read_are_unexpected_characters(text, position):
    # superscripts and circled digits are str.isdigit() but not decimal
    with pytest.raises(ExpressionError) as err:
        parse_expression(text)
    assert err.value.position == position
    assert str(err.value) == f"unexpected character {text[position]!r} (at position {position})"


def test_any_decimal_digit_reads_as_int_reads_it():
    assert parse_expression("x^\u0663") == parse_expression("x^3")  # Arabic-Indic 3
    assert parse_expression("\uff11\uff12") == parse_expression("12")  # fullwidth


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
    # Only nesting counts: each parenthesis and unary minus gives its level back.
    side_by_side = "+".join(["(-x)"] * (MAX_NESTING + 1))
    assert parse_rational_function(side_by_side) == rf_of({(1, 0): -(MAX_NESTING + 1)})
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


# Expressions for the initial-form evaluator: negative powers, literal
# zeros, and "(E) - (E) + t", whose two initial forms always cancel, at
# every depth the recursion reaches, also twice along one chain; and
# "(E + F) - (E)", whose forms cancel when E's weight is the lower, and
# whose exact value F then gives the initial form.
ATOMS = st.sampled_from(["x", "y", "0", "1", "2", "3", "x^2", "y^3", "1/2", "x*y"])


def _extend(children):
    ops = st.sampled_from("+-*/")
    return st.one_of(
        st.builds(lambda l, op, r: f"{l} {op} {r}", children, ops, children),
        st.builds(lambda e, k: f"({e})^{k}", children, st.integers(-2, 3)),
        children.map(lambda e: f"-({e})"),
        st.builds(lambda e, op, t: f"({e}) - ({e}) {op} {t}", children, ops, children),
        st.builds(lambda e, f, op, t: f"{e} - ({e}) + {f} - ({f}) {op} {t}",
                  children, children, ops, children),
        st.builds(lambda e, f, op, t: f"({e} + {f}) - ({e}) {op} {t}",
                  children, children, ops, children),
    )


EXPRESSIONS = st.recursive(ATOMS, _extend, max_leaves=12)
WEIGHTS = st.integers(1, 30)


def pair_by_lowering(node, a, b):
    """The oracle: "zero", or nu of the exact rational function, as a ``Value`` pair."""
    rf = lower(node)
    return "zero" if rf.is_zero else MonomialValuation.rational(a, b)(rf)


def pair_by_initial_forms(node, a, b):
    value = initial_value(node, a, b)
    return "zero" if value is None else value


def realized(pair, a, b):
    return pair if pair == "zero" else MonomialValuation.rational(a, b).group.realize(pair)


def by_lowering(node, a, b):
    """The oracle, realized."""
    return realized(pair_by_lowering(node, a, b), a, b)


def by_initial_forms(node, a, b):
    return realized(pair_by_initial_forms(node, a, b), a, b)


def outcome(evaluate, node, a, b):
    try:
        return evaluate(node, a, b)
    except ExpressionError as exc:
        return type(exc).__name__, str(exc), exc.position


@settings(max_examples=400, deadline=None)
@given(EXPRESSIONS, WEIGHTS, WEIGHTS)
def test_initial_forms_value_an_expression_as_lowering_does(text, a, b):
    # Value pairs, not realized values: of the terms of least weight, both
    # read the lex-least one.
    node = parse_expression(text)
    expected = outcome(pair_by_lowering, node, a, b)
    assert outcome(pair_by_initial_forms, node, a, b) == expected, text


@pytest.mark.parametrize("text, a, b, expected", [
    ("x^2 - y^3", 3, 2, 6),
    ("x^2 - y^3 + x*y", 3, 2, 5),
    ("(x^2 - y^3)/(x^2 + y^3)", 3, 2, 0),
    ("(x^2 + y^3) - (x^2 - y^3) + x^3", 3, 2, 6),   # forms add, then cancel in part
    ("(x + y)^2 - x^2 - 2*x*y", 1, 1, 2),           # forms of one weight, never cancelling
    ("x - x + y - y + x^2", 3, 2, 6),                # cancels twice along one chain
    ("(x + y^2 + x*y) - x", 3, 2, 4),               # cancels, leaving two weights
    ("x^-2 * (y - y + x)^3", 5, 7, 5),
    ("(y - y)^0", 3, 2, 0),
    ("(y - y)^2 + 0/x", 3, 2, "zero"),
    ("1/2*x - x/2", 3, 2, "zero"),
    # A sum of equal weights stays unforced until a use needs it built.
    ("x + ((x+y)^3 - (x+y)^3)", 1, 1, 1),           # dropped unbuilt: x is strictly lighter
    ("((x+y)^2 - (x+y)^2) + x^3", 1, 1, 3),         # x^3 is heavier: built, it cancels to zero
    ("((x+y)^2 - (x+y)^2 + y^5) + x^3", 1, 1, 3),   # cancels, leaving a weight past the bound
    ("-x + ((x + y) - y)", 1, 1, "zero"),           # of the bound's weight: built, and it cancels
    ("((x + y) - y)*((x + y) - x)", 1, 1, 2),       # a product builds both
    ("-((x + y) - y)", 1, 1, 1),                    # so does a negation
    ("((x + y) - x)^3 + x", 1, 1, 1),               # and a power
    ("(x + y) + (x + y)", 1, 1, 1),                 # of two unforced operands, the left is forced first
    ("(x - x) + (y - y)", 1, 1, "zero"),            # and it may force to zero, leaving the right unforced
    ("(x - x) + ((x + y) - y)", 1, 1, 1),           # which is then the sum
    ("(x^2 - x^2) + (y - y)", 1, 1, "zero"),        # the lighter is forced first, and may force to zero
    ("0 + (x + y)", 1, 1, 1),                       # a zero left leaves an unforced right as the sum
])
def test_initial_forms_explicit_cases(text, a, b, expected):
    node = parse_expression(text)
    assert by_initial_forms(node, a, b) == by_lowering(node, a, b) == expected
    assert pair_by_initial_forms(node, a, b) == pair_by_lowering(node, a, b)


@pytest.mark.parametrize("text, position", [
    ("1/(y-y)", 1), ("(y - y)^-1", 7), ("x/0", 1), ("(x - x)/(y - y)", 7), ("1/0/0", 1),
    ("x/((x+y) - x - y)", 1), ("((x+y) - x - y)^-1", 15),
])
def test_initial_forms_raise_lowering_errors_at_the_same_positions(text, position):
    node = parse_expression(text)
    expected = outcome(by_lowering, node, 3, 2)
    assert expected[2] == position
    assert outcome(by_initial_forms, node, 3, 2) == expected


def test_initial_forms_need_positive_weights():
    for a, b in ((0, 2), (3, -1)):
        with pytest.raises(ValueError):
            initial_value(parse_expression("x"), a, b)


TIED = "x^26*y^12 + x^19*y^13"  # weights 11.0 and 11.0 in floats at 0.1, 0.7


@pytest.mark.parametrize("a, b, expected", [
    (2.0, 3, Value(19, 13)),
    (True, 1, Value(19, 13)),
    (2, 3.0, Value(19, 13)),
    (0.1, 0.7, "nu(x) must be an integer, not 0.1"),
    (1.5, 2, "nu(x) must be an integer, not 1.5"),
    (math.nan, 2, "nu(x) must be an integer, not nan"),
    (math.inf, 2, "nu(x) must be an integer, not inf"),
    (2, 0.7, "nu(y) must be an integer, not 0.7"),
    (2, math.nan, "nu(y) must be an integer, not nan"),
    (0, 2, "nu(x) and nu(y) must both be positive"),
    (3, -1, "nu(x) and nu(y) must both be positive"),
    (False, 2.0, "nu(x) and nu(y) must both be positive"),
])
def test_initial_value_reads_its_weights_as_integers(a, b, expected):
    node = parse_expression(TIED)
    if isinstance(expected, Value):
        assert initial_value(node, a, b) == expected
    else:
        with pytest.raises(ValueError) as err:
            initial_value(node, a, b)
        assert str(err.value) == expected


def test_cancelling_chain_is_linear():
    # Each cancellation extends the exact prefix kept so far: no operand is
    # lowered twice, so the chain costs about what lowering it costs.
    node = parse_expression("x - x + " * 2000 + "y")

    def best(evaluate):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            evaluate()
            times.append(time.perf_counter() - start)
        return min(times)

    assert initial_value(node, 3, 2) == Value(0, 1)
    assert best(lambda: initial_value(node, 3, 2)) < 3 * best(lambda: lower(node))


def test_initial_forms_cancel_at_every_nesting_depth():
    text = "y"
    for _ in range(MAX_NESTING):
        text = f"(x - x + {text})"
    node = parse_expression(text)
    assert by_initial_forms(node, 3, 2) == by_lowering(node, 3, 2) == 2
    deep = parse_expression("-" * (MAX_NESTING - 1) + "(x - x + y)")
    assert by_initial_forms(deep, 3, 2) == by_lowering(deep, 3, 2) == 2


def test_a_power_whose_initial_form_is_a_monomial_is_not_expanded():
    node = parse_expression("(x+y)^20000")
    start = time.perf_counter()
    assert initial_value(node, 3, 2) == Value(0, 20000)
    assert time.perf_counter() - start < 1


def test_the_work_budget_refuses_before_expanding():
    # With a = b every term of x + y is initial, so (x+y)^1200 is charged
    # about 1.7 million units; 3^3000000 is one term whose coefficient
    # outgrows the budget.  Both would take seconds to expand.  Alone their
    # forms are never built; a sum of equal weights builds them, and a
    # heavier operand forces that sum.
    for text, value in (("(x+y)^1200", Value(0, 1200)), ("(x+y)^20000", Value(0, 20000)),
                        ("3^3000000", Value(0, 0))):
        start = time.perf_counter()
        assert initial_value(parse_expression(text), 1, 1) == value
        assert time.perf_counter() - start < 0.5
    for text, position in (("(x+y)^1200 - (x+y)^1200 + x^1201", 5), ("3^3000000 - 3^3000000 + x", 1)):
        start = time.perf_counter()
        with pytest.raises(WorkBudgetError) as err:
            initial_value(parse_expression(text), 1, 1)
        assert time.perf_counter() - start < 0.5
        assert err.value.position == position and "work budget of 1,500,000" in str(err.value)
    cancelling = parse_expression("(x+y)^20000 - (x+y)^20000 + y^20001")
    with pytest.raises(WorkBudgetError) as err:
        initial_value(cancelling, 3, 2)
    assert err.value.position == 5


def test_the_exact_fallback_has_a_budget_of_its_own():
    # Each 3^300000 is charged about 500,000 units, once as initial forms
    # and once exactly after they cancel: 2 million in all, but neither
    # pass alone reaches the budget.  (x+y)^700, charged about 290,000
    # units a power, is the README's example; x^701 is heavier than it,
    # so the cancelling difference is built.
    for text, expected in (("3^300000 - 3^300000 + x", 1), ("(x+y)^700 - (x+y)^700 + x^701", 701)):
        node = parse_expression(text)
        assert by_initial_forms(node, 1, 1) == by_lowering(node, 1, 1) == expected


@contextmanager
def counting_products():
    """Sum ``_size(p) * _size(q)`` over the products p * q made inside, in ``units[0]``.

    ``units[1]`` counts those products.
    """
    units = [0, 0]
    multiply = LaurentPolynomial.__mul__

    def counted(p, q):
        units[0] += _size(p) * _size(q)
        units[1] += 1
        return multiply(p, q)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LaurentPolynomial, "__mul__", counted)
        yield units


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 100, 513, 1024])
def test_power_units_count_every_product_that_pow_makes(n):
    # A monomial's powers stay one term with a coefficient of +-1, so
    # every product costs one unit and the bound is exact: one product
    # per set bit of n, and one square per bit but the last.
    monomial = LaurentPolynomial.monomial(Monomial(2, -1), -1)
    with counting_products() as units:
        monomial ** n
    assert units[0] == _power_units(monomial, n) == bin(n).count("1") + n.bit_length() - 1


COEFFICIENTS = st.one_of(
    st.integers(-3, 3), st.integers(-2**700, 2**700),
    st.fractions(max_denominator=2**600),
)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), COEFFICIENTS,
                       max_size=4),
       st.integers(0, 40))
def test_power_units_bound_the_units_that_pow_uses(terms, n):
    # Counting stops once it passes the budget, where the power is refused;
    # below that the count bounds the products made.  Small counts keep
    # each example fast.
    p = LaurentPolynomial(terms)
    bound = _power_units(p, n)
    assume(bound <= 100_000)
    with counting_products() as units:
        p ** n
    assert units[0] <= bound


@contextmanager
def counting_charges():
    """Sum the units charged to any ``_Work`` inside, in ``units[0]``."""
    units = [0]
    charge = _Work.charge

    def counted(work, n, what, position):
        units[0] += n
        return charge(work, n, what, position)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Work, "charge", counted)
        yield units


# A form that would pass the budget if it were built, with no sum in it:
# at a = b the sum x + y is built at once, since its two weights tie.
HEAVY = "3^3000000*(x*y)^20000"


@settings(max_examples=200, deadline=None)
@given(EXPRESSIONS, WEIGHTS, WEIGHTS)
def test_a_sum_never_builds_or_charges_its_heavier_operand(text, a, b):
    def charged(text):
        with counting_charges() as units:
            result = outcome(initial_value, parse_expression(text), a, b)
        return result, units[0]

    alone = charged(text)
    value = alone[0]
    assume(value is not None)
    assume(not isinstance(value, Value) or value.m * a + value.n * b < 20000 * (a + b))
    assert charged(f"{text} + {HEAVY}") == alone, text


@pytest.mark.parametrize("text, alone", [
    (f"-(x + {HEAVY})", "-x"),
    (f"(x + {HEAVY})^3", "x^3"),
    (f"(x + {HEAVY})*y", "x*y"),
    (f"y/(x + {HEAVY})", "y/x"),
    (f"-(x + {HEAVY})^-2/y", "-x^-2/y"),
])
def test_an_operation_over_a_sum_never_builds_or_charges_the_operand_it_drops(text, alone):
    def charged(text):
        with counting_charges() as units:
            result = initial_value(parse_expression(text), 1, 1)
        return result, units[0]

    assert charged(text) == charged(alone)
    # A sum of equal weights, which the answer builds, reads the form.
    assert charged(f"({text}) + ({alone})") == charged(f"({alone}) + ({alone})")


def test_only_the_initial_forms_the_value_reads_are_multiplied_out():
    # The initial form of each 9-term polynomial is its constant term, so
    # the other 16 terms are never built; and no sum of equal weights reads
    # c1^4/c2, so it is never built either.
    p1 = "3 - 2*x + 5*y + x^2*y - 7*x*y^2 + 4*x^3 - y^3 + 2*x^4 + 9*y^4"
    p2 = "-2 + x - 3*y^2 + 6*x*y + 8*x^2 - x^3*y + 5*x*y^3 - x^4 + y^4"
    node = parse_expression(f"({p1})^4/({p2})")
    with counting_products() as units:
        assert initial_value(node, 3, 2) == Value(0, 0)
    assert units[1] == 0


def test_long_chains_and_deep_nests_take_initial_values_without_deep_recursion():
    n = 3000
    assert initial_value(parse_expression("*".join(["x"] * n)), 3, 2) == Value(n, 0)
    assert initial_value(parse_expression("+".join(["x*y"] * n)), 3, 2) == Value(1, 1)
    inverted = "x"
    for _ in range(MAX_NESTING // 2):  # a unary minus and a parenthesis a level
        inverted = f"-({inverted})^-1"
    assert initial_value(parse_expression(inverted), 3, 2) == Value(1, 0)
    nested = "y"
    for _ in range(MAX_NESTING):
        nested = f"x^2*({nested})^1"
    assert initial_value(parse_expression(nested), 3, 2) == Value(2 * MAX_NESTING, 1)


def test_lower_has_no_budget():
    # The two powers tie, and x forces their sum, which builds them both.
    node = parse_expression("2^2000000 - 2^2000000 + x")
    with pytest.raises(WorkBudgetError) as err:
        initial_value(node, 3, 2)
    assert err.value.position == 1
    assert lower(node.left.left).numerator == LaurentPolynomial.constant(2**2000000)
    assert lower(node) == RationalFunction.from_monomial(X)


def test_the_work_budget_admits_a_two_term_initial_form_to_the_500th():
    node = parse_expression("(x^2-y^3)^500")
    assert len(lower(node).numerator) == 501
    for a, b in ((3, 2), (1, 1)):
        assert by_initial_forms(node, a, b) == 500 * min(2 * a, 3 * b)


@pytest.mark.parametrize("text", [
    "x", "3", "2*x^3*y/5", "x/y", "(x*y^2)^-3", "-x", "-(x/y)", "((x*(y)))*((2))", "x^2*(y*(x/y)^2)^3",
])
def test_a_subexpression_with_no_sum_in_it_is_its_own_pending_form(text):
    node = parse_expression(text)
    assert _initial(node, 3, 2, _Work(), _Work())[0] is node


def test_a_product_over_a_sum_that_dropped_an_operand_is_a_new_node():
    # At a = b = 1 the sum keeps x and drops y^2, whose form is never built.
    node = parse_expression("(x + y^2)*x")
    form, value = _initial(node, 1, 1, _Work(), _Work())
    assert form is not node and value == Value(2, 0)
    assert form == Product(Variable("x"), Variable("x"), 9)
    assert form.left is node.left.left and form.right is node.right


def test_lowering_and_initial_values_refuse_a_node_of_no_known_kind():
    rf = parse_rational_function("x + y")
    for call, name in ((lambda: lower(object()), "object"), (lambda: initial_value(object(), 3, 2), "object"),
                       (lambda: lower(rf), "RationalFunction"), (lambda: initial_value(rf, 3, 2), "RationalFunction")):
        with pytest.raises(TypeError) as err:
            call()
        assert str(err.value) == f"unknown node {name}"
