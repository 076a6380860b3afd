"""Continued fractions and ``member`` against sympy, an implementation written independently.

The whole module is skipped when sympy is not installed.
"""

import json
import random
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from monoval import cli
from monoval.exactnum import (
    CFStream,
    cf_convergents,
    cf_expand,
    stream_compare,
)
from monoval.expr import initial_value, parse_expression
from monoval.valuation import Value

sympy = pytest.importorskip("sympy")
from sympy.parsing.sympy_parser import convert_xor, parse_expr, standard_transformations  # noqa: E402

BIG = 10**30
big_rationals = st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG))

# (p, q, d) for the quadratic irrational (p + sqrt(d))/q: d is not a square.
# Kept small: sympy takes up to a tenth of a second per expansion.
quadratic_irrationals = st.tuples(
    st.integers(-20, 20),
    st.integers(1, 12) | st.integers(-12, -1),
    st.integers(2, 200).filter(lambda d: isqrt(d) ** 2 != d),
)


def fraction(x) -> Fraction:
    """A sympy Rational (or Integer) as a Fraction."""
    return Fraction(int(x.p), int(x.q))


def sympy_digits(r: Fraction) -> tuple[int, ...]:
    return tuple(int(d) for d in sympy.continued_fraction(sympy.Rational(r.numerator, r.denominator)))


@lru_cache(maxsize=None)
def periodic(p: int, q: int, d: int) -> list:
    """``sympy.continued_fraction_periodic(p, q, d)``: digits, then the period as a list."""
    return sympy.continued_fraction_periodic(p, q, d)


def periodic_stream(p: int, q: int, d: int) -> CFStream:
    """The stream of ``periodic(p, q, d)``."""
    *pre, period = periodic(p, q, d)
    pre, period = [int(x) for x in pre], [int(x) for x in period]
    if not pre:  # purely periodic: the period's first digit is d0
        pre, period = period[:1], period[1:] + period[:1]
    return CFStream.from_periodic(pre, period)


def exact_sign(p: int, q: int, d: int, t: Fraction) -> int:
    """Sign of (p + sqrt(d))/q - t, which is (sqrt(d) - w)/q with w = t*q - p."""
    w = t * q - p
    sign = 1 if w < 0 else (d > w * w) - (d < w * w)
    return sign if q > 0 else -sign


@settings(max_examples=300, deadline=None)
@given(big_rationals)
def test_cf_expand_equals_sympy_up_to_10_30(r):
    assert cf_expand(r).digits == sympy_digits(r)


@pytest.mark.parametrize(
    "r",
    [Fraction(-7, 3), Fraction(-1, 2), Fraction(-5), Fraction(0), Fraction(7, 22),
     Fraction(-BIG, 7), Fraction(BIG - 1, BIG), Fraction(-1, BIG)],
)
def test_cf_expand_equals_sympy_on_signs_and_edges(r):
    assert cf_expand(r).digits == sympy_digits(r)


@settings(max_examples=200, deadline=None)
@given(big_rationals)
def test_cf_convergents_equal_sympy(r):
    cf = cf_expand(r)
    expected = sympy.continued_fraction_convergents(sympy_digits(r))
    assert cf_convergents(cf, len(cf)) == tuple(map(fraction, expected))


@settings(max_examples=30, deadline=None)
@given(quadratic_irrationals)
def test_stream_convergents_equal_sympy_on_periodic_expansions(pqd):
    expected = sympy.continued_fraction_convergents(periodic(*pqd))
    assert cf_convergents(periodic_stream(*pqd), 30) == tuple(map(fraction, islice(expected, 30)))


@settings(max_examples=100, deadline=None)
@given(quadratic_irrationals, st.data())
def test_stream_compare_equals_the_exact_sign_of_a_quadratic_irrational(pqd, data):
    # t is either any rational of moderate size or one of the value's own
    # convergents, whose digits are a prefix of its own up to a last digit 1.
    p, q, d = pqd
    near = islice(sympy.continued_fraction_convergents(periodic(p, q, d)), 300)
    t = data.draw(
        st.fractions(min_value=-100, max_value=100, max_denominator=10**6)
        | st.sampled_from([fraction(c) for c in near])
    )
    assert stream_compare(periodic_stream(p, q, d), t) == exact_sign(p, q, d, t)


def sympy_value(text: str, a: int, b: int):
    """nu(f) as the ``Value`` (m, n) for nu(x) = a, nu(y) = b by sympy, or None when f is zero.

    The text is read by sympy's own parser and put over one denominator.
    Of the least (a*i + b*j, i, j) over the terms of the expanded
    numerator, the pair (i, j), less the same for the denominator: the
    lex-least term of least weight.  Each side is expanded in sympy's
    sparse polynomial ring over QQ, which builds (x + y)^1139 a hundred
    times faster than ``Poly`` does.
    """
    x, y = sympy.symbols("x y")
    f = parse_expr(text, local_dict={"x": x, "y": y},
                   transformations=standard_transformations + (convert_xor,))
    num, den = sympy.fraction(sympy.together(f))
    if num == 0:
        return None
    ring = sympy.ring([x, y], sympy.QQ)[0]

    def least(p) -> tuple[int, int]:
        return min((a * i + b * j, i, j) for i, j in ring.from_expr(p).monoms())[1:]

    (i1, j1), (i2, j2) = least(num), least(den)
    return Value(i1 - i2, j1 - j2)


def member_weight(capsys, text: str, a: int, b: int):
    """The value that ``member`` prints as JSON, as an int, or None for infinity."""
    code = cli.main(["member", text, "--a", str(a), "--b", str(b), "--format", "json"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, ""), err
    value = json.loads(out)["value"]
    return None if value == "infinity" else int(value)


def _polynomial_text(rng: random.Random) -> str:
    """9 distinct monomials of total degree at most 4, with nonzero coefficients."""
    monomials = rng.sample([(i, j) for i in range(5) for j in range(5 - i)], 9)
    return " + ".join(f"{rng.choice([c for c in range(-9, 10) if c])}*x^{i}*y^{j}" for i, j in monomials)


def _quotients_of_powers(count: int) -> list:
    """``(P1)^k1/(P2)^k2`` at weights in 1..30, as the benchmark's member requests are built.

    Here a polynomial need not hold the constant term, so its initial
    form is seldom a constant; and a = b ties every term of one degree.
    """
    rng = random.Random(41)
    powers = ((1, 4), (4, 1), (2, 3), (3, 2), (2, 2))
    cases = []
    for k in range(count):
        k1, k2 = powers[k % len(powers)]
        a = rng.randint(1, 30)
        b = a if k % 4 == 0 else rng.randint(1, 30)
        cases.append((f"({_polynomial_text(rng)})^{k1}/({_polynomial_text(rng)})^{k2}", a, b))
    return cases


CANCELLING_SUMS = [
    ("(x^2 + y^3) - (x^2 - y^3) + x^3", 3, 2),
    ("(x + y)^2 - x^2 - 2*x*y", 1, 1),
    ("x - x + y - y + x^2", 3, 2),
    ("(x + y^2 + x*y) - x", 3, 2),
    ("(x + y)^7 - (x - y)^7 + x*y^9", 1, 1),
    ("(x^3 - y^2)^3/(x + y) - (x^3 - y^2)^3/(x + y)", 2, 3),
    ("((x + y)^3 - x^3)/(y*(x - y)^2) + 1/2", 1, 1),
]

# Every term of x + y is initial at a = b, and no sum reads the power's form.
MEMBER_CASES = _quotients_of_powers(20) + CANCELLING_SUMS + [("(x + y)^1139", 1, 1)]


@pytest.mark.parametrize("text, a, b", MEMBER_CASES, ids=map(str, range(len(MEMBER_CASES))))
def test_member_values_as_sympy_does(capsys, text, a, b):
    expected = sympy_value(text, a, b)
    assert initial_value(parse_expression(text), a, b) == expected
    assert member_weight(capsys, text, a, b) == (None if expected is None else a * expected.m + b * expected.n)
