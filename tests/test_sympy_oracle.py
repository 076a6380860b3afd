"""Continued fractions against sympy, an implementation written independently.

The whole module is skipped when sympy is not installed.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from monoval.exactnum import (
    CFStream,
    cf_convergents,
    cf_expand,
    stream_compare,
)

sympy = pytest.importorskip("sympy")

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
