"""The digit-driven positive walk against the one-comparison-per-vertex walk.

``positive_path`` reads the path off the continued-fraction digits of
nu(x)/nu(y); ``oracles.bracket_walk`` picks each child by comparing the
two generator values.  They must agree vertex for vertex, with the
generators of each vertex in the same order, for all three value groups.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from monoval import cli
from monoval.exactnum import CFStream, cf_expand
from monoval.laurent import Monomial
from monoval.valtree import ROOT, children, lex_valuation_from_tail, positive_path
from monoval.valuation import UNBOUNDED, LexZ2Group, MonomialValuation

from oracles import bracket_walk


def ordered(vertices):
    return [(v.f, v.g) for v in vertices]


def assert_walks_agree(nu, max_steps):
    path = positive_path(nu, max_steps=max_steps)
    vertices, complete = bracket_walk(nu, max_steps)
    assert ordered(path.vertices) == ordered(vertices)
    assert path.complete == complete
    return path


# ------------------------------------------------------------- rational

positive = st.integers(min_value=1, max_value=10**6)
huge = st.integers(min_value=1, max_value=10**200)


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.tuples(positive, positive), st.tuples(huge, huge)),
       st.integers(min_value=1, max_value=400))
@example(pair=(7**237, 3**419), max_steps=400)
@example(pair=(1, 10**199 + 7), max_steps=3)
def test_rational_walk_matches_bracket_walk(pair, max_steps):
    a, b = pair
    if a == b:
        return
    nu = MonomialValuation.rational(a, b)
    assert_walks_agree(nu, max_steps)


@settings(max_examples=60, deadline=None)
@given(positive, st.integers(min_value=2, max_value=60))
def test_integer_ratios_and_a_below_b(b, k):
    for a, bb in ((k * b, b), (b, k * b), (k, k + 1), (k + 1, k)):
        nu = MonomialValuation.rational(a, bb)
        assert_walks_agree(nu, 200)


@settings(max_examples=40, deadline=None)
@given(positive, positive, positive, positive)
def test_fractional_values_walk_like_their_ratio(p, q, r, s):
    vx, vy = Fraction(p, q), Fraction(r, s)
    if vx == vy:
        return
    nu = MonomialValuation.rational(vx, vy)
    path = assert_walks_agree(nu, 300)
    ratio = vx / vy
    same = positive_path(MonomialValuation.rational(ratio.numerator, ratio.denominator), 300)
    assert ordered(path.vertices) == ordered(same.vertices)


def test_200_digit_fibonacci_pair_walks_to_the_end():
    fib = [1, 1]
    while len(str(fib[-1])) < 200:
        fib.append(fib[-1] + fib[-2])
    nu = MonomialValuation.rational(fib[-1], fib[-2])
    path = assert_walks_agree(nu, len(fib) + 1)
    assert path.complete and len(path) == len(fib) - 1  # digits [1; 1, ..., 1, 2]


def test_rational_digits_are_the_expansion():
    for vx, vy in ((24, 7), (7, 24), (5, 1), (Fraction(3, 4), Fraction(5, 6))):
        nu = MonomialValuation.rational(vx, vy)
        assert tuple(nu.group.ratio_digits()) == cf_expand(Fraction(vx) / Fraction(vy)).digits


# --------------------------------------------------------------- stream

digit = st.integers(min_value=1, max_value=9)
stream_spec = st.tuples(
    st.integers(min_value=0, max_value=6),
    st.lists(digit, max_size=3),
    st.lists(digit, min_size=1, max_size=4),
)


@settings(max_examples=25, deadline=None)
@given(stream_spec, st.integers(min_value=1, max_value=300))
@example(spec=(1, [], [2]), depth=300)
@example(spec=(0, [9, 1], [1, 9, 3]), depth=300)
def test_stream_walk_matches_bracket_walk(spec, depth):
    d0, pre, period = spec
    stream = CFStream.from_periodic((d0, *pre), period)
    nu = MonomialValuation.from_stream(stream)
    path = assert_walks_agree(nu, depth)
    assert not path.complete and len(path) == depth


# ------------------------------------------------------------------ lex

lex_value = st.tuples(
    st.integers(min_value=-50, max_value=50), st.integers(min_value=-50, max_value=50)
).filter(lambda v: v > (0, 0))


@settings(max_examples=150, deadline=None)
@given(lex_value, lex_value, st.integers(min_value=1, max_value=120))
def test_lex_walk_matches_bracket_walk(vx, vy, max_steps):
    if vx == vy:
        return
    nu = MonomialValuation.lex(vx, vy)
    assert_walks_agree(nu, max_steps)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.booleans(), max_size=12), st.booleans(),
       st.integers(min_value=1, max_value=150))
def test_lex_tail_walk_matches_bracket_walk(turns, swap, max_steps):
    vertex = ROOT
    for turn in turns:
        vertex = children(vertex)[turn]
    f, g = (vertex.g, vertex.f) if swap else (vertex.f, vertex.g)
    nu = lex_valuation_from_tail(f, g)
    path = assert_walks_agree(nu, max_steps)
    assert not path.complete


def lex_digits(vx, vy):
    return list(LexZ2Group(vx, vy).ratio_digits())


def test_lex_digits():
    assert lex_digits((1, 0), (0, 1)) == [UNBOUNDED]
    assert lex_digits((0, 1), (1, 0)) == [0, UNBOUNDED]
    # (7, 3) = 2*(3, 1) + (1, 1); (3, 1) = 2*(1, 1) + (1, -1); ...
    assert lex_digits((7, 3), (3, 1)) == [2, 2, 1, UNBOUNDED]
    for vx, vy in (((0, -1), (1, 0)), ((1, 0), (0, 0))):
        with pytest.raises(ValueError, match="must both be positive"):
            lex_digits(vx, vy)
    # a first coordinate divided exactly: the second one decides
    assert lex_digits((3, 1), (1, 1)) == [2, 1, UNBOUNDED]
    assert lex_digits((2, 3), (1, 2)) == [1, 1, UNBOUNDED]
    # a zero remainder ends the expansion
    assert lex_digits((2, 4), (1, 2)) == [2]
    assert lex_digits((0, 7), (0, 3)) == [2, 3]
    with pytest.raises(ValueError):
        lex_digits((1, 0), (0, -1))


# ------------------------------------------------------------------ cli


def sqrt2_digit_walk(steps):
    """Exponent pairs of the sqrt(2) path from its digits [1; 2, 2, ...]."""
    big, small = (1, 0), (0, 1)
    out = [(big, small)]
    d = 1
    while len(out) < steps:
        for m in range(1, d + 1):
            out.append((small, (big[0] - m * small[0], big[1] - m * small[1])))
        big, small = small, out[-1][1]
        d = 2
    return out[:steps]


def test_cli_stream_path_past_the_convergent_budget(capsys):
    code = cli.main(["path", "--stream", "sqrt2", "--max-steps", "800", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    data = json.loads(captured.out)
    assert data["status"] == "truncated"
    expected = [
        {"f": str(Monomial(*f)), "g": str(Monomial(*g))} for f, g in sqrt2_digit_walk(800)
    ]
    assert data["vertices"] == expected
