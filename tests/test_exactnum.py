import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from monoval.exactnum import (
    CFExpansion,
    CFStream,
    GREATER,
    LESS,
    _integer,
    _is_prime,
    cf_alternate,
    cf_canonicalize,
    cf_convergents,
    cf_expand,
    cf_value,
    sqrt2_stream,
    stream_compare,
)

from monoval.laurent import Monomial
from monoval.resolution import check_theorem, resolve
from monoval.valring import RingPresentation, bezout, membership_union, ring_generators
from monoval.valtree import positive_path, take_runs, walk_runs
from monoval.valuation import LexZ2Group, MonomialValuation
from monoval.verify import run_verify
from oracles import bracket_walk, euclid_quotients, nested_cf_value, take_path

rationals = st.fractions(min_value=-200, max_value=200, max_denominator=500)


@pytest.mark.parametrize(
    "r, digits",
    [
        (Fraction(3, 2), (1, 2)),
        (Fraction(7), (7,)),
        (Fraction(24, 7), (3, 2, 3)),
        (Fraction(0), (0,)),
        (Fraction(-7, 2), (-4, 2)),
        (Fraction(7, 22), (0, 3, 7)),
    ],
)
def test_cf_expand_known(r, digits):
    assert cf_expand(r).digits == digits


@pytest.mark.parametrize(
    "digits, value",
    [
        ((3, 2, 3), Fraction(24, 7)),
        ((0,), Fraction(0)),
        ((0, 3, 7), Fraction(7, 22)),
        ((1, 1, 1), Fraction(3, 2)),
    ],
)
def test_cf_value_known(digits, value):
    cf = CFExpansion(digits)
    assert cf_value(cf) == value
    assert nested_cf_value(digits) == value


@pytest.mark.parametrize(
    "digits, canonical",
    [
        ((1, 1, 1), (1, 2)),
        ((0, 1, 1, 1), (0, 1, 2)),
        ((5,), (5,)),
        ((0, 1), (1,)),
        ((3, 2, 3), (3, 2, 3)),
    ],
)
def test_cf_canonicalize(digits, canonical):
    out = cf_canonicalize(CFExpansion(digits))
    assert out.digits == canonical
    assert cf_value(out) == cf_value(CFExpansion(digits))


def test_cf_convergents_known():
    assert cf_convergents(CFExpansion((3, 2, 3)), 3) == (
        Fraction(3),
        Fraction(7, 2),
        Fraction(24, 7),
    )
    assert cf_convergents(CFExpansion((7,)), 1) == (Fraction(7),)
    assert cf_convergents(CFExpansion((0, 3, 7)), 3) == (
        Fraction(0),
        Fraction(1, 3),
        Fraction(7, 22),
    )
    # each convergent equals the value of the truncated expansion
    digits = (2, 1, 3, 1, 4)
    for k, c in enumerate(cf_convergents(CFExpansion(digits), 5)):
        assert c == nested_cf_value(digits[: k + 1])


def test_cf_convergents_count_errors():
    with pytest.raises(ValueError):
        cf_convergents(CFExpansion((3, 2)), 3)
    with pytest.raises(ValueError):
        cf_convergents(CFExpansion((3, 2)), 0)


def test_expansion_validation():
    with pytest.raises(ValueError):
        CFExpansion(())
    with pytest.raises(ValueError):
        CFExpansion((3, 0, 2))
    CFExpansion((-3, 1))  # leading digit may be any integer


@given(rationals)
@settings(max_examples=300)
def test_round_trip_and_canonical_digits(r):
    cf = cf_expand(r)
    assert cf_value(cf) == r
    assert cf.is_canonical
    assert all(d >= 1 for d in cf.digits[1:])


@given(st.integers(2, 10**6), st.integers(1, 10**6))
@settings(max_examples=300)
def test_euclid_equivalence(a, b):
    # digits of a/b are exactly the Euclidean quotients of (a, b)
    from math import gcd

    g = gcd(a, b)
    a, b = a // g, b // g
    assert list(cf_expand(Fraction(a, b)).digits) == euclid_quotients(a, b)


@given(rationals)
@settings(max_examples=200)
def test_alternation(r):
    cf = cf_expand(r)
    if len(cf.digits) < 3:
        return
    convs = cf_convergents(cf, len(cf.digits))
    value = cf_value(cf)
    evens = convs[::2]
    odds = convs[1::2]
    assert all(x < y for x, y in zip(evens, evens[1:]))
    assert all(x > y for x, y in zip(odds, odds[1:]))
    for i, c in enumerate(convs[:-1]):
        assert (c < value) if i % 2 == 0 else (c > value)
    assert convs[-1] == value


@given(rationals)
@settings(max_examples=200)
def test_alternate_form(r):
    cf = cf_expand(r)
    alt = cf_alternate(cf)
    assert cf_value(alt) == r
    assert alt.digit_sum() == cf.digit_sum()
    if len(cf.digits) > 1 or cf.digits[0] != 1:
        assert alt.digits != cf.digits
    assert cf_canonicalize(alt) == cf


@pytest.mark.parametrize(
    "digits, canonical",
    [((3, 2, 2, 1), (3, 2, 3)), ((0, 1), (1,)), ((-2, 4, 1), (-2, 5))],
)
def test_the_alternate_of_an_expansion_ending_in_1_is_canonical(digits, canonical):
    alt = cf_alternate(CFExpansion(digits))
    assert alt == CFExpansion(canonical)
    assert cf_value(alt) == cf_value(CFExpansion(digits))


def test_sqrt2_stream_digits():
    rho = sqrt2_stream()
    assert [rho.digit(i) for i in range(6)] == [1, 2, 2, 2, 2, 2]
    assert rho.periodic == ((1,), (2,))


def test_stream_validation():
    bad = CFStream(lambda i: 0)
    assert bad.digit(0) == 0
    with pytest.raises(ValueError):
        bad.digit(1)
    with pytest.raises(ValueError):
        CFStream.from_periodic((), (2,))
    with pytest.raises(ValueError):
        CFStream.from_periodic((1,), ())
    with pytest.raises(ValueError):
        CFStream.from_periodic((1, 0), (2,))


def test_a_stream_refuses_a_negative_index_and_names_only_a_known_pattern():
    ones = CFStream(lambda i: 1)
    for stream in (ones, CFStream.from_periodic((1, 1), (2, 1))):
        with pytest.raises(IndexError, match="nonnegative"):
            stream.digit(-1)
    assert ones.periodic is None
    assert str(ones) == "<digit stream>"
    assert str(CFStream.from_periodic((1,), (1, 2))) == "[1; (1, 2)...]"
    # Digits on both sides of the table of digit strings print as str prints them.
    assert str(CFStream.from_periodic((-1, 255), (256, 10**300, 1))) == f"[-1, 255; (256, {10**300}, 1)...]"
    assert str(CFStream.from_periodic((-256,), (255,))) == "[-256; (255)...]"


def test_every_digit_of_a_stream_is_read_through_its_digit_method(monkeypatch):
    # A tracer counts the digits a request reads by wrapping CFStream.digit.
    read = []
    digit = CFStream.digit

    def counted(self, i):
        read.append(i)
        return digit(self, i)

    monkeypatch.setattr(CFStream, "digit", counted)
    for rho in (CFStream.from_periodic((1, 1), (2, 1)), CFStream(lambda i: 1 + i % 2)):
        read.clear()
        assert len(list(islice(rho.digits(), 7))) == 7 and read == list(range(7))
        read.clear()
        path = positive_path(MonomialValuation.from_stream(rho), 40)
        # the walk's digits come through it too: the root, then a run per digit read
        assert set(range(len(path.runs) - 1)) <= set(read)


@pytest.mark.parametrize("digits", ["32", "-3", "", "3"])
def test_an_expansion_refuses_a_string_of_digits(digits):
    with pytest.raises(TypeError) as info:
        CFExpansion(digits)
    assert str(info.value) == "digits must be an iterable of integers, not str"


@pytest.mark.parametrize("preperiod, period, name", [
    ("12", (3,), "preperiod"),
    ((1, 2), "3", "period"),
    ("12", "3", "preperiod"),
    ("", (3,), "preperiod"),
])
def test_a_periodic_stream_refuses_a_string_of_digits(preperiod, period, name):
    with pytest.raises(TypeError) as info:
        CFStream.from_periodic(preperiod, period)
    assert str(info.value) == f"{name} must be an iterable of integers, not str"


@settings(max_examples=200, deadline=None)
@given(
    st.integers(-10**20, 10**20),
    st.lists(st.integers(1, 10**20), max_size=6),
    st.lists(st.integers(1, 10**20), min_size=1, max_size=6),
    st.integers(0, 10**30),
)
def test_a_periodic_stream_follows_its_pattern(d0, tail, period, i):
    pre = [d0] + tail
    rho = CFStream.from_periodic(pre, period)
    unrolled = pre + period * 8
    n = len(unrolled)
    assert [rho.digit(k) for k in range(n)] == unrolled
    # past the preperiod every digit repeats the one a whole number of periods back
    back = i if i < len(pre) else len(pre) + (i - len(pre)) % len(period)
    assert rho.digit(i) == unrolled[back]
    assert rho.periodic == (tuple(pre), tuple(period))


@pytest.mark.parametrize(
    "t, expected",
    [
        (Fraction(3, 2), LESS),
        (Fraction(1), GREATER),
        (Fraction(7, 5), GREATER),
        (Fraction(2), LESS),
        (Fraction(-10), GREATER),
    ],
)
def test_stream_compare_sqrt2(t, expected):
    assert stream_compare(sqrt2_stream(), t) == expected


def test_stream_compare_convergents_both_sides():
    rho = sqrt2_stream()
    convs = cf_convergents(rho, 12)
    for i, c in enumerate(convs):
        # even convergents sit below sqrt(2), odd ones above
        assert stream_compare(rho, c) == (GREATER if i % 2 == 0 else LESS)


def test_stream_compare_decides_deep_convergents():
    # Each convergent's digits are a prefix of sqrt(2)'s, so it needs the
    # deepest read; each of the first 400 lies on its own side, by the
    # sign of 2 - t^2.
    rho = sqrt2_stream()
    for i, c in enumerate(cf_convergents(rho, 400)):
        expected = GREATER if c * c < 2 else LESS
        assert stream_compare(rho, c) == expected == (LESS if i % 2 else GREATER)


@pytest.mark.parametrize(
    "t", [Fraction(5), Fraction(-7, 2), Fraction(99, 70), Fraction(10**40 + 1, 10**40)]
)
def test_stream_compare_reads_no_more_digits_than_the_rational_has(t):
    read = []

    def source(i):
        read.append(i)
        return 1 + i % 3

    stream_compare(CFStream(source), t)
    assert max(read) < len(cf_expand(t))


def test_stream_compare_randomized_against_square_oracle():
    rng = random.Random(7)
    rho = sqrt2_stream()
    for _ in range(300):
        t = Fraction(rng.randint(-400, 400), rng.randint(1, 200))
        got = stream_compare(rho, t)
        # independent check: sign of 2 - t^2, corrected for negative t
        if t <= 0:
            expected = GREATER
        else:
            expected = GREATER if t * t < 2 else LESS
        assert got == expected


# ------------------------------------------- integers read by entry points

_NU = MonomialValuation.rational(5, 3)
_NU_WALK = tuple(bracket_walk(_NU, 64)[0])  # its whole path, a vertex at a time


# Each entry point that reads an integer, given a value int() would truncate.
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: resolve(5.9, 3), "a must be an integer, not 5.9"),
        (lambda: resolve(Fraction(11, 2), 3), "a must be an integer, not Fraction(11, 2)"),
        (lambda: resolve(7, 2.5), "b must be an integer, not 2.5"),
        (lambda: resolve(float("inf"), 3), "a must be an integer, not inf"),
        (lambda: check_theorem(5.5, 3), "a must be an integer, not 5.5"),
        (lambda: bezout(7.5, 2), "a must be an integer, not 7.5"),
        (lambda: ring_generators(5.9, 3), "a must be an integer, not 5.9"),
        (lambda: run_verify(10.7), "max_a must be an integer, not 10.7"),
        (lambda: MonomialValuation.lex((1.5, 0), (0, 1)), "nu(x)[0] must be an integer, not 1.5"),
        (lambda: MonomialValuation.lex((1, 0), (0, 0.5)), "nu(y)[1] must be an integer, not 0.5"),
        (lambda: CFStream.from_periodic((1.5,), (2,)), "a digit must be an integer, not 1.5"),
        (lambda: CFStream.from_periodic((1,), (2, 2.5)), "a digit must be an integer, not 2.5"),
        (lambda: CFStream(lambda i: 2.5).digit(1), "a stream digit must be an integer, not 2.5"),
        (lambda: positive_path(_NU, 2.5), "max_steps must be an integer, not 2.5"),
        (lambda: take_path(_NU_WALK, 2.5), "max_steps must be an integer, not 2.5"),
        (lambda: take_runs(walk_runs(_NU), 2.5), "max_steps must be an integer, not 2.5"),
        (lambda: membership_union(Monomial(1, -1), _NU, 2.5),
         "max_steps must be an integer, not 2.5"),
        (lambda: cf_convergents(sqrt2_stream(), 2.5), "count must be an integer, not 2.5"),
        (lambda: cf_convergents(cf_expand(Fraction(7, 3)), 2.5), "count must be an integer, not 2.5"),
        (lambda: CFExpansion((1, 1.5)), "digit 1 must be an integer, not 1.5"),
        (lambda: CFExpansion([Fraction(1, 2)]), "digit 0 must be an integer, not Fraction(1, 2)"),
        # a long value is quoted by its first 64 characters
        (lambda: resolve(Fraction(1, 10**3000), 3), f"a must be an integer, not Fraction(1, 1{'0' * 51}..."),
    ],
)
def test_an_integer_argument_with_a_fractional_part_is_refused(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


# Each of these entry points names its argument for an infinite float and a NaN alike.
@pytest.mark.parametrize("x", [float("inf"), float("nan")], ids=["inf", "nan"])
@pytest.mark.parametrize(
    "call, what",
    [
        (lambda x: positive_path(_NU, x), "max_steps"),
        (lambda x: run_verify(x), "max_a"),
        (lambda x: cf_convergents(cf_expand(Fraction(7, 3)), x), "count"),
        (lambda x: CFExpansion([1, x]), "digit 1"),
        (lambda x: membership_union(Monomial(1, -1), _NU, x), "max_steps"),
        (lambda x: LexZ2Group((x, 0), (0, 1)), "nu(x)[0]"),
    ],
)
def test_an_infinite_or_nan_integer_argument_is_refused_by_name(call, what, x):
    with pytest.raises(ValueError) as info:
        call(x)
    assert str(info.value) == f"{what} must be an integer, not {x!r}"


def test_a_string_int_refuses_keeps_the_message_of_int():
    with pytest.raises(ValueError) as info:
        _integer("1.5", "a")
    assert str(info.value) == "invalid literal for int() with base 10: '1.5'"


_HUGE = 10**5000  # past the interpreter's default limit of 4,300 digits for printing an int


# Each entry point that quotes an input integer in its refusal, given one too long to print.
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: resolve(6 * _HUGE, 4 * _HUGE),
         "(<int too long to print>, <int too long to print>) are not coprime"),
        (lambda: ring_generators(6 * _HUGE, 4 * _HUGE),
         "(<int too long to print>, <int too long to print>) are not coprime"),
        (lambda: _integer(Fraction(_HUGE + 1, 2), "a"), "a must be an integer, not <Fraction too long to print>"),
        (lambda: resolve(Fraction(_HUGE + 1, 2), 3), "a must be an integer, not <Fraction too long to print>"),
        (lambda: CFExpansion((1, -_HUGE)),
         "digit 1 is <int too long to print>; digits past the first must be >= 1"),
        (lambda: CFStream(lambda i: -_HUGE).digit(1),
         "stream produced digit <int too long to print> at index 1; must be >= 1"),
        (lambda: cf_convergents(cf_expand(Fraction(7, 3)), _HUGE),
         "asked for <int too long to print> convergents but only 2 digits exist"),
        (lambda: RingPresentation(Monomial(-2, 3), Monomial(1, -1), _HUGE, 0, 3, 2),
         "p*a - q*b = <int too long to print>, expected 1"),
    ],
)
def test_a_refusal_quoting_an_integer_too_long_to_print_is_its_own(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_a_bool_is_an_integer():
    assert _integer(True, "a") == 1 and type(_integer(True, "a")) is int
    assert _integer(False, "a") == 0
    # x/y first lies in the ring of vertex 1, which a budget of True (one vertex) does not reach
    assert membership_union(Monomial(1, -1), _NU, True) is None
    assert membership_union(Monomial(1, -1), _NU, 2) == 1
    assert membership_union(Monomial(0, 1), _NU, True) == 0


def test_an_integer_argument_may_be_any_integral_value_or_a_string():
    assert resolve("9", "4") == resolve(9.0, Fraction(4)) == resolve(9, 4)
    assert type(resolve(9.0, 4).a) is int
    assert ring_generators("7", "3") == ring_generators(7, 3)
    assert type(ring_generators(7.0, 3).b) is int
    assert bezout(7.0, "2") == bezout(7, 2)
    assert run_verify(6.0) == run_verify(6)
    assert MonomialValuation.lex((1.0, 0), (0, "1")).group.vx == (1, 0)
    assert CFStream.from_periodic((1.0,), ("2",)).periodic == ((1,), (2,))
    assert CFStream(lambda i: 2.0).digit(1) == 2
    assert positive_path(_NU, 3.0) == positive_path(_NU, 3)
    assert take_path(_NU_WALK, 3.0) == positive_path(_NU, 3)
    assert membership_union(Monomial(1, -1), _NU, 64.0) == 1
    assert cf_convergents(sqrt2_stream(), 2.0) == cf_convergents(sqrt2_stream(), 2)
    assert cf_convergents(sqrt2_stream(), "3") == cf_convergents(sqrt2_stream(), 3)
    assert cf_convergents(cf_expand(Fraction(24, 7)), "3") == cf_convergents(CFExpansion((3, 2, 3)), 3)
    # an expansion keeps a tuple of ints, whatever iterable of integral values it was given
    cf = CFExpansion([3, 2.0, Fraction(3)])
    assert cf == CFExpansion((3, 2, 3)) == cf_expand(Fraction(24, 7))
    assert hash(cf) == hash(CFExpansion((3, 2, 3)))
    assert type(cf.digits) is tuple and all(type(d) is int for d in cf.digits)


@pytest.mark.parametrize("function", [cf_value, cf_canonicalize, cf_alternate])
@pytest.mark.parametrize("cf", [(), [1, 0], (3, 2), "32", None])
def test_a_finite_expansion_function_refuses_what_is_not_an_expansion(function, cf):
    with pytest.raises(TypeError) as info:
        function(cf)
    assert str(info.value) == f"cf must be a CFExpansion, not {type(cf).__name__}"


def test_cf_convergents_refuses_what_is_neither_an_expansion_nor_a_stream():
    with pytest.raises(TypeError, match="^cf must be a CFExpansion or a CFStream, not tuple$"):
        cf_convergents((3, 2), 1)


def test_a_step_budget_below_its_least_value_keeps_its_message():
    for steps in (0, -1, 0.0):
        with pytest.raises(ValueError, match="^max_steps must be positive$"):
            positive_path(_NU, steps)
        with pytest.raises(ValueError, match="^max_steps must be positive$"):
            take_path(_NU_WALK, steps)
    with pytest.raises(ValueError, match="^max_steps must not be negative$"):
        membership_union(Monomial(1, -1), _NU, -1.0)


def test_is_prime_equals_trial_division_and_rejects_strong_pseudoprimes():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(-3, 20_000) if _is_prime(n)] == [n for n in range(20_000) if trial(n)]
    # strong pseudoprimes to every base up to 7, 23 and 37 in turn
    assert not any(map(_is_prime, (3215031751, 3825123056546413051, 318665857834031151167461)))
    assert _is_prime(2**61 - 1) and _is_prime(2**31 - 1) and not _is_prime(2**61 + 1)
