import random
from math import gcd

import pytest

from monoval.exactnum import sqrt2_stream
from monoval.laurent import (
    LaurentPolynomial,
    Monomial,
    RationalFunction,
    UNIT,
    X,
    Y,
    ZeroPolynomialError,
)
from monoval.valring import (
    RingPresentation,
    bezout,
    membership_by_value,
    membership_structural,
    membership_union,
    ring_generators,
)
from monoval.valtree import TreeVertex, children, positive_path
from monoval.valuation import MonomialValuation

from oracles import random_polynomial, random_coprime_pair


def rf(num_mono, den_mono=UNIT):
    return RationalFunction(
        LaurentPolynomial.monomial(num_mono), LaurentPolynomial.monomial(den_mono)
    )


@pytest.mark.parametrize(
    "a, b, p, q",
    [(3, 2, 1, 1), (24, 7, 5, 17), (2, 1, 1, 1), (5, 2, 1, 2), (7, 5, 3, 4)],
)
def test_bezout_known(a, b, p, q):
    assert bezout(a, b) == (p, q)
    assert p * a - q * b == 1


def test_bezout_minimality_and_errors():
    for a in range(2, 60):
        for b in range(1, a):
            if gcd(a, b) != 1:
                continue
            p, q = bezout(a, b)
            assert p >= 1 and q >= 1
            assert p * a - q * b == 1
            for smaller in range(1, p):
                assert (smaller * a - 1) % b != 0
    with pytest.raises(ValueError):
        bezout(4, 2)
    with pytest.raises(ValueError):
        bezout(2, 3)


def test_ring_generators_known():
    pres = ring_generators(3, 2)
    assert (pres.u, pres.v) == (Monomial(-2, 3), Monomial(1, -1))
    pres = ring_generators(24, 7)
    assert (pres.u, pres.v) == (Monomial(-7, 24), Monomial(5, -17))
    pres = ring_generators(2, 1)
    assert (pres.u, pres.v) == (Monomial(-1, 2), Monomial(1, -1))


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"a": 4, "b": 2}, "(4, 2) are not coprime"),
        ({"p": 2, "q": 2, "v": Monomial(2, -2)}, "p*a - q*b = 2, expected 1"),
        ({"v": Monomial(1, -2)}, "generators do not match the exponent data"),
        ({"u": Monomial(2, -3)}, "generators do not match the exponent data"),
    ],
)
def test_a_presentation_refuses_data_that_do_not_fit(changes, message):
    pres = ring_generators(3, 2)
    assert pres == RingPresentation(pres.u, pres.v, pres.p, pres.q, pres.a, pres.b)
    with pytest.raises(ValueError) as info:
        RingPresentation(**{**pres._asdict(), **changes})
    assert str(info.value) == message


def test_ring_generator_values_and_identities():
    for a in range(2, 51):
        for b in range(1, a):
            if gcd(a, b) != 1:
                continue
            pres = ring_generators(a, b)
            nu = MonomialValuation.rational(a, b)
            assert nu.group.realize(nu(pres.u)) == 0
            assert nu.group.realize(nu(pres.v)) == 1
            # v^a u^q = x and v^b u^p = y, exactly
            assert pres.v ** a * pres.u ** pres.q == X
            assert pres.v ** b * pres.u ** pres.p == Y


def test_presentation_matches_terminal_vertex_child():
    # the presentation pair {u, v} is one of the two children of the
    # terminal path vertex: an independent derivation of the same ring
    for a in range(3, 31):
        for b in range(2, a):
            if gcd(a, b) != 1:
                continue
            pres = ring_generators(a, b)
            path = positive_path(MonomialValuation.rational(a, b), max_steps=a + b)
            terminal = path.vertices[-1]
            kids = children(terminal)
            assert TreeVertex(pres.u, pres.v) in kids, (a, b)


def test_membership_structural_known():
    pres = ring_generators(3, 2)
    assert membership_structural(rf(X, Y), pres) == (True, 1)
    assert membership_structural(rf(Y, X), pres) == (False, -1)
    assert membership_structural(rf(UNIT), pres) == (True, 0)
    with pytest.raises(ZeroPolynomialError):
        membership_structural(
            RationalFunction(LaurentPolynomial.zero(), LaurentPolynomial.monomial(X)),
            pres,
        )


def test_membership_by_value_known():
    nu = MonomialValuation.rational(3, 2)
    assert membership_by_value(rf(X, Y), nu)
    assert membership_by_value(rf(Monomial(2, 0), Monomial(0, 3)), nu)  # value 0
    assert not membership_by_value(rf(Y, X), nu)
    # the zero function has value infinity, hence belongs to every ring
    zero = RationalFunction(LaurentPolynomial.zero(), LaurentPolynomial.monomial(X))
    assert membership_by_value(zero, nu)
    snu = MonomialValuation.from_stream(sqrt2_stream())
    assert not membership_by_value(rf(Y, X), snu)  # 1 - sqrt2 < 0
    assert membership_by_value(rf(X, Y), snu)


def test_membership_oracles_agree_randomized():
    rng = random.Random(101)
    for _ in range(800):
        a, b = random_coprime_pair(rng, 50)
        pres = ring_generators(a, b)
        nu = MonomialValuation.rational(a, b)
        r = RationalFunction(
            random_polynomial(rng, max_degree=6, max_coeff=10),
            random_polynomial(rng, max_degree=6, max_coeff=10),
        )
        member, gap = membership_structural(r, pres)
        assert member == membership_by_value(r, nu)
        assert gap == nu.group.realize(nu(r))


def test_membership_union_known():
    snu = MonomialValuation.from_stream(sqrt2_stream())
    assert membership_union(UNIT, snu) == 0
    assert membership_union(Monomial(1, -1), snu) == 1  # x/y at k[y, x/y]
    assert membership_union(Monomial(-1, 1), snu, max_steps=64) is None
    assert not membership_by_value(rf(Y, X), snu)


def test_membership_union_soundness_and_completeness_sqrt2():
    rng = random.Random(55)
    snu = MonomialValuation.from_stream(sqrt2_stream())
    for _ in range(300):
        mono = Monomial(rng.randint(-20, 20), rng.randint(-20, 20))
        found = membership_union(mono, snu, max_steps=64)
        member = membership_by_value(rf(mono), snu)
        if found is not None:
            assert member  # soundness
        # bounded completeness: nonnegative value is always found
        assert (found is not None) == member


def test_membership_union_rational_cross_check():
    # rational ratios: anything found is sound; the value-0 generator u
    # itself is only in the localization, so the search may miss members
    rng = random.Random(56)
    for _ in range(200):
        a, b = random_coprime_pair(rng, 30)
        nu = MonomialValuation.rational(a, b)
        mono = Monomial(rng.randint(-12, 12), rng.randint(-12, 12))
        found = membership_union(mono, nu, max_steps=a + b)
        if found is not None:
            assert membership_by_value(rf(mono), nu)
    # explicit miss: u = y^a/x^b has value 0 but no path vertex contains it
    pres = ring_generators(5, 3)
    nu = MonomialValuation.rational(5, 3)
    assert membership_by_value(rf(pres.u), nu)
    assert membership_union(pres.u, nu, max_steps=64) is None


def test_membership_union_budget_past_maxsize_and_negative():
    nu = MonomialValuation.rational(5, 3)
    # The rational path ends long before any budget past sys.maxsize.
    assert membership_union(Monomial(-1, 1), nu, max_steps=2**64) is None
    assert membership_union(Monomial(1, -1), nu, max_steps=2**64) == 1
    assert membership_union(UNIT, nu, max_steps=0) is None
    with pytest.raises(ValueError, match="^max_steps must not be negative$"):
        membership_union(UNIT, nu, max_steps=-1)
