import os
import random
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest

from monoval.exactnum import CFStream, sqrt2_stream
from monoval.laurent import (
    LaurentPolynomial,
    Monomial,
    RationalFunction,
    UNIT,
    X,
    Y,
    ZeroPolynomialError,
    lattice_solve,
)
from monoval import valring
from monoval.valring import (
    RingPresentation,
    bezout,
    membership_by_value,
    membership_structural,
    membership_union,
    ring_generators,
)
from monoval.valtree import TreeVertex, children, positive_path, walk_runs
from monoval.valuation import MonomialValuation

from oracles import bracket_walk, random_polynomial, random_coprime_pair


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
            # built unchecked from a checked pair, it passes the constructor's checks
            assert RingPresentation(*pres) == pres
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


@pytest.mark.parametrize("nu", [
    MonomialValuation.from_stream(sqrt2_stream()),
    MonomialValuation.rational(5, 3),
    MonomialValuation.lex((1, 0), (0, 1)),
], ids=["sqrt2", "rational", "lex"])
def test_membership_union_refuses_a_negative_value_at_the_root(nu, monkeypatch):
    # No vertex ring holds a monomial of negative value, so no budget is walked.
    calls = []
    monkeypatch.setattr(valring, "lattice_solve", lambda *args: calls.append(args))
    assert membership_union(Monomial(-1, 0), nu, max_steps=10**9) is None
    assert calls == []


def test_membership_union_takes_one_step_per_run():
    # x^-b y^a has value 0 under nu = (a, b), so no vertex of the path of
    # 10^30 + 1 vertices holds it; the path has three runs.  In a fresh
    # interpreter, so that a walk a vertex at a time fails here, not hangs.
    program = (
        "from monoval import Monomial, MonomialValuation, membership_union, sqrt2_stream\n"
        "a, b = 10**30 + 1, 10**30\n"
        "print(membership_union(Monomial(-b, a), MonomialValuation.rational(a, b), 10**40))\n"
        "nu = MonomialValuation.from_stream(sqrt2_stream())\n"
        "print(membership_union(Monomial(-1000000, 1414214), nu, max_steps=10**9))\n"
    )
    src = str(Path(valring.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True,
                          timeout=10, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "None\n18\n"


def test_membership_union_reads_no_run_past_its_budget(monkeypatch):
    # sqrt(2) = [1; 2, 2, ...]: runs of 1, 1, 2, 2, ... vertices, so some
    # budgets end a run and others end inside one.
    nu = MonomialValuation.from_stream(sqrt2_stream())
    mono = Monomial(-1000000, 1414214)  # first held at vertex 18
    steps = 0

    def runs(nu):
        taken = 0
        for start, n in walk_runs(nu):
            assert taken < steps, f"a run read past a budget of {steps}"
            taken += n
            yield start, n

    monkeypatch.setattr(valring, "walk_runs", runs)
    for steps in range(30):
        assert membership_union(mono, nu, steps) == (18 if steps > 18 else None)


def first_held(vertices, mono):
    """Index of the first of ``vertices`` whose ring holds ``mono``, or None."""
    return next((i for i, v in enumerate(vertices) if min(lattice_solve(mono, v)) >= 0), None)


UNION_BUDGETS = (0, 1, 2, 3, 5, 10, 64, 200)


@pytest.mark.parametrize("nu", [
    MonomialValuation.rational(24, 7),
    MonomialValuation.rational(7, 24),
    MonomialValuation.rational(89, 55),
    MonomialValuation.rational(10, 4),
    MonomialValuation.rational(41, 1),
    MonomialValuation.from_stream(sqrt2_stream()),
    MonomialValuation.from_stream(CFStream.from_periodic((1, 3), (1, 1, 4))),
    MonomialValuation.lex((1, 0), (0, 1)),
    MonomialValuation.lex((5, 0), (2, 1)),
    MonomialValuation.lex((0, 1), (3, 2)),
    MonomialValuation.lex((4, 2), (2, 1)),
], ids=["24/7", "7/24", "89/55", "10/4", "41", "sqrt2", "periodic", "lex-unbounded",
        "lex-digits-then-unbounded", "lex-y-first", "lex-finite"])
def test_membership_union_equals_a_walk_a_vertex_at_a_time(nu):
    rng = random.Random(repr(nu.describe()))
    monos = [Monomial(rng.randint(-40, 40), rng.randint(-40, 40)) for _ in range(300)]
    monos += [UNIT, X, Y, Monomial(1, -1), Monomial(-1, 1), Monomial(-40, 1), Monomial(1, -40)]
    vertices = bracket_walk(nu, max(UNION_BUDGETS))[0]
    for mono in monos:
        first = first_held(vertices, mono)
        for m in UNION_BUDGETS:
            # bracket_walk(nu, m) walks the first m of these vertices
            expected = first if first is not None and first < m else None
            assert membership_union(mono, nu, m) == expected, (mono, m)


@pytest.mark.parametrize("nu, message", [
    (MonomialValuation.rational(5, 5), "nu(x) = nu(y) is degenerate for path construction"),
    (MonomialValuation.lex((2, 1), (2, 1)), "nu(x) = nu(y) is degenerate for path construction"),
    (MonomialValuation.lex((-1, 0), (1, 0)),
     "k[x, y] is not positive: nu(x) and nu(y) must be positive"),
    (MonomialValuation.lex((0, 1), (0, -1)),
     "k[x, y] is not positive: nu(x) and nu(y) must be positive"),
], ids=["rational-equal", "lex-equal", "lex-x-negative", "lex-y-negative"])
def test_membership_union_refuses_a_valuation_without_a_path(nu, message):
    for mono in (UNIT, Monomial(-1, 0), Monomial(3, -2)):
        for m in (1, 2, 64, 10**40):
            with pytest.raises(ValueError) as info:
                membership_union(mono, nu, m)
            assert str(info.value) == message
        # a budget of 0 examines no vertex, so it starts no walk to refuse
        assert membership_union(mono, nu, 0) is None


@pytest.mark.parametrize("steps, message", [
    (-1, "max_steps must not be negative"),
    (-10**40, "max_steps must not be negative"),
    (2.5, "max_steps must be an integer, not 2.5"),
    ("2.5", "invalid literal for int() with base 10: '2.5'"),
])
def test_membership_union_refuses_a_bad_budget(steps, message):
    # checked before the walk's own refusal of a valuation without a path
    for nu in (MonomialValuation.rational(5, 3), MonomialValuation.rational(5, 5)):
        with pytest.raises(ValueError) as info:
            membership_union(UNIT, nu, steps)
        assert str(info.value) == message


def test_membership_union_budget_past_maxsize_and_negative():
    nu = MonomialValuation.rational(5, 3)
    # The rational path ends long before any budget past sys.maxsize.
    assert membership_union(Monomial(-1, 1), nu, max_steps=2**64) is None
    assert membership_union(Monomial(1, -1), nu, max_steps=2**64) == 1
    assert membership_union(UNIT, nu, max_steps=0) is None
    with pytest.raises(ValueError, match="^max_steps must not be negative$"):
        membership_union(UNIT, nu, max_steps=-1)
