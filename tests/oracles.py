"""Independent oracles used to derive and confirm expected test values.

Everything here is deliberately written from first principles, separate
from the package's own code paths: Euclidean quotients instead of the
expansion routine, top-down nested fractions instead of the convergent
recurrence, and interval bisection on t^2 - 2 instead of convergent
brackets for sqrt(2) sign decisions.  The positive path is walked here
by one value comparison per vertex, as the cross-check for the package's
walk from continued-fraction digits.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from monoval.laurent import LaurentPolynomial, Monomial, RationalFunction, X, Y
from monoval.valtree import ROOT, TreeVertex


def euclid_quotients(a: int, b: int) -> list[int]:
    """Quotient sequence of the Euclidean algorithm on (a, b), b > 0."""
    qs = []
    while b:
        q, r = divmod(a, b)
        qs.append(q)
        a, b = b, r
    return qs


def nested_cf_value(digits) -> Fraction:
    """Evaluate [d0; d1, ...] straight from the nested-fraction definition."""
    if len(digits) == 1:
        return Fraction(digits[0])
    return digits[0] + 1 / nested_cf_value(digits[1:])


def sqrt2_cmp(t: Fraction) -> int:
    """Sign of sqrt(2) - t by exact interval bisection on the square.

    Maintains lo^2 < 2 < hi^2 with rational endpoints; a rational can
    never equal sqrt(2), so the loop terminates.
    """
    t = Fraction(t)
    lo, hi = Fraction(1), Fraction(2)
    while lo < t < hi:
        mid = (lo + hi) / 2
        if mid * mid < 2:
            lo = mid
        else:
            hi = mid
    return 1 if t <= lo else -1


def sqrt2_value_sign(m: int, n: int) -> int:
    """Sign of m*sqrt(2) + n, decided through the bisection oracle."""
    if m == 0:
        return (n > 0) - (n < 0)
    s = sqrt2_cmp(Fraction(-n, m))
    return s if m > 0 else -s


def bracket_walk(nu, max_steps: int) -> tuple[list[TreeVertex], bool]:
    """Positive path by one comparison per vertex: (vertices, complete).

    The generator values evolve by (max, min) -> (min, max - min), so one
    comparison both picks the positive child and keeps positivity; the
    walk ends when the two values are equal.  For a stream valuation the
    comparisons bracket convergents and are bounded by its ``max_iters``.
    """
    vf, vg = nu(X), nu(Y)
    vertex = ROOT
    vertices = [vertex]
    while len(vertices) <= max_steps:
        c = nu.compare(vf, vg)
        if c == 0:
            return vertices, True
        if c > 0:
            vertex = TreeVertex(vertex.g, vertex.f / vertex.g)
            vf, vg = vg, vf - vg
        else:
            vertex = TreeVertex(vertex.f, vertex.g / vertex.f)
            vf, vg = vf, vg - vf
        vertices.append(vertex)
    return vertices[:max_steps], False


def random_coprime_pair(rng: random.Random, max_a: int, min_b: int = 1) -> tuple[int, int]:
    while True:
        a = rng.randint(max(min_b + 1, 2), max_a)
        b = rng.randint(min_b, a - 1)
        if gcd(a, b) == 1:
            return a, b


def random_polynomial(
    rng: random.Random,
    max_degree: int = 6,
    max_terms: int = 6,
    max_coeff: int = 10,
    laurent: bool = False,
) -> LaurentPolynomial:
    """Random nonzero polynomial; plain exponents unless ``laurent``."""
    lo = -max_degree if laurent else 0
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            while True:
                ex = rng.randint(lo, max_degree)
                ey = rng.randint(lo, max_degree)
                if laurent or ex + ey <= max_degree:
                    break
            c = rng.randint(-max_coeff, max_coeff)
            if c:
                terms[Monomial(ex, ey)] = terms.get(Monomial(ex, ey), 0) + c
        p = LaurentPolynomial(terms)
        if not p.is_zero:
            return p


def random_rational_function(rng: random.Random, **kw) -> RationalFunction:
    return RationalFunction(random_polynomial(rng, **kw), random_polynomial(rng, **kw))
