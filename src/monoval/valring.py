"""Explicit valuation-ring computations for integer monomial valuations.

For coprime integers a > b >= 1 and nu(x) = a, nu(y) = b, the ring of
elements with nonnegative value is generated (after localizing at the
ideal of the value-1 generator) by the two monomials

    u = y^a / x^b   (value 0)        v = x^p / y^q   (value 1),

where (p, q) is the minimal positive solution of p*a - q*b = 1.  This
module computes that presentation and decides membership three ways:
structurally by factoring out v-powers after a chart rewrite, directly
by the sign of the value, and for monomials under irrational ratios by
searching the positive path for a vertex ring that contains them.  The
search reads the path a run at a time (``valtree.walk_runs``): inside a
run the first vertex that holds a monomial is a closed form, so it costs
one step per continued-fraction digit, not one per vertex.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .exactnum import _coprime_pair, _integer, _quoted, _record, _require_coprime
from .laurent import (
    ChartBasis,
    Monomial,
    RationalFunction,
    ZeroPolynomialError,
    lattice_solve,
    rewrite_in_chart,
)
from .valuation import MonomialValuation
from .valtree import _vertex_at, walk_runs


class _Presentation(NamedTuple):
    """The six fields of a ``RingPresentation``."""

    u: Monomial
    v: Monomial
    p: int
    q: int
    a: int
    b: int


@_record
class RingPresentation(_Presentation):
    """Generator pair (u, v) of the valuation ring for nu(x) = a, nu(y) = b.

    The localization prime is the principal ideal generated by v.
    """

    __slots__ = ()

    def __new__(cls, u: Monomial, v: Monomial, p: int, q: int, a: int, b: int):
        _require_coprime(a, b)
        if p * a - q * b != 1:
            raise ValueError(f"p*a - q*b = {_quoted(p * a - q * b)}, expected 1")
        if u != Monomial(-b, a) or v != Monomial(p, -q):
            raise ValueError("generators do not match the exponent data")
        # det(u, v) = q*b - p*a = -1, so (u, v) is automatically unimodular
        return tuple.__new__(cls, (u, v, p, q, a, b))

    def basis(self) -> ChartBasis:
        return ChartBasis(self.u, self.v)


class StructuralMembership(NamedTuple):
    member: bool
    gap: int


def bezout(a: int, b: int) -> tuple[int, int]:
    """Minimal positive (p, q) with p*a - q*b = 1, for coprime a > b >= 1.

    Any other solution differs by a multiple of (b, a) and presents the
    same localized ring; minimality makes outputs canonical.
    """
    return _bezout(*_coprime_pair(a, b))


def _bezout(a: int, b: int) -> tuple[int, int]:
    """``bezout`` for ints a > b >= 1 already known to be coprime."""
    # the smallest positive inverse of a modulo b; modulo 1 that is 0, and p = 1
    p = pow(a, -1, b) or 1
    return p, (p * a - 1) // b


def ring_generators(a: int, b: int) -> RingPresentation:
    """The presentation u = y^a/x^b, v = x^p/y^q with (p, q) from bezout.

    (a, b) is read and checked once; the presentation is built from what
    that derives, without the constructor's checks of it.
    """
    a, b = _coprime_pair(a, b)
    p, q = _bezout(a, b)
    return tuple.__new__(RingPresentation, (Monomial(-b, a), Monomial(p, -q), p, q, a, b))


def membership_structural(r: RationalFunction, pres: RingPresentation) -> StructuralMembership:
    """Decide membership by factoring v-powers out of a chart rewrite.

    Rewrites numerator and denominator in (u, v) coordinates, reads off
    the maximal v-power dividing each, and compares: with n and m the two
    v-exponents, the quotient is v^(n-m) times a unit of the localization,
    so membership is n >= m and the gap n - m equals the value of r.
    """
    if r.numerator.is_zero:
        raise ZeroPolynomialError("numerator is zero; the value is infinite")
    basis = pres.basis()
    n = rewrite_in_chart(r.numerator, basis).min_exponents()[1]
    m = rewrite_in_chart(r.denominator, basis).min_exponents()[1]
    return StructuralMembership(member=n >= m, gap=n - m)


def membership_by_value(r: RationalFunction, nu: MonomialValuation) -> bool:
    """Membership straight from the definition: nu(r) >= 0.

    The zero function has value infinity and belongs to every valuation
    ring, so it is a member even though it has no finite value.
    """
    if r.numerator.is_zero:
        return True
    return nu.sign(nu(r)) >= 0


def membership_union(
    mono: Monomial, nu: MonomialValuation, max_steps: int = 64
) -> Optional[int]:
    """Index of the first positive-path vertex whose ring contains ``mono``.

    A monomial lies in the localized vertex ring exactly when its chart
    exponents there are both nonnegative (units of the localization carry
    a nonzero constant term, which forces the monomial itself into the
    ring).  Examines at most ``max_steps`` vertices and returns None when
    none of them works, which for a finite (rational-ratio) path may
    simply mean the monomial needs the localization of the terminal
    presentation instead.  The path is read a run at a time, one step
    per run within the ``max_steps`` vertices: in the run ((f, g), n),
    where mono = f^alpha g^beta, vertex j = k[f, g/f^j] has the chart
    exponents (alpha + j*beta, beta), so the first vertex of the run
    that holds it is a closed form.  A monomial of negative value is in
    no vertex ring, so it gets None at the root, with no vertex
    examined.  Raises ValueError, as the walk does, when nu(x) or nu(y)
    is not positive or the two are equal, and when ``max_steps`` is
    negative or not an integer.  A budget of 0 starts no walk.
    """
    max_steps = _integer(max_steps, "max_steps")
    if max_steps < 0:
        raise ValueError("max_steps must not be negative")
    index = 0  # of the run's first vertex
    for start, n in walk_runs(nu) if max_steps else ():
        # Past the walk's checks: each vertex ring's two generators have
        # positive values, so no monomial of negative value lies in one.
        if index == 0 and nu.sign(nu(mono)) < 0:
            return None
        alpha, beta = lattice_solve(mono, _vertex_at(start, 0))
        if beta >= 0:  # beta = 0 makes mono f^alpha, so alpha >= 0: its value is not negative
            j = 0 if alpha >= 0 else -(alpha // beta)  # the least j with alpha + j*beta >= 0
            if (n is None or j < n) and index + j < max_steps:
                return index + j
        if n is None or index + n >= max_steps:
            return None
        index += n
    return None
