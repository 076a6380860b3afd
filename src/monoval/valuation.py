"""Monomial valuations on rational functions in x and y.

A :class:`Value` is the lattice point ``(m, n)`` standing for
``m*nu(x) + n*nu(y)``; the order those points carry is the job of a value
group.  Three groups are implemented: exact rational values for x and y,
a continued-fraction stream ratio (``nu(x)`` irrational, ``nu(y) = 1``),
and ``Z^2`` with lexicographic order.  A polynomial's value is the minimum
of its term values under the group order; the zero polynomial has no
finite value and evaluating it raises ``ZeroPolynomialError``, which keeps
:class:`Value` a pure group element.

Besides comparing values, every group supplies the continued-fraction
digits of ``nu(x)/nu(y)`` (``ratio_digits``): Euclid quotients of the
rational group's integer weights, the stream's own digits, or exact
lexicographic floor division on ``Z^2``, where a digit may be
``UNBOUNDED``.  The positive path is read off those digits without a
single comparison (see ``valtree``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, NamedTuple, Optional

from .exactnum import CFStream, _integer, _record, euclid_digits, stream_compare
from .laurent import (
    Coefficient,
    LaurentPolynomial,
    Monomial,
    RationalFunction,
    ZeroPolynomialError,
    _exact,
)


@_record
class Value(NamedTuple):
    """The group element ``m*nu(x) + n*nu(y)``."""

    m: int
    n: int

    def __add__(self, other: "Value") -> "Value":
        return Value(self.m + other.m, self.n + other.n)

    def __sub__(self, other: "Value") -> "Value":
        return Value(self.m - other.m, self.n - other.n)

    def __neg__(self) -> "Value":
        return Value(-self.m, -self.n)


ZERO = Value(0, 0)

# A continued-fraction digit with no bound: no multiple of the smaller
# value reaches the larger one.  It is always the last digit.
UNBOUNDED = None


def _int_sign(x) -> int:
    return (x > 0) - (x < 0)


class RationalRatioGroup:
    """Both ``nu(x)`` and ``nu(y)`` are exact positive rationals, ``vx`` and ``vy``.

    Either may be the larger.  Each weight is held in the normal form of
    a polynomial coefficient (``laurent._exact``): an ``int`` when it is
    integral, however it was given, else a ``Fraction``; ``realize``
    returns the same form.  Comparison is exact, never approximate:
    multiplying both values by den(nu(x)) * den(nu(y)) > 0 gives the
    integer weights ``px``, ``py``, so ``m*nu(x) + n*nu(y)`` has the sign
    of ``m*px + n*py``.  For integer weights ``px``, ``py`` are the
    weights themselves, and no ``Fraction`` is built.
    """

    def __init__(self, vx, vy):
        vx, vy = _exact(vx), _exact(vy)
        if vx <= 0 or vy <= 0:
            raise ValueError("nu(x) and nu(y) must both be positive")
        self.vx = vx
        self.vy = vy
        self.px = vx.numerator * vy.denominator
        self.py = vy.numerator * vx.denominator

    def realize(self, v: Value) -> Coefficient:
        return _exact(v.m * self.vx + v.n * self.vy)

    def compare(self, v1: Value, v2: Value) -> int:
        return _int_sign((v1.m - v2.m) * self.px + (v1.n - v2.n) * self.py)

    def sign(self, v: Value) -> int:
        return _int_sign(v.m * self.px + v.n * self.py)

    def ratio_digits(self) -> Iterator[int]:
        """Digits of nu(x)/nu(y): Euclid quotients of ``px``, ``py``."""
        return euclid_digits(self.px, self.py)

    def describe(self) -> str:
        return f"nu(x) = {self.vx}, nu(y) = {self.vy}"


class StreamRatioGroup:
    """``nu(x)`` is a continued-fraction stream, ``nu(y) = 1``.

    Fixing ``nu(y) = 1`` uses up the scaling freedom, so the stream alone
    determines the group.  ``m*nu(x) + n*nu(y)`` with m != 0 has the sign
    of ``nu(x) - (-n/m)`` times the sign of m, and ``stream_compare``
    decides the former from digits.
    """

    def __init__(self, stream: CFStream):
        self.stream = stream

    def compare(self, v1: Value, v2: Value) -> int:
        dm = v1.m - v2.m
        dn = v1.n - v2.n
        if dm == 0:
            return _int_sign(dn)
        s = stream_compare(self.stream, Fraction(-dn, dm))
        return s if dm > 0 else -s

    def sign(self, v: Value) -> int:
        return self.compare(v, ZERO)

    def ratio_digits(self) -> Iterator[int]:
        """Digits of nu(x)/nu(y) = nu(x): the stream's own, without end."""
        return self.stream.digits()

    def describe(self) -> str:
        return f"nu(x) = {self.stream}, nu(y) = 1"


class LexZ2Group:
    """``nu(x)`` and ``nu(y)`` live in Z^2 with lexicographic order."""

    def __init__(self, vx: tuple[int, int], vy: tuple[int, int]):
        self.vx = (_integer(vx[0], "nu(x)[0]"), _integer(vx[1], "nu(x)[1]"))
        self.vy = (_integer(vy[0], "nu(y)[0]"), _integer(vy[1], "nu(y)[1]"))

    def realize(self, v: Value) -> tuple[int, int]:
        return (
            v.m * self.vx[0] + v.n * self.vy[0],
            v.m * self.vx[1] + v.n * self.vy[1],
        )

    def compare(self, v1: Value, v2: Value) -> int:
        w1, w2 = self.realize(v1), self.realize(v2)
        return (w1 > w2) - (w1 < w2)

    def sign(self, v: Value) -> int:
        return self.compare(v, ZERO)

    def ratio_digits(self) -> Iterator[Optional[int]]:
        """Digits of nu(x)/nu(y) by exact lexicographic floor division.

        A digit is the largest m with ``big - m*small >= 0``, and the
        remainder becomes the next smaller value; a zero remainder ends
        the expansion.  When ``small`` lies on the second axis and ``big``
        does not, every multiple of ``small`` stays below ``big``: the
        digit is ``UNBOUNDED`` and ends the expansion.
        """
        big, small = self.vx, self.vy
        if big <= (0, 0) or small <= (0, 0):
            raise ValueError("nu(x) and nu(y) must both be positive")
        while True:
            if small[0]:
                q, r = divmod(big[0], small[0])
                if r == 0 and big[1] < q * small[1]:
                    q -= 1
            elif big[0]:
                yield UNBOUNDED
                return
            else:
                q = big[1] // small[1]
            yield q
            rest = (big[0] - q * small[0], big[1] - q * small[1])
            if rest == (0, 0):
                return
            big, small = small, rest

    def describe(self) -> str:
        return f"nu(x) = {self.vx}, nu(y) = {self.vy} in Z^2 (lex)"


class MonomialValuation:
    """Evaluate a monomial valuation on monomials, polynomials, quotients.

    The value of a monomial is its exponent pair; the value of a nonzero
    polynomial is the minimum term value under the group order; the value
    of a quotient is the difference, which is independent of the chosen
    representative.
    """

    def __init__(self, group):
        self.group = group

    @classmethod
    def rational(cls, vx, vy) -> "MonomialValuation":
        return cls(RationalRatioGroup(vx, vy))

    @classmethod
    def from_stream(cls, stream: CFStream) -> "MonomialValuation":
        return cls(StreamRatioGroup(stream))

    @classmethod
    def lex(cls, vx: tuple[int, int], vy: tuple[int, int]) -> "MonomialValuation":
        return cls(LexZ2Group(vx, vy))

    def __call__(self, obj) -> Value:
        if isinstance(obj, Monomial):
            return Value(obj.ex, obj.ey)
        if isinstance(obj, LaurentPolynomial):
            if obj.is_zero:
                raise ZeroPolynomialError(
                    "the zero polynomial has value infinity, not a group element"
                )
            best: Value | None = None
            for mono, _ in obj.terms():
                v = Value(mono.ex, mono.ey)
                if best is None or self.group.compare(v, best) < 0:
                    best = v
            return best  # type: ignore[return-value]
        if isinstance(obj, RationalFunction):
            return self(obj.numerator) - self(obj.denominator)
        raise TypeError(f"cannot evaluate a valuation on {type(obj).__name__}")

    def compare(self, v1: Value, v2: Value) -> int:
        return self.group.compare(v1, v2)

    def sign(self, v: Value) -> int:
        return self.group.sign(v)

    def is_positive(self, obj) -> bool:
        return self.sign(self(obj)) > 0

    def describe(self) -> str:
        return self.group.describe()
