"""Sparse Laurent polynomials in two variables with exact coefficients.

Monomials are exponent pairs ``x^ex * y^ey`` (exponents may be negative),
polynomials are finite maps from plain ``(ex, ey)`` int pairs to exact
rational coefficients, and a chart basis is a pair of monomials whose
exponent matrix is unimodular, giving a bijective change of lattice
coordinates; the same pair is a vertex k[f, g] of the tree of coordinate
rings.  Polynomial arithmetic works on the pairs and builds a
``Monomial`` only where the API returns one (``terms``, ``monomials``,
the printed forms, the content of ``factor_monomial_content``).
A coefficient is held as a Python ``int`` until a non-integer rational
appears, which is held as a ``Fraction``; a ``Fraction`` that reduces to
an integer is stored as that ``int``, so equal polynomials have equal
term maps.  That normal form is made in one place, ``_normal``: the
constructor, ``+`` and both products (by a polynomial and by a scalar)
only sum coefficients into a dict and pass it through ``_normal`` once.
``monomial`` builds a one-term map and tests its one coefficient itself,
as a pass over a dict would cost more than the test.  Negation,
``shift``, ``rewrite_in_chart`` and ``expand_from_chart`` negate or move
the terms of a map already in normal form, which can make no zero and no
integral ``Fraction``, so they wrap their maps as they are.
``Monomial`` refuses assignment; the other values are
read-only by convention, as no function here changes one.  Term
iteration is ordered so emitted artifacts are bit-stable.

A monomial prints in reduced fraction form, ``y^3/x^2``.  ``monomial_name``,
which ``Monomial.__str__`` calls, and ``monomial_names``, which names a
monomial and its inverse from one printing of each exponent, both
assemble the form with ``_fraction_form``.

``path_names`` is the one place a path's vertices are named: it names
the two generators of every vertex of a path's runs, or of a trace's,
whose bad charts are a path's vertices.  ``_stretch_names`` names g/f^j
for a range of j, the second generators along a run, without the
inverses for ``path_names`` and with them as the trace emitters name a
run of blow-ups.  The exponents of g/f^j are affine in j, so the range
splits into stretches over which each keeps one sign and an absolute
value of at least 2, or stays constant; such a stretch prints in one
shape.  The j where an exponent is -1, 0 or 1 stand alone.  A stretch of
``_SHORT_RUN`` names or more is filled from two lists of powers, each
exponent printed once, and one f-string comprehension per shape:
``_shapes`` writes ``_fraction_form``'s shapes out over lists, the one
other place they are written, and the tests compare the two at every j.
A shorter piece, and the whole of a range shorter than ``_SHORT_RUN``,
which is then not cut at all, is named a row at a time by
``monomial_names`` or ``monomial_name``: a stretch costs more to set up
than it saves there.  A stretch holds at most ``_STRETCH`` names, so
memory stays flat on a long run.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from fractions import Fraction
from itertools import chain, count, islice, repeat
from typing import Tuple, Union


class ZeroPolynomialError(ValueError):
    """An operation that needs a nonzero polynomial received zero."""


class Monomial:
    """x^ex * y^ey as a point of the exponent lattice.

    Immutable.  Equal only to another ``Monomial``, never to a plain
    tuple; a polynomial's term map is keyed by the (ex, ey) pair, and
    hands out a ``Monomial`` only when asked.
    """

    __slots__ = ("ex", "ey")

    def __init__(self, ex: int, ey: int):
        _set_ex(self, ex)
        _set_ey(self, ey)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable Monomial")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable Monomial")

    def __reduce__(self):
        return (Monomial, (self.ex, self.ey))

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self.ex == other.ex and self.ey == other.ey
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ex, self.ey))

    def __repr__(self) -> str:
        return f"Monomial(ex={self.ex!r}, ey={self.ey!r})"

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(self.ex + other.ex, self.ey + other.ey)

    def __truediv__(self, other: "Monomial") -> "Monomial":
        return Monomial(self.ex - other.ex, self.ey - other.ey)

    def __pow__(self, n: int) -> "Monomial":
        return Monomial(self.ex * n, self.ey * n)

    def inverse(self) -> "Monomial":
        return Monomial(-self.ex, -self.ey)

    @property
    def is_unit(self) -> bool:
        return self.ex == 0 and self.ey == 0

    def __str__(self) -> str:
        """Reduced fraction form, e.g. ``y^3/x^2``; exponent 1 suppressed."""
        return monomial_name(self.ex, self.ey)


def _power(name: str, e: int) -> str:
    """``name`` raised to |e|, exponent 1 suppressed; empty for e = 0."""
    if e > 0:
        return name if e == 1 else f"{name}^{e}"
    if e:
        return name if e == -1 else f"{name}^{-e}"
    return ""


def _fraction_form(x: str, y: str, ex: int, ey: int) -> str:
    """x^ex * y^ey in reduced fraction form, from ``x`` = x^|ex| and ``y`` = y^|ey| as named.

    Positive powers go over the line and negative ones under it, x before
    y; a product under the line is parenthesised.  Only the signs of ex
    and ey are read, so the inverse monomial is the same names with both
    signs flipped (see ``monomial_names``).
    """
    if ex > 0:
        if ey > 0:
            return f"{x}*{y}"
        return f"{x}/{y}" if ey else x
    if ex:
        if ey > 0:
            return f"{y}/{x}"
        return f"1/({x}*{y})" if ey else f"1/{x}"
    if ey > 0:
        return y
    return f"1/{y}" if ey else "1"


def monomial_name(ex: int, ey: int) -> str:
    """``str(Monomial(ex, ey))``, with no ``Monomial`` built."""
    return _fraction_form(_power("x", ex), _power("y", ey), ex, ey)


def monomial_names(ex: int, ey: int) -> tuple[str, str]:
    """``str(Monomial(ex, ey))`` and ``str(Monomial(-ex, -ey))``, each exponent printed once.

    A monomial and its inverse print the same powers on opposite sides
    of the line, and ``str`` of an int takes time quadratic in its length.
    """
    x, y = _power("x", ex), _power("y", ey)
    return _fraction_form(x, y, ex, ey), _fraction_form(x, y, -ex, -ey)


# Names a stretch holds at most, so the memory of a run's names stays flat.
_STRETCH = 1024

# Ranges and pieces shorter than this are named a row at a time.  A stretch
# costs a few microseconds to set up and saves a fraction of one per name,
# so it pays from about 32 rows on, for small and 300-digit exponents alike.
_SHORT_RUN = 32


def _cuts(f: int, g: int, start: int, stop: int) -> range:
    """The j in (start, stop) at which a stretch of x^(g - j*f) must start.

    Those are the j at which g - j*f is -1, 0 or 1, and the first j past
    them.  Between these the exponent keeps one sign and an absolute
    value of at least 2, or stays constant when f = 0, so it prints in one
    shape; when |f| >= 2 the range may hold only the one j at which the
    sign changes.
    """
    if not f:
        return range(0)
    if f < 0:
        f, g = -f, -g
    # j < lo: g - j*f >= 2; lo <= j < hi: |g - j*f| <= 1; j >= hi: g - j*f <= -2
    lo, hi = -((1 - g) // f), -((-2 - g) // f)
    return range(max(lo, start + 1), min(hi + 1, stop))


def _powers(name: str, f: int, e: int, m: int) -> list[str]:
    """``_power(name, e - k*f)`` for k in range(m), where e - k*f keeps e's sign and |e - k*f| >= 2 unless f = 0."""
    if not f:
        return [_power(name, e)] * m
    if e < 0:
        e, f = -e, -f
    # count, not range: a range over big ints multiplies for every item
    return [f"{name}^{v}" for v in islice(count(e, -f), m)]


def _shapes(xs: list[str], ys: list[str], ex: int, ey: int) -> list[str]:
    """``_fraction_form`` of each pair of powers in ``xs`` and ``ys``, all with the signs of ex and ey."""
    if ex > 0:
        if ey > 0:
            return [f"{x}*{y}" for x, y in zip(xs, ys)]
        return [f"{x}/{y}" for x, y in zip(xs, ys)] if ey else xs
    if ex:
        if ey > 0:
            return [f"{y}/{x}" for x, y in zip(xs, ys)]
        return [f"1/({x}*{y})" for x, y in zip(xs, ys)] if ey else [f"1/{x}" for x in xs]
    if ey > 0:
        return ys
    return [f"1/{y}" for y in ys] if ey else ["1"] * len(xs)


def _stretch_names(fx: int, fy: int, gx: int, gy: int, start: int, stop: int, inverses: bool):
    """The names of g/f^j for j in range(start, stop), a list a stretch at a time, and the inverses' when asked.

    A stretch holds at most ``_STRETCH`` values of j, over which both
    exponents of g/f^j keep their shape; a j at which one is -1, 0 or 1
    stands alone.  A range shorter than ``_SHORT_RUN`` is not cut, and a
    piece shorter than it is named a row at a time.
    """
    cuts = ((start, stop) if stop - start < _SHORT_RUN
            else sorted({start, stop, *_cuts(fx, gx, start, stop), *_cuts(fy, gy, start, stop)}))
    for lo, hi in zip(cuts, cuts[1:]):
        for j0 in range(lo, hi, _STRETCH):
            ex, ey, m = gx - j0 * fx, gy - j0 * fy, min(hi - j0, _STRETCH)
            if m < _SHORT_RUN:  # a row at a time
                rows = list(map(monomial_names if inverses else monomial_name,
                                islice(count(ex, -fx), m), count(ey, -fy)))
                yield tuple(map(list, zip(*rows))) if inverses else rows
                continue
            xs, ys = _powers("x", fx, ex, m), _powers("y", fy, ey, m)
            if inverses:
                yield _shapes(xs, ys, ex, ey), _shapes(xs, ys, -ex, -ey)
            else:
                yield _shapes(xs, ys, ex, ey)


def path_names(runs: Iterable) -> Iterator[tuple[str, str]]:
    """The names of the two generators of every vertex of nonempty runs ((fx, fy, gx, gy, ...), n), each named once.

    Only the first four ints of a run's start are read, so a path's runs
    and a trace's, whose rows start with the same four, are named alike.
    A run's first generator f is named once for the run, and not at all
    when its exponents are those of the vertex before's f or g: a walked
    path's run starts at the last g of the run before, and a path of one
    run per vertex keeps f down a branch.  All but the last vertex of a
    run of ``_SHORT_RUN`` or more are named by ``_stretch_names``; the
    rest a vertex at a time, as a path has many short runs and a call
    into ``_stretch_names`` for each would cost more than its names.
    """
    px = py = qx = qy = None  # the exponents of the vertex before's f and g, named p and q
    for start, n in runs:
        fx, fy, gx, gy = start[:4]  # a slice, not a starred target: that builds a list per run
        if fx == qx and fy == qy:
            f = q
        elif fx == px and fy == py:
            f = p
        else:
            f = monomial_name(fx, fy)
        if n >= _SHORT_RUN:  # all but the last vertex a stretch at a time
            yield from zip(repeat(f), chain.from_iterable(_stretch_names(fx, fy, gx, gy, 0, n - 1, False)))
            gx -= (n - 1) * fx
            gy -= (n - 1) * fy
            n = 1
        for _ in range(n):
            q = monomial_name(gx, gy)
            yield f, q
            gx -= fx
            gy -= fy
        px, py, p, qx, qy = fx, fy, f, gx + fx, gy + fy


# Slot setters, so construction skips the __setattr__ guard.
_set_ex = Monomial.ex.__set__
_set_ey = Monomial.ey.__set__

UNIT = Monomial(0, 0)
X = Monomial(1, 0)
Y = Monomial(0, 1)

TermMap = Union[Mapping, Iterable[Tuple]]
Coefficient = Union[int, Fraction]
Pair = Tuple[int, int]


def _exact(c) -> Coefficient:
    """``c`` as an exact rational: an ``int`` when integral, else a ``Fraction``."""
    if c.__class__ is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class LaurentPolynomial:
    """Finite map from exponent pairs to nonzero rational coefficients.

    The term map is keyed by plain ``(ex, ey)`` int pairs, so hashing and
    comparing keys costs no Python call; ``terms``, ``monomials`` and the
    printed forms build a ``Monomial`` per term when asked.  The empty map
    is the zero polynomial; zero coefficients are never stored.
    Coefficients are ``int`` or non-integral ``Fraction`` (see the module
    docstring).  Instances are immutable by convention and all arithmetic
    returns fresh values.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: TermMap = ()):
        """Sum the terms given, each keyed by a ``Monomial`` or an (ex, ey) pair."""
        data: dict[Pair, Coefficient] = {}
        items = terms.items() if isinstance(terms, (dict, Mapping)) else terms
        for mono, coeff in items:
            key = _pair(mono)
            data[key] = data.get(key, 0) + _exact(coeff)
        self._terms = _normal(data)

    def __reduce__(self):
        return (LaurentPolynomial, (self._terms,))

    @classmethod
    def zero(cls) -> "LaurentPolynomial":
        return cls()

    @classmethod
    def constant(cls, c) -> "LaurentPolynomial":
        return cls.monomial(UNIT, c)

    @classmethod
    def monomial(cls, mono: Monomial | Pair, coeff=1) -> "LaurentPolynomial":
        coeff = _exact(coeff)
        return _from_terms({_pair(mono): coeff} if coeff else {})

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> list[tuple[Monomial, Coefficient]]:
        """Terms sorted lexicographically on (ex, ey)."""
        return [(Monomial(ex, ey), c) for (ex, ey), c in sorted(self._terms.items())]

    def monomials(self) -> list[Monomial]:
        return [Monomial(ex, ey) for ex, ey in sorted(self._terms)]

    def coefficient(self, mono: Monomial | Pair) -> Coefficient:
        """The coefficient of a ``Monomial`` or an (ex, ey) pair; 0 when absent."""
        return self._terms.get(_pair(mono), 0)

    def min_exponents(self) -> tuple[int, int]:
        """Componentwise minimum of the exponents over all terms."""
        if self.is_zero:
            raise ZeroPolynomialError("zero polynomial has no exponents")
        return min(ex for ex, _ in self._terms), min(ey for _, ey in self._terms)

    def shift(self, mono: Monomial | Pair) -> "LaurentPolynomial":
        """Multiply by a single monomial."""
        dx, dy = _pair(mono)
        return _from_terms({(ex + dx, ey + dy): c for (ex, ey), c in self._terms.items()})

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __neg__(self) -> "LaurentPolynomial":
        return _from_terms({m: -c for m, c in self._terms.items()})

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        data = dict(self._terms)
        for m, c in other._terms.items():
            data[m] = data.get(m, 0) + c
        return _from_terms(_normal(data))

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        return self + (-other)

    def __mul__(self, other) -> "LaurentPolynomial":
        if isinstance(other, LaurentPolynomial):
            data: dict[Pair, Coefficient] = {}
            for (ex, ey), c1 in self._terms.items():
                for (ex2, ey2), c2 in other._terms.items():
                    m = (ex + ex2, ey + ey2)
                    data[m] = data.get(m, 0) + c1 * c2
            return _from_terms(_normal(data))
        if isinstance(other, (int, Fraction)):
            return _from_terms(_normal({m: c * other for m, c in self._terms.items()}))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPolynomial":
        if n < 0:
            raise ValueError("negative powers live in RationalFunction")
        result = LaurentPolynomial.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:  # no square after the last bit
                base = base * base
        return result

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for mono, c in self.terms():
            mag = abs(c)
            if mono.is_unit:
                piece = str(mag)
            elif mag == 1:
                piece = str(mono)
            else:
                piece = f"{mag}*{mono}"
            if not parts:
                parts.append(piece if c > 0 else f"-{piece}")
            else:
                parts.append(f"+ {piece}" if c > 0 else f"- {piece}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPolynomial({dict(self.terms())!r})"


def _pair(mono) -> Pair:
    """The (ex, ey) key of a ``Monomial``, or of a pair given as a tuple or list."""
    if isinstance(mono, Monomial):
        return (mono.ex, mono.ey)
    ex, ey = mono
    return (ex, ey)


def _normal(data: dict) -> dict:
    """``data`` in normal form, in place: no zero coefficient, and an integral ``Fraction`` as its ``int``.

    Only the terms whose coefficient is not a nonzero ``int`` are
    visited; each is taken out and, unless zero, put back in normal form.
    No result depends on the order of a term map.
    """
    for m in [m for m, c in data.items() if c.__class__ is not int or not c]:
        c = data.pop(m)
        if c:
            data[m] = c.numerator if c.denominator == 1 else c
    return data


def _from_terms(data: dict) -> LaurentPolynomial:
    """Wrap a term map keyed by (ex, ey) pairs that is already in normal form."""
    out = object.__new__(LaurentPolynomial)
    out._terms = data
    return out


class ChartBasis:
    """Monomials (f, g) whose exponent matrix has determinant +-1.

    The pair is both a chart basis, with ordered coordinates c1 = f and
    c2 = g, and the tree vertex k[f, g], a ring: ``f`` and ``g`` keep their
    order, while equality and hash ignore it.
    """

    __slots__ = ("f", "g", "det")

    def __init__(self, f: Monomial, g: Monomial):
        det = f.ex * g.ey - g.ex * f.ey
        if abs(det) != 1:
            raise ValueError(f"generators ({f}, {g}) are not unimodular (det {det})")
        self.f = f
        self.g = g
        self.det = det

    def __reduce__(self):
        return (ChartBasis, (self.f, self.g))

    @property
    def generators(self) -> tuple[Monomial, Monomial]:
        return (self.f, self.g)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return {self.f, self.g} == {other.f, other.g}

    def __hash__(self) -> int:
        return hash(frozenset((self.f, self.g)))

    def __str__(self) -> str:
        return f"k[{self.f}, {self.g}]"

    def __repr__(self) -> str:
        return f"ChartBasis({self.f!r}, {self.g!r})"


IDENTITY_BASIS = ChartBasis(X, Y)


def lattice_solve(target: Monomial | Pair, basis: ChartBasis) -> tuple[int, int]:
    """Integer pair (alpha, beta) with ``basis.f**alpha * basis.g**beta == target``.

    ``target`` is a ``Monomial`` or an (ex, ey) pair.  Unimodularity makes
    the solution exist and be unique for every lattice point: the inverse
    of the exponent matrix is again integral.
    """
    ex, ey = _pair(target)
    f, g, d = basis.f, basis.g, basis.det  # d is +-1, so dividing by it is multiplying by it
    return (g.ey * ex - g.ex * ey) * d, (f.ex * ey - f.ey * ex) * d


def rewrite_in_chart(p: LaurentPolynomial, basis: ChartBasis) -> LaurentPolynomial:
    """Rewrite ``p`` so exponent pairs count powers of ``basis.f`` and ``basis.g``.

    Termwise :func:`lattice_solve` on the pairs; the exponent map is a
    bijection, so this is a ring isomorphism on Laurent polynomials and
    substituting the basis monomials back recovers ``p`` exactly.
    """
    return _from_terms({lattice_solve(m, basis): c for m, c in p._terms.items()})


def expand_from_chart(p: LaurentPolynomial, basis: ChartBasis) -> LaurentPolynomial:
    """Inverse of :func:`rewrite_in_chart`: substitute the basis monomials back.

    The exponent map is a bijection, so distinct terms never collide.
    """
    f, g = basis.f, basis.g
    fx, fy, gx, gy = f.ex, f.ey, g.ex, g.ey
    return _from_terms(
        {(fx * i + gx * j, fy * i + gy * j): c for (i, j), c in p._terms.items()}
    )


def factor_monomial_content(p: LaurentPolynomial) -> tuple[Monomial, LaurentPolynomial]:
    """Split ``p`` into a monomial content and a primitive part.

    The primitive part has componentwise-minimal exponent 0 in each
    variable, and ``content * primitive == p`` exactly.
    """
    if p.is_zero:
        raise ZeroPolynomialError("zero polynomial has no monomial content")
    ex0, ey0 = p.min_exponents()
    return Monomial(ex0, ey0), p.shift((-ex0, -ey0))


class RationalFunction:
    """Quotient of two Laurent polynomials with nonzero denominator.

    Quotients stay unreduced (no gcd machinery); equality compares cross
    products, so the representative never matters.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: LaurentPolynomial, denominator: LaurentPolynomial | None = None):
        if denominator is None:
            denominator = LaurentPolynomial.constant(1)
        if denominator.is_zero:
            raise ZeroDivisionError("zero denominator")
        self.numerator = numerator
        self.denominator = denominator

    def __reduce__(self):
        return (RationalFunction, (self.numerator, self.denominator))

    @classmethod
    def constant(cls, c) -> "RationalFunction":
        return cls(LaurentPolynomial.constant(c))

    @classmethod
    def from_monomial(cls, mono: Monomial, coeff=1) -> "RationalFunction":
        return cls(LaurentPolynomial.monomial(mono, coeff))

    @property
    def is_zero(self) -> bool:
        return self.numerator.is_zero

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.numerator * other.denominator == other.numerator * self.denominator

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.numerator, self.denominator)

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            self.numerator * other.denominator + other.numerator * self.denominator,
            self.denominator * other.denominator,
        )

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self + (-other)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            self.numerator * other.numerator, self.denominator * other.denominator
        )

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        if other.numerator.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(
            self.numerator * other.denominator, self.denominator * other.numerator
        )

    def __pow__(self, n: int) -> "RationalFunction":
        if n < 0:
            if self.numerator.is_zero:
                raise ZeroDivisionError("cannot invert the zero rational function")
            return RationalFunction(self.denominator ** (-n), self.numerator ** (-n))
        return RationalFunction(self.numerator ** n, self.denominator ** n)

    def __str__(self) -> str:
        if self.denominator == LaurentPolynomial.constant(1):
            return str(self.numerator)
        return f"({self.numerator})/({self.denominator})"

    def __repr__(self) -> str:
        return f"RationalFunction({self.numerator!r}, {self.denominator!r})"
