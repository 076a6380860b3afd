"""Exact rationals and continued fractions.

Rationals are stdlib ``fractions.Fraction`` values, which already keep the
lowest-terms, positive-denominator normal form the rest of the package
relies on.  On top of that live finite continued-fraction expansions
(digit tuples), lazily evaluated digit streams standing in for irrational
numbers, and the two digit recurrences everything else builds on: Euclid
quotients (``euclid_digits``) and convergents (``iter_convergents``, the
only place the h/k recurrence is written).  The sign of
``stream - rational`` is read off the first digit where the two
expansions differ, without ever touching floating point.  Every digit
of an expansion or a periodic stream prints by one rule,
``_digit_strings``: a small digit's decimal string is read from a table
built at import, and any other digit is printed by ``str``.  The module
also holds what the other modules' values share: ``_integer``, which
reads an integer argument, and ``_record``, which gives a named tuple a
frozen dataclass's equality.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count as _count, islice
from math import gcd
from typing import Callable, Iterable, Iterator, Union

Rational = Fraction

LESS = -1
GREATER = 1


def _frozen(self, name: str, value=None):
    """``__setattr__`` and ``__delattr__`` of a value that refuses assignment."""
    raise AttributeError(f"cannot assign to field {name!r}")


_tuple_eq, _tuple_ne = tuple.__eq__, tuple.__ne__


def _record_eq(self, other) -> bool:
    return type(other) is type(self) and _tuple_eq(self, other)


def _record_ne(self, other) -> bool:
    return type(other) is not type(self) or _tuple_ne(self, other)


def _unordered(self, other):
    return NotImplemented


def _record_reduce(self):
    return type(self), tuple(self)


def _record(cls: type) -> type:
    """Make a named-tuple class a record: equal only to its own type, unordered, frozen.

    A plain named tuple equals any tuple of the same items, so ``Sum`` and
    ``Product`` nodes of one layout would compare equal, and ``<`` would
    order ``Value``s as pairs of ints, not as group elements.  Its
    ``hash`` stays the tuple's.  Assignment is refused.  Copies and
    pickles rebuild a record from its fields through its constructor.
    """
    cls.__eq__, cls.__ne__ = _record_eq, _record_ne
    cls.__lt__ = cls.__le__ = cls.__gt__ = cls.__ge__ = _unordered
    cls.__setattr__ = cls.__delattr__ = _frozen
    cls.__reduce__ = _record_reduce
    return cls


# The decimal strings of the digits 0 to 255, read by ``_digit_strings``.
# Almost every continued-fraction digit is small: by Gauss-Kuzmin, a digit
# of a typical real is 256 or more with probability log2(257/256), about
# 0.56%.  Reading a string from a tuple costs a fraction of a ``str`` call.
_DIGIT_STRINGS = tuple(map(str, range(256)))
_TABLED = len(_DIGIT_STRINGS)


def _digit_strings(digits: Iterable[int]) -> list[str]:
    """``[str(d) for d in digits]``, each digit from 0 to 255 read from ``_DIGIT_STRINGS``.

    A negative leading digit, or one past the table, is printed by
    ``str``, so one too long to print raises ``str``'s ValueError.
    """
    return [_DIGIT_STRINGS[d] if 0 <= d < _TABLED else str(d) for d in digits]


class CFExpansion:
    """A finite continued fraction ``[d0; d1, ..., dk]``.

    The leading digit may be any integer; every later digit must be at
    least 1.  Canonical form additionally requires the last digit to be
    at least 2 unless the expansion is a single digit, which makes the
    expansion of a rational number unique.  ``digits`` is a tuple of
    ints, each read with ``_integer``: 2.0 is kept as 2, and 1.5 is
    refused, as is a string of digits.  An expansion refuses assignment,
    and ``len`` is its number of digits.
    """

    __slots__ = ("digits",)

    def __init__(self, digits: Iterable[int]):
        if isinstance(digits, str):  # else read a character per digit
            raise TypeError("digits must be an iterable of integers, not str")
        digits = tuple(_integer(d, f"digit {i}") for i, d in enumerate(digits))
        if not digits:
            raise ValueError("expansion needs at least one digit")
        for i, d in enumerate(digits):
            if i >= 1 and d < 1:
                raise ValueError(f"digit {i} is {_quoted(d)}; digits past the first must be >= 1")
        _set_digits(self, digits)

    __setattr__ = __delattr__ = _frozen

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.digits == other.digits

    def __hash__(self) -> int:
        return hash(self.digits)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(digits={self.digits!r})"

    def __reduce__(self):
        return type(self), (self.digits,)

    @property
    def is_canonical(self) -> bool:
        return len(self.digits) == 1 or self.digits[-1] >= 2

    def digit_sum(self) -> int:
        return sum(self.digits)

    def __len__(self) -> int:
        return len(self.digits)

    def __str__(self) -> str:
        head, *tail = _digit_strings(self.digits)
        if not tail:
            return f"[{head}]"
        return f"[{head}; {', '.join(tail)}]"


_set_digits = CFExpansion.digits.__set__


def _expansion(digits: tuple[int, ...]) -> CFExpansion:
    """The ``CFExpansion`` of a tuple of ints already known to be valid, unchecked."""
    cf = object.__new__(CFExpansion)
    _set_digits(cf, digits)
    return cf


def _expansion_digits(cf) -> tuple[int, ...]:
    """``cf.digits``; a TypeError unless ``cf`` is a ``CFExpansion``."""
    if not isinstance(cf, CFExpansion):
        raise TypeError(f"cf must be a CFExpansion, not {type(cf).__name__}")
    return cf.digits


class CFStream:
    """Digit source for an infinite continued fraction.

    ``source`` must be a pure function of the index (no hidden mutable
    state), producing an integer ``d0`` at index 0 and positive digits
    afterwards; ``digit`` checks each digit it reads.  ``periodic`` is the
    pattern ``(preperiod, period)`` of a stream made by ``from_periodic``,
    and None for any other.  ``from_periodic`` checks the pattern's
    digits once, and ``digit`` reads such a stream's digits from it with
    no further check.  Streams never materialize their value; consumers
    work through digits and convergents.
    """

    def __init__(self, source: Callable[[int], int]):
        self._source = source
        self._pattern = None  # (preperiod, its length, period, its length) of a checked pattern
        self.periodic = None

    @classmethod
    def from_periodic(cls, preperiod, period) -> "CFStream":
        """Stream for an eventually periodic digit sequence.

        ``preperiod`` holds at least the integer digit d0; ``period``
        repeats forever after it.
        """
        for name, digits in (("preperiod", preperiod), ("period", period)):
            if isinstance(digits, str):  # else read a character per digit
                raise TypeError(f"{name} must be an iterable of integers, not str")
        pre = tuple(_integer(d, "a digit") for d in preperiod)
        per = tuple(_integer(d, "a digit") for d in period)
        if not pre:
            raise ValueError("preperiod needs at least the integer digit d0")
        if not per:
            raise ValueError("period must be nonempty")
        if any(d < 1 for d in pre[1:]) or any(d < 1 for d in per):
            raise ValueError("digits past the first must be >= 1")
        stream = cls(None)  # ``digit`` reads the pattern, and no source
        stream._pattern = (pre, len(pre), per, len(per))
        stream.periodic = (pre, per)
        return stream

    def digits(self) -> Iterator[int]:
        """The digits d0, d1, ... in order, without end."""
        return map(self.digit, _count())

    def digit(self, i: int) -> int:
        if i < 0:
            raise IndexError("digit index must be nonnegative")
        if self._pattern is not None:
            pre, cut, per, period = self._pattern
            return pre[i] if i < cut else per[(i - cut) % period]
        d = _integer(self._source(i), "a stream digit")
        if i >= 1 and d < 1:
            raise ValueError(f"stream produced digit {_quoted(d)} at index {_quoted(i)}; must be >= 1")
        return d

    def __str__(self) -> str:
        if self.periodic is not None:
            pre, per = self.periodic
            head = ", ".join(_digit_strings(pre))
            body = ", ".join(_digit_strings(per))
            return f"[{head}; ({body})...]"
        return "<digit stream>"


def sqrt2_stream() -> CFStream:
    """The stream [1; 2, 2, 2, ...], whose value is the square root of 2."""
    return CFStream.from_periodic((1,), (2,))


def _integer(x, what: str) -> int:
    """``int(x)`` for a string or an integral value; for any other number x, a ValueError naming ``what``.

    A bool is an integral value, as ``operator.index`` reads it: True is 1
    and False is 0.  An infinite or NaN float is refused as 1.5 is; a
    string that ``int`` refuses keeps ``int``'s own message, and a value
    it reads no number from, such as None, its TypeError.
    """
    try:
        n = int(x)
    except (OverflowError, ValueError):  # an infinite or NaN float, or a string
        if isinstance(x, str):
            raise
        n = None
    if n != x and not isinstance(x, str):
        raise ValueError(f"{what} must be an integer, not {_quoted(x)}")
    return n


def _quoted(x) -> str:
    """``repr(x)``, clipped by ``_clipped``: a message quoting x stays short.

    Where ``repr`` refuses with a ValueError, as it refuses an int longer
    than the interpreter prints, this says so in a few words instead.
    """
    try:
        return _clipped(repr(x))
    except ValueError:
        return f"<{type(x).__name__} too long to print>"


def _clipped(text: str) -> str:
    """``text``, or its first 64 characters and '...'."""
    return text if len(text) <= 64 else text[:64] + "..."


def _require_coprime(a: int, b: int) -> None:
    """ValueError unless gcd(a, b) = 1."""
    if gcd(a, b) != 1:
        raise ValueError(f"({_quoted(a)}, {_quoted(b)}) are not coprime")


# Miller-Rabin on the first 13 primes decides primality exactly below this
# bound (Sorenson and Webster, 2015).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Whether n is prime, exactly, for n below ``_PRIME_TEST_BOUND``."""
    if n < 2:
        return False
    for p in _PRIME_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for base in _PRIME_BASES:
        x = pow(base, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _coprime_pair(a, b, least_b: int = 1) -> tuple[int, int]:
    """``(a, b)`` as ints for coprime a > b >= ``least_b``, which is 1 or 2; else ValueError."""
    a, b = _integer(a, "a"), _integer(b, "b")
    if not a > b >= least_b:
        raise ValueError("need a > b > 1" if least_b == 2 else "need a > b >= 1")
    _require_coprime(a, b)
    return a, b


def cf_expand(r) -> CFExpansion:
    """Expand a rational into its canonical continued fraction.

    Runs the floor/reciprocal recursion, which on a fraction a/b is the
    Euclidean algorithm on (a, b); the quotients are the digits.  The
    result always has last digit >= 2 (or is a single digit), so expanding
    then evaluating is the identity on rationals.
    """
    r = Fraction(r)
    return _expansion(tuple(euclid_digits(r.numerator, r.denominator)))


def euclid_digits(n: int, d: int) -> Iterator[int]:
    """Quotients of the Euclidean algorithm on (n, d), for d > 0.

    These are the canonical continued-fraction digits of n/d, produced
    lazily: the last one is at least 2 unless it is the only one.
    """
    while True:
        q, rem = divmod(n, d)
        yield q
        if rem == 0:
            return
        n, d = d, rem


def cf_value(cf: CFExpansion) -> Fraction:
    """Exact value of a finite expansion: its last convergent."""
    for value in iter_convergents(_expansion_digits(cf)):
        pass
    return value


def cf_canonicalize(cf: CFExpansion) -> CFExpansion:
    """Merge a trailing digit 1 into its predecessor; the value is unchanged.

    One merge suffices: the new last digit is the old next-to-last plus
    one, hence at least 2.
    """
    digits = _expansion_digits(cf)
    if len(digits) > 1 and digits[-1] == 1:
        return _expansion(digits[:-2] + (digits[-2] + 1,))
    return cf


def cf_alternate(cf: CFExpansion) -> CFExpansion:
    """The other expansion of the same value.

    A canonical expansion ``[..., d]`` becomes ``[..., d - 1, 1]``; one
    already ending in 1 collapses back to canonical form.  Both forms have
    the same digit sum.
    """
    digits = _expansion_digits(cf)
    if len(digits) > 1 and digits[-1] == 1:
        return cf_canonicalize(cf)
    return _expansion(digits[:-1] + (digits[-1] - 1, 1))


def iter_convergents(digits: Iterable[int]) -> Iterator[Fraction]:
    """Convergents h_i/k_i of ``digits``, one per digit consumed.

    The standard two-term recurrence h_i = d_i*h_(i-1) + h_(i-2), and the
    same for k, started from h = (1, 0), k = (0, 1).  Convergents
    alternate around the limit: even-indexed ones from below, odd-indexed
    from above.  Digits are drawn one at a time, so a stream is read no
    further than the convergents taken.
    """
    h, h_prev = 1, 0
    k, k_prev = 0, 1
    for d in digits:
        h, h_prev = d * h + h_prev, h
        k, k_prev = d * k + k_prev, k
        yield Fraction(h, k)


def cf_convergents(cf: Union[CFExpansion, CFStream], count: int) -> tuple[Fraction, ...]:
    """First ``count`` convergents of an expansion or a stream.

    For a finite expansion ``count`` may not exceed the digit supply.
    """
    count = _integer(count, "count")
    if count < 1:
        raise ValueError("count must be positive")
    if isinstance(cf, CFExpansion):
        if count > len(cf.digits):
            raise ValueError(
                f"asked for {_quoted(count)} convergents but only {len(cf.digits)} digits exist"
            )
        digits = cf.digits
    elif isinstance(cf, CFStream):
        digits = cf.digits()
    else:
        raise TypeError(f"cf must be a CFExpansion or a CFStream, not {type(cf).__name__}")
    return tuple(islice(iter_convergents(digits), count))


def stream_compare(rho: CFStream, t) -> int:
    """Sign of ``rho - t`` for an infinite stream and a rational.

    An infinite expansion is irrational, so it never equals ``t``.  The
    first index i where rho's digit d_i differs from t's canonical digit
    e_i decides, or t's last index k when they agree up to it.  After a
    common prefix the larger complete quotient makes the larger value at
    even i and the smaller at odd i.  At i = k with d_k = e_k, rho's
    quotient d_k + 1/x, with x > 1 the rest of the stream, exceeds t's
    e_k.  Reads at most k + 1 digits of ``rho``.
    """
    t = Fraction(t)
    for i, e in enumerate(euclid_digits(t.numerator, t.denominator)):
        d = rho.digit(i)
        if d != e:
            break
    sign = GREATER if d >= e else LESS
    return -sign if i % 2 else sign
