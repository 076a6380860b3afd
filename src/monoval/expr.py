"""Recursive-descent parser for expressions in x and y, and their valuation.

Grammar (whitespace insensitive)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := (integer | 'x' | 'y' | '(' expr ')' | '-' factor) ('^' ['-'] integer)?

Integer literals lower to exact rational constants; rational values such
as 3/2 arise through the quotient operator.  Parsing builds a small AST,
and lowering evaluates it over RationalFunction arithmetic, rejecting
division by anything that lowers to zero.  An integer literal or exponent
with more digits than ``int`` reads (``sys.get_int_max_str_digits()``) is
a ``LongIntegerError``.

``initial_value`` finds nu(f) for the monomial valuation nu(x) = a,
nu(y) = b without expanding f.  It carries each node's initial form, the
terms of least weight a*i + b*j of a numerator over those of a
denominator, with its value (m, n): in(fg) = in(f) in(g), in(f/g) =
in(f)/in(g), in(f^n) = in(f)^n, and a sum takes the operand of lower
weight a*m + b*n.  The value is that of the lex-least term of the
numerator's initial form less the denominator's, which a product, a
quotient and a power carry as its sum, difference and multiple, so it is
exactly ``MonomialValuation.rational(a, b)(lower(node))``.  Values and
zeros are found at once, but a form is kept pending, as the expression
node that ``_lower`` builds it from, until a sum of equal weights reads
it; so neither the answer nor the operand a sum drops builds a form.  A
subexpression with no sum in it is its own pending form, the parsed node
itself (a zeroth power's form is the constant 1).  A product, quotient,
power or negation over an operand whose form changed is a new node of
that type at the same position.  A sum of equal weights is left
unforced too: its two forms may cancel, which only raises its weight or
makes it zero, so an enclosing sum whose other operand is strictly
lighter drops it unbuilt.  Any other sum or the answer forces it: it
builds and adds the two initial forms, and reads its value off the
built form with ``MonomialValuation.rational(a, b)``.  When they
cancel, that sum alone is computed exactly, by ``lower``'s arithmetic,
and its initial form is read off the exact value.  A form already built is a leaf of the nodes that use it.  Along
a chain the exact value of the prefix is kept, so each operand is
lowered at most once however often the chain cancels.  Zero stays
exact: a node is zero exactly when ``lower`` makes it zero, and both
raise the same errors at the same positions.

``initial_value`` charges every product, quotient, sum and power of
initial forms that it builds against a budget of ``WORK_BUDGET`` units
before it is made, and those of its exact fallback against a second
budget of the same size, so the fallback's exact work is not counted
twice.  A form that is never built is never charged, so only a sum of
equal weights can exhaust the budget.  A unit is one product of two
terms whose coefficients fit in ``BLOCK_BITS`` bits; a term product of
longer coefficients counts the product of their numbers of started
blocks.  A power p^n is charged up front for every product
``LaurentPolynomial.__pow__`` makes, from bounds on each p^k: at most
(k*rx + 1)(k*ry + 1) terms for p's exponent ranges rx and ry, and at
most C(k + t - 1, t - 1) for p's t terms; coefficients at most the k-th
power of the sum of p's, over their common denominator.  A call that
would pass a budget raises ``WorkBudgetError``; it never returns a
truncated value.  The budget admits (x + y)^700 - (x + y)^700 + x^701
with a = b = 1 (about 590,000 units in each budget), and refuses
(x + y)^1200 - (x + y)^1200 + x^1201, whose two powers it would build,
and the exact (x + y)^20000 before any work.  With a = b = 1 it admits
(x + y)^20000 alone, whose form no sum reads, and
x + ((x + y)^1300 + (x + y)^1300), which drops that sum of equal
weights unbuilt.  ``lower`` has no budget.

Parentheses and unary minus signs may nest at most ``MAX_NESTING`` deep;
a deeper expression is an ``ExpressionError``.  The parser reads a
chain of sums, products and quotients in one loop and recurses only into
a parenthesis (two frames) or a unary minus (one).  ``lower`` and
``initial_value``, building a pending form too, likewise recurse only
along that nesting (a long chain such as ``x + x + ... + x`` is walked
in a loop), so the limit keeps them far from the interpreter's recursion
limit.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import partial
from typing import NamedTuple, Optional, Union

from .exactnum import _integer, _quoted, _record
from .laurent import LaurentPolynomial, RationalFunction, X, Y
from .valuation import ZERO, MonomialValuation, Value

# Work units each budget of one ``initial_value`` call holds (see above).
WORK_BUDGET = 1_500_000
# Coefficient bits that one unit of work covers.
BLOCK_BITS = 512


class ExpressionError(ValueError):
    """Syntax or lowering error, with the character position that caused it."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class LongIntegerError(ExpressionError):
    """An integer literal or exponent with more digits than ``int`` reads."""

    def __init__(self, what: str, position: int):
        super().__init__(f"{what} longer than {sys.get_int_max_str_digits()} digits", position)
        self.what = what


class WorkBudgetError(ExpressionError):
    """An operation that would take the evaluation past ``WORK_BUDGET``."""

    def __init__(self, what: str, position: int):
        super().__init__(
            f"the {what} would take the evaluation past its work budget"
            f" of {WORK_BUDGET:,} term products",
            position,
        )


@_record
class Literal(NamedTuple):
    value: Fraction


@_record
class Variable(NamedTuple):
    name: str  # "x" or "y"


@_record
class Negation(NamedTuple):
    operand: "Node"


@_record
class Sum(NamedTuple):
    left: "Node"
    right: "Node"
    position: int  # of the '+' or '-' sign, for lowering-time errors


@_record
class Product(NamedTuple):
    left: "Node"
    right: "Node"
    position: int  # of the '*' sign, for lowering-time errors


@_record
class Quotient(NamedTuple):
    left: "Node"
    right: "Node"
    position: int  # of the '/' sign, for lowering-time errors


@_record
class Power(NamedTuple):
    base: "Node"
    exponent: int
    position: int  # of the '^' sign


Node = Union[Literal, Variable, Negation, Sum, Product, Quotient, Power]


class _Built(NamedTuple):
    """A leaf of a pending initial form that is already built: ``_lower`` reads it as its value."""

    value: RationalFunction


# The characters that are tokens by themselves.
_SYMBOLS = frozenset("xy+-*/^()")

# Each level costs the parser up to two stack frames; the interpreter's
# default recursion limit of 1000 would be reached near 495 levels of
# parentheses (measured on Python 3.10 to 3.13).
MAX_NESTING = 128


def _tokenize(text: str) -> list[tuple[str, int]]:
    """Tokens as (text, position): a run of decimal digits, one of ``_SYMBOLS``, or "" at the end."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append((text[i:j], i))
            i = j
        elif ch in _SYMBOLS:
            tokens.append((ch, i))
            i += 1
        else:
            raise ExpressionError(f"unexpected character {ch!r}", i)
    tokens.append(("", n))
    return tokens


class _Parser:
    """The grammar above, one method per level that recurses: ``expr`` and ``factor``.

    ``expr`` reads a sum of terms and each term's products and quotients
    in one loop.  A term is closed when a sign or the end follows it, so
    both levels are left-deep; a node keeps the position of its sign, and
    a term after '-' is its ``Negation``.  ``factor`` reads a base, which
    recurses into ``expr`` for '(' and into ``factor`` for a unary minus,
    and then at most one exponent.  So a unary minus takes one exponent
    more: ``-x^2^3`` is ``(-(x^2))^3``, and ``x^2^3`` an error at the
    second '^'.
    """

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0  # open parentheses and unary minus signs

    def parse(self) -> Node:
        node = self.expr()
        text, position = self.tokens[self.pos]
        if text:
            raise ExpressionError(f"unexpected {_quoted(text)}", position)
        return node

    def expr(self) -> Node:
        total = sign = None  # the closed terms' sum, and the (text, position) of the sign after it
        node = self.factor()  # the open term
        while True:
            text, position = self.tokens[self.pos]
            if text == "*" or text == "/":
                self.pos += 1
                node = (Product if text == "*" else Quotient)(node, self.factor(), position)
                continue
            if sign is not None:
                node = Sum(total, node if sign[0] == "+" else Negation(node), sign[1])
            if text != "+" and text != "-":
                return node
            self.pos += 1
            total, sign = node, (text, position)
            node = self.factor()

    def factor(self) -> Node:
        text, position = self.tokens[self.pos]
        self.pos += 1
        if text.isdecimal():
            node = Literal(Fraction(_read_int(text, position, "integer")))
        elif text == "x" or text == "y":
            node = Variable(text)
        elif text == "(" or text == "-":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ExpressionError(
                    f"parentheses and unary minus signs nest deeper than {MAX_NESTING} levels",
                    position,
                )
            if text == "-":
                node = Negation(self.factor())
            else:
                node = self.expr()
                text, at = self.tokens[self.pos]
                if text != ")":
                    raise ExpressionError("expected ')'", at)
                self.pos += 1
            self.depth -= 1
        else:
            raise ExpressionError(
                "expected a number, variable, '(' or '-'" if text else "unexpected end of input",
                position,
            )
        text, position = self.tokens[self.pos]
        if text == "^":
            sign = 1
            if self.tokens[self.pos + 1][0] == "-":
                self.pos += 1
                sign = -1
            text, at = self.tokens[self.pos + 1]
            if not text.isdecimal():
                raise ExpressionError("expected an integer exponent", at)
            self.pos += 2
            node = Power(node, sign * _read_int(text, at, "exponent"), position)
        return node


def _read_int(text: str, position: int, what: str) -> int:
    limit = sys.get_int_max_str_digits()
    if limit and len(text) > limit:
        raise LongIntegerError(what, position)
    return int(text)


def parse_expression(text: str) -> Node:
    """Parse the grammar above into an AST; errors carry positions."""
    return _Parser(text).parse()


class _Work:
    """The units of work one evaluation has been charged, and its limit."""

    __slots__ = ("spent", "limit")

    def __init__(self, limit: float = WORK_BUDGET):
        self.spent = 0
        self.limit = limit

    def charge(self, units: int, what: str, position: int) -> None:
        self.spent += units
        if self.spent > self.limit:
            raise WorkBudgetError(what, position)


def _height(p: LaurentPolynomial) -> int:
    """Bits of a bound on p's coefficients, as numerators over their least common denominator.

    The bound is the larger of that denominator and the sum of the
    numerators' absolute values, so the k-th power of the bound bounds
    the coefficients of p^k: their height is at most k times p's.  One
    pass keeps the sum over the common denominator of the terms so far;
    it reads the term map's coefficients in their stored order, with no
    ``Monomial`` built and no sort.
    """
    d, s = 1, 0
    for c in p._terms.values():
        e = math.lcm(d, c.denominator)
        s = s * (e // d) + abs(c.numerator) * (e // c.denominator)
        d = e
    return (max(s, d) - 1).bit_length()


def _size(p: LaurentPolynomial) -> int:
    """Terms times coefficient blocks: a product p*q is charged ``_size(p) * _size(q)``."""
    return len(p) * (1 + _height(p) // BLOCK_BITS)


def _power_units(p: LaurentPolynomial, n: int) -> int:
    """A bound on the units of ``p ** n``; counting stops past the budget.

    ``LaurentPolynomial.__pow__`` multiplies the result so far by the
    square p**s at each set bit of n, and squares p**s after every bit
    but the last, so only the products it makes are counted.  The
    exponent ranges are read from the term map's (ex, ey) keys.
    """
    t = len(p)
    if not t:
        return 0
    h = _height(p)
    xs, ys = zip(*p._terms)
    rx, ry = max(xs) - min(xs), max(ys) - min(ys)

    def size(k: int) -> int:  # a bound on _size(p**k), exact for a single term
        terms = min((k * rx + 1) * (k * ry + 1), math.comb(k + t - 1, t - 1))
        return terms * (1 + k * h // BLOCK_BITS)

    units, r, s = 0, 0, 1  # the result so far is p**r, the square p**s
    while n and units <= WORK_BUDGET:
        if n & 1:
            units += size(r) * size(s)
            r += s
        n >>= 1
        if n:
            units += size(s) ** 2
            s *= 2
    return units


def _power(value: RationalFunction, n: int, position: int, work: _Work) -> RationalFunction:
    """``value ** n``, charged in full before the first product; value is nonzero if n < 0."""
    units = _power_units(value.numerator, abs(n)) + _power_units(value.denominator, abs(n))
    work.charge(units, "power", position)
    return value ** n


def _apply(op: Node, left: RationalFunction, right: RationalFunction, work: _Work) -> RationalFunction:
    """``left`` plus, times or over ``right``, as ``op`` says, charged before it is made."""
    n1, d1 = _size(left.numerator), _size(left.denominator)
    n2, d2 = _size(right.numerator), _size(right.denominator)
    if isinstance(op, Sum):
        work.charge(n1 * d2 + n2 * d1 + d1 * d2, "sum", op.position)
        return left + right
    if isinstance(op, Product):
        work.charge(n1 * n2 + d1 * d2, "product", op.position)
        return left * right
    if right.is_zero:
        raise ExpressionError("division by zero", op.position)
    work.charge(n1 * d2 + d1 * n2, "quotient", op.position)
    return left / right


def lower(node: Node) -> RationalFunction:
    """Evaluate an AST to an exact rational function in x and y, with no work budget."""
    return _lower(node, _Work(math.inf))


def _lower(node: Node, work: _Work) -> RationalFunction:
    """``lower``, charging ``work`` (``WorkBudgetError`` past its limit).

    Sums, products and quotients parse left-deep, so the left spine of a
    chain is walked in a loop and only its right operands recurse; the
    operands are lowered left to right.
    """
    spine = []
    while isinstance(node, (Sum, Product, Quotient)):
        spine.append(node)
        node = node.left
    if isinstance(node, Literal):
        value = RationalFunction.constant(node.value)
    elif isinstance(node, Variable):
        value = RationalFunction.from_monomial(X if node.name == "x" else Y)
    elif isinstance(node, Negation):
        value = -_lower(node.operand, work)
    elif isinstance(node, Power):
        base = _lower(node.base, work)
        if node.exponent < 0 and base.is_zero:
            raise ExpressionError("negative power of zero", node.position)
        value = _power(base, node.exponent, node.position, work)
    elif isinstance(node, _Built):
        value = node.value
    else:
        raise TypeError(f"unknown node {type(node).__name__}")
    for op in reversed(spine):
        value = _apply(op, value, _lower(op.right, work), work)
    return value


def parse_rational_function(text: str) -> RationalFunction:
    """Parse and lower in one step."""
    return lower(parse_expression(text))


# An initial form and its value, or None for zero.  The form is pending:
# it is the node that ``_lower`` builds it from.  A nonzero subexpression
# with no sum and no zeroth power in it is its own pending form.  A
# product, quotient, power or negation over an operand whose form changed
# is a new node of its type at the same position, and a form already
# built is a ``_Built`` leaf.
_Initial = Optional[tuple[Union[Node, _Built], Value]]
_ONE = Literal(Fraction(1))  # the form of any base to the power 0


def initial_value(node: Node, a: int, b: int) -> Optional[Value]:
    """nu(f) for the monomial valuation nu(x) = a, nu(y) = b, or None when f is zero.

    ``f`` is ``lower(node)``, which is never built unless two initial
    forms cancel, and the errors raised are those of ``lower``.  ``a`` and
    ``b`` are positive integers, read as ``exactnum._integer`` reads
    them.  The value is exactly ``MonomialValuation.rational(a, b)(f)``:
    of the terms of least weight, the exponent pair of the lex-least one
    of the numerator, less that of the denominator.
    """
    a, b = _integer(a, "nu(x)"), _integer(b, "nu(y)")
    if a <= 0 or b <= 0:
        raise ValueError("nu(x) and nu(y) must both be positive")
    initial = _forced(_initial(node, a, b, _Work(), _Work()))
    return None if initial is None else initial[1]


def _initial(node: Node, a: int, b: int, work: _Work, exact_work: _Work):
    """The pending initial form of ``lower(node)`` for the weights a, b, and its value.

    The forms a sum of equal weights builds are charged to ``work``, the
    exact fallback to ``exact_work``.  That sum is left ``_Unforced``:
    its forms may cancel, which only raises its weight or makes it zero,
    so a sum whose other operand is forced and strictly lighter drops it
    unbuilt.  Every other use forces it first.
    """
    spine = []
    while isinstance(node, (Sum, Product, Quotient)):
        spine.append(node)
        node = node.left
    spine.reverse()
    leaf = node
    if isinstance(node, Literal):
        value = (node, ZERO) if node.value else None
    elif isinstance(node, Variable):
        value = (node, Value(1, 0) if node.name == "x" else Value(0, 1))
    elif isinstance(node, Negation):
        value = _forced(_initial(node.operand, a, b, work, exact_work))
        if value is not None:
            form = value[0]
            value = (node if form is node.operand else Negation(form), value[1])
    elif isinstance(node, Power):
        value = _initial(node.base, a, b, work, exact_work)
        if node.exponent == 0:
            value = (_ONE, ZERO)
        elif (value := _forced(value)) is not None:
            form, (m, n) = value
            form = node if form is node.base else Power(form, node.exponent, node.position)
            value = (form, Value(m * node.exponent, n * node.exponent))
        elif node.exponent < 0:
            raise ExpressionError("negative power of zero", node.position)
    else:
        raise TypeError(f"unknown node {type(node).__name__}")
    chain = None  # made at the first sum of two equal weights
    for k, op in enumerate(spine):
        right = _initial(op.right, a, b, work, exact_work)
        if type(value) is _Unforced or type(right) is _Unforced:
            if not isinstance(op, Sum):
                right = _forced(right)
                if right is not None:
                    value = _forced(value)
            elif value is not None and right is not None:
                value, right = _summands(value, right, a, b)
        if right is None:
            if isinstance(op, Quotient):
                raise ExpressionError("division by zero", op.position)
            if isinstance(op, Product):
                value = None
        elif value is None:
            if isinstance(op, Sum):
                value = right
        elif not isinstance(op, Sum):
            form = op if value[0] is op.left and right[0] is op.right else type(op)(value[0], right[0], op.position)
            value = (form, value[1] + right[1] if isinstance(op, Product) else value[1] - right[1])
        elif (order := _weight(value, a, b) - _weight(right, a, b)) > 0:
            value = right
        elif order == 0:
            if chain is None:
                chain = _Chain(spine, leaf, a, b, work, exact_work)
            value = _Unforced((partial(chain.settle, k, value[0], right[0]), value[1]))
    return value


class _Chain:
    """A spine of ``_initial``, and the exact value of a prefix of it once a sum on it cancels.

    ``exact`` is the spine's leaf, or once a sum has cancelled, the
    ``_Built`` exact value of the leaf and the first ``done`` operations,
    so each operand is lowered at most once however often the chain
    cancels.
    """

    __slots__ = ("spine", "a", "b", "work", "exact_work", "exact", "done")

    def __init__(self, spine: list, leaf: Node, a: int, b: int, work: _Work, exact_work: _Work):
        self.spine, self.a, self.b = spine, a, b
        self.work, self.exact_work = work, exact_work
        self.exact, self.done = leaf, 0

    def settle(self, k: int, left, right) -> _Initial:
        """The sum spine[k] of two pending forms of one weight, built; exactly when they cancel."""
        form = _lower(Sum(left, right, self.spine[k].position), self.work)
        if not form.is_zero:
            return _Built(form), MonomialValuation.rational(self.a, self.b)(form)
        exact = self.exact
        for prior in self.spine[self.done:k + 1]:
            exact = type(prior)(exact, prior.right, prior.position)
        self.exact, self.done = _Built(_lower(exact, self.exact_work)), k + 1
        return _initial_of(self.exact.value, self.a, self.b)


class _Unforced(tuple):
    """A sum of two pending initial forms of one weight, not built yet: (build, value).

    ``force()`` calls ``build``, which builds it to what ``_initial``
    returns.  ``value`` is its left operand's.  The forms may cancel, so
    the weight of ``value`` is a lower bound on the sum's weight, unless
    it is zero.  A plain tuple but for its type, which tells it from an
    ``_Initial``.
    """

    __slots__ = ()

    def force(self) -> _Initial:
        return self[0]()


def _summands(left, right, a: int, b: int):
    """The two operands of a sum, each forced unless the other is forced and strictly lighter.

    Neither is None (zero) when called.  Of two unforced operands, the
    one of lower bound is forced first, and it may force to None, as
    x - x does: the other is then left unforced.
    """
    if type(left) is _Unforced and type(right) is _Unforced:
        if _weight(right, a, b) < _weight(left, a, b):
            right = right.force()
        else:
            left = left.force()
    if type(right) is _Unforced and left is not None and not _weight(left, a, b) < _weight(right, a, b):
        right = right.force()
    if type(left) is _Unforced and right is not None and not _weight(right, a, b) < _weight(left, a, b):
        left = left.force()
    return left, right


def _weight(initial, a: int, b: int) -> int:
    """The weight a*m + b*n of the value (m, n) of an ``_Initial`` or ``_Unforced``."""
    m, n = initial[1]
    return a * m + b * n


def _forced(value):
    """``value``, an ``_Initial`` or ``_Unforced``, as an ``_Initial``."""
    return value.force() if type(value) is _Unforced else value


def _initial_of(value: RationalFunction, a: int, b: int) -> _Initial:
    """The initial form of an exact rational function, and its value."""
    if value.is_zero:
        return None
    form = RationalFunction(_lowest_terms(value.numerator, a, b), _lowest_terms(value.denominator, a, b))
    return _Built(form), MonomialValuation.rational(a, b)(form)


def _lowest_terms(p: LaurentPolynomial, a: int, b: int) -> LaurentPolynomial:
    """The terms of least weight of a nonzero polynomial."""
    weighted = [(m.ex * a + m.ey * b, m, c) for m, c in p.terms()]
    least = min(w for w, _, _ in weighted)
    return LaurentPolynomial([(m, c) for w, m, c in weighted if w == least])

