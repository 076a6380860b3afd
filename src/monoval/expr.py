"""Recursive-descent parser for expressions in x and y, and their valuation.

Grammar (whitespace insensitive)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ('^' ['-'] integer)?
    base   := integer | 'x' | 'y' | '(' expr ')' | '-' factor

Integer literals lower to exact rational constants; rational values such
as 3/2 arise through the quotient operator.  Parsing builds a small AST,
and lowering evaluates it over RationalFunction arithmetic, rejecting
division by anything that lowers to zero.  An integer literal or exponent
with more digits than ``int`` reads (``sys.get_int_max_str_digits()``) is
a ``LongIntegerError``.

``initial_value`` finds nu(f) for the monomial valuation nu(x) = a,
nu(y) = b without expanding f.  It carries each node's initial form, the
terms of least weight a*i + b*j of a numerator over those of a
denominator, with its weight: in(fg) = in(f) in(g), in(f/g) = in(f)/in(g),
in(f^n) = in(f)^n, and a sum takes the operand of lower weight.  At equal
weights it adds the two initial forms.  When they cancel, that sum alone
is computed exactly, by ``lower``'s arithmetic, and its initial form is
read off the exact value.  Along a chain the exact value of the prefix is
kept, so each operand is lowered at most once however often the chain
cancels.  Zero stays exact: a node is zero exactly when ``lower`` makes
it zero, and both raise the same errors at the same positions.

``initial_value`` charges every product, quotient, sum and power of
initial forms against a budget of ``WORK_BUDGET`` units before it is
made, and those of its exact fallback against a second budget of the
same size, so the fallback's exact work is not counted twice.  A unit is
one product of two terms whose coefficients fit in ``BLOCK_BITS`` bits;
a term product of longer coefficients counts the product of their
numbers of started blocks.  A power p^n is charged up front for every
product ``LaurentPolynomial.__pow__`` makes, from bounds on each p^k: at
most (k*rx + 1)(k*ry + 1) terms for p's exponent ranges rx and ry, and
at most C(k + t - 1, t - 1) for p's t terms; coefficients at most the
k-th power of the sum of p's, over their common denominator.  A call
that would pass a budget raises ``WorkBudgetError``; it never returns a
truncated value.  The budget admits (x + y)^700 - (x + y)^700 + x with
a = b = 1 (about 590,000 units in each budget) and refuses the exact
(x + y)^20000 before any work.  ``lower`` has no budget.

Parentheses and unary minus signs may nest at most ``MAX_NESTING`` deep;
a deeper expression is an ``ExpressionError``.  The parser, ``lower``
and ``initial_value`` recurse only along that nesting (a long chain such
as ``x + x + ... + x`` is walked in a loop), so the limit keeps them far
from the interpreter's recursion limit.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from .exactnum import _quoted, _record
from .laurent import LaurentPolynomial, RationalFunction, X, Y
from .valuation import Value

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

_PUNCT = set("+-*/^()")

# Each level costs the parser up to four stack frames; the interpreter's
# default recursion limit of 1000 would be reached near 245 levels.
MAX_NESTING = 128


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Tokens as (kind, text, position); kinds: int, name, punct, end."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
        elif ch in ("x", "y"):
            tokens.append(("name", ch, i))
            i += 1
        elif ch in _PUNCT:
            tokens.append(("punct", ch, i))
            i += 1
        else:
            raise ExpressionError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0  # open parentheses and unary minus signs

    def enter(self, position: int) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExpressionError(
                f"parentheses and unary minus signs nest deeper than {MAX_NESTING} levels",
                position,
            )

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_punct(self, ch: str) -> tuple[str, str, int]:
        kind, text, position = self.peek()
        if kind != "punct" or text != ch:
            raise ExpressionError(f"expected {ch!r}", position)
        return self.advance()

    def parse(self) -> Node:
        node = self.expr()
        kind, text, position = self.peek()
        if kind != "end":
            raise ExpressionError(f"unexpected {_quoted(text)}", position)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, text, position = self.peek()
            if kind == "punct" and text in "+-":
                self.advance()
                right = self.term()
                node = Sum(node, right if text == "+" else Negation(right), position)
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            kind, text, position = self.peek()
            if kind == "punct" and text in "*/":
                self.advance()
                right = self.factor()
                node = (Product if text == "*" else Quotient)(node, right, position)
            else:
                return node

    def factor(self) -> Node:
        node = self.base()
        kind, text, position = self.peek()
        if kind == "punct" and text == "^":
            self.advance()
            sign = 1
            kind, text, _ = self.peek()
            if kind == "punct" and text == "-":
                self.advance()
                sign = -1
            kind, text, pos2 = self.peek()
            if kind != "int":
                raise ExpressionError("expected an integer exponent", pos2)
            self.advance()
            node = Power(node, sign * _read_int(text, pos2, "exponent"), position)
        return node

    def base(self) -> Node:
        kind, text, position = self.advance()
        if kind == "int":
            return Literal(Fraction(_read_int(text, position, "integer")))
        if kind == "name":
            return Variable(text)
        if kind == "punct" and text == "(":
            self.enter(position)
            inner = self.expr()
            self.expect_punct(")")
            self.depth -= 1
            return inner
        if kind == "punct" and text == "-":
            self.enter(position)
            operand = self.factor()
            self.depth -= 1
            return Negation(operand)
        raise ExpressionError(
            "expected a number, variable, '(' or '-'"
            if kind != "end"
            else "unexpected end of input",
            position,
        )


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
    else:
        raise TypeError(f"unknown node {type(node).__name__}")
    for op in reversed(spine):
        value = _apply(op, value, _lower(op.right, work), work)
    return value


def parse_rational_function(text: str) -> RationalFunction:
    """Parse and lower in one step."""
    return lower(parse_expression(text))


# An initial form and its weight, or None for zero.
_Initial = Optional[tuple[RationalFunction, int]]


def initial_value(node: Node, a: int, b: int) -> Optional[Value]:
    """nu(f) for the monomial valuation nu(x) = a, nu(y) = b, or None when f is zero.

    ``f`` is ``lower(node)``, which is never built unless two initial
    forms cancel, and the errors raised are those of ``lower``.  ``a`` and
    ``b`` are positive integers.  The value read is that of a term of the
    initial form, so it may be another (m, n) of the same weight than
    ``nu(lower(node))`` gives; realized, the two are equal.
    """
    if a <= 0 or b <= 0:
        raise ValueError("nu(x) and nu(y) must both be positive")
    initial = _initial(node, a, b, _Work(), _Work())
    if initial is None:
        return None
    form = initial[0]
    (top, _), (bottom, _) = form.numerator.terms()[0], form.denominator.terms()[0]
    return Value(top.ex - bottom.ex, top.ey - bottom.ey)


def _initial(node: Node, a: int, b: int, work: _Work, exact_work: _Work) -> _Initial:
    """The initial form of ``lower(node)`` for the weights a, b, and its weight.

    The initial forms are charged to ``work``, the exact fallback to ``exact_work``.
    """
    spine = []
    while isinstance(node, (Sum, Product, Quotient)):
        spine.append(node)
        node = node.left
    spine.reverse()
    leaf = node
    if isinstance(node, Literal):
        value = (RationalFunction.constant(node.value), 0) if node.value else None
    elif isinstance(node, Variable):
        is_x = node.name == "x"
        value = (RationalFunction.from_monomial(X if is_x else Y), a if is_x else b)
    elif isinstance(node, Negation):
        value = _initial(node.operand, a, b, work, exact_work)
        if value is not None:
            value = (-value[0], value[1])
    elif isinstance(node, Power):
        value = _initial(node.base, a, b, work, exact_work)
        if value is not None:
            value = (_power(value[0], node.exponent, node.position, work), value[1] * node.exponent)
        elif node.exponent < 0:
            raise ExpressionError("negative power of zero", node.position)
        elif node.exponent == 0:
            value = (RationalFunction.constant(1), 0)
    else:
        raise TypeError(f"unknown node {type(node).__name__}")
    exact, done = None, 0  # once a sum cancels: the leaf and the first `done` operations, exactly
    for k, op in enumerate(spine):
        right = _initial(op.right, a, b, work, exact_work)
        if right is None:
            if isinstance(op, Quotient):
                raise ExpressionError("division by zero", op.position)
            if isinstance(op, Product):
                value = None
        elif value is None:
            if isinstance(op, Sum):
                value = right
        elif isinstance(op, Sum) and value[1] != right[1]:
            value = value if value[1] < right[1] else right
        else:
            form = _apply(op, value[0], right[0], work)
            if isinstance(op, Sum):
                weight = value[1]
            elif isinstance(op, Product):
                weight = value[1] + right[1]
            else:
                weight = value[1] - right[1]
            value = (form, weight)
            if form.is_zero:  # two initial forms of one weight cancel: this sum, exactly
                if exact is None:
                    exact = _lower(leaf, exact_work)
                for prior in spine[done:k + 1]:
                    exact = _apply(prior, exact, _lower(prior.right, exact_work), exact_work)
                done = k + 1
                value = _initial_of(exact, a, b)
    return value


def _initial_of(value: RationalFunction, a: int, b: int) -> _Initial:
    """The initial form of an exact rational function, and its weight."""
    if value.is_zero:
        return None
    num, top = _lowest_terms(value.numerator, a, b)
    den, bottom = _lowest_terms(value.denominator, a, b)
    return RationalFunction(num, den), top - bottom


def _lowest_terms(p: LaurentPolynomial, a: int, b: int) -> tuple[LaurentPolynomial, int]:
    """The terms of least weight of a nonzero polynomial, and that weight."""
    weighted = [(m.ex * a + m.ey * b, m, c) for m, c in p.terms()]
    least = min(w for w, _, _ in weighted)
    return LaurentPolynomial([(m, c) for w, m, c in weighted if w == least]), least
