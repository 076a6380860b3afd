"""Recursive-descent parser for expressions in x and y.

Grammar (whitespace insensitive)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ('^' ['-'] integer)?
    base   := integer | 'x' | 'y' | '(' expr ')' | '-' factor

Integer literals lower to exact rational constants; rational values such
as 3/2 arise through the quotient operator.  Parsing builds a small AST,
and lowering evaluates it over RationalFunction arithmetic, rejecting
division by anything that lowers to zero.

Parentheses and unary minus signs may nest at most ``MAX_NESTING`` deep;
a deeper expression is an ``ExpressionError``.  Both the parser and
``lower`` recurse only along that nesting (a long chain such as
``x + x + ... + x`` is walked in a loop), so the limit keeps them far
from the interpreter's recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .laurent import RationalFunction, X, Y


class ExpressionError(ValueError):
    """Syntax or lowering error, with the character position that caused it."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Literal:
    value: Fraction


@dataclass(frozen=True)
class Variable:
    name: str  # "x" or "y"


@dataclass(frozen=True)
class Negation:
    operand: "Node"


@dataclass(frozen=True)
class Sum:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Product:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Quotient:
    left: "Node"
    right: "Node"
    position: int  # of the '/' sign, for lowering-time errors


@dataclass(frozen=True)
class Power:
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
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
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
            raise ExpressionError(f"unexpected {text!r}", position)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "punct" and text in "+-":
                self.advance()
                right = self.term()
                node = Sum(node, right if text == "+" else Negation(right))
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            kind, text, position = self.peek()
            if kind == "punct" and text in "*/":
                self.advance()
                right = self.factor()
                node = Product(node, right) if text == "*" else Quotient(node, right, position)
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
            node = Power(node, sign * int(text), position)
        return node

    def base(self) -> Node:
        kind, text, position = self.advance()
        if kind == "int":
            return Literal(Fraction(int(text)))
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


def parse_expression(text: str) -> Node:
    """Parse the grammar above into an AST; errors carry positions."""
    return _Parser(text).parse()


def lower(node: Node) -> RationalFunction:
    """Evaluate an AST to an exact rational function in x and y.

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
        value = -lower(node.operand)
    elif isinstance(node, Power):
        base = lower(node.base)
        if node.exponent < 0 and base.is_zero:
            raise ExpressionError("negative power of zero", node.position)
        value = base ** node.exponent
    else:
        raise TypeError(f"unknown node {type(node).__name__}")
    for op in reversed(spine):
        right = lower(op.right)
        if isinstance(op, Sum):
            value = value + right
        elif isinstance(op, Product):
            value = value * right
        else:
            if right.is_zero:
                raise ExpressionError("division by zero", op.position)
            value = value / right
    return value


def parse_rational_function(text: str) -> RationalFunction:
    """Parse and lower in one step."""
    return lower(parse_expression(text))
