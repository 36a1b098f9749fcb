"""Parsing of potential expressions into exact polynomials.

Grammar (whitespace ignored; every product explicit, no implicit
multiplication):

    expr    := ['+'|'-'] term (('+'|'-') term)*
    term    := factor (('*'|'/') factor)*      # '/' only by a rational literal
    factor  := base ('^' nonneg-int)?
    base    := rational | ident | '(' expr ')'
    rational := int ('/' posint)?

`parse_potential` restricts identifiers to x1, x2; `Potential` enforces the
invariant plane condition: the part of V linear in x2 must vanish
identically, so that {x2 = y2 = 0} is preserved by the flow.  The decomposition

    V = phi(x1) - alpha(x1) * x2^2 / 2 + (x2^3 and higher)

is extracted exactly: phi = V(x1, 0) and alpha = -d^2V/dx2^2 (x1, 0).
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, NamedTuple, Optional, Tuple

from .mpoly import MPoly


class ParseError(ValueError):
    """Syntax or validation error, carrying the character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class InvariantPlaneError(ValueError):
    """The parsed potential does not preserve the plane x2 = y2 = 0."""


# one alternative per token kind; whitespace matches no named group, and
# any other character is the group "bad"
_TOKEN_RE = re.compile(r"\s+|(?P<num>[0-9]+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
                       r"|(?P<op>[-+*/^()])|(?P<bad>\S)")
# deepest accepted parenthesis nesting; each level costs four stack frames,
# so this stays well inside Python's recursion limit
MAX_NESTING = 100


class _Token(NamedTuple):
    kind: str   # "num", "ident", "end", or the operator character
    text: str
    pos: int


def _tokenize(text: str) -> List[_Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind, word = m.lastgroup, m.group()
        if kind == "bad":
            raise ParseError(f"unexpected character {word!r}", m.start())
        if kind is not None:
            tokens.append(_Token(word if kind == "op" else kind, word, m.start()))
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, allowed: Optional[Tuple[str, ...]]):
        self.tokens = _tokenize(text)
        self.k = 0
        self.allowed = allowed
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.k]

    def take(self) -> _Token:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.take()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text!r}", tok.pos)
        return tok

    def parse(self) -> MPoly:
        value = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return value

    def expr(self) -> MPoly:
        sign = 1
        if self.peek().kind in ("+", "-"):
            if self.take().kind == "-":
                sign = -1
        value = self.term() * sign
        while self.peek().kind in ("+", "-"):
            op = self.take().kind
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> MPoly:
        value = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            if op.kind == "*":
                value = value * rhs
            else:
                if not rhs.is_constant():
                    raise ParseError("division only by rational literals", op.pos)
                q = rhs.constant_value()
                if q == 0:
                    raise ParseError("division by zero", op.pos)
                value = value * (1 / q)
        return value

    def factor(self) -> MPoly:
        value = self.base()
        if self.peek().kind == "^":
            caret = self.take()
            tok = self.peek()
            if tok.kind != "num":
                raise ParseError("exponent must be a non-negative integer", tok.pos)
            self.take()
            value = value ** int(tok.text)
        return value

    def base(self) -> MPoly:
        tok = self.take()
        if tok.kind == "num":
            numerator = int(tok.text)
            if self.peek().kind == "/" and self.tokens[self.k + 1].kind == "num":
                self.take()
                den_tok = self.take()
                den = int(den_tok.text)
                if den == 0:
                    raise ParseError("zero denominator in rational literal", den_tok.pos)
                return MPoly.const(Fraction(numerator, den))
            return MPoly.const(numerator)
        if tok.kind == "ident":
            if self.allowed is not None and tok.text not in self.allowed:
                raise ParseError(f"unknown variable {tok.text!r}", tok.pos)
            return MPoly.var(tok.text)
        if tok.kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", tok.pos)
            self.depth += 1
            value = self.expr()
            self.expect(")")
            self.depth -= 1
            return value
        raise ParseError(f"unexpected token {tok.text!r}", tok.pos)


def parse_mpoly(text: str, allowed: Optional[Tuple[str, ...]] = None) -> MPoly:
    """Parse canonical polynomial text over arbitrary identifiers."""
    return _Parser(text, allowed).parse()


class Potential(NamedTuple("Potential", [("v", MPoly), ("phi", MPoly), ("alpha", MPoly)])):
    """Exact potential V(x1, x2) with its invariant-plane decomposition;
    construction rejects a V whose flow does not preserve the plane."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, v: MPoly, phi: MPoly, alpha: MPoly):
        linear = v.diff("x2").subs({"x2": 0})
        if not linear.is_zero:
            raise InvariantPlaneError(
                "dV/dx2 does not vanish on the plane x2 = 0; offending linear part: "
                f"({linear.to_text()}) * x2")
        return super().__new__(cls, v, phi, alpha)


def parse_potential(text: str) -> Potential:
    """Parse V(x1, x2) and extract (phi, alpha), rejecting potentials whose
    flow does not preserve the invariant plane."""
    v = parse_mpoly(text, allowed=("x1", "x2"))
    return Potential(v, v.subs({"x2": 0}), v.coefficient("x2", 2) * (-2))
