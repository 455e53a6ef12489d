"""Reference parser for the tests: the LL(1) recursive descent.

This is the polynomial parser `textio` used before it read each term in
one loop; it builds a `MultiPoly` per atom and per factor, and is kept here
as an independent oracle for values and error messages.  Its error
positions are its own: an "unexpected character" reports the start of the
whitespace before the character, and end of input keeps the line of the
last token.

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | power
    power  := atom ('^' NAT)?
    atom   := NAT ('/' NAT)? | 'i' | VAR | NAME | '(' expr ')'
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd

from foltools.errors import ParseError
from foltools.gaussian import GaussianRational
from foltools.polyring import MultiPoly, _accumulate

# one match per token, with the whitespace before it; the last group takes any other character
_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\*\*|[()+\-*/^])|(\S))")


@dataclass(slots=True)
class _Token:
    kind: str  # 'int' | 'name' | 'op' | 'end'
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col_base = 1, 0  # the line of the last token and the offset where it starts; no token spans a newline
    for m in _TOKEN_RE.finditer(text):
        pos, kind = m.start(), m.lastindex
        if kind == 4:
            raise ParseError(f"unexpected character {m.group(4)!r}", line, pos - col_base + 1)
        start = m.start(kind)
        newlines = text.count("\n", pos, start)
        if newlines:
            line += newlines
            col_base = text.rfind("\n", pos, start) + 1
        if kind == 3:
            op = m.group(3)
            tokens.append(_Token("op", "^" if op == "**" else op, line, start - col_base + 1))
        else:
            tokens.append(_Token("int" if kind == 1 else "name", m.group(kind), line, start - col_base + 1))
    tokens.append(_Token("end", "", line, len(text) - col_base + 1))
    return tokens


class _Parser:
    def __init__(self, text: str, arity: int, params: dict[str, GaussianRational] | None):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.arity = arity
        self.origin = (0,) * arity
        self.params = params or {}
        self.vars = {"x": 0, "y": 1} if arity == 2 else {"X": 0, "Y": 1, "Z": 2}
        self.wrong_vars = {"X", "Y", "Z"} if arity == 2 else {"x", "y", "z"}

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.take()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"expected {op!r}, found {tok.text or 'end of input'!r}", tok.line, tok.column)
        return tok

    def parse(self) -> MultiPoly:
        poly = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.column)
        return poly

    def expr(self) -> MultiPoly:
        # the sum's numerators over a running common denominator, updated in place
        first = self.term()
        den, num = first.den, dict(first.num)
        while self.peek().kind == "op" and self.peek().text in "+-":
            sign = 1 if self.take().text == "+" else -1
            rhs = self.term()
            s = rhs.den // gcd(den, rhs.den)
            if s != 1:
                num = {e: (re * s, im * s) for e, (re, im) in num.items()}
                den *= s
            t = den // rhs.den * sign
            for e, (re, im) in rhs.num.items():
                _accumulate(num, e, re * t, im * t)
        return MultiPoly._of(self.arity, den, num)

    def term(self) -> MultiPoly:
        acc = self.factor()
        while self.peek().kind == "op" and self.peek().text == "*":
            self.take()
            acc = acc * self.factor()
        return acc

    def factor(self) -> MultiPoly:
        if self.peek().kind == "op" and self.peek().text == "-":
            self.take()
            return -self.factor()
        return self.power()

    def power(self) -> MultiPoly:
        base = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.take()
            tok = self.take()
            if tok.kind != "int":
                raise ParseError("exponent must be a nonnegative integer literal", tok.line, tok.column)
            return base ** int(tok.text)
        return base

    def atom(self) -> MultiPoly:
        tok = self.take()
        if tok.kind == "int":
            num, den = int(tok.text), 1
            if self.peek().kind == "op" and self.peek().text == "/":
                self.take()
                den_tok = self.take()
                if den_tok.kind != "int":
                    raise ParseError("denominator must be an integer literal", den_tok.line, den_tok.column)
                den = int(den_tok.text)
                if den == 0:
                    raise ParseError("zero denominator", den_tok.line, den_tok.column)
            return MultiPoly._of(self.arity, den, {self.origin: (num, 0)} if num else {})
        if tok.kind == "name":
            name = tok.text
            if name == "i":
                return MultiPoly._of(self.arity, 1, {self.origin: (0, 1)})
            if name in self.vars:
                return MultiPoly.variable(self.arity, self.vars[name])
            if name in self.wrong_vars:
                expected = " ".join(sorted(self.vars))
                raise ParseError(f"variable {name!r} not in this variable set ({expected})", tok.line, tok.column)
            if name in self.params:
                return MultiPoly.constant(self.arity, self.params[name])
            raise ParseError(f"unknown name {name!r}", tok.line, tok.column)
        if tok.kind == "op" and tok.text == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected {tok.text or 'end of input'!r}", tok.line, tok.column)


def parse_poly(text: str, arity: int, params: dict[str, GaussianRational] | None = None) -> MultiPoly:
    """Parse a polynomial in `x y` (arity 2) or `X Y Z` (arity 3)."""
    return _Parser(text, arity, params).parse()
