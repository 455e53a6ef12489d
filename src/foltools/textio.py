"""Text formats: polynomial expressions, `.fol` system documents, reports.

Polynomial grammar (LL(1), whitespace insensitive, explicit `*`):

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | power
    power  := atom ('^' NAT)?
    atom   := NAT ('/' NAT)? | 'i' | VAR | NAME | '(' expr ')'

Variables are `x y` (arity 2) or `X Y Z` (arity 3); NAME resolves against a
table of named Gaussian-rational parameters when one is supplied.  `^` binds
tighter than unary minus and exponents are nonnegative integer literals.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field as dfield
from fractions import Fraction
from math import gcd

from .errors import ParseError
from .gaussian import GaussianRational
from .polyring import MultiPoly, _accumulate

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


# -- printing -----------------------------------------------------------------


def _frac_str(q: Fraction) -> str:
    return str(q)


def _monomial_str(exp, names) -> str:
    parts = []
    for e, name in zip(exp, names):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def _coeff_str(c: GaussianRational, monomial: str) -> tuple[str, str]:
    """Return (sign, body) where sign is '+' or '-' and body omits the sign."""
    if c.is_real():
        sign = "-" if c.re < 0 else "+"
        mag = abs(c.re)
        if monomial and mag == 1:
            return sign, monomial
        body = _frac_str(mag)
        return sign, f"{body}*{monomial}" if monomial else body
    if not c.re:  # purely imaginary
        sign = "-" if c.im < 0 else "+"
        mag = abs(c.im)
        head = "i" if mag == 1 else f"{_frac_str(mag)}*i"
        return sign, f"{head}*{monomial}" if monomial else head
    # mixed complex coefficient: parenthesize, never split the sign out
    re_sign, re_body = _coeff_str(GaussianRational(c.re, Fraction(0)), "")
    im_sign, im_body = _coeff_str(GaussianRational(Fraction(0), c.im), "")
    inner = (re_body if re_sign == "+" else "-" + re_body) + f" {im_sign} {im_body}"
    body = f"({inner})"
    return "+", f"{body}*{monomial}" if monomial else body


def print_poly(p: MultiPoly) -> str:
    """Canonical text: graded-lex descending terms, normalized coefficients."""
    if p.is_zero():
        return "0"
    names = ("x", "y") if p.arity == 2 else ("X", "Y", "Z")
    pieces = []
    for exp, c in p.sorted_terms():
        mono = _monomial_str(exp, names)
        sign, body = _coeff_str(c, mono)
        if not pieces:
            pieces.append(body if sign == "+" else f"-{body}")
        else:
            pieces.append(f"{sign} {body}")
    return " ".join(pieces)


# -- system documents (.fol) ----------------------------------------------------


@dataclass
class FieldEntry:
    p: MultiPoly
    q: MultiPoly
    r: MultiPoly


@dataclass
class CurveEntry:
    f: MultiPoly
    components: list[str] = dfield(default_factory=list)


@dataclass
class SystemDocument:
    """Named vector fields, curves and parameters from one `.fol` document."""

    fields: dict[str, FieldEntry] = dfield(default_factory=dict)
    curves: dict[str, CurveEntry] = dfield(default_factory=dict)
    params: dict[str, GaussianRational] = dfield(default_factory=dict)


_SECTION_RE = re.compile(r"^\[(field|curve|param)\s+([A-Za-z_][A-Za-z_0-9-]*)\]$")


def parse_system(text: str) -> SystemDocument:
    """Parse a `.fol` document (line-oriented `key = value` under sections)."""
    doc = SystemDocument()
    section: tuple[str, str] | None = None
    pending: dict[str, tuple[str, int]] = {}

    def flush(line_no: int):
        nonlocal pending, section
        if section is None:
            pending = {}
            return
        kind, name = section
        if kind == "field":
            if "p" not in pending or "q" not in pending:
                raise ParseError(f"section [field {name}] needs both p and q", line_no, 1)
            p = parse_poly(pending["p"][0], 2, doc.params)
            q = parse_poly(pending["q"][0], 2, doc.params)
            r = parse_poly(pending["r"][0], 2, doc.params) if "r" in pending else MultiPoly.zero(2)
            doc.fields[name] = FieldEntry(p, q, r)
        elif kind == "curve":
            if "f" not in pending:
                raise ParseError(f"section [curve {name}] needs key f", line_no, 1)
            comps = []
            if "components" in pending:
                comps = [s.strip() for s in pending["components"][0].split(",") if s.strip()]
            doc.curves[name] = CurveEntry(parse_poly(pending["f"][0], 2, doc.params), comps)
        elif kind == "param":
            if "value" not in pending:
                raise ParseError(f"section [param {name}] needs key value", line_no, 1)
            poly = parse_poly(pending["value"][0], 2, doc.params)
            if not poly.is_constant():
                raise ParseError(f"param {name} must be a constant", pending["value"][1], 1)
            doc.params[name] = poly.constant_value()
        pending = {}

    all_names: set[str] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _SECTION_RE.match(line)
        if m:
            flush(line_no)
            kind, name = m.group(1), m.group(2)
            if name in all_names:
                raise ParseError(f"duplicate name {name!r}", line_no, 1)
            all_names.add(name)
            section = (kind, name)
            continue
        if "=" not in line:
            raise ParseError("expected `key = value` or a [section] header", line_no, 1)
        if section is None:
            raise ParseError("key outside of any section", line_no, 1)
        key, _, value = line.partition("=")
        key = key.strip()
        if key in pending:
            raise ParseError(f"duplicate key {key!r} in section", line_no, 1)
        pending[key] = (value.strip(), line_no)
    flush(len(text.splitlines()) + 1)

    for name, entry in doc.curves.items():
        if not entry.components:
            continue
        product = None
        for comp in entry.components:
            if comp not in doc.curves:
                raise ParseError(f"curve {name!r} references unknown component {comp!r}")
            part = doc.curves[comp].f
            product = part if product is None else product * part
        if product != entry.f:
            raise ParseError(f"components of curve {name!r} do not multiply to f")
    return doc


def format_system(doc: SystemDocument) -> str:
    """Render a SystemDocument as canonical `.fol` text."""
    lines: list[str] = []
    for name, value in doc.params.items():
        lines += [f"[param {name}]", f"value = {_coeff_literal(value)}", ""]
    for name, entry in doc.fields.items():
        lines += [f"[field {name}]", f"p = {print_poly(entry.p)}", f"q = {print_poly(entry.q)}"]
        if not entry.r.is_zero():
            lines.append(f"r = {print_poly(entry.r)}")
        lines.append("")
    for name, entry in doc.curves.items():
        lines += [f"[curve {name}]", f"f = {print_poly(entry.f)}"]
        if entry.components:
            lines.append("components = " + ", ".join(entry.components))
        lines.append("")
    return "\n".join(lines)


def _coeff_literal(c: GaussianRational) -> str:
    sign, body = _coeff_str(c, "")
    return body if sign == "+" else f"-{body}"


# -- report serialization --------------------------------------------------------


def to_jsonable(value):
    """Normalize report values into JSON-safe structures with stable text."""
    from fractions import Fraction as _F

    if isinstance(value, GaussianRational):
        return _coeff_literal(value)
    if isinstance(value, _F):
        return str(value)
    if isinstance(value, MultiPoly):
        return print_poly(value)
    if isinstance(value, float):
        return float(f"{value:.15g}")
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if hasattr(value, "to_dict"):
        return to_jsonable(value.to_dict())
    return value


def report_json(report) -> str:
    """Deterministic machine-readable rendering of any report object."""
    payload = report.to_dict() if hasattr(report, "to_dict") else report
    return json.dumps(to_jsonable(payload), indent=2, sort_keys=True)
