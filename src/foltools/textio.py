"""Text formats: polynomial expressions, `.fol` system documents, reports.

Polynomial grammar (LL(1), whitespace insensitive, explicit `*`):

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | power
    power  := atom ('^' NAT)?
    atom   := NAT ('/' NAT)? | 'i' | VAR | NAME | '(' expr ')'

Variables are `x y` (arity 2) or `X Y Z` (arity 3); NAME resolves against a
table of named Gaussian-rational parameters when one is supplied.  `**` is
another spelling of `^`, which binds tighter than unary minus (`-2^2` is -4)
and takes a nonnegative integer literal.  A fraction literal is one atom, so
`2/3^2` is 4/9.  Error positions are those in the text given, which for
`parse_system` is the whole document.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd

from .errors import ParseError
from .gaussian import GaussianRational, _parts, _rational_str
from .polyring import MultiPoly, _accumulate, _grlex_key
from .singularities import ProjectivePoint

# one match per token, with the whitespace before it; the last group takes any other character
_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\*\*|[()+\-*/^])|(\S))")
_KINDS = (None, "int", "name", "op")
_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _error(message: str, text: str, offset: int, line: int) -> ParseError:
    """The error at `offset` of `text`, whose first line is line `line`."""
    return ParseError(message, line + text.count("\n", 0, offset), offset - text.rfind("\n", 0, offset))


def _tokenize(text: str, start: int, end: int, line: int) -> list[tuple[str, str, int]]:
    """(kind, text, offset) of each token of text[start:end], kind 'int', 'name'
    or 'op' (whose text names it), then ("end", "", end)."""
    tokens = []
    for m in _TOKEN_RE.finditer(text, start, end):
        kind = m.lastindex
        if kind == 4:
            raise _error(f"unexpected character {m.group(4)!r}", text, m.start(4), line)
        tok = m.group(kind)
        tokens.append((_KINDS[kind], "^" if tok == "**" else tok, m.start(kind)))
    tokens.append(("end", "", end))
    return tokens


class _Parser:
    """Reads `text[start:end]`: each term is one Z[i] coefficient over a
    denominator times one monomial, times a `MultiPoly` only for its
    parenthesised or named factors, and is added into the sum's numerators."""

    def __init__(self, text: str, arity: int, params: dict[str, GaussianRational] | None, start=0, end=None, line=1):
        self.text, self.line = text, line
        self.tokens = _tokenize(text, start, len(text) if end is None else end, line)
        self.pos = 0
        self.arity = arity
        self.params = params or {}
        self.vars = {"x": 0, "y": 1} if arity == 2 else {"X": 0, "Y": 1, "Z": 2}
        self.wrong_vars = {"X", "Y", "Z"} if arity == 2 else {"x", "y", "z"}

    def error(self, message: str, tok: tuple[str, str, int]) -> ParseError:
        return _error(message, self.text, tok[2], self.line)

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> MultiPoly:
        poly = self.expr()
        tok = self.tokens[self.pos]
        if tok[0] != "end":
            raise self.error(f"unexpected {tok[1]!r}", tok)
        return poly

    def expr(self) -> MultiPoly:
        # the sum's numerators over a running common denominator, updated in place
        den, num, sign = 1, {}, 1
        while True:
            d, items = self.term()
            s = d // gcd(den, d)
            if s != 1:
                num = {e: (re * s, im * s) for e, (re, im) in num.items()}
                den *= s
            t = den // d * sign
            for e, (re, im) in items:
                _accumulate(num, e, re * t, im * t)
            op = self.tokens[self.pos][1]
            if op != "+" and op != "-":
                return MultiPoly._of(self.arity, den, num)
            self.pos += 1
            sign = 1 if op == "+" else -1

    def power(self) -> int:
        if self.tokens[self.pos][1] != "^":
            return 1
        self.pos += 1
        tok = self.take()
        if tok[0] != "int":
            raise self.error("exponent must be a nonnegative integer literal", tok)
        return int(tok[1])

    def term(self) -> tuple[int, list]:
        """(d, [(exponent, numerator), ...]): the term's value over d."""
        re, im, den = 1, 0, 1
        exp = [0] * self.arity
        rest = None  # the product of the parenthesised and named factors
        while True:
            kind, text, _ = tok = self.take()
            while text == "-":  # factor := '-' factor
                re, im = -re, -im
                kind, text, _ = tok = self.take()
            if kind == "int":
                a, b = int(text), 1
                if self.tokens[self.pos][1] == "/":
                    self.pos += 1
                    tok = self.take()
                    if tok[0] != "int":
                        raise self.error("denominator must be an integer literal", tok)
                    b = int(tok[1])
                    if not b:
                        raise self.error("zero denominator", tok)
                n = self.power()
                a, b = a**n, b**n
                re, im, den = re * a, im * a, den * b
            elif text == "i":
                ir, ii = _I_POWERS[self.power() % 4]
                re, im = re * ir - im * ii, re * ii + im * ir
            elif text in self.vars:
                exp[self.vars[text]] += self.power()
            else:
                if text == "(":
                    factor = self.expr()
                    tok = self.take()
                    if tok[1] != ")":
                        raise self.error(f"expected ')', found {tok[1] or 'end of input'!r}", tok)
                elif kind != "name":
                    raise self.error(f"unexpected {text or 'end of input'!r}", tok)
                elif text in self.wrong_vars:
                    expected = " ".join(sorted(self.vars))
                    raise self.error(f"variable {text!r} not in this variable set ({expected})", tok)
                elif text in self.params:
                    factor = MultiPoly.constant(self.arity, self.params[text])
                else:
                    raise self.error(f"unknown name {text!r}", tok)
                n = self.power()
                factor = factor if n == 1 else factor**n
                rest = factor if rest is None else rest * factor
            if self.tokens[self.pos][1] != "*":
                break
            self.pos += 1
        exp = tuple(exp)
        if rest is None:
            return den, [(exp, (re, im))]
        items = [(tuple(a + b for a, b in zip(e, exp)), (fr * re - fi * im, fr * im + fi * re)) for e, (fr, fi) in rest.num.items()]
        return den * rest.den, items


def parse_poly(text: str, arity: int, params: dict[str, GaussianRational] | None = None) -> MultiPoly:
    """Parse a polynomial in `x y` (arity 2) or `X Y Z` (arity 3)."""
    return _Parser(text, arity, params).parse()


# -- printing -----------------------------------------------------------------


def _monomial_str(exp, names) -> str:
    parts = []
    for e, name in zip(exp, names):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def _coeff_str(x: int, y: int, d: int, monomial: str) -> tuple[str, str]:
    """(sign, body) of the coefficient (x + y*i) / d, d > 0, before `monomial`:
    sign is '+' or '-' and body omits it."""
    if not y:
        sign = "-" if x < 0 else "+"
        if monomial and abs(x) == d:
            return sign, monomial
        body = _rational_str(abs(x), d)
        return sign, f"{body}*{monomial}" if monomial else body
    if not x:  # purely imaginary
        sign = "-" if y < 0 else "+"
        head = "i" if abs(y) == d else f"{_rational_str(abs(y), d)}*i"
        return sign, f"{head}*{monomial}" if monomial else head
    # mixed complex coefficient: parenthesize, never split the sign out
    re_sign, re_body = _coeff_str(x, 0, d, "")
    im_sign, im_body = _coeff_str(0, y, d, "")
    inner = (re_body if re_sign == "+" else "-" + re_body) + f" {im_sign} {im_body}"
    body = f"({inner})"
    return "+", f"{body}*{monomial}" if monomial else body


def print_poly(p: MultiPoly) -> str:
    """Canonical text: graded-lex descending terms, normalized coefficients,
    read from the numerators over p.den."""
    if p.is_zero():
        return "0"
    names = ("x", "y") if p.arity == 2 else ("X", "Y", "Z")
    pieces = []
    for exp in sorted(p.num, key=_grlex_key, reverse=True):
        x, y = p.num[exp]
        sign, body = _coeff_str(x, y, p.den, _monomial_str(exp, names))
        if not pieces:
            pieces.append(body if sign == "+" else f"-{body}")
        else:
            pieces.append(f"{sign} {body}")
    return " ".join(pieces)


# -- system documents (.fol) ----------------------------------------------------


class FieldEntry:
    __slots__ = _fields = ("p", "q", "r")

    def __init__(self, p: MultiPoly, q: MultiPoly, r: MultiPoly):
        self.p, self.q, self.r = p, q, r


class CurveEntry:
    __slots__ = _fields = ("f", "components")

    def __init__(self, f: MultiPoly, components: list[str] | None = None):
        self.f, self.components = f, [] if components is None else components


class SystemDocument:
    """Named vector fields, curves and parameters from one `.fol` document."""

    __slots__ = _fields = ("fields", "curves", "params")

    def __init__(self):
        self.fields: dict[str, FieldEntry] = {}
        self.curves: dict[str, CurveEntry] = {}
        self.params: dict[str, GaussianRational] = {}


_SECTION_RE = re.compile(r"^\[(field|curve|param)\s+([A-Za-z_][A-Za-z_0-9-]*)\]$")


def parse_system(text: str) -> SystemDocument:
    """Parse a `.fol` document (line-oriented `key = value` under sections)."""
    doc = SystemDocument()
    section: tuple[str, str] | None = None
    pending: dict[str, tuple[str, int, int]] = {}  # key -> (its line, where its value starts, line number)

    def poly(key: str) -> MultiPoly:
        raw, start, line_no = pending[key]
        return _Parser(raw, 2, doc.params, start, len(raw.rstrip()), line_no).parse()

    def flush(line_no: int):
        nonlocal pending, section
        if section is None:
            pending = {}
            return
        kind, name = section
        if kind == "field":
            if "p" not in pending or "q" not in pending:
                raise ParseError(f"section [field {name}] needs both p and q", line_no, 1)
            doc.fields[name] = FieldEntry(poly("p"), poly("q"), poly("r") if "r" in pending else MultiPoly.zero(2))
        elif kind == "curve":
            if "f" not in pending:
                raise ParseError(f"section [curve {name}] needs key f", line_no, 1)
            comps = []
            if "components" in pending:
                raw, start, _ = pending["components"]
                comps = [s.strip() for s in raw[start:].split(",") if s.strip()]
            doc.curves[name] = CurveEntry(poly("f"), comps)
        elif kind == "param":
            if "value" not in pending:
                raise ParseError(f"section [param {name}] needs key value", line_no, 1)
            c = poly("value")
            if not c.is_constant():
                raise ParseError(f"param {name} must be a constant", pending["value"][2], 1)
            doc.params[name] = c.constant_value()
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
        key = line.partition("=")[0].strip()
        if key in pending:
            raise ParseError(f"duplicate key {key!r} in section", line_no, 1)
        pending[key] = (raw, raw.index("=") + 1, line_no)
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
    sign, body = _coeff_str(*_parts(c), "")
    return body if sign == "+" else f"-{body}"


# -- report serialization --------------------------------------------------------


def to_jsonable(value):
    """Normalize report values into JSON-safe structures with stable text.

    The one rule for every report: a record renders as the names its class
    declares in `_fields` (foltools' records, and any NamedTuple), each
    value rendered in turn; a Q(i) value, a rational and a projective point
    as their text, and a polynomial as `print_poly` writes it."""
    if isinstance(value, (GaussianRational, Fraction, ProjectivePoint)):
        return str(value)
    if isinstance(value, MultiPoly):
        return print_poly(value)
    if isinstance(value, float):
        return float(f"{value:.15g}")
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if (names := getattr(type(value), "_fields", None)) is not None:
        return {name: to_jsonable(getattr(value, name)) for name in names}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    return value


def report_json(report) -> str:
    """Deterministic machine-readable rendering of any report object."""
    return json.dumps(to_jsonable(report), indent=2, sort_keys=True)
