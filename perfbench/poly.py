"""Exact polynomial arithmetic used to build inputs and to check answers.

Independent of foltools on purpose: the documents the benchmark feeds the
program and the identities it checks the answers against are computed here,
so a defect in the program's own kernel cannot also hide in its oracle.

A polynomial is a dict mapping exponent tuples to coefficients.  Real
coefficients are Fractions; Gaussian values are (re, im) pairs of Fractions.
"""

from __future__ import annotations

import re
from fractions import Fraction

AFFINE = ("x", "y")
PROJECTIVE = ("X", "Y", "Z")


def const(value, arity: int = 2) -> dict:
    value = Fraction(value)
    return {(0,) * arity: value} if value else {}


def var(index: int, arity: int = 2) -> dict:
    exp = [0] * arity
    exp[index] = 1
    return {tuple(exp): Fraction(1)}


def add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def scale(a: dict, c) -> dict:
    c = Fraction(c)
    return {e: v * c for e, v in a.items()} if c else {}


def sub(a: dict, b: dict) -> dict:
    return add(a, scale(b, -1))


def mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(i + j for i, j in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def product(polys, arity: int = 2) -> dict:
    out = const(1, arity)
    for p in polys:
        out = mul(out, p)
    return out


def partial(a: dict, index: int) -> dict:
    out = {}
    for e, c in a.items():
        if e[index]:
            d = list(e)
            d[index] -= 1
            out[tuple(d)] = c * e[index]
    return out


def degree(a: dict) -> int:
    return max((sum(e) for e in a), default=-1)


def linear(coeffs, arity: int) -> dict:
    """sum(coeffs[k] * variable_k) + coeffs[arity] (the constant, affine only)."""
    out: dict = {}
    for k in range(arity):
        out = add(out, scale(var(k, arity), coeffs[k]))
    if len(coeffs) > arity:
        out = add(out, const(coeffs[arity], arity))
    return out


def dehomogenize(F: dict) -> dict:
    """F(x, y, 1)."""
    out: dict = {}
    for (a, b, _), c in F.items():
        out = add(out, {(a, b): c})
    return out


def exact_divide_by_var(a: dict, index: int) -> dict | None:
    out = {}
    for e, c in a.items():
        if not e[index]:
            return None
        d = list(e)
        d[index] -= 1
        out[tuple(d)] = c
    return out


def normal_form(P: dict, Q: dict, R: dict) -> tuple[dict, dict, dict]:
    """Affine normal form (p, q, r) of the Z = 1 chart of a one-form.

    The chart field is (-Q(x,y,1), P(x,y,1)); when its degree exceeds the
    form's degree m, the top parts are x*r and y*r and r splits off.
    """
    m = degree(P) - 1
    a = scale(dehomogenize(Q), -1)
    b = dehomogenize(P)
    if max(degree(a), degree(b)) <= m:
        return a, b, {}
    a_top = {e: c for e, c in a.items() if sum(e) == m + 1}
    b_top = {e: c for e, c in b.items() if sum(e) == m + 1}
    r = exact_divide_by_var(a_top, 0) if a_top else exact_divide_by_var(b_top, 1)
    if r is None:
        raise ValueError("top-degree parts are not radial")
    x, y = var(0), var(1)
    return sub(a, mul(x, r)), sub(b, mul(y, r)), r


# -- text ------------------------------------------------------------------------


def _monomial(exp, names) -> str:
    parts = []
    for e, name in zip(exp, names):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def to_text(a: dict, names=AFFINE) -> str:
    """Expanded text in the foltools grammar, terms in a fixed order."""
    if not a:
        return "0"
    pieces = []
    for e in sorted(a, key=lambda e: (-sum(e), tuple(-k for k in e))):
        c = a[e]
        mono = _monomial(e, names)
        mag = abs(c)
        body = mono if mono and mag == 1 else (f"{mag}*{mono}" if mono else str(mag))
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(pieces)


_GAUSS_RE = re.compile(
    r"^(?P<re>-?\d+(?:/\d+)?)?\s*(?:(?P<sign>^-|[+-])?\s*(?:(?P<im>\d+(?:/\d+)?)\*)?(?P<i>i))?$"
)


def parse_gauss(text: str) -> tuple[Fraction, Fraction]:
    """A Gaussian rational literal such as `3`, `-1/2`, `i`, `-2*i`, `1/2 - 3*i`."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1].strip()
    m = _GAUSS_RE.match(text)
    if not m or not text:
        raise ValueError(f"not a Gaussian rational: {text!r}")
    re_part = Fraction(m.group("re")) if m.group("re") else Fraction(0)
    im_part = Fraction(0)
    if m.group("i"):
        im_part = Fraction(m.group("im")) if m.group("im") else Fraction(1)
        if m.group("sign") == "-":
            im_part = -im_part
    return re_part, im_part


def _split_terms(text: str) -> list[str]:
    terms, depth, start = [], 0, 0
    for k, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and k > 0 and text[k - 1] == " ":
            terms.append(text[start:k])
            start = k
    terms.append(text[start:])
    return [t.replace(" ", "") for t in terms if t.strip()]


def parse_expanded(text: str, names=AFFINE) -> dict:
    """Parse an expanded polynomial as printed by foltools into {exp: (re, im)}."""
    out: dict = {}
    if text.strip() == "0":
        return out
    for term in _split_terms(text.strip()):
        sign = 1
        if term[0] in "+-":
            sign = -1 if term[0] == "-" else 1
            term = term[1:]
        coeff = (Fraction(1), Fraction(0))
        exp = [0] * len(names)
        if term.startswith("("):
            close = term.index(")")
            coeff = parse_gauss(term[: close + 1])
            term = term[close + 2 :]
        factors = [f for f in term.split("*") if f]
        mono_started = False
        for factor in factors:
            base, _, power = factor.partition("^")
            if base in names:
                exp[names.index(base)] += int(power or 1)
                mono_started = True
            elif base == "i" and not mono_started:
                coeff = gmul(coeff, (Fraction(0), Fraction(1)))
            elif not mono_started:
                coeff = gmul(coeff, (Fraction(base), Fraction(0)))
            else:
                raise ValueError(f"unexpected factor {factor!r} in {text!r}")
        coeff = (coeff[0] * sign, coeff[1] * sign)
        key = tuple(exp)
        prev = out.get(key, (Fraction(0), Fraction(0)))
        out[key] = (prev[0] + coeff[0], prev[1] + coeff[1])
    return {e: c for e, c in out.items() if c != (0, 0)}


def as_real(a: dict) -> dict:
    if any(c[1] for c in a.values()):
        raise ValueError("polynomial has non-real coefficients")
    return {e: c[0] for e, c in a.items() if c[0]}


# -- Gaussian evaluation -----------------------------------------------------------


def gmul(u, v):
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def geval(a: dict, point) -> tuple[Fraction, Fraction]:
    """Value of a real polynomial at a point with Gaussian rational coordinates."""
    total = (Fraction(0), Fraction(0))
    powers = [[(Fraction(1), Fraction(0))] for _ in point]
    for e, c in a.items():
        term = (Fraction(c), Fraction(0))
        for k, power in enumerate(e):
            table = powers[k]
            while len(table) <= power:
                table.append(gmul(table[-1], point[k]))
            term = gmul(term, table[power])
        total = (total[0] + term[0], total[1] + term[1])
    return total


def parse_point(text: str) -> tuple:
    """`(X : Y : Z)` as printed by foltools, into a tuple of Gaussian pairs."""
    body = text.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise ValueError(f"not a projective point: {text!r}")
    return tuple(parse_gauss(part) for part in body[1:-1].split(":"))


def normalize_point(coords) -> tuple:
    """Scale a projective point so its last nonzero coordinate is 1."""
    pivot = next(c for c in reversed(coords) if c != (0, 0))
    norm = pivot[0] * pivot[0] + pivot[1] * pivot[1]
    inv = (pivot[0] / norm, -pivot[1] / norm)
    return tuple(gmul(c, inv) for c in coords)


def point_key(text: str) -> str:
    """Canonical text of a projective point, independent of its printed scaling."""
    return ":".join(f"{re},{im}" for re, im in normalize_point(parse_point(text)))


class Expr:
    """Operator sugar over the dict polynomials, for writing fixed formulas."""

    def __init__(self, d: dict, arity: int):
        self.d, self.arity = d, arity

    def _lift(self, other) -> dict:
        return other.d if isinstance(other, Expr) else const(other, self.arity)

    def __add__(self, other):
        return Expr(add(self.d, self._lift(other)), self.arity)

    __radd__ = __add__

    def __sub__(self, other):
        return Expr(sub(self.d, self._lift(other)), self.arity)

    def __rsub__(self, other):
        return Expr(sub(self._lift(other), self.d), self.arity)

    def __neg__(self):
        return Expr(scale(self.d, -1), self.arity)

    def __mul__(self, other):
        return Expr(mul(self.d, self._lift(other)), self.arity)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        out = Expr(const(1, self.arity), self.arity)
        for _ in range(n):
            out = out * self
        return out


def symbols(arity: int) -> tuple:
    return tuple(Expr(var(k, arity), arity) for k in range(arity))
