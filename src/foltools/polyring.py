"""Exact sparse multivariate polynomials over the Gaussian rationals.

A polynomial is num / den: `num` maps exponent tuples to nonzero Gaussian
integers (re, im) over one positive integer `den`, kept canonical, so two
polynomials are equal exactly when arity, den and num are, and arithmetic
runs in integers; `terms` is a cached read-only GaussianRational view.
Arity is 2 (affine variables x, y) or 3 (homogeneous coordinates X, Y, Z).

The canonical term order everywhere (printing, leading terms, gcd pivots)
is graded lexicographic: higher total degree first, then lexicographically
larger exponent tuple first.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd
from operator import add, sub
from types import MappingProxyType
from typing import Iterable

from .errors import ArityMismatch
from .gaussian import GInt, GaussianRational, ZERO, canonical, from_gint, gr, lift
from .uniroots import coprime_mod_p, gi_divmod, gi_mul, ugcd, utrim

Exponent = tuple[int, ...]

#: Degree of the zero polynomial: a sentinel smaller than every integer.
MINUS_INFINITY = float("-inf")

AFFINE_VARS = ("x", "y")
PROJECTIVE_VARS = ("X", "Y", "Z")


def _grlex_key(exp: Exponent):
    return (sum(exp), exp)


def _accumulate(out: dict, exp: Exponent, re: int, im: int) -> None:
    """out[exp] += re + im*i, keeping no zero entry."""
    old = out.get(exp)
    if old is not None:
        re, im = re + old[0], im + old[1]
    if re or im:
        out[exp] = (re, im)
    elif old is not None:
        del out[exp]


class MultiPoly:
    """Immutable exact polynomial in 2 or 3 variables."""

    __slots__ = ("arity", "den", "num", "_degree", "_terms")

    def __init__(self, arity: int, terms: dict[Exponent, GaussianRational] | None = None):
        items = list(terms.items()) if terms else []
        for exp, _ in items:
            if len(exp) != arity:
                raise ValueError(f"exponent {exp} does not match arity {arity}")
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent in {exp}")
        den, nums = lift(c for _, c in items)
        self._init(arity, den, {tuple(exp): u for (exp, _), u in zip(items, nums) if u != (0, 0)})

    def _init(self, arity: int, den: int, num: dict[Exponent, GInt]) -> None:
        if arity not in (2, 3):
            raise ValueError("arity must be 2 or 3")
        d, parts = canonical(den, num.values())
        if d != den:
            den, num = d, dict(zip(num, parts))
        setattr_ = object.__setattr__
        setattr_(self, "arity", arity)
        setattr_(self, "den", den)
        setattr_(self, "num", num)
        setattr_(self, "_degree", None)
        setattr_(self, "_terms", None)

    @classmethod
    def _of(cls, arity: int, den: int, num: dict[Exponent, GInt]) -> "MultiPoly":
        """num / den, made canonical; num is a fresh map with no zero entry."""
        p = object.__new__(cls)
        p._init(arity, den, num)
        return p

    def __setattr__(self, *_):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(arity: int) -> "MultiPoly":
        return MultiPoly(arity, {})

    @staticmethod
    def constant(arity: int, value) -> "MultiPoly":
        den, (u,) = lift((value,))
        return MultiPoly._of(arity, den, {(0,) * arity: u} if u != (0, 0) else {})

    @staticmethod
    def variable(arity: int, index: int) -> "MultiPoly":
        if not 0 <= index < arity:
            raise ValueError(f"variable index {index} out of range for arity {arity}")
        return MultiPoly._of(arity, 1, {tuple(int(v == index) for v in range(arity)): (1, 0)})

    @staticmethod
    def monomial(arity: int, exp: Exponent, coeff) -> "MultiPoly":
        c = coeff if isinstance(coeff, GaussianRational) else GaussianRational.coerce(coeff)
        return MultiPoly(arity, {tuple(exp): c})

    # -- basic queries --------------------------------------------------

    @property
    def terms(self) -> MappingProxyType:
        """Read-only view: exponent -> nonzero GaussianRational coefficient."""
        if self._terms is None:
            object.__setattr__(self, "_terms", MappingProxyType({e: from_gint(u, self.den) for e, u in self.num.items()}))
        return self._terms

    def is_zero(self) -> bool:
        return not self.num

    @property
    def degree(self):
        """Total degree; MINUS_INFINITY for the zero polynomial."""
        if self._degree is None:
            object.__setattr__(self, "_degree", max((sum(e) for e in self.num), default=MINUS_INFINITY))
        return self._degree

    def degree_in(self, var: int) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        return max((e[var] for e in self.num), default=-1)

    def is_constant(self) -> bool:
        return self.degree == MINUS_INFINITY or self.degree == 0

    def constant_value(self) -> GaussianRational:
        return self.coefficient((0,) * self.arity)

    def coefficient(self, exp: Exponent) -> GaussianRational:
        u = self.num.get(tuple(exp))
        return ZERO if u is None else from_gint(u, self.den)

    def is_homogeneous(self) -> bool:
        return len({sum(e) for e in self.num}) <= 1

    def sorted_terms(self) -> list[tuple[Exponent, GaussianRational]]:
        """Terms in descending graded-lex order (the canonical order)."""
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def has_real_coefficients(self) -> bool:
        return not any(im for _, im in self.num.values())

    # -- arithmetic ------------------------------------------------------

    def _check_arity(self, other: "MultiPoly"):
        if self.arity != other.arity:
            raise ArityMismatch(f"arity {self.arity} vs {other.arity}")

    def _plus(self, other: "MultiPoly", sign: int) -> "MultiPoly":
        """self + sign * other over the least common denominator."""
        self._check_arity(other)
        g = gcd(self.den, other.den)
        s, t = other.den // g, self.den // g * sign
        out = {e: (re * s, im * s) for e, (re, im) in self.num.items()}
        for e, (re, im) in other.num.items():
            _accumulate(out, e, re * t, im * t)
        return MultiPoly._of(self.arity, self.den * s, out)

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        return self._plus(other, 1)

    def __neg__(self) -> "MultiPoly":
        return self._times((-1, 0), self.den)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self._plus(other, -1)

    def __mul__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        self._check_arity(other)
        out: dict[Exponent, GInt] = {}
        for (ea, (ar, ai)), (eb, (br, bi)) in itertools.product(self.num.items(), other.num.items()):
            _accumulate(out, tuple(map(add, ea, eb)), ar * br - ai * bi, ar * bi + ai * br)
        return MultiPoly._of(self.arity, self.den * other.den, out)

    def __rmul__(self, other) -> "MultiPoly":
        return self.scale(other)

    def _times(self, u: GInt, den: int) -> "MultiPoly":
        """The polynomial with numerators num * u over den; u is nonzero."""
        ur, ui = u
        return MultiPoly._of(self.arity, den, {e: (re * ur - im * ui, re * ui + im * ur) for e, (re, im) in self.num.items()})

    def scale(self, c) -> "MultiPoly":
        c = c if isinstance(c, GaussianRational) else GaussianRational.coerce(c)
        den, (u,) = lift((c,))
        return self._times(u, self.den * den) if c else MultiPoly.zero(self.arity)

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power")
        result = MultiPoly.constant(self.arity, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiPoly) and (self.arity, self.den, self.num) == (other.arity, other.den, other.num)

    def __hash__(self):
        return hash((self.arity, self.den, frozenset(self.num.items())))

    def __bool__(self) -> bool:
        return bool(self.num)

    def __repr__(self) -> str:
        from .textio import print_poly  # local import to avoid a cycle

        return f"MultiPoly({print_poly(self)!r})"

    # -- calculus and substitution ----------------------------------------

    def partial(self, var: int) -> "MultiPoly":
        """Formal partial derivative with respect to variable `var`."""
        if not 0 <= var < self.arity:
            raise ValueError(f"variable index {var} out of range for arity {self.arity}")
        out: dict[Exponent, GInt] = {}
        for exp, (re, im) in self.num.items():
            e = exp[var]
            if e:
                out[exp[:var] + (e - 1,) + exp[var + 1 :]] = (re * e, im * e)
        return MultiPoly._of(self.arity, self.den, out)

    def evaluate(self, point: Iterable) -> GaussianRational:
        """Exact evaluation at a point of GaussianRational coordinates."""
        d, ws = lift(point)
        if len(ws) != self.arity:
            raise ValueError("point arity mismatch")
        den, (value,) = _specialize(self, -1, ws, d)
        return from_gint(value, den)

    def substitute(self, values: dict[int, "MultiPoly"]) -> "MultiPoly":
        """Substitute polynomials (same arity as the replacements) for variables.

        Every variable must be covered by `values`; result arity is the
        replacements' arity.
        """
        if not values:
            raise ValueError("no substitutions given")
        target_arity = next(iter(values.values())).arity
        result = MultiPoly.zero(target_arity)
        powers: dict[int, list[MultiPoly]] = {}
        for var in range(self.arity):
            if var not in values:
                raise ValueError(f"missing substitution for variable {var}")
            powers[var] = [MultiPoly.constant(target_arity, 1)]
        for exp, u in self.num.items():
            term = powers[0][0]
            for var, e in enumerate(exp):
                plist = powers[var]
                while len(plist) <= e:
                    plist.append(plist[-1] * values[var])
                if e:
                    term = term * plist[e]
            result = result + term._times(u, term.den * self.den)
        return result

    def shift(self, point: Iterable) -> "MultiPoly":
        """Translate so the given point moves to the origin: f(v + point)."""
        vals = list(point)
        subs = {}
        for var in range(self.arity):
            subs[var] = MultiPoly.variable(self.arity, var) + MultiPoly.constant(self.arity, vals[var])
        return self.substitute(subs)

    def homogeneous_part(self, d: int) -> "MultiPoly":
        return MultiPoly._of(self.arity, self.den, {e: u for e, u in self.num.items() if sum(e) == d})


# -- module-level operations ---------------------------------------------------


def _specialize(p: MultiPoly, var: int, ws: list[GInt], d: int) -> tuple[int, list[GInt]]:
    """p with each variable v but `var` set to ws[v] / d: (den, numerators of
    the coefficients in `var`, low to high); var = -1 sets every variable."""
    pows = [list(itertools.accumulate([w] * p.degree_in(v), gi_mul, initial=(1, 0))) for v, w in enumerate(ws)]
    top = max((sum(e) - (e[var] if var >= 0 else 0) for e in p.num), default=0)
    out = [(0, 0)] * (p.degree_in(var) + 1 if var >= 0 else 1)
    for exp, u in p.num.items():
        k = exp[var] if var >= 0 else 0
        for v, e in enumerate(exp):
            if e and v != var:
                u = gi_mul(u, pows[v][e])
        s = d ** (top - sum(exp) + k)
        out[k] = (out[k][0] + u[0] * s, out[k][1] + u[1] * s)
    return p.den * d**top, out


def homogenize(f: MultiPoly, n: int) -> MultiPoly:
    """Z^n * f(X/Z, Y/Z): embed an affine curve at projective degree n."""
    if f.arity != 2:
        raise ArityMismatch("homogenize expects an affine (arity-2) polynomial")
    if f.is_zero():
        return MultiPoly.zero(3)
    if n < f.degree:
        raise ValueError(f"target degree {n} below deg f = {f.degree}")
    return MultiPoly._of(3, f.den, {(a, b, n - a - b): u for (a, b), u in f.num.items()})


def dehomogenize(F: MultiPoly, var: int = 2) -> MultiPoly:
    """Set coordinate `var` to 1 (default Z); the other two keep their order."""
    if F.arity != 3:
        raise ArityMismatch("dehomogenize expects a projective (arity-3) polynomial")
    if var not in (0, 1, 2):
        raise ValueError(f"no coordinate {var!r} in a projective polynomial")
    out: dict[Exponent, GInt] = {}
    for exp, (re, im) in F.num.items():
        _accumulate(out, exp[:var] + exp[var + 1 :], re, im)
    return MultiPoly._of(2, F.den, out)


def exact_divide(a: MultiPoly, b: MultiPoly) -> MultiPoly | None:
    """Return q with a = q*b exactly, or None when b does not divide a.

    Leading-term division in graded-lex order; with lb = g * l0 b's leading
    numerator, 1 / lb = conj(l0) / (g |l0|^2), so every step is in integers.
    """
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    a._check_arity(b)
    lb_exp = max(b.num, key=_grlex_key)
    br, bi = b.num[lb_exp]
    g = gcd(br, bi)
    w, n = (br // g * b.den, -bi // g * b.den), (br * br + bi * bi) // g
    quotient, rem = MultiPoly.zero(a.arity), a
    while rem:
        lr_exp = max(rem.num, key=_grlex_key)
        qe = tuple(map(sub, lr_exp, lb_exp))
        if min(qe) < 0:
            return None
        term = MultiPoly._of(a.arity, rem.den * n, {qe: gi_mul(rem.num[lr_exp], w)})
        quotient, rem = quotient + term, rem - term * b
    return quotient


def leading_form(f: MultiPoly) -> MultiPoly:
    """Top-degree homogeneous part."""
    if f.is_zero():
        raise ValueError("zero polynomial has no leading form")
    return f.homogeneous_part(int(f.degree))


# -- gcd via primitive pseudo-remainder sequences -----------------------------


def _monic(f: MultiPoly) -> MultiPoly:
    """f / lc(f): with lc's numerator L over g = gcd(re, im), f / lc = num * conj(L)/g over |L|^2/g."""
    if f.is_zero():
        return f
    re, im = f.num[max(f.num, key=_grlex_key)]
    g = gcd(re, im)
    return f._times((re // g, -im // g), (re * re + im * im) // g)


def _coeffs_in(f: MultiPoly, var: int) -> dict[int, MultiPoly]:
    """View f as univariate in `var` with MultiPoly coefficients (same arity)."""
    blocks: dict[int, dict[Exponent, GInt]] = {}
    for exp, u in f.num.items():
        blocks.setdefault(exp[var], {})[exp[:var] + (0,) + exp[var + 1 :]] = u
    return {e: MultiPoly._of(f.arity, f.den, block) for e, block in blocks.items()}


def _content(f: MultiPoly, var: int) -> MultiPoly:
    cont = MultiPoly.zero(f.arity)
    for p in _coeffs_in(f, var).values():
        cont = poly_gcd(cont, p)
        if cont.is_constant():
            break  # the monic constant 1, which divides every coefficient left
    return cont


def _primitive_part(f: MultiPoly, var: int) -> MultiPoly:
    if f.is_zero():
        return f
    cont = _content(f, var)
    q = exact_divide(f, cont)
    assert q is not None
    return q


def _pseudo_rem(a: MultiPoly, b: MultiPoly, var: int) -> MultiPoly:
    """Pseudo-remainder of a by b in `var`: lc(b)^(da-db+1) * a mod b."""
    db = b.degree_in(var)
    lb = _coeffs_in(b, var)[db]
    v = MultiPoly.variable(a.arity, var)
    r = a
    da = a.degree_in(var)
    steps = 0
    while not r.is_zero() and r.degree_in(var) >= db:
        dr = r.degree_in(var)
        r = r * lb - b * (_coeffs_in(r, var)[dr] * v ** (dr - db))
        steps += 1
    # match the classical normalization lc(b)^(da-db+1) * a mod b exactly
    missing = (da - db + 1) - steps
    if missing > 0 and not r.is_zero():
        r = r * lb**missing
    return r


def _specialize_keeping(p: MultiPoly, var: int, point: list[GaussianRational]) -> list[GaussianRational]:
    """Coefficients in `var`, low to high, after substituting constants for every other variable."""
    d, ws = lift(point)
    den, nums = _specialize(p, var, ws, d)
    return utrim([from_gint(u, den) for u in nums])


def _coprimality_fast_path(pa: MultiPoly, pb: MultiPoly, var: int) -> bool:
    """Sound certificate that two var-primitive polynomials are coprime in var.

    Specialize the other variables at each of 8 points where both leading
    coefficients survive and ask the certificate modulo P there; a coprime
    image at any of them forces deg_var(gcd) = 0, which for primitive inputs
    means a trivial gcd.  False means "unknown".
    """
    others = [v for v in range(pa.arity) if v != var]
    for trial in range(8):
        point = [(0, 0)] * pa.arity
        for idx, v in enumerate(others):
            point[v] = (trial + idx + (1 if trial else 0), 0)
        # numerators of the specialisations, nonzero integer multiples of them: the same gcd
        sa, sb = ([from_gint(u) for u in _specialize(p, var, point, 1)[1]] for p in (pa, pb))
        if sa[-1] and sb[-1] and coprime_mod_p(sa, sb):
            return True
    return False


def _subresultant_gcd(pa: MultiPoly, pb: MultiPoly, var: int) -> MultiPoly:
    """Gcd of var-primitive polynomials by the subresultant PRS.

    Divisions by g * h^delta are exact (Brown-Traub), so no per-step content
    extraction is needed; one primitive-part at the end.
    """
    one = MultiPoly.constant(pa.arity, 1)
    A, B = pa, pb
    if A.degree_in(var) < B.degree_in(var):
        A, B = B, A
    g, h = one, one
    while True:
        if B.is_zero():
            return _primitive_part(A, var)
        if B.degree_in(var) == 0:
            return one
        delta = A.degree_in(var) - B.degree_in(var)
        R = _pseudo_rem(A, B, var)
        if R.is_zero():
            return _primitive_part(B, var)
        denom = g * h**delta
        quotient = exact_divide(R, denom)
        assert quotient is not None, "subresultant divisibility must hold"
        A, B = B, quotient
        g = _coeffs_in(A, var)[A.degree_in(var)]
        if delta == 1:
            h = g
        elif delta > 1:
            hq = exact_divide(g**delta, h ** (delta - 1))
            assert hq is not None
            h = hq


def _homogeneous_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Gcd of homogeneous trivariate polynomials via the Z = 1 slice.

    Stripping the Z-power and dehomogenizing is factor-bijective for
    Z-coprime homogeneous polynomials, so the bivariate gcd lifts back.
    """
    ka = min(e[2] for e in a.num)
    kb = min(e[2] for e in b.num)
    a2 = dehomogenize(MultiPoly._of(3, a.den, {(x, y, z - ka): u for (x, y, z), u in a.num.items()}))
    b2 = dehomogenize(MultiPoly._of(3, b.den, {(x, y, z - kb): u for (x, y, z), u in b.num.items()}))
    g2 = poly_gcd(a2, b2)
    lifted = homogenize(g2, int(g2.degree)) if not g2.is_constant() else MultiPoly.constant(3, 1)
    k = min(ka, kb)
    if k:
        lifted = lifted * MultiPoly.monomial(3, (0, 0, k), 1)
    return _monic(lifted)


def poly_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Gcd over Q(i), normalized monic in graded-lex.  gcd(0, 0) = 0."""
    if a.is_zero():
        return _monic(b)
    if b.is_zero():
        return _monic(a)
    a._check_arity(b)
    if a.arity == 3 and a.is_homogeneous() and b.is_homogeneous():
        return _homogeneous_gcd(a, b)
    var = -1
    for v in range(a.arity - 1, -1, -1):
        if a.degree_in(v) > 0 or b.degree_in(v) > 0:
            var = v
            break
    if var < 0:
        return MultiPoly.constant(a.arity, 1)
    if all(max(a.degree_in(v), b.degree_in(v)) == 0 for v in range(a.arity) if v != var):
        # no other variable occurs, so there is nothing to substitute
        g = ugcd(_specialize_keeping(a, var, [ZERO] * a.arity), _specialize_keeping(b, var, [ZERO] * a.arity))
        return MultiPoly(a.arity, {tuple(k if v == var else 0 for v in range(a.arity)): c for k, c in enumerate(g)})
    if a.degree_in(var) == 0 or b.degree_in(var) == 0:
        # one input lives entirely in the other variables
        thin, thick = (a, b) if a.degree_in(var) == 0 else (b, a)
        return _monic(poly_gcd(thin, _content(thick, var)))
    ca, cb = _content(a, var), _content(b, var)
    # a constant content is 1, since poly_gcd is monic
    pa = a if ca.is_constant() else exact_divide(a, ca)
    pb = b if cb.is_constant() else exact_divide(b, cb)
    assert pa is not None and pb is not None
    cg = poly_gcd(ca, cb)
    if _coprimality_fast_path(pa, pb, var):
        return _monic(cg)
    return _monic(cg * _subresultant_gcd(pa, pb, var))


def is_squarefree(f: MultiPoly) -> bool:
    """True when f has no repeated factor (characteristic 0: gcd with all partials)."""
    if f.is_zero():
        raise ValueError("squarefree test on the zero polynomial")
    if f.is_constant():
        return True
    g = f
    acc = MultiPoly.zero(f.arity)
    for var in range(f.arity):
        acc = poly_gcd(acc, g.partial(var))
    return poly_gcd(f, acc).is_constant() if not acc.is_zero() else False


# -- resultants by evaluation and interpolation over Z[i] -----------------------


def _gi_det(m: list[list[GInt]]) -> GInt:
    """Determinant of a square Z[i] matrix by fraction-free Bareiss elimination (m is consumed)."""
    n = len(m)
    sign, prev = 1, (1, 0)
    for k in range(n - 1):
        if m[k][k] == (0, 0):
            pivot = next((r for r in range(k + 1, n) if m[r][k] != (0, 0)), None)
            if pivot is None:
                return (0, 0)
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        rk, pk = m[k], m[k][k]
        for i in range(k + 1, n):
            ri, mik = m[i], m[i][k]
            for j in range(k + 1, n):
                a, b = gi_mul(ri[j], pk), gi_mul(mik, rk[j])
                ri[j], rem = gi_divmod((a[0] - b[0], a[1] - b[1]), prev)
                assert rem == (0, 0), "Bareiss divisibility must hold"
        prev = pk
    det = m[n - 1][n - 1]
    return det if sign > 0 else (-det[0], -det[1])


def _interpolate(values: list[int]) -> list[int]:
    """Coefficients, low to high, of the integer polynomial f of degree < len(values) with f(t) = values[t].

    Newton forward differences: Delta^k f(t) / k! is an integer for every
    integer polynomial f, so every division is exact.
    """
    diff, newton = list(values), []
    for k in range(1, len(values) + 1):
        newton.append(diff[0])
        steps = [divmod(b - a, k) for a, b in zip(diff, diff[1:])]
        assert not any(r for _, r in steps), "Newton differences must divide exactly"
        diff = [q for q, _ in steps]
    coeffs: list[int] = []
    for k in range(len(newton) - 1, -1, -1):  # coeffs * (t - k) + newton[k]
        coeffs = [0] + coeffs
        for j in range(len(coeffs) - 1):
            coeffs[j] -= k * coeffs[j + 1]
        coeffs[0] += newton[k]
    return coeffs


def _interpolate_grid(values: dict[tuple[int, ...], int], sizes: list[int]) -> dict[tuple[int, ...], int]:
    """Coefficients of the integer polynomial whose values on the grid prod(range(size)) are given.

    One axis at a time: fixing the later coordinates at integers leaves an
    integer polynomial in the current one, and after interpolating it each
    coefficient is again an integer polynomial in the coordinates not yet done.
    """
    for axis, size in enumerate(sizes):
        out: dict[tuple[int, ...], int] = {}
        for point in values:
            if point[axis]:
                continue
            line = [values[point[:axis] + (t,) + point[axis + 1 :]] for t in range(size)]
            for k, c in enumerate(_interpolate(line)):
                out[point[:axis] + (k,) + point[axis + 1 :]] = c
        values = out
    return values


def resultant(a: MultiPoly, b: MultiPoly, var: int) -> MultiPoly:
    """Resultant of a and b with respect to `var`; a polynomial in the others.

    Collins' evaluation method without primes: the Sylvester determinant of
    the numerators sa*a and sb*b (sa, sb the denominators) is taken by integer
    Bareiss at every point of a grid of integers in the other variables, one
    point more per variable than a bound on the resultant's degree in it, and
    interpolated exactly.  Evaluation commutes with the determinant, so a
    leading coefficient that vanishes at a grid point does no harm.  The
    result is Res(sa*a, sb*b) / (sa^deg_var(b) * sb^deg_var(a)).
    """
    a._check_arity(b)
    if not 0 <= var < a.arity:
        raise ValueError(f"variable index {var} out of range for arity {a.arity}")
    da, db = a.degree_in(var), b.degree_in(var)
    if da < 0 or db < 0:
        raise ValueError("resultant of a zero polynomial")
    if da == 0 and db == 0:
        return MultiPoly.constant(a.arity, 1)
    if da == 0:
        return a**db
    if db == 0:
        return b**da
    others = [v for v in range(a.arity) if v != var]
    # A Sylvester entry a_e has total degree at most deg(a) - e, which bounds
    # the resultant's total degree by db*deg(a) + da*deg(b) - da*db.
    total = db * int(a.degree) + da * int(b.degree) - da * db
    sizes = [min(da * b.degree_in(v) + db * a.degree_in(v), total) + 1 for v in others]
    n = da + db
    dets: dict[tuple[int, ...], GInt] = {}
    for point in itertools.product(*(range(size) for size in sizes)):
        full = [(0, 0)] * a.arity
        for v, t in zip(others, point):
            full[v] = (t, 0)
        rows = []
        for p, width, count in ((a, da, db), (b, db, da)):
            entries = _specialize(p, var, full, 1)[1]
            for i in range(count):
                row = [(0, 0)] * n
                for e, c in enumerate(entries):
                    row[i + width - e] = c
                rows.append(row)
        dets[point] = _gi_det(rows)
    re = _interpolate_grid({p: d[0] for p, d in dets.items()}, sizes)
    im = _interpolate_grid({p: d[1] for p, d in dets.items()}, sizes)
    num: dict[Exponent, GInt] = {}
    for point, r in re.items():
        exp = [0] * a.arity
        for v, k in zip(others, point):
            exp[v] = k
        if r or im[point]:
            num[tuple(exp)] = (r, im[point])
    return MultiPoly._of(a.arity, a.den**db * b.den**da, num)


# -- small construction helpers ----------------------------------------------


def affine_vars() -> tuple[MultiPoly, MultiPoly]:
    return MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)


def projective_vars() -> tuple[MultiPoly, MultiPoly, MultiPoly]:
    return MultiPoly.variable(3, 0), MultiPoly.variable(3, 1), MultiPoly.variable(3, 2)


def const2(value) -> MultiPoly:
    return MultiPoly.constant(2, gr(value) if isinstance(value, (int, str, Fraction)) else value)
