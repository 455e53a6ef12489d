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
from functools import reduce
from math import comb, gcd
from operator import add, mul, sub
from types import MappingProxyType
from typing import Iterable

from .errors import ArityMismatch, PreconditionError
from .gaussian import GInt, GaussianRational, ZERO, canonical, from_gint, lift
from .uniroots import coprime_mod_p, gi_mul, udeg, ueval, ugcd, utrim

Exponent = tuple[int, ...]

#: Degree of the zero polynomial: a sentinel smaller than every integer.
MINUS_INFINITY = float("-inf")


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

    __slots__ = ("arity", "den", "num", "_degree", "_degrees", "_terms")

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
        setattr_(self, "_degrees", None)
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
        if self._degrees is None:  # every variable's, from one pass over the exponents
            degrees = tuple(map(max, zip(*self.num))) if self.num else (-1,) * self.arity
            object.__setattr__(self, "_degrees", degrees)
        return self._degrees[var]

    def is_constant(self) -> bool:
        return self.degree == MINUS_INFINITY or self.degree == 0

    def constant_value(self) -> GaussianRational:
        return self.coefficient((0,) * self.arity)

    def coefficient(self, exp: Exponent) -> GaussianRational:
        u = self.num.get(tuple(exp))
        return ZERO if u is None else from_gint(u, self.den)

    def is_homogeneous(self) -> bool:
        return len({sum(e) for e in self.num}) <= 1

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

    def shift(self, point: Iterable) -> "MultiPoly":
        """Translate so the given point moves to the origin: f(v + point).

        With point = w / d and deg the total degree, each term's product of
        d^e_v (v + w_v/d)^e_v is expanded by the binomial theorem in Z[i],
        and the sum is taken over d^deg, so every coefficient is a Z[i]
        numerator and no MultiPoly is built until the result.
        """
        d, ws = lift(point)
        if len(ws) != self.arity:
            raise ValueError("point arity mismatch")
        if not self.num:
            return self
        deg = int(self.degree)
        # expansions[v][e]: the nonzero (j, C(e, j) w_v^(e-j) d^j) of d^e (v + w_v/d)^e
        expansions = []
        for v, w in enumerate(ws):
            top = self.degree_in(v)
            wp = list(itertools.accumulate([w] * top, gi_mul, initial=(1, 0)))
            expansions.append([
                [(j, (comb(e, j) * d**j * wp[e - j][0], comb(e, j) * d**j * wp[e - j][1])) for j in range(e + 1) if wp[e - j] != (0, 0)]
                for e in range(top + 1)
            ])
        out: dict[Exponent, GInt] = {}
        for exp, u in self.num.items():
            parts: dict[Exponent, GInt] = {(): u}
            for v, e in enumerate(exp):
                parts = {js + (j,): gi_mul(val, c) for js, val in parts.items() for j, c in expansions[v][e]}
            s = d ** (deg - sum(exp))
            for js, (re, im) in parts.items():
                _accumulate(out, js, re * s, im * s)
        return MultiPoly._of(self.arity, self.den * d**deg, out)

    def homogeneous_part(self, d: int) -> "MultiPoly":
        return MultiPoly._of(self.arity, self.den, {e: u for e, u in self.num.items() if sum(e) == d})


# -- module-level operations ---------------------------------------------------


def _specialize(p: MultiPoly, var: int, ws: list[GInt], d: int) -> tuple[int, list[GInt]]:
    """p with each variable v but `var` set to ws[v] / d: (den, numerators of
    the coefficients in `var`, low to high); var = -1 sets every variable."""
    pows = [list(itertools.accumulate([w] * p.degree_in(v), gi_mul, initial=(1, 0))) if v != var else None for v, w in enumerate(ws)]
    top = max((sum(e) - (e[var] if var >= 0 else 0) for e in p.num), default=0)
    scale = [d**j for j in range(top + 1)]  # a term of degree s in the set variables takes d^(top - s)
    size = p.degree_in(var) + 1 if var >= 0 else 1
    re, im = [0] * size, [0] * size
    for exp, (ur, ui) in p.num.items():
        k, j = (exp[var] if var >= 0 else 0), top
        for v, e in enumerate(exp):
            if e and v != var:
                wr, wi = pows[v][e]
                ur, ui, j = ur * wr - ui * wi, ur * wi + ui * wr, j - e
        if d != 1:
            ur, ui = ur * scale[j], ui * scale[j]
        re[k] += ur
        im[k] += ui
    return p.den * scale[top], list(zip(re, im))


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

    Leading-term division in graded-lex order of a's numerators by b's, in
    Q(i) scalars: a = A / da and b = B / db give q = (A / B) * db / da.
    """
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    a._check_arity(b)
    lb_exp = max(b.num, key=_grlex_key)
    inv = from_gint(b.num[lb_exp]).inverse()
    rest = [(e, from_gint(u)) for e, u in b.num.items() if e != lb_exp]
    rem = {e: from_gint(u) for e, u in a.num.items()}
    quotient = {}
    while rem:
        lr_exp = max(rem, key=_grlex_key)
        qe = tuple(map(sub, lr_exp, lb_exp))
        if min(qe) < 0:
            return None
        c = quotient[qe] = rem.pop(lr_exp) * inv
        for e, u in rest:
            k = tuple(map(add, qe, e))
            v = rem.get(k, ZERO) - c * u
            if v:
                rem[k] = v
            else:
                del rem[k]
    den, nums = lift(quotient.values())
    return MultiPoly._of(a.arity, den * a.den, {e: (x * b.den, y * b.den) for e, (x, y) in zip(quotient, nums)})


def leading_form(f: MultiPoly) -> MultiPoly:
    """Top-degree homogeneous part."""
    if f.is_zero():
        raise ValueError("zero polynomial has no leading form")
    return f.homogeneous_part(int(f.degree))


# -- gcds: images in one variable, verified by exact division ------------------


def _monic(f: MultiPoly) -> MultiPoly:
    """f / lc(f): with lc's numerator L over g = gcd(re, im), f / lc = num * conj(L)/g over |L|^2/g."""
    if f.is_zero():
        return f
    re, im = f.num[max(f.num, key=_grlex_key)]
    g = gcd(re, im)
    return f._times((re // g, -im // g), (re * re + im * im) // g)


def _specialize_keeping(p: MultiPoly, var: int, point: list[GaussianRational]) -> list[GInt]:
    """The trimmed Z[i] numerators of the coefficients in `var`, low to high,
    after substituting constants for every other variable: the polynomial up
    to a positive scalar, the form `uniroots` takes."""
    d, ws = lift(point)
    return utrim(_specialize(p, var, ws, d)[1])


def _coprime_images(a: MultiPoly, b: MultiPoly, variables: Iterable[int]) -> bool:
    """True proves deg_v gcd(a, b) = 0 for every v in `variables`; False proves nothing.

    A variable v in which a or b has degree 0 needs no proof.  For each other
    v, the remaining variables are set to each of 8 integer points in turn,
    and the numerators' images in F_P[v] are compared (`coprime_mod_p`).
    Proof: take G = gcd(a, b) primitive in Z[i][vars]; by Gauss's lemma it
    divides both numerators there, so lc_v(G) divides lc_v(a) and lc_v(b).
    At a point where the image of lc_v(a) is nonzero mod P, so is that of
    lc_v(G): the image of G keeps its degree in v and divides both images,
    so a coprime image there forces deg_v G = 0.  With every variable
    given, True means gcd(a, b) = 1.
    """
    for var in variables:
        if a.degree_in(var) < 1 or b.degree_in(var) < 1:
            continue
        others = [v for v in range(a.arity) if v != var]
        for trial in range(8):
            point = [(0, 0)] * a.arity
            for idx, v in enumerate(others):
                point[v] = (trial + idx + (1 if trial else 0), 0)
            if coprime_mod_p(_specialize(a, var, point, 1)[1], _specialize(b, var, point, 1)[1]):
                break
        else:
            return False
    return True


def _rows(p: MultiPoly, var: int) -> list[list[GInt]]:
    """The coefficients of affine p in `var`, low to high, each as its Z[i] numerator list in the other variable."""
    other = 1 - var
    rows = [[(0, 0)] * (p.degree_in(other) + 1) for _ in range(p.degree_in(var) + 1)]
    for exp, u in p.num.items():
        rows[exp[var]][exp[other]] = u
    return rows


def _univariate(c: list[GInt], arity: int, var: int) -> MultiPoly:
    """The polynomial in the variable var alone with the Z[i] coefficients c, low to high."""
    return MultiPoly._of(arity, 1, {tuple(k if v == var else 0 for v in range(arity)): u for k, u in enumerate(c) if u != (0, 0)})


def _evaluation_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Gcd of two affine polynomials up to a constant, from images at x = t (Brown, JACM 18, 1971).

    In Q(i)[x][y], gcd(a, b) = gcd(ca, cb) * G, ca and cb the contents.  Where
    no leading coefficient in y vanishes, G(t, y) divides g_t = `ugcd`(a(t, y),
    b(t, y)), and G scaled to leading coefficient gamma = `ugcd`(lc a, lc b),
    of x-degree at most deg gamma + min deg_x, is g_t * gamma(t) / lc(g_t) if
    deg g_t = deg_y G.  The interpolant's primitive part H in x is kept only
    if it divides a and b: then H divides G (Gauss's lemma) and deg_y H >=
    deg_y G, so H = G.  Otherwise each image kept had too high a degree,
    which only finitely many t give.
    """
    rows_a, rows_b = _rows(a, 1), _rows(b, 1)
    content = _univariate(reduce(ugcd, rows_a + rows_b, []), 2, 0)  # gcd(ca, cb)
    gamma = ugcd(rows_a[-1], rows_b[-1])
    need = udeg(gamma) + min(a.degree_in(0), b.degree_in(0)) + 1
    size, ts, images = min(len(rows_a), len(rows_b)) + 1, [], []  # size: one more than any image's
    for t in itertools.count():
        at, bt = (_specialize(p, 1, [(t, 0), (0, 0)], 1)[1] for p in (a, b))
        if at[-1] == (0, 0) or bt[-1] == (0, 0) or len(g := ugcd(at, bt)) > size:
            continue
        if len(g) == 1:
            return content
        if len(g) < size:
            size, ts, images = len(g), [], []
        # g * gamma(t) / lc(g) = g * gamma(t) * conj(lc(g)) / |lc(g)|^2
        (lr, li), c = g[-1], (ueval([u[0] for u in gamma], t), ueval([u[1] for u in gamma], t))
        ts.append(t)
        images.append([from_gint(gi_mul(gi_mul(u, c), (lr, -li)), lr * lr + li * li) for u in g])
        if len(ts) == need:
            parts = [(_interpolate_at(ts, [v[k].re for v in images]), _interpolate_at(ts, [v[k].im for v in images])) for k in range(size)]
            h = MultiPoly(2, {(i, k): GaussianRational(r, s) for k, (re, im) in enumerate(parts) for i, (r, s) in enumerate(zip(re, im))})
            h = exact_divide(h, _univariate(reduce(ugcd, _rows(h, 1), []), 2, 0))
            if exact_divide(a, h) is not None and exact_divide(b, h) is not None:
                return content * h
            size, ts, images = size - 1, [], []


def _homogeneous_gcd(a: MultiPoly, b: MultiPoly, var: int) -> MultiPoly:
    """Gcd of two forms through the affine slices `dehomogenize(F, var)`, var the last variable that occurs.

    Setting var = 1 is factor-bijective for forms that var does not divide, so the
    gcd of the slices, re-homogenized with var, times the least power of var in a or b is the gcd.
    """
    if a.arity == 2:  # binary forms: the same forms in X and Y
        return dehomogenize(_homogeneous_gcd(homogenize(a, int(a.degree)), homogenize(b, int(b.degree)), var))
    g1 = poly_gcd(dehomogenize(a, var), dehomogenize(b, var))
    top = int(g1.degree) + min(e[var] for p in (a, b) for e in p.num)
    return _monic(MultiPoly._of(3, g1.den, {e[:var] + (top - sum(e),) + e[var:]: u for e, u in g1.num.items()}))


def poly_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Gcd over Q(i), normalized monic in graded-lex, gcd(0, 0) = 0: `ugcd` in one variable,
    `_homogeneous_gcd` for two forms, else (affine) `_coprime_images`, then `_evaluation_gcd`."""
    if a.is_zero() or b.is_zero():
        return _monic(a + b)
    a._check_arity(b)
    occurring = [v for v in range(a.arity) if a.degree_in(v) > 0 or b.degree_in(v) > 0]
    if not occurring:
        return MultiPoly.constant(a.arity, 1)
    var = occurring[-1]
    if len(occurring) == 1:
        # no other variable occurs, so there is nothing to substitute
        g = ugcd(_specialize_keeping(a, var, [ZERO] * a.arity), _specialize_keeping(b, var, [ZERO] * a.arity))
        return _monic(_univariate(g, a.arity, var))
    if a.is_homogeneous() and b.is_homogeneous():
        return _homogeneous_gcd(a, b, var)
    if a.arity == 3:
        raise ValueError("a gcd in homogeneous coordinates takes two forms")
    if _coprime_images(a, b, occurring):
        return MultiPoly.constant(2, 1)
    return _monic(_evaluation_gcd(a, b))


def is_squarefree(f: MultiPoly) -> bool:
    """True when f has no repeated factor (characteristic 0: gcd with all partials)."""
    if f.is_zero():
        raise ValueError("squarefree test on the zero polynomial")
    partials = reduce(poly_gcd, (f.partial(var) for var in range(f.arity)), MultiPoly.zero(f.arity))
    return poly_gcd(f, partials).is_constant()


def require_reduced_curve(f: MultiPoly) -> None:
    """What the exact layers need of a curve, proven once per curve: that it
    is nonconstant and squarefree."""
    if f.is_constant():
        raise PreconditionError("curve must be a nonconstant polynomial")
    if not is_squarefree(f):
        raise PreconditionError("curve must be squarefree")


# -- resultants by evaluation and interpolation over Z[i] -----------------------


def _int_det(m: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free Bareiss elimination (m is consumed).

    Every Bareiss quotient is exact; each is taken by divmod, and a nonzero
    remainder raises.
    """
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            pivot = next((r for r in range(k + 1, n) if m[r][k]), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        rk, p = m[k], m[k][k]
        for i in range(k + 1, n):
            ri, c = m[i], m[i][k]
            for j in range(k + 1, n):
                q, rem = divmod(ri[j] * p - c * rk[j], prev)
                if rem:
                    raise ArithmeticError("Bareiss divisibility must hold")
                ri[j] = q
        prev = p
    return m[n - 1][n - 1] * sign


def _gi_det(m: list[list[GInt]]) -> GInt:
    """Determinant of a square Z[i] matrix by fraction-free Bareiss elimination (m is consumed).

    Each Bareiss quotient is exact, so it is taken as u * conj(prev) divided
    by the norm of the previous pivot, both computed once per pivot.
    """
    n = len(m)
    sign, cr, ci, norm = 1, 1, 0, 1  # conj(prev) = cr + ci*i, norm = |prev|^2
    for k in range(n - 1):
        if m[k][k] == (0, 0):
            pivot = next((r for r in range(k + 1, n) if m[r][k] != (0, 0)), None)
            if pivot is None:
                return (0, 0)
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        rk, (pr, pi) = m[k], m[k][k]
        for i in range(k + 1, n):
            ri, (mr, mi) = m[i], m[i][k]
            for j in range(k + 1, n):
                (ar, ai), (br, bi) = ri[j], rk[j]
                ur = ar * pr - ai * pi - (mr * br - mi * bi)
                ui = ar * pi + ai * pr - (mr * bi + mi * br)
                qr, rem_re = divmod(ur * cr - ui * ci, norm)
                qi, rem_im = divmod(ur * ci + ui * cr, norm)
                if rem_re or rem_im:
                    raise ArithmeticError("Bareiss divisibility must hold")
                ri[j] = (qr, qi)
        cr, ci, norm = pr, -pi, pr * pr + pi * pi
    det = m[n - 1][n - 1]
    return det if sign > 0 else (-det[0], -det[1])


def _from_newton(newton: list, points) -> list:
    """Coefficients, low to high, of the sum over k of newton[k] * (t - points[0]) ... (t - points[k - 1])."""
    coeffs: list = []
    for k in range(len(newton) - 1, -1, -1):  # coeffs * (t - points[k]) + newton[k]
        coeffs = [0] + coeffs
        for j in range(len(coeffs) - 1):
            coeffs[j] -= points[k] * coeffs[j + 1]
        coeffs[0] += newton[k]
    return coeffs


def _interpolate(values: list[int]) -> list[int]:
    """Coefficients, low to high, of the integer polynomial f of degree < len(values) with f(t) = values[t].

    Newton forward differences: Delta^k f(t) / k! is an integer for every
    integer polynomial f, so every division is exact.
    """
    diff, newton = list(values), []
    for k in range(1, len(values) + 1):
        newton.append(diff[0])
        steps = [divmod(b - a, k) for a, b in zip(diff, diff[1:])]
        if any(r for _, r in steps):
            raise ArithmeticError("Newton differences must divide exactly")
        diff = [q for q, _ in steps]
    return _from_newton(newton, range(len(values)))


def _interpolate_at(ts: list[int], values: list[Fraction]) -> list[Fraction]:
    """Coefficients, low to high, of the rational f of degree < len(ts) with f(ts[k]) = values[k] (divided differences)."""
    diff, newton = list(values), []
    for k in range(1, len(ts) + 1):
        newton.append(diff[0])
        diff = [(b - a) / (ts[j + k] - ts[j]) for j, (a, b) in enumerate(zip(diff, diff[1:]))]
    return _from_newton(newton, ts)


def _gi_add(u: GInt, v: GInt) -> GInt:
    return (u[0] + v[0], u[1] + v[1])


def _gi_sub(u: GInt, v: GInt) -> GInt:
    return (u[0] - v[0], u[1] - v[1])


def _hybrid_bezout(a: list, b: list, zero=0, mul=mul, add=add, sub=sub) -> list[list]:
    """The hybrid Bezout matrix of a(z) = sum a[i] z^i and b(z) = sum b[l] z^l,
    m = len(a) - 1 >= n = len(b) - 1 >= 1, over the ring of `zero`, `mul`,
    `add` and `sub` (the integers by default).

    Row k < m - n holds z^k b(z); then row t < n holds the coefficients of
    s^t in the Bezoutian (a(s) b(z) - a(z) b(s)) / (s - z); column u holds
    the coefficients of z^u, u < m.  Its rows of s^t with t >= n are
    combinations of the rows z^k b(z), which is why they are replaced.
    """
    m, n = len(a) - 1, len(b) - 1
    rows = [[zero] * k + b + [zero] * (m - n - 1 - k) for k in range(m - n)]
    bez = [[zero] * m for _ in range(n)]
    b = b + [zero] * (m - n)
    for l in range(n):
        for i in range(l + 1, m + 1):
            # (a_i b_l - a_l b_i)(s^i z^l - s^l z^i) / (s - z) = that times the sum over t = l..i-1 of s^t z^(i+l-1-t)
            c = sub(mul(a[i], b[l]), mul(a[l], b[i]))
            for t in range(l, min(i, n)):
                row = bez[t]
                row[i + l - 1 - t] = add(row[i + l - 1 - t], c)
    return rows + bez


def resultant(a: MultiPoly, b: MultiPoly, var: int) -> list[GInt]:
    """Res_var(a, b) of two affine polynomials as a polynomial in the other
    variable: its trimmed Z[i] numerators, low to high, up to a positive
    scalar, the form `uniroots` takes.

    Collins' evaluation method without primes: the determinant of the
    numerators sa*a and sb*b (sa, sb the denominators) is taken by Bareiss
    elimination at t = 0, 1, ... in the other variable, one point more than
    a bound on the resultant's degree, and interpolated exactly.  The matrix
    is the hybrid Bezout matrix (`_hybrid_bezout`), max(da, db) square
    instead of the (da + db)-square Sylvester matrix; for m = deg a >= n =
    deg b, taken as formal degrees,

        det Bez(a, b) = (-1)^(n(n-1)/2) Res(a, b),  Res(b, a) = (-1)^(mn) Res(a, b),

    so the inputs are ordered by degree and the sign restored, and the list
    is the one the Sylvester determinant gives.  At each point the
    coefficients in `var`, numerator lists in the other variable, are
    evaluated by Horner's rule and the matrix is built from their values
    (an entry of the Bezoutian is a sum of 2x2 minors a_i b_l - a_l b_i, so
    building it from values costs less than evaluating it as a polynomial
    of twice the degree); with real inputs the values are integers and the
    determinant is `_int_det`, otherwise `_gi_det` over Z[i].  Both
    identities hold for every value of the coefficients, so a leading
    coefficient that vanishes at a point does no harm.
    """
    if a.arity != 2 or b.arity != 2:
        raise ValueError("resultant takes affine (arity-2) polynomials")
    if var not in (0, 1):
        raise ValueError(f"variable index {var} out of range for arity 2")
    other = 1 - var
    da, db = a.degree_in(var), b.degree_in(var)
    if da < 0 or db < 0:
        raise ValueError("resultant of a zero polynomial")
    if da == 0 and db == 0:
        return [(1, 0)]
    if da == 0 or db == 0:
        return _specialize_keeping(a**db if da == 0 else b**da, other, [ZERO, ZERO])
    # An entry a_e of the Sylvester matrix (a's coefficients, highest first)
    # has total degree at most deg(a) - e, which bounds the resultant's total
    # degree by db*deg(a) + da*deg(b) - da*db.
    total = db * int(a.degree) + da * int(b.degree) - da * db
    size = min(da * b.degree_in(other) + db * a.degree_in(other), total) + 1
    real = a.has_real_coefficients() and b.has_real_coefficients()
    sign = 1
    if da < db:  # Res(b, a) = (-1)^(da db) Res(a, b)
        a, b, da, db, sign = b, a, db, da, (-1) ** (da * db)
    sign *= (-1) ** (db * (db - 1) // 2)
    ca, cb = ([([u[0] for u in c], [u[1] for u in c]) for c in _rows(p, var)] for p in (a, b))
    dets = []
    for t in range(size):
        if real:
            dets.append(_int_det(_hybrid_bezout([ueval(re, t) for re, _ in ca], [ueval(re, t) for re, _ in cb])))
        else:
            at, bt = ([(ueval(re, t), ueval(im, t)) for re, im in c] for c in (ca, cb))
            dets.append(_gi_det(_hybrid_bezout(at, bt, (0, 0), gi_mul, _gi_add, _gi_sub)))
    if real:
        return utrim([(sign * c, 0) for c in _interpolate(dets)])
    return utrim([(sign * r, sign * i) for r, i in zip(_interpolate([d[0] for d in dets]), _interpolate([d[1] for d in dets]))])
