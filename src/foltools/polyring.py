"""Exact sparse multivariate polynomials over the Gaussian rationals.

A polynomial is a map from exponent tuples to nonzero GaussianRational
coefficients.  Arity is 2 (affine variables x, y) or 3 (homogeneous
coordinates X, Y, Z).  Zero coefficients are never stored, so two
polynomials are equal exactly when their term maps are equal.

The canonical term order everywhere (printing, leading terms, gcd pivots)
is graded lexicographic: higher total degree first, then lexicographically
larger exponent tuple first.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable

from .errors import ArityMismatch
from .gaussian import GaussianRational, ONE, ZERO, gr
from .uniroots import GInt, coprime_mod_p, gi_divmod, gi_mul, ugcd, utrim

Exponent = tuple[int, ...]

#: Degree of the zero polynomial: a sentinel smaller than every integer.
MINUS_INFINITY = float("-inf")

AFFINE_VARS = ("x", "y")
PROJECTIVE_VARS = ("X", "Y", "Z")


def _grlex_key(exp: Exponent):
    return (sum(exp), exp)


class MultiPoly:
    """Immutable exact polynomial in 2 or 3 variables."""

    __slots__ = ("arity", "terms", "_degree")

    def __init__(self, arity: int, terms: dict[Exponent, GaussianRational] | None = None):
        if arity not in (2, 3):
            raise ValueError("arity must be 2 or 3")
        clean: dict[Exponent, GaussianRational] = {}
        if terms:
            for exp, coeff in terms.items():
                if len(exp) != arity:
                    raise ValueError(f"exponent {exp} does not match arity {arity}")
                if any(e < 0 for e in exp):
                    raise ValueError(f"negative exponent in {exp}")
                if not coeff.is_zero():
                    clean[tuple(exp)] = coeff
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_degree", max((sum(e) for e in clean), default=MINUS_INFINITY))

    def __setattr__(self, *_):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(arity: int) -> "MultiPoly":
        return MultiPoly(arity, {})

    @staticmethod
    def constant(arity: int, value) -> "MultiPoly":
        c = GaussianRational.coerce(value) if not isinstance(value, GaussianRational) else value
        return MultiPoly(arity, {(0,) * arity: c})

    @staticmethod
    def variable(arity: int, index: int) -> "MultiPoly":
        if not 0 <= index < arity:
            raise ValueError(f"variable index {index} out of range for arity {arity}")
        exp = [0] * arity
        exp[index] = 1
        return MultiPoly(arity, {tuple(exp): ONE})

    @staticmethod
    def monomial(arity: int, exp: Exponent, coeff) -> "MultiPoly":
        c = coeff if isinstance(coeff, GaussianRational) else GaussianRational.coerce(coeff)
        return MultiPoly(arity, {tuple(exp): c})

    # -- basic queries --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self):
        """Total degree; MINUS_INFINITY for the zero polynomial."""
        return self._degree

    def degree_in(self, var: int) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        return max((e[var] for e in self.terms), default=-1)

    def is_constant(self) -> bool:
        return self._degree == MINUS_INFINITY or self._degree == 0

    def constant_value(self) -> GaussianRational:
        return self.terms.get((0,) * self.arity, ZERO)

    def coefficient(self, exp: Exponent) -> GaussianRational:
        return self.terms.get(tuple(exp), ZERO)

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        degs = {sum(e) for e in self.terms}
        return len(degs) == 1

    def sorted_terms(self) -> list[tuple[Exponent, GaussianRational]]:
        """Terms in descending graded-lex order (the canonical order)."""
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def leading_term(self) -> tuple[Exponent, GaussianRational]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exp = max(self.terms, key=_grlex_key)
        return exp, self.terms[exp]

    def has_real_coefficients(self) -> bool:
        return all(c.is_real() for c in self.terms.values())

    # -- arithmetic ------------------------------------------------------

    def _check_arity(self, other: "MultiPoly"):
        if self.arity != other.arity:
            raise ArityMismatch(f"arity {self.arity} vs {other.arity}")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_arity(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            s = out.get(exp, ZERO) + c
            if s.is_zero():
                out.pop(exp, None)
            else:
                out[exp] = s
        return MultiPoly(self.arity, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.arity, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        self._check_arity(other)
        out: dict[Exponent, GaussianRational] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                exp = tuple(i + j for i, j in zip(ea, eb))
                s = out.get(exp, ZERO) + ca * cb
                if s.is_zero():
                    out.pop(exp, None)
                else:
                    out[exp] = s
        return MultiPoly(self.arity, out)

    def __rmul__(self, other) -> "MultiPoly":
        return self.scale(other)

    def scale(self, c) -> "MultiPoly":
        c = c if isinstance(c, GaussianRational) else GaussianRational.coerce(c)
        if c.is_zero():
            return MultiPoly.zero(self.arity)
        return MultiPoly(self.arity, {e: k * c for e, k in self.terms.items()})

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
        return isinstance(other, MultiPoly) and self.arity == other.arity and self.terms == other.terms

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        from .textio import print_poly  # local import to avoid a cycle

        return f"MultiPoly({print_poly(self)!r})"

    # -- calculus and substitution ----------------------------------------

    def partial(self, var: int) -> "MultiPoly":
        """Formal partial derivative with respect to variable `var`."""
        if not 0 <= var < self.arity:
            raise ValueError(f"variable index {var} out of range for arity {self.arity}")
        out: dict[Exponent, GaussianRational] = {}
        for exp, c in self.terms.items():
            e = exp[var]
            if e == 0:
                continue
            new = list(exp)
            new[var] = e - 1
            out[tuple(new)] = c * e
        return MultiPoly(self.arity, out)

    def evaluate(self, point: Iterable) -> GaussianRational:
        """Exact evaluation at a point of GaussianRational coordinates."""
        vals = [v if isinstance(v, GaussianRational) else GaussianRational.coerce(v) for v in point]
        if len(vals) != self.arity:
            raise ValueError("point arity mismatch")
        total = ZERO
        for exp, c in self.terms.items():
            term = c
            for v, e in zip(vals, exp):
                if e:
                    term = term * v**e
            total = total + term
        return total

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
        for exp, c in self.terms.items():
            term = MultiPoly.constant(target_arity, c)
            for var, e in enumerate(exp):
                plist = powers[var]
                while len(plist) <= e:
                    plist.append(plist[-1] * values[var])
                if e:
                    term = term * plist[e]
            result = result + term
        return result

    def shift(self, point: Iterable) -> "MultiPoly":
        """Translate so the given point moves to the origin: f(v + point)."""
        vals = list(point)
        subs = {}
        for var in range(self.arity):
            subs[var] = MultiPoly.variable(self.arity, var) + MultiPoly.constant(self.arity, vals[var])
        return self.substitute(subs)

    def homogeneous_part(self, d: int) -> "MultiPoly":
        return MultiPoly(self.arity, {e: c for e, c in self.terms.items() if sum(e) == d})


# -- module-level operations ---------------------------------------------------


def homogenize(f: MultiPoly, n: int) -> MultiPoly:
    """Z^n * f(X/Z, Y/Z): embed an affine curve at projective degree n."""
    if f.arity != 2:
        raise ArityMismatch("homogenize expects an affine (arity-2) polynomial")
    if f.is_zero():
        return MultiPoly.zero(3)
    if n < f.degree:
        raise ValueError(f"target degree {n} below deg f = {f.degree}")
    out = {}
    for (a, b), c in f.terms.items():
        out[(a, b, n - a - b)] = c
    return MultiPoly(3, out)


def dehomogenize(F: MultiPoly, var: int = 2) -> MultiPoly:
    """Set coordinate `var` to 1 (default Z); the other two keep their order."""
    if F.arity != 3:
        raise ArityMismatch("dehomogenize expects a projective (arity-3) polynomial")
    if var not in (0, 1, 2):
        raise ValueError(f"no coordinate {var!r} in a projective polynomial")
    out: dict[Exponent, GaussianRational] = {}
    for exp, coeff in F.terms.items():
        key = exp[:var] + exp[var + 1 :]
        s = out.get(key, ZERO) + coeff
        if s.is_zero():
            out.pop(key, None)
        else:
            out[key] = s
    return MultiPoly(2, out)


def exact_divide(a: MultiPoly, b: MultiPoly) -> MultiPoly | None:
    """Return q with a = q*b exactly, or None when b does not divide a.

    Leading-term division in graded-lex order; the quotient is verified by
    re-multiplication before being returned.
    """
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero():
        return MultiPoly.zero(a.arity)
    a._check_arity(b)
    lb_exp, lb_coeff = b.leading_term()
    quotient: dict[Exponent, GaussianRational] = {}
    rem = a
    while not rem.is_zero():
        lr_exp, lr_coeff = rem.leading_term()
        qe = tuple(i - j for i, j in zip(lr_exp, lb_exp))
        if any(e < 0 for e in qe):
            return None
        qc = lr_coeff / lb_coeff
        quotient[qe] = quotient.get(qe, ZERO) + qc
        rem = rem - MultiPoly.monomial(a.arity, qe, qc) * b
    q = MultiPoly(a.arity, quotient)
    if q * b != a:  # defensive: should be unreachable
        return None
    return q


def leading_form(f: MultiPoly) -> MultiPoly:
    """Top-degree homogeneous part."""
    if f.is_zero():
        raise ValueError("zero polynomial has no leading form")
    return f.homogeneous_part(int(f.degree))


# -- gcd via primitive pseudo-remainder sequences -----------------------------


def _monic(f: MultiPoly) -> MultiPoly:
    if f.is_zero():
        return f
    _, lc = f.leading_term()
    return f.scale(lc.inverse())


def _coeffs_in(f: MultiPoly, var: int) -> dict[int, MultiPoly]:
    """View f as univariate in `var` with MultiPoly coefficients (same arity)."""
    out: dict[int, MultiPoly] = {}
    for exp, c in f.terms.items():
        e = exp[var]
        rest = list(exp)
        rest[var] = 0
        key = tuple(rest)
        coeff = out.get(e)
        block = MultiPoly(f.arity, {key: c})
        out[e] = block if coeff is None else coeff + block
    return {e: p for e, p in out.items() if not p.is_zero()}


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
    bc = _coeffs_in(b, var)
    lb = bc[db]
    unit = [0] * a.arity
    unit[var] = 1
    v = MultiPoly(a.arity, {tuple(unit): ONE})
    r = a
    da = a.degree_in(var)
    steps = 0
    while not r.is_zero() and r.degree_in(var) >= db:
        dr = r.degree_in(var)
        lr = _coeffs_in(r, var)[dr]
        r = r * lb - b * lr * v ** (dr - db)
        steps += 1
    # match the classical normalization lc(b)^(da-db+1) * a mod b exactly
    missing = (da - db + 1) - steps
    if missing > 0 and not r.is_zero():
        r = r * lb**missing
    return r


def _specialize_keeping(p: MultiPoly, var: int, point: list[GaussianRational]) -> list[GaussianRational]:
    """Coefficients in `var`, low to high, after substituting constants for every other variable."""
    out = [ZERO] * (p.degree_in(var) + 1)
    for exp, c in p.terms.items():
        val = c
        for v in range(p.arity):
            if v != var and exp[v]:
                val = val * point[v] ** exp[v]
        out[exp[var]] = out[exp[var]] + val
    return utrim(out)


def _from_univariate(c: list[GaussianRational], var: int, arity: int) -> MultiPoly:
    """The polynomial in `var` alone with coefficients c, low to high."""
    exp = [0] * arity
    terms: dict[Exponent, GaussianRational] = {}
    for k, coeff in enumerate(c):
        exp[var] = k
        terms[tuple(exp)] = coeff
    return MultiPoly(arity, terms)


def _gaussian_integer_coeffs(f: MultiPoly, var: int) -> tuple[int, dict[int, list[tuple[Exponent, GInt]]]]:
    """f scaled into Z[i] and viewed as univariate in var.

    Returns (s, view): s is the lcm of f's denominators, and view maps each
    degree in var to the terms (exponent, Z[i] coefficient) of s*f of that degree.
    """
    s = math.lcm(*(q.denominator for c in f.terms.values() for q in (c.re, c.im)))
    view: dict[int, list[tuple[Exponent, GInt]]] = {}
    for exp, c in f.terms.items():
        coeff = (c.re.numerator * (s // c.re.denominator), c.im.numerator * (s // c.im.denominator))
        view.setdefault(exp[var], []).append((exp, coeff))
    return s, view


def _gi_value(terms: list[tuple[Exponent, GInt]], point: list[int]) -> GInt:
    """The sum of the Z[i] terms at an integer point."""
    re = im = 0
    for exp, (cr, ci) in terms:
        m = math.prod(t**k for t, k in zip(point, exp))
        re += cr * m
        im += ci * m
    return re, im


def _coprimality_fast_path(pa: MultiPoly, pb: MultiPoly, var: int) -> bool:
    """Sound certificate that two var-primitive polynomials are coprime in var.

    Specialize the other variables at each of 8 points where both leading
    coefficients survive and ask the certificate modulo P there; a coprime
    image at any of them forces deg_var(gcd) = 0, which for primitive inputs
    means a trivial gcd.  False means "unknown".
    """
    others = [v for v in range(pa.arity) if v != var]
    views = [_gaussian_integer_coeffs(p, var)[1] for p in (pa, pb)]
    for trial in range(8):
        point = [1] * pa.arity  # var's own exponent then contributes a factor 1
        for idx, v in enumerate(others):
            point[v] = trial + idx + (1 if trial else 0)
        # nonzero integer multiples of the specialisations: the same gcd
        sa, sb = (
            [GaussianRational(*_gi_value(view.get(e, []), point)) for e in range(max(view) + 1)]
            for view in views
        )
        if not sa[-1].is_zero() and not sb[-1].is_zero() and coprime_mod_p(sa, sb):
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
    ka = min(e[2] for e in a.terms)
    kb = min(e[2] for e in b.terms)
    za = {(x, y, z - ka): c for (x, y, z), c in a.terms.items()}
    zb = {(x, y, z - kb): c for (x, y, z), c in b.terms.items()}
    a2 = dehomogenize(MultiPoly(3, za))
    b2 = dehomogenize(MultiPoly(3, zb))
    g2 = poly_gcd(a2, b2)
    lifted = homogenize(g2, int(g2.degree)) if not g2.is_constant() else MultiPoly.constant(3, ONE)
    k = min(ka, kb)
    if k:
        lifted = lifted * MultiPoly.monomial(3, (0, 0, k), ONE)
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
        g = ugcd(_specialize_keeping(a, var, []), _specialize_keeping(b, var, []))
        return _from_univariate(g, var, a.arity)
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

    Collins' evaluation method without primes: with a and b scaled into
    Z[i] by sa and sb, the Sylvester determinant is taken by integer Bareiss
    at every point of a grid of integers in the other variables, one point
    more per variable than a bound on the resultant's degree in it, and
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
    sa, va = _gaussian_integer_coeffs(a, var)
    sb, vb = _gaussian_integer_coeffs(b, var)
    others = [v for v in range(a.arity) if v != var]
    # A Sylvester entry a_e has total degree at most deg(a) - e, which bounds
    # the resultant's total degree by db*deg(a) + da*deg(b) - da*db.
    total = db * int(a.degree) + da * int(b.degree) - da * db
    sizes = [min(da * b.degree_in(v) + db * a.degree_in(v), total) + 1 for v in others]
    n = da + db
    dets: dict[tuple[int, ...], GInt] = {}
    for point in itertools.product(*(range(size) for size in sizes)):
        full = [1] * a.arity  # var's own exponent then contributes a factor 1
        for v, t in zip(others, point):
            full[v] = t
        rows = []
        for view, width, count in ((va, da, db), (vb, db, da)):
            entries = {e: _gi_value(terms, full) for e, terms in view.items()}
            for i in range(count):
                row = [(0, 0)] * n
                for e, c in entries.items():
                    row[i + width - e] = c
                rows.append(row)
        dets[point] = _gi_det(rows)
    re = _interpolate_grid({p: d[0] for p, d in dets.items()}, sizes)
    im = _interpolate_grid({p: d[1] for p, d in dets.items()}, sizes)
    scale = sa**db * sb**da
    terms: dict[Exponent, GaussianRational] = {}
    for point, r in re.items():
        exp = [0] * a.arity
        for v, k in zip(others, point):
            exp[v] = k
        terms[tuple(exp)] = GaussianRational(Fraction(r, scale), Fraction(im[point], scale))
    return MultiPoly(a.arity, terms)


# -- small construction helpers ----------------------------------------------


def affine_vars() -> tuple[MultiPoly, MultiPoly]:
    return MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)


def projective_vars() -> tuple[MultiPoly, MultiPoly, MultiPoly]:
    return MultiPoly.variable(3, 0), MultiPoly.variable(3, 1), MultiPoly.variable(3, 2)


def const2(value) -> MultiPoly:
    return MultiPoly.constant(2, gr(value) if isinstance(value, (int, str, Fraction)) else value)
