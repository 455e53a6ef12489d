"""Exact univariate machinery: roots in Q(i), gcds, Sturm counts, Gaussian integers.

A polynomial over Q(i) is a list of Z[i] numerators, low to high, that
stands for the polynomial up to a nonzero scalar: its roots, gcds and
coprimality do not depend on that scalar.  Root extraction is complete for
linear factors (rational-root search over Z[i] divisors) and for quadratic
remainders (exact square roots in Q(i)).  Whatever is left provably has no
roots in Q(i); its degree is reported as the residual count.

Rational-root candidates p/q are tested on the primitive numerators c_k:
p/q is a root exactly when sum c_k p^k q^(n-k) = 0.  That sum is first
taken modulo the prime _P with i mapped to a square root of -1, over blocks
of the whole candidate grid in int64 numpy arithmetic; a nonzero image
proves p/q is not a root, and only the survivors get the exact test, in
the order of the full enumeration.  Gcds over Q(i), and with them
squarefree parts and coprimality, are modular: images modulo primes
P = 1 (mod 4), with i mapped to a square root of -1 mod P, are combined and
rebuilt, and the result is returned only once exact division in Z[i][x]
has verified it.  Sturm chains are built and evaluated in integers.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import RootSearchOverflow
from .gaussian import GInt, GaussianRational, ZERO, from_gint, gr

Coeffs = list[GInt]  # Z[i] numerators, low to high, of a polynomial up to a nonzero scalar

_FACTOR_DIGIT_CAP = 10**40  # norms beyond this abort rather than risk unsound output
_CANDIDATE_CAP = 200_000
_GRID_BLOCK = 2**15  # candidates per block of the mod-_P filter


# -- coefficient lists -----------------------------------------------------------
#
# utrim, udeg, ueval and uderiv take the integer lists of the Sturm chains and
# the lattice rows; utrim and udeg also take Z[i] lists.
# Gcds are modular (`ugcd`) and checked, like every other division of Z[i]
# lists, by long division in Z[i] (`_gi_quotient`).


def utrim(c: list) -> list:
    while c and (c[-1] == (0, 0) or not c[-1]):  # a Z[i] zero is the truthy (0, 0)
        c.pop()
    return c


def udeg(c: list) -> int:
    return len(c) - 1


def ueval(c: list, x):
    """c(x) by Horner's rule; c must be nonempty."""
    coeffs = reversed(c)
    acc = next(coeffs)
    for coeff in coeffs:
        acc = acc * x + coeff
    return acc


def uderiv(c: list) -> list:
    return utrim([c[k] * k for k in range(1, len(c))])


def ugcd(a: Coeffs, b: Coeffs) -> Coeffs:
    """The gcd over Q(i), primitive in Z[i][x] (empty when both are zero), from images modulo primes.

    Brown's modular gcd with the answer recovered by rational reconstruction
    and verified by exact division in Z[i][x].  a and b are mapped to F_p[x]
    for primes p = 1 (mod 4) under both embeddings i -> iota and
    i -> -iota, iota^2 = -1 (mod p).  A prime where either leading
    coefficient vanishes is skipped; at any other, the gcd G over Q(i) maps
    to a divisor of each image gcd (see `coprime_mod_p`), so an image of
    degree 0 proves a and b coprime, and images of one degree d >= deg G
    give the real and imaginary parts u, v mod p of G made monic as
    (g+ + g-)/2 and (g+ - g-)/(2 iota) whenever d = deg G.  Only the images
    of least degree are kept.  Their CRT combination is rebuilt
    coefficientwise into a candidate H of degree d, scaled primitive into
    Z[i][x], and returned only if it divides a and b exactly: then H divides
    G and deg H >= deg G, so H = G up to a unit.  By Gauss's lemma a
    primitive H divides a over Q(i) exactly when it divides the Z[i] list a
    in Z[i][x], so the check is `_gi_quotient` in integers.  Otherwise more
    primes are taken; a prime of degree deg G makes both u and v unique once
    the modulus is large enough, so the loop ends.
    """
    a, b = utrim(list(a)), utrim(list(b))
    if not a or not b:
        return _gi_primitive(a or b)
    if len(a) == 1 or len(b) == 1:
        return [(1, 0)]
    size, modulus, residues = min(len(a), len(b)) + 1, 1, []  # size: one more than any image's
    for p, iota in _gcd_primes():
        images = []
        for root in (iota, p - iota):
            fa, fb = _image_mod_p(a, p, root), _image_mod_p(b, p, root)
            if not fa[-1] or not fb[-1]:
                break
            g = _fp_gcd(fa, fb, p)
            if len(g) == 1:
                return [(1, 0)]
            images.append(g)
        if len(images) < 2 or len(images[0]) != len(images[1]) or len(images[0]) > size:
            continue
        plus, minus = images
        half = (p + 1) // 2
        half_iota = half * pow(iota, -1, p) % p
        parts = [(s + t) * half % p for s, t in zip(plus, minus)] + [
            (s - t) * half_iota % p for s, t in zip(plus, minus)
        ]
        if len(plus) < size:
            size, modulus, residues = len(plus), 1, [0] * len(parts)
        # CRT: x = r (mod modulus) and x = s (mod p)
        lift = pow(modulus, -1, p)
        residues = [r + modulus * ((s - r) * lift % p) for r, s in zip(residues, parts)]
        modulus *= p
        h = _reconstruct(residues, modulus, size - 1)
        if h is not None and _gi_quotient(h, a) is not None and _gi_quotient(h, b) is not None:
            return h
    raise AssertionError("unreachable: the prime supply is infinite")


def _gi_quotient(h: list[GInt], a: list[GInt]) -> list[GInt] | None:
    """a / h in Z[i][x] by long division, or None when h does not divide a
    there: some quotient coefficient is not in Z[i], or a remainder is left
    (h has a nonzero leading coefficient)."""
    r, (lr, li), nh = list(a), h[-1], len(h) - 1
    norm = lr * lr + li * li
    q = [(0, 0)] * (len(a) - nh)
    for k in range(len(a) - 1 - nh, -1, -1):
        tr, ti = r[k + nh]
        # the quotient coefficient (tr + ti i) / (lr + li i) = (tr + ti i)(lr - li i) / norm
        xr, xi = tr * lr + ti * li, ti * lr - tr * li
        if xr % norm or xi % norm:
            return None
        fr, fi = xr // norm, xi // norm
        q[k] = (fr, fi)
        if fr or fi:
            for j in range(nh):
                (ur, ui), (vr, vi) = r[k + j], h[j]
                r[k + j] = (ur - fr * vr + fi * vi, ui - fr * vi - fi * vr)
    return None if any(ur or ui for ur, ui in r[:nh]) else q


def _gi_primitive(c: list[GInt]) -> list[GInt]:
    """c divided by a Gaussian gcd of its coefficients (c itself when that is a unit)."""
    g: GInt = (0, 0)
    for u in c:
        if u != (0, 0):
            g = gi_gcd(g, u)
            if gi_norm(g) == 1:
                return c
    return [gi_divmod(u, g)[0] for u in c]


def _reconstruct(residues: list[int], modulus: int, deg: int) -> Coeffs | None:
    """The monic degree-deg polynomial with real and imaginary parts rebuilt
    from residues (re_0..re_deg, im_0..im_deg) mod modulus, scaled primitive
    into Z[i][x], or None when some part has no reconstruction."""
    n = deg + 1
    parts = []
    for r in residues[:deg] + residues[n : n + deg]:
        f = _rational_reconstruction(r, modulus)
        if f is None:
            return None
        parts.append(f)
    den = math.lcm(*(f.denominator for f in parts))
    ints = [f.numerator * (den // f.denominator) for f in parts]
    return _gi_primitive(list(zip(ints[:deg], ints[deg:])) + [(den, 0)])


def _rational_reconstruction(r: int, m: int) -> Fraction | None:
    """The n/d = r (mod m) with |n|, d <= sqrt(m/2) and gcd(n, d) = 1, or None (Wang)."""
    bound = math.isqrt(m // 2)
    r0, r1, s0, s1 = m, r % m, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > bound or math.gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def usquarefree(c: Coeffs) -> Coeffs:
    """Squarefree part (product of distinct roots), primitive in Z[i][x]."""
    c = _gi_primitive(utrim(list(c)))
    d = utrim([(k * re, k * im) for k, (re, im) in enumerate(c)][1:])
    if not d:
        return c
    g = ugcd(c, d)
    if udeg(g) == 0:
        return c
    # g is primitive, so by Gauss's lemma the quotient lies in Z[i][x], primitive as c is
    q = _gi_quotient(g, c)
    if q is None:
        raise ArithmeticError("the gcd must divide exactly")
    return q


def ucoprime(a: Coeffs, b: Coeffs) -> bool:
    """Whether gcd(a, b) is a nonzero constant."""
    return len(ugcd(a, b)) == 1


# -- Gaussian integer arithmetic ----------------------------------------------

def gi_mul(u: GInt, v: GInt) -> GInt:
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def gi_norm(u: GInt) -> int:
    return u[0] * u[0] + u[1] * u[1]


def gi_divmod(u: GInt, v: GInt) -> tuple[GInt, GInt]:
    """Euclidean division with nearest-integer rounding; |rem| < |v|."""
    n = gi_norm(v)
    xr = u[0] * v[0] + u[1] * v[1]
    xi = u[1] * v[0] - u[0] * v[1]
    qr = (2 * xr + n) // (2 * n)
    qi = (2 * xi + n) // (2 * n)
    q = (qr, qi)
    r = (u[0] - (q[0] * v[0] - q[1] * v[1]), u[1] - (q[0] * v[1] + q[1] * v[0]))
    return q, r


def gi_gcd(u: GInt, v: GInt) -> GInt:
    while v != (0, 0):
        u, v = v, gi_divmod(u, v)[1]
    return u


UNITS: tuple[GInt, ...] = ((1, 0), (-1, 0), (0, 1), (0, -1))


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    for c in range(1, 40):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise RootSearchOverflow(f"failed to factor {n}")


def factor_int(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer."""
    if n <= 0:
        raise ValueError("factor_int expects a positive integer")
    if n > _FACTOR_DIGIT_CAP:
        raise RootSearchOverflow("integer too large for exact factorization")
    out: dict[int, int] = {}
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.extend([d, m // d])
    return out


def _gaussian_prime_above(p: int) -> GInt:
    """A Gaussian prime dividing the split rational prime p (p % 4 == 1)."""
    return gi_gcd((p, 0), (_sqrt_minus_one(p), 1))


def gi_factor(u: GInt) -> list[tuple[GInt, int]]:
    """Gaussian prime factorization up to units."""
    if u == (0, 0):
        raise ValueError("cannot factor zero")
    out: list[tuple[GInt, int]] = []
    for p, _e in sorted(factor_int(gi_norm(u)).items()):
        if p == 2:
            pi: GInt = (1, 1)
            cands = [pi]
        elif p % 4 == 3:
            cands = [(p, 0)]
        else:
            pi = _gaussian_prime_above(p)
            cands = [pi, (pi[0], -pi[1])]
        for pi in cands:
            k = 0
            while True:
                q, r = gi_divmod(u, pi)
                if r != (0, 0):
                    break
                u, k = q, k + 1
            if k:
                out.append((pi, k))
    if gi_norm(u) != 1:
        raise ArithmeticError("unit should remain after removing all primes")
    return out


def _divisor_count(factors: list[tuple[GInt, int]]) -> int:
    return math.prod(mult + 1 for _, mult in factors)


def _divisors_of(factors: list[tuple[GInt, int]]) -> list[GInt]:
    divs: list[GInt] = [(1, 0)]
    for prime, mult in factors:
        more: list[GInt] = []
        pk: GInt = (1, 0)
        for _ in range(mult):
            pk = gi_mul(pk, prime)
            more.extend(gi_mul(d, pk) for d in divs)
        divs.extend(more)
    return divs


# -- images modulo primes p = 1 (mod 4) ----------------------------------------


def _sqrt_minus_one(p: int) -> int:
    """A square root of -1 modulo a prime p = 1 (mod 4): a^((p-1)/4) for the least non-residue a."""
    a = 2
    while pow(a, (p - 1) // 2, p) != p - 1:
        a += 1
    return pow(a, (p - 1) // 4, p)


def _split_primes(above: int) -> Iterator[tuple[int, int]]:
    """(p, iota) for every prime p = 1 (mod 4) above `above`, ascending, with iota^2 = -1 (mod p).

    The Miller-Rabin test on the first twelve primes is deterministic far
    beyond any prime this yields.
    """
    n = above + 4 - (above - 1) % 4
    while True:
        if _is_probable_prime(n):
            yield n, _sqrt_minus_one(n)
        n += 4


def _gcd_primes() -> Iterator[tuple[int, int]]:
    """The primes `ugcd` takes, in order: the table, then every larger split prime."""
    yield from _GCD_PRIMES
    yield from _split_primes(_GCD_PRIMES[-1][0])


def _image_mod_p(c: list[GInt], p: int, iota: int) -> list[int]:
    """A Z[i] polynomial in F_p[x] under i -> iota."""
    return [(re + iota * im) % p for re, im in c]


def _fp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd(a, b) in F_p[x]; b nonzero with a nonzero leading coefficient."""
    while b:
        inv = pow(b[-1], -1, p)
        b = [x * inv % p for x in b]
        nb = len(b) - 1
        a = list(a)
        for k in range(len(a) - 1 - nb, -1, -1):
            f = a[k + nb] % p
            if f:
                for j in range(nb):
                    a[k + j] -= f * b[j]
        a, b = b, utrim([x % p for x in a[:nb]])
    return a


_P = 998244353  # prime, 1 (mod 4); 3 generates its multiplicative group
_I_MOD_P = _sqrt_minus_one(_P)  # a square root of -1: the image of i
_GCD_PRIMES = tuple(itertools.islice(_split_primes(2**62), 4))  # the first few, found once


def coprime_mod_p(a: list[GInt], b: list[GInt]) -> bool:
    """True proves gcd(a, b) = 1 over Q(i); False proves nothing.

    a and b are Z[i] coefficients, low to high, such as the numerators of
    two Q(i) polynomials, mapped to F_P[x] under i -> _I_MOD_P.  A common
    factor g of positive degree can be taken primitive in Z[i][x], and by
    Gauss's lemma it divides a and b there, so lc(g) divides both leading
    coefficients.  When neither of those vanishes mod P, g keeps its degree
    in F_P[x] and divides both images, which are then not coprime; only the
    leading coefficients' images matter, and a and b need not be primitive.
    The same holds for any prime p = 1 (mod 4) and either root of -1 mod p.
    """
    if len(a) < 2 or len(b) < 2:
        return False
    ia, ib = _image_mod_p(a, _P, _I_MOD_P), _image_mod_p(b, _P, _I_MOD_P)
    if not ia[-1] or not ib[-1]:
        return False
    return len(_fp_gcd(ia, ib, _P)) == 1


# -- roots in Q(i) -------------------------------------------------------------


@dataclass
class RootReport:
    """Exact roots plus a provable account of what was not resolved.

    `unresolved` factors provably have no Q(i) roots (residual_degree sums
    their degrees).  `uncertain` factors exhausted the divisor-search budget:
    they may still have rational roots, so callers must treat them as
    entirely undecided.
    """

    roots: list[GaussianRational] = field(default_factory=list)
    residual_degree: int = 0
    unresolved: list[Coeffs] = field(default_factory=list)
    uncertain_degree: int = 0
    uncertain: list[Coeffs] = field(default_factory=list)


def _quadratic_roots(c: Coeffs) -> list[GaussianRational] | None:
    """Both roots of a quadratic if they lie in Q(i); None otherwise.

    They are taken from the monic form x^2 + b x + e as (-b +- s)/2, with s
    the square root `GaussianRational.sqrt` picks, so their order does not
    depend on the scalar c carries.
    """
    lead = from_gint(c[2])
    b, e = from_gint(c[1]) / lead, from_gint(c[0]) / lead
    s = (b * b - gr(4) * e).sqrt()
    if s is None:
        return None
    return [(-b + s) / gr(2), (-b - s) / gr(2)]


def _candidate_divisors(ints: list[GInt]) -> tuple[list[GInt], list[GInt]] | None:
    """The divisors (d0, dn) of the constant and leading coefficients, up to
    units, or None when the search would explode.

    The rational-root candidates are p = d u, q = e for d in d0, e in dn and
    u in UNITS, enumerated with d outermost and u innermost.
    """
    try:
        f0, fn = gi_factor(ints[0]), gi_factor(ints[-1])
    except RootSearchOverflow:
        return None
    # counted before any divisor is built, so an oversized search costs only the factorizations
    if _divisor_count(f0) * _divisor_count(fn) * 4 > _CANDIDATE_CAP:
        return None
    return _divisors_of(f0), _divisors_of(fn)


def _surviving_candidates(ints: list[GInt], d0: list[GInt], dn: list[GInt]) -> Iterator[tuple[GInt, GInt]]:
    """The candidates (p, q) of `_candidate_divisors` whose sum ints[k] p^k q^(n-k)
    vanishes modulo _P under i -> _I_MOD_P, in enumeration order.

    Reduction mod _P is a ring map from Z[i], so every root survives.  The
    images of d, u and e are broadcast over a (len(d0), len(dn), 4) grid,
    taken in blocks of rows of about _GRID_BLOCK entries so the search stops
    at the block that holds the first root and memory stays small, and the
    homogeneous Horner sum is taken there in int64, in place: with every
    operand below _P < 2^31, each step's a x + c y^(n-k) stays below 2^62.
    """
    units = np.array(_image_mod_p(UNITS, _P, _I_MOD_P), dtype=np.int64)
    x = np.array(_image_mod_p(d0, _P, _I_MOD_P), dtype=np.int64)[:, None, None] * units % _P
    y = np.array(_image_mod_p(dn, _P, _I_MOD_P), dtype=np.int64)[None, :, None]
    coeffs = _image_mod_p(ints, _P, _I_MOD_P)
    terms = []  # (c_k, y^(n-k)) from k = n-1 down to 0
    y_pow = y
    for c in reversed(coeffs[:-1]):
        terms.append((c, y_pow))
        y_pow = y_pow * y % _P
    rows = max(1, _GRID_BLOCK // (len(dn) * len(UNITS)))
    for first in range(0, len(d0), rows):
        xs = x[first : first + rows]
        acc = np.full((len(xs), len(dn), len(UNITS)), coeffs[-1], dtype=np.int64)
        for c, y_pow in terms:
            acc *= xs
            acc += c * y_pow
            acc %= _P
        for i, j, k in zip(*np.nonzero(acc == 0)):
            yield gi_mul(d0[first + i], UNITS[k]), dn[j]


def _gi_vanishes(ints: list[GInt], p: GInt, q: GInt) -> bool:
    """Whether sum ints[k] p^k q^(n-k) = 0 in Z[i], i.e. p/q is a root (q != 0)."""
    pr, pi = p
    qr, qi = q
    ar, ai = ints[-1]
    qkr, qki = qr, qi  # q^(n-k) for the coefficient being added
    for cr, ci in reversed(ints[:-1]):
        ar, ai = ar * pr - ai * pi + cr * qkr - ci * qki, ar * pi + ai * pr + cr * qki + ci * qkr
        qkr, qki = qkr * qr - qki * qi, qkr * qi + qki * qr
    return not ar and not ai


def _as_gaussian_rational(p: GInt, q: GInt) -> GaussianRational:
    """p / q as p * conj(q) / |q|^2."""
    return from_gint(gi_mul(p, (q[0], -q[1])), gi_norm(q))


def qi_roots(c: Coeffs) -> RootReport:
    """All roots of a univariate polynomial that lie in Q(i), plus residual.

    Multiplicities are dropped (the squarefree part is used, primitive in
    Z[i][x]).  Each root p/q found is divided out exactly in Z[i][x] by the
    primitive part of q x - p, which keeps the rest primitive (Gauss's
    lemma).  The residual factor is guaranteed to have no Q(i) roots at all.

    The divisor search is factored and screened once, on the first
    polynomial of degree above 2, and its survivors are consumed across the
    deflations: a root of a deflated factor is a root of that polynomial,
    so it is a survivor, and the first candidate of any root in the
    enumeration is its lowest-terms p/q, which is a candidate of every
    factor that has the root, in the same relative order.  A survivor that
    was not a root when tested is a root of no later factor.
    """
    report = RootReport()
    c = utrim(list(c))
    if not c:
        raise ValueError("root extraction on the zero polynomial")
    if udeg(c) == 0:
        return report
    c = usquarefree(c)
    if c[0] == (0, 0):
        report.roots.append(ZERO)
        c = c[1:]
    candidates = None
    while udeg(c) >= 1:
        if udeg(c) == 1:
            (pr, pi), q = c
            report.roots.append(_as_gaussian_rational((-pr, -pi), q))  # -c0 / c1
            return report
        if udeg(c) == 2:
            roots = _quadratic_roots(c)
            if roots is None:
                report.residual_degree += 2
                report.unresolved.append(c)
                return report
            report.roots.extend(roots)
            return report
        if candidates is None:
            divisors = _candidate_divisors(c)
            if divisors is None:
                report.uncertain_degree += udeg(c)
                report.uncertain.append(c)
                return report
            candidates = _surviving_candidates(c, *divisors)
        found = next(((p, q) for p, q in candidates if _gi_vanishes(c, p, q)), None)
        if found is None:
            report.residual_degree += udeg(c)
            report.unresolved.append(c)
            return report
        p, q = found
        report.roots.append(_as_gaussian_rational(p, q))
        c = _gi_quotient(_gi_primitive([(-p[0], -p[1]), q]), c)
        if c is None:
            raise ArithmeticError("deflation by a non-root")
    return report


# -- Sturm sequences over the integers ---------------------------------------------


def _primitive(c: list[int]) -> list[int]:
    """c divided by its positive content."""
    g = math.gcd(*c)
    return [x // g for x in c]


def _prem(a: list[int], b: list[int]) -> list[int]:
    """The pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b in Z[x]; deg a >= deg b."""
    r, lb, nb = list(a), b[-1], len(b) - 1
    for k in range(len(a) - 1 - nb, -1, -1):
        f = r.pop()
        r = [x * lb for x in r]
        for j in range(nb):
            r[k + j] -= f * b[j]
    return utrim(r)


def _exact_quotient(a: list[int], g: list[int]) -> list[int]:
    """a / g in Z[x] for a primitive g that divides a (integral by Gauss's lemma)."""
    r, lg, ng = list(a), g[-1], len(g) - 1
    q = [0] * (len(a) - ng)
    for k in range(len(q) - 1, -1, -1):
        q[k] = f = r[k + ng] // lg
        for j in range(ng):
            r[k + j] -= f * g[j]
    return q


def _int_sturm_chain(c: list[int]) -> list[list[int]]:
    """Primitive Sturm chain of c in Z[x] (deg c >= 1).

    Each element is a positive multiple of the classical chain's c, c', and
    negated remainders -rem(p_(k-1), p_k): prem(a, b) = lc(b)^(delta+1) rem(a, b)
    with delta = deg a - deg b, so -prem carries the sign of -rem unless
    lc(b)^(delta+1) < 0, and every other scaling is by a positive content.
    The last element is gcd(c, c') up to a positive constant.
    """
    chain = [_primitive(c), _primitive(uderiv(c))]
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        r = _prem(a, b)
        if not r:
            break
        # lc(b)^(delta+1) < 0 exactly when lc(b) < 0 and delta is even
        flip = b[-1] < 0 and (len(a) - len(b)) % 2 == 0
        chain.append(_primitive(r if flip else [-x for x in r]))
    return chain


def _sign_variations(vals: list[int]) -> int:
    signs = [v for v in vals if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def sturm_counter(c: list[int]) -> Callable[[Fraction | None, Fraction | None], int]:
    """count(lo, hi): the number of distinct real roots of c in (lo, hi]; None means +-infinity.

    c is a list of integer coefficients, low to high (a rational polynomial
    is passed as its numerators over a common denominator, which has the
    same roots).  Its Sturm chain is built once in integers, and the sign
    variations at each finite point (an integer or a Fraction) are
    memoized, so counting on many intervals of one polynomial evaluates the
    chain once per distinct endpoint, in integer arithmetic.
    """
    c = utrim(list(c))
    if len(c) <= 1:
        return lambda lo=None, hi=None: 0
    chain = _int_sturm_chain(c)
    g = chain[-1]
    if len(g) > 1:
        # c has multiple roots and g = gcd(c, c') up to a positive constant:
        # the chain divided by g is a Sturm chain of c / g, which has each root of c once
        chain = [_exact_quotient(p, g) for p in chain]
    at_plus_inf = _sign_variations([1 if p[-1] > 0 else -1 for p in chain])
    at_minus_inf = _sign_variations([(1 if p[-1] > 0 else -1) * (-1) ** (len(p) - 1) for p in chain])
    memo: dict[Fraction, int] = {}

    def variations(x: Fraction) -> int:
        v = memo.get(x)
        if v is None:
            n, d = x.numerator, x.denominator
            vals = []
            for p in chain:
                # d^deg(p) p(n/d) = sum p_k n^k d^(deg(p)-k), of the sign of p(x) as d > 0
                acc, d_pow = p[-1], 1
                for k in range(len(p) - 2, -1, -1):
                    d_pow *= d
                    acc = acc * n + p[k] * d_pow
                vals.append((acc > 0) - (acc < 0))
            v = memo[x] = _sign_variations(vals)
        return v

    def count(lo: Fraction | None = None, hi: Fraction | None = None) -> int:
        vlo = at_minus_inf if lo is None else variations(lo)
        vhi = at_plus_inf if hi is None else variations(hi)
        return vlo - vhi

    return count


def count_real_roots(c: list[int], lo: Fraction | None = None, hi: Fraction | None = None) -> int:
    """Number of distinct real roots of the integer list c in (lo, hi]; None means +-infinity."""
    return sturm_counter(c)(lo, hi)
