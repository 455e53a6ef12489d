"""Exact univariate machinery: roots in Q(i), gcds, Sturm counts, Gaussian integers.

Root extraction is complete for linear factors (rational-root search over
Z[i] divisors) and for quadratic remainders (exact square roots in Q(i)).
Whatever is left provably has no roots in Q(i); its degree is reported as
the residual count.

Rational-root candidates p/q are tested on Gaussian integers: with the
coefficients c_k scaled into Z[i], p/q is a root exactly when
sum c_k p^k q^(n-k) = 0.  Gcds over Q(i), and with them squarefree parts
and coprimality, are modular: images modulo primes P = 1 (mod 4), with i
mapped to a square root of -1 mod P, are combined and rebuilt, and the
result is returned only once exact division has verified it.  Sturm chains
are built and evaluated in integers.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import RootSearchOverflow
from .gaussian import GInt, GaussianRational, ONE, ZERO, from_gint, gr, lift

Coeffs = list[GaussianRational]  # index = power, low to high

_FACTOR_DIGIT_CAP = 10**40  # norms beyond this abort rather than risk unsound output
_CANDIDATE_CAP = 200_000


# -- coefficient lists over a field --------------------------------------------
#
# These helpers take lists of exact field elements, GaussianRational for roots
# in Q(i), and use only +, -, *, 1 / x and truth values; utrim and uderiv
# also serve the integer Sturm chains.  Gcds are modular (`ugcd`): division
# here only verifies them and divides out known factors.


def utrim(c: list) -> list:
    while c and not c[-1]:
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


def uscale(c: list, s) -> list:
    return [a * s for a in c]


def umonic(c: list) -> list:
    return uscale(c, 1 / c[-1])


def udivmod(a: list, b: list) -> tuple[list, list]:
    b = utrim(list(b))
    if not b:
        raise ZeroDivisionError("univariate division by zero")
    a = utrim(list(a))
    inv = 1 / b[-1]
    nb = len(b) - 1
    q = [inv * 0] * max(0, len(a) - nb)
    while len(a) > nb:
        lead = a.pop()
        if lead:
            k = len(a) - nb
            f = lead * inv
            q[k] = f
            for i in range(nb):
                a[k + i] = a[k + i] - f * b[i]
    return utrim(q), utrim(a)


def ugcd(a: Coeffs, b: Coeffs) -> Coeffs:
    """Monic gcd over Q(i) (empty when both are zero), from images modulo primes.

    Brown's modular gcd with the answer recovered by rational reconstruction
    and verified by trial division.  a and b are scaled into Z[i][x] and
    mapped to F_p[x] for primes p = 1 (mod 4) under both embeddings i -> iota
    and i -> -iota, iota^2 = -1 (mod p).  A prime where either leading
    coefficient vanishes is skipped; at any other, the gcd G over Q(i) maps
    to a divisor of each image gcd (see `coprime_mod_p`), so an image of
    degree 0 proves a and b coprime, and images of one degree d >= deg G
    give G's real and imaginary parts u, v mod p as (g+ + g-)/2 and
    (g+ - g-)/(2 iota) whenever d = deg G.  Only the images of least degree
    are kept.  Their CRT combination is rebuilt coefficientwise into a monic
    candidate H of degree d, returned only if it divides a and b exactly:
    then H divides G and deg H >= deg G, so H = G.  Otherwise more primes are
    taken; a prime of degree deg G makes both u and v unique once the
    modulus is large enough, so the loop ends.
    """
    a, b = utrim(list(a)), utrim(list(b))
    if not a or not b:
        c = a or b
        return umonic(c) if c else c
    if len(a) == 1 or len(b) == 1:
        return [ONE]
    ia, ib = _to_gauss_integers(a), _to_gauss_integers(b)
    size, modulus, residues = min(len(a), len(b)) + 1, 1, []  # size: one more than any image's
    for p, iota in _gcd_primes():
        images = []
        for root in (iota, p - iota):
            fa, fb = _image_mod_p(ia, p, root), _image_mod_p(ib, p, root)
            if not fa[-1] or not fb[-1]:
                break
            g = _fp_gcd(fa, fb, p)
            if len(g) == 1:
                return [ONE]
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
        candidate = _reconstruct(residues, modulus, size - 1)
        if candidate is not None and not udivmod(a, candidate)[1] and not udivmod(b, candidate)[1]:
            return candidate
    raise AssertionError("unreachable: the prime supply is infinite")


def _reconstruct(residues: list[int], modulus: int, deg: int) -> Coeffs | None:
    """The monic degree-deg polynomial with real and imaginary parts rebuilt
    from residues (re_0..re_deg, im_0..im_deg) mod modulus, or None when some
    part has no reconstruction."""
    n = deg + 1
    out = []
    for k in range(deg):
        re, im = _rational_reconstruction(residues[k], modulus), _rational_reconstruction(residues[n + k], modulus)
        if re is None or im is None:
            return None
        out.append(GaussianRational(re, im))
    return out + [ONE]


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
    """Squarefree part (product of distinct roots), monic."""
    d = uderiv(c)
    if not d:
        return umonic(list(c)) if c else []
    g = ugcd(c, d)
    if udeg(g) == 0:
        return umonic(list(c))
    return umonic(udivmod(c, g)[0])


def ucoprime(a: Coeffs, b: Coeffs) -> bool:
    """Whether gcd(a, b) is a nonzero constant."""
    return len(ugcd(a, b)) == 1


def deflate(c: Coeffs, root: GaussianRational) -> Coeffs:
    """Divide by (x - root); the root must be exact."""
    q, r = udivmod(c, [-root, ONE])
    assert not r, "deflation by a non-root"
    return q


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
    assert gi_norm(u) == 1, "unit should remain after removing all primes"
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


def gi_divisors(u: GInt) -> list[GInt]:
    """All divisors of u up to units (one representative per associate class)."""
    factors = gi_factor(u)
    if _divisor_count(factors) > _CANDIDATE_CAP:
        raise RootSearchOverflow("divisor enumeration too large")
    return _divisors_of(factors)


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


def coprime_mod_p(a: Coeffs, b: Coeffs) -> bool:
    """True proves gcd(a, b) = 1 over Q(i); False proves nothing.

    a and b are scaled into Z[i][x] and mapped to F_P[x] under i -> _I_MOD_P.
    A common factor g of positive degree can be taken primitive in Z[i][x],
    and by Gauss's lemma it divides both scaled polynomials there, so lc(g)
    divides both leading coefficients.  When neither of those vanishes mod
    P, g keeps its degree in F_P[x] and divides both images, which are then
    not coprime.  The same holds for any prime p = 1 (mod 4) and either
    square root of -1 mod p.
    """
    if len(a) < 2 or len(b) < 2:
        return False
    ia = _image_mod_p(_to_gauss_integers(a), _P, _I_MOD_P)
    ib = _image_mod_p(_to_gauss_integers(b), _P, _I_MOD_P)
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


def _to_gauss_integers(c: Coeffs) -> list[GInt]:
    """c times the lcm of its denominators, divided by its Z[i] content."""
    ints = lift(c)[1]
    g: GInt = (0, 0)
    for u in ints:
        if u != (0, 0):
            g = gi_gcd(g, u)
            if gi_norm(g) == 1:
                break  # a unit content stays one
    if gi_norm(g) > 1:
        ints = [gi_divmod(u, g)[0] for u in ints]
    return ints


def _quadratic_roots(c: Coeffs) -> list[GaussianRational] | None:
    """Both roots of a quadratic if they lie in Q(i); None otherwise."""
    a2, a1, a0 = c[2], c[1], c[0]
    disc = a1 * a1 - gr(4) * a2 * a0
    s = disc.sqrt()
    if s is None:
        return None
    inv = (gr(2) * a2).inverse()
    return [(-a1 + s) * inv, (-a1 - s) * inv]


def _candidate_pairs(ints: list[GInt]) -> Iterator[tuple[GInt, GInt]] | None:
    """Every rational-root candidate p/q as a Gaussian-integer pair (p, q), or None when the search would explode."""
    try:
        f0, fn = gi_factor(ints[0]), gi_factor(ints[-1])
    except RootSearchOverflow:
        return None
    # counted before any divisor is built, so an oversized search costs only the factorizations
    if _divisor_count(f0) * _divisor_count(fn) * 4 > _CANDIDATE_CAP:
        return None
    d0, dn = _divisors_of(f0), _divisors_of(fn)
    return ((gi_mul(p, u), q) for p in d0 for q in dn for u in UNITS)


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

    Multiplicities are dropped (the squarefree part is used).  The residual
    factor is guaranteed to have no Q(i) roots at all.
    """
    report = RootReport()
    c = utrim(list(c))
    if not c:
        raise ValueError("root extraction on the zero polynomial")
    if udeg(c) == 0:
        return report
    c = usquarefree(c)
    if c[0].is_zero():
        report.roots.append(ZERO)
        c = utrim(c[1:])
    while udeg(c) >= 1:
        if udeg(c) == 1:
            report.roots.append(-c[0] / c[1])
            return report
        if udeg(c) == 2:
            roots = _quadratic_roots(c)
            if roots is None:
                report.residual_degree += 2
                report.unresolved.append(c)
                return report
            report.roots.extend(roots)
            return report
        ints = _to_gauss_integers(c)
        candidates = _candidate_pairs(ints)
        if candidates is None:
            report.uncertain_degree += udeg(c)
            report.uncertain.append(c)
            return report
        found = next((_as_gaussian_rational(p, q) for p, q in candidates if _gi_vanishes(ints, p, q)), None)
        if found is None:
            report.residual_degree += udeg(c)
            report.unresolved.append(c)
            return report
        report.roots.append(found)
        c = deflate(c, found)
    return report


# -- Sturm sequences over the real rationals, in integers -------------------------

RCoeffs = list[Fraction]


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


def sturm_counter(c: RCoeffs) -> Callable[[Fraction | None, Fraction | None], int]:
    """count(lo, hi): the number of distinct real roots of c in (lo, hi]; None means +-infinity.

    c (integers or Fractions) is scaled by the positive lcm of its
    denominators and its Sturm chain built once in integers, and the sign
    variations at each finite point are memoized, so counting on many
    intervals of one polynomial evaluates the chain once per distinct
    endpoint, in integer arithmetic.
    """
    c = utrim(list(c))
    if len(c) <= 1:
        return lambda lo=None, hi=None: 0
    chain = _int_sturm_chain([re for re, _ in lift(c)[1]])
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


def count_real_roots(c: RCoeffs, lo: Fraction | None = None, hi: Fraction | None = None) -> int:
    """Number of distinct real roots in (lo, hi]; None means +-infinity."""
    return sturm_counter(c)(lo, hi)
