import itertools
import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import src_env
from foltools import uniroots
from foltools.gaussian import GaussianRational, from_gint, gr, lift
from foltools.uniroots import (
    RootReport,
    _GCD_PRIMES,
    _LIFT_ABOVE,
    _as_gaussian_rational,
    _gi_primitive,
    _gi_quotient,
    _gi_vanishes,
    _int_sturm_chain,
    _is_probable_prime,
    _lifted_roots,
    count_real_roots,
    sturm_counter,
    gi_divmod,
    gi_gcd,
    gi_mul,
    gi_norm,
    qi_roots,
    ucoprime,
    uderiv,
    ueval,
    ugcd,
    usquarefree,
    utrim,
)

_UNITS = ((1, 0), (-1, 0), (0, 1), (0, -1))

# -- Q(i) coefficient lists: the oracles and the conversions ---------------------------


def _ints(c):
    """The Z[i] numerators of c over their common denominator."""
    return lift(c)[1]


def udivmod(a, b):
    """Quotient and remainder of Q(i) coefficient lists by the field long division."""
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


def umonic(c):
    return [a / c[-1] for a in c]


def _monic(c):
    """c made monic over Q(i); Z[i] pairs, as `ugcd` and `usquarefree` return, are read as Gaussian integers."""
    c = [from_gint(u) if isinstance(u, tuple) else u for u in c]
    return umonic(c) if c else c


def factor_int(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer."""
    if n <= 0:
        raise ValueError("factor_int expects a positive integer")
    if n > uniroots._FACTOR_DIGIT_CAP:
        raise uniroots.RootSearchOverflow("integer too large for exact factorization")
    out: dict[int, int] = {}
    for _, p in uniroots._prime_factors([n]):
        out[p] = out.get(p, 0) + 1
    return out


def _gaussian_prime_above(p: int):
    """A Gaussian prime dividing the split rational prime p (p % 4 == 1)."""
    return gi_gcd((p, 0), (uniroots._sqrt_minus_one(p), 1))


def _gi_split(u, norm_factors: dict[int, int]):
    """The Gaussian prime factorization of u up to units, from the prime
    factorization of the norm of u."""
    out = []
    for p in sorted(norm_factors):
        if p == 2:
            cands = [(1, 1)]
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


def gi_factor(u):
    """Gaussian prime factorization up to units."""
    if u == (0, 0):
        raise ValueError("cannot factor zero")
    return _gi_split(u, factor_int(gi_norm(u)))


def test_factor_int():
    assert factor_int(2**6 * 3**2 * 97) == {2: 6, 3: 2, 97: 1}
    assert factor_int(1) == {}
    big = 1000003 * 1000033
    assert factor_int(big) == {1000003: 1, 1000033: 1}
    # `_refused_by_full_count` reads a norm past the cap as a refusal
    with pytest.raises(uniroots.RootSearchOverflow):
        gi_factor((uniroots._FACTOR_DIGIT_CAP, 1))


def test_a_perfect_square_is_split_before_pollard_rho(monkeypatch):
    # rho takes about sqrt(p) steps on p^2, about 10^6 for p near 10^12: the
    # square root is pushed twice instead, and rho only sees non-squares
    seen = []
    rho = uniroots._pollard_rho
    monkeypatch.setattr(uniroots, "_pollard_rho", lambda n: seen.append(n) or rho(n))
    p, q = 1000000000039, 299336483
    assert factor_int(p**2 * 31**2 * 1000003**2) == {p: 2, 31: 2, 1000003: 2}
    assert factor_int(p**2 * 1000003 * 1000033) == {p: 2, 1000003: 1, 1000033: 1}
    assert factor_int(q**4) == {q: 4} and factor_int(2**5 * (q * 31) ** 2) == {2: 5, q: 2, 31: 2}
    assert seen and all(math.isqrt(n) ** 2 != n for n in seen)


def _refused_by_full_count(c):
    """The refusal from both complete Gaussian factorizations, as it was
    decided before the count was bounded while factoring."""
    try:
        f0, fn = gi_factor(c[0]), gi_factor(c[-1])
    except uniroots.RootSearchOverflow:
        return True
    return 4 * math.prod(mult + 1 for _, mult in f0 + fn) > uniroots._CANDIDATE_CAP


def _planted(rng, powers):
    """A unit times the product of Gaussian primes to the given powers."""
    u = rng.choice(_UNITS)
    for pi, k in powers:
        for _ in range(k):
            u = gi_mul(u, pi)
    return u


# Gaussian primes over 2, inert 3 (mod 4) primes, and both primes over split 1 (mod 4) primes
_GAUSSIAN_PRIMES = [(1, 1), (3, 0), (7, 0), (11, 0), (19, 0), (23, 0), (2, 1), (2, -1), (3, 2), (3, -2), (1, 4), (1, -4), (6, 5)]


@pytest.mark.parametrize(
    "c0, cn, refused",
    [
        # 4 * 16 * 5^5 = 200,000 candidates: exactly at the cap, searched
        ([((1, 1), 15), ((3, 0), 4), ((7, 0), 4)], [((11, 0), 4), ((19, 0), 4), ((23, 0), 4)], False),
        # 4 * 17 * 5^5 = 212,500: just over it
        ([((1, 1), 16), ((3, 0), 4), ((7, 0), 4)], [((11, 0), 4), ((19, 0), 4), ((23, 0), 4)], True),
        # a split prime's two factors: (a + 1)(b + 1) = 29 * 29 over 5, with (1 + i)^99 over the cap,
        # although the bound from the primes of the norm alone, 4 * 57 * 100, is not
        ([((2, 1), 28), ((2, -1), 28)], [((1, 1), 99)], True),
        ([((2, 1), 28), ((2, -1), 28)], [((1, 1), 9)], False),
        ([((2, 1), 56)], [((1, 1), 99)], False),  # all 56 over one prime: 4 * 57 * 100
        # a norm past 10^40 at either end
        ([((11, 0), 20)], [], True),
        ([], [((3, 0), 43)], True),
        ([], [((3, 0), 41)], False),
    ],
)
def test_search_refused_planted(c0, cn, refused):
    rng = random.Random(7)
    c = [_planted(rng, c0), (1, 0), (0, 1), _planted(rng, cn)]
    assert uniroots._search_refused(c) is refused is _refused_by_full_count(c)


def test_search_refused_matches_the_full_count(rng):
    for _ in range(300):
        ends = [
            _planted(rng, [(pi, rng.choice((0, 0, 1, 2, rng.randint(3, 12)))) for pi in rng.sample(_GAUSSIAN_PRIMES, 6)])
            for _ in range(2)
        ]
        c = [ends[0], (rng.randint(-5, 5), 1), ends[1]]
        assert uniroots._search_refused(c) == _refused_by_full_count(c), c


def test_search_refused_stops_factoring_past_the_cap(monkeypatch):
    # the primes of c[0] alone bound the count past the cap: Pollard's rho
    # never starts on c[-1], and neither end's content (3 and 1000003 * 1000033)
    # is read, so every count made is the bound with content 1
    seen, contents = [], []
    rho, count = uniroots._pollard_rho, uniroots._divisor_count
    monkeypatch.setattr(uniroots, "_pollard_rho", lambda n: seen.append(n) or rho(n))
    monkeypatch.setattr(uniroots, "_divisor_count", lambda p, e, content: contents.append(content) or count(p, e, content))
    split = [p for p in range(5, 150, 4) if _is_probable_prime(p)][:16]  # 4 * 2^16 candidates at least
    c0 = _planted(random.Random(1), [((3, 0), 1)] + [(_gaussian_prime_above(p), 1) for p in split])
    assert gi_norm(c0) <= uniroots._FACTOR_DIGIT_CAP and math.gcd(*c0) == 3
    assert uniroots._search_refused([c0, (1, 0), (1000003 * 1000033, 0)])
    assert seen and all(gi_norm(c0) % n == 0 for n in seen)
    assert contents and set(contents) == {1}


def test_divisor_count_matches_the_gaussian_factorization(rng):
    # u = unit * r * (1 + i)^a * inert primes * pi^a conj(pi)^b with a != b, both > 0,
    # so the content of u holds each split prime to the power k = min(a, b) > 0
    split = [p for p in range(5, 100, 4) if _is_probable_prime(p)]
    for _ in range(200):
        powers = [((1, 1), rng.randint(0, 6))] + [((q, 0), rng.randint(0, 1)) for q in rng.sample((3, 7, 11, 19), 2)]
        for p in rng.sample(split, rng.randint(1, 2)):
            pi = _gaussian_prime_above(p)
            a, b = rng.sample(range(1, 5), 2)
            powers += [(pi, a), ((pi[0], -pi[1]), b)]
        r = rng.choice((1, 2, 3, 5, 6, 13, 15, 21, 65))
        u = gi_mul(_planted(rng, powers), (r, 0))
        norm_factors = factor_int(gi_norm(u))
        full = math.prod(mult + 1 for _, mult in _gi_split(u, norm_factors))
        exact = math.prod(uniroots._divisor_count(p, e, math.gcd(*u)) for p, e in norm_factors.items())
        least = math.prod(uniroots._divisor_count(p, e, 1) for p, e in norm_factors.items())
        assert exact == full and least < full, u  # least: k(e - k) > 0 less over each split prime


def test_search_refused_counts_the_small_primes_of_both_ends_first(monkeypatch):
    # 2^20 and 3^20 in the norm of c[0], 5^20, 7^20 and 11^2 in that of c[-1]:
    # refused before Pollard's rho starts on the large cofactor of c[0]
    monkeypatch.setattr(uniroots, "_pollard_rho", None)
    c = [(2**10 * 3**10 * 1000003 * 1000033, 0), (1, 0), (5**10 * 7**10 * 11, 0)]
    assert max(gi_norm(c[0]), gi_norm(c[-1])) <= uniroots._FACTOR_DIGIT_CAP
    assert uniroots._search_refused(c)


def test_gaussian_integer_basics():
    assert gi_norm((3, 4)) == 25
    g = gi_gcd((5, 0), (2, 1))
    assert gi_norm(g) == 5  # 2+i divides 5
    fac = gi_factor((5, 0))
    assert sorted(gi_norm(p) for p, _ in fac) == [5, 5]
    assert len(_gaussian_divisors(gi_factor((4, 0)))) == 5  # 1, 1+i, 2, 2+2i, 4 up to units


def test_roots_rational_and_gaussian():
    # (x - 1)(x - 2)(x - 3)
    rep = qi_roots(_ints([gr(-6), gr(11), gr(-6), gr(1)]))
    assert sorted(str(r) for r in rep.roots) == ["1", "2", "3"]
    assert rep.residual_degree == 0
    # x^2 + 1
    rep = qi_roots(_ints([gr(1), gr(0), gr(1)]))
    assert set(rep.roots) == {gr(0, 1), gr(0, -1)}
    # x^3 + 2 has no roots in Q(i)
    rep = qi_roots(_ints([gr(2), gr(0), gr(0), gr(1)]))
    assert rep.roots == [] and rep.residual_degree == 3
    # mixed: (x - i)(x^2 - 2) -> one Gaussian root, quadratic residual
    p = [gr(0, 2), gr(-2), gr(0, -1), gr(1)]
    rep = qi_roots(_ints(p))
    assert rep.roots == [gr(0, 1)]
    assert rep.residual_degree == 2


def test_roots_with_multiplicity_and_zero():
    # x^2 (x - 1/2)^2 -> roots {0, 1/2} once each (squarefree reduction)
    c = [gr(0), gr(0), gr("1/4"), gr(-1), gr(1)]
    rep = qi_roots(_ints(c))
    assert set(rep.roots) == {gr(0), gr("1/2")}


def test_roots_random_products(rng=None):
    rnd = random.Random(42)
    for _ in range(120):
        roots = []
        for _k in range(rnd.randint(1, 4)):
            roots.append(
                GaussianRational(
                    Fraction(rnd.randint(-6, 6), rnd.randint(1, 3)),
                    Fraction(rnd.randint(-6, 6), rnd.randint(1, 3)) if rnd.random() < 0.4 else Fraction(0),
                )
            )
        coeffs = [gr(1)]
        for r in roots:
            # multiply by (x - r)
            new = [gr(0)] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                new[i + 1] = new[i + 1] + c
                new[i] = new[i] - c * r
            coeffs = new
        rep = qi_roots(_ints(coeffs))
        assert set(rep.roots) == set(roots)
        assert rep.residual_degree == 0


def test_sturm_counts():
    # x^2 - 2: two real roots
    assert count_real_roots([-2, 0, 1]) == 2
    # x^2 + 1: none
    assert count_real_roots([1, 0, 1]) == 0
    # (x-1)(x-2)(x-3) on (0, 5/2]
    c = [-6, 11, -6, 1]
    assert count_real_roots(c, Fraction(0), Fraction(5, 2)) == 2
    assert count_real_roots(c, Fraction(3), None) == 0
    # repeated roots counted once
    assert count_real_roots([1, -2, 1]) == 1


def test_udivmod_and_gcd():
    # (x^2 - 1) = (x + 1)(x - 1)
    q, r = udivmod([gr(-1), gr(0), gr(1)], [gr(1), gr(1)])
    assert q == [gr(-1), gr(1)] and r == []
    g = ugcd(_ints([gr(-1), gr(0), gr(1)]), _ints([gr(1), gr(1)]))
    assert _monic(g) == [gr(1), gr(1)]


# -- integer candidate test against the Q(i) Horner reference --------------------


def _poly_from_roots(roots, lead=gr(1)):
    coeffs = [lead]
    for r in roots:
        new = [gr(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            new[i + 1] = new[i + 1] + c
            new[i] = new[i] - c * r
        coeffs = new
    return coeffs


def _gaussian_divisors(factors):
    """Every divisor, up to units, of a Gaussian integer given as (prime, multiplicity) pairs."""
    divs = [(1, 0)]
    for prime, mult in factors:
        more, pk = [], (1, 0)
        for _ in range(mult):
            pk = gi_mul(pk, prime)
            more.extend(gi_mul(d, pk) for d in divs)
        divs.extend(more)
    return divs


def _all_candidates(ints, f0=None, fn=None):
    """Every rational-root candidate (p u, q): p and q run over the divisors of
    the constant and leading coefficients, given by their Gaussian prime
    factorizations (found by `gi_factor` when not given), and u over the units."""
    d0 = _gaussian_divisors(gi_factor(ints[0]) if f0 is None else f0)
    dn = _gaussian_divisors(gi_factor(ints[-1]) if fn is None else fn)
    return [(gi_mul(p, u), q) for p in d0 for q in dn for u in _UNITS]


def _scanned_roots(ints, f0=None, fn=None):
    """The nonzero Q(i) roots of a Z[i] list with a nonzero constant term, by
    the exhaustive divisor scan: by the rational-root theorem in the UFD Z[i]
    every root is p/q for p | c_0 and q | c_n."""
    return {_as_gaussian_rational(p, q) for p, q in _all_candidates(ints, f0, fn) if _gi_vanishes(ints, p, q)}


def _random_gaussian(rnd, span=4, den=3):
    re = Fraction(rnd.randint(-span, span), rnd.randint(1, den))
    im = Fraction(rnd.randint(-span, span), rnd.randint(1, den)) if rnd.random() < 0.5 else Fraction(0)
    return GaussianRational(re, im)


def test_integer_candidate_test_matches_horner_reference():
    rnd = random.Random(7)
    checked = 0
    for _ in range(60):
        roots = []
        for _k in range(rnd.randint(1, 4)):
            roots += [_random_gaussian(rnd)] * rnd.randint(1, 3)
        lead = _random_gaussian(rnd) or gr(1)
        coeffs = _poly_from_roots(roots, lead)
        if rnd.random() < 0.3:  # times x^2 - 2, which has no Q(i) root
            coeffs = [a - 2 * b for a, b in zip([gr(0), gr(0)] + coeffs, coeffs + [gr(0), gr(0)])]
        ints = usquarefree(_ints(coeffs))
        if ints[0] == (0, 0):
            ints = ints[1:]
        if len(ints) < 4:
            continue
        c = [from_gint(u) for u in ints]
        candidates = _all_candidates(ints)
        for p, q in candidates[:400]:
            assert _gi_vanishes(ints, p, q) == ueval(c, _as_gaussian_rational(p, q)).is_zero()
        # the exhaustive scan with the GaussianRational Horner loop as the test
        want = {r for r in {_as_gaussian_rational(p, q) for p, q in candidates} if ueval(c, r).is_zero()}
        got = qi_roots(ints)
        assert want and set(got.roots) == want and len(got.roots) == len(want)
        assert got.residual_degree == len(ints) - 1 - len(want) and got.uncertain_degree == 0
        checked += 1
    assert checked >= 20


def test_integer_candidate_test_on_known_roots():
    # 6x^3 - 11x^2 + 6x - 1 = (x - 1)(2x - 1)(3x - 1); candidates p/q from divisors of 1 and 6
    ints = [(-1, 0), (6, 0), (-11, 0), (6, 0)]
    assert _gi_vanishes(ints, (1, 0), (2, 0))
    assert _gi_vanishes(ints, (2, 0), (6, 0))  # the same root, not in lowest terms
    assert not _gi_vanishes(ints, (-1, 0), (2, 0))
    # x^3 + x has the Gaussian root i = (1+i)/(1-i)
    assert _gi_vanishes([(0, 0), (1, 0), (0, 0), (1, 0)], (1, 1), (1, -1))


# -- one screen per root search against the per-step loop ---------------------------------


def _stepwise_qi_roots(c):
    """Reference root search: after every root it factors the deflated
    polynomial's end coefficients again and scans a fresh divisor grid."""
    report = RootReport()
    c = utrim(list(c))
    if len(c) == 1:
        return report
    c = usquarefree(c)
    if c[0] == (0, 0):
        report.roots.append(gr(0))
        c = c[1:]
    while len(c) >= 2:
        found = next(((p, q) for p, q in _all_candidates(c) if _gi_vanishes(c, p, q)), None)
        if found is None:
            report.residual_degree += len(c) - 1
            report.unresolved.append(c)
            return report
        p, q = found
        report.roots.append(_as_gaussian_rational(p, q))
        c = _gi_quotient(_gi_primitive([(-p[0], -p[1]), q]), c)
    return report


def _gi_product(factors):
    """The Z[i] list of a product of Z[i] lists, low to high."""
    out = [(1, 0)]
    for f in factors:
        new = [(0, 0)] * (len(out) + len(f) - 1)
        for i, u in enumerate(out):
            for j, v in enumerate(f):
                w = gi_mul(u, v)
                new[i + j] = (new[i + j][0] + w[0], new[i + j][1] + w[1])
        out = new
    return out


# q x - p for roots p / q that share divisors (1+i, 2, 3, 5 = (2+i)(2-i)) and include associates
_LINEAR_POOL = [(p, q) for p in ((1, 0), (1, 1), (2, 0), (0, 3), (2, 1), (2, -1), (3, 3), (-4, 2), (5, 0)) for q in ((1, 0), (2, 0), (1, 1), (3, 0), (1, -1))]
# no root in Q(i): x^2 - 2, x^2 + x + 1, x^2 - 3, x^3 - 2 and x^3 - x - 1
_IRREDUCIBLE_POOL = [[(-2, 0), (0, 0), (1, 0)], [(1, 0), (1, 0), (1, 0)], [(-3, 0), (0, 0), (1, 0)], [(-2, 0), (0, 0), (0, 0), (1, 0)], [(-1, 0), (-1, 0), (0, 0), (1, 0)]]


def _planted_search_cases(seed, count):
    rnd = random.Random(seed)
    for _ in range(count):
        linears, roots, want = [], set(), rnd.randint(3, 6)
        while len(linears) < want:
            p, q = rnd.choice(_LINEAR_POOL)
            if linears and rnd.random() < 0.3:  # an associate of a root already taken: times i, -1 or -i
                p, q = rnd.choice(linears)
                p = gi_mul(p, rnd.choice(_UNITS[1:]))
            root = _as_gaussian_rational(p, q)
            if root not in roots:
                roots.add(root)
                linears.append((p, q))
        factors = [[(-p[0], -p[1]), q] for p, q in linears] + [rnd.choice(_IRREDUCIBLE_POOL)]
        if rnd.random() < 0.3:
            factors.append([(rnd.randint(-3, 3), rnd.randint(-3, 3)), (1, 0)])  # maybe a repeated root
        yield _gi_product(factors + [[(rnd.randint(1, 4), rnd.randint(-2, 2))]])


def test_root_search_matches_the_stepwise_loop():
    searched = 0
    for c in _planted_search_cases(20261018, 150):
        want = _stepwise_qi_roots(c)
        got = qi_roots(c)
        assert set(got.roots) == set(want.roots) and len(got.roots) == len(want.roots), c
        assert (got.residual_degree, got.uncertain_degree) == (want.residual_degree, 0)
        assert len(got.unresolved) == len(want.unresolved) == 1 and _associates(got.unresolved[0], want.unresolved[0])
        assert len(got.roots) >= 3 and got.residual_degree >= 2
        searched += len(c) > 6
    assert searched > 50


# -- roots whose images vanish modulo the first gcd prime ---------------------------

_P0, _IOTA0 = _GCD_PRIMES[0]  # the first prime `ugcd` takes, and its image of i
_PI0 = gi_gcd((_P0, 0), (_IOTA0, -1))  # the Gaussian prime above _P0 that i -> _IOTA0 maps to 0


@pytest.mark.parametrize("root_num, root_den", [((1, 0), _PI0), (_PI0, (1, 0))])
def test_root_whose_numerator_or_denominator_vanishes_mod_p_is_found(root_num, root_den):
    # the root's image mod _P0 is 0/0 or 0; the search does not read it, and with the
    # leading coefficient _PI0 `ugcd` skips _P0 when it takes the squarefree part
    root = _as_gaussian_rational(root_num, root_den)
    assert gi_norm(_PI0) == _P0 and 0 in uniroots._image_mod_p([root_num, root_den], _P0, _IOTA0)
    c = _poly_from_roots([root], gr(1))
    c = _times(c, [gr(-2), gr(0), gr(1)])  # times x^2 - 2, which has no Q(i) root
    rep = qi_roots(_ints(c))
    assert rep.roots == [root]
    assert rep.residual_degree == 2


# -- the lifting against the exhaustive divisor scan ------------------------------------


def _scan_cases():
    """Seeded Z[i] polynomials of degree 3-6: planted roots, pure noise, and coefficients past int64."""
    rnd = random.Random(23)
    for n in range(90):
        roots = [_random_gaussian(rnd, span=6, den=6) or gr(1) for _ in range(n % 3)]
        c = _poly_from_roots(roots, _random_gaussian(rnd, span=9, den=1) or gr(2))
        rest = [gr(rnd.randint(-30, 30), rnd.randint(-30, 30) if n % 2 else 0) for _ in range(rnd.randint(1, 4))]
        c = _times(c, rest + [gr(1 + (n % 4))])
        if n % 5 == 0:  # times x^2 + (3^45 + 2^70 i) x + 1
            c = _times(c, [gr(1), gr(3**45, 2**70), gr(1)])
        c = utrim(c)
        if len(c) >= 4 and not c[0].is_zero():
            yield _gi_primitive(_ints(c))


def test_root_search_matches_the_exhaustive_scan():
    found = 0
    for ints in _scan_cases():
        got, want = qi_roots(ints), _scanned_roots(ints)
        assert set(got.roots) == want and len(got.roots) == len(want)
        assert (got.residual_degree, got.uncertain_degree) == (len(usquarefree(ints)) - 1 - len(want), 0)
        found += bool(want)
    assert found >= 20


def _gaussian_prime(rnd, bits):
    """A Gaussian prime with components of about `bits` bits: a + bi of prime
    norm, or a real prime = 3 (mod 4)."""
    while True:
        a, b = rnd.getrandbits(bits) | 1 << (bits - 1), rnd.getrandbits(bits) | 1 << (bits - 1)
        if rnd.random() < 0.3:
            a |= 3
            if _is_probable_prime(a):
                return (a, 0)
        elif _is_probable_prime(a * a + b * b):
            return (a, b)


def _unit_multiple(u, v):
    return any(gi_mul(v, e) == u for e in _UNITS)


def _prime_power_product(factors):
    out = (1, 0)
    for prime, mult in factors:
        for _ in range(mult):
            out = gi_mul(out, prime)
    return out


def _large_root_cases(seed, count):
    """Products of 2-4 linear factors q x - p, p and q Gaussian primes with
    60-bit components (an associate of a factor already taken, or a repeated
    factor, now and then), times x^2 - 2, x^2 + x + 1 or x^3 - x - 1; with the
    prime factorizations of the end coefficients and the planted roots."""
    rnd = random.Random(seed)
    for _ in range(count):
        linears = []
        while len(linears) < rnd.randint(2, 4):
            if linears and rnd.random() < 0.2:
                p, q = rnd.choice(linears)
                p = gi_mul(p, rnd.choice(_UNITS[1:]))
            else:
                p, q = gi_mul(_gaussian_prime(rnd, 60), rnd.choice(_UNITS)), _gaussian_prime(rnd, 60)
            linears.append((p, q))
        if rnd.random() < 0.3:
            linears.append(linears[0])
        rest = rnd.choice(_IRREDUCIBLE_POOL[1:])
        c = _gi_product([[(-p[0], -p[1]), q] for p, q in linears] + [rest])
        f0 = [(p, 1) for p, _ in linears] + gi_factor(rest[0])
        fn = [(q, 1) for _, q in linears]
        yield c, f0, fn, {_as_gaussian_rational(p, q) for p, q in linears}, len(rest) - 1


def test_lifting_matches_the_divisor_scan_on_60_bit_roots():
    for c, f0, fn, planted, rest in _large_root_cases(20261019, 30):
        # the factorizations are those of the end coefficients, so the scan is exhaustive
        assert _unit_multiple(c[0], _prime_power_product(f0)) and _unit_multiple(c[-1], _prime_power_product(fn))
        sq = usquarefree(c)
        a = sq[-1]
        lifted = [_as_gaussian_rational(w, a) for w in _lifted_roots(sq) if _gi_vanishes(sq, w, a)]
        assert set(lifted) == _scanned_roots(c, f0, fn) == planted and len(lifted) == len(planted)
        # norms past the factoring cap: qi_roots still refuses the search
        assert qi_roots(c).uncertain_degree == len(planted) + rest


@pytest.mark.parametrize(
    "c, roots",
    [
        (_poly_from_roots([gr("1/2"), gr(0, "-1/3")], gr(6)), {gr("1/2"), gr(0, "-1/3")}),  # two Q(i) roots
        ([gr(5), gr(-2), gr(1)], {gr(1, 2), gr(1, -2)}),  # a Gaussian pair: x^2 - 2x + 5
        (_poly_from_roots([gr("7/5", "-2/3")] * 2, gr(0, 3)), {gr("7/5", "-2/3")}),  # a double root
        ([gr(-2), gr(0), gr(1)], set()),  # irreducible: x^2 - 2
        ([gr(0, -1), gr(0), gr(1)], set()),  # irreducible over Q(i): x^2 - i
        ([gr(1), gr(1), gr(1)], set()),  # irreducible: x^2 + x + 1
    ],
)
def test_quadratics_are_decided_by_the_lifting(c, roots):
    rep = qi_roots(_ints(c))
    assert set(rep.roots) == roots and len(rep.roots) == len(roots)
    assert rep.residual_degree == (2 if not roots else 0) and rep.uncertain_degree == 0
    assert rep.unresolved == ([usquarefree(_ints(c))] if not roots else [])


def _spy_lifting_primes(monkeypatch):
    """The primes whose images `_lifted_roots` tests for squarefreeness."""
    seen = []
    real = uniroots._fp_gcd

    def spy(a, b, p):
        seen.append(p)
        return real(a, b, p)

    monkeypatch.setattr(uniroots, "_fp_gcd", spy)
    return seen


def test_lifting_skips_primes_that_divide_the_leading_norm_or_repeat_a_root(monkeypatch):
    first, second = (p for p, _ in itertools.islice(uniroots._split_primes(_LIFT_ABOVE), 2))
    assert (first, second) == (101, 109)
    # (10 + i) x - 1: the leading norm is 101, so 101 is never tried
    lead = (10, 1)
    c = _gi_product([[(-1, 0), lead], [(-2, 0), (1, 0)], [(1, 0), (0, 0), (1, 0)]])
    seen = _spy_lifting_primes(monkeypatch)
    candidates = _lifted_roots(c)
    assert seen == [second]
    a = c[-1]
    assert {_as_gaussian_rational(w, a) for w in candidates} == {_as_gaussian_rational((1, 0), lead), gr(2), gr(0, 1), gr(0, -1)}
    # (x - 1)(x - 102) is squarefree over Q(i), but both roots are 1 mod 101
    c = _gi_product([[(-1, 0), (1, 0)], [(-102, 0), (1, 0)]])
    seen.clear()
    assert sorted(_lifted_roots(c)) == [(1, 0), (102, 0)]
    assert seen == [first, second]
    monkeypatch.undo()
    assert set(qi_roots(c).roots) == {gr(1), gr(102)}


def _lifting_cases(seed, count):
    """Seeded Z[i] lists of degree up to 31: 1-5 planted factors q x - p (p and q up to
    2^40, a repeated factor now and then) times factors with unit end coefficients,
    so most searches go ahead; then lists of degree 102-110, above the first prime."""
    rnd = random.Random(seed)

    def gint(bits):
        return (rnd.randint(-(2**bits), 2**bits), rnd.randint(-(2**bits), 2**bits) if rnd.random() < 0.6 else 0)

    for k in range(count):
        factors = []
        for _ in range(rnd.randint(1, 5)):
            bits = rnd.choice((3, 8, 20, 40))
            q = gint(bits)
            factors.append([gint(bits), q if q != (0, 0) else (1, 0)])
        if rnd.random() < 0.3:
            factors.append(factors[0])
        degree = sum(len(f) - 1 for f in factors)
        while degree < 31 and rnd.random() < 0.8:
            d = rnd.randint(1, min(8, 31 - degree))
            factors.append([rnd.choice(_UNITS)] + [gint(3) for _ in range(d - 1)] + [rnd.choice(_UNITS)])
            degree += d
        yield _gi_product(factors)
    for d in (102, 105, 110):  # (x - i)(x + 1)(x^d + x + 1), ends units
        yield _gi_product([[(0, -1), (1, 0)], [(1, 0), (1, 0)], [(1, 0), (1, 0)] + [(0, 0)] * (d - 2) + [(1, 0)]])


def _report(rep):
    return set(rep.roots), len(rep.roots), rep.residual_degree, rep.unresolved, rep.uncertain_degree, rep.uncertain


def test_small_prime_lifting_matches_lifting_above_ten_thousand(monkeypatch):
    decided = 0
    for c in _lifting_cases(40401, 120):
        got = _report(qi_roots(c))
        monkeypatch.setattr(uniroots, "_LIFT_ABOVE", 10**4)
        assert got == _report(qi_roots(c)), c
        monkeypatch.undo()
        decided += not got[4]
    assert decided >= 55


def _gi_power(u, k):
    return _prime_power_product([(u, k)])


# prime to 1 + i and 3 - 2i: 61-bit components, then norms that factor at once (3^80, 5^50, 13^35)
_NEAR_BOUND = [(2**61 + 2, -(2**60) - 3), (-(10**18) - 7, 10**18 + 10), (0, -(3**40)), _gi_power((2, 1), 50), _gi_power((3, 2), 35)]


@pytest.mark.parametrize("a", [(1, 0), (0, 1), (1, 1), (3, -2)])
@pytest.mark.parametrize("w", _NEAR_BOUND)
def test_roots_of_size_close_to_the_bound_are_found(a, w):
    # (a x - w)(x^2 + 1) = a x^3 - w x^2 + a x - w: B = |a| + |w|, and |a x| = |w| is within |a| of it
    c = _gi_product([[(-w[0], -w[1]), a], [(1, 0), (0, 0), (1, 0)]])
    assert usquarefree(c) == c and w in _lifted_roots(c)
    assert {_as_gaussian_rational(u, a) for u in _lifted_roots(c) if _gi_vanishes(c, u, a)} == {_as_gaussian_rational(w, a), gr(0, 1), gr(0, -1)}
    if w in _NEAR_BOUND[2:]:  # qi_roots factors the end coefficients first
        rep = qi_roots(c)
        assert set(rep.roots) == {_as_gaussian_rational(w, a), gr(0, 1), gr(0, -1)} and rep.residual_degree == 0
        # with x^2 - 2 instead, the root w / a is the only one
        rep = qi_roots(_gi_product([[(-w[0], -w[1]), a], [(-2, 0), (0, 0), (1, 0)]]))
        assert rep.roots == [_as_gaussian_rational(w, a)] and rep.residual_degree == 2


# -- coprimality modulo the first gcd prime ------------------------------------------


def test_image_of_i_is_a_square_root_of_minus_one():
    for p, iota in _GCD_PRIMES:
        assert p % 4 == 1 and iota * iota % p == p - 1


def test_squarefree_input_is_certified():
    c = _poly_from_roots([gr(1), gr(2), gr(0, -1)])
    assert _monic(usquarefree(_ints(c))) == umonic(c)
    assert ucoprime(_ints(c), _ints(uderiv(c)))


def test_repeated_root_falls_back_to_exact_gcd():
    c = _poly_from_roots([gr(1), gr(1), gr(0, -1)])  # (x - 1)^2 (x + i)
    assert not ucoprime(_ints(c), _ints(uderiv(c)))
    assert _monic(usquarefree(_ints(c))) == _poly_from_roots([gr(1), gr(0, -1)])


def test_leading_coefficient_divisible_by_the_prime_falls_back():
    c = [gr(1), gr(0), gr(_P0)]  # P0 x^2 + 1 is squarefree but vanishes to degree 0 mod P0: `ugcd` skips P0
    assert uniroots._image_mod_p(_ints(c), _P0, _IOTA0)[-1] == 0
    assert ucoprime(_ints(c), _ints(uderiv(c)))
    assert _monic(usquarefree(_ints(c))) == umonic(c)


def test_polynomials_equal_mod_p_are_still_coprime():
    x, x_minus_p = [gr(0), gr(1)], [gr(-_P0), gr(1)]  # one image mod P0, of degree 1: the next prime decides
    assert uniroots._image_mod_p(_ints(x), _P0, _IOTA0) == uniroots._image_mod_p(_ints(x_minus_p), _P0, _IOTA0)
    assert ucoprime(_ints(x), _ints(x_minus_p))


def test_zero_and_constant_inputs_take_the_exact_path():
    x = [(0, 0), (1, 0)]
    assert ucoprime([(3, 0)], x) and ucoprime(x, [(0, 2)])
    assert not ucoprime([], x)  # gcd(0, x) = x
    assert not ucoprime([], [])
    assert ucoprime([], [(5, 0)])


def test_ucoprime_agrees_with_exact_gcd():
    rnd = random.Random(11)
    pool = [_random_gaussian(rnd, span=3, den=2) for _ in range(6)]
    for _ in range(80):
        a = _poly_from_roots(rnd.sample(pool, rnd.randint(0, 3)), _random_gaussian(rnd) or gr(1))
        b = _poly_from_roots(rnd.sample(pool, rnd.randint(0, 3)), _random_gaussian(rnd) or gr(1))
        assert ucoprime(_ints(a), _ints(b)) == (len(_euclid_gcd(a, b)) == 1)


# -- searches too large to run ------------------------------------------------------


def test_constant_term_beyond_factoring_cap_is_uncertain():
    n = 10**21 + 7  # norm 10^42 + ... exceeds the factoring cap
    rep = qi_roots([(n, 0), (1, 0), (0, 0), (1, 0)])
    assert rep.uncertain_degree == 3
    assert rep.roots == [] and rep.residual_degree == 0
    assert len(rep.uncertain) == 1


def test_too_many_divisors_is_uncertain():
    n = 5 * 13 * 17 * 29 * 37 * 41 * 53 * 61 * 73  # 4^9 Gaussian divisors
    c = [(n, 0), (1, 0), (0, 0), (1, 0)]
    rep = qi_roots(c)
    assert rep.uncertain_degree == 3 and rep.uncertain == [c]
    assert rep.roots == [] and rep.residual_degree == 0 and rep.unresolved == []
    # two split primes fewer, 4^7 * 4 candidates are under the cap: the search is decided
    rep = qi_roots([(n // (61 * 73), 0), (1, 0), (0, 0), (1, 0)])
    assert rep.uncertain_degree == 0 and len(rep.roots) + rep.residual_degree == 3


# -- Sturm counts against known roots -------------------------------------------------


def test_sturm_count_matches_known_roots():
    rnd = random.Random(41)
    multiple_root_endpoints = 0
    for _ in range(120):
        roots = sorted({Fraction(rnd.randint(-12, 12), rnd.randint(1, 4)) for _ in range(rnd.randint(1, 4))})
        mults = [rnd.randint(1, 3) for _ in roots]
        lead = gr(Fraction(rnd.choice([-3, -1, 1, 2]), rnd.randint(1, 3)))
        c = _poly_from_roots([gr(r) for r, m in zip(roots, mults) for _ in range(m)], lead)
        c = [z.re for z in c]
        if rnd.random() < 0.5:  # times x^2 + b x + a with b^2 < 4a: no real root
            a, b = rnd.randint(2, 5), rnd.randint(-2, 2)
            c = [a * u + b * v + w for u, v, w in zip(c + [0, 0], [0] + c + [0], [0, 0] + c)]
        c = [re for re, _ in lift(c)[1]]  # scaled to integers by the lcm of the denominators
        gaps = [(r + s) / 2 for r, s in zip(roots, roots[1:])]
        ends = [None, roots[0] - 1, roots[-1] + 1] + roots + gaps
        shared = sturm_counter(c)  # one chain and its memoized variations for every interval
        for lo in ends:
            for hi in ends:
                if lo is not None and hi is not None and lo >= hi:
                    continue
                expected = sum(1 for r in roots if (lo is None or lo < r) and (hi is None or r <= hi))
                assert count_real_roots(c, lo, hi) == expected, (c, lo, hi)
                assert shared(lo, hi) == expected, (c, lo, hi)
                multiple_root_endpoints += any(r in (lo, hi) and m > 1 for r, m in zip(roots, mults))
    assert multiple_root_endpoints > 100


# -- the modular gcd against the Euclid loop -------------------------------------------


def _euclid_gcd(a, b):
    """Monic gcd by the field Euclid loop that the modular gcd replaced: the oracle."""
    a, b = utrim(list(a)), utrim(list(b))
    while b:
        a, b = b, udivmod(a, b)[1]
    return umonic(a) if a else a


def _times(a, b):
    out = [gr(0)] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] = out[i + j] + u * v
    return out


def _gcd_pairs(seed):
    """Seeded Q(i) pairs with a planted common factor of degree 0-5, some with repeated roots."""
    rnd = random.Random(seed)
    for _ in range(60):
        common = [_random_gaussian(rnd, span=5, den=4) for _ in range(rnd.randint(0, 5))]
        if common and rnd.random() < 0.3:
            common.append(common[0])  # a repeated root of the common factor
        lead = _random_gaussian(rnd, span=5, den=4) or gr(1)
        g = _poly_from_roots(common, lead)
        a = _times(g, [_random_gaussian(rnd, span=7, den=5) for _ in range(rnd.randint(1, 5))] + [gr(1)])
        b = _times(g, [_random_gaussian(rnd, span=7, den=5) for _ in range(rnd.randint(1, 5))] + [gr(0, 2)])
        yield a, b


def test_ugcd_matches_euclid_on_planted_factors():
    nontrivial = 0
    for a, b in _gcd_pairs(5):
        g = _monic(ugcd(_ints(a), _ints(b)))
        assert g == _euclid_gcd(a, b)
        assert g == _monic(ugcd(_ints(b), _ints(a)))
        nontrivial += len(g) > 1
        c = _times(a, a)  # every root repeated
        assert _monic(usquarefree(_ints(c))) == _monic(usquarefree(_ints(a))) == umonic(udivmod(a, _euclid_gcd(a, uderiv(a)))[0])
    assert nontrivial >= 40


def test_ugcd_zero_and_constant_inputs():
    x2 = [gr(1), gr(0), gr("2/3")]
    n2 = _ints(x2)  # 2x^2 + 3, primitive
    assert ugcd([], []) == [] and ugcd([(0, 0)], []) == []
    assert ugcd([], n2) == ugcd(n2, [(0, 0)]) == n2 and _monic(n2) == umonic(x2)
    assert _associates(ugcd([], [(0, 0), (2, 2), (0, 6)]), [(0, 0), (1, 1), (0, 3)])  # the primitive part
    assert ugcd([(0, 5)], n2) == ugcd(n2, [(-3, 0)]) == [(1, 0)]
    assert ugcd([(7, 0)], []) == [(1, 0)]
    assert _monic(ugcd(n2, n2)) == umonic(x2)



def _scaled(c, s):
    return [gi_mul(s, u) for u in c]


def _associates(u, v):
    """Whether the Z[i] lists u and v differ by a unit factor."""
    return any(_scaled(v, e) == u for e in _UNITS)


# the four units, 2, 1 + i, and a product of nine split primes with 4^9 Gaussian divisors
_SCALARS = [*_UNITS, (2, 0), (1, 1), (5 * 13 * 17 * 29 * 37 * 41 * 53 * 61 * 73, 0)]


def _scalar_cases():
    """Seeded Z[i] polynomials with Q(i) roots, some repeated, times a factor without any; and one beyond the search cap."""
    rnd = random.Random(29)
    for n in range(24):
        roots = [_random_gaussian(rnd, span=5, den=3) for _ in range(1 + n % 4)]
        c = _poly_from_roots(roots + roots[: n % 2], _random_gaussian(rnd, span=5, den=2) or gr(3))
        c = _times(c, [[gr(1)], [gr(-2), gr(0), gr(1)], [gr(2), gr(1), gr(0), gr(1)]][n % 3])  # 1, x^2 - 2, x^3 + x + 2
        yield _gi_primitive(_ints(c))  # so a unit scalar reaches qi_roots unchanged
    yield [(10**21 + 7, 0), (1, 0), (0, 0), (1, 0)]


def test_univariate_routines_do_not_depend_on_a_scalar():
    cases = list(_scalar_cases())
    searched = 0
    for c, other in zip(cases, cases[1:] + cases[:1]):
        rep = qi_roots(c)
        searched += len(usquarefree(c)) >= 4  # reaches the divisor search
        for lam, mu in zip(_SCALARS, reversed(_SCALARS)):
            got = qi_roots(_scaled(c, lam))
            assert got.roots == rep.roots  # the same roots in the same order
            assert (got.residual_degree, got.uncertain_degree) == (rep.residual_degree, rep.uncertain_degree)
            assert _associates(usquarefree(_scaled(c, lam)), usquarefree(c))
            assert _associates(ugcd(_scaled(c, lam), _scaled(other, mu)), ugcd(c, other))
            assert ucoprime(_scaled(c, lam), _scaled(other, mu)) == ucoprime(c, other)
    assert searched >= 15
    assert qi_roots(cases[-1]).uncertain_degree == 3


def _spy_primes(monkeypatch):
    """Record the primes at which ugcd takes an image gcd."""
    seen = []
    real = uniroots._fp_gcd

    def spy(a, b, p):
        seen.append(p)
        return real(a, b, p)

    monkeypatch.setattr(uniroots, "_fp_gcd", spy)
    return seen


def test_ugcd_skips_primes_where_a_leading_coefficient_vanishes(monkeypatch):
    (p1, iota1), (p2, _) = _GCD_PRIMES[:2]
    g = _poly_from_roots([gr("1/2", 3), gr(-2)])
    for lead, images_at_p1, unseen in (
        (gr(p1 * p2), 0, {p1, p2}),  # vanishes mod p1 and mod p2 under both embeddings
        (gr(iota1, -1), 0, {p1}),  # iota1 - i vanishes under i -> iota1, the first embedding
        (gr(iota1, 1), 1, set()),  # iota1 + i vanishes under i -> -iota1 only
    ):
        a = _times(g, [gr(3), gr(1), lead])
        b = _times(g, [gr(0, 1), gr(1)])
        seen = _spy_primes(monkeypatch)
        assert _monic(ugcd(_ints(a), _ints(b))) == _euclid_gcd(a, b) == g
        assert seen.count(p1) == images_at_p1
        assert not unseen & set(seen)


def test_ugcd_with_large_coefficients_takes_several_primes(monkeypatch):
    rnd = random.Random(3)
    for _ in range(6):
        big = [gr(Fraction(rnd.randint(-(10**40), 10**40), rnd.randint(1, 10**40)), rnd.randint(-(10**40), 10**40)) for _ in range(3)]
        g = _poly_from_roots(big[:2], big[2])
        a = _times(g, [gr(rnd.randint(1, 9)), gr(0), gr(1)])
        b = _times(g, [gr(0, rnd.randint(1, 9)), gr(1)])
        seen = _spy_primes(monkeypatch)
        assert _monic(ugcd(_ints(a), _ints(b))) == _euclid_gcd(a, b) == umonic(g)
        assert len(set(seen)) >= 4


def _small_primes_first():
    return itertools.chain([(5, 2), (13, 8)], uniroots._split_primes(2**62))


def test_ugcd_returns_no_candidate_that_fails_the_division_check(monkeypatch):
    # gcd x + 4: mod 5 it reads x - 1, which reconstructs to x - 1 and does not divide a
    a = _times([gr(4), gr(1)], [gr(2), gr(1)])
    b = _times([gr(4), gr(1)], [gr(3), gr(1)])
    tried = []
    real = uniroots._gi_quotient

    def spy(h, u):
        tried.append(list(h))
        return real(h, u)

    monkeypatch.setattr(uniroots, "_gcd_primes", _small_primes_first)
    monkeypatch.setattr(uniroots, "_gi_quotient", spy)
    assert _monic(ugcd(_ints(a), _ints(b))) == [gr(4), gr(1)] == _euclid_gcd(a, b)
    assert tried[0] == [(-1, 0), (1, 0)]  # the first candidate, rejected
    assert [(4, 0), (1, 0)] in tried


def _gi_times(a, b):
    out = [(0, 0)] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            w = gi_mul(u, v)
            out[i + j] = (out[i + j][0] + w[0], out[i + j][1] + w[1])
    return out


def test_gi_divides_exact_multiples_and_non_integral_quotients():
    h = [(1, -1), (0, 3), (2, 1)]  # (2 + i) x^2 + 3i x + (1 - i): a leading coefficient that is not a unit
    q = [(0, 1), (-2, 0), (1, 3)]
    assert _gi_quotient(h, _gi_times(h, q)) == q
    assert _gi_quotient(h, h) == [(1, 0)] and _gi_quotient([(5, 0)], [(10, -15), (0, 5)]) == [(2, -3), (0, 1)]
    off = _gi_times(h, q)
    off[0] = (off[0][0], off[0][1] + 1)
    assert _gi_quotient(h, off) is None  # a nonzero remainder
    # over Q(i) 2x divides x and 2x + 2 divides x + 1, but the quotient 1/2 is not in Z[i]
    assert _gi_quotient([(0, 0), (2, 0)], [(0, 0), (1, 0)]) is None
    assert _gi_quotient([(2, 0), (2, 0)], [(1, 0), (1, 0)]) is None
    assert _gi_quotient([(1, 0), (2, 0)], [(0, 0), (1, 0)]) is None  # x = (2x + 1)/2 - 1/2
    # 2x^2 + 2x + 1 = (2x + 1)(x + 1/2) + 1/2: the second quotient coefficient is not in Z[i]
    assert _gi_quotient([(1, 0), (2, 0)], [(1, 0), (2, 0), (2, 0)]) is None
    assert _gi_quotient([(1, 0), (1, 1)], [(1, 0), (0, 0), (1, 0)]) is None  # 1/(1 + i) is not in Z[i]
    assert _gi_quotient(h, [(1, 0), (1, 0)]) is None  # a lower degree


def test_gi_divides_agrees_with_division_over_q_i():
    rnd = random.Random(17)
    divisible = 0
    for _ in range(150):
        lead = _random_gaussian(rnd) or gr(3)
        h = _gi_primitive(_ints([_random_gaussian(rnd, span=6, den=4) for _ in range(rnd.randint(1, 3))] + [lead]))
        other = [_random_gaussian(rnd, span=6, den=4) or gr(1) for _ in range(rnd.randint(1, 3))]
        a = _times([from_gint(u) for u in h], other) if rnd.random() < 0.5 else other + [gr(1)]
        quotient, rem = udivmod(a, [from_gint(u) for u in h])
        ia = _gi_primitive(_ints(a))
        got = _gi_quotient(h, ia)
        assert (got is not None) == (not rem)
        if got is not None:
            # the Z[i] quotient of the scaled a is the Q(i) quotient times a's scale
            scale = from_gint(ia[-1]) / a[-1]
            assert [from_gint(u) for u in got] == [c * scale for c in quotient]
        divisible += not rem
    assert divisible >= 40


def test_ugcd_is_unchanged_under_python_O():
    # the division check is an `if`, which -O keeps; an `assert` would vanish and
    # let the first pair's rejected candidate x - 1 through
    x_plus_4 = [gr(4), gr(1)]
    pairs = [(_times(x_plus_4, [gr(2), gr(1)]), _times(x_plus_4, [gr(3), gr(1)]))]
    pairs += itertools.islice(_gcd_pairs(8), 12)
    script = (
        "import itertools, sys\n"
        "from foltools import uniroots\n"
        "from foltools.gaussian import from_gint\n"
        "print(sys.flags.optimize)\n"
        "pairs = " + repr([[_ints(p) for p in pair] for pair in pairs]) + "\n"
        "uniroots._gcd_primes = lambda: itertools.chain([(5, 2), (13, 8)], uniroots._split_primes(2**62))\n"
        "for a, b in pairs:\n"
        "    g = [from_gint(u) for u in uniroots.ugcd(a, b)]\n"
        "    print([(str(c.re), str(c.im)) for c in (c / g[-1] for c in g)])  # made monic\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    expected = [str([(str(c.re), str(c.im)) for c in _euclid_gcd(a, b)]) for a, b in pairs]
    assert proc.stdout.splitlines() == ["1"] + expected


# -- integer Sturm chains against the Fraction chain ---------------------------------


def _fraction_sturm_chain(c):
    """c, c' and the negated remainders over Q: the classical chain the integer one replaced."""
    chain = [c, uderiv(c)]
    while len(chain[-1]) > 1:
        r = udivmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append([-x for x in r])
    return chain


def _sign(v):
    return (v > 0) - (v < 0)


def test_integer_sturm_chain_signs_match_the_fraction_chain():
    rnd = random.Random(23)
    flips = {0: 0, 1: 0}  # steps with lc(b) < 0, by the parity of delta
    points = [Fraction(n, d) for n in range(-9, 10) for d in (1, 2, 7)]
    for _ in range(300):
        deg = rnd.randint(1, 8)
        c = [rnd.choice([0, 0, rnd.randint(-6, 6)]) for _ in range(deg)] + [rnd.choice([-3, -2, -1, 1, 2])]
        if rnd.random() < 0.3:  # a repeated factor
            c = utrim([sum(c[i] * c[k - i] for i in range(len(c)) if 0 <= k - i < len(c)) for k in range(2 * len(c) - 1)])
        ref = _fraction_sturm_chain([Fraction(v) for v in c])
        chain = _int_sturm_chain(c)
        assert [len(p) for p in chain] == [len(p) for p in ref]
        for p in chain:
            assert all(isinstance(v, int) for v in p)
        for a, b in zip(ref, ref[1:]):
            if b[-1] < 0 and len(b) > 1:
                flips[(len(a) - len(b)) % 2] += 1
        for p, q in zip(chain, ref):
            assert _sign(p[-1]) == _sign(q[-1])
            assert all(_sign(ueval(p, t)) == _sign(ueval(q, t)) for t in points)
    assert flips[0] >= 20 and flips[1] >= 20
