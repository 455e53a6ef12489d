import itertools
import math
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest

from conftest import affine_vars, const2, projective_vars, random_coeff, random_poly, src_env, substitute
from foltools import polyring
from foltools.errors import ArityMismatch
from foltools.gaussian import ZERO, GaussianRational, from_gint, gr
from foltools.polyring import (
    MINUS_INFINITY,
    MultiPoly,
    _int_det,
    _interpolate,
    _monic,
    _specialize_keeping,
    dehomogenize,
    exact_divide,
    homogenize,
    is_squarefree,
    leading_form,
    poly_gcd,
    resultant,
)
from foltools.textio import parse_poly, print_poly
from foltools.uniroots import gi_mul, ugcd, utrim
from subresultant import coeffs_in, content, prs_gcd, primitive_part, subresultant_gcd

x, y = affine_vars()
X, Y, Z = projective_vars()


def test_add_examples():
    assert (x + y) + (x - y) == x.scale(gr(2))
    p = random_poly(random.Random(1), nonzero=True)
    assert p + MultiPoly.zero(2) == p
    assert (x**2) + (-(x**2)) == MultiPoly.zero(2)
    assert ((x**2) + (-(x**2))).terms == {}


def test_mul_examples():
    assert (x - y) * (x + y) == x**2 - y**2
    i = MultiPoly.constant(2, gr(0, 1))
    assert i * i == const2(-1)
    assert (x + y) * MultiPoly.zero(2) == MultiPoly.zero(2)


def test_degree_sentinel():
    assert MultiPoly.zero(2).degree == MINUS_INFINITY
    assert MINUS_INFINITY < 0
    assert (x * y).degree == 2
    assert ((x - y) * (x + y) - x**2 + y**2).degree == MINUS_INFINITY


def test_degree_in_every_variable(rng):
    assert [MultiPoly.zero(a).degree_in(v) for a in (2, 3) for v in range(a)] == [-1] * 5
    for _ in range(200):
        p = random_poly(rng, arity=rng.choice((2, 3)), max_degree=5, max_terms=5)
        for v in range(p.arity):
            assert p.degree_in(v) == max((e[v] for e in p.num), default=-1)
    assert (x**3 * y + y**2).degree_in(1) == 2


def test_arity_mismatch():
    with pytest.raises(ArityMismatch):
        _ = x + X


def test_partial_examples():
    circle = x**2 + y**2 - const2(1)
    assert circle.partial(0) == x.scale(gr(2))
    assert (X * Y * Z).partial(2) == X * Y
    assert const2(5).partial(1) == MultiPoly.zero(2)


def test_homogenize_examples():
    f = x**2 + y - const2(1)
    assert homogenize(f, 2) == X**2 + Y * Z - Z**2
    assert homogenize(-y, 1) == -Y
    f3 = parse_poly("x*y*(y - x - 1)", 2)
    assert homogenize(f3, 3) == parse_poly("X*Y*(Y - X - Z)", 3)
    with pytest.raises(ValueError):
        homogenize(f3, 2)


def test_dehomogenize_examples():
    assert dehomogenize(parse_poly("X*Y*(Y - X - Z)", 3)) == parse_poly("x*y*(y - x - 1)", 2)
    assert dehomogenize(Z**4) == const2(1)


def test_homogenize_roundtrip_random(rng):
    for _ in range(200):
        f = random_poly(rng, arity=2, max_degree=4, nonzero=True)
        assert dehomogenize(homogenize(f, int(f.degree))) == f


def test_exact_divide_examples():
    assert exact_divide(x**2 - y**2, x - y) == x + y
    assert exact_divide(x**2 + const2(1), x - y) is None
    assert exact_divide(MultiPoly.zero(2), x - y) == MultiPoly.zero(2)
    with pytest.raises(ZeroDivisionError):
        exact_divide(x, MultiPoly.zero(2))


def test_exact_divide_random(rng):
    for _ in range(200):
        a = random_poly(rng, max_degree=3, nonzero=True)
        b = random_poly(rng, max_degree=3, nonzero=True)
        assert exact_divide(a * b, b) == a


def test_squarefree_and_leading_form():
    assert not is_squarefree((x - y) ** 2)
    circle = x**2 + y**2 - const2(1)
    assert is_squarefree(circle)
    assert leading_form(circle) == x**2 + y**2
    f = parse_poly("x*y*(y - x - 1)", 2)
    assert is_squarefree(f)
    assert leading_form(f) == parse_poly("x*y*(y - x)", 2)
    assert not is_squarefree(f * f)
    with pytest.raises(ValueError):
        is_squarefree(MultiPoly.zero(2))


def test_gcd_basics(rng):
    g = poly_gcd((x - y) * (x + y) ** 2, (x + y) * (x**2 + y**2))
    assert g == x + y
    assert poly_gcd(MultiPoly.zero(2), x + y) == x + y
    # a common factor free of y, with one input free of y
    thin, thick = (x**2 + const2(1)) * (x - const2(2)), (x**2 + const2(1)) * (x * y + const2(3))
    assert poly_gcd(thin, thick) == poly_gcd(thick, thin) == x**2 + const2(1)
    for _ in range(60):
        a = random_poly(rng, max_degree=2, nonzero=True)
        b = random_poly(rng, max_degree=2, nonzero=True)
        c = random_poly(rng, max_degree=2, nonzero=True)
        g = poly_gcd(a * c, b * c)
        assert exact_divide(g, poly_gcd(g, c)) is not None  # c divides the gcd up to units
        assert exact_divide(a * c, g) is not None and exact_divide(b * c, g) is not None


def _linear_product(v, roots):
    out = MultiPoly.constant(v.arity, 1)
    for r in roots:
        out = out * (v - MultiPoly.constant(v.arity, r))
    return out


@pytest.mark.parametrize("v", [x, y, Z], ids=["x", "y", "Z-in-arity-3"])
def test_univariate_gcd_is_the_planted_common_product(v):
    rnd = random.Random(23)
    pool = [gr(1), gr(-2), gr(0, 1), gr(1, -1), gr("1/2", 3)]
    for _ in range(25):
        ra = Counter(rnd.choices(pool, k=rnd.randint(1, 5)))
        rb = Counter(rnd.choices(pool, k=rnd.randint(1, 5)))
        a = _linear_product(v, ra.elements()) * gr(rnd.randint(1, 4), rnd.randint(-2, 2))
        b = _linear_product(v, rb.elements()) * gr(rnd.randint(-4, -1), rnd.randint(-2, 2))
        assert poly_gcd(a, b) == _linear_product(v, (ra & rb).elements())


def _first_image_is_coprime(a: MultiPoly, b: MultiPoly) -> bool:
    """Whether `ugcd`(a(t, y), b(t, y)) is constant at the least t = 0, 1, ... where
    neither leading coefficient in y vanishes: `_evaluation_gcd`'s first image."""
    for t in itertools.count():
        at, bt = (polyring._specialize(p, 1, [(t, 0), (0, 0)], 1)[1] for p in (a, b))
        if at[-1] != (0, 0) and bt[-1] != (0, 0):
            return len(ugcd(at, bt)) == 1


def test_specialisation_certificate_implies_trivial_gcd(rng):
    coprime = undecided = 0
    for _ in range(100):
        c = random_poly(rng, max_degree=2, nonzero=True) if rng.random() < 0.5 else MultiPoly.constant(2, 1)
        a = random_poly(rng, max_degree=2, nonzero=True) * c
        b = random_poly(rng, max_degree=2, nonzero=True) * c
        if a.degree_in(1) < 1 or b.degree_in(1) < 1:
            continue
        pa, pb = primitive_part(a, 1), primitive_part(b, 1)
        if _first_image_is_coprime(pa, pb):
            coprime += 1
            assert subresultant_gcd(pa, pb, 1).is_constant()
            assert poly_gcd(pa, pb) == const2(1)
        else:
            undecided += 1
    assert coprime > 10 and undecided > 10


def test_gcd_homogeneous_fast_path():
    F = (X + Y) * (X**2 + Y * Z)
    G = (X + Y) * (X - Z) * Z
    g = poly_gcd(F, G)
    assert exact_divide(g, poly_gcd(g, X + Y)) is not None
    assert g.degree == 1


def _product(arity, factors) -> MultiPoly:
    out = MultiPoly.constant(arity, 1)
    for f in factors:
        out = out * f
    return out


# monic linear forms (graded-lex leading coefficient 1): products of them are monic
_BINARY_2 = [x, y, x + y.scale(gr(2)), x - y.scale(gr(0, 1)), x + y.scale(gr("1/2")), x + y.scale(gr(1, 1))]
_BINARY_3 = [X, Y, X + Y.scale(gr(2)), X - Y.scale(gr(0, 1)), X + Y.scale(gr("1/2")), X + Y.scale(gr(1, 1))]
_TERNARY = [X, Y, Z, X + Z, Y - Z.scale(gr(2)), X + Y + Z.scale(gr(0, 1)), X - Y.scale(gr("1/2")) + Z, Y + Z.scale(gr(3))]


@pytest.mark.parametrize(
    "pool, binary", [(_BINARY_2, True), (_BINARY_3, True), (_TERNARY, False)], ids=["binary-xy", "binary-XY-no-Z", "ternary"]
)
def test_homogeneous_gcd_is_the_planted_product_of_linear_forms(pool, binary, monkeypatch):
    if binary:
        # a binary form needs no bivariate gcd: each slice removes a variable, down to `ugcd`
        def no_evaluation_gcd(*args):
            raise AssertionError("_evaluation_gcd called on binary forms")

        monkeypatch.setattr(polyring, "_evaluation_gcd", no_evaluation_gcd)
    rnd = random.Random(29)
    weights = [3 if len(f.num) == 1 else 1 for f in pool]  # the variables alone: X^k, Y^k and Z^k factors
    for _ in range(30):
        ra = Counter(rnd.choices(range(len(pool)), weights, k=rnd.randint(1, 6)))
        rb = Counter(rnd.choices(range(len(pool)), weights, k=rnd.randint(1, 6)))
        n = pool[0].arity
        a = _product(n, (pool[i] for i in ra.elements())).scale(gr(rnd.randint(1, 4), rnd.randint(-2, 2)))
        b = _product(n, (pool[i] for i in rb.elements())).scale(gr(rnd.randint(-4, -1), rnd.randint(-2, 2)))
        expected = _product(n, (pool[i] for i in (ra & rb).elements()))
        assert poly_gcd(a, b) == expected == poly_gcd(b, a)


def test_homogeneous_gcd_strips_powers_of_the_sliced_variable():
    assert poly_gcd(x**3 * y * (x + y), x * y**4 * (x - y)) == x * y
    assert poly_gcd(y**2, y**5 * (x + y)) == y**2
    assert poly_gcd(X * Z**3 * (Y + Z), Z**2 * (Y + Z) * (X - Y)) == Z**2 * (Y + Z)
    assert poly_gcd(Z**2, X**2 + Y**2) == MultiPoly.constant(3, 1)


def test_coprime_images_miss_a_common_factor_of_the_contents():
    a, b = x * (y + const2(1)), x * (y - const2(1))
    assert _first_image_is_coprime(a, b)
    assert poly_gcd(a, b) == x


def test_coprime_images_never_certify_a_planted_factor(rng):
    # x*y + 1 specialises to the constant 1 at x = 0, where the leading coefficients vanish
    c = x * y + const2(1)
    assert poly_gcd(c * (y - const2(1)), c * (y + const2(1))) == _monic(c)
    planted = 0
    for k in range(90):
        c = random_poly(rng, max_degree=2, nonzero=True)
        if k % 3:  # a factor in one variable only
            c = substitute(c, {0: x, 1: const2(rng.randint(-2, 2))} if k % 3 == 1 else {0: const2(rng.randint(-2, 2)), 1: y})
        if c.is_constant():
            continue
        a = random_poly(rng, max_degree=2, nonzero=True) * c
        b = random_poly(rng, max_degree=2, nonzero=True) * c
        g = poly_gcd(a, b)
        assert exact_divide(g, c) is not None and exact_divide(a, g) is not None and exact_divide(b, g) is not None
        if c.degree_in(1) > 0:
            assert not _first_image_is_coprime(a, b)
        planted += 1
    assert planted > 40


def test_coprime_pairs_with_nonconstant_contents_never_take_a_content(monkeypatch):
    a = (x + const2(1)) * (y + x)
    b = (x + const2(2)) * (y - x)
    assert not content(a, 1).is_constant() and not content(b, 1).is_constant()
    reads, rows = [], polyring._rows

    def counting_rows(*args):
        reads.append(args)
        return rows(*args)

    monkeypatch.setattr(polyring, "_rows", counting_rows)
    # the leading coefficients x + 1 and x + 2 are coprime, so gcd(ca, cb), which divides theirs, is 1
    assert poly_gcd(a, b) == const2(1) and not reads
    # the leading coefficients share x, so the contents are read; they are coprime
    assert poly_gcd(x * y + const2(1), x * y + const2(2)) == const2(1) and reads


def _in_one_variable(rng, v, degree):
    """A polynomial in v alone of exactly the given degree, coefficients from `random_coeff`."""
    out = MultiPoly.zero(v.arity)
    for k in range(degree + 1):
        c = random_coeff(rng, complex_prob=0.4)
        out = out + (v**k).scale(c if c or k < degree else gr(1))
    return out


def _planted_pair(rng, kind):
    """Affine a = ca * c * u, b = cb * c * v with a nonconstant common factor c of the given kind."""
    u = random_poly(rng, max_degree=2, complex_prob=0.4, nonzero=True)
    v = random_poly(rng, max_degree=2, complex_prob=0.4, nonzero=True)
    c = random_poly(rng, max_degree=2, complex_prob=0.4, nonzero=True)
    ca = cb = const2(1)
    if kind == "free-of-y":
        c = _in_one_variable(rng, x, rng.randint(1, 2))
    elif kind == "free-of-x":
        c = _in_one_variable(rng, y, rng.randint(1, 2))
    elif kind == "contents":  # contents in x with a common part
        common = _in_one_variable(rng, x, 1)
        ca, cb = common * _in_one_variable(rng, x, rng.randint(0, 1)), common * _in_one_variable(rng, x, rng.randint(0, 1))
    elif kind == "lc-zero-at-0":  # x divides the leading coefficient in y
        c = x * y ** (c.degree_in(1) + 1) + c
    elif kind == "spurious-at-0":  # at x = 0 the cofactors share the factor y, and their leading coefficients are 1
        r = rng.randint(1, 3)
        u = (y + x.scale(gr(r))) * (y**2 + random_poly(rng, max_degree=1))
        v = (y - x.scale(gr(r, 1))) * (y**2 + random_poly(rng, max_degree=1))
    return ca * c * u, cb * c * v, c


@pytest.mark.parametrize("kind", ["generic", "free-of-y", "free-of-x", "contents", "lc-zero-at-0", "spurious-at-0"])
def test_evaluation_gcd_matches_the_subresultant_prs(kind):
    rnd = random.Random(f"planted-{kind}")
    checked = bivariate = 0
    for _ in range(55):
        a, b, c = _planted_pair(rnd, kind)
        if c.is_constant():
            continue
        checked += 1
        g = poly_gcd(a, b)
        assert g == prs_gcd(a, b) == poly_gcd(b, a)
        assert exact_divide(g, _monic(c)) is not None
        bivariate += g.degree_in(0) > 0 and g.degree_in(1) > 0
    assert checked >= 50  # over 300 pairs across the six kinds
    assert kind in ("free-of-y", "free-of-x") or bivariate > 10


def test_evaluation_gcd_outlives_a_full_set_of_unlucky_images():
    # the cofactors y^2 + x*y - 2x and y^2 + 3y - 4x share the root y = 0 at
    # x = 0 and y = 1 at x = 1, and those are the two images the degree bound
    # asks for: their interpolant (y + 5)(y - x) divides neither input, so
    # only images of lower degree are taken from then on
    c = y + const2(5)
    a, b = c * (y**2 + x * y - x.scale(gr(2))), c * (y**2 + y.scale(gr(3)) - x.scale(gr(4)))
    for t in (0, 1):
        images = (_specialize_keeping(p, 1, [gr(t), ZERO]) for p in (a, b))
        assert len(ugcd(*images)) == 3
    assert poly_gcd(a, b) == c == prs_gcd(a, b)


def test_evaluation_gcd_finds_the_circle_in_degree_14_products():
    # dense integer cofactors of total degree 12 times the circle
    rnd = random.Random(14)
    circle = x**2 + y**2 - const2(1)
    a, b = (
        _product(2, [MultiPoly(2, {(i, j): gr(rnd.randint(-9, 9)) for i in range(13) for j in range(13 - i)}), circle])
        for _ in range(2)
    )
    start = time.perf_counter()
    assert poly_gcd(a, b) == circle
    assert time.perf_counter() - start < 1.0


def test_gcd_of_arity_3_polynomials_takes_forms_only():
    with pytest.raises(ValueError):
        poly_gcd(X * Y + Z, X - Y)
    with pytest.raises(ValueError):
        poly_gcd(X**2 + Y * Z, X - MultiPoly.constant(3, 1))
    assert poly_gcd(Z + MultiPoly.constant(3, 1), Z**2 - MultiPoly.constant(3, 1)) == Z + MultiPoly.constant(3, 1)


def test_euler_identity_homogeneous(rng):
    for _ in range(100):
        f = random_poly(rng, arity=2, max_degree=4, nonzero=True)
        n = int(f.degree)
        F = homogenize(f, n)
        lhs = X * F.partial(0) + Y * F.partial(1) + Z * F.partial(2)
        assert lhs == F.scale(gr(n))


def _assert_positive_multiple(got, want):
    """got = c * want for a positive rational c (Z[i] numerator lists, low to high)."""
    assert len(got) == len(want)
    if not want:
        return  # a zero resultant is the empty list
    k = next(j for j, u in enumerate(want) if u != (0, 0))
    ratio = gi_mul(got[k], (want[k][0], -want[k][1]))  # got[k] / want[k] times |want[k]|^2
    assert ratio[1] == 0 and ratio[0] > 0
    assert all(gi_mul(g, want[k]) == gi_mul(w, got[k]) for g, w in zip(got, want))


def _oracle_list(a, b, var):
    """The Sylvester-Bareiss resultant as the numerator list of a polynomial in the other variable."""
    return _specialize_keeping(_sylvester_bareiss(a, b, var), 1 - var, [ZERO, ZERO])


def test_resultant_eliminates():
    circle = x**2 + y**2 - const2(1)
    hyper = x * y - const2(1)
    r = resultant(circle, hyper, 1)
    _assert_positive_multiple(r, [(1, 0), (0, 0), (-1, 0), (0, 0), (1, 0)])  # x^4 - x^2 + 1
    _assert_positive_multiple(r, _oracle_list(circle, hyper, 1))
    line1 = x + y - const2(2)
    line2 = x - y
    r2 = resultant(line1, line2, 1)
    # common zero at (1,1): eliminant vanishes at x=1
    assert (sum(re for re, _ in r2), sum(im for _, im in r2)) == (0, 0)
    _assert_positive_multiple(r2, _oracle_list(line1, line2, 1))


def _sylvester_bareiss(a, b, var):
    """Reference resultant: Bareiss on the Sylvester matrix with MultiPoly entries."""
    da, db = a.degree_in(var), b.degree_in(var)
    n = da + db
    if n == 0:
        return MultiPoly.constant(a.arity, 1)
    zero = MultiPoly.zero(a.arity)
    m = []
    for p, dp, count in ((a, da, db), (b, db, da)):
        for i in range(count):
            row = [zero] * n
            for e, c in coeffs_in(p, var).items():
                row[i + dp - e] = c
            m.append(row)
    sign, prev = 1, MultiPoly.constant(a.arity, 1)
    for k in range(n - 1):
        if m[k][k].is_zero():
            pivot = next((r for r in range(k + 1, n) if not m[r][k].is_zero()), None)
            if pivot is None:
                return zero
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = exact_divide(m[i][j] * m[k][k] - m[i][k] * m[k][j], prev)
            m[i][k] = zero
        prev = m[k][k]
    return m[n - 1][n - 1] if sign > 0 else -m[n - 1][n - 1]


def _numerators(p):
    """p times its denominator: the polynomial whose coefficients are p's Z[i] numerators."""
    return MultiPoly._of(p.arity, 1, dict(p.num))


def _shaped(rng, deg, var, lc, complex_):
    """c_0 + c_1 v + ... + lc v^deg in v = the variable `var`, integer c_k
    (Gaussian when complex_); only lc depends on the other variable."""
    v = x if var == 0 else y

    def c():
        return const2(gr(rng.randint(-3, 3), rng.randint(-3, 3) if complex_ else 0))

    return sum((c() * v**k for k in range(deg)), lc * v**deg)


@pytest.mark.parametrize("arity,var", [(2, 0), (2, 1)])
def test_resultant_matches_sylvester_bareiss(arity, var):
    # the list is the Sylvester determinant of the numerators itself, not a multiple of it
    rnd = random.Random(31 + 7 * arity + var)
    checked = 0
    while checked < 25:
        a = random_poly(rnd, arity=arity, max_degree=3, nonzero=True)
        b = random_poly(rnd, arity=arity, max_degree=3, nonzero=True)
        if a.degree_in(var) < 1 or b.degree_in(var) < 1:
            continue
        assert resultant(a, b, var) == _oracle_list(_numerators(a), _numerators(b), var)
        checked += 1
    # every formal-degree pair 1 <= db <= da <= 8 in one of the two variables, in
    # both orders, so the Bezout sign law (-1)^(n(n-1)/2) and the swap sign
    # (-1)^(mn) are both exercised; a's leading coefficient vanishes at the grid
    # points t = 0 and 2, and so does b's when 3 divides db
    w = y if var == 0 else x
    vanishing = w * (w - const2(2))
    kinds = Counter()
    for da, db in itertools.combinations_with_replacement(range(1, 9), 2):
        da, db = db, da
        if (da + db) % 2 != var:
            continue
        complex_ = da % 2 == 0
        a = _shaped(rnd, da, var, vanishing, complex_)
        b = _shaped(rnd, db, var, vanishing if db % 3 == 0 else const2(2), complex_)
        assert (a.degree_in(var), b.degree_in(var), a.has_real_coefficients()) == (da, db, not complex_)
        assert resultant(a, b, var) == _oracle_list(a, b, var), (da, db)
        if da != db:  # equal degrees are not reordered
            assert resultant(b, a, var) == _oracle_list(b, a, var), (db, da)
        kinds[complex_] += 1
    assert kinds[True] >= 6 and kinds[False] >= 6


def _fraction_det(m):
    """Reference determinant: Gaussian elimination over Q(i) on (Fraction, Fraction) pairs."""
    m = [[(Fraction(re), Fraction(im)) for re, im in row] for row in m]
    n, det = len(m), (Fraction(1), Fraction(0))
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k] != (0, 0)), None)
        if pivot is None:
            return (0, 0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = (-det[0], -det[1])
        (pr, pi), norm = m[k][k], m[k][k][0] ** 2 + m[k][k][1] ** 2
        det = (det[0] * pr - det[1] * pi, det[0] * pi + det[1] * pr)
        for i in range(k + 1, n):
            fr, fi = m[i][k]
            fr, fi = (fr * pr + fi * pi) / norm, (fi * pr - fr * pi) / norm  # m[i][k] / m[k][k]
            for j in range(k, n):
                ar, ai = m[k][j]
                m[i][j] = (m[i][j][0] - (fr * ar - fi * ai), m[i][j][1] - (fr * ai + fi * ar))
    assert det[0].denominator == det[1].denominator == 1
    return (int(det[0]), int(det[1]))


def _needs_row_swap(m):
    """Bareiss swaps rows exactly when a leading principal minor of order < n vanishes."""
    return any(_fraction_det([row[:k] for row in m[:k]]) == (0, 0) for k in range(1, len(m)))


def test_int_det_matches_fraction_elimination():
    rnd = random.Random(20261019)
    swapped = singular = 0
    for trial in range(320):
        n = 1 + trial % 8
        zero_prob = (0.0, 0.3, 0.6)[trial % 3]
        m = [[0 if rnd.random() < zero_prob else rnd.randint(-60, 60) for _ in range(n)] for _ in range(n)]
        if trial % 5 == 0 and n > 2:  # row 1 starts as -3 * row 0: a zero leading 2x2 minor
            m[1] = [-3 * v for v in m[0][:2]] + m[1][2:]
        if trial % 7 == 0 and n > 1:  # a repeated row: singular
            m[n - 1] = list(m[0])
        pairs = [[(v, 0) for v in row] for row in m]
        expected = _fraction_det(pairs)
        swapped += _needs_row_swap(pairs)
        singular += expected == (0, 0)
        assert (_int_det([row[:] for row in m]), 0) == expected, m
    assert swapped > 30 and singular > 30


def test_int_det_pivoting_cases():
    # a zero column, and an anti-diagonal, where every pivot is swapped in
    cases = [
        [[1, 0, 2], [3, 0, 4], [5, 0, 6]],
        [[0, 0, 0, 1], [0, 0, 2, 0], [0, 3, 0, 0], [4, 0, 0, 0]],
    ]
    for m in cases:
        assert _needs_row_swap([[(v, 0) for v in row] for row in m])
    assert _int_det([row[:] for row in cases[0]]) == 0
    # (1 4)(2 3) is even: det = 1 * 2 * 3 * 4
    assert _int_det([row[:] for row in cases[1]]) == 24


def test_int_det_check_survives_python_O():
    # the integer Bareiss quotient is checked by an `if`, which -O keeps
    script = (
        "import sys\n"
        "from fractions import Fraction\n"
        "from foltools.polyring import _int_det\n"
        "print(sys.flags.optimize)\n"
        "print(_int_det([[0, 2], [3, 5]]))\n"
        "try:\n"
        "    print(_int_det([[1, 0], [0, Fraction(1, 2)]]))\n"
        "except ArithmeticError as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["1", "-6", "Bareiss divisibility must hold"]


def test_exact_division_checks_survive_python_O():
    # the Newton-difference, deflation and squarefree-quotient checks are
    # `if`s, which -O keeps; values of no integer polynomial, a deflation by
    # a non-root and a gcd that does not divide must raise (the Bareiss check
    # is `test_int_det_check_survives_python_O`)
    script = (
        "import sys\n"
        "from foltools.polyring import _interpolate\n"
        "from foltools import uniroots\n"
        "print(sys.flags.optimize)\n"
        "print(_interpolate([1, 3, 7]))\n"
        "def deflate_by_a_non_root():\n"
        "    uniroots._gi_vanishes = lambda ints, p, q: True  # take a lifted candidate as a root of x^3 + 2\n"
        "    return uniroots.qi_roots([(2, 0), (0, 0), (0, 0), (1, 0)])\n"
        "def squarefree_by_a_non_divisor():\n"
        "    uniroots.ugcd = lambda a, b: [(2, 0), (1, 0)]  # x + 2 does not divide x^2 - 1\n"
        "    return uniroots.usquarefree([(-1, 0), (0, 0), (1, 0)])\n"
        "for call in (\n"
        "    lambda: _interpolate([0, 0, 1]),\n"
        "    deflate_by_a_non_root,\n"
        "    squarefree_by_a_non_divisor,\n"
        "):\n"
        "    try:\n"
        "        print(call())\n"
        "    except ArithmeticError as exc:\n"
        "        print(exc)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "1",
        "[1, 1, 1]",
        "Newton differences must divide exactly",
        "deflation by a non-root",
        "the gcd must divide exactly",
    ]


def test_resultant_gaussian_denominators_and_vanishing_leading_coefficients():
    lc = x * (x - const2(1)) * (x - const2(2))  # zero at the first three interpolation points
    a = lc * y**2 + const2(gr("1/3", "2/5")) * y - x.scale(gr("1/7"))
    b = (x - const2(1)) * (x - const2(3)) * y.scale(gr(0, "3/4")) + (x**2).scale(gr("5/6", -1))
    c = (y**3).scale(gr("2/9")) + lc * y - const2(gr(0, "1/11"))
    for p, q in ((a, b), (b, a), (a, c), (c, b)):
        for var in (0, 1):
            _assert_positive_multiple(resultant(p, q, var), _oracle_list(p, q, var))


def test_resultant_takes_the_integer_determinant_for_every_input(monkeypatch):
    assert [name for name in vars(polyring) if name.endswith("_det")] == ["_int_det"]
    used = Counter()
    monkeypatch.setattr(polyring, "_int_det", lambda m, det=polyring._int_det: used.update(["_int_det"]) or det(m))
    rnd = random.Random(4102)
    lc = x * (x - const2(2))  # zero at interpolation points 0 and 2
    kinds = Counter()
    for complex_prob in (0.0, 0.5):
        checked = 0
        while checked < 16:
            a = random_poly(rnd, max_degree=3, complex_prob=complex_prob, nonzero=True)
            b = random_poly(rnd, max_degree=3, complex_prob=complex_prob, nonzero=True)
            var = rnd.randrange(2)
            v = MultiPoly.variable(2, var)
            if checked % 2:  # a leading coefficient that vanishes at grid points
                a = lc * v ** (a.degree_in(var) + 1) + a
            if a.degree_in(var) < 1 or b.degree_in(var) < 1 or lc.degree_in(var):
                continue
            used.clear()
            _assert_positive_multiple(resultant(a, b, var), _oracle_list(a, b, var))
            assert set(used) == {"_int_det"}
            kinds[a.has_real_coefficients() and b.has_real_coefficients()] += 1
            checked += 1
    assert kinds[True] >= 6 and kinds[False] >= 6


def _sylvester_numbers(a, b):
    """The Sylvester matrix of two univariate Z[i] coefficient lists, highest coefficient first."""
    n = len(a) + len(b) - 2
    return [[(0, 0)] * k + a + [(0, 0)] * (n - k - len(a)) for k in range(len(b) - 1)] + [
        [(0, 0)] * k + b + [(0, 0)] * (n - k - len(b)) for k in range(len(a) - 1)
    ]


def _in_y(coeffs):
    """The polynomial in y with the Z[i] coefficients `coeffs`, highest first."""
    return sum((const2(gr(re, im)) * y**k for k, (re, im) in enumerate(reversed(coeffs))), MultiPoly.zero(2))


def test_resultant_of_large_gaussian_inputs_matches_the_fraction_oracle():
    # Z[i] parts up to about 10^30 go through the integers as re + N*im and
    # come back from their residues mod N^2 + 1.  The pairs p*y + q, r*y + s
    # with s = u*conj(p) and r = -u*conj(q), u a unit, have the resultant
    # u*(|p|^2 + |q|^2), a part within a factor 4 of the bound B; with p a
    # power of 2 and q = 1 that part exceeds 2^(bit_length(B) - 1), so a
    # modulus one bit smaller than N reads it back wrongly.
    rnd = random.Random(20261022)
    big = 10**30

    def gint():
        return (rnd.randint(-big, big), rnd.randint(-big, big))

    def conj_times(u, z):
        return gi_mul(u, (z[0], -z[1]))

    pairs = []
    for u in ((1, 0), (0, 1), (-1, 0), (0, -1)):
        for p, q in [((1 << 100, 0), (1, 0)), ((0, 1 << 99), (1, 0))] + [(gint(), gint()) for _ in range(6)]:
            s, r = conj_times(u, p), conj_times((-u[0], -u[1]), q)
            pairs.append(([p, q], [r, s]))
    for _ in range(40):
        da, db = rnd.randint(1, 4), rnd.randint(1, 4)
        pairs.append(([gint() for _ in range(da + 1)], [gint() for _ in range(db + 1)]))
    for ca, cb in pairs:
        want = _fraction_det(_sylvester_numbers(ca, cb))
        assert resultant(_in_y(ca), _in_y(cb), 1) == utrim([want]), (ca, cb)
    # and in both variables, against the Sylvester determinant with polynomial entries
    for _ in range(30):
        a, b = (MultiPoly._of(2, 1, {(i, j): gint() for i in range(3) for j in range(3 - i) if rnd.random() < 0.7}) for _ in range(2))
        var = rnd.randrange(2)
        if a.degree_in(var) < 1 or b.degree_in(var) < 1:
            continue
        assert resultant(a, b, var) == _oracle_list(a, b, var)


def test_resultant_shortcuts_for_degree_zero():
    a = (x**2).scale(gr("1/2", 1)) - const2(3)  # free of y
    b = y**3 + x * y - const2(gr(0, "2/3"))
    cube = _specialize_keeping(a**3, 0, [ZERO, ZERO])
    for p, q in ((a, b), (b, a)):
        _assert_positive_multiple(resultant(p, q, 1), cube)
        _assert_positive_multiple(resultant(p, q, 1), _oracle_list(p, q, 1))
    assert resultant(a, const2(gr(0, 2)), 1) == [(1, 0)]
    with pytest.raises(ValueError):
        resultant(MultiPoly.zero(2), b, 1)


def test_resultant_rejects_a_variable_out_of_range():
    for var in (5, 2, -1):
        with pytest.raises(ValueError):
            resultant(x + y, x - y, var)
    with pytest.raises(ValueError):
        resultant(X + Y, X - Z, 3)


def test_resultant_takes_affine_polynomials_only():
    with pytest.raises(ValueError):
        resultant(X + Y, X - Z, 0)
    with pytest.raises(ValueError):
        resultant(x + y, X - Z, 1)


def test_resultant_takes_no_multipoly_determinant():
    assert not hasattr(polyring, "_bareiss_det")


def test_pairs_that_share_a_root_at_x_zero_have_gcd_one():
    # at x = 0, A = y and B = y + y^2 share the root 0; at x = 1 they are coprime
    A = y + x
    B = y - x.scale(gr(2)) + y**2
    assert not _first_image_is_coprime(A, B)
    assert poly_gcd(A, B) == const2(1) == poly_gcd(B, A)


def test_evaluate_and_shift():
    f = x**2 + y**2 - const2(1)
    assert f.evaluate((gr(1), gr(0))).is_zero()
    shifted = f.shift((gr(1), gr(0)))
    assert shifted.evaluate((gr(0), gr(0))).is_zero()
    assert shifted == parse_poly("x^2 + 2*x + y^2", 2)


@pytest.mark.parametrize("arity", [2, 3])
def test_shift_matches_substitution(arity):
    rnd = random.Random(515 + arity)
    for _ in range(150):
        f = random_poly(rnd, arity=arity, max_degree=5, max_terms=7, complex_prob=0.4)
        point = [_mixed_coeff(rnd) if rnd.random() < 0.8 else ZERO for _ in range(arity)]
        subs = {v: MultiPoly.variable(arity, v) + MultiPoly.constant(arity, point[v]) for v in range(arity)}
        shifted = f.shift(point)
        _assert_canonical(shifted)
        assert shifted == substitute(f, subs)


def test_parsed_text_rebuilds_the_polynomial():
    # long sums over several denominators exercise the parser's running denominator
    rnd = random.Random(616)
    for _ in range(300):
        arity = rnd.choice((2, 3))
        p = MultiPoly.zero(arity)
        for _k in range(rnd.randint(1, 4)):
            p = p + random_poly(rnd, arity=arity, max_degree=6, max_terms=8, complex_prob=0.3).scale(gr(rnd.randint(1, 10**12), rnd.randint(0, 3)))
        assert parse_poly(print_poly(p), arity) == p


def test_print_canonical():
    circle = x**2 + y**2 - const2(1)
    assert print_poly(circle) == "x^2 + y^2 - 1"
    assert print_poly(MultiPoly.zero(2)) == "0"


# -- the integer store against GaussianRational arithmetic on the `terms` views --


def _ref_sum(*maps):
    out = {}
    for m in maps:
        for e, c in m.items():
            out[e] = out.get(e, ZERO) + c
    return {e: c for e, c in out.items() if c}


def _ref_mul(a, b):
    out = {}
    for (ea, ca), (eb, cb) in itertools.product(a.items(), b.items()):
        e = tuple(i + j for i, j in zip(ea, eb))
        out[e] = out.get(e, ZERO) + ca * cb
    return {e: c for e, c in out.items() if c}


def _ref_eval(terms, point):
    total = ZERO
    for exp, c in terms.items():
        for v, e in zip(point, exp):
            c = c * v**e
        total = total + c
    return total


def _assert_canonical(p):
    assert p.den > 0
    assert math.gcd(p.den, *itertools.chain.from_iterable(p.num.values())) == 1
    assert (0, 0) not in p.num.values()
    assert dict(p.terms) == {e: GaussianRational(Fraction(re, p.den), Fraction(im, p.den)) for e, (re, im) in p.num.items()}


def _mixed_poly(rng, arity=2, max_degree=3):
    """Random coefficients with denominators up to 4 and imaginary parts half the time."""
    return random_poly(rng, arity, max_degree=max_degree, max_terms=5, complex_prob=0.5)


def _mixed_coeff(rng):
    c = gr(Fraction(rng.randint(-9, 9), rng.randint(1, 6)), Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
    return c if c else gr(1)


def test_integer_store_matches_gaussian_rational_arithmetic():
    rng = random.Random(7321)
    for _ in range(120):
        arity = rng.choice((2, 3))
        a, b = _mixed_poly(rng, arity), _mixed_poly(rng, arity)
        ta, tb = dict(a.terms), dict(b.terms)
        c = _mixed_coeff(rng)
        neg = {e: -v for e, v in tb.items()}
        results = {
            "add": (a + b, _ref_sum(ta, tb)),
            "sub": (a - b, _ref_sum(ta, neg)),
            "neg": (-b, neg),
            "mul": (a * b, _ref_mul(ta, tb)),
            "scale": (a.scale(c), {e: v * c for e, v in ta.items()}),
            "pow": (a**3, _ref_mul(_ref_mul(ta, ta), ta)),
            "homogeneous_part": (a.homogeneous_part(2), {e: v for e, v in ta.items() if sum(e) == 2}),
        }
        for var in range(arity):
            results[f"partial{var}"] = (a.partial(var), {e[:var] + (e[var] - 1,) + e[var + 1 :]: v * e[var] for e, v in ta.items() if e[var]})
        if arity == 2:
            n = int(max(a.degree, 0)) + rng.randint(0, 2)
            results["homogenize"] = (homogenize(a, n), {(i, j, n - i - j): v for (i, j), v in ta.items()})
        else:
            var = rng.randint(0, 2)
            results["dehomogenize"] = (dehomogenize(a, var), _ref_sum(*({e[:var] + e[var + 1 :]: v} for e, v in ta.items())))
        for name, (got, want) in results.items():
            if isinstance(got, MultiPoly):
                _assert_canonical(got)
                got = dict(got.terms)
            assert got == want, name
        point = [_mixed_coeff(rng) for _ in range(arity)]
        assert a.evaluate(point) == _ref_eval(ta, point)
        for var in range(arity):
            want = [ZERO] * (a.degree_in(var) + 1)
            for e, v in ta.items():
                want[e[var]] += _ref_eval({e[:var] + (0,) + e[var + 1 :]: v}, point)
            # the numerators stand for the coefficients up to a positive scalar
            got, want = _specialize_keeping(a, var, point), utrim(want)
            assert len(got) == len(want)
            if want:
                scale = want[-1] / from_gint(got[-1])
                assert scale.is_real() and scale.re > 0
                assert [from_gint(u) * scale for u in got] == want
        assert a.shift(point).evaluate(point) == _ref_eval(ta, [2 * v for v in point])
        subs = {v: _mixed_poly(rng, 2, 2) for v in range(arity)}
        substituted = substitute(a, subs)
        _assert_canonical(substituted)
        at = [_mixed_coeff(rng), _mixed_coeff(rng)]
        assert substituted.evaluate(at) == _ref_eval(ta, [s.evaluate(at) for s in subs.values()])


def test_integer_store_division_and_remainders():
    rng = random.Random(9043)
    for _ in range(80):
        a = _mixed_poly(rng)
        b = _mixed_poly(rng) or const2(gr(2, 1))
        product = a * b
        q = exact_divide(product, b)
        _assert_canonical(q)
        assert q == a and hash(q) == hash(a)  # equal values built by different routes
        assert dict((q * b).terms) == _ref_mul(dict(q.terms), dict(b.terms))
        if not b.is_constant():
            assert exact_divide(product + const2(_mixed_coeff(rng)), b) is None
        c = _mixed_coeff(rng)
        assert a.scale(c).scale(c.inverse()) == a
        assert hash((a + b) - b) == hash(a)
