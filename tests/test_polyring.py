import itertools
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import random_poly
import foltools
from foltools import polyring
from foltools.errors import ArityMismatch
from foltools.gaussian import ZERO, GaussianRational, from_gint, gr
from foltools.polyring import (
    MINUS_INFINITY,
    MultiPoly,
    _coeffs_in,
    _coprime_images,
    _gi_det,
    _int_det,
    _interpolate,
    _primitive_part,
    _pseudo_rem,
    _specialize_keeping,
    _subresultant_gcd,
    affine_vars,
    const2,
    dehomogenize,
    exact_divide,
    homogenize,
    is_squarefree,
    leading_form,
    poly_gcd,
    projective_vars,
    resultant,
)
from foltools.textio import parse_poly, print_poly
from foltools.uniroots import utrim

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


def test_specialisation_certificate_implies_trivial_gcd(rng):
    coprime = undecided = 0
    for _ in range(100):
        c = random_poly(rng, max_degree=2, nonzero=True) if rng.random() < 0.5 else MultiPoly.constant(2, 1)
        a = random_poly(rng, max_degree=2, nonzero=True) * c
        b = random_poly(rng, max_degree=2, nonzero=True) * c
        if a.degree_in(1) < 1 or b.degree_in(1) < 1:
            continue
        pa, pb = _primitive_part(a, 1), _primitive_part(b, 1)
        if _coprime_images(pa, pb, [1]):
            coprime += 1
            assert _subresultant_gcd(pa, pb, 1).is_constant()
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
        # a binary form needs no content: each slice removes a variable, down to `ugcd`
        def no_content(*args):
            raise AssertionError("_content called on binary forms")

        monkeypatch.setattr(polyring, "_content", no_content)
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
    assert not _coprime_images(a, b, (0, 1))
    assert poly_gcd(a, b) == x


def test_coprime_images_never_certify_a_planted_factor(rng):
    planted = 0
    for k in range(90):
        c = random_poly(rng, max_degree=2, nonzero=True)
        if k % 3:  # a factor in one variable only
            c = c.substitute({0: x, 1: const2(rng.randint(-2, 2))} if k % 3 == 1 else {0: const2(rng.randint(-2, 2)), 1: y})
        if c.is_constant():
            continue
        a = random_poly(rng, max_degree=2, nonzero=True) * c
        b = random_poly(rng, max_degree=2, nonzero=True) * c
        assert not _coprime_images(a, b, (0, 1))
        for v in (0, 1):
            if c.degree_in(v) > 0:
                assert not _coprime_images(a, b, [v])
        planted += 1
    assert planted > 40


def test_coprime_pairs_with_nonconstant_contents_never_take_a_content(monkeypatch):
    a = (x + const2(1)) * (y + x)
    b = (x + const2(2)) * (y - x)
    assert not polyring._content(a, 1).is_constant() and not polyring._content(b, 1).is_constant()

    def no_content(*args):
        raise AssertionError("_content called on a certified coprime pair")

    monkeypatch.setattr(polyring, "_content", no_content)
    assert _coprime_images(a, b, (0, 1))
    assert poly_gcd(a, b) == const2(1)


def test_euler_identity_homogeneous(rng):
    for _ in range(100):
        f = random_poly(rng, arity=2, max_degree=4, nonzero=True)
        n = int(f.degree)
        F = homogenize(f, n)
        lhs = X * F.partial(0) + Y * F.partial(1) + Z * F.partial(2)
        assert lhs == F.scale(gr(n))


def test_resultant_eliminates():
    circle = x**2 + y**2 - const2(1)
    hyper = x * y - const2(1)
    r = resultant(circle, hyper, 1)
    assert r.degree_in(1) == 0
    assert r == parse_poly("x^4 - x^2 + 1", 2)
    line1 = x + y - const2(2)
    line2 = x - y
    r2 = resultant(line1, line2, 1)
    # common zero at (1,1): eliminant vanishes at x=1
    assert r2.evaluate((gr(1), gr(0))).is_zero()


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
            for e, c in _coeffs_in(p, var).items():
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


@pytest.mark.parametrize("arity,var", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
def test_resultant_matches_sylvester_bareiss(arity, var):
    rnd = random.Random(31 + 7 * arity + var)
    checked = 0
    while checked < (25 if arity == 2 else 8):
        a = random_poly(rnd, arity=arity, max_degree=3, nonzero=True)
        b = random_poly(rnd, arity=arity, max_degree=3 if arity == 2 else 2, nonzero=True)
        if a.degree_in(var) < 1 or b.degree_in(var) < 1:
            continue
        assert resultant(a, b, var) == _sylvester_bareiss(a, b, var)
        checked += 1


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


def test_gi_det_matches_fraction_elimination():
    rnd = random.Random(20261018)
    swapped = singular = 0
    for trial in range(300):
        n = 1 + trial % 7
        zero_prob = (0.0, 0.3, 0.6)[trial % 3]
        m = [[(0, 0) if rnd.random() < zero_prob else (rnd.randint(-40, 40), rnd.randint(-40, 40)) for _ in range(n)] for _ in range(n)]
        if trial % 5 == 0 and n > 2:  # row 1 starts as (2 + i) * row 0: a zero leading 2x2 minor
            m[1] = [(2 * re - im, re + 2 * im) for re, im in m[0][:2]] + m[1][2:]
        expected = _fraction_det(m)
        swapped += _needs_row_swap(m)
        singular += expected == (0, 0)
        assert _gi_det([row[:] for row in m]) == expected, m
    assert swapped > 30 and singular > 5


def test_gi_det_pivoting_cases():
    # a zero (1,1) entry, a zero leading 2x2 minor, a zero column, and an
    # anti-diagonal, where every pivot is swapped in
    cases = [
        [[(0, 0), (1, 2)], [(3, -1), (5, 0)]],
        [[(1, 1), (2, 0), (0, 3)], [(2, 2), (4, 0), (1, 0)], [(0, 1), (7, -2), (1, 1)]],
        [[(1, 0), (0, 0), (2, 0)], [(3, 1), (0, 0), (4, 0)], [(5, 0), (0, 0), (6, 1)]],
        [[(0, 0), (0, 0), (0, 0), (1, 0)], [(0, 0), (0, 0), (0, 2), (0, 0)], [(0, 0), (3, 0), (0, 0), (0, 0)], [(1, 1), (0, 0), (0, 0), (0, 0)]],
    ]
    for m in cases:
        assert _needs_row_swap(m)
        assert _gi_det([row[:] for row in m]) == _fraction_det(m)
    # (1 4)(2 3) is even: det = 1 * 2i * 3 * (1 + i) = -6 + 6i
    assert _gi_det([row[:] for row in cases[3]]) == (-6, 6)
    assert _gi_det([row[:] for row in cases[2]]) == (0, 0)


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
    env = dict(os.environ, PYTHONPATH=str(Path(foltools.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["1", "-6", "Bareiss divisibility must hold"]


def test_exact_division_checks_survive_python_O():
    # the Bareiss, Newton-difference, deflation and squarefree-quotient checks
    # are `if`s, which -O keeps; a matrix entry outside Z[i], values of no
    # integer polynomial, a deflation by a non-root and a gcd that does not
    # divide must raise
    script = (
        "import sys\n"
        "from fractions import Fraction\n"
        "from foltools.polyring import _gi_det, _interpolate\n"
        "from foltools import uniroots\n"
        "print(sys.flags.optimize)\n"
        "print(_gi_det([[(0, 0), (1, 2)], [(3, -1), (5, 0)]]), _interpolate([1, 3, 7]))\n"
        "def deflate_by_a_non_root():\n"
        "    uniroots._gi_vanishes = lambda ints, p, q: True  # take a lifted candidate as a root of x^3 + 2\n"
        "    return uniroots.qi_roots([(2, 0), (0, 0), (0, 0), (1, 0)])\n"
        "def squarefree_by_a_non_divisor():\n"
        "    uniroots.ugcd = lambda a, b: [(2, 0), (1, 0)]  # x + 2 does not divide x^2 - 1\n"
        "    return uniroots.usquarefree([(-1, 0), (0, 0), (1, 0)])\n"
        "for call in (\n"
        "    lambda: _gi_det([[(1, 0), (0, 0)], [(0, 0), (Fraction(1, 2), 0)]]),\n"
        "    lambda: _interpolate([0, 0, 1]),\n"
        "    deflate_by_a_non_root,\n"
        "    squarefree_by_a_non_divisor,\n"
        "):\n"
        "    try:\n"
        "        print(call())\n"
        "    except ArithmeticError as exc:\n"
        "        print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(foltools.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "1",
        "(-5, -5) [1, 1, 1]",  # -(1 + 2i)(3 - i)
        "Bareiss divisibility must hold",
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
            assert resultant(p, q, var) == _sylvester_bareiss(p, q, var)
    P = X * (X - Z) * (X - Z.scale(gr(2))) * Y + Z.scale(gr("1/2", "1/3"))
    Q = Y**2 - (X * Z).scale(gr(0, "5/7"))
    for var in range(3):
        assert resultant(P, Q, var) == _sylvester_bareiss(P, Q, var)


@pytest.mark.parametrize("arity", [2, 3])
def test_resultant_takes_the_integer_determinant_exactly_for_real_inputs(arity, monkeypatch):
    used = Counter()
    for name in ("_int_det", "_gi_det"):
        monkeypatch.setattr(polyring, name, lambda m, det=getattr(polyring, name), name=name: used.update([name]) or det(m))
    rnd = random.Random(4100 + arity)
    lc = x * (x - const2(2)) if arity == 2 else X * (X - Z.scale(gr(2)))  # zero at grid points 0 and 2
    branches = Counter()
    for complex_prob in (0.0, 0.5):
        checked = 0
        while checked < (16 if arity == 2 else 6):
            a = random_poly(rnd, arity=arity, max_degree=3, complex_prob=complex_prob, nonzero=True)
            b = random_poly(rnd, arity=arity, max_degree=3 if arity == 2 else 2, complex_prob=complex_prob, nonzero=True)
            var = rnd.randrange(arity)
            v = MultiPoly.variable(arity, var)
            if checked % 2:  # a leading coefficient that vanishes at grid points
                a = lc * v ** (a.degree_in(var) + 1) + a
            if a.degree_in(var) < 1 or b.degree_in(var) < 1 or lc.degree_in(var):
                continue
            real = a.has_real_coefficients() and b.has_real_coefficients()
            used.clear()
            assert resultant(a, b, var) == _sylvester_bareiss(a, b, var)
            assert set(used) == {"_int_det" if real else "_gi_det"}
            branches[real] += 1
            checked += 1
    assert branches[True] >= 6 and branches[False] >= 3


def test_resultant_shortcuts_for_degree_zero():
    a = (x**2).scale(gr("1/2", 1)) - const2(3)  # free of y
    b = y**3 + x * y - const2(gr(0, "2/3"))
    assert resultant(a, b, 1) == a**3 == _sylvester_bareiss(a, b, 1)
    assert resultant(b, a, 1) == a**3 == _sylvester_bareiss(b, a, 1)
    assert resultant(a, const2(gr(0, 2)), 1) == MultiPoly.constant(2, 1)
    with pytest.raises(ValueError):
        resultant(MultiPoly.zero(2), b, 1)


def test_resultant_rejects_a_variable_out_of_range():
    for var in (5, 2, -1):
        with pytest.raises(ValueError):
            resultant(x + y, x - y, var)
    with pytest.raises(ValueError):
        resultant(X + Y, X - Z, 3)


def test_resultant_takes_no_multipoly_determinant():
    assert not hasattr(polyring, "_bareiss_det")


def test_fast_path_certifies_pairs_that_share_a_root_at_x_zero(monkeypatch):
    # at x = 0, A = y and B = y + y^2 share the root 0; at x = 1 they are coprime
    A = y + x
    B = y - x.scale(gr(2)) + y**2
    assert _coprime_images(A, B, [1])
    calls = []
    subresultant = polyring._subresultant_gcd

    def counting(*args):
        calls.append(args)
        return subresultant(*args)

    monkeypatch.setattr(polyring, "_subresultant_gcd", counting)
    assert poly_gcd(A, B) == const2(1)
    assert not calls


def test_fast_path_never_certifies_a_common_factor(rng):
    # x*y + 1 specialises to the constant 1 at x = 0, where the leading coefficients vanish
    c = x * y + const2(1)
    assert not _coprime_images(c * (y - const2(1)), c * (y + const2(1)), [1])
    planted = 0
    for _ in range(60):
        c = random_poly(rng, max_degree=2, nonzero=True)
        if c.degree_in(1) < 1:
            continue
        a = random_poly(rng, max_degree=2, nonzero=True) * c
        b = random_poly(rng, max_degree=2, nonzero=True) * c
        pa, pb = _primitive_part(a, 1), _primitive_part(b, 1)
        assert not _coprime_images(pa, pb, [1])
        planted += 1
    assert planted > 20


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
        assert shifted == f.substitute(subs)


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
            results[f"coeffs_in{var}"] = (
                {k: dict(p.terms) for k, p in _coeffs_in(a, var).items()},
                {k: {e[:var] + (0,) + e[var + 1 :]: v for e, v in ta.items() if e[var] == k} for k in {e[var] for e in ta}},
            )
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
        substituted = a.substitute(subs)
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
        if a.degree_in(1) >= b.degree_in(1) >= 1:
            r = _pseudo_rem(a, b, 1)
            _assert_canonical(r)
            assert r.degree_in(1) < b.degree_in(1)
            lead = _coeffs_in(b, 1)[b.degree_in(1)]
            assert exact_divide(a * lead ** (a.degree_in(1) - b.degree_in(1) + 1) - r, b) is not None
        c = _mixed_coeff(rng)
        assert a.scale(c).scale(c.inverse()) == a
        assert hash((a + b) - b) == hash(a)
