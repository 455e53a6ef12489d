import random
from collections import Counter

import pytest

from conftest import random_poly
from foltools.errors import ArityMismatch
from foltools.gaussian import gr
from foltools.polyring import (
    MINUS_INFINITY,
    MultiPoly,
    _coprimality_fast_path,
    _primitive_part,
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
        if _coprimality_fast_path(pa, pb, 1):
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


def test_evaluate_and_shift():
    f = x**2 + y**2 - const2(1)
    assert f.evaluate((gr(1), gr(0))).is_zero()
    shifted = f.shift((gr(1), gr(0)))
    assert shifted.evaluate((gr(0), gr(0))).is_zero()
    assert shifted == parse_poly("x^2 + 2*x + y^2", 2)


def test_print_canonical():
    circle = x**2 + y**2 - const2(1)
    assert print_poly(circle) == "x^2 + y^2 - 1"
    assert print_poly(MultiPoly.zero(2)) == "0"
