import random
from collections import Counter

import pytest

from conftest import random_poly
from foltools import polyring
from foltools.errors import ArityMismatch
from foltools.gaussian import gr
from foltools.polyring import (
    MINUS_INFINITY,
    MultiPoly,
    _coeffs_in,
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
    assert _coprimality_fast_path(A, B, 1)
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
    assert not _coprimality_fast_path(c * (y - const2(1)), c * (y + const2(1)), 1)
    planted = 0
    for _ in range(60):
        c = random_poly(rng, max_degree=2, nonzero=True)
        if c.degree_in(1) < 1:
            continue
        a = random_poly(rng, max_degree=2, nonzero=True) * c
        b = random_poly(rng, max_degree=2, nonzero=True) * c
        pa, pb = _primitive_part(a, 1), _primitive_part(b, 1)
        assert not _coprimality_fast_path(pa, pb, 1)
        planted += 1
    assert planted > 20


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
