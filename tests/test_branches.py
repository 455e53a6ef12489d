import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from conftest import (
    affine_vars,
    const2,
    projective_vars,
    random_coeff,
    random_poly,
    series_coefficient,
    series_coeffs,
    series_scale,
    substitute,
)
from foltools import branches
from foltools.branches import (
    Branch,
    _branches_at_chart_point,
    _resolved_multiplicity,
    _solve_series,
    branch_multiplicity,
    corollary2_check,
    default_truncation,
    euler_identity_check,
    genus_and_chi,
    infinity_branch_data,
    local_branches,
    singular_points_on_curve,
)
from foltools.construct import LogarithmicSpec, gallery, logarithmic_form
from foltools.errors import DegenerateInput, FolError, PreconditionError, UncertifiedResult, UnsupportedBranch
from foltools.fields import AffineVectorField, deprojectivize
from foltools.gaussian import ZERO, gr
from foltools.polyring import MultiPoly, dehomogenize, exact_divide, homogenize
from foltools.series import PowerSeries, compose_poly
from foltools.singularities import (
    ProjectivePoint,
    _order_and_node,
    affine_singularities,
    infinite_singularities,
    is_nodal,
)
from foltools.textio import parse_poly

x, y = affine_vars()
circle = x**2 + y**2 - const2(1)
rotation = AffineVectorField.make(-y, x)


def test_circle_branch_series():
    (br,) = local_branches(circle, ProjectivePoint.affine(1, 0), truncation=8)
    # the transversal coordinate is y: phi = (psi(t), t)
    assert series_coeffs(br.phi2)[1] == gr(1)
    assert series_coefficient(br.phi1, 0) == gr(1)
    assert series_coefficient(br.phi1, 2) == gr("-1/2")
    assert series_coefficient(br.phi1, 4) == gr("-1/8")
    assert compose_poly(circle, br.phi1, br.phi2).is_zero_to_truncation()


def test_node_branches():
    f = y**2 - x**2
    branches = local_branches(f, ProjectivePoint.affine(0, 0), truncation=6)
    slopes = sorted(str(series_coefficient(b.phi2, 1)) for b in branches)
    assert slopes == ["-1", "1"]
    for b in branches:
        assert compose_poly(f, b.phi1, b.phi2).is_zero_to_truncation()


def test_branch_residual_always_vanishes(rng):
    # graph curves y = p(x) through translated points
    for _ in range(50):
        raw = random_poly(rng, max_degree=3, complex_prob=0.2)
        p = MultiPoly(2, {(a, 0): c for (a, b), c in raw.terms.items()})
        f = y - p
        x0 = gr(rng.randint(-2, 2))
        y0 = p.evaluate((x0, gr(0)))
        branches = local_branches(f, ProjectivePoint.affine(x0, y0), truncation=7)
        assert len(branches) == 1
        br = branches[0]
        assert compose_poly(f, br.phi1, br.phi2).is_zero_to_truncation()


def test_unsupported_branches():
    with pytest.raises(UnsupportedBranch):
        local_branches(y**2 - x**3, ProjectivePoint.affine(0, 0), 8)  # cusp
    with pytest.raises(UnsupportedBranch) as exc:
        # tangents y = +-sqrt(2) x are outside Q(i)
        local_branches(y**2 - (x**2).scale(gr(2)) + x**3, ProjectivePoint.affine(0, 0), 8)
    assert "Q(i)" in str(exc.value)
    # complex tangents inside Q(i) are fine: y^2 + x^2 factors (y-ix)(y+ix)
    branches = local_branches(y**2 + x**2 + x**3, ProjectivePoint.affine(0, 0), 8)
    assert len(branches) == 2


def test_multiplicity_at_regular_point_is_zero():
    (br,) = local_branches(circle, ProjectivePoint.affine(1, 0), truncation=8)
    mu, certified = branch_multiplicity(rotation, br)
    assert mu == 0 and certified


def test_multiplicity_requires_invariance():
    f = y - x**2
    (br,) = local_branches(f, ProjectivePoint.affine(0, 0), truncation=8)
    with pytest.raises(PreconditionError):
        branch_multiplicity(rotation, br)


def _vertical_tangent_family(n, k):
    """(n y^(n+k-1) + x - y^n, y^k), under which x - y^n is invariant with
    cofactor 1.  Its branch (t^n, t) at the origin has a vertical tangent,
    so R is A1 divided by n t^(n-1), of order v = n - 1, and mu = k."""
    return AffineVectorField.make(const2(n) * y ** (n + k - 1) + x - y**n, y**k), x - y**n


# (field, curve, mu at the origin): (x^k, y) pulls the branch (t, 0) of y back to t^k
ORIGIN_MULTIPLICITIES = [(AffineVectorField.make(x**k, y), y, k) for k in (3, 5, 20)] + [
    (*_vertical_tangent_family(n, k), k) for n, k in [(3, 4), (5, 7)]
]


@pytest.mark.parametrize("field, f, mu", ORIGIN_MULTIPLICITIES)
def test_multiplicity_is_one_expansion_at_the_default_truncation(field, f, mu, monkeypatch):
    truncations = []
    expand = branches._branches_at
    monkeypatch.setattr(branches, "_branches_at", lambda g, pt, N: truncations.append(N) or expand(g, pt, N))
    ((got, br),) = _resolved_multiplicity(field, f, ProjectivePoint.affine(0, 0))
    want = default_truncation(field.m, int(f.degree))
    assert (got, br.truncation, truncations) == (mu, want, [want])


@pytest.mark.parametrize(
    "field, f, mu, v",
    [(AffineVectorField.make(x**20, y), y, 20, 0)] + [(*_vertical_tangent_family(n, k), k, n - 1) for n, k in [(3, 4), (5, 7)]],
)
def test_the_truncation_lemma_certifies_every_branch(field, f, mu, v):
    # mu <= n(m + 1) and v <= n - 1, so N = n(m + 2) certifies mu; R is known
    # through t^(N-1-v), so the least certifying N is mu + v + 1
    def at(N):
        (br,) = local_branches(f, ProjectivePoint.affine(0, 0), N)
        return branch_multiplicity(field, br)

    n = int(f.degree)
    lemma = n * (field.m + 2)
    assert mu + v + 1 <= lemma <= default_truncation(field.m, n) // 2
    assert at(lemma) == at(mu + v + 1) == (mu, True)
    assert at(mu + v) == (None, False)


def test_euler_identity_reference_foliations():
    # (sum mu, n, m) and mu at each singular point on the invariant line x = 0
    expected = {
        "example1": (2, 1, 1, {"(0 : 1 : 0)": 1, "(0 : 0 : 1)": 1}),
        "example2": (3, 1, 2, {"(0 : 1 : 0)": 2, "(0 : 0 : 1)": 1}),
        "example3": (4, 1, 3, {"(0 : 1 : 0)": 2, "(0 : 0 : 1)": 2}),
    }
    for name, (smu, n, m, mus) in expected.items():
        entry = gallery(name)
        rep = euler_identity_check(entry.form, entry.curve, 2)
        assert rep.checkable and rep.identity_holds
        assert (rep.sum_mu, rep.curve_degree, rep.foliation_degree) == (smu, n, m)
        assert {row["point"]: row["mu"] for row in rep.multiplicities} == mus


def test_euler_identity_rejects_wrong_chi():
    entry = gallery("example1")
    rep = euler_identity_check(entry.form, entry.curve, 3)
    assert rep.checkable and not rep.identity_holds


def test_euler_identity_needs_invariance():
    with pytest.raises(PreconditionError):
        euler_identity_check(rotation, x, 2)


def test_euler_identity_honest_on_unresolvable_points():
    # the prescribed-oval circle system has genuine foliation singularities at
    # (2, +-i*sqrt(3)) on the complexified circle: outside Q(i), so the
    # report must refuse rather than drop them
    from foltools.construct import eee_system

    g = circle
    field, _ = eee_system(g, x - const2(2), gr(1), gr(1))
    rep = euler_identity_check(field, g, 2)
    assert not rep.checkable and rep.notes
    # degree-4 version: the divisor search budget caps out but the pipeline
    # still degrades to a clean "not checkable" instead of failing
    quartic = gallery("quartic-4-ovals").curve
    fq, _ = eee_system(quartic, x - const2(2), gr(1), gr(1))
    rq = euler_identity_check(fq, quartic, -4)
    assert not rq.checkable and rq.notes


def test_euler_identity_checkable_log_configuration():
    # circle plus two rational secants: every singularity on each curve is a
    # rational transversal crossing, so all three identities are checkable
    from foltools.construct import LogarithmicSpec, logarithmic_form
    from foltools.fields import deprojectivize
    from foltools.polyring import homogenize

    l1 = x - const2("3/5")
    l2 = y
    curves = [homogenize(c, int(c.degree)) for c in (circle, l1, l2)]
    spec = LogarithmicSpec.make(curves, [gr(1), gr(-1), gr(-1)])
    field = deprojectivize(logarithmic_form(spec))
    rep = euler_identity_check(field, circle, 2)
    assert rep.checkable and rep.identity_holds and rep.sum_mu == 4
    for line in (l1, l2):
        rep = euler_identity_check(field, line, 2)
        assert rep.checkable and rep.identity_holds and rep.sum_mu == 3


def test_infinity_branch_data_circle():
    for t in (gr(0, 1), gr(0, -1)):
        pt = ProjectivePoint.make(gr(1), t, gr(0))
        l, mu = infinity_branch_data(rotation, circle, pt)
        assert (l, mu) == (0, 1)


def test_infinity_branch_data_preconditions():
    fld = AffineVectorField.make(x, -y, x + y)
    with pytest.raises(PreconditionError):
        infinity_branch_data(fld, circle, ProjectivePoint.make(gr(1), gr(0, 1), gr(0)))
    with pytest.raises(PreconditionError):
        infinity_branch_data(rotation, circle, ProjectivePoint.affine(1, 0))
    # not invariant: linear field with a parabola
    lin = AffineVectorField.make(x, y.scale(gr(2)))
    with pytest.raises(PreconditionError):
        infinity_branch_data(lin, y - x**2, ProjectivePoint.make(gr(0), gr(1), gr(0)))


def test_genus_and_chi_cases():
    genus, chi = genus_and_chi(circle, [2], [0])
    assert genus == [0] and chi == 2
    cubic = parse_poly("x^2*y + x*y^2 - 1", 2)
    genus, chi = genus_and_chi(cubic, [3], [0])
    assert genus == [1] and chi == 0
    nodal = gallery("nodal-cubic").curve
    genus, chi = genus_and_chi(nodal, [3], [1])
    assert genus == [0] and chi == 2
    with pytest.raises(PreconditionError):
        genus_and_chi(y**2 - x**3, [3], [1])  # cusp is not nodal
    with pytest.raises(PreconditionError):
        genus_and_chi(circle, [2], [3])  # negative genus
    with pytest.raises(PreconditionError):
        genus_and_chi(circle, [3], [0])  # degrees do not sum to deg f


def test_transversality_only_matters_for_is_nodal():
    # the parabola's closure is smooth but tangent to Z = 0 at (0 : 1 : 0)
    parabola = y - x**2
    assert is_nodal(parabola) is False
    assert is_nodal(parabola, include_infinity=False) is True
    assert genus_and_chi(parabola, [2], [0]) == ([0], 2)


def test_corollary2_values():
    for n, text, chi in ((1, "x + y - 1", 2), (2, "x^2 + 4*y^2 - 1", 2), (3, "x^2*y + x*y^2 - 1", 0)):
        ok, rep = corollary2_check(n, parse_poly(text, 2))
        assert ok and rep.chi_claimed == chi and rep.identity_holds
        assert all(row["mu"] == 1 for row in rep.multiplicities)


def test_corollary2_takes_every_mu_from_one_euler_report(monkeypatch):
    # the rows at infinity of the Euler report are the mu = 1 checks; no
    # point is expanded a second time through infinity_branch_data
    calls = dict.fromkeys(("euler_identity_check", "infinity_branch_data"), 0)
    for name in calls:

        def counting(*args, _name=name, _original=getattr(branches, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(branches, name, counting)
    ok, rep = corollary2_check(3, parse_poly("x^2*y + x*y^2 - 1", 2))
    assert ok and rep.sum_mu == 3
    assert calls == {"euler_identity_check": 1, "infinity_branch_data": 0}


def test_corollary2_rejects_bad_curves():
    with pytest.raises(PreconditionError):
        corollary2_check(3, gallery("nodal-cubic").curve)  # singular
    with pytest.raises(PreconditionError):
        corollary2_check(3, y - x**3)  # one triple point at infinity, not 3
    # a point on Z = 0 that the root search leaves uncertain is not "no point"
    f = parse_poly(f"(x + {10**21 + 7}*y)^2*(x + y)*(x + 2*y) + x^3 + 1", 2)
    with pytest.raises(UncertifiedResult):
        corollary2_check(4, f)


# -- one strict transform per tangent against the per-order solve it replaced --


def _oracle_solve_series(g, truncation, solve_var):
    """s(t), s(0) = 0, with g(t, s) = 0 (solve_var 1) or g(s, t) = 0 (solve_var 0)
    mod t^(N+1), one order at a time, recomposing g at every order."""
    gs0 = g.partial(solve_var).evaluate((ZERO, ZERO))
    if gs0.is_zero():
        raise PreconditionError("series solve requires a transversal derivative")
    inv = gs0.inverse()
    s = PowerSeries.constant(ZERO, truncation)
    t = PowerSeries.identity(truncation)
    for k in range(1, truncation + 1):
        residual = compose_poly(g, *((t, s) if solve_var == 1 else (s, t)))
        ek = series_coefficient(residual, k)
        if not ek.is_zero():
            s = s + PowerSeries.from_list([ZERO] * k + [-ek * inv], truncation)
    return s


def _oracle_node_branch(local, base, chart, u0, v0, slope, truncation, by_u):
    """The branch along one node tangent: substitute t*(slope + z), divide by t^2."""
    uu, vv = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    scaled = uu * (MultiPoly.constant(2, slope) + vv)
    reduced = exact_divide(substitute(local, {0: uu, 1: scaled} if by_u else {0: scaled, 1: uu}), uu * uu)
    z = _oracle_solve_series(reduced, truncation, solve_var=1)
    t = PowerSeries.identity(truncation)
    co = (series_scale(t, slope) + t * z).truncate(truncation)
    phi1, phi2 = (t, co) if by_u else (co, t)
    return Branch(base, chart, phi1.shift_constant(u0), phi2.shift_constant(v0), truncation)


def _oracle_branches(g, base, chart, u0, v0, truncation):
    """Branches at a chart point by the four routes of the earlier constructor."""
    order, node, local = _order_and_node(g, u0, v0)
    if order == 0:
        raise PreconditionError(f"{base} is not on the curve")
    t = PowerSeries.identity(truncation)
    if order == 1:
        if not local.coefficient((0, 1)).is_zero():
            s = _oracle_solve_series(local, truncation, solve_var=1)
            return [Branch(base, chart, t.shift_constant(u0), s.shift_constant(v0), truncation)]
        s = _oracle_solve_series(local, truncation, solve_var=0)
        return [Branch(base, chart, s.shift_constant(u0), t.shift_constant(v0), truncation)]
    if order != 2:
        raise UnsupportedBranch(f"point of order {order}; only smooth points and nodes supported")
    if not node:
        raise UnsupportedBranch("order-2 point with a repeated tangent (cusp-like)")
    a, b, c = (local.coefficient(e) for e in ((2, 0), (1, 1), (0, 2)))
    sq = (b * b - gr(4) * a * c).sqrt()
    if sq is None:
        raise UnsupportedBranch("node tangent directions lie outside Q(i)")
    args = (local, base, chart, u0, v0)
    if not c.is_zero():
        return [_oracle_node_branch(*args, s0, truncation, True) for s0 in ((-b + sq) / (gr(2) * c), (-b - sq) / (gr(2) * c))]
    return [_oracle_node_branch(*args, -a / b, truncation, True), _oracle_node_branch(*args, ZERO, truncation, False)]


_GERM_KINDS = (
    "smooth", "smooth-vertical", "node", "node-c0", "node-a0",
    "order-3", "cusp", "irrational-tangents",
)


def _germ(rng, kind):
    """A local equation at the origin of the given kind plus random terms of
    degree lowest + 1 and lowest + 2."""
    u, v = affine_vars()

    def coeff(nonzero=True):
        c = random_coeff(rng)
        return gr(rng.choice((1, -2, 3))) if nonzero and c.is_zero() else c

    def line(a, b):
        return u.scale(a) + v.scale(b)

    low = {
        "smooth": lambda: line(coeff(False), coeff()),
        "smooth-vertical": lambda: u.scale(coeff()),
        "node": lambda: line(coeff(), coeff()) * line(coeff(), coeff()),
        "node-c0": lambda: line(coeff(), coeff()) * u.scale(coeff()),
        "node-a0": lambda: line(coeff(), coeff()) * v.scale(coeff()),
        "order-3": lambda: line(coeff(), coeff()) ** 3 + u**2 * v,
        "cusp": lambda: line(coeff(), coeff()) ** 2,
        "irrational-tangents": lambda: v**2 - (u**2).scale(gr(rng.choice((2, 3, 5)))),
    }[kind]()
    order = int(low.degree)
    high = MultiPoly.zero(2)
    for _ in range(rng.randint(1, 3)):
        d = rng.randint(order + 1, order + 2)
        i = rng.randint(0, d)
        high = high + MultiPoly(2, {(i, d - i): coeff()})
    return low + high


def test_one_strict_transform_per_tangent_matches_the_earlier_routes():
    rng = random.Random(3030)
    raised = dict.fromkeys(_GERM_KINDS, 0)
    for n in range(660):  # 600 smooth points and nodes, then 60 germs that raise
        kind = _GERM_KINDS[n % 5] if n < 600 else _GERM_KINDS[5 + n % 3]
        local = _germ(rng, kind)
        u0, v0 = (gr(rng.randint(-3, 3), rng.randint(-2, 2) if rng.random() < 0.3 else 0) for _ in range(2))
        g = local.shift((-u0, -v0))
        base = ProjectivePoint.affine(u0, v0)
        truncation = rng.randint(1, 20 if n % 4 == 0 else 10)  # the reference composes N times at size N
        try:
            want = _oracle_branches(g, base, base.chart(), u0, v0, truncation)
        except UnsupportedBranch as exc:
            with pytest.raises(UnsupportedBranch) as got:
                _branches_at_chart_point(g, base, base.chart(), u0, v0, truncation)
            assert got.value.reason == exc.reason, (kind, n)
            raised[kind] += 1
            continue
        assert _branches_at_chart_point(g, base, base.chart(), u0, v0, truncation) == want, (kind, n)
    assert raised == dict.fromkeys(_GERM_KINDS[:5], 0) | dict.fromkeys(_GERM_KINDS[5:], 20)


# -- the integer series store against GaussianRational arithmetic on `coeffs` --


def _ref_mul(a, b):
    n = min(len(a), len(b))
    return [sum((a[i] * b[k - i] for i in range(k + 1)), ZERO) for k in range(n)]


def _ref_divide(a, b):
    v = next((k for k, c in enumerate(b) if c), None)
    if v is None or any(a[:v]):
        return None
    a, b = a[v:], b[v:]
    out = []
    for k in range(min(len(a), len(b))):
        out.append((a[k] - sum((out[j] * b[k - j] for j in range(k)), ZERO)) / b[0])
    return out or None


def _assert_canonical_series(s):
    assert s.den > 0
    assert math.gcd(s.den, *itertools.chain.from_iterable(s.num)) == 1
    assert series_coeffs(s) == tuple(gr(Fraction(re, s.den), Fraction(im, s.den)) for re, im in s.num)


def _mixed(rng):
    def part():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if rng.random() < 0.8 else Fraction(0)

    return gr(part(), part() if rng.random() < 0.5 else 0)


def _series(rng, order=0):
    n = rng.randint(order, 7)
    return PowerSeries.from_list([ZERO] * order + [_mixed(rng) for _ in range(n + 1 - order)], n)


def test_integer_series_store_matches_gaussian_rational_arithmetic():
    rng = random.Random(5150)
    for _ in range(150):
        a, b = _series(rng), _series(rng, rng.randint(0, 2))
        ca, cb = list(series_coeffs(a)), list(series_coeffs(b))
        n = min(len(ca), len(cb))
        c = _mixed(rng) or gr(3, -1)
        results = {
            "add": (a + b, [u + v for u, v in zip(ca, cb)]),
            "sub": (a - b, [u - v for u, v in zip(ca, cb)]),
            "neg": (-a, [-u for u in ca]),
            "mul": (a * b, _ref_mul(ca, cb)),
            "scale": (series_scale(a, c), [u * c for u in ca]),
            "truncate": (a.truncate(2), ca[:3]),
            "shift_constant": (a.shift_constant(c), [ca[0] + c] + ca[1:]),
            "derivative": (a.derivative(), [u * k for k, u in enumerate(ca) if k] or [ZERO]),
            "divide": (a.divide(b), _ref_divide(ca, cb)),
            "divide_shifted": ((a * b).divide(b), _ref_divide(_ref_mul(ca, cb), cb)),
        }
        for name, (got, want) in results.items():
            if want is None:
                assert got is None, name
                continue
            _assert_canonical_series(got)
            assert list(series_coeffs(got)) == want, name
            assert got.truncation == len(want) - 1, name
        assert (a + b).truncation == n - 1
        assert a.derivative().truncation == max(a.truncation - 1, 0)
        v = b.order()
        if v is not None and v <= a.truncation and not any(ca[:v]):
            assert a.divide(b).truncation == min(a.truncation, b.truncation) - v
        f = random_poly(rng, max_degree=3, max_terms=5, complex_prob=0.5)
        phi1, phi2 = _series(rng), _series(rng)
        m = min(phi1.truncation, phi2.truncation)
        want = [ZERO] * (m + 1)
        for (i, j), coeff in f.terms.items():
            term = [coeff] + [ZERO] * m
            for _ in range(i):
                term = _ref_mul(term, list(series_coeffs(phi1)))
            for _ in range(j):
                term = _ref_mul(term, list(series_coeffs(phi2)))
            want = [u + w for u, w in zip(want, term)]
        composed = compose_poly(f, phi1, phi2)
        _assert_canonical_series(composed)
        assert list(series_coeffs(composed)) == want
        # one value, two routes: equal and with one hash
        same = series_scale(series_scale(a, c), c.inverse())
        assert same == a and hash(same) == hash(a)
        assert PowerSeries.from_list(ca, a.truncation) == a


def test_a_series_is_canonical_when_it_is_built():
    # (2 + 4t + (2 + 6i)t^2) / 6 over a scaled denominator is the same series
    # as (1 + 2t + (1 + 3i)t^2) / 3: its numerators and its denominator are
    # divided by their gcd at construction, so the two are equal, with one hash
    scaled, reduced = PowerSeries([(2, 0), (4, 0), (2, 6)], 6), PowerSeries(((1, 0), (2, 0), (1, 3)), 3)
    assert (scaled.num, scaled.den) == (((1, 0), (2, 0), (1, 3)), 3)
    assert scaled == reduced and hash(scaled) == hash(reduced)
    assert scaled != PowerSeries([(1, 0), (2, 0), (1, 3)], 6) and scaled != PowerSeries([(1, 0), (2, 0)], 3)
    assert scaled != (scaled.num, scaled.den)


# -- line branches by one division, and compose_poly on integer lists --


def _newton_solve_series(h, w0, truncation):
    """The Newton loop `_solve_series` runs for every strict transform of degree
    2 or more in w, kept for the degree-1 case that one division now solves."""
    hw = h.partial(1)
    w = PowerSeries.constant(w0, 0)
    k = 1
    while k <= truncation:
        k = min(2 * k, truncation + 1)
        t = PowerSeries.identity(k - 1)
        w = PowerSeries(w.num + ((0, 0),) * (k - len(w.num)), w.den)
        w = w - compose_poly(h, t, w).divide(compose_poly(hw, t, w))
    return w


def _strict_transform(local, vertical):
    """h(u, w) = local(u, u w) / u at a smooth point, with u and w swapped when vertical."""
    return MultiPoly._of(2, local.den, {(i + j - 1, i if vertical else j): u for (i, j), u in local.num.items()})


def test_line_branches_by_one_division_match_the_newton_loop():
    rng = random.Random(6060)
    u, v = affine_vars()
    checked = 0
    for n in range(240):
        u0, v0 = (gr(rng.randint(-3, 3), rng.randint(-2, 2) if rng.random() < 0.3 else 0) for _ in range(2))
        if n % 2 == 0:  # a line through (u0, v0), some of them vertical
            a = random_coeff(rng) or gr(1)
            b = random_coeff(rng) if n % 6 else ZERO
            g = (u - const2(u0)).scale(a) + (v - const2(v0)).scale(b)
        else:  # a curve a(x) + b(x) y, linear in y, with b(u0) != 0
            a_x, b_x = (MultiPoly(2, {(i, 0): random_coeff(rng) for i in range(rng.randint(1, 5))}) for _ in range(2))
            if not b_x.evaluate((u0, v0)):
                continue
            g = a_x + b_x * v
            g = g - const2(g.evaluate((u0, v0)))  # through (u0, v0)
        local = g.shift((u0, v0))
        vertical = local.coefficient((0, 1)).is_zero()
        h = _strict_transform(local, vertical)
        assert h.degree_in(1) == 1
        w0 = -local.coefficient((0, 1) if vertical else (1, 0)) / local.coefficient((1, 0) if vertical else (0, 1))
        truncation = rng.randint(8, 32)
        got = _solve_series(h, w0, truncation)
        assert got == _newton_solve_series(h, w0, truncation), n
        assert got.truncation == truncation and series_coefficient(got, 0) == w0
        checked += 1
    assert checked > 200


def _per_term_compose_poly(poly, phi1, phi2):
    """compose_poly as it was: one PowerSeries per term and per Horner step."""
    n = min(phi1.truncation, phi2.truncation)
    zero = PowerSeries([(0, 0)] * (n + 1), 1)
    powers = [PowerSeries([(1, 0)] + [(0, 0)] * n, 1)]
    for _ in range(poly.degree_in(1)):
        powers.append(powers[-1] * phi2)
    rows = {}
    for (a, b), (ur, ui) in poly.num.items():
        p = powers[b]
        rows[a] = rows.get(a, zero) + PowerSeries([(re * ur - im * ui, re * ui + im * ur) for re, im in p.num], p.den)
    total = zero
    for a in range(poly.degree_in(0), -1, -1):
        total = phi1 * total + rows.get(a, zero)
    return PowerSeries(total.num, total.den * poly.den)


def test_compose_poly_on_integer_lists_matches_the_per_term_horner():
    rng = random.Random(7070)

    def series(sparse):
        n = rng.randint(0, 14)
        den = rng.choice((1, 2, 3, 6, 35, 2**20 + 7))
        num = []
        for _ in range(n + 1):
            if sparse and rng.random() < 0.7:
                num.append((0, 0))
            else:
                num.append((rng.randint(-50, 50), rng.randint(-50, 50) if rng.random() < 0.5 else 0))
        return PowerSeries(num, den)

    for n in range(300):
        f = random_poly(rng, max_degree=rng.randint(0, 6), max_terms=rng.randint(0, 8), complex_prob=0.5)
        phi1, phi2 = series(n % 3 == 0), series(n % 3 == 1)
        if n % 5 == 0:
            phi1 = PowerSeries.identity(rng.randint(0, 14)).shift_constant(_mixed(rng))
        got = compose_poly(f, phi1, phi2)
        _assert_canonical_series(got)
        assert got == _per_term_compose_poly(f, phi1, phi2), n


# -- singular points on a line: restriction against the plane enumeration --------


def _plane_points_on_curve(field, f):
    """The earlier route, kept as an oracle: every singular point of the
    plane, those on the closure of f, and the degree left undecided on f."""
    aff = affine_singularities(field)
    inf = infinite_singularities(field.one_form)
    F = homogenize(f, int(f.degree))
    points = [p for p in aff.points + inf.points if F.evaluate(p.coords).is_zero()]
    return points, aff.undecided_on(f) + inf.undecided_on(f)


def _line_points_on_curve(field, f):
    points, enumerations = singular_points_on_curve(field, f)
    return points, sum(e.undecided_on(f) for e in enumerations)


def _outcome(route, field, f):
    """(points, undecided) of one route, or the class and message of its error."""
    try:
        return route(field, f)
    except FolError as exc:
        return type(exc), str(exc)


def _arrangement_field(rng, complex_lines, complex_weights, conic):
    """A logarithmic foliation of 3-5 random lines (one of them vertical and
    one horizontal when the coin says so), with a conic when asked, and its
    line components; None when the configuration degenerates."""
    X, Y, Z = projective_vars()

    def scalar():
        return gr(rng.randint(-3, 3), rng.randint(-2, 2) if complex_lines else 0)

    lines = []
    if rng.random() < 0.5:
        lines += [X - Z.scale(scalar()), Y - Z.scale(scalar())]
    while len(lines) < rng.choice((3, 4, 5)):
        a, b = scalar(), scalar()
        if a or b:
            lines.append(X.scale(a) + Y.scale(b) + Z.scale(scalar()))
    curves = list(lines)
    if conic:
        a, c, r = (gr(rng.randint(1, 4)) for _ in range(3))
        p, q = (gr(rng.randint(-2, 2)) for _ in range(2))
        curves.insert(0, ((X - Z.scale(p)) ** 2).scale(a) + ((Y - Z.scale(q)) ** 2).scale(c) - (Z**2).scale(r))

    def weight():
        return gr(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.randint(-2, 2) if complex_weights else 0)

    weights = [weight() for _ in curves[:-1]]
    last = -sum((w * int(F.degree) for w, F in zip(weights, curves)), ZERO)  # the last curve is a line
    if last.is_zero():
        return None
    try:
        field = deprojectivize(logarithmic_form(LogarithmicSpec.make(curves, weights + [last])))
    except (DegenerateInput, PreconditionError):
        return None
    return field, [dehomogenize(F) for F in lines]


def test_singular_points_on_a_line_match_the_plane_enumeration():
    rng = random.Random(4545)
    kinds = ("decided", "more decided", "vertical", "horizontal", "complex line", "complex field", "conic")
    tally = dict.fromkeys(kinds, 0)
    cases = 0
    while cases < 120:
        kind = cases % 4  # real; Q(i) lines; Q(i) weights; both
        made = _arrangement_field(rng, kind in (1, 3), kind in (2, 3), conic=rng.random() < 0.3)
        if made is None:
            continue
        field, lines = made
        for f in lines:
            cases += 1
            want = _outcome(_plane_points_on_curve, field, f)
            got = _outcome(_line_points_on_curve, field, f)
            if isinstance(want[0], type):
                assert got == want
                continue
            (want_points, want_undecided), (got_points, got_undecided) = want, got
            if want_undecided == 0:
                assert got == (want_points, 0)
                tally["decided"] += 1
            else:
                assert got_undecided <= want_undecided
                assert set(want_points) <= set(got_points)
                tally["more decided"] += got_undecided < want_undecided
            tally["vertical"] += f.coefficient((0, 1)).is_zero()
            tally["horizontal"] += f.coefficient((1, 0)).is_zero()
            tally["complex line"] += not f.has_real_coefficients()
            tally["complex field"] += not field.is_real()
            tally["conic"] += field.m == len(lines)  # a conic adds 2 to k - 2
    assert all(count >= 5 for count in tally.values()), tally


@pytest.mark.parametrize(
    "field, line",
    [
        (AffineVectorField(MultiPoly.zero(2), MultiPoly.zero(2), MultiPoly.zero(2), 1), x),  # zero field
        (AffineVectorField.make(MultiPoly.zero(2), x * y), x),  # one component vanishes
        (AffineVectorField.make(x * y, x * (x + y)), x - y),  # components share the factor x
        (AffineVectorField.make(x, y), y - x),  # the star: the whole line at infinity is singular
        (AffineVectorField.make(y + x**2, x * y), x),  # a radial top: the same at degree 2
    ],
)
def test_a_line_raises_what_the_plane_enumeration_raises(field, line):
    want = _outcome(_plane_points_on_curve, field, line)
    assert isinstance(want[0], type) and issubclass(want[0], FolError)
    assert _outcome(_line_points_on_curve, field, line) == want


ONLY_ON_THE_LINE = """
[field log]
p = 255*x^2 + 152*x*y + 60*y^2 - 190*x - 36*y + 48
q = 237*x*y + 86*y^2 + 36*x - 100*y - 24
r = -117*x^2 - 129*x*y - 70*y^2

[curve line]
f = -x - 2*y
"""


def test_a_line_decides_what_the_plane_enumeration_leaves_open(tmp_path, capsys):
    # four lines of a logarithmic foliation of degree 2: the plane eliminant's
    # root search is refused, while the restriction to the line finds every point
    from foltools.cli import run
    from foltools.textio import parse_system

    doc = parse_system(ONLY_ON_THE_LINE)
    entry, line = doc.fields["log"], doc.curves["line"].f
    field = AffineVectorField.make(entry.p, entry.q, entry.r)
    assert _plane_points_on_curve(field, line)[1] > 0
    points, undecided = _line_points_on_curve(field, line)
    assert undecided == 0 and len(points) == 3
    path = tmp_path / "log.fol"
    path.write_text(ONLY_ON_THE_LINE)
    assert run(["euler-check", str(path), "--field", "log", "--curve", "line", "--chi", "2", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["checkable"] and report["identity_holds"] and report["sum_mu"] == 3
