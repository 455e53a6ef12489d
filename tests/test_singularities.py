import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import affine_vars, const2, projective_vars, random_coeff, random_poly, substitute
from foltools.branches import branch_multiplicity, local_branches
from foltools.errors import DegenerateInput, NonIsolatedSingularities, PreconditionError
from foltools.fields import AffineVectorField, ProjectiveOneForm, projectivize
from foltools.gaussian import ONE, ZERO, gr
from foltools.polyring import MultiPoly, _specialize_keeping, homogenize, poly_gcd
from foltools.singularities import (
    ProjectivePoint,
    Verdict,
    affine_singularities,
    classify_dicritical,
    curve_singularities,
    infinite_singularities,
    is_nodal,
    pair_common_zeros,
    residual_avoids_curve,
)
from foltools.textio import parse_poly
from foltools.uniroots import RootReport, qi_roots
from foltools.construct import gallery

x, y = affine_vars()
circle = x**2 + y**2 - const2(1)


def test_projective_point_normalization():
    p = ProjectivePoint.make(gr(2), gr(4), gr(2))
    assert p == ProjectivePoint.affine(1, 2)
    q = ProjectivePoint.make(gr(3), gr(6), gr(0))
    assert q.coords[1] == gr(1) and q.is_infinite
    assert ProjectivePoint.make(gr(5), gr(0), gr(0)).coords == (gr(1), gr(0), gr(0))
    with pytest.raises(ValueError):
        ProjectivePoint.make(gr(0), gr(0), gr(0))


def test_equal_projective_points_collapse_in_a_set_and_sort_by_their_text():
    # the same point from scaled coordinates is one point: equal, one hash
    twice = [ProjectivePoint.make(gr(2), gr(4), gr(2)), ProjectivePoint.affine(1, 2)]
    assert twice[0] == twice[1] and hash(twice[0]) == hash(twice[1])
    points = twice + [ProjectivePoint.make(gr(0), gr(3), gr(0)), ProjectivePoint.make(gr(0, 2), gr(0), gr(2)), ProjectivePoint.affine(0, 1)]
    assert [str(pt) for pt in sorted(set(points), key=str)] == ["(0 : 1 : 0)", "(0 : 1 : 1)", "(1 : 2 : 1)", "(i : 0 : 1)"]
    # a point equals no other kind of value, not even its own coordinates
    assert twice[0] != twice[0].coords and ProjectivePoint.affine(1, 2) != ProjectivePoint.affine(2, 1)


def test_affine_singularities_examples():
    rot = AffineVectorField.make(-y, x)
    enum = affine_singularities(rot)
    assert enum.points == [ProjectivePoint.affine(0, 0)] and enum.residual == 0
    fld = AffineVectorField.make(x**2 - const2(1), y)
    enum = affine_singularities(fld)
    assert set(enum.points) == {ProjectivePoint.affine(1, 0), ProjectivePoint.affine(-1, 0)}
    with pytest.raises(NonIsolatedSingularities):
        affine_singularities(AffineVectorField.make(x * y, x * (x + y)))


def test_singular_points_substitute_to_zero():
    fld = AffineVectorField.make(x**2 + y**2 - const2(5), x * y - const2(2))
    enum = affine_singularities(fld)
    assert enum.points  # (1,2),(2,1),(-1,-2),(-2,-1)
    for pt in enum.points:
        cx, cy = pt.chart_coords("z")
        assert fld.component_x.evaluate((cx, cy)).is_zero()
        assert fld.component_y.evaluate((cx, cy)).is_zero()


def test_infinite_singularities_examples():
    rot = AffineVectorField.make(-y, x)
    enum = infinite_singularities(projectivize(rot))
    assert set(enum.points) == {
        ProjectivePoint.make(gr(0, 1), gr(1), gr(0)),
        ProjectivePoint.make(gr(0, -1), gr(1), gr(0)),
    }
    e1 = gallery("example1")
    enum1 = infinite_singularities(e1.form)
    assert ProjectivePoint.make(gr(0), gr(1), gr(0)) in enum1.points


def _restrict_infinity(F):
    """Z = 0 as a binary form (arity 3, free of Z)."""
    return MultiPoly(3, {e: c for e, c in F.terms.items() if e[2] == 0})


def _binary_form_infinity(form):
    """Reference enumeration on Z = 0: the gcd of P, Q, R restricted there as
    binary forms, its Q(i) roots in the chart X = 1, then (0 : 1 : 0) when the
    gcd vanishes there.  Returns (points, residual, uncertain, factor degrees)."""
    P0, Q0, R0 = (_restrict_infinity(G) for G in (form.P, form.Q, form.R))
    g = poly_gcd(poly_gcd(P0, Q0), R0)
    if g.is_zero():
        raise DegenerateInput("the whole line at infinity is singular")
    if g.is_constant():
        return [], 0, 0, []
    coeffs = _specialize_keeping(g, 1, [ONE, ZERO, ZERO])  # g(1, t, 0)
    rep = qi_roots(coeffs) if len(coeffs) > 1 else RootReport()
    pts = [ProjectivePoint.make(ONE, t, ZERO) for t in rep.roots]
    if g.evaluate((ZERO, ONE, ZERO)).is_zero():
        pts.append(ProjectivePoint.make(ZERO, ONE, ZERO))
    factors = sorted(len(c) - 1 for c in rep.unresolved + rep.uncertain)
    return sorted(set(pts), key=str), rep.residual_degree, rep.uncertain_degree, factors


def _binary(rnd, d, complex_prob):
    """A random binary form of degree d in x, y (zero when d < 0)."""
    terms = (x**i * y ** (d - i) * MultiPoly.constant(2, random_coeff(rnd, complex_prob)) for i in range(d + 1) if rnd.random() < 0.7)
    return sum(terms, MultiPoly.zero(2))


def _random_one_form(rnd):
    """A projectivized random field of degree m.  When `shared` is set, the
    top forms make Y*p_m - X*q_m (and r_m) divisible by it, so the gcd on
    Z = 0 keeps an irreducible quadratic; `at_0_1_0` puts a factor x on
    p_m and r_m, so that (0 : 1 : 0) is singular."""
    m = rnd.randint(1, 4)
    cp = rnd.choice([0.0, 0.4])
    shared = rnd.choice([None, x**2 + y**2, x**2 - const2(2) * y**2]) if m >= 2 else None
    lift = x if rnd.random() < 0.4 else const2(1)
    k = 1 if lift != const2(1) else 0
    if shared is None:
        p_top, q_top = lift * _binary(rnd, m - k, cp), _binary(rnd, m, cp)
    else:
        c = _binary(rnd, m - 1 - k, cp) * lift
        p_top = shared * _binary(rnd, m - 2 - k, cp) * lift + x * c
        q_top = shared * _binary(rnd, m - 2, cp) + y * c
    r = MultiPoly.zero(2)
    if rnd.random() < 0.5:
        r = (shared * _binary(rnd, m - 2 - k, cp) if shared is not None else _binary(rnd, m - k, cp)) * lift
    p = p_top + random_poly(rnd, max_degree=m - 1, complex_prob=cp)
    q = q_top + random_poly(rnd, max_degree=m - 1, complex_prob=cp)
    return projectivize(AffineVectorField.make(p, q, r))


def test_line_at_infinity_matches_the_binary_form_gcd():
    rnd = random.Random(20261019)
    tally = Counter()
    while tally["forms"] < 500:
        try:
            form = _random_one_form(rnd)
        except (DegenerateInput, PreconditionError):
            continue  # not a reduced foliation of its degree
        tally["forms"] += 1
        try:
            want = _binary_form_infinity(form)
        except DegenerateInput:
            with pytest.raises(DegenerateInput):
                infinite_singularities(form)
            tally["degenerate"] += 1
            continue
        enum = infinite_singularities(form)
        got = (enum.points, enum.residual, enum.uncertain, sorted(len(c) - 1 for c in enum.unresolved_inf))
        assert got == want
        tally["residual"] += enum.residual > 0
        tally["at_0_1_0"] += ProjectivePoint.make(ZERO, ONE, ZERO) in enum.points
        tally["complex"] += not all(G.has_real_coefficients() for G in (form.P, form.Q, form.R))
        tally["with_r"] += not _restrict_infinity(form.P).is_zero()  # P = ZQ + YR is Y*r_m on Z = 0
    assert tally["residual"] >= 100 and 100 <= tally["at_0_1_0"] <= 400
    assert 100 <= tally["complex"] <= 400 and 100 <= tally["with_r"] <= 400


def test_a_form_singular_on_the_whole_line_at_infinity_is_degenerate():
    X, Y, Z = projective_vars()
    # the star field's form (ZY, -ZX, 0) has the common factor Z, which `make` refuses
    form = ProjectiveOneForm(Z * Y, -(Z * X), MultiPoly.zero(3), 1)
    with pytest.raises(DegenerateInput):
        infinite_singularities(form)


def test_residual_at_infinity_avoids_a_curve_whose_top_form_is_coprime():
    # top forms x^2 - 2y^2 and 0: Y*p_2 - X*q_2 = Y(X^2 - 2Y^2) gives (1 : 0 : 0)
    # and the two points (1 : +-1/sqrt(2) : 0), left to the unresolved factor 1 - 2t^2
    fld = AffineVectorField.make(x**2 - const2(2) * y**2 + const2(1), x)
    enum = infinite_singularities(fld.one_form)
    assert enum.points == [ProjectivePoint.make(ONE, ZERO, ZERO)]
    assert enum.residual == 2 and len(enum.unresolved_inf) == 1
    assert residual_avoids_curve(enum, circle)
    assert residual_avoids_curve(enum, x * y - const2(3))
    assert not residual_avoids_curve(enum, x**2 - const2(2) * y**2 + const2(1))
    assert not residual_avoids_curve(enum, (x**2 - const2(2) * y**2) * (x - y) + x)


def test_classify_examples():
    star = AffineVectorField.make(x, y)
    rec = classify_dicritical(star, ProjectivePoint.affine(0, 0))
    assert rec.verdict is Verdict.DICRITICAL and rec.verdict_reason == "star-node"
    saddle = AffineVectorField.make(x, -y)
    rec = classify_dicritical(saddle, ProjectivePoint.affine(0, 0))
    assert rec.verdict is Verdict.NON_DICRITICAL
    node2 = AffineVectorField.make(x, y.scale(gr(2)))
    rec = classify_dicritical(node2, ProjectivePoint.affine(0, 0))
    assert rec.verdict is Verdict.UNKNOWN and rec.verdict_reason == "resonant-ratio"
    degenerate = AffineVectorField.make(x, y**2)
    rec = classify_dicritical(degenerate, ProjectivePoint.affine(0, 0))
    assert rec.verdict is Verdict.UNKNOWN
    with pytest.raises(PreconditionError):
        classify_dicritical(star, ProjectivePoint.affine(1, 1))


def test_classify_example1_nondicritical():
    e1 = gallery("example1")  # alpha/beta not real
    for pt in (
        ProjectivePoint.make(gr(0), gr(1), gr(0)),
        ProjectivePoint.affine(0, 0),
        ProjectivePoint.make(gr(1), gr(0), gr(0)),
    ):
        rec = classify_dicritical(e1.field, pt)
        assert rec.verdict is Verdict.NON_DICRITICAL


def test_classify_degenerate_points_stay_unknown():
    # the two reference foliations with saddle-node style points on the line
    for name in ("example2", "example3"):
        entry = gallery(name)
        fld = entry.field
        for pt in (ProjectivePoint.make(gr(0), gr(1), gr(0)), ProjectivePoint.affine(0, 0)):
            rec = classify_dicritical(fld, pt)
            if name == "example2" and not pt.is_infinite:
                assert rec.verdict is Verdict.NON_DICRITICAL  # eigenvalues -1, 2
            else:
                assert rec.verdict is Verdict.UNKNOWN


def _swap_xy_form(form):
    """Pull the one-form back along the coordinate swap (X, Y, Z) -> (Y, X, Z)."""
    from foltools.fields import ProjectiveOneForm
    from foltools.polyring import MultiPoly as MP

    u, v, w = (MP.variable(3, k) for k in (1, 0, 2))
    subs = {0: u, 1: v, 2: w}
    return ProjectiveOneForm.make(
        substitute(form.Q, subs), substitute(form.P, subs), substitute(form.R, subs)
    )


def test_classify_chart_independence_via_coordinate_swap():
    # classifying a geometric point through the X-chart and the Y-chart must
    # agree; the swap moves one chart onto the other
    from foltools.fields import deprojectivize

    cubic = parse_poly("x^2*y + x*y^2 - 1", 2)
    ham = AffineVectorField.make(-cubic.partial(1), cubic.partial(0))
    form = projectivize(ham)
    swapped_field = deprojectivize(_swap_xy_form(form))
    for X0, Y0 in ((gr(1), gr(-1)), (gr(1), gr(0)), (gr(0), gr(1))):
        pt = ProjectivePoint.make(X0, Y0, gr(0))
        pt_swapped = ProjectivePoint.make(Y0, X0, gr(0))
        rec1 = classify_dicritical(ham, pt)
        rec2 = classify_dicritical(swapped_field, pt_swapped)
        assert rec1.verdict is rec2.verdict


def test_no_infinite_singularities_when_line_not_invariant():
    entry = gallery("three-lines")
    enum = infinite_singularities(entry.form)
    assert enum.points == [] and enum.residual == 0


def test_classify_nilpotent():
    fld = AffineVectorField.make(y, x**2)
    rec = classify_dicritical(fld, ProjectivePoint.affine(0, 0))
    assert rec.verdict is Verdict.UNKNOWN and rec.verdict_reason == "nilpotent"


def test_classify_star_with_higher_terms_stays_unknown():
    fld = AffineVectorField.make(x + x * y**2, y)
    rec = classify_dicritical(fld, ProjectivePoint.affine(0, 0))
    assert rec.verdict is Verdict.UNKNOWN
    assert rec.verdict_reason == "star-jacobian-with-higher-terms"


def _above_linear(rng):
    """A random polynomial with terms of total degree 2 and 3 only."""
    h = random_poly(rng, max_degree=3, max_terms=5, complex_prob=0.4)
    return h - h.homogeneous_part(0) - h.homogeneous_part(1)


def test_classify_jacobian_matches_the_shifted_field():
    # the Jacobian from partial derivatives at the point against the linear
    # coefficients of the field shifted there, at complex points, with scalar
    # Jacobians with and without higher terms
    rnd = random.Random(2031)
    reasons = Counter()
    for k in range(120):
        point = tuple(gr(Fraction(rnd.randint(-5, 5), rnd.randint(1, 3)), rnd.randint(-3, 3)) for _ in range(2))
        if k % 3:
            lin_a, lin_b = (x.scale(random_coeff(rnd)) + y.scale(random_coeff(rnd)) for _ in range(2))
        else:
            lam = random_coeff(rnd, complex_prob=0.5) or ONE
            lin_a, lin_b = x.scale(lam), y.scale(lam)
        extra = k % 6 != 0
        a = (lin_a + (_above_linear(rnd) if extra else MultiPoly.zero(2))).shift(tuple(-c for c in point))
        b = (lin_b + (_above_linear(rnd) if extra else MultiPoly.zero(2))).shift(tuple(-c for c in point))
        if a.is_zero() or b.is_zero():
            continue
        rec = classify_dicritical(AffineVectorField.make(a, b), ProjectivePoint.make(point[0], point[1], ONE))
        at, bt = a.shift(point), b.shift(point)
        jac = tuple(tuple(p.coefficient(e) for e in ((1, 0), (0, 1))) for p in (at, bt))
        assert rec.jacobian == jac
        (j11, j12), (j21, j22) = jac
        if j12.is_zero() and j21.is_zero() and j11 == j22 and not j11.is_zero():
            star = at == MultiPoly(2, {(1, 0): j11}) and bt == MultiPoly(2, {(0, 1): j22})
            assert rec.verdict_reason == ("star-node" if star else "star-jacobian-with-higher-terms")
        reasons[rec.verdict_reason] += 1
    assert reasons["star-node"] >= 10 and reasons["star-jacobian-with-higher-terms"] >= 10
    assert sum(reasons.values()) - reasons["star-node"] - reasons["star-jacobian-with-higher-terms"] >= 60


def test_curve_singularities_examples():
    recs, enum = curve_singularities(circle)
    assert recs == [] and enum.residual == 0
    nodal = y**2 - x**2 * (x + const2(1))
    recs, _ = curve_singularities(nodal)
    assert len(recs) == 1 and recs[0].order == 2 and recs[0].is_node
    cusp = y**2 - x**3
    recs, _ = curve_singularities(cusp)
    assert len(recs) == 1 and not recs[0].is_node
    with pytest.raises(PreconditionError):
        curve_singularities((x + y) ** 2)
    # gcd(f_x, f_y) = 2x^2 + 2y^2 - 1 is divided out; the node at the origin is its quotients' zero
    recs, enum = curve_singularities(parse_poly("(x^2 + y^2)*(x^2 + y^2 - 1)", 2))
    assert [(str(r.point), r.order, r.is_node) for r in recs] == [("(0 : 0 : 1)", 2, True)]
    assert enum.undecided == 0
    # first g = x^2 + y^2, whose quotients vanish only at the origin, off the curve; then parallel lines
    for text in ("(x^2 + y^2)^2 - 1", "x^2 - 2", "y^3 - y"):
        recs, enum = curve_singularities(parse_poly(text, 2))
        assert recs == [] and enum.undecided == 0


def test_is_nodal_cases():
    assert is_nodal(circle, include_infinity=True) is True
    nodal_cubic = y**2 - x**2 * (x + const2(1))
    assert is_nodal(nodal_cubic, include_infinity=False) is True
    # its closure is tangent to the line at infinity, so the strict test fails
    assert is_nodal(nodal_cubic, include_infinity=True) is False
    assert is_nodal(y**2 - x**3, include_infinity=False) is False
    # transversally crossing circle and line stay nodal
    crossing = circle * y
    assert is_nodal(crossing, include_infinity=False) is True
    # at (1 : +-i : 0) the lines x +- i*y = 0 touch the circle they are asymptotes of, and two concentric circles touch
    for text in ("(x^2 + y^2)*(x^2 + y^2 - 1)", "(x^2 + y^2)^2 - 1"):
        assert is_nodal(parse_poly(text, 2), include_infinity=True) is False
        assert is_nodal(parse_poly(text, 2), include_infinity=False) is True
    assert is_nodal(parse_poly("x^2 - 2", 2)) is True
    # three parallel lines pass through (1 : 0 : 0)
    assert is_nodal(parse_poly("y^3 - y", 2)) is False


def test_is_nodal_transversal_product():
    # circle times a secant line with rational crossings (3/5, +-4/5)
    f = circle * (x - const2("3/5"))
    assert is_nodal(f, include_infinity=False) is True
    recs, _ = curve_singularities(f)
    assert len(recs) == 2 and all(r.is_node for r in recs)
    # crossings outside Q(i) leave the verdict honestly undecided
    g = circle * (y - x - const2(5))
    assert is_nodal(g, include_infinity=False) is None


def test_residual_avoidance_certificate():
    # field with off-curve irrational singularities: x = +-i*sqrt(2) etc.
    fld_u = -x * (y + const2(1))
    fld_w = y.scale(gr(2)) - x**2
    enum = pair_common_zeros(fld_u, fld_w)
    assert enum.residual == 2
    assert residual_avoids_curve(enum, x)  # the curve x = 0 avoids them
    assert not residual_avoids_curve(enum, y + const2(1))  # these lie on y = -1


def tangent_at_infinity_quartic(N: int) -> MultiPoly:
    """Smooth at (-N : 1 : 0), where its closure is tangent to Z = 0."""
    return parse_poly(f"(x + {N}*y)^2*(x + y)*(x + 2*y) + x^3 + 1", 2)


def test_uncertain_point_at_infinity_leaves_nodality_undecided():
    big = tangent_at_infinity_quartic(10**21 + 7)
    top = _specialize_keeping(homogenize(big, 4), 1, [ONE, ZERO, ZERO])  # the Z[i] numerators of f_4(1, t)
    assert qi_roots(top).uncertain_degree > 0  # the root -1/N is not found
    assert is_nodal(big) is None
    assert is_nodal(big, include_infinity=False) is True
    # with a small N the root is found and the tangency decides
    assert is_nodal(tangent_at_infinity_quartic(3)) is False


def test_affine_field_with_a_common_factor_is_reduced_in_its_chart():
    # x*(x - 1), x*y share the factor x: the Z-chart field is (x - 1, y), a
    # star node at (1, 0) that is regular at the origin, so the branch y = 0
    # there has multiplicity 0
    field = AffineVectorField.make(x * (x - const2(1)), x * y)
    record = classify_dicritical(field, ProjectivePoint.affine(1, 0))
    assert (record.verdict, record.verdict_reason) == (Verdict.DICRITICAL, "star-node")
    (branch,) = local_branches(y, ProjectivePoint.affine(0, 0), 6)
    assert branch_multiplicity(field, branch) == (0, True)


def test_chart_field_gcd_runs_once_per_field(monkeypatch):
    from foltools import fields

    calls = []
    gcd = fields.poly_gcd

    def spy(a, b):
        calls.append((a, b))
        return gcd(a, b)

    monkeypatch.setattr(fields, "poly_gcd", spy)
    # x*(x^2 - 1), x*y share the factor x: the Z-chart field is (x^2 - 1, y)
    field = AffineVectorField.make(x * (x**2 - const2(1)), x * y)
    for px in (1, -1, 1):
        assert classify_dicritical(field, ProjectivePoint.affine(px, 0)).chart == "z"
    components = (field.component_x, field.component_y)
    assert sum(pair == components for pair in calls) == 1
    assert field.component_x is components[0] and field.component_y is components[1]
