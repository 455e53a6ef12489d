import pytest

from foltools.branches import branch_multiplicity, local_branches
from foltools.errors import NonIsolatedSingularities, PreconditionError
from foltools.fields import AffineVectorField, projectivize
from foltools.gaussian import ONE, ZERO, gr
from foltools.polyring import MultiPoly, _specialize_keeping, affine_vars, const2, homogenize
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
from foltools.uniroots import qi_roots
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
        form.Q.substitute(subs), form.P.substitute(subs), form.R.substitute(subs)
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
    top = _specialize_keeping(homogenize(big, 4), 1, [ONE, ZERO, ZERO])  # f_4(1, t)
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
