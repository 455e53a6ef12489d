import random
import sys

import pytest

from conftest import affine_vars, const2, projective_vars, random_coeff, random_poly, substitute
from foltools import cli, polyring
from foltools.errors import DegenerateInput, PreconditionError
from foltools.fields import (
    AffineVectorField,
    ProjectiveOneForm,
    chart_var,
    darboux_check,
    deprojectivize,
    divergence,
    iif_check,
    infinity_invariant,
    invariance_check,
    lie_derivative,
    projectivize,
)
from foltools.gaussian import gr
from foltools.polyring import (
    MultiPoly,
    dehomogenize,
    exact_divide,
    homogenize,
    leading_form,
    poly_gcd,
)
from foltools.singularities import ProjectivePoint
from foltools.textio import parse_poly, parse_system

x, y = affine_vars()
X, Y, Z = projective_vars()
circle = x**2 + y**2 - const2(1)
rotation = AffineVectorField.make(-y, x)


def eee_field():
    g, h = circle, x - const2(2)
    return AffineVectorField.make(g - h * g.partial(1), g + h * g.partial(0))


def test_field_normal_form():
    assert rotation.m == 1
    with pytest.raises(DegenerateInput):
        AffineVectorField.make(MultiPoly.zero(2), MultiPoly.zero(2))
    with pytest.raises(PreconditionError):
        AffineVectorField.make(x, y, x + const2(1))  # r not homogeneous
    with pytest.raises(PreconditionError):
        AffineVectorField.make(x**2, y, x)  # deg r < m
    fld = AffineVectorField.make(const2(1), -x, x + y)
    assert fld.m == 1 and not infinity_invariant(fld)


def test_lie_derivative_examples():
    assert lie_derivative(rotation, circle).is_zero()
    fld = eee_field()
    assert lie_derivative(fld, circle) == (x.scale(gr(2)) + y.scale(gr(2))) * circle
    assert lie_derivative(rotation, const2(1)).is_zero()


def test_invariance_check_examples():
    cert = invariance_check(rotation, circle)
    assert cert is not None and cert.cofactor.is_zero() and cert.residual_check
    cert = invariance_check(eee_field(), circle)
    assert cert is not None and cert.cofactor == parse_poly("2*x + 2*y", 2)
    assert cert.degree_bound_ok
    assert invariance_check(rotation, x) is None
    with pytest.raises(PreconditionError):
        invariance_check(rotation, MultiPoly.zero(2))


def test_projectivize_examples():
    form = projectivize(rotation)
    assert form.P == Z * X and form.Q == Z * Y and form.R == -(X**2) - Y**2
    assert form.m == 1
    # construction must reject a violated projective condition
    with pytest.raises(PreconditionError):
        ProjectiveOneForm.make(X * Z, Y * Z, X * Y)


def test_projectivize_roundtrip_and_one_form(rng):
    degenerate = 0
    for _ in range(120):
        p = random_poly(rng, max_degree=3)
        q = random_poly(rng, max_degree=3)
        if p.is_zero() and q.is_zero():
            continue
        fld = AffineVectorField.make(p, q)
        try:
            form = projectivize(fld)
        except DegenerateInput:
            degenerate += 1  # non-reduced foliation representative; skip
            assert degenerate < 60
            continue
        back = deprojectivize(form)
        assert back.p == fld.p and back.q == fld.q and back.r == fld.r
        # Z = 1 restriction of the form is the affine one-form (q+yr, -(p+xr))
        a, b = fld.component_y, -fld.component_x
        subs = {0: x, 1: y, 2: const2(1)}
        assert substitute(form.P, subs) == a
        assert substitute(form.Q, subs) == b


def test_deprojectivize_radial_part():
    entry_form = ProjectiveOneForm.make(
        (Y * Z).scale(gr(1, 2)), (X * Z).scale(gr(1)), (X * Y).scale(-(gr(1, 2) + gr(1)))
    )
    fld = deprojectivize(entry_form)
    assert fld.m == 1 and fld.r.is_zero()
    assert projectivize(fld).P == entry_form.P


def test_infinity_invariant():
    assert infinity_invariant(rotation)
    assert infinity_invariant(eee_field())
    fld = AffineVectorField.make(x, -y, x + y)
    assert not infinity_invariant(fld)


def test_divergence_examples():
    assert divergence(rotation).is_zero()
    assert divergence(AffineVectorField.make(x, y)) == const2(2)
    assert divergence(eee_field()) == x.scale(gr(2))


def test_iif_examples():
    assert iif_check(rotation, circle)  # both sides zero
    assert not iif_check(rotation, x)
    with pytest.raises(PreconditionError):
        iif_check(rotation, MultiPoly.zero(2))


def test_darboux_examples():
    fld = eee_field()
    cert = invariance_check(fld, circle)
    assert darboux_check([], []) is True
    assert not darboux_check([cert], [gr(1)])
    with pytest.raises(PreconditionError):
        darboux_check([cert], [gr(1), gr(2)])


def test_cofactor_degree_bound_recorded():
    fld = AffineVectorField.make(x, -y, x + y)  # r != 0, m = 1
    cert = invariance_check(fld, x)
    assert cert is not None
    assert cert.degree_bound == fld.m
    assert cert.degree_bound_ok


# -- chart convention: the substitution tables the chart maps replaced ----------

ONE2 = const2(1)
U, V = affine_vars()
CHART_SUBS = {  # chart -> substitution turning a projective form into its chart
    "z": {0: U, 1: V, 2: ONE2},
    "y": {0: U, 1: ONE2, 2: V},
    "x": {0: ONE2, 1: U, 2: V},
}


def _oracle_chart_components(form, chart):
    subs = CHART_SUBS[chart]
    a, b = {
        "z": (-substitute(form.Q, subs), substitute(form.P, subs)),
        "y": (-substitute(form.R, subs), substitute(form.P, subs)),
        "x": (-substitute(form.R, subs), substitute(form.Q, subs)),
    }[chart]
    g = poly_gcd(a, b)
    if not g.is_constant():
        a, b = exact_divide(a, g), exact_divide(b, g)
    return a, b


def _oracle_chart_coords(point, chart):
    X0, Y0, Z0 = point.coords
    if chart == "z":
        return (X0 / Z0, Y0 / Z0)
    if chart == "y":
        return (X0 / Y0, Z0 / Y0)
    return (Y0 / X0, Z0 / X0)


def _random_form(rng, degree):
    terms = {}
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            if rng.random() < 0.6:
                c = random_coeff(rng, complex_prob=0.5)
                if not c.is_zero():
                    terms[(a, b, degree - a - b)] = c
    return MultiPoly(3, terms)


def test_chart_var_names_the_coordinate_set_to_one():
    assert [chart_var(c) for c in ("x", "y", "z")] == [0, 1, 2]
    with pytest.raises(ValueError):
        chart_var("w")
    with pytest.raises(ValueError):
        dehomogenize(X * Y, 3)


def test_dehomogenize_matches_chart_substitution(rng):
    for _ in range(60):
        F = _random_form(rng, rng.randint(0, 4))
        for chart, subs in CHART_SUBS.items():
            assert dehomogenize(F, chart_var(chart)) == substitute(F, subs)


def test_chart_components_match_substitution_tables(rng):
    checked = 0
    while checked < 25:
        p = random_poly(rng, max_degree=3)
        q = random_poly(rng, max_degree=3)
        if p.is_zero() and q.is_zero():
            continue
        m = int(max(p.degree, q.degree))
        r = MultiPoly.zero(2)
        if rng.random() < 0.5:
            r = MultiPoly(2, {(a, m - a): random_coeff(rng) for a in range(m + 1)})
        try:
            form = projectivize(AffineVectorField.make(p, q, r))
        except DegenerateInput:
            continue  # not a reduced representative
        for chart in CHART_SUBS:
            assert form.chart_components(chart) == _oracle_chart_components(form, chart)
        checked += 1
    with pytest.raises(ValueError):
        form.chart_components("w")


def test_projective_point_charts_match_the_if_chains(rng):
    for _ in range(60):
        coords = [random_coeff(rng, complex_prob=0.5) if rng.random() < 0.7 else gr(0) for _k in range(3)]
        if all(c.is_zero() for c in coords):
            continue
        pt = ProjectivePoint.make(*coords)
        X0, Y0, Z0 = pt.coords
        canonical = "z" if not Z0.is_zero() else ("y" if not Y0.is_zero() else "x")
        assert pt.chart() == canonical
        for chart in CHART_SUBS:
            if not pt.coords[chart_var(chart)].is_zero():
                assert pt.chart_coords(chart) == _oracle_chart_coords(pt, chart)
    with pytest.raises(ValueError):
        ProjectivePoint.affine(1, 2).chart_coords("w")


# -- projectivize's reducedness rule against the three-variable gcd of `make` --


def _projectivize_through_make(field):
    """The one-form by the earlier route: build it, then let `ProjectiveOneForm.make`
    check the projective identity and take gcd(P, Q, R) in three variables."""
    m = field.m
    P, Q, R = (homogenize(part, m) for part in (field.p, field.q, field.r))
    try:
        return ProjectiveOneForm.make(Z * Q + Y * R, -(Z * P + X * R), Y * P - X * Q)
    except DegenerateInput as exc:
        raise DegenerateInput(
            "field is not a reduced degree-m foliation representative "
            f"(one-form coefficients share a factor): {exc}"
        ) from exc


def _outcome(route, field):
    try:
        form = route(field)
    except DegenerateInput as exc:
        return "DegenerateInput", str(exc)
    return "form", (form.P, form.Q, form.R, form.m)


_FIELD_KINDS = ("random", "random-r", "shared", "shared-r", "radial", "radial-shared", "zero-component")


def _seeded_field(rng, kind):
    """A normal-form field (p, q, r) of the given kind; None when `make` refuses it."""
    m = rng.randint(1, 3)

    def poly(d, nonzero=False):
        return random_poly(rng, max_degree=d, max_terms=4, nonzero=nonzero)

    def form(d):  # a nonzero homogeneous polynomial of degree d
        return MultiPoly(2, {(a, d - a): random_coeff(rng) or gr(1) for a in range(d + 1) if a == 0 or rng.random() < 0.6})

    r = MultiPoly.zero(2)
    if kind in ("random", "random-r"):
        p, q = poly(m, True), poly(m)
        if kind == "random-r":
            r = form(int(max(p.degree, q.degree, 1)))
    elif kind in ("shared", "radial-shared"):
        h = poly(1, True) if rng.random() < 0.7 else x - const2(rng.randint(-2, 2))
        if h.is_constant():
            h = h + x
        if kind == "shared":
            p, q = h * poly(m - 1, True), h * poly(m - 1)
        else:  # p = h*x*s + ..., q = h*y*s + ...: a radial top and a shared factor
            s = form(m - 1) if m > 1 else const2(rng.randint(1, 3))
            p, q = h * (x * s + poly(m - 1)), h * (y * s + poly(m - 1))
    elif kind == "shared-r":
        # u = h*a and v = h*b whose top forms are x*s and y*s, so r = s has degree m
        h = x + y.scale(gr(rng.randint(-2, 2))) + const2(rng.randint(-2, 2))
        a1 = form(m - 1) if m > 1 else const2(rng.randint(1, 3))
        a, b = x * a1 + poly(m - 1), y * a1 + poly(m - 1)
        r = leading_form(h) * a1
        p, q = h * a - x * r, h * b - y * r
    elif kind == "radial":  # r = 0 and y*p_m = x*q_m, e.g. p = x^2 + 1, q = x*y
        s = form(m - 1) if m > 1 else const2(rng.randint(1, 3))
        p, q = x * s + poly(m - 1), y * s + poly(m - 1)
    else:  # one component is zero
        p, q = poly(m, True), MultiPoly.zero(2)
        if rng.random() < 0.5:
            p, q = q, p
    try:
        return AffineVectorField.make(p, q, r)
    except (DegenerateInput, PreconditionError):
        return None


def test_reducedness_rule_matches_the_three_variable_gcd():
    rng = random.Random(4040)
    seen = dict.fromkeys(_FIELD_KINDS, 0)
    verdicts = {"form": 0, "DegenerateInput": 0}
    n = 0
    while n < 350:
        kind = _FIELD_KINDS[n % len(_FIELD_KINDS)]
        field = _seeded_field(rng, kind)
        if field is None:
            continue
        want = _outcome(_projectivize_through_make, field)
        assert _outcome(projectivize, field) == want, (kind, n)
        seen[kind] += 1
        verdicts[want[0]] += 1
        n += 1
    assert seen == dict.fromkeys(_FIELD_KINDS, 50)
    assert min(verdicts.values()) >= 70  # both verdicts are well represented
    assert _outcome(projectivize, AffineVectorField.make(x**2 + const2(1), x * y)) == (
        "DegenerateInput",
        "field is not a reduced degree-m foliation representative (one-form coefficients share a factor): "
        "one-form coefficients share a factor; reduce first",
    )


_COMPONENTS_DOC = """
[field eee]
p = x^2 + y^2 - 1 - (x - 2)*2*y
q = x^2 + y^2 - 1 + (x - 2)*2*x

[field log3]
p = x
q = -y
r = x + y

[curve circle]
f = x^2 + y^2 - 1

[curve l1]
f = x
"""


@pytest.mark.parametrize("argv", [
    ["singularities", "--field", "eee"],
    ["classify", "--field", "eee"],
    ["classify", "--field", "log3"],
    ["euler-check", "--field", "eee", "--curve", "circle", "--chi", "0"],
    ["euler-check", "--field", "log3", "--curve", "l1", "--chi", "2"],
])
def test_one_bivariate_gcd_of_the_components_per_run(argv, tmp_path, monkeypatch, capsys):
    doc = tmp_path / "doc.fol"
    doc.write_text(_COMPONENTS_DOC)
    calls = []
    real = polyring.poly_gcd

    def spy(a, b):
        calls.append((a, b))
        return real(a, b)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("foltools") and getattr(module, "poly_gcd", None) is real:
            monkeypatch.setattr(module, "poly_gcd", spy)
    assert cli.run([argv[0], str(doc), *argv[1:]]) in (0, 1, 3)
    field = cli._get_field(parse_system(_COMPONENTS_DOC), argv[2])
    components = {field.component_x, field.component_y}
    assert sum({a, b} == components for a, b in calls) == 1
    assert not any(a.arity == 3 for a, _ in calls)  # projectivize takes no gcd in three variables
