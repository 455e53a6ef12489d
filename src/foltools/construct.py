"""Builders for the reference systems: logarithmic one-forms, the
prescribed-oval systems (a*g - h*g_y, b*g + h*g_x), and the fixture gallery.

Every construction verifies its own checkable claims before returning:
projective condition, invariance of each factor, weight identity, degree.
"""

from __future__ import annotations

from .errors import DegenerateInput, PreconditionError
from .fields import (
    AffineVectorField,
    CofactorCertificate,
    ProjectiveOneForm,
    deprojectivize,
    infinity_invariant,
    invariance_check,
)
from .gaussian import GaussianRational, ZERO, gr
from .polyring import (
    MultiPoly,
    dehomogenize,
    homogenize,
    is_squarefree,
    poly_gcd,
)
from .singularities import pair_common_zeros
from .textio import parse_poly


class LogarithmicSpec:
    """Homogeneous curves F_i with weights satisfying sum(w_i deg F_i) = 0."""

    __slots__ = _fields = ("curves", "weights")

    def __init__(self, curves: tuple[MultiPoly, ...], weights: tuple[GaussianRational, ...]):
        self.curves, self.weights = curves, weights

    @staticmethod
    def make(curves, weights) -> "LogarithmicSpec":
        curves = tuple(curves)
        weights = tuple(weights)
        if len(curves) < 2:
            raise PreconditionError("need at least two curves")
        if len(curves) != len(weights):
            raise PreconditionError("one weight per curve required")
        total = ZERO
        for F, w in zip(curves, weights):
            if F.arity != 3 or not F.is_homogeneous() or F.is_zero():
                raise PreconditionError("curves must be nonzero homogeneous in X, Y, Z")
            if not is_squarefree(F):
                raise PreconditionError("curves must be squarefree")
            if w.is_zero():
                raise PreconditionError("weights must be nonzero")
            total = total + w * gr(int(F.degree))
        if not total.is_zero():
            raise PreconditionError("weights must satisfy sum(w_i * deg F_i) = 0")
        return LogarithmicSpec(curves, weights)

    @property
    def total_degree(self) -> int:
        return sum(int(F.degree) for F in self.curves)


def logarithmic_form(spec: LogarithmicSpec) -> ProjectiveOneForm:
    """sum_j w_j (prod_{i != j} F_i) dF_j, expanded and verified.

    The projective condition follows from the weight identity by the Euler
    relation; it is asserted rather than trusted.  Every F_i is re-checked
    to be invariant (with exact cofactor) for the affinized field.
    """
    parts = [MultiPoly.zero(3), MultiPoly.zero(3), MultiPoly.zero(3)]
    k = len(spec.curves)
    for j in range(k):
        cof = MultiPoly.constant(3, spec.weights[j])
        for i in range(k):
            if i != j:
                cof = cof * spec.curves[i]
        for var in range(3):
            parts[var] = parts[var] + cof * spec.curves[j].partial(var)
    form = ProjectiveOneForm.make(parts[0], parts[1], parts[2])
    expected_m = spec.total_degree - 2
    if form.m != expected_m:
        raise DegenerateInput(
            f"degenerate configuration: degree dropped to {form.m}, expected {expected_m}"
        )
    field = deprojectivize(form)
    for F in spec.curves:
        affine = dehomogenize(F)
        if affine.is_constant():
            continue  # the curve Z = 0 itself; invariance is not an affine statement
        if invariance_check(field, affine) is None:
            raise AssertionError("constructed form lost invariance of a factor")
    return form


def ratio_condition_report(weights: list[GaussianRational]) -> list[dict]:
    """Exact per-pair test of the ratio condition: w_i / w_j must not be a
    negative rational."""
    if any(w.is_zero() for w in weights):
        raise PreconditionError("weights must be nonzero")
    rows = []
    for i in range(len(weights)):
        for j in range(len(weights)):
            if i == j:
                continue
            ratio = weights[i] / weights[j]
            bad = ratio.is_real() and ratio.re < 0
            rows.append(
                {
                    "i": i,
                    "j": j,
                    "ratio": str(ratio),
                    "status": "Violated" if bad else "Satisfied",
                }
            )
    return rows


def eee_system(
    g: MultiPoly, h: MultiPoly, a: GaussianRational, b: GaussianRational
) -> tuple[AffineVectorField, CofactorCertificate]:
    """The system (a*g - h*g_y, b*g + h*g_x) with its exact cofactor.

    h must be a polynomial of degree exactly 1 and a*h_x + b*h_y != 0; the
    returned certificate witnesses X g = (a*g_x + b*g_y) g.
    """
    if g.arity != 2 or h.arity != 2:
        raise PreconditionError("g and h must be affine polynomials")
    if h.degree != 1:
        raise PreconditionError("h must have degree exactly 1 (a line)")
    hx = h.partial(0).constant_value()
    hy = h.partial(1).constant_value()
    if (a * hx + b * hy).is_zero():
        raise PreconditionError("need a*h_x + b*h_y != 0")
    if not (a.is_real() and b.is_real()):
        raise PreconditionError("a and b must be real for the dynamical reading")
    p = g.scale(a) - h * g.partial(1)
    q = g.scale(b) + h * g.partial(0)
    field = AffineVectorField.make(p, q)
    cert = invariance_check(field, g)
    if cert is None or cert.cofactor != g.partial(0).scale(a) + g.partial(1).scale(b):
        raise AssertionError("construction identity X g = (a g_x + b g_y) g failed")
    return field, cert


# -- general-position configurations -------------------------------------------


def _transversal_pairs(curves: list[MultiPoly]) -> bool:
    """Pairwise transversal affine intersections, no triple points."""
    seen: dict[str, int] = {}
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            f, g = curves[i], curves[j]
            if not poly_gcd(f, g).is_constant():
                return False
            enum = pair_common_zeros(f, g)
            for pt in enum.points:
                x0, y0 = pt.chart_coords("z")
                # transversal: gradients independent at the point
                jac = (
                    f.partial(0).evaluate((x0, y0)) * g.partial(1).evaluate((x0, y0))
                    - f.partial(1).evaluate((x0, y0)) * g.partial(0).evaluate((x0, y0))
                )
                if jac.is_zero():
                    return False
                key = str(pt)
                seen[key] = seen.get(key, 0) + 1
                if seen[key] > 1:
                    return False
    return True


def thm2b_configuration(m: int) -> tuple[LogarithmicSpec, list[dict]]:
    """A conic plus m lines in verified general position, total degree m+2,
    with real rational weights and their (partly Violated) ratio report."""
    if m < 2:
        raise PreconditionError("need m >= 2")
    conic = parse_poly("x^2 + y^2 - 1", 2)
    lines = []
    for k in range(m):
        # distinct slopes keep the infinite points distinct; quadratic
        # offsets break concurrency (intersection abscissae -(a+b) differ)
        slope = k + 2
        offset = k * k + k + 3
        lines.append(parse_poly(f"y - {slope}*x - {offset}", 2))
    affine = [conic] + lines
    if not _transversal_pairs(affine):
        raise DegenerateInput("configuration failed the general-position check")
    curves = [homogenize(c, int(c.degree)) for c in affine]
    weights = [gr(m)] + [gr(-2)] * m
    spec = LogarithmicSpec.make(curves, weights)
    form = logarithmic_form(spec)
    if form.m != m:
        raise AssertionError("configuration degree mismatch")
    if infinity_invariant(deprojectivize(form)):
        raise AssertionError("the line at infinity must not be invariant here")
    return spec, ratio_condition_report(list(spec.weights))


# -- fixture gallery -------------------------------------------------------------


class GalleryEntry:
    """A named reference fixture: its foliation (form and field), its curve
    and the logarithmic spec that built it, each where it has one."""

    __slots__ = _fields = ("name", "form", "field", "curve", "log_spec")

    def __init__(
        self,
        name: str,
        form: ProjectiveOneForm | None = None,
        field: AffineVectorField | None = None,
        curve: MultiPoly | None = None,
        log_spec: LogarithmicSpec | None = None,
    ):
        self.name, self.form, self.field, self.curve, self.log_spec = name, form, field, curve, log_spec


EXAMPLE1_ALPHA, EXAMPLE1_BETA = gr(1, 2), gr(1)  # Example 1's weights of X and Y; alpha/beta is real


def _example1() -> GalleryEntry:
    alpha, beta = EXAMPLE1_ALPHA, EXAMPLE1_BETA
    X, Y, Z = (MultiPoly.variable(3, k) for k in range(3))
    spec = LogarithmicSpec.make([X, Y, Z], [alpha, beta, -(alpha + beta)])
    P = (Y * Z).scale(alpha)
    Q = (X * Z).scale(beta)
    R = (X * Y).scale(-(alpha + beta))
    form = ProjectiveOneForm.make(P, Q, R)
    return GalleryEntry(
        name="example1",
        form=form,
        field=deprojectivize(form),
        curve=parse_poly("x", 2),
        log_spec=spec,
    )


def _forms_catalog() -> dict[str, tuple[str, str, str]]:
    return {
        "example2": (
            "(2*Y*Z - X^2)*Z",
            "X*(Y + Z)*Z",
            "X^3 - X*Y^2 - 3*X*Y*Z",
        ),
        "example3": (
            "(X^3 - 2*Y^2*Z)*Z",
            "-X*(Y^2 + Z^2)*Z",
            "-(X^4 - 2*X*Y^2*Z - X*Y*Z^2 - X*Y^3)",
        ),
    }


GALLERY_NAMES = (
    "example1",
    "example2",
    "example3",
    "three-lines",
    "circle",
    "nodal-cubic",
    "quartic-4-ovals",
)


def gallery(name: str) -> GalleryEntry:
    """Reference objects used across the verification suites."""
    if name == "example1":
        return _example1()
    if name in ("example2", "example3"):
        Ps, Qs, Rs = _forms_catalog()[name]
        form = ProjectiveOneForm.make(parse_poly(Ps, 3), parse_poly(Qs, 3), parse_poly(Rs, 3))
        # degenerate points on the invariant line classify as unknown
        return GalleryEntry(
            name=name,
            form=form,
            field=deprojectivize(form),
            curve=parse_poly("x", 2),
        )
    if name == "three-lines":
        X, Y, Z = (MultiPoly.variable(3, k) for k in range(3))
        spec = LogarithmicSpec.make([X, Y, Y - X - Z], [gr(1), gr(1), gr(-2)])
        form = logarithmic_form(spec)
        return GalleryEntry(
            name="three-lines",
            form=form,
            field=deprojectivize(form),
            curve=parse_poly("x*y*(y - x - 1)", 2),
            log_spec=spec,
        )
    if name == "circle":
        return GalleryEntry(name="circle", curve=parse_poly("x^2 + y^2 - 1", 2))
    if name == "nodal-cubic":
        # one node at the origin; the real loop passes through it
        return GalleryEntry(name="nodal-cubic", curve=parse_poly("y^2 - x^2*(x + 1)", 2))
    if name == "quartic-4-ovals":
        # level +1/100 of the two-ellipse product: four lens-shaped ovals
        quartic = parse_poly("(x^2 + 2*y^2 - 1)*(2*x^2 + y^2 - 1) + 1/100", 2)
        return GalleryEntry(name="quartic-4-ovals", curve=quartic)
    raise PreconditionError(f"unknown gallery name {name!r}; choose from {GALLERY_NAMES}")
