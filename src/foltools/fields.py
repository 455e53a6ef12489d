"""Planar vector fields and their projective one-forms.

An affine field is stored in the normal form

    dx/dt = p(x,y) + x*r(x,y),    dy/dt = q(x,y) + y*r(x,y)

with r identically zero or homogeneous of degree m = max(deg p, deg q, deg r).
Its projective one-form is (ZQ + YR) dX - (ZP + XR) dY + (YP - XQ) dZ with
P, Q, R the degree-m homogenizations of p, q, r; the coefficients are
homogeneous of degree m+1 and satisfy X*P + Y*Q + Z*R = 0 identically.

Chart convention: chart "x", "y" or "z" sets X, Y or Z (index `chart_var`)
to 1 and keeps the other two coordinates in order, so Z = 0 is the chart
line v = 0 in charts "x" and "y".  A one-form a*du + b*dv corresponds to the
chart vector field (-b, a), so the Z = 1 chart of the projectivized form
recovers (p + x*r, q + y*r) exactly.

Reducedness.  Write u = p + x*r and v = q + y*r for the components and
p_m, q_m for the degree-m parts of p and q.  The one-form (A, B, C) of a
field is reduced, gcd(A, B, C) constant, unless gcd(u, v) is nonconstant,
or r = 0 and y*p_m - x*q_m = 0.  Proof: A(x,y,1) = v, B(x,y,1) = -u and
C(x,y,1) = y*u - x*v.  A common factor of A, B and C that Z does not
divide dehomogenizes to a nonconstant common factor of u and v, and the
homogenization of a common factor of u and v divides the homogenizations
of u and v, hence A and B, and of y*u - x*v, hence C.  Z divides A, B and
C iff they vanish on Z = 0, where A = Y*R, B = -X*R and C = Y*P - X*Q with
R = r and P, Q the top forms p_m, q_m: iff R = 0 and C(X,Y,0) = 0.  So
`projectivize` decides reducedness from the one gcd of u and v the field
keeps (`component_gcd`) and one top-degree test, and builds the form
without a gcd in three variables; `ProjectiveOneForm.make`, for forms read
from input, takes that gcd and checks the projective identity.
"""

from __future__ import annotations

from functools import cached_property

from .errors import DegenerateInput, PreconditionError
from .gaussian import GaussianRational
from .polyring import (
    MultiPoly,
    dehomogenize,
    exact_divide,
    homogenize,
    leading_form,
    poly_gcd,
)

CHART_Z = "z"  # coords (x, y) = (X/Z, Y/Z)
CHART_Y = "y"  # coords (u, v) = (X/Y, Z/Y)
CHART_X = "x"  # coords (u, v) = (Y/X, Z/X)
CHARTS = (CHART_Z, CHART_Y, CHART_X)
_CHART_VAR = {CHART_X: 0, CHART_Y: 1, CHART_Z: 2}
_SHARED_FACTOR = "one-form coefficients share a factor; reduce first"


def chart_var(chart: str) -> int:
    """Index of the homogeneous coordinate that `chart` sets to 1."""
    try:
        return _CHART_VAR[chart]
    except KeyError:
        raise ValueError(f"unknown chart {chart!r}") from None


class AffineVectorField:
    """Normal-form planar polynomial field (p + x r, q + y r) of degree m.

    Not slotted: its cached properties are kept in the instance dict."""

    _fields = ("p", "q", "r", "m")

    def __init__(self, p: MultiPoly, q: MultiPoly, r: MultiPoly, m: int):
        self.p, self.q, self.r, self.m = p, q, r, m

    @staticmethod
    def make(p: MultiPoly, q: MultiPoly, r: MultiPoly | None = None) -> "AffineVectorField":
        r = r if r is not None else MultiPoly.zero(2)
        for part in (p, q, r):
            if part.arity != 2:
                raise PreconditionError("field components must be affine (arity 2)")
        if p.is_zero() and q.is_zero() and r.is_zero():
            raise DegenerateInput("zero vector field has no degree")
        degs = [d for d in (p.degree, q.degree, r.degree) if d != float("-inf")]
        m = int(max(degs))
        if not r.is_zero():
            if not r.is_homogeneous():
                raise PreconditionError("r must be homogeneous (or identically zero)")
            if r.degree != m:
                raise PreconditionError(
                    f"r must have the top degree m={m}, got deg r = {int(r.degree)}"
                )
        return AffineVectorField(p, q, r, m)

    @cached_property
    def component_x(self) -> MultiPoly:
        """dx/dt = p + x*r."""
        return self.p + MultiPoly.variable(2, 0) * self.r

    @cached_property
    def component_y(self) -> MultiPoly:
        """dy/dt = q + y*r."""
        return self.q + MultiPoly.variable(2, 1) * self.r

    @cached_property
    def component_gcd(self) -> MultiPoly:
        """gcd(p + x*r, q + y*r), the one gcd of the components taken per field."""
        return poly_gcd(self.component_x, self.component_y)

    @cached_property
    def reduced_components(self) -> tuple[MultiPoly, MultiPoly]:
        """The components over their gcd: isolated zeros in the Z chart."""
        a, b, g = self.component_x, self.component_y, self.component_gcd
        return (a, b) if g.is_constant() else (exact_divide(a, g), exact_divide(b, g))

    def is_real(self) -> bool:
        return all(part.has_real_coefficients() for part in (self.p, self.q, self.r))

    @cached_property
    def one_form(self) -> "ProjectiveOneForm":
        """`projectivize(self)`, computed once per field."""
        return projectivize(self)


class ProjectiveOneForm:
    """Homogeneous one-form P dX + Q dY + R dZ of a degree-m foliation."""

    __slots__ = _fields = ("P", "Q", "R", "m")

    def __init__(self, P: MultiPoly, Q: MultiPoly, R: MultiPoly, m: int):
        self.P, self.Q, self.R, self.m = P, Q, R, m

    @staticmethod
    def make(P: MultiPoly, Q: MultiPoly, R: MultiPoly) -> "ProjectiveOneForm":
        for part in (P, Q, R):
            if part.arity != 3:
                raise PreconditionError("one-form coefficients must be projective (arity 3)")
            if not part.is_homogeneous():
                raise PreconditionError("one-form coefficients must be homogeneous")
        if P.is_zero() and Q.is_zero() and R.is_zero():
            raise DegenerateInput("zero one-form")
        degs = {int(part.degree) for part in (P, Q, R) if not part.is_zero()}
        if len(degs) != 1:
            raise PreconditionError("P, Q, R must share one homogeneous degree")
        d = degs.pop()
        if d < 1:
            raise DegenerateInput("one-form of degree < 1 defines no foliation")
        X, Y, Z = (MultiPoly.variable(3, k) for k in range(3))
        if not (X * P + Y * Q + Z * R).is_zero():
            raise PreconditionError("projective condition X*P + Y*Q + Z*R = 0 violated")
        g = poly_gcd(poly_gcd(P, Q), R)
        if not g.is_constant():
            raise DegenerateInput(_SHARED_FACTOR)
        return ProjectiveOneForm(P, Q, R, d - 1)

    def chart_components(self, chart: str) -> tuple[MultiPoly, MultiPoly]:
        """Vector field of the foliation in one standard affine chart.

        The components share no factor, so the result is the local
        holomorphic representative with isolated zeros: a common factor h
        of the two would divide the third coefficient too, by the projective
        condition, and h homogenized would divide P, Q and R, whose gcd
        `make` or `projectivize` proves constant.
        """
        var = chart_var(chart)
        i, j = (k for k in range(3) if k != var)
        forms = (self.P, self.Q, self.R)
        return -dehomogenize(forms[j], var), dehomogenize(forms[i], var)


class CofactorCertificate:
    """Witness that X f = K f exactly; `cofactor_degree` is None for the zero cofactor."""

    __slots__ = _fields = ("curve", "cofactor", "residual_check", "cofactor_degree", "degree_bound", "degree_bound_ok")

    def __init__(
        self,
        curve: MultiPoly,
        cofactor: MultiPoly,
        residual_check: bool,
        cofactor_degree: int | None,
        degree_bound: int,
        degree_bound_ok: bool,
    ):
        self.curve, self.cofactor, self.residual_check = curve, cofactor, residual_check
        self.cofactor_degree, self.degree_bound, self.degree_bound_ok = cofactor_degree, degree_bound, degree_bound_ok


# -- core operations -----------------------------------------------------------


def lie_derivative(field: AffineVectorField, f: MultiPoly) -> MultiPoly:
    """X f = (p + x r) f_x + (q + y r) f_y, computed exactly."""
    if f.arity != 2:
        raise PreconditionError("lie_derivative expects an affine polynomial")
    return field.component_x * f.partial(0) + field.component_y * f.partial(1)


def invariance_check(field: AffineVectorField, f: MultiPoly) -> CofactorCertificate | None:
    """Exact cofactor K with X f = K f, or None when f is not invariant.

    The expected degree bound (m-1 when r = 0, m when r != 0) is recorded in
    the certificate; exceeding it is reported, not fatal.
    """
    if f.is_zero():
        raise PreconditionError("invariance check on the zero curve")
    derivative = lie_derivative(field, f)
    cofactor = exact_divide(derivative, f)
    if cofactor is None:
        return None
    bound = field.m if not field.r.is_zero() else max(field.m - 1, 0)
    deg = None if cofactor.is_zero() else cofactor.degree
    return CofactorCertificate(f, cofactor, True, deg, bound, deg is None or deg <= bound)


def divergence(field: AffineVectorField) -> MultiPoly:
    """d/dx (p + x r) + d/dy (q + y r)."""
    return field.component_x.partial(0) + field.component_y.partial(1)


def iif_check(field: AffineVectorField, V: MultiPoly) -> bool:
    """Exact test of the inverse-integrating-factor identity X V = div(X) * V."""
    if V.is_zero():
        raise PreconditionError("inverse integrating factor must be nonzero")
    return lie_derivative(field, V) == divergence(field) * V


def darboux_check(
    certificates: list[CofactorCertificate], weights: list[GaussianRational]
) -> bool:
    """Exact test of sum(lambda_i * K_i) = 0 for a weighted cofactor family."""
    if len(certificates) != len(weights):
        raise PreconditionError("one weight per certificate required")
    if not certificates:
        return True
    total = MultiPoly.zero(2)
    for cert, lam in zip(certificates, weights):
        if not cert.residual_check:
            raise PreconditionError("invalid certificate in darboux check")
        total = total + cert.cofactor.scale(lam)
    return total.is_zero()


def infinity_invariant(field: AffineVectorField) -> bool:
    """The line at infinity is invariant exactly when r = 0."""
    return field.r.is_zero()


def projectivize(field: AffineVectorField) -> ProjectiveOneForm:
    """One-form (ZQ + YR, -(ZP + XR), YP - XQ) of the induced foliation,
    proven reduced by the rule in the module docstring."""
    m = field.m
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    radial_top = field.r.is_zero() and y * field.p.homogeneous_part(m) == x * field.q.homogeneous_part(m)
    if radial_top or not field.component_gcd.is_constant():
        raise DegenerateInput(
            "field is not a reduced degree-m foliation representative "
            f"(one-form coefficients share a factor): {_SHARED_FACTOR}"
        )
    P, Q, R = (homogenize(part, m) for part in (field.p, field.q, field.r))
    X, Y, Z = (MultiPoly.variable(3, k) for k in range(3))
    return ProjectiveOneForm(Z * Q + Y * R, -(Z * P + X * R), Y * P - X * Q, m)


def deprojectivize(form: ProjectiveOneForm) -> AffineVectorField:
    """Affine normal form (p, q, r) of a one-form's Z = 1 chart field.

    The chart field is (-Q(x,y,1), P(x,y,1)); when its degree is m+1 the top
    parts factor as x*r and y*r by the projective condition, giving the r-part.
    """
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    a = -dehomogenize(form.Q)
    b = dehomogenize(form.P)
    m = form.m
    d = int(max(a.degree, b.degree))
    if d <= m:
        return AffineVectorField.make(a, b, MultiPoly.zero(2))
    if d != m + 1:
        raise DegenerateInput("chart field degree incompatible with the form degree")
    a_top = leading_form(a) if a.degree == d else MultiPoly.zero(2)
    b_top = leading_form(b) if b.degree == d else MultiPoly.zero(2)
    r = exact_divide(a_top, x) if not a_top.is_zero() else exact_divide(b_top, y)
    if r is None:
        raise DegenerateInput("top-degree parts do not split off a radial component")
    if not a_top.is_zero() and not b_top.is_zero() and exact_divide(b_top, y) != r:
        raise DegenerateInput("inconsistent radial components")
    return AffineVectorField.make(a - x * r, b - y * r, r)
