"""Singular points of foliations and curves, with exact enumeration.

Enumeration eliminates one variable by a resultant, extracts the
Gaussian-rational roots, and back-substitutes.  Roots outside Q(i) are
never guessed: their total degree is reported as a residual count, and the
unresolved factors are kept so callers can prove (by exact gcd tests) that
the missing points avoid a curve of interest.  Factors whose rational-root
search exceeds the divisor budget are classified "uncertain" (they may
still have rational roots) and are treated as fully undecided.  The points
on one line need no eliminant: they are the roots of the gcd of the
components restricted to the line (`line_singularities`).
"""

from __future__ import annotations

from enum import Enum

from .errors import DegenerateInput, NonIsolatedSingularities, PreconditionError
from .fields import (
    CHART_Z,
    CHARTS,
    AffineVectorField,
    ProjectiveOneForm,
    chart_var,
)
from .gaussian import GaussianRational, ONE, ZERO, gr
from .polyring import MultiPoly, _specialize_keeping, dehomogenize, exact_divide, homogenize, poly_gcd, require_reduced_curve, resultant
from .series import PowerSeries, compose_poly
from .uniroots import Coeffs, RootReport, qi_roots, ucoprime, ugcd


class ProjectivePoint:
    """Point of CP^2, normalized so the last nonzero coordinate is 1."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[GaussianRational, GaussianRational, GaussianRational]):
        self.coords = coords

    def __eq__(self, other) -> bool:
        return isinstance(other, ProjectivePoint) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash((self.coords,))

    @staticmethod
    def make(X, Y, Z) -> "ProjectivePoint":
        triple = [GaussianRational.coerce(c) if not isinstance(c, GaussianRational) else c for c in (X, Y, Z)]
        last = next((k for k in (2, 1, 0) if not triple[k].is_zero()), None)
        if last is None:
            raise ValueError("(0 : 0 : 0) is not a projective point")
        inv = triple[last].inverse()
        return ProjectivePoint(tuple(c * inv for c in triple))

    @staticmethod
    def affine(x, y) -> "ProjectivePoint":
        return ProjectivePoint.make(x, y, 1)

    @property
    def is_infinite(self) -> bool:
        return self.coords[2].is_zero()

    def chart(self) -> str:
        """Canonical chart: the one whose normalizing coordinate equals 1."""
        return next(c for c in CHARTS if not self.coords[chart_var(c)].is_zero())

    def chart_coords(self, chart: str) -> tuple[GaussianRational, GaussianRational]:
        var = chart_var(chart)
        inv = self.coords[var].inverse()
        return tuple(c * inv for k, c in enumerate(self.coords) if k != var)

    def __str__(self) -> str:
        return "(" + " : ".join(str(c) for c in self.coords) + ")"


class Verdict(str, Enum):
    NON_DICRITICAL = "non-dicritical"
    DICRITICAL = "dicritical"
    UNKNOWN = "unknown"


class SingularityRecord:
    __slots__ = _fields = ("point", "chart", "jacobian", "verdict", "verdict_reason")

    def __init__(
        self,
        point: ProjectivePoint,
        chart: str,
        jacobian: tuple[tuple[GaussianRational, GaussianRational], tuple[GaussianRational, GaussianRational]],
        verdict: Verdict,
        verdict_reason: str,
    ):
        self.point, self.chart, self.jacobian, self.verdict, self.verdict_reason = point, chart, jacobian, verdict, verdict_reason


class CurveSingularity:
    __slots__ = _fields = ("point", "order", "is_node")

    def __init__(self, point: ProjectivePoint, order: int, is_node: bool):
        self.point, self.order, self.is_node = point, order, is_node


class Enumeration:
    """Singular points found exactly, plus what could not be resolved.

    hard_residual counts unresolved coordinates already known to satisfy the
    constraint of interest (they can never be discharged by an avoidance
    proof); residual counts the rest.
    """

    __slots__ = _fields = (
        "points", "residual", "hard_residual", "uncertain", "unresolved_x", "unresolved_y", "unresolved_inf", "system"
    )

    def __init__(self, points: list[ProjectivePoint] | None = None, hard_residual: int = 0, system: tuple[MultiPoly, ...] = ()):
        self.points = [] if points is None else points
        self.residual, self.hard_residual, self.uncertain = 0, hard_residual, 0
        self.unresolved_x: list[Coeffs] = []
        self.unresolved_y: list[tuple[GaussianRational, Coeffs]] = []
        self.unresolved_inf: list[Coeffs] = []
        self.system = system

    @property
    def undecided(self) -> int:
        """Total degree of coordinates not pinned down (rootless or capped)."""
        return self.residual + self.hard_residual + self.uncertain

    def undecided_on(self, f: MultiPoly) -> int:
        """Degree of the coordinates not pinned down that may lie on the curve
        f: the hard residual, plus the rest unless `residual_avoids_curve`
        proves it off f."""
        rest = self.residual + self.uncertain
        if rest and residual_avoids_curve(self, f):
            rest = 0
        return self.hard_residual + rest


# -- low-level helpers -----------------------------------------------------------


def _univar(p: MultiPoly, var: int) -> Coeffs:
    """Z[i] numerator list of a polynomial that depends on one variable only."""
    other = [v for v in range(p.arity) if v != var]
    if any(p.degree_in(v) > 0 for v in other):
        raise ValueError("polynomial is not univariate in the requested variable")
    return _specialize_keeping(p, var, [ZERO] * p.arity)


def _elimination_in_x(A: MultiPoly, B: MultiPoly) -> Coeffs | None:
    """A nonzero x-polynomial vanishing at every x-coordinate of Z(A, B).

    None when no sound eliminant is available.
    """
    if A.is_zero() or B.is_zero():
        return None
    dA, dB = A.degree_in(1), B.degree_in(1)
    if dA == 0 and dB == 0:
        g = ugcd(_univar(A, 0), _univar(B, 0))
        return None if len(g) > 1 else g  # constant: no common x
    if dA and dB and not poly_gcd(A, B).is_constant():
        return None
    return _x_eliminant(A, B)


def _x_eliminant(A: MultiPoly, B: MultiPoly) -> Coeffs:
    """For A and B not both free of y: the first of them free of y, as an
    x-polynomial, else Res_y(A, B), nonzero when A and B are coprime.  Either
    vanishes at the x-coordinate of every common zero."""
    for P in (A, B):
        if P.degree_in(1) == 0:
            return _univar(P, 0)
    return resultant(A, B, 1)


def pair_common_zeros(A: MultiPoly, B: MultiPoly) -> Enumeration:
    """Common zeros of two affine polynomials with no shared factor."""
    if A.is_zero() or B.is_zero():
        raise PreconditionError("common zeros of a zero polynomial are not isolated")
    if not poly_gcd(A, B).is_constant():
        raise NonIsolatedSingularities("components share a polynomial factor")
    return _coprime_common_zeros(A, B)


def _coprime_common_zeros(A: MultiPoly, B: MultiPoly) -> Enumeration:
    """`pair_common_zeros` for two nonzero polynomials already proven coprime."""
    out = Enumeration(system=(A, B))
    dA, dB = A.degree_in(1), B.degree_in(1)
    if dA == 0 and dB == 0:
        return out  # coprime x-polynomials: no common zeros at all
    eliminant = _x_eliminant(A, B)
    if len(eliminant) == 1:
        return out
    rep = qi_roots(eliminant)
    out.residual += rep.residual_degree
    out.uncertain += rep.uncertain_degree
    out.unresolved_x.extend(rep.unresolved + rep.uncertain)
    for x0 in rep.roots:
        a0 = _specialize_keeping(A, 1, [x0, ZERO])  # A(x0, y)
        b0 = _specialize_keeping(B, 1, [x0, ZERO])
        if not a0 and not b0:
            raise NonIsolatedSingularities(f"line x = {x0} is entirely singular")
        gy = b0 if not a0 else (a0 if not b0 else ugcd(a0, b0))
        if len(gy) <= 1:
            continue  # spurious eliminant root (leading coefficients vanished)
        yrep = qi_roots(gy)
        out.residual += yrep.residual_degree
        out.uncertain += yrep.uncertain_degree
        out.unresolved_y.extend((x0, fac) for fac in yrep.unresolved + yrep.uncertain)
        for y0 in yrep.roots:
            out.points.append(ProjectivePoint.affine(x0, y0))
    out.points = sorted(set(out.points), key=str)
    return out


def residual_avoids_curve(enum: Enumeration, f: MultiPoly) -> bool:
    """Prove that every unresolved singular point misses the affine curve f = 0.

    Sound but not complete: True is a proof, False only means "not proved".
    """
    if enum.residual + enum.uncertain == 0:
        return True
    if f.is_zero():
        return False
    witnesses = list(enum.system)
    for i in range(len(enum.system)):
        for j in range(i + 1, len(enum.system)):
            diff = enum.system[i] - enum.system[j]
            if not diff.is_zero():
                witnesses.append(diff)
    for fac in enum.unresolved_x:
        proved = False
        for other in witnesses:
            elim = _elimination_in_x(other, f)
            if elim is not None and ucoprime(fac, elim):
                proved = True
                break
        if not proved:
            return False
    for x0, fac in enum.unresolved_y:
        fv = _specialize_keeping(f, 1, [x0, ZERO])
        if not fv:
            return False  # curve contains the whole vertical line
        if not ucoprime(fac, fv):
            return False
    if enum.unresolved_inf:
        at_infinity = _at_infinity(homogenize(f, int(f.degree)))
        if not all(ucoprime(fac, at_infinity) for fac in enum.unresolved_inf):
            return False
    return True


# -- foliation singularities -------------------------------------------------------


def _isolated_components(field: AffineVectorField) -> tuple[MultiPoly, MultiPoly] | None:
    """The field's two components once their common zeros are proven
    isolated, or None when there are none: one component vanishes and the
    other is a nonzero constant."""
    u, w = field.component_x, field.component_y
    if u.is_zero() and w.is_zero():
        raise DegenerateInput("identically zero field")
    if u.is_zero() or w.is_zero():
        if (w if u.is_zero() else u).is_constant():
            return None
        raise NonIsolatedSingularities("one component vanishes identically")
    if not field.component_gcd.is_constant():
        raise NonIsolatedSingularities("components share a polynomial factor")
    return u, w


def affine_singularities(field: AffineVectorField) -> Enumeration:
    """All finite singular points with Q(i) coordinates, plus residual count."""
    components = _isolated_components(field)
    return Enumeration() if components is None else _coprime_common_zeros(*components)


def line_singularities(field: AffineVectorField, f: MultiPoly) -> Enumeration:
    """The finite singular points on the line f = a x + b y + c = 0.

    Along x = t, y = -(a t + c)/b when b != 0, else x = -c/a, y = t, each
    component restricts to a polynomial in t of at most its own degree, and
    the gcd of the two vanishes exactly at the singular points on the line.
    That gcd is not zero: the line would divide both components, whose
    common zeros `_isolated_components` proves isolated.  Its Q(i) roots
    give every Q(i) point, in one root search and with no eliminant; the
    degree left lies on the line, so it is a hard residual."""
    components = _isolated_components(field)
    if components is None:
        return Enumeration()
    a, b, c = (f.coefficient(e) for e in ((1, 0), (0, 1), (0, 0)))
    line = ((ZERO, ONE), (-c / b, -a / b)) if b else ((-c / a, ZERO), (ZERO, ONE))  # x and y: (value at t = 0, slope)
    n = max(int(u.degree) for u in components)
    series = [PowerSeries.from_list(coords, n) for coords in line]
    rep = qi_roots(ugcd(*(compose_poly(u, *series).num for u in components)))
    points = {ProjectivePoint.affine(*(at0 + slope * t for at0, slope in line)) for t in rep.roots}
    return Enumeration(points=sorted(points, key=str), hard_residual=rep.residual_degree + rep.uncertain_degree)


def _at_infinity(G: MultiPoly) -> Coeffs:
    """G(1, t, 0): G on Z = 0 in the chart X = 1.  A homogeneous G of degree d
    vanishes at (0 : 1 : 0) exactly when this list has degree below d."""
    return _specialize_keeping(G, 1, [ONE, ZERO, ZERO])


def _zeros_at_infinity(g: Coeffs, at_0_1_0: bool) -> tuple[list[ProjectivePoint], RootReport]:
    """Q(i) points on Z = 0, (1 : t : 0) for the roots t of g then (0 : 1 : 0)
    when `at_0_1_0`, and the root report of g, whose unresolved and uncertain
    degrees count the points not listed.  g must not be zero."""
    rep = qi_roots(g) if len(g) > 1 else RootReport()
    pts = [ProjectivePoint.make(ONE, t, ZERO) for t in rep.roots]
    if at_0_1_0:
        pts.append(ProjectivePoint.make(ZERO, ONE, ZERO))
    return pts, rep


def infinite_singularities(form: ProjectiveOneForm) -> Enumeration:
    """Singular points on Z = 0: common zeros of P, Q, R restricted there."""
    p, q, r = (_at_infinity(G) for G in (form.P, form.Q, form.R))
    g = ugcd(ugcd(p, q), r)
    if not g:
        raise DegenerateInput("the whole line at infinity is singular")
    out = Enumeration()
    pts, rep = _zeros_at_infinity(g, all(len(c) <= form.m + 1 for c in (p, q, r)))
    out.residual += rep.residual_degree
    out.uncertain += rep.uncertain_degree
    out.unresolved_inf.extend(rep.unresolved + rep.uncertain)
    out.points = sorted(set(pts), key=str)
    return out


# -- dicritical classification ------------------------------------------------------


def _chart_field(field: AffineVectorField, chart: str) -> tuple[MultiPoly, MultiPoly]:
    return field.reduced_components if chart == CHART_Z else field.one_form.chart_components(chart)


def classify_dicritical(field: AffineVectorField, point: ProjectivePoint) -> SingularityRecord:
    """Partial eigenvalue-based classification with an honest Unknown.

    NonDicritical needs nonzero eigenvalues whose ratio is provably not a
    positive rational; Dicritical needs an exact star node.  Everything else
    (resonant ratio, zero eigenvalue, nilpotent) is Unknown.
    """
    chart = point.chart()
    a, b = _chart_field(field, chart)
    c1, c2 = point.chart_coords(chart)
    if not (a.evaluate((c1, c2)).is_zero() and b.evaluate((c1, c2)).is_zero()):
        raise PreconditionError(f"{point} is not a singular point of the field")
    jac = tuple(tuple(p.partial(v).evaluate((c1, c2)) for v in (0, 1)) for p in (a, b))
    (j11, j12), (j21, j22) = jac

    def record(verdict: Verdict, reason: str) -> SingularityRecord:
        return SingularityRecord(point, chart, jac, verdict, reason)

    if j12.is_zero() and j21.is_zero() and j11 == j22:
        if j11.is_zero():
            return record(Verdict.UNKNOWN, "zero-jacobian")
        # scalar Jacobian alone does not decide: only the exact linear star
        # (every ray invariant) is certifiably dicritical; a and b vanish at
        # the point, so the shifted field is that star exactly when both are linear
        if a.degree == 1 and b.degree == 1:
            return record(Verdict.DICRITICAL, "star-node")
        return record(Verdict.UNKNOWN, "star-jacobian-with-higher-terms")
    tr = j11 + j22
    det = j11 * j22 - j12 * j21
    if det.is_zero():
        reason = "nilpotent" if tr.is_zero() else "zero-eigenvalue"
        return record(Verdict.UNKNOWN, reason)
    # eigenvalue ratio rho solves det*rho^2 + (2*det - tr^2)*rho + det = 0
    disc = (gr(2) * det - tr * tr) ** 2 - gr(4) * det * det
    s = disc.sqrt()
    if s is None:
        return record(Verdict.NON_DICRITICAL, "eigenvalue-ratio-not-rational")
    inv = (gr(2) * det).inverse()
    for root in ((tr * tr - gr(2) * det + s) * inv, (tr * tr - gr(2) * det - s) * inv):
        if root.is_real() and root.re > 0:
            return record(Verdict.UNKNOWN, "resonant-ratio")
    return record(Verdict.NON_DICRITICAL, "eigenvalue-ratio-not-positive-rational")


# -- curve singularities ---------------------------------------------------------


def _order_and_node(f: MultiPoly, x0: GaussianRational, y0: GaussianRational) -> tuple[int, bool, MultiPoly]:
    """Order of f at (x0, y0) (0 off the curve), whether it is a node, and f shifted there."""
    local = f.shift((x0, y0))
    order = int(min(sum(e) for e in local.terms))
    if order != 2:
        return order, False, local
    a = local.coefficient((2, 0))
    b = local.coefficient((1, 1))
    c = local.coefficient((0, 2))
    return order, not (b * b - gr(4) * a * c).is_zero(), local


def curve_singularities(f: MultiPoly) -> tuple[list[CurveSingularity], Enumeration]:
    """Affine singular points of a squarefree curve, with residual accounting."""
    require_reduced_curve(f)
    fx, fy = f.partial(0), f.partial(1)
    merged = Enumeration(system=(fx, fy) if not (fx.is_zero() or fy.is_zero()) else (f,))
    candidates: list[ProjectivePoint] = []

    def absorb(enum: Enumeration, on_curve: bool):
        # residuals from pairs involving f itself sit on the curve: hard
        if on_curve:
            merged.hard_residual += enum.residual + enum.uncertain
        else:
            merged.residual += enum.residual
            merged.uncertain += enum.uncertain
            merged.unresolved_x.extend(enum.unresolved_x)
            merged.unresolved_y.extend(enum.unresolved_y)
        candidates.extend(enum.points)

    if fx.is_zero() or fy.is_zero():
        nz = fy if fx.is_zero() else fx
        absorb(pair_common_zeros(f, nz), on_curve=True)
    else:
        g = poly_gcd(fx, fy)
        if g.is_constant():
            absorb(pair_common_zeros(fx, fy), on_curve=False)
        else:
            absorb(pair_common_zeros(g, f), on_curve=True)
            qx, qy = exact_divide(fx, g), exact_divide(fy, g)
            if qx is None or qy is None:
                raise ArithmeticError("the gradient gcd must divide both components")
            if not poly_gcd(qx, qy).is_constant():
                raise NonIsolatedSingularities("gradient components stay coupled")
            absorb(pair_common_zeros(qx, qy), on_curve=False)

    records = []
    seen = set()
    for pt in candidates:
        if pt in seen:
            continue
        seen.add(pt)
        x0, y0 = pt.chart_coords(CHART_Z)
        if not f.evaluate((x0, y0)).is_zero():
            continue
        order, node, _local = _order_and_node(f, x0, y0)
        if order >= 2:
            records.append(CurveSingularity(pt, order, node))
    records.sort(key=lambda r: str(r.point))
    return records, merged


def _infinity_points_of_curve(F: MultiPoly) -> tuple[list[ProjectivePoint], int]:
    """Q(i) points of the curve F = 0 on Z = 0, plus the degree left undecided.

    F is an affine curve homogenized at its own degree, so F(X, Y, 0) is the
    curve's top form, which is not zero."""
    at_infinity = _at_infinity(F)
    pts, rep = _zeros_at_infinity(at_infinity, len(at_infinity) <= F.degree)
    return pts, rep.residual_degree + rep.uncertain_degree


def curve_singularities_decided(f: MultiPoly) -> tuple[list[CurveSingularity], bool]:
    """Singular points plus a flag: True when the list is provably complete.

    Unresolved critical coordinates are discharged when an exact gcd test
    proves they miss the curve.
    """
    records, enum = curve_singularities(f)
    return records, enum.undecided_on(f) == 0


def _nodal(f: MultiPoly, include_infinity: bool, transversal: bool) -> bool | None:
    """Every singular point is a node: True / False / None (= undecided).

    include_infinity adds the closure's points on Z = 0; transversal also
    requires a smooth one to cross Z = 0 transversally.
    """
    records, decided = curve_singularities_decided(f)
    if any(not rec.is_node for rec in records):
        return False
    undecided = not decided
    if include_infinity:
        F = homogenize(f, int(f.degree))
        pts, undecided_degree = _infinity_points_of_curve(F)
        undecided = undecided or undecided_degree > 0
        for pt in pts:
            chart = pt.chart()
            u0, v0 = pt.chart_coords(chart)
            order, node, local = _order_and_node(dehomogenize(F, chart_var(chart)), u0, v0)
            if order == 1:
                # Z = 0 is the chart line v = 0: transversal iff the du-part is present
                if transversal and local.coefficient((1, 0)).is_zero():
                    return False
            elif not node:
                return False
    return None if undecided else True


def is_nodal(f: MultiPoly, include_infinity: bool = True) -> bool | None:
    """True / False / None (= undecided because of unresolved coordinates)."""
    return _nodal(f, include_infinity, transversal=include_infinity)
