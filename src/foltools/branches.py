"""Local branches of curves, pullback multiplicities, and the Euler-characteristic
identity chi = sum(mu) - n(m-1) for invariant curves of degree-m foliations.

Branches are truncated power-series parameterizations with Gaussian-rational
coefficients.  Only smooth points and nodes are expanded; anything else is an
explicit Unsupported outcome, never a silent wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield

from .errors import PreconditionError, UncertifiedResult, UnsupportedBranch
from .fields import (
    CHART_X,
    AffineVectorField,
    ProjectiveOneForm,
    chart_var,
    deprojectivize,
    invariance_check,
)
from .gaussian import GaussianRational, ZERO, gr
from .polyring import MultiPoly, dehomogenize, exact_divide, homogenize, is_squarefree
from .series import PowerSeries, compose_poly
from .singularities import (
    Enumeration,
    ProjectivePoint,
    _chart_field,
    _infinity_points_of_curve,
    _nodal,
    _order_and_node,
    affine_singularities,
    curve_singularities_decided,
    infinite_singularities,
    residual_avoids_curve,
)

MAX_DOUBLINGS = 3


def default_truncation(m: int, curve_degree: int) -> int:
    return max(8, 2 * (m + 2) * curve_degree)


@dataclass(frozen=True)
class Branch:
    """Truncated parameterization t -> (phi1(t), phi2(t)) of one local branch."""

    base: ProjectivePoint
    chart: str
    phi1: PowerSeries
    phi2: PowerSeries
    truncation: int

    def center(self) -> tuple[GaussianRational, GaussianRational]:
        return self.phi1.coefficient(0), self.phi2.coefficient(0)


def _solve_series(g: MultiPoly, truncation: int, solve_var: int) -> PowerSeries:
    """Series s(t), s(0)=0, with g(t, s(t)) = 0 mod t^(N+1) (solve_var = 1)
    or g(s(t), t) = 0 (solve_var = 0).  Needs d(g)/d(solve_var) != 0 at 0."""
    gs0 = g.partial(solve_var).evaluate((ZERO, ZERO))
    if gs0.is_zero():
        raise PreconditionError("series solve requires a transversal derivative")
    inv = gs0.inverse()
    n = truncation
    s = PowerSeries.constant(ZERO, n)
    t = PowerSeries.identity(n)
    for k in range(1, n + 1):
        args = (t, s) if solve_var == 1 else (s, t)
        residual = compose_poly(g, *args)
        ek = residual.coefficient(k)
        if ek.is_zero():
            continue
        bump = [ZERO] * (k) + [-ek * inv]
        s = s + PowerSeries.from_list(bump, n)
    return s


def _branches_at_chart_point(
    g: MultiPoly,
    base: ProjectivePoint,
    chart: str,
    u0: GaussianRational,
    v0: GaussianRational,
    truncation: int,
) -> list[Branch]:
    order, node, local = _order_and_node(g, u0, v0)
    if order == 0:
        raise PreconditionError(f"{base} is not on the curve")
    t = PowerSeries.identity(truncation)
    if order == 1:
        if not local.coefficient((0, 1)).is_zero():
            s = _solve_series(local, truncation, solve_var=1)
            phi1, phi2 = t.shift_constant(u0), s.shift_constant(v0)
        else:
            s = _solve_series(local, truncation, solve_var=0)
            phi1, phi2 = s.shift_constant(u0), t.shift_constant(v0)
        return [Branch(base, chart, phi1, phi2, truncation)]
    if order != 2:
        raise UnsupportedBranch(f"point of order {order}; only smooth points and nodes supported")
    if not node:
        raise UnsupportedBranch("order-2 point with a repeated tangent (cusp-like)")
    a = local.coefficient((2, 0))
    b = local.coefficient((1, 1))
    c = local.coefficient((0, 2))
    sq = (b * b - gr(4) * a * c).sqrt()
    if sq is None:
        raise UnsupportedBranch("node tangent directions lie outside Q(i)")
    branches = []
    if not c.is_zero():
        slopes = [(-b + sq) / (gr(2) * c), (-b - sq) / (gr(2) * c)]
        for s0 in slopes:
            branches.append(_node_branch(local, base, chart, u0, v0, s0, truncation, by_u=True))
    else:
        branches.append(_node_branch(local, base, chart, u0, v0, -a / b, truncation, by_u=True))
        branches.append(_node_branch(local, base, chart, u0, v0, ZERO, truncation, by_u=False))
    return branches


def _node_branch(
    local: MultiPoly,
    base: ProjectivePoint,
    chart: str,
    u0: GaussianRational,
    v0: GaussianRational,
    slope: GaussianRational,
    truncation: int,
    by_u: bool,
) -> Branch:
    """Branch along one tangent of a node: the co-variable is slope*t + t*z(t)."""
    uu, vv = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    scaled = uu * (MultiPoly.constant(2, slope) + vv)  # stands for t*(slope + z)
    subs = {0: uu, 1: scaled} if by_u else {0: scaled, 1: uu}
    composed = local.substitute(subs)
    reduced = exact_divide(composed, uu * uu)
    if reduced is None:
        raise ArithmeticError("order-2 point must factor t^2 out")
    z = _solve_series(reduced, truncation, solve_var=1)
    t = PowerSeries.identity(truncation)
    co = (t.scale(slope) + t * z).truncate(truncation)
    if by_u:
        phi1, phi2 = t.shift_constant(u0), co.shift_constant(v0)
    else:
        phi1, phi2 = co.shift_constant(u0), t.shift_constant(v0)
    return Branch(base, chart, phi1, phi2, truncation)


def local_branches(f: MultiPoly, point: ProjectivePoint, truncation: int | None = None) -> list[Branch]:
    """Branches of the (closure of the) affine curve f at a projective point.

    Smooth point: one branch.  Node with Q(i)-rational tangents: two branches.
    Everything else raises UnsupportedBranch.
    """
    if f.is_zero() or f.is_constant():
        raise PreconditionError("curve must be nonconstant")
    if not is_squarefree(f):
        raise PreconditionError("curve must be squarefree")
    n = truncation if truncation is not None else default_truncation(2, int(f.degree))
    chart = point.chart()
    g = dehomogenize(homogenize(f, int(f.degree)), chart_var(chart))
    u0, v0 = point.chart_coords(chart)
    return _branches_at_chart_point(g, point, chart, u0, v0, n)


def branch_multiplicity(
    field: AffineVectorField, branch: Branch
) -> tuple[int | None, bool]:
    """Order at t=0 of the pullback R(t) d/dt of the field along the branch.

    Returns (mu, certified); mu is None when every computed coefficient of
    R vanished up to the truncation (caller should retry with a larger one).
    Raises PreconditionError when the pullback is inconsistent (branch not
    invariant under the field).
    """
    a, b = _chart_field(field, branch.chart)
    A1 = compose_poly(a, branch.phi1, branch.phi2)
    A2 = compose_poly(b, branch.phi1, branch.phi2)
    d1 = branch.phi1.derivative()
    d2 = branch.phi2.derivative()
    lhs = A1.truncate(d2.truncation) * d2
    rhs = A2.truncate(d1.truncation) * d1
    if lhs - rhs != PowerSeries.constant(ZERO, min(lhs.truncation, rhs.truncation)):
        raise PreconditionError("pullback inconsistency: branch is not invariant under the field")
    if not d1.is_zero_to_truncation():
        R = A1.divide(d1)
    elif not d2.is_zero_to_truncation():
        R = A2.divide(d2)
    else:
        raise PreconditionError("degenerate branch parameterization")
    if R is None:
        raise PreconditionError("pullback is not a power series; branch is not invariant")
    mu = R.order()
    if mu is None:
        return None, False
    return mu, True


def invariant_branch_multiplicity(field: AffineVectorField, branch: Branch) -> tuple[int | None, bool]:
    """branch_multiplicity for a branch of a curve already proven invariant
    under the field.  Its pullback checks cannot then fail on the input, so a
    failure shows a fault of the truncated series and raises UncertifiedResult."""
    try:
        return branch_multiplicity(field, branch)
    except PreconditionError as exc:
        raise UncertifiedResult(f"branch at {branch.base}: {exc}") from exc


def _resolved_multiplicity(
    field: AffineVectorField, f: MultiPoly, point: ProjectivePoint, truncation: int
) -> list[tuple[int, Branch]]:
    """Multiplicities of all branches at a point, doubling truncation as needed."""
    n = truncation
    for _ in range(MAX_DOUBLINGS + 1):
        branches = local_branches(f, point, n)
        result = []
        ok = True
        for br in branches:
            mu, certified = invariant_branch_multiplicity(field, br)
            if not certified:
                ok = False
                break
            result.append((mu, br))
        if ok:
            return result
        n *= 2
    raise UncertifiedResult(f"multiplicity at {point} uncertified up to truncation {n}")


@dataclass
class EulerReport:
    """Outcome of the chi = sum(mu) - n(m-1) identity check."""

    curve_degree: int
    foliation_degree: int
    table: list[dict] = dfield(default_factory=list)  # point / branch / mu rows
    sum_mu: int = 0
    chi_claimed: int = 0
    identity_holds: bool = False
    checkable: bool = True
    notes: list[str] = dfield(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "curve_degree": self.curve_degree,
            "foliation_degree": self.foliation_degree,
            "multiplicities": self.table,
            "sum_mu": self.sum_mu,
            "chi_claimed": self.chi_claimed,
            "identity_holds": self.identity_holds,
            "checkable": self.checkable,
            "notes": self.notes,
        }


def singular_points_on_curve(
    field: AffineVectorField, f: MultiPoly
) -> tuple[list[ProjectivePoint], tuple[Enumeration, Enumeration]]:
    """The field's singular points on the projective closure of f, and the
    affine and infinite enumerations they were taken from."""
    if f.is_constant():
        raise PreconditionError("curve must be a nonconstant polynomial")
    aff = affine_singularities(field)
    inf = infinite_singularities(field.one_form)
    F = homogenize(f, int(f.degree))
    return [p for p in aff.points + inf.points if F.evaluate(p.coords).is_zero()], (aff, inf)


def euler_identity_check(
    source: AffineVectorField | ProjectiveOneForm,
    f: MultiPoly,
    chi: int,
) -> EulerReport:
    """Check chi = sum of branch multiplicities - n(m-1) for an invariant curve."""
    field = deprojectivize(source) if isinstance(source, ProjectiveOneForm) else source
    if invariance_check(field, f) is None:
        raise PreconditionError("curve is not invariant under the field")
    n = int(f.degree)
    m = field.m
    report = EulerReport(curve_degree=n, foliation_degree=m, chi_claimed=chi)
    N = default_truncation(m, n)

    on_curve, enumerations = singular_points_on_curve(field, f)
    for enum, kind in zip(enumerations, ("affine", "infinite")):
        if (enum.residual or enum.uncertain) and not residual_avoids_curve(enum, f):
            report.checkable = False
            report.notes.append(
                f"{kind} enumeration left degree {enum.residual + enum.uncertain} "
                "unresolved and not provably off the curve"
            )
    if not report.checkable:
        return report

    total = 0
    for pt in on_curve:
        try:
            rows = _resolved_multiplicity(field, f, pt, N)
        except UnsupportedBranch as exc:
            report.checkable = False
            report.notes.append(f"unsupported branch at {pt}: {exc.reason}")
            return report
        except UncertifiedResult as exc:
            report.checkable = False
            report.notes.append(str(exc))
            return report
        for idx, (mu, _br) in enumerate(rows):
            report.table.append({"point": str(pt), "branch": idx, "mu": mu})
            total += mu
    report.sum_mu = total
    report.identity_holds = chi == total - n * (m - 1)
    return report


# -- behavior at transversal infinity points -----------------------------------


def infinity_branch_data(field: AffineVectorField, f: MultiPoly, point: ProjectivePoint) -> tuple[int, int]:
    """(l, mu) at a transversal intersection of the curve with Z = 0.

    l is the t-order along the branch of the chart transform of the driving
    component; mu = l + 1 is cross-checked against branch_multiplicity.
    Requires the line at infinity (r = 0) and the curve invariant.
    """
    if not field.r.is_zero():
        raise PreconditionError("infinity branch data requires r = 0")
    if not point.is_infinite:
        raise PreconditionError("point must lie on the line at infinity")
    if invariance_check(field, f) is None:
        raise PreconditionError("curve is not invariant under the field")
    n = int(f.degree)
    N = default_truncation(field.m, n)
    F = homogenize(f, n)
    if not F.evaluate(point.coords).is_zero():
        raise PreconditionError(f"{point} is not on the projective closure of the curve")
    chart = point.chart()
    var = chart_var(chart)
    g = dehomogenize(F, var)
    u0, v0 = point.chart_coords(chart)
    order, _node, local = _order_and_node(g, u0, v0)
    if order != 1 or local.coefficient((1, 0)).is_zero():
        raise PreconditionError("curve does not meet the line at infinity transversally here")
    branch = _branches_at_chart_point(g, point, chart, u0, v0, N)[0]
    # branch is parameterized by v (phi2 = v0 + t with v0 = 0 on Z = 0)
    driving = field.p if chart == CHART_X else field.q
    m = field.m
    transform = dehomogenize(homogenize(driving, m), var) if not driving.is_zero() else MultiPoly.zero(2)
    series = compose_poly(transform, branch.phi1, branch.phi2)
    l = series.order()
    if l is None:
        raise UncertifiedResult("driving component vanished to the whole truncation")
    mu, certified = invariant_branch_multiplicity(field, branch)
    if not certified:
        raise UncertifiedResult("branch multiplicity uncertified at this truncation")
    if mu != l + 1:
        raise AssertionError(f"cross-check failed: mu={mu} but l+1={l + 1}")
    return l, mu


# -- genus and Euler characteristic of nodal curves ------------------------------


def genus_and_chi(
    f: MultiPoly, component_degrees: list[int], component_node_counts: list[int]
) -> tuple[list[int], int]:
    """Per-component geometric genus and intrinsic Euler characteristic.

    The irreducible-component split (degrees and per-component node counts,
    nodes of the projective closure) is supplied by the caller; the curve
    itself is verified to be nodal.
    """
    if len(component_degrees) != len(component_node_counts):
        raise PreconditionError("one node count per component degree required")
    if sum(component_degrees) != int(f.degree):
        raise PreconditionError("component degrees must sum to deg f")
    nodal = _nodal(f, include_infinity=True, transversal=False)
    if nodal is False:
        raise PreconditionError("curve is not nodal; genus formula does not apply")
    if nodal is None:
        raise UncertifiedResult("nodality undecided (unresolved singular coordinates)")
    genus = []
    for d, delta in zip(component_degrees, component_node_counts):
        g = (d - 1) * (d - 2) // 2 - delta
        if g < 0:
            raise PreconditionError(f"degree {d} with {delta} nodes gives negative genus")
        genus.append(g)
    chi = sum(2 - 2 * g for g in genus)
    return genus, chi


def corollary2_check(n: int, f: MultiPoly) -> tuple[bool, EulerReport]:
    """Euler characteristic -n(n-3) of a smooth degree-n curve via the
    Hamiltonian foliation of f; also checks every infinity multiplicity is 1."""
    records, decided = curve_singularities_decided(f)
    if f.degree != n:
        raise PreconditionError(f"curve degree {f.degree} != n = {n}")
    if records:
        raise PreconditionError("curve must be smooth")
    if not decided:
        raise UncertifiedResult("smoothness undecided (unresolved singular coordinates)")
    F = homogenize(f, n)
    pts, residual = _infinity_points_of_curve(F)
    if residual:
        raise UncertifiedResult("infinity points not all Q(i)-rational")
    if len(pts) != n:
        raise PreconditionError(
            f"curve meets the line at infinity in {len(pts)} rational points, need {n}"
        )
    field = AffineVectorField.make(-f.partial(1), f.partial(0))
    chi = -n * (n - 3)
    for pt in pts:
        _l, mu = infinity_branch_data(field, f, pt)
        if mu != 1:
            return False, euler_identity_check(field, f, chi)
    report = euler_identity_check(field, f, chi)
    return report.checkable and report.identity_holds, report
