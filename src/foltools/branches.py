"""Local branches of curves, pullback multiplicities, and the Euler-characteristic
identity chi = sum(mu) - n(m-1) for invariant curves of degree-m foliations.

Branches are truncated power-series parameterizations with Gaussian-rational
coefficients.  Only smooth points and nodes are expanded; anything else is an
explicit Unsupported outcome, never a silent wrong answer.
"""

from __future__ import annotations

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
from .polyring import MultiPoly, dehomogenize, homogenize, require_reduced_curve
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
    line_singularities,
)


def default_truncation(m: int, curve_degree: int) -> int:
    """Twice a truncation that certifies every branch of an invariant curve
    of degree n under a degree-m foliation.  The chart field (a, b) has
    degree at most m + 1 and isolated zeros, so one of a, b is not zero on
    the branch's component; mu is at most its order along the branch, at
    most n(m + 1) by Bezout.  `branch_multiplicity` knows R through
    t^(N-1-v), where v, the order of the derivative it divides by, is the
    branch's contact with its tangent line less one, so v <= n - 1 and
    N = n(m + 2) suffices (Fulton, Algebraic Curves, ch. 3 and 5)."""
    return max(8, 2 * (m + 2) * curve_degree)


class Branch:
    """Truncated parameterization t -> (phi1(t), phi2(t)) of one local branch."""

    __slots__ = _fields = ("base", "chart", "phi1", "phi2", "truncation")

    def __init__(self, base: ProjectivePoint, chart: str, phi1: PowerSeries, phi2: PowerSeries, truncation: int):
        self.base, self.chart, self.phi1, self.phi2, self.truncation = base, chart, phi1, phi2, truncation

    def _key(self) -> tuple:
        return self.base, self.chart, self.phi1, self.phi2, self.truncation

    def __eq__(self, other) -> bool:
        return isinstance(other, Branch) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


def _solve_series(h: MultiPoly, w0: GaussianRational, truncation: int) -> PowerSeries:
    """Series w(t), w(0) = w0, with h(t, w(t)) = 0 mod t^(N+1).  Needs
    h_w(0, w0) != 0.  When h = h0(t) + h1(t) w, as at every smooth point of
    a line, w = -h0 / h1 by one series division.  Otherwise Newton's
    iteration w <- w - h(t, w) / h_w(t, w): a w right mod t^k is right mod
    t^(2k), so each step composes at twice the last precision."""
    hw = h.partial(1)
    if hw.evaluate((ZERO, w0)).is_zero():
        raise PreconditionError("series solve requires a transversal derivative")
    if h.degree_in(1) == 1:
        rows = ([(0, 0)] * (truncation + 1), [(0, 0)] * (truncation + 1))
        for (i, j), u in h.num.items():
            if i <= truncation:
                rows[j][i] = u
        return -PowerSeries(rows[0], 1).divide(PowerSeries(rows[1], 1))
    w = PowerSeries.constant(w0, 0)
    k = 1  # coefficients of w known
    while k <= truncation:
        k = min(2 * k, truncation + 1)
        t = PowerSeries.identity(k - 1)
        w = PowerSeries(w.num + ((0, 0),) * (k - len(w.num)), w.den)
        w = w - compose_poly(h, t, w).divide(compose_poly(hw, t, w))
    return w


def _branches_at_chart_point(
    g: MultiPoly,
    base: ProjectivePoint,
    chart: str,
    u0: GaussianRational,
    v0: GaussianRational,
    truncation: int,
) -> list[Branch]:
    """One branch per tangent of a smooth point or a node: the series root
    w(t) of the strict transform h(u, w) = local(u, u w) / u^order, lifted
    from the tangent's slope, gives (t, t w(t)); a vertical tangent swaps
    the two variables first and gives (t w(t), t)."""
    order, node, local = _order_and_node(g, u0, v0)
    if order == 0:
        raise PreconditionError(f"{base} is not on the curve")
    if order > 2:
        raise UnsupportedBranch(f"point of order {order}; only smooth points and nodes supported")
    if order == 2 and not node:
        raise UnsupportedBranch("order-2 point with a repeated tangent (cusp-like)")
    low = [local.coefficient((order - k, k)) for k in range(order + 1)]  # lowest form at (1, w)
    while low[-1].is_zero():
        low.pop()
    slopes = []
    if len(low) == 2:
        slopes = [-low[0] / low[1]]
    elif len(low) == 3:
        a, b, c = low
        sq = (b * b - gr(4) * a * c).sqrt()
        if sq is None:
            raise UnsupportedBranch("node tangent directions lie outside Q(i)")
        slopes = [(-b + sq) / (gr(2) * c), (-b - sq) / (gr(2) * c)]
    tangents = [(w0, False) for w0 in slopes] + [(ZERO, True)] * (order + 1 - len(low))
    t = PowerSeries.identity(truncation)
    branches = []
    for w0, vertical in tangents:
        h = MultiPoly._of(
            2, local.den, {(i + j - order, i if vertical else j): u for (i, j), u in local.num.items()}
        )
        co = t * _solve_series(h, w0, truncation)
        phi1, phi2 = (co, t) if vertical else (t, co)
        branches.append(Branch(base, chart, phi1.shift_constant(u0), phi2.shift_constant(v0), truncation))
    return branches


def local_branches(f: MultiPoly, point: ProjectivePoint, truncation: int) -> list[Branch]:
    """Branches of the (closure of the) affine curve f at a projective point.

    Smooth point: one branch.  Node with Q(i)-rational tangents: two branches.
    Everything else raises UnsupportedBranch.
    """
    require_reduced_curve(f)
    return _branches_at(f, point, truncation)


def _branches_at(f: MultiPoly, point: ProjectivePoint, truncation: int) -> list[Branch]:
    """`local_branches` of a curve that `require_reduced_curve` has passed."""
    chart = point.chart()
    g = dehomogenize(homogenize(f, int(f.degree)), chart_var(chart))
    u0, v0 = point.chart_coords(chart)
    return _branches_at_chart_point(g, point, chart, u0, v0, truncation)


def branch_multiplicity(
    field: AffineVectorField, branch: Branch
) -> tuple[int | None, bool]:
    """Order at t=0 of the pullback R(t) d/dt of the field along the branch.

    Returns (mu, certified); mu is None when every computed coefficient of
    R vanished up to the truncation, which `default_truncation` rules out,
    so only an explicit smaller truncation calls for a retry with a larger one.
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
    field: AffineVectorField, f: MultiPoly, point: ProjectivePoint
) -> list[tuple[int, Branch]]:
    """Multiplicities of all branches at a point of a curve that `require_reduced_curve`
    has passed, from one expansion at `default_truncation`: only a fault leaves one uncertified."""
    truncation = default_truncation(field.m, int(f.degree))
    result = []
    for br in _branches_at(f, point, truncation):
        mu, certified = invariant_branch_multiplicity(field, br)
        if not certified:
            raise UncertifiedResult(f"multiplicity at {point} uncertified up to truncation {truncation}")
        result.append((mu, br))
    return result


class EulerReport:
    """Outcome of the chi = sum(mu) - n(m-1) identity check; `multiplicities`
    holds its point / branch / mu rows."""

    __slots__ = _fields = (
        "curve_degree", "foliation_degree", "multiplicities", "sum_mu", "chi_claimed", "identity_holds", "checkable", "notes"
    )

    def __init__(self, curve_degree: int, foliation_degree: int, chi_claimed: int):
        self.curve_degree, self.foliation_degree, self.chi_claimed = curve_degree, foliation_degree, chi_claimed
        self.multiplicities: list[dict] = []
        self.sum_mu, self.identity_holds, self.checkable = 0, False, True
        self.notes: list[str] = []


def singular_points_on_curve(
    field: AffineVectorField, f: MultiPoly
) -> tuple[list[ProjectivePoint], tuple[Enumeration, Enumeration]]:
    """The field's singular points on the projective closure of f, and the
    affine and infinite enumerations they were taken from.  On a line the
    affine points come from the components restricted to it; any other
    curve has no polynomial parametrisation, and takes them from the
    whole plane."""
    require_reduced_curve(f)
    aff = line_singularities(field, f) if f.degree == 1 else affine_singularities(field)
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

    on_curve, enumerations = singular_points_on_curve(field, f)
    for enum, kind in zip(enumerations, ("affine", "infinite")):
        if undecided := enum.undecided_on(f):
            report.checkable = False
            report.notes.append(
                f"{kind} enumeration left degree {undecided} unresolved and not provably off the curve"
            )
    if not report.checkable:
        return report

    total = 0
    for pt in on_curve:
        try:
            rows = _resolved_multiplicity(field, f, pt)
        except UnsupportedBranch as exc:
            report.checkable = False
            report.notes.append(f"unsupported branch at {pt}: {exc.reason}")
            return report
        except UncertifiedResult as exc:
            report.checkable = False
            report.notes.append(str(exc))
            return report
        for idx, (mu, _br) in enumerate(rows):
            report.multiplicities.append({"point": str(pt), "branch": idx, "mu": mu})
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
    Hamiltonian foliation of f: one Euler report, whose rows at the curve's
    points at infinity must all read mu = 1."""
    records, decided = curve_singularities_decided(f)
    if f.degree != n:
        raise PreconditionError(f"curve degree {f.degree} != n = {n}")
    if records:
        raise PreconditionError("curve must be smooth")
    if not decided:
        raise UncertifiedResult("smoothness undecided (unresolved singular coordinates)")
    pts, residual = _infinity_points_of_curve(homogenize(f, n))
    if residual:
        raise UncertifiedResult("infinity points not all Q(i)-rational")
    if len(pts) != n:
        raise PreconditionError(
            f"curve meets the line at infinity in {len(pts)} rational points, need {n}"
        )
    field = AffineVectorField.make(-f.partial(1), f.partial(0))
    report = euler_identity_check(field, f, -n * (n - 3))
    at_infinity = {str(pt) for pt in pts}
    ones = all(row["mu"] == 1 for row in report.multiplicities if row["point"] in at_infinity)
    return ones and report.checkable and report.identity_holds, report
