"""Numeric certification of ovals as hyperbolic limit cycles.

The hyperbolicity functional is the divergence integral D = closed-loop
integral of div(X) dt along the periodic orbit; its sign gives stability and
a confidently nonzero value gives hyperbolicity.  D and the period T are
Romberg estimates from midpoint sums along the traced polyline, and
`quadrature_rel_err` is the relative change between the last two
extrapolations: an estimate of the error of the reported D and T, not a
proven bound.  Numerics can confirm but not refute at this scale, so |D|
below the threshold yields "inconclusive", never "not hyperbolic".
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import numpy as np

from .errors import DegenerateInput, PreconditionError, UncertifiedResult
from .fields import AffineVectorField, divergence, iif_check, invariance_check
from .polyring import MultiPoly
from .realtopo import _BEYOND_FLOAT, _gamma, _horner, _horner_with_gradient, refine_polyline

THRESHOLD_FACTOR = 1000.0  # |D| must exceed this multiple of the error estimate
TARGET_REL = 1e-6  # `divergence_integral` refines while its Romberg estimate exceeds this
MAX_REFINEMENTS = 8  # midpoint refinements `divergence_integral` may make
LOCATION_TOLERANCE = 1e-8  # an oval passes `location_check` when its residual is below this


class CycleCertificate:
    __slots__ = ("oval_id", "period", "divergence_integral", "stability", "hyperbolic", "quadrature_rel_err", "v_residual")
    _fields = __slots__ + ("period_precision", "divergence_integral_precision")

    def __init__(
        self,
        oval_id: int,
        period: float,
        divergence_integral: float,
        stability: str,  # "Stable" | "Unstable" | "inconclusive"
        hyperbolic: bool,
        quadrature_rel_err: float,
        v_residual: float | None = None,
    ):
        self.oval_id, self.period, self.divergence_integral, self.stability = oval_id, period, divergence_integral, stability
        self.hyperbolic, self.quadrature_rel_err, self.v_residual = hyperbolic, quadrature_rel_err, v_residual

    @property
    def period_precision(self) -> float:
        return self.quadrature_rel_err

    @property
    def divergence_integral_precision(self) -> float:
        return self.quadrature_rel_err


def _require_real(field: AffineVectorField):
    if not field.is_real():
        raise PreconditionError("only real vector fields have a dynamical reading")


def _unit_scale(field: AffineVectorField) -> int:
    """e such that 2^-e times the field has its largest coefficient magnitude in [1, 2)."""
    parts = (p for p in (field.component_x, field.component_y) if p.num)
    top = max(Fraction(max(abs(re) for re, _ in p.num.values()), p.den) for p in parts)
    e = top.numerator.bit_length() - top.denominator.bit_length()
    return e - (Fraction(2) ** e > top)


def _unscaled_period(T: float, e: int) -> float:
    """2^-e T, exact while it stays in the normal float range."""
    try:
        T = math.ldexp(T, -e)
    except OverflowError:
        raise UncertifiedResult(f"the period is {_BEYOND_FLOAT}") from None
    if T < sys.float_info.min:
        raise UncertifiedResult("the period is below float range (magnitude under 2.2e-308)")
    return T


def _hypot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sqrt(a^2 + b^2) elementwise, with np.hypot's range at a fraction of
    its cost (np.hypot takes several times as long as this square root of a
    sum of squares, and the quadrature calls it on every midpoint).

    When the largest magnitude in the arrays is outside [2^-500, 2^500),
    both are scaled by the power of two 2^-e that brings it into [1/2, 1)
    and the result by 2^e; a power-of-two scale is exact, so it moves no
    digit, and no square overflows.  An element more than 2^500 below the
    largest may lose digits to underflow, where np.hypot would keep them.
    """
    top = max(np.max(np.abs(a), initial=0.0), np.max(np.abs(b), initial=0.0))
    e = math.frexp(top)[1] if math.isfinite(top) else 0
    if -500 < e < 500:
        return np.sqrt(a * a + b * b)
    a, b = np.ldexp(a, -e), np.ldexp(b, -e)
    return np.ldexp(np.sqrt(a * a + b * b), e)


def _midpoint_sums(div_ev, fx_ev, fy_ev, pts: np.ndarray) -> np.ndarray:
    """Midpoint-rule sums along a closed polyline, an (n, 2) array: D = sum
    div * dt, T = sum dt and A = sum |div| * dt, as the array [D, T, A]."""
    mx, my = (0.5 * (pts[:-1] + pts[1:])).T
    speed = _hypot(fx_ev(mx, my), fy_ev(mx, my))
    if (speed < 1e-12).any():
        raise DegenerateInput("vector field vanishes on the oval; not a periodic orbit")
    dt = _hypot(*np.diff(pts, axis=0).T) / speed
    terms = div_ev(mx, my) * dt
    return np.array([np.sum(terms), np.sum(dt), np.sum(np.abs(terms))])


def _decimated(pts: np.ndarray, k: int) -> np.ndarray:
    """Every k-th vertex of a closed polyline, closed by its last vertex."""
    out = pts[::k]
    if (out[-1] != pts[-1]).any():
        out = np.vstack([out, pts[-1:]])
    return out


def divergence_integral(
    field: AffineVectorField,
    oval: list[tuple[float, float]],
    f: MultiPoly | None = None,
) -> tuple[float, float, float]:
    """(D, T, rel_err): divergence integral and period along a closed polyline.

    The field X is evaluated as 2^e U with U at unit scale (`_unit_scale`):
    scaling by a power of two is exact in floats, so D of U is D of X and
    T = 2^-e T_U (UncertifiedResult when that leaves float range), and no
    threshold below depends on the scale of X.

    Romberg's rule (Stoer & Bulirsch, Introduction to Numerical Analysis,
    3.4): midpoint sums S on the polyline and on its decimations to every
    second and every fourth vertex give two Richardson extrapolations,
    R(n) = (4 S(n) - S(n/2)) / 3 and R(n/2) = (4 S(n/2) - S(n/4)) / 3, for D
    and for T.  D and T are R(n), and rel_err, the largest of
    |R(n) - R(n/2)| / |R(n)| over D and T, estimates their relative error.
    When the invariant curve f is supplied the polyline is midpoint-refined,
    at most MAX_REFINEMENTS times, while rel_err exceeds TARGET_REL and
    |R(n) - R(n/2)| for D exceeds the sum's own rounding bound, gamma_n
    times the sum of |div| * dt over the n chords (Higham, Accuracy and
    Stability of Numerical Algorithms, 4.2): below that bound no refinement
    sharpens D, as on an orbit whose D is zero to rounding.  A refined
    polyline keeps the old vertices at its even indices, so its decimations
    are the polylines already summed, and each polyline is summed once.
    """
    _require_real(field)
    pts = np.asarray(oval, dtype=np.float64)
    if len(pts) < 8:
        raise PreconditionError("polyline too coarse")
    if math.hypot(*(pts[0] - pts[-1])) > 1e-9:
        raise PreconditionError("polyline is not closed")
    e = _unit_scale(field)
    unit = Fraction(2) ** -e
    px, py = field.component_x.scale(unit), field.component_y.scale(unit)
    div_ev, fx_ev, fy_ev = (_horner(p) for p in (divergence(field).scale(unit), px, py))
    speeds = _hypot(fx_ev(*pts.T), fy_ev(*pts.T))
    radius = float(np.max(np.abs(pts)))
    coeff_scale = sum(abs(re / part.den) * max(radius, 1.0) ** sum(exp) for part in (px, py) for exp, (re, _) in part.num.items())
    if speeds.max() < 1e-9 * coeff_scale:
        raise DegenerateInput("vector field vanishes along the oval; not a periodic orbit")
    if speeds.min() < 1e-9 * speeds.max():
        raise DegenerateInput("vector field has a singularity on the oval")
    quarter, half = (_midpoint_sums(div_ev, fx_ev, fy_ev, _decimated(pts, k)) for k in (4, 2))
    for refinements in range(MAX_REFINEMENTS + 1):
        full = _midpoint_sums(div_ev, fx_ev, fy_ev, pts)
        fine = (4.0 * full[:2] - half[:2]) / 3.0  # R(n) for D and T
        change = np.abs(fine - (4.0 * half[:2] - quarter[:2]) / 3.0)
        rel = float(np.max(change / np.maximum(np.abs(fine), 1e-300)))
        at_floor = change[0] <= _gamma(len(pts) - 1) * full[2]
        if rel <= TARGET_REL or at_floor or f is None or refinements == MAX_REFINEMENTS:
            return float(fine[0]), _unscaled_period(float(fine[1]), e), rel
        pts = refine_polyline(f, pts)
        quarter, half = half, full  # the refined polyline's decimations are the ones just summed


def certify_cycle(
    field: AffineVectorField,
    oval: list[tuple[float, float]],
    oval_id: int = 0,
    f: MultiPoly | None = None,
    v_poly: MultiPoly | None = None,
) -> CycleCertificate:
    """Hyperbolicity certificate for one closed orbit polyline."""
    oval = np.asarray(oval, dtype=np.float64)  # once, for both readers below
    D, T, rel = divergence_integral(field, oval, f=f)
    err_estimate = max(rel * abs(D), 1e-14)
    hyperbolic = abs(D) > THRESHOLD_FACTOR * err_estimate
    if hyperbolic:
        stability = "Stable" if D < 0 else "Unstable"
    else:
        stability = "inconclusive"
    residual = None
    if v_poly is not None:
        residual = _scaled_residual(v_poly, oval)
    return CycleCertificate(oval_id, T, D, stability, hyperbolic, rel, residual)


def _scaled_residual(V: MultiPoly, pts) -> float:
    """Largest |V| / max(1, |grad V|) over the points, V at unit scale
    (`_horner_with_gradient`), so the scale of V does not matter."""
    x, y = np.asarray(pts, dtype=np.float64).reshape(-1, 2).T
    v, gx, gy = _horner_with_gradient(V)(x, y)
    return float(np.max(np.abs(v) / np.fmax(1.0, _hypot(gx, gy)), initial=0.0))


def location_check(
    field: AffineVectorField,
    V: MultiPoly,
    ovals: list[list[tuple[float, float]]],
    mode: str = "iif",
) -> list[dict]:
    """Per-oval max |V| (gradient-scaled) against the zero set of V.

    mode="iif" (default) requires the exact identity X V = div(X) V;
    mode="invariant-curve" instead requires V invariant with an exact
    cofactor, which still confines algebraic limit cycles to V = 0.
    """
    _require_real(field)
    if V.is_zero():
        raise PreconditionError("V must be nonzero")
    if mode == "iif":
        if not iif_check(field, V):
            raise PreconditionError("V is not an inverse integrating factor of the field")
    elif mode == "invariant-curve":
        if invariance_check(field, V) is None:
            raise PreconditionError("V is not an invariant curve of the field")
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return location_rows(enumerate(_scaled_residual(V, oval) for oval in ovals))


def location_rows(residuals) -> list[dict]:
    """`location_check`'s per-oval rows from (oval_id, residual) pairs already computed."""
    return [
        {"oval_id": idx, "residual": residual, "residual_precision": LOCATION_TOLERANCE, "pass": residual < LOCATION_TOLERANCE}
        for idx, residual in residuals
    ]
