"""Numeric certification of ovals as hyperbolic limit cycles.

The hyperbolicity functional is the divergence integral D = closed-loop
integral of div(X) dt along the periodic orbit; its sign gives stability and
a confidently nonzero value gives hyperbolicity.  Numerics can confirm but
not refute at this scale, so |D| below the threshold yields "inconclusive",
never "not hyperbolic".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, PreconditionError
from .fields import AffineVectorField, divergence, iif_check, invariance_check
from .polyring import MultiPoly
from .realtopo import _horner, _horner_with_gradient, refine_polyline

THRESHOLD_FACTOR = 1000.0  # |D| must exceed this multiple of the error estimate


@dataclass
class CycleCertificate:
    oval_id: int
    period: float
    divergence_integral: float
    stability: str  # "Stable" | "Unstable" | "inconclusive"
    hyperbolic: bool
    quadrature_rel_err: float
    v_residual: float | None = None

    def to_dict(self) -> dict:
        return {
            "oval_id": self.oval_id,
            "period": self.period,
            "period_precision": self.quadrature_rel_err,
            "divergence_integral": self.divergence_integral,
            "divergence_integral_precision": self.quadrature_rel_err,
            "stability": self.stability,
            "hyperbolic": self.hyperbolic,
            "quadrature_rel_err": self.quadrature_rel_err,
            "v_residual": self.v_residual,
        }


def _require_real(field: AffineVectorField):
    if not field.is_real():
        raise PreconditionError("only real vector fields have a dynamical reading")


def _midpoint_sums(div_ev, fx_ev, fy_ev, pts: np.ndarray) -> tuple[float, float]:
    """Midpoint-rule D = sum div * dt and T = sum dt along a closed polyline,
    an (n, 2) array."""
    mx, my = (0.5 * (pts[:-1] + pts[1:])).T
    speed = np.hypot(fx_ev(mx, my), fy_ev(mx, my))
    if (speed < 1e-12).any():
        raise DegenerateInput("vector field vanishes on the oval; not a periodic orbit")
    dt = np.hypot(*np.diff(pts, axis=0).T) / speed
    return float(np.sum(div_ev(mx, my) * dt)), float(np.sum(dt))


def divergence_integral(
    field: AffineVectorField,
    oval: list[tuple[float, float]],
    f: MultiPoly | None = None,
    target_rel: float = 1e-6,
    max_refinements: int = 8,
) -> tuple[float, float, float]:
    """(D, T, rel_err): divergence integral and period along a closed polyline.

    Two vertex densities (the polyline and its half-density decimation) are
    compared and Richardson-combined; when the invariant curve f is supplied
    the polyline is midpoint-refined until the densities agree to target_rel.
    A refined polyline keeps the old vertices at its even indices, so its
    decimation is the previous polyline and is not summed again; the last
    round refines nothing.
    """
    _require_real(field)
    pts = np.asarray(oval, dtype=np.float64)
    if len(pts) < 8:
        raise PreconditionError("polyline too coarse")
    if math.hypot(*(pts[0] - pts[-1])) > 1e-9:
        raise PreconditionError("polyline is not closed")
    div_ev, fx_ev, fy_ev = (_horner(p) for p in (divergence(field), field.component_x, field.component_y))
    speeds = np.hypot(fx_ev(*pts.T), fy_ev(*pts.T))
    radius = float(np.max(np.abs(pts)))
    coeff_scale = sum(
        abs(float(c.re)) * max(radius, 1.0) ** sum(e)
        for part in (field.component_x, field.component_y)
        for e, c in part.terms.items()
    )
    if speeds.max() < 1e-9 * max(coeff_scale, 1e-12):
        raise DegenerateInput("vector field vanishes along the oval; not a periodic orbit")
    if speeds.min() < 1e-9 * speeds.max():
        raise DegenerateInput("vector field has a singularity on the oval")
    coarse = pts[::2]
    if (coarse[-1] != pts[-1]).any():
        coarse = np.vstack([coarse, pts[-1:]])
    D1, T1 = _midpoint_sums(div_ev, fx_ev, fy_ev, coarse)
    for refinements in range(max_refinements + 1):
        D2, T2 = _midpoint_sums(div_ev, fx_ev, fy_ev, pts)
        D = (4.0 * D2 - D1) / 3.0
        T = (4.0 * T2 - T1) / 3.0
        rel = abs(D2 - D1) / max(abs(D), 1e-300)
        if rel <= target_rel or f is None or refinements == max_refinements:
            return D, T, rel
        pts = refine_polyline(f, pts)
        D1, T1 = D2, T2  # the refined polyline's decimation is the one just summed


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
    """Largest |V| / max(1, |grad V|) over the points."""
    ev, gx, gy = _horner_with_gradient(V)
    x, y = np.asarray(pts, dtype=np.float64).reshape(-1, 2).T
    scale = np.fmax(1.0, np.hypot(gx(x, y), gy(x, y)))
    return float(np.max(np.abs(ev(x, y)) / scale, initial=0.0))


def location_check(
    field: AffineVectorField,
    V: MultiPoly,
    ovals: list[list[tuple[float, float]]],
    tolerance: float = 1e-8,
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
    return location_rows([_scaled_residual(V, oval) for oval in ovals], tolerance)


def location_rows(residuals: list[float], tolerance: float = 1e-8) -> list[dict]:
    """`location_check`'s per-oval rows from residuals already computed."""
    return [
        {"oval_id": idx, "residual": residual, "residual_precision": tolerance, "pass": residual < tolerance}
        for idx, residual in enumerate(residuals)
    ]


def integrate_orbit(
    field: AffineVectorField,
    start: tuple[float, float],
    duration: float,
    step: float = 1e-3,
    blowup: float = 1e6,
) -> list[tuple[float, float]]:
    """Classical fixed-step RK4 trajectory sample."""
    _require_real(field)
    if step <= 0:
        raise PreconditionError("step must be positive")
    fx = _horner(field.component_x)
    fy = _horner(field.component_y)

    def rhs(x: float, y: float) -> tuple[float, float]:
        return fx(x, y), fy(x, y)

    x, y = float(start[0]), float(start[1])
    out = [(x, y)]
    steps = int(round(duration / step))
    for _ in range(steps):
        k1x, k1y = rhs(x, y)
        k2x, k2y = rhs(x + 0.5 * step * k1x, y + 0.5 * step * k1y)
        k3x, k3y = rhs(x + 0.5 * step * k2x, y + 0.5 * step * k2y)
        k4x, k4y = rhs(x + step * k3x, y + step * k3y)
        x += step * (k1x + 2 * k2x + 2 * k3x + k4x) / 6.0
        y += step * (k1y + 2 * k2y + 2 * k3y + k4y) / 6.0
        if math.hypot(x, y) > blowup:
            raise DegenerateInput("trajectory blew up")
        out.append((x, y))
    return out


def stability_against_orbit(
    field: AffineVectorField,
    f: MultiPoly,
    certificate: CycleCertificate,
    seed: tuple[float, float],
    duration: float | None = None,
    step: float = 1e-3,
) -> bool:
    """Cross-validate a certificate's stability sign with a forward orbit.

    |f| along the orbit must trend away from 0 for Unstable, toward 0 for
    Stable (f is the invariant curve carrying the cycle).  The default
    duration is one period, so the transversal exponent dominates.
    """
    if duration is None:
        duration = certificate.period
    traj = integrate_orbit(field, seed, duration, step)
    ev = _horner(f)
    first = abs(ev(*traj[0]))
    last = abs(ev(*traj[-1]))
    if first < 1e-13:
        raise PreconditionError("seed lies on the curve; start slightly off it")
    if certificate.stability == "Unstable":
        return last > first
    if certificate.stability == "Stable":
        return last < first
    raise PreconditionError("certificate is inconclusive; nothing to cross-validate")
