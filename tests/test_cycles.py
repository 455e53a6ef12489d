import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import affine_vars, const2
from foltools import cycles
from foltools.construct import eee_system
from foltools.cycles import (
    CycleCertificate,
    _hypot,
    _midpoint_sums,
    _require_real,
    certify_cycle,
    divergence_integral,
    location_check,
)
from foltools.errors import DegenerateInput, PreconditionError
from foltools.fields import AffineVectorField, divergence
from foltools.gaussian import GaussianRational, gr
from foltools.polyring import MultiPoly
from foltools.realtopo import _horner, refine_polyline, trace_oval

x, y = affine_vars()
circle = x**2 + y**2 - const2(1)
rotation = AffineVectorField.make(-y, x)


@pytest.fixture(scope="module")
def circle_polyline():
    return trace_oval(circle, (1.01, 0.0), spacing=1.5e-3)


@pytest.fixture(scope="module")
def eee_circle():
    field, _ = eee_system(circle, x - const2(2), gr(1), gr(1))
    return field


def test_divergence_integral_eee(circle_polyline, eee_circle):
    D, T, rel = divergence_integral(eee_circle, circle_polyline, f=circle)
    assert abs(D) > 0.1
    assert rel <= 1e-6
    # analytic values: D = 4*pi/sqrt(3) - 2*pi, T = pi/sqrt(3)
    assert abs(D - (4 * math.pi / math.sqrt(3) - 2 * math.pi)) < 1e-6
    assert abs(T - math.pi / math.sqrt(3)) < 1e-6


def test_divergence_integral_rotation(circle_polyline):
    D, T, _ = divergence_integral(rotation, circle_polyline, f=circle)
    assert abs(D) < 1e-9  # divergence-free field
    assert abs(T - 2 * math.pi) < 1e-6


def test_divergence_integral_rejects_singular_oval(circle_polyline):
    stationary = AffineVectorField.make(circle, circle)  # vanishes on the circle
    with pytest.raises(DegenerateInput):
        divergence_integral(stationary, circle_polyline)


def test_certificates(circle_polyline, eee_circle):
    cert = certify_cycle(eee_circle, circle_polyline, 0, f=circle, v_poly=circle)
    assert cert.hyperbolic and cert.stability == "Unstable"
    assert cert.v_residual < 1e-8
    cert2 = certify_cycle(rotation, circle_polyline, 0, f=circle)
    assert not cert2.hyperbolic and cert2.stability == "inconclusive"


def test_reparameterization_stability(circle_polyline, eee_circle):
    from foltools.realtopo import refine_polyline

    D1, _, _ = divergence_integral(eee_circle, circle_polyline, f=circle)
    D2, _, _ = divergence_integral(eee_circle, refine_polyline(circle, circle_polyline), f=circle)
    assert abs(D1 - D2) / abs(D1) < 1e-6


def _every(pts, k):
    """Every k-th vertex of a closed polyline, closed by its last vertex."""
    coarse = pts[::k]
    return coarse if (coarse[-1] == pts[-1]).all() else np.vstack([coarse, pts[-1:]])


def _evaluators(field):
    return [_horner(p) for p in (divergence(field), field.component_x, field.component_y)]


def _old_divergence_loop(field, pts, f, target_rel=1e-6, max_refinements=8):
    """The loop that refined until the raw sums at two densities agreed: an
    oracle for the value of D and T, not for their bits."""
    evs = _evaluators(field)
    pts = np.asarray(pts, dtype=np.float64)
    for _ in range(max_refinements + 1):
        D2, T2, _ = _midpoint_sums(*evs, pts)
        D1, T1, _ = _midpoint_sums(*evs, _every(pts, 2))
        D = (4.0 * D2 - D1) / 3.0
        T = (4.0 * T2 - T1) / 3.0
        rel = abs(D2 - D1) / max(abs(D), 1e-300)
        if rel <= target_rel:
            return D, T, rel
        pts = refine_polyline(f, pts)
    return D, T, rel


def _romberg_loop(field, pts, f, target_rel, max_refinements=8):
    """Romberg's rule with all three densities summed afresh every round:
    the reference for the bits of `divergence_integral`."""
    evs = _evaluators(field)
    pts = np.asarray(pts, dtype=np.float64)
    for refinements in range(max_refinements + 1):
        s4, s2, s1 = (_midpoint_sums(*evs, _every(pts, k)) for k in (4, 2, 1))
        fine = [(4.0 * a - b) / 3.0 for a, b in zip(s1[:2], s2[:2])]
        coarse = [(4.0 * a - b) / 3.0 for a, b in zip(s2[:2], s4[:2])]
        rel = max(abs(a - b) / max(abs(a), 1e-300) for a, b in zip(fine, coarse))
        n, u = len(pts) - 1, 2.0**-53
        if rel <= target_rel or abs(fine[0] - coarse[0]) <= n * u / (1 - n * u) * s1[2] or refinements == max_refinements:
            return fine[0], fine[1], rel
        pts = refine_polyline(f, pts)


@pytest.mark.parametrize("spacing, target_rel", [(0.05, 1e-6), (0.05, 1e-12), (1e-2, 1e-9)])
def test_divergence_integral_sums_each_polyline_once(eee_circle, monkeypatch, spacing, target_rel):
    # every fourth vertex of the trace: the sequential loop it was filled
    # from, coarse enough that the quadrature refines it
    coarse = trace_oval(circle, (1.01, 0.0), spacing=spacing)[::4]
    want = _romberg_loop(eee_circle, coarse, circle, target_rel)
    calls = {"sums": 0, "refinements": 0}

    def counted(name, real):
        def spy(*args):
            calls[name] += 1
            return real(*args)

        return spy

    monkeypatch.setattr(cycles, "_midpoint_sums", counted("sums", _midpoint_sums))
    monkeypatch.setattr(cycles, "refine_polyline", counted("refinements", refine_polyline))
    monkeypatch.setattr(cycles, "TARGET_REL", target_rel)
    got = divergence_integral(eee_circle, coarse, f=circle)
    assert got == want  # D, T and rel to the last bit
    # one sum for each of the two first decimations, one per polyline; the last polyline is not refined
    assert calls["refinements"] >= 2 and calls["sums"] == calls["refinements"] + 3
    # the old rule's answer: the new D and T lie within its precision
    D, T, rel = _old_divergence_loop(eee_circle, coarse, circle, target_rel)
    assert abs(got[0] - D) <= rel * abs(D) and abs(got[1] - T) <= rel * T


@pytest.mark.parametrize("spacing", [1.5e-3, 1e-2, 0.05])
def test_reported_precision_bounds_the_error_against_the_closed_form(eee_circle, spacing):
    D, T, rel = divergence_integral(eee_circle, trace_oval(circle, (1.01, 0.0), spacing=spacing), f=circle)
    exact_D, exact_T = 4 * math.pi / math.sqrt(3) - 2 * math.pi, math.pi / math.sqrt(3)
    assert 0 < rel <= 1e-6
    assert abs(D - exact_D) <= rel * abs(exact_D) and abs(T - exact_T) <= rel * exact_T


@pytest.mark.parametrize("e", [60, -60, -200])
def test_divergence_integral_does_not_depend_on_the_scale_of_the_field(circle_polyline, eee_circle, e):
    # X and 2^e X are one foliation with one orbit: D is the same to the last
    # bit and T is exactly 2^-e times as long
    D, T, rel = divergence_integral(eee_circle, circle_polyline, f=circle)
    c = gr(Fraction(2) ** e)
    scaled = AffineVectorField.make(eee_circle.p.scale(c), eee_circle.q.scale(c))
    assert divergence_integral(scaled, circle_polyline, f=circle) == (D, math.ldexp(T, -e), rel)


def test_location_check_modes(circle_polyline, eee_circle):
    with pytest.raises(PreconditionError):
        location_check(eee_circle, circle, [circle_polyline], mode="iif")
    rows = location_check(eee_circle, circle, [circle_polyline], mode="invariant-curve")
    assert rows[0]["pass"] and rows[0]["residual"] < 1e-8
    # a closed curve off the zero set of V fails loudly
    wrong = [(1.5 * px, 1.5 * py) for px, py in circle_polyline]
    rows = location_check(eee_circle, circle, [wrong], mode="invariant-curve")
    assert not rows[0]["pass"]
    with pytest.raises(PreconditionError):
        location_check(eee_circle, x - const2(99), [circle_polyline], mode="invariant-curve")


@pytest.mark.parametrize("c", [Fraction(1, 10**11), Fraction(1, 10**300), Fraction(10**11), Fraction(3, 7)])
def test_location_check_does_not_depend_on_the_scale_of_v(circle_polyline, eee_circle, c):
    off = [(1.5 * px, 1.5 * py) for px, py in circle_polyline]
    V = circle.scale(gr(c))
    for field, mode in ((eee_circle, "invariant-curve"), (rotation, "iif")):
        assert location_check(field, V, [circle_polyline, off], mode=mode) == location_check(
            field, circle, [circle_polyline, off], mode=mode
        )


def test_location_check_rejects_non_real_v():
    # V = x + i*y is invariant under the rotation (cofactor i), but its float
    # values cannot be read off the real parts of its coefficients
    V = x + const2(GaussianRational(0, 1)) * y
    pts = [(0.0, 0.5 + k / 10) for k in range(10)]
    with pytest.raises(PreconditionError):
        location_check(rotation, V, [pts], mode="invariant-curve")


def test_location_check_iif_mode_on_rotation(circle_polyline):
    # div = 0 and X(circle) = 0, so the circle is a genuine iif of the rotation
    rows = location_check(rotation, circle, [circle_polyline], mode="iif")
    assert rows[0]["pass"]


# -- RK4 orbits: the numeric cross-check of a certificate's stability sign -------


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


def test_integrate_orbit_rotation():
    step = 1e-3
    n_steps = 5000
    traj = integrate_orbit(rotation, (1.0, 0.0), n_steps * step, step=step)
    dev = max(abs(math.hypot(px, py) - 1.0) for px, py in traj)
    assert dev < 1e-10  # O(step^4) accuracy
    t = n_steps * step
    end = traj[-1]
    assert math.hypot(end[0] - math.cos(t), end[1] - math.sin(t)) < 1e-9


def test_integrate_orbit_stationary():
    traj = integrate_orbit(rotation, (0.0, 0.0), 1.0, step=1e-2)
    assert all(p == (0.0, 0.0) for p in traj)


def test_orbit_cross_validation(circle_polyline, eee_circle):
    cert = certify_cycle(eee_circle, circle_polyline, 0, f=circle)
    assert stability_against_orbit(eee_circle, circle, cert, (1.05, 0.0))
    assert stability_against_orbit(eee_circle, circle, cert, (0.95, 0.0))
    with pytest.raises(PreconditionError):
        stability_against_orbit(eee_circle, circle, cert, (1.0, 0.0))  # on the curve


def test_orbit_blowup_detection(eee_circle):
    with pytest.raises(DegenerateInput):
        integrate_orbit(eee_circle, (50.0, 50.0), 10.0, step=1e-3)


def test_hypot_keeps_the_range_of_np_hypot():
    rng = np.random.default_rng(39)
    a, b = rng.normal(size=2000), rng.normal(size=2000)
    b[:10] = 0.0
    for scale in (1.0, 1e300, 1e-300, 2.0**1000, 2.0**-1000, 1e150, 1e-150):
        got, want = _hypot(a * scale, b * scale), np.hypot(a * scale, b * scale)
        assert np.all(np.isfinite(got)) and np.all(got > 0)
        assert np.all(np.abs(got - want) <= np.spacing(want)), scale  # within one ulp
    # the power-of-two scale is exact: the same digits at every exponent
    for k in (-1000, -600, 600, 1000):
        assert np.array_equal(_hypot(np.ldexp(a, k), np.ldexp(b, k)), np.ldexp(_hypot(a, b), k))
    # the squares of 1e300 overflow and those of 1e-300 underflow; hypot's do not
    big, small = np.array([1e300, 3e300]), np.array([1e-300, 4e-300])
    assert np.allclose(_hypot(big, big[::-1]), np.hypot(big, big[::-1]), rtol=1e-15, atol=0)
    assert np.allclose(_hypot(small, small), np.hypot(small, small), rtol=1e-15, atol=0)
    assert _hypot(np.array([]), np.array([])).size == 0
    assert _hypot(np.array([np.inf, 0.0]), np.array([1.0, 0.0])).tolist() == [np.inf, 0.0]
