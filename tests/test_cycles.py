import math

import numpy as np
import pytest

from foltools import cycles
from foltools.construct import eee_system
from foltools.cycles import (
    _midpoint_sums,
    certify_cycle,
    divergence_integral,
    integrate_orbit,
    location_check,
    stability_against_orbit,
)
from foltools.errors import DegenerateInput, PreconditionError
from foltools.fields import AffineVectorField, divergence
from foltools.gaussian import GaussianRational, gr
from foltools.polyring import affine_vars, const2
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


def _old_divergence_loop(field, pts, f, target_rel=1e-6, max_refinements=8):
    """The loop that summed both densities every round: the reference."""
    div_ev, fx_ev, fy_ev = (_horner(p) for p in (divergence(field), field.component_x, field.component_y))
    pts = np.asarray(pts, dtype=np.float64)
    for _ in range(max_refinements + 1):
        coarse = pts[::2]
        if (coarse[-1] != pts[-1]).any():
            coarse = np.vstack([coarse, pts[-1:]])
        D2, T2 = _midpoint_sums(div_ev, fx_ev, fy_ev, pts)
        D1, T1 = _midpoint_sums(div_ev, fx_ev, fy_ev, coarse)
        D = (4.0 * D2 - D1) / 3.0
        T = (4.0 * T2 - T1) / 3.0
        rel = abs(D2 - D1) / max(abs(D), 1e-300)
        if rel <= target_rel:
            return D, T, rel
        pts = refine_polyline(f, pts)
    return D, T, rel


@pytest.mark.parametrize("spacing, target_rel", [(0.05, 1e-6), (0.05, 1e-12), (1e-2, 1e-9)])
def test_divergence_integral_sums_each_polyline_once(eee_circle, monkeypatch, spacing, target_rel):
    coarse = trace_oval(circle, (1.01, 0.0), spacing=spacing)
    want = _old_divergence_loop(eee_circle, coarse, circle, target_rel)
    calls = {"sums": 0, "refinements": 0}

    def counted(name, real):
        def spy(*args):
            calls[name] += 1
            return real(*args)

        return spy

    monkeypatch.setattr(cycles, "_midpoint_sums", counted("sums", _midpoint_sums))
    monkeypatch.setattr(cycles, "refine_polyline", counted("refinements", refine_polyline))
    got = divergence_integral(eee_circle, coarse, f=circle, target_rel=target_rel)
    assert got == want  # D, T and rel to the last bit
    # one sum for the first decimation, one per polyline; the last polyline is not refined
    assert calls["refinements"] >= 2 and calls["sums"] == calls["refinements"] + 2


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
