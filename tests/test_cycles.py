import math

import pytest

from foltools.construct import eee_system
from foltools.cycles import (
    certify_cycle,
    divergence_integral,
    integrate_orbit,
    location_check,
    stability_against_orbit,
)
from foltools.errors import DegenerateInput, PreconditionError
from foltools.fields import AffineVectorField
from foltools.gaussian import GaussianRational, gr
from foltools.polyring import affine_vars, const2
from foltools.realtopo import trace_oval

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
