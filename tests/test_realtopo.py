import hashlib
import math
import random
import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

import fraction_box
import tuple_mesher
from conftest import affine_vars, const2
from foltools import realtopo
from foltools.construct import eee_system, gallery
from foltools.cycles import divergence_integral
from foltools.errors import DegenerateInput, PreconditionError, UncertifiedResult
from foltools.gaussian import GaussianRational, gr, lift
from foltools.polyring import MultiPoly, leading_form
from foltools.realtopo import (
    Box,
    _filtered_signs,
    _gamma,
    _horner,
    _LatticeLines,
    _LineRows,
    _box_lattice,
    _sign_grid,
    compactness_check,
    count_ovals,
    default_box,
    ellipse_count,
    ellipse_loop,
    newton_project,
    refine_polyline,
    trace_oval,
)
from foltools.textio import parse_poly, print_poly, to_jsonable
from foltools.uniroots import _int_sturm_chain, count_real_roots, sturm_counter, ueval, utrim

x, y = affine_vars()
circle = x**2 + y**2 - const2(1)
quartic = gallery("quartic-4-ovals").curve


def test_compactness_examples():
    assert compactness_check(circle)
    assert not compactness_check(y**2 - x**3)
    assert compactness_check(quartic)
    assert not compactness_check(x * y - const2(1))  # hyperbola
    with pytest.raises(PreconditionError):
        compactness_check(x.scale(gr(0, 1)))  # complex coefficients


def test_default_box_contains_curve():
    box = default_box(circle)
    assert box.x_lo <= -1 and box.x_hi >= 1
    with pytest.raises(PreconditionError):
        default_box(y**2 - x**3)


def test_count_circle():
    ovals = count_ovals(circle, Box.square(2), 64)
    assert ovals.count == 1 and ovals.certified_count == 1
    assert ovals.open_chains == 0
    first = ovals.ovals[0].vertices
    assert first[0] == first[-1]  # closed polyline
    for vx, vy in first[::7]:
        assert abs(math.hypot(vx, vy) - 1.0) < 0.1


def test_count_empty_and_two_circles():
    assert count_ovals(parse_poly("x^2 + y^2 + 1", 2), Box.square(2), 64).count == 0
    two = (x**2 + y**2 - const2(1)) * ((x - const2(5)) ** 2 + y**2 - const2(1))
    ovals = count_ovals(two, Box(gr(-3).re, gr(8).re, gr(-3).re, gr(3).re), 128)
    assert ovals.count == 2 and ovals.certified_count == 2


def test_count_uses_default_box():
    ovals = count_ovals(circle, None, 64)
    assert ovals.count == 1


def test_open_chain_warning():
    # a parabola is not compact: inside any box it leaves through the boundary
    ovals = count_ovals(y - x**2, Box.square(2), 32)
    assert ovals.count == 0 and ovals.open_chains >= 1
    assert any("open chain" in w for w in ovals.warnings)


def test_nodal_curve_terminates_with_open_chain():
    # unbounded branch leaves the box; the node itself lands near a lattice
    # corner after dodging, so behavior varies; termination and the open
    # chain are the contract
    nodal = gallery("nodal-cubic").curve
    ovals = count_ovals(nodal, Box.square(2), 64)
    assert ovals.open_chains >= 1


def test_true_crossing_exhausts_subdivision():
    # x*y = 0 crosses itself: the alternating cell can never be resolved
    f = x * y
    ovals = count_ovals(f, Box.square(1), 8)
    assert any("ambiguous" in w for w in ovals.warnings)
    assert all(not o.certified for o in ovals.ovals)


def test_subdivision_resolves_near_saddle(monkeypatch):
    # smooth hyperbola whose two arcs share a coarse cell near the origin:
    # at res 3 that cell is ambiguous and subdivision separates the arcs
    f = x * y - const2("1/100")
    calls = []
    subdivide = realtopo._Mesher._subdivide_cell

    def counting(self, *args, **kwargs):
        calls.append(args)
        return subdivide(self, *args, **kwargs)

    monkeypatch.setattr(realtopo._Mesher, "_subdivide_cell", counting)
    ovals = count_ovals(f, Box.square(1), 3)
    assert calls, "no cell was subdivided"
    assert not any("depth" in w for w in ovals.warnings)
    assert ovals.open_chains >= 2  # both non-compact arcs leave the box


def test_bigint_fallback_matches_numpy_path():
    # huge coefficients give node values far past 2^63, which only the float
    # filter and the exact big-int rows handle; the count must not change
    scaled = circle.scale(gr(10**15))
    ovals = count_ovals(scaled, Box.square(2), 32)
    assert ovals.count == 1 and ovals.certified_count == 1


def test_count_ovals_rejects_non_real_and_non_affine_curves():
    with pytest.raises(PreconditionError, match="real coefficients required"):
        count_ovals(x**2 + y**2 - const2(GaussianRational(1, 1)), Box.square(2), 8)
    with pytest.raises(PreconditionError, match="expected an affine curve"):
        count_ovals(MultiPoly.variable(3, 0) ** 2 - MultiPoly.constant(3, 1), Box.square(2), 8)


def test_count_ovals_rejects_a_curve_that_is_not_squarefree():
    # the squared circle never changes sign: the sign grid saw only the other circle
    other = (x - const2(5)) ** 2 + y**2 - const2(1)
    with pytest.raises(PreconditionError, match="curve must be squarefree"):
        count_ovals(circle**2 * other, None, 64)


def test_denominator_beyond_float_range_is_counted():
    # numerators 1, 1 and -1 keep every weight small; signs and vertices come
    # from the integer rows and weights, so the denominator is never a float
    tiny, small = (count_ovals(circle.scale(gr(Fraction(1, 10**e))), Box.square(2), 16) for e in (400, 300))
    assert _fingerprint(tiny) == _fingerprint(small)
    assert tiny.count == 1 and tiny.certified_count == 1


@pytest.mark.parametrize(
    "curve, box, res",
    [
        ("(x^2+y^2)^2 - 4*x*y - 1/100", Box.square(2), 5),  # subdivided cells, one certified oval
        ("((x-3/8)^2 + (y+5/16)^2 - 7/64)*((x+1/16)^2 + 2*(y+3/16)^2 - 7/64) + 1/5000", Box.square(1), 4),
    ],
)
def test_each_lattice_row_is_built_once(monkeypatch, curve, box, res):
    # `_sign_grid` makes one `_LineRows` for the horizontal lines of each
    # lattice, coarse or subdivision, and `_LatticeLines` one for the vertical
    # lines of the coarse lattice; each builds a row at most once, and only
    # when the row is read: a vertical row exactly when an edge of its line
    # goes to an exact count
    axes, reads, builds, grids, refused = {}, [], [], [], set()
    init, getitem, sign_grid = _LineRows.__init__, _LineRows.__getitem__, realtopo._sign_grid
    floats = _LatticeLines.float_proofs

    def recording_init(self, f, axis, lines, d_line, d_edge):
        axes[self] = (axis, lines)
        init(self, f, axis, lines, d_line, d_edge)

    def recording_getitem(self, l):
        reads.append((self, l))
        built = len(self._built)
        row = getitem(self, l)
        if len(self._built) > built:
            builds.append((self, l))
        return row

    def recording_grid(f, *lattice):
        grids.append(lattice)
        return sign_grid(f, *lattice)

    def recording_floats(self, kind, line, k):
        proven = floats(self, kind, line, k)
        refused.update((kind, at) for at in line[~proven].tolist())
        return proven

    monkeypatch.setattr(_LineRows, "__init__", recording_init)
    monkeypatch.setattr(_LineRows, "__getitem__", recording_getitem)
    monkeypatch.setattr(realtopo, "_sign_grid", recording_grid)
    monkeypatch.setattr(_LatticeLines, "float_proofs", recording_floats)
    ovals = count_ovals(parse_poly(curve, 2), box, res)
    assert all(o.vertices for o in ovals.ovals)  # placing the vertices reads rows
    horizontal = [lines for axis, lines in axes.values() if axis == 0]
    vertical = [obj for obj, (axis, _) in axes.items() if axis == 1]
    assert len(grids) > 1 and len(horizontal) == len(grids) and len(vertical) == 1
    assert all(len(lines) == n + 1 for lines, (*_, n) in zip(horizontal, grids))
    assert len(set(builds)) == len(builds) and set(builds) == {(obj, l) for obj in axes for l in obj._built}
    assert 0 < len(builds) < sum(len(lines) for _, lines in axes.values())
    assert {l for obj, l in builds if obj in vertical} == {at for kind, at in refused if kind == "v"}


def test_trace_circle_accuracy():
    pts = trace_oval(circle, (1.01, 0.0), spacing=2e-3)
    assert tuple(pts[0]) == tuple(pts[-1])
    dev = max(abs(math.hypot(px, py) - 1.0) for px, py in pts)
    assert dev < 1e-9
    spacings = [
        math.hypot(b[0] - a[0], b[1] - a[1]) for a, b in zip(pts[:-2], pts[1:-1])
    ]
    assert max(spacings) < 4e-3  # vertex spacing bounded


def test_trace_rejects_bad_seed():
    # the gradient vanishes at the origin, so the correction cannot start:
    # the trace is undecided, not refused as input
    with pytest.raises(UncertifiedResult, match="seed failed to project"):
        trace_oval(circle, (0.0, 0.0))


def test_trace_hits_node():
    nodal = gallery("nodal-cubic").curve
    yv = 0.9 * math.sqrt(0.1)
    with pytest.raises(DegenerateInput):
        trace_oval(nodal, (-0.9, yv), spacing=2e-3)  # loop runs into the node
    with pytest.raises(DegenerateInput):
        trace_oval(nodal, (-0.05, 0.05), spacing=2e-3)  # seeded near the node


# -- the coarse trace, its batched fill and the fallback ---------------------------------

SPACING = 2e-3
TOL = 1e-12


def _length(pts: np.ndarray) -> float:
    return float(np.sum(np.hypot(*np.diff(pts, axis=0).T)))


def _fine_trace(f, pts: np.ndarray) -> np.ndarray:
    """The sequential trace at SPACING itself, from the trace's first vertex."""
    return realtopo._trace(realtopo._horner_with_gradient(f), tuple(map(float, pts[0])), SPACING)


def _coarse_trace(f, pts: np.ndarray, rounds: int = realtopo._FILL_ROUNDS):
    """The coarse sequential loop at 2**rounds * SPACING from the trace's first
    vertex: 16 * SPACING, or 4 * SPACING for the retry."""
    step = 2**rounds * SPACING
    return realtopo._trace(realtopo._horner_with_gradient(f), tuple(map(float, pts[0])), step, realtopo._COARSE_MIN_COS)


def _filled_from(f, pts: np.ndarray) -> tuple[np.ndarray, int]:
    """(coarse loop, stride): the loop at 16 * SPACING when the coarse pass
    accepts it, else the retry's at 4 * SPACING."""
    for rounds in (realtopo._FILL_ROUNDS, realtopo._RETRY_ROUNDS):
        coarse = _coarse_trace(f, pts, rounds)
        if coarse is not None and len(coarse) >= realtopo._MIN_COARSE:
            return coarse, 2**rounds
    raise AssertionError("both coarse passes refused")


def _scalar_corrector(f, x: float, y: float):
    """The trace's corrector for one point, as a scalar loop: the projected
    point, or None when 12 Newton steps do not reach |f| <= tol * |grad f|."""
    ev = realtopo._horner_with_gradient(f)
    for _ in range(12):
        v, dx, dy = ev(x, y)
        g2 = dx * dx + dy * dy
        if g2 < 1e-18:
            raise DegenerateInput("singular")
        if abs(v) <= TOL * math.sqrt(g2):
            return x, y
        x -= v * dx / g2
        y -= v * dy / g2
    return None


ellipse = x**2 + const2(gr(Fraction(16, 9))) * y**2 - const2(1)


def _thin_ellipse(b: Fraction) -> MultiPoly:
    return x**2 + const2(gr(1 / (b * b))) * y**2 - const2(1)


def _cassini(w: Fraction) -> MultiPoly:
    """(x^2 + y^2)^2 - 2(x^2 - y^2) = w^4 + 2w^2: one oval around both lobes
    of the lemniscate, whose waist at x = 0 has half-width w."""
    return (x**2 + y**2) ** 2 - const2(2) * (x**2 - y**2) - const2(gr(w**4 + 2 * w**2))


def test_trace_vertices_satisfy_the_contract():
    seeds = [(circle, (1.01, 0.0)), (ellipse, (0.0, 0.8))]
    seeds += [(quartic, ov.vertices[0]) for ov in count_ovals(quartic, None, 64).ovals]
    assert len(seeds) == 6
    strides = []
    for f, seed in seeds:
        pts = trace_oval(f, seed, spacing=SPACING)
        assert pts.dtype == np.float64 and pts.ndim == 2 and pts.shape[1] == 2
        assert np.array_equal(pts[0], pts[-1])
        v, dx, dy = realtopo._horner_with_gradient(f)(*pts.T)
        assert np.all(np.abs(v) <= TOL * np.sqrt(dx * dx + dy * dy))
        # the coarse path: every 16th vertex is the sequential loop at 16 * spacing,
        # or, where that is refused, every fourth the loop at 4 * spacing
        coarse, stride = _filled_from(f, pts)
        assert np.array_equal(pts[::stride], coarse)
        strides.append(stride)
        assert np.max(np.hypot(*np.diff(pts, axis=0).T)) < 2 * SPACING  # the closing chord is the longest
    assert 16 in strides and 4 in strides


def test_fill_matches_the_scalar_corrector():
    evaluator = realtopo._horner_with_gradient
    product = (x**2 + const2(2) * y**2 - const2(1)) * (x**2 + y**2 - const2(9))
    for f, seed in ((circle, (1.01, 0.0)), (product, (1.01, 0.0)), (quartic, count_ovals(quartic, None, 64).ovals[0].vertices[0])):
        coarse, _ = _filled_from(f, trace_oval(f, seed, spacing=SPACING))
        for pts in (coarse, realtopo._midpoints(evaluator(f), coarse)[0]):
            filled, converged = realtopo._midpoints(evaluator(f), pts)
            expected = [tuple(pts[0])]
            for a, b in zip(pts, pts[1:]):
                expected += [_scalar_corrector(f, 0.5 * (a[0] + b[0]), 0.5 * (a[1] + b[1])), tuple(b)]
            assert converged and filled.shape == (2 * len(pts) - 1, 2)
            assert np.array_equal(filled.view(np.int64), np.array(expected).view(np.int64))
    # a midpoint 5e5 away needs 19 halving steps: the round fails, as the
    # scalar loop does, and the midpoint stays where it is
    far = np.array([(1.0, 0.0), (1e6, 0.0), (1.0, 0.0)])
    assert _scalar_corrector(circle, 500000.5, 0.0) is None
    filled, converged = realtopo._midpoints(evaluator(circle), far)
    assert not converged and tuple(filled[1]) == (500000.5, 0.0)
    # a midpoint at the centre has no gradient: the round fails instead of raising
    with pytest.raises(DegenerateInput):
        _scalar_corrector(circle, 0.0, 0.0)
    filled, converged = realtopo._midpoints(evaluator(circle), np.array([(1.0, 0.0), (-1.0, 0.0), (1.0, 0.0)]))
    assert not converged and tuple(filled[1]) == (0.0, 0.0)


@pytest.mark.parametrize("r", [Fraction(1, 1000), Fraction(1, 500), Fraction(1, 250), Fraction(1, 40)])
def test_small_circles_take_the_sequential_trace(r):
    # the sequential loop at SPACING, filled by two rounds of midpoints
    f = x**2 + y**2 - const2(gr(r * r))
    pts = trace_oval(f, (1.01 * float(r), 0.0), spacing=SPACING)
    assert np.array_equal(pts[::4], _fine_trace(f, pts))
    assert abs(_length(pts) / (2 * math.pi * float(r)) - 1) < 0.05
    assert _coarse_trace(f, pts) is None  # a 16 * SPACING step turns by more than 45 degrees
    if r == Fraction(1, 40):  # at 4 * SPACING no step turns by 45 degrees: the vertex count alone refuses
        coarse = _coarse_trace(f, pts, realtopo._RETRY_ROUNDS)
        assert coarse is not None and len(coarse) < 64


def test_a_failed_midpoint_falls_back_to_the_sequential_trace(monkeypatch):
    midpoints = realtopo._midpoints
    monkeypatch.setattr(realtopo, "_midpoints", lambda ev, pts: (midpoints(ev, pts)[0], False))
    pts = trace_oval(circle, (1.01, 0.0), spacing=SPACING)
    assert np.array_equal(pts, _fine_trace(circle, pts)) and len(pts) > 3000


@pytest.mark.parametrize("w", [Fraction(1, 1000), Fraction(1, 1414)])
def test_cassini_oval_is_traced_whole(w):
    # w = 1/1414 is eps = w^4 + 2w^2 ~ 1e-6; both coarse steps turn back at
    # the waist, so the trace is the sequential one at the spacing
    f = _cassini(w)
    pts = trace_oval(f, (1.42, 0.0), spacing=SPACING)
    assert _coarse_trace(f, pts) is None and _coarse_trace(f, pts, realtopo._RETRY_ROUNDS) is None
    assert np.array_equal(pts[::4], _fine_trace(f, pts))
    assert pts[:, 0].min() < -1.41 and pts[:, 0].max() > 1.41  # both lobes
    assert 7.40 < _length(pts) < 7.43  # once around: one lobe is 3.71


def test_a_refused_coarse_pass_is_retried_at_four_times_the_spacing():
    # a circle of radius 0.2 has 40 vertices at 16 * SPACING, too few, and
    # 158 at 4 * SPACING: it is traced from the retry, not at SPACING itself
    f = x**2 + y**2 - const2(gr(Fraction(1, 25)))
    pts = trace_oval(f, (0.202, 0.0), spacing=SPACING)
    coarse = _coarse_trace(f, pts)
    assert coarse is not None and len(coarse) < realtopo._MIN_COARSE
    assert np.array_equal(pts[::4], _coarse_trace(f, pts, realtopo._RETRY_ROUNDS))
    assert not np.array_equal(pts, _fine_trace(f, pts))
    assert abs(_length(pts) / (0.4 * math.pi) - 1) < 1e-4
    # a Cassini waist of half-width 1/100 turns the 16 * SPACING step back;
    # the retry traces it as the 4 * SPACING pass alone did, to the same length
    f = _cassini(Fraction(1, 100))
    pts = trace_oval(f, (1.42, 0.0), spacing=SPACING)
    assert _coarse_trace(f, pts) is None
    assert np.array_equal(pts[::4], _coarse_trace(f, pts, realtopo._RETRY_ROUNDS))
    assert len(pts) == 3697 and abs(_length(pts) - 7.392865853164973) < 1e-12


@pytest.mark.parametrize("b", [Fraction(1, 3000), Fraction(1, 30000)])
@pytest.mark.parametrize("seed", ["top", "tip"])
def test_thin_ellipse_is_traced_whole(b, seed):
    # from the top, the trace passes its start again on the bottom side,
    # within one step but travelling the other way; from the tip the first
    # steps fail before one is accepted, and the loop must not close there
    f = _thin_ellipse(b)
    pts = trace_oval(f, (0.0, 1.01 * float(b)) if seed == "top" else (1.0, 0.0), spacing=SPACING)
    assert abs(_length(pts) - 4.0) < 4e-3  # the perimeter is 4 + O(b^2 log b)
    assert pts[:, 0].min() < -0.999 and pts[:, 0].max() > 0.999


def test_trace_keeps_to_one_of_two_close_circles():
    f = (x**2 + y**2 - const2(1)) * (x**2 + y**2 - const2(gr(Fraction(10041, 10000))))  # radii 1 and 1.00205
    pts = trace_oval(f, (1.0, 0.0), spacing=SPACING)
    assert np.max(np.abs(np.hypot(*pts.T) - 1.0)) < 1e-9
    assert abs(_length(pts) / (2 * math.pi) - 1) < 1e-6


def test_refine_polyline_stays_on_curve():
    pts = trace_oval(circle, (1.01, 0.0), spacing=4e-3)
    fine = refine_polyline(circle, pts)
    assert len(fine) == 2 * len(pts) - 1
    dev = max(abs(math.hypot(px, py) - 1.0) for px, py in fine)
    assert dev < 1e-9


def test_newton_project():
    pt = newton_project(circle, (1.2, 0.1))
    assert pt is not None and abs(math.hypot(*pt) - 1.0) < 1e-12
    far = newton_project(circle, (1e9, 1e9))  # far seeds may fail, but never land off the curve
    assert far is None or abs(math.hypot(*far) - 1.0) < 1e-12


# -- an ellipse in closed form ---------------------------------------------------------

# semi-axes 1 and 1/20 along (3/5, 4/5) and (-4/5, 3/5), centred at (1/4, -1/3)
CENTER, AXES = np.array([0.25, -1 / 3]), np.array([[0.6, 0.8], [-0.04, 0.03]])
rotated = parse_poly("(3*(x - 1/4) + 4*(y + 1/3))^2 + 400*(-4*(x - 1/4) + 3*(y + 1/3))^2 - 25", 2)


def _at_anomaly(n: int) -> np.ndarray:
    """`rotated` at eccentric anomaly 2 pi k / n, k = 0 ... n, closed."""
    t = 2 * math.pi * np.arange(n + 1) / n
    pts = CENTER + np.outer(np.cos(t), AXES[0]) + np.outer(np.sin(t), AXES[1])
    pts[-1] = pts[0]
    return pts


@pytest.mark.parametrize(
    "f, seed, n",
    [
        (circle, (1.01, 0.0), 3144),
        (parse_poly("10^400*x^2 + 10^400*y^2 - 10^400", 2), (-0.3, 0.99), 3144),
        (x**2 + y**2 - const2(gr(Fraction(1, 10**6))), (0.0, -0.00101), 64),
        (rotated, (0.85, 0.47), None),
        (-rotated, (-0.35, -1.1), None),
    ],
)
def test_ellipse_loop_satisfies_the_contract(f, seed, n):
    (pts,) = ellipse_loop(f, None, SPACING)
    assert pts.dtype == np.float64 and pts.ndim == 2 and pts.shape[1] == 2
    assert n is None or len(pts) - 1 == n
    assert (len(pts) - 1) % 4 == 0 and len(pts) - 1 >= realtopo._MIN_COARSE
    assert tuple(pts[0]) == tuple(pts[-1])
    v, dx, dy = realtopo._horner_with_gradient(f)(*pts.T)
    assert np.all(np.abs(v) <= TOL * np.hypot(dx, dy))
    # the loop goes all the way round: a point of the oval far from its
    # start lies within a chord of a vertex
    chord = np.max(np.hypot(*np.diff(pts, axis=0).T))
    assert np.min(np.hypot(*(pts - newton_project(f, seed)).T)) <= chord
    if n == 3144:  # a circle starts at anomaly 0, on the x axis
        assert abs(pts[0, 0] - 1) < 1e-15 and abs(pts[0, 1]) < 1e-15


@pytest.mark.parametrize(
    "f",
    [
        x**2 - y**2 - const2(1),
        y - x**2,
        quartic,
        circle.scale(gr(0, 1)),  # not real
        x * y - const2(1),
        (x - y) ** 2 - const2(1),  # 4ac - b^2 = 0: two parallel lines
    ],
)
def test_ellipse_loop_refuses_what_is_not_an_ellipse(f):
    assert ellipse_loop(f, None, SPACING) is None and ellipse_count(f) is None


@pytest.mark.parametrize("f", [x**2 + y**2 + const2(1), x**2 + y**2, -(x - const2(3)) ** 2 - const2(2) * (y + x) ** 2])
def test_an_ellipse_without_an_oval_has_none_in_any_box(f):
    # k >= 0 at the center: the real locus is the center alone, or empty
    assert ellipse_loop(f, None, SPACING) == []
    assert ellipse_loop(f, Box.square(Fraction(1, 100)), SPACING) == []


def test_ellipse_loop_counts_an_oval_strictly_inside_the_box():
    # the bounding rectangle of `rotated` is 1/4 +- sqrt(0.3616) by -1/3 +-
    # sqrt(0.6409): half-widths just above 0.6013 and 0.8005
    inside = Box(Fraction(1, 4) - Fraction(602, 1000), Fraction(1, 4) + Fraction(602, 1000), Fraction(-1, 3) - Fraction(801, 1000), Fraction(-1, 3) + Fraction(801, 1000))
    assert len(ellipse_loop(rotated, inside, SPACING)) == 1
    for side, cut in (("x_lo", Fraction(1, 4) - Fraction(3, 5)), ("x_hi", Fraction(1, 4) + Fraction(3, 5)), ("y_lo", Fraction(-1, 3) - Fraction(4, 5)), ("y_hi", Fraction(-1, 3) + Fraction(4, 5))):
        crossed = Box(inside.x_lo, inside.x_hi, inside.y_lo, inside.y_hi)
        setattr(crossed, side, cut)
        assert ellipse_loop(rotated, crossed, SPACING) is None, side
    # a box that touches the oval, or misses its center, leaves it to the lattice
    assert ellipse_loop(circle, Box.square(1), SPACING) is None
    assert ellipse_loop(circle, Box(Fraction(2), Fraction(3), Fraction(-2), Fraction(2)), SPACING) is None
    assert len(ellipse_loop(circle, Box.square(Fraction(1001, 1000)), SPACING)) == 1


def _random_ellipse(rng: random.Random) -> tuple[MultiPoly, Box]:
    """a (x - x0)^2 + b (x - x0)(y - y0) + c (y - y0)^2 + k with 4ac > b^2,
    k of either sign or 0, and a box that holds its oval with room to spare."""
    a, c = rng.randint(1, 9), rng.randint(1, 9)
    b = rng.choice([b for b in range(-9, 10) if b * b < 4 * a * c])
    x0, y0 = (Fraction(rng.randint(-40, 40), rng.randint(1, 8)) for _ in range(2))
    k = Fraction(rng.randint(-30, 10), rng.randint(1, 5))
    u, v = x - const2(gr(x0)), y - const2(gr(y0))
    f = (const2(a) * u**2 + const2(b) * u * v + const2(c) * v**2 + const2(gr(k))).scale(gr(rng.choice([1, -1])))
    det = 4 * a * c - b * b
    half = [max(-4 * q * k / det, Fraction(1)) for q in (c, a)]  # squared half-widths, at least 1
    wx, wy = (2 * math.isqrt(math.ceil(h)) + 1 for h in half)
    return f, Box(x0 - wx, x0 + wx, y0 - wy, y0 + wy)


def test_the_closed_form_counts_what_the_lattice_counts():
    rng = random.Random(2024)
    seen = set()
    for _ in range(24):
        f, box = _random_ellipse(rng)
        loops = ellipse_loop(f, box, SPACING)
        ovals = count_ovals(f, box, 256)
        assert loops is not None and len(loops) == ellipse_count(f, box) == ovals.count == ovals.certified_count, print_poly(f)
        seen.add(len(loops))
    assert seen == {0, 1}


def test_ellipse_loop_refuses_at_once():
    start = time.perf_counter()
    for spacing in (0.0, -1e-3, float("nan"), float("inf")):
        with pytest.raises(PreconditionError, match="spacing"):
            ellipse_loop(circle, None, spacing)
    for spacing in (1e-9, 1e-300):  # more vertices than the trace could fill
        with pytest.raises(DegenerateInput, match="budget"):
            ellipse_loop(circle, None, spacing)
    # an oval proven exactly, of radius 1e-350, which no float can place
    with pytest.raises(UncertifiedResult, match="leave float range"):
        ellipse_loop(x**2 + y**2 - const2(gr(Fraction(1, 10**700))), None, SPACING)
    assert time.perf_counter() - start < 0.1


def test_an_ellipse_whose_start_cannot_be_projected_is_undecided(monkeypatch):
    monkeypatch.setattr(realtopo, "_project_all", lambda _ev, seeds: (seeds.copy(), np.zeros(len(seeds), dtype=bool)))
    with pytest.raises(UncertifiedResult, match="seed failed to project"):
        ellipse_loop(circle, None, SPACING)


def test_ellipse_loop_gives_up_when_a_vertex_does_not_converge(monkeypatch):
    # the closed form gives up, and the oval is traced from the projected start
    project_all, trace = realtopo._project_all, realtopo.trace_oval
    calls = []

    def one_fails(ev, seeds):
        out, ok = project_all(ev, seeds)
        ok[len(ok) // 2] = False
        return out, ok

    (placed,) = ellipse_loop(circle, None, SPACING)
    monkeypatch.setattr(realtopo, "_project_all", lambda ev, seeds: one_fails(ev, seeds) if len(seeds) > 1000 else project_all(ev, seeds))
    monkeypatch.setattr(realtopo, "trace_oval", lambda *args: calls.append(args) or trace(*args))
    (traced,) = ellipse_loop(circle, None, SPACING)
    assert calls == [(circle, tuple(placed[0]), SPACING)]
    assert tuple(traced[0]) == tuple(placed[0]) and len(traced) != len(placed)


def test_ellipse_loop_rel_bounds_the_error_of_certify():
    # Romberg's rule sums the decimations by 2 and 4, which are nested only
    # when the vertex count is a multiple of 4, and its error expansion needs
    # a smooth parameter; then its rel bounds the error against a 2^16-vertex
    # uniform-anomaly reference on a thin ellipse, and R(n) is of fourth
    # order, so doubling the spacing multiplies rel by about 16
    field, _ = eee_system(rotated, x - const2(2), gr(1), gr(1))
    want_D, want_T, want_rel = divergence_integral(field, _at_anomaly(2**16))
    assert want_rel < 1e-12
    rels = []
    for spacing in (SPACING, 2 * SPACING):
        D, T, rel = divergence_integral(field, ellipse_loop(rotated, None, spacing)[0], f=rotated)
        assert abs(D - want_D) <= rel * abs(want_D) and abs(T - want_T) <= rel * want_T
        rels.append(rel)
    assert 8 * rels[0] < rels[1]


def test_a_refined_ellipse_stays_at_uniform_anomaly(monkeypatch):
    # a refinement inserts the point at the mean eccentric anomaly of each
    # chord, not the chord's midpoint, so a polyline at uniform anomaly stays
    # one, with the old vertices at its even rows, and rel still bounds the
    # error after the refinement (with chord midpoints, from the tip, the
    # error of D is about 10 times rel)
    from foltools import cycles

    pts = ellipse_loop(rotated, None, 1.5e-2)[0]
    fine = refine_polyline(rotated, pts)
    assert np.array_equal(fine[::2].view(np.int64), pts.view(np.int64))
    cos, sin = ((fine - CENTER) @ AXES.T / np.sum(AXES * AXES, axis=1)).T
    steps = np.diff(np.unwrap(np.arctan2(sin, cos)))
    assert np.max(np.abs(np.abs(steps) - math.pi / (len(pts) - 1))) < 1e-12
    field, _ = eee_system(rotated, x + y - const2(2), gr(1), gr(1))
    want_D, want_T, _ = divergence_integral(field, _at_anomaly(2**16))
    refinements = []
    monkeypatch.setattr(cycles, "refine_polyline", lambda f, pts: refinements.append(len(pts)) or refine_polyline(f, pts))
    for start in (pts, _at_anomaly(len(pts) - 1)):  # from anomaly 0, and from a tip of the long axis
        refinements.clear()
        D, T, rel = divergence_integral(field, start, f=rotated)
        assert len(refinements) == 1
        assert abs(D - want_D) <= rel * abs(want_D) and abs(T - want_T) <= rel * want_T


@pytest.mark.parametrize("r", [Fraction(307, 5000), Fraction(729, 10000), Fraction(1, 15)])
def test_a_sequential_trace_is_filled_so_rel_bounds_its_error(r):
    # both coarse passes refuse these circles at spacing 2e-3, and the
    # sequential loop at the spacing has 193, 229 and 209 chords; filled by
    # two rounds of midpoints its chord count is a multiple of 4, so the
    # Romberg decimations are the loops it was filled from.  g = x^2 + y^2 -
    # r^2, h = x - c, a = b = 1: T = pi / sqrt(c^2 - r^2) and D = 2 pi (c /
    # sqrt(c^2 - r^2) - 1)
    g = x**2 + y**2 - const2(gr(r * r))
    field, _ = eee_system(g, x - const2(3), gr(1), gr(1))
    pts = trace_oval(g, (1.01 * float(r), 0.0), spacing=2e-3)
    assert (len(pts) - 1) % 4 == 0
    D, T, rel = divergence_integral(field, pts, f=g)
    c, r = 3, float(r)
    want_T, want_D = math.pi / math.sqrt(c * c - r * r), 2 * math.pi * (c / math.sqrt(c * c - r * r) - 1)
    assert abs(D - want_D) <= rel * abs(want_D) and abs(T - want_T) <= rel * want_T


def _random_poly(rng: random.Random, degree: int) -> MultiPoly:
    terms = {
        (a, b): gr(Fraction(rng.randint(-60, 60), rng.randint(1, 12)))
        for a in range(degree + 1)
        for b in range(degree + 1 - a)
        if rng.random() < 0.7
    }
    return MultiPoly(2, terms)


def test_horner_scalar_and_array_bits_agree():
    rng = random.Random(7)
    xs = np.array([rng.uniform(-3, 3) for _ in range(200)])
    ys = np.array([rng.uniform(-3, 3) for _ in range(200)])
    for degree in range(7):
        for _ in range(4):
            f = _random_poly(rng, degree)
            for p in (f, f.partial(0), f.partial(1)):
                ev = _horner(p)
                scalar = [ev(float(a), float(b)) for a, b in zip(xs, ys)]
                assert all(type(v) is float for v in scalar)
                array = ev(xs, ys)
                assert array.shape == xs.shape  # constants too
                assert np.array_equal(np.array(scalar).view(np.int64), array.view(np.int64))


def test_gradient_evaluator_has_the_bits_of_three_evaluators():
    # one compiled triple (f, f_x, f_y) of f at unit scale: each entry is the
    # Horner expression of its own evaluator, on scalars and arrays alike
    rng = random.Random(13)
    xs = np.array([rng.uniform(-3, 3) for _ in range(50)])
    ys = np.array([rng.uniform(-3, 3) for _ in range(50)])
    for degree in range(5):
        for _ in range(4):
            f = _random_poly(rng, degree).scale(gr(Fraction(rng.randint(1, 10**9), rng.randint(1, 10**6))))
            unit = f.scale(gr(Fraction(f.den, max(abs(re) for re, _ in f.num.values())))) if f.num else f
            singles = [_horner(p) for p in (unit, unit.partial(0), unit.partial(1))]
            triple = realtopo._horner_with_gradient(f)
            got = triple(xs, ys)
            assert len(got) == 3
            for g, single in zip(got, singles):
                assert g.shape == xs.shape
                assert np.array_equal(g.view(np.int64), single(xs, ys).view(np.int64))
            a, b = float(xs[0]), float(ys[0])
            assert all(type(g) is float for g in triple(a, b))
            assert triple(a, b) == tuple(single(a, b) for single in singles)


def test_horner_coefficients_are_correctly_rounded():
    # f.num over f.den by int/int true division: the float of each coefficient,
    # also for numerators and denominators far beyond float range
    for c in (Fraction(1, 3), Fraction(-2, 7), Fraction(10**400 + 1, 10**399), Fraction(1, 10**320), Fraction(3, 2**1074)):
        f = x.scale(gr(c)) + const2(gr(c))
        assert _horner(f)(1.0, 0.0) == float(c) + float(c) and _horner(f)(0.0, 5.0) == float(c)


def test_horner_within_forward_error_bound():
    # Horner of degree n perturbs the term of degree k by at most 2k roundings
    # (Higham 5.1); rows in y of degree <= dy inside a Horner in x of degree
    # <= dx, plus the rounding of each coefficient, give
    # |p^ - p| <= gamma_{2 dx + 2 dy + 1} * sum |c| |x|^a |y|^b.
    rng = random.Random(11)
    for degree in range(1, 7):
        for _ in range(6):
            f = _random_poly(rng, degree)
            if f.is_constant():
                continue
            dx = max(a for a, _ in f.terms)
            dy = max(b for _, b in f.terms)
            gamma = Fraction(_gamma(2 * dx + 2 * dy + 1))
            ev = _horner(f)
            for _ in range(15):
                px, py = rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5)
                fx, fy = Fraction(px), Fraction(py)
                exact = f.evaluate([gr(fx), gr(fy)]).re
                mass = sum(abs(c.re) * abs(fx) ** a * abs(fy) ** b for (a, b), c in f.terms.items())
                assert abs(Fraction(ev(px, py)) - exact) <= gamma * mass


def test_horner_preconditions():
    with pytest.raises(PreconditionError):
        _horner(x + const2(GaussianRational(0, 1)) * y)
    with pytest.raises(UncertifiedResult, match="float range"):
        _horner(circle.scale(gr(10**400)))
    assert _horner(MultiPoly.zero(2))(-1.5, 2.0) == 0.0


def _scalar_projection(f, pt):
    """`_scalar_corrector` from a seed of any float type, None at a singular point."""
    try:
        return _scalar_corrector(f, float(pt[0]), float(pt[1]))
    except DegenerateInput:
        return None


# on the unit circle, (2**7, 0) reaches the stop at the 12th step and
# (2**8, 0) would at the 13th; (4e-10, 0) has a squared gradient of 6.4e-19
NEWTON_SEEDS = [(4e-10, 0.0), (0.0, 0.0), (2.0**7, 0.0), (2.0**8, 0.0), (1e9, 1e9), (float("nan"), 0.0), (1e200, 1e200)]


def test_newton_project_matches_the_scalar_loop():
    assert _scalar_projection(circle, (2.0**7, 0.0)) is not None
    assert _scalar_projection(circle, (2.0**8, 0.0)) is None
    rng = random.Random(5)
    seeds = NEWTON_SEEDS + [(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(30)]
    product = (x**2 + const2(2) * y**2 - const2(1)) * (x**2 + y**2 - const2(9))
    for f in (circle, product):
        for seed in seeds:
            got, want = newton_project(f, seed), _scalar_projection(f, seed)
            assert (got is None) == (want is None), seed
            if got is not None:
                assert all(type(c) is float for c in got)
                assert np.array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64)), seed


def test_refine_polyline_matches_scalar_newton():
    # the batched projection keeps the trace corrector's per-point rules, so
    # every midpoint gets the same bits as a scalar projection, or stays as
    # it is when that fails; a repeated vertex puts its own value at the
    # midpoint, to reach the other rules
    # (on an ellipse `refine_polyline` projects other points, so the circle
    # is refined by `_midpoints` itself)
    product = (x**2 + const2(2) * y**2 - const2(1)) * (x**2 + y**2 - const2(9))
    for f in (circle, product):
        pts = [tuple(p) for p in trace_oval(f, (1.01, 0.0), spacing=4e-3)] + [s for seed in NEWTON_SEEDS for s in (seed, seed)]
        expected = [pts[0]]
        for a, b in zip(pts, pts[1:]):
            mid = (0.5 * (a[0] + b[0]), 0.5 * (a[1] + b[1]))
            expected += [_scalar_projection(f, mid) or mid, b]
        refined = refine_polyline(f, pts) if f is product else realtopo._midpoints(realtopo._horner_with_gradient(f), np.array(pts))[0]
        assert refined.shape == (2 * len(pts) - 1, 2)
        assert np.array_equal(refined.view(np.int64), np.array(expected).view(np.int64))


@pytest.mark.parametrize("c", [Fraction(1, 10**11), Fraction(1, 10**300), Fraction(10**11), Fraction(3, 7)])
@pytest.mark.parametrize("name", ["ellipse", "quartic"])
def test_numeric_tracing_does_not_depend_on_the_scale_of_f(name, c):
    # c*f is the curve of f, evaluated at the same unit scale
    f = ellipse if name == "ellipse" else quartic
    seeds = [(0.0, 0.8)] if name == "ellipse" else [ov.vertices[0] for ov in count_ovals(quartic, None, 64).ovals]
    scaled = f.scale(gr(c))
    for seed in seeds:
        pts = trace_oval(f, seed, spacing=SPACING)
        assert np.array_equal(pts.view(np.int64), trace_oval(scaled, seed, spacing=SPACING).view(np.int64))
        fine = refine_polyline(f, pts[::8])
        assert np.array_equal(fine.view(np.int64), refine_polyline(scaled, pts[::8]).view(np.int64))
        for pt in [seed, (1.3, -0.2), *NEWTON_SEEDS]:
            assert newton_project(f, pt) == newton_project(scaled, pt), pt


@pytest.mark.parametrize("f, seed", [
    (x**2 + y**2 - const2(gr(Fraction(1, 10**6))), (1.01e-3, 0.0)),
    (x**2 + y**2 - const2(gr(Fraction(1, 1600))), (0.0, 0.0252)),
    (_thin_ellipse(Fraction(1, 3000)), (0.0, 1.01 / 3000)),
    (ellipse, (0.0, 0.8)),
])
def test_the_seed_vertex_satisfies_the_contract(f, seed):
    pts = trace_oval(f, seed, spacing=SPACING)
    v, dx, dy = realtopo._horner_with_gradient(f)(*pts[0])
    assert abs(v) <= TOL * math.sqrt(dx * dx + dy * dy)


@pytest.mark.parametrize("spacing", [0.0, -1e-3, float("nan"), float("inf")])
def test_a_spacing_that_is_not_positive_and_finite_is_refused_at_once(spacing):
    start = time.perf_counter()
    with pytest.raises(PreconditionError, match="spacing"):
        trace_oval(circle, (1.01, 0.0), spacing=spacing)
    assert time.perf_counter() - start < 0.1


# -- the sign grid against exact integer Horner ---------------------------------------


def _degrees(f) -> tuple[int, int]:
    return max(f.degree_in(0), 0), max(f.degree_in(1), 0)


def _scaled_value(f, nx, dx, ny, dy) -> int:
    """Oracle: den * dx^degx * dy^degy * f(nx/dx, ny/dy), term by term from
    the numerators f.num."""
    degx, degy = _degrees(f)
    return sum(c * nx**a * dx ** (degx - a) * ny**b * dy ** (degy - b) for (a, b), (c, _) in f.num.items())


def _scaled_row(f, ny, dx, dy) -> list[int]:
    """Oracle: the coefficients of den * dx^degx * dy^degy * f on y = ny/dy
    as a polynomial in nx = dx*x, term by term from f.num."""
    degx, degy = _degrees(f)
    w = [0] * (degx + 1)
    for (a, b), (c, _) in f.num.items():
        w[a] += c * dx ** (degx - a) * ny**b * dy ** (degy - b)
    return w


def _check_grid(f, ax, sx, dx, ay, sy, dy, n) -> dict:
    """Compare _sign_grid with an exact node-by-node evaluation; return path
    facts.  The grid must come from one filtered float product, and a
    lattice with a node on the curve must give None.  "exact_nodes" are the
    (j, i) the filter left to the exact Horner; "zeros" counts the nodes
    where the exact oracle is zero."""
    exact_nodes = []
    true_nodes = realtopo._true_nodes

    def recording(mask, first_row=0):
        nodes = true_nodes(mask, first_row)
        exact_nodes.extend(nodes)
        return nodes

    with mock.patch.object(realtopo, "_filtered_signs", wraps=realtopo._filtered_signs) as filtered:
        with mock.patch.object(realtopo, "_true_nodes", recording):
            signs, rows = _sign_grid(f, ax, sx, dx, ay, sy, dy, n)
    assert filtered.call_count == 1
    exact = [[_scaled_value(f, ax + i * sx, dx, ay + j * sy, dy) for i in range(n + 1)] for j in range(n + 1)]
    built = [rows[j] for j in range(n + 1)]
    assert built == [_scaled_row(f, ay + j * sy, dx, dy) for j in range(n + 1)]
    overflowing_rows = [j for j, w in enumerate(built) if any(abs(c) > 2**1023 for c in w)]
    zeros = sum(v == 0 for row in exact for v in row)
    if zeros:
        assert signs is None
    else:
        for j in range(n + 1):
            for i in range(n + 1):
                v = exact[j][i]
                assert signs[j, i] == (v > 0) - (v < 0), (j, i)
    return {
        "zeros": zeros,
        "overflowing_rows": overflowing_rows,
        "exact_nodes": set(exact_nodes),
        "max_abs": max(abs(v) for row in exact for v in row),
    }


def test_sign_grid_bigint_matches_exact_horner():
    scaled = circle.scale(gr(10**15))
    # unshifted, the circle passes through lattice nodes (1, 0) etc.; the
    # shifted lattices have denominators 257 and 251
    facts = [_check_grid(scaled, *_box_lattice(Box.square(2), 32, shift)) for shift in (0, 1, 2)]
    assert facts[0]["zeros"] > 0 and facts[1]["zeros"] == facts[2]["zeros"] == 0
    ovals = count_ovals(scaled, Box.square(2), 32)
    assert any("shifted" in w for w in ovals.warnings)
    assert ovals.count == 1 and ovals.certified_count == 1


def test_float_decided_nodes_of_value_one_keep_their_sign():
    # on the integer lattice 0..6, 2x - 2y + 1 is exactly +1 on the diagonal
    # and -1 just above it, never 0; one ulp of bound is far below 1, so the
    # float product decides those nodes and must sign them +1 and -1
    facts = _check_grid(const2(2) * x - const2(2) * y + const2(1), 0, 1, 1, 0, 1, 1, 6)
    assert facts["zeros"] == 0 and facts["max_abs"] == 13
    assert not {(j, j) for j in range(7)} & facts["exact_nodes"]
    assert not {(j + 1, j) for j in range(6)} & facts["exact_nodes"]


@pytest.mark.parametrize(
    "g, lattice, k, value_bits",
    [
        # degx = 0 on an integer lattice: the top row's values are the largest
        (y**3, (1, 1, 1, 1, 1, 1, 24), 295147905179352, 62),
        # x = (1 + 2i)/2 and y = (1 + 2j)/2: t^3 - 7t + 5 in t = xy changes sign twice
        (x**3 * y**3 - const2(7) * x * y + const2(5), (1, 2, 2, 1, 2, 2, 24), 100115, 51),
        (x**4 - y**2 * x + y, (-49, 2, 2, -25, 1, 1, 50), 4544517, 45),
    ],
    ids=["y^3", "(xy)^3", "x^4"],
)
def test_sign_grid_at_the_int64_bound(g, lattice, k, value_bits):
    # k g is the largest multiple of g whose weights, powers and partial sums
    # all stay under 2^62, the most an int64 product could hold; the filtered
    # float product signs it and the next multiple node by node, exactly
    facts = _check_grid(g.scale(gr(k)), *lattice)
    assert facts["max_abs"].bit_length() == value_bits
    _check_grid(g.scale(gr(k + 1)), *lattice)


@pytest.mark.parametrize("f", [y**2 - const2(2), x**3 - const2(2) * x, const2(3)], ids=["degx0", "degy0", "constant"])
def test_sign_grid_with_a_degree_zero_variable_on_both_branches(f):
    # small weights and weights scaled by 10^20 are signed exactly alike
    lattice = _box_lattice(Box.square(2), 8, 1)
    _check_grid(f, *lattice)
    _check_grid(f.scale(gr(10**20)), *lattice)


def test_every_lattice_takes_the_filtered_product(monkeypatch):
    # coarse and subdivision lattices alike, small values as well as large
    # ones: the res-64 lattice of the unit circle and the sub-lattices of a
    # saddle's cell all come from one filtered product each
    filtered, grids = [], []
    plain_filtered, plain_grid = realtopo._filtered_signs, realtopo._sign_grid

    def spy_filtered(rows, nx):
        filtered.append((rows.lines, nx))
        return plain_filtered(rows, nx)

    def spy_grid(f, *lattice):
        grids.append(lattice)
        return plain_grid(f, *lattice)

    monkeypatch.setattr(realtopo, "_filtered_signs", spy_filtered)
    monkeypatch.setattr(realtopo, "_sign_grid", spy_grid)
    assert count_ovals(circle, Box.square(2), 64).certified_count == 1
    assert count_ovals(x * y - const2("1/100"), Box.square(1), 3).open_chains >= 2
    # res 64 plus one step on every side, and a depth-1 sub-lattice
    assert {66, 2} <= {lattice[-1] for lattice in grids}
    node_range = realtopo._node_range
    assert filtered == [(node_range(ay, sy, n), node_range(ax, sx, n)) for ax, sx, _, ay, sy, _, n in grids]


def test_sign_grid_overflowing_rows_use_exact_fallback():
    # rows far from y = 0 have coefficients beyond float range, so Y W
    # overflows there and those rows are evaluated exactly; the rows near it
    # still go through the float filter
    huge = (x**2 + y**2 - const2(1)).scale(gr(10**274)) + y**6 * const2(10**286)
    facts = _check_grid(huge, *_box_lattice(Box.square(2), 8, 1))
    assert 0 < len(facts["overflowing_rows"]) < 11
    assert {(j, i) for j in facts["overflowing_rows"] for i in range(11)} <= facts["exact_nodes"]
    assert len(facts["exact_nodes"]) < 11 * 11


def _naive_float_signs(f, ax, sx, dx, ay, sy, dy, n) -> np.ndarray:
    """The signs of the unfiltered float product (Y W) X of the lattice."""
    rows = _LineRows(f, 0, range(ay, ay + (n + 1) * sy, sy), dy, dx)
    w = np.array([[float(c) for c in r] for r in rows.weights])
    ys = np.array([[float(ay + j * sy) ** b for b in range(w.shape[0])] for j in range(n + 1)])
    xs = np.array([[float(ax + i * sx) ** a for i in range(n + 1)] for a in range(w.shape[1])])
    return np.sign(ys @ w @ xs)


def test_float_filter_sends_cancelling_nodes_to_exact_horner():
    # K (3x - 1)(x + 5)(x - 2) + s at x = k/3: near x = 1/3, -5 and 2 the
    # float Horner cancels to noise, and its sign is often wrong
    wrong_float_signs = 0
    for K in (10**17, 10**18 + 1, 3**40, 7**25):
        for s in (1, -1, 2, -3):
            f = const2(K) * (const2(3) * x - const2(1)) * (x + const2(5)) * (x - const2(2)) + const2(s)
            rows = _LineRows(f, 0, range(0, 1), 1, 3)
            row = _scaled_row(f, 0, 3, 1)
            assert rows[0] == row
            nx = range(-20, 21)
            exact = [_scaled_value(f, v, 3, 0, 1) for v in nx]
            naive = np.zeros(len(nx))
            for c in reversed(row):
                naive = naive * np.array(nx, dtype=float) + float(c)
            wrong_float_signs += sum(np.sign(p) != (e > 0) - (e < 0) for p, e in zip(naive, exact))
            assert _filtered_signs(rows, nx)[0].tolist() == [(e > 0) - (e < 0) for e in exact]
    assert wrong_float_signs > 0


def test_float_filter_sends_nodes_cancelling_in_x_and_y_to_exact_horner():
    # K (3x - 1)(x + 5)(x - 2)(3y + 1)(y - 2) + s at x = k/3, y = l/3: on the
    # lattice lines through the roots of either factor the terms of the two
    # products cancel to noise, and the unfiltered float sign is often wrong
    lattice = (-20, 1, 3, -20, 1, 3, 40)
    wrong_float_signs = 0
    for K, s in ((10**17, 1), (3**40, -2), (7**25, 3)):
        g = (const2(3) * x - const2(1)) * (x + const2(5)) * (x - const2(2))
        f = const2(K) * g * (const2(3) * y + const2(1)) * (y - const2(2)) + const2(s)
        facts = _check_grid(f, *lattice)
        assert 0 < len(facts["exact_nodes"]) < 41 * 41
        exact = np.array([[_scaled_value(f, i, 3, j, 3) for i in range(-20, 21)] for j in range(-20, 21)], dtype=object)
        wrong_float_signs += int((_naive_float_signs(f, *lattice) != np.sign(exact).astype(float)).sum())
    assert wrong_float_signs > 0


@pytest.mark.parametrize("axis", [0, 1], ids=["nx", "ny"])
def test_float_filter_with_coordinates_near_2_to_53(axis):
    # along one axis the integer coordinates run up to 2^53 - 1, exact in
    # float64, and the float filter decides most nodes; one more step, to
    # 2^53, is not exact, and the whole lattice goes to the exact Horner
    for last, filtered in (((1 << 53) - 1, True), (1 << 53, False)):
        big, small = (last - 20, 1, 1 << 50), (-10, 1, 8)  # 8 + k/2^50 and k/8
        if axis == 0:
            f, lattice = (x - const2(8)) ** 2 + y**2 - const2(1), (*big, *small, 20)
        else:
            f, lattice = x**2 + (y - const2(8)) ** 2 - const2(1), (*small, *big, 20)
        facts = _check_grid(f, *lattice)
        assert len(facts["exact_nodes"]) < 21 * 21 // 2 if filtered else len(facts["exact_nodes"]) == 21 * 21


def test_a_weight_beyond_float_range_sends_the_whole_lattice_to_exact_horner():
    facts = _check_grid(circle.scale(gr(10**400)), *_box_lattice(Box.square(2), 8, 1))
    assert len(facts["exact_nodes"]) == 11 * 11
    # one weight, that of x^2, beyond float range, the others small
    facts = _check_grid((x**2).scale(gr(10**310)) + y**2 - const2(1), *_box_lattice(Box.square(2), 8, 1))
    assert len(facts["exact_nodes"]) == 11 * 11


def _row_magnitudes(f, ay, sy, dx, dy, n) -> list[int]:
    """Oracle: for each lattice row y = ny/dy, the largest entry of |Y| |W|,
    sum_b |w_ab| |ny|^b over the power a of nx, term by term from f.num."""
    degx, degy = _degrees(f)
    out = []
    for ny in range(ay, ay + (n + 1) * sy, sy):
        sums = [0] * (degx + 1)
        for (a, b), (c, _) in f.num.items():
            sums[a] += abs(c) * dx ** (degx - a) * abs(ny) ** b * dy ** (degy - b)
        out.append(max(sums))
    return out


def test_rows_whose_products_overflow_are_zeroed_and_evaluated_exactly():
    # every weight of 10^300 x^2 y^2 + x - y - 1/3 fits in float64, but on the
    # 6 rows farthest from y = 0 the product Y W overflows: those rows are
    # zeroed before the second product, and each of their nodes takes the
    # exact Horner
    f = (x**2 * y**2).scale(gr(10**300)) + x - y - const2("1/3")
    ax, sx, dx, ay, sy, dy, n = lattice = _box_lattice(Box.square(2), 64, 1)
    facts = _check_grid(f, *lattice)
    sums = _row_magnitudes(f, ay, sy, dx, dy, n)
    assert all(abs(v - 2**1024) > 2**984 for v in sums)  # none within 2^-40 of the float limit
    overflowing = [j for j, v in enumerate(sums) if v > 2**1024]
    assert len(overflowing) == 6 and n + 1 == 67
    assert {(j, i) for j in overflowing for i in range(n + 1)} <= facts["exact_nodes"]
    # most other nodes overflow in the second product, x^2 times Y W; the
    # rows nearest y = 0 stay in the filter
    assert len(facts["exact_nodes"]) < (n + 1) ** 2


def test_power_columns_that_overflow_are_zeroed_and_evaluated_exactly():
    # x = k 2^40 for k = -16..16: x^24 = k^24 2^960 overflows float64 from
    # |k| = 7 on, so those columns of the power table are zeroed and each of
    # their nodes takes the exact Horner; the other 13 stay in the filter
    f = x**24 - y**2 + const2(1)
    facts = _check_grid(f, -16 << 40, 1 << 40, 1, -16, 1, 1, 32)
    overflowing = [i for i in range(33) if abs(-16 + i) ** 24 << 960 > 2**1024]
    assert len(overflowing) == 20
    assert {(j, i) for j in range(33) for i in overflowing} <= facts["exact_nodes"]
    assert len(facts["exact_nodes"]) < 33 * 33


def test_a_box_near_10_to_100_sends_the_whole_lattice_to_exact_horner():
    # the lattice coordinates of a quartic on [-10^100, 10^100]^2 are integers
    # far beyond 2^53, not exact in float64, so both power tables are zeroed
    f = x**4 - x * y**3 + y.scale(gr(10**200)) - const2(10**300)
    facts = _check_grid(f, *_box_lattice(Box.square(10**100), 16, 1))
    assert len(facts["exact_nodes"]) == 19 * 19
    assert facts["max_abs"] > 2**1024


# -- line restrictions against the Fraction code they replaced -------------------------


def _line_restriction(f, kind, at):
    """Oracle: trimmed Fraction coefficients of f on the horizontal line
    y = at ("h", in x) or the vertical line x = at ("v", in y), scaled to
    integers by the lcm of their denominators for the Sturm counts."""
    coeffs = {}
    for (a, b), c in f.terms.items():
        if kind == "h":
            coeffs[a] = coeffs.get(a, Fraction(0)) + c.re * at**b
        else:
            coeffs[b] = coeffs.get(b, Fraction(0)) + c.re * at**a
    top = max(coeffs, default=0)
    return utrim([re for re, _ in lift([coeffs.get(k, Fraction(0)) for k in range(top + 1)])[1]])


def _oracle_edge_answers(f, lattice):
    """Oracle: every lattice edge's zero-freeness from Fraction nodes and
    one Fraction Sturm chain per line, keyed (kind, i, j)."""
    ax, sx, dx, ay, sy, dy, n = lattice
    nodes_x = [Fraction(ax + i * sx, dx) for i in range(n + 1)]
    nodes_y = [Fraction(ay + j * sy, dy) for j in range(n + 1)]
    answers = {}
    for kind, across, along in (("h", nodes_y, nodes_x), ("v", nodes_x, nodes_y)):
        for line, at in enumerate(across):
            coeffs = _line_restriction(f, kind, at)
            count = sturm_counter(coeffs) if coeffs else None
            for k in range(n):
                key = (kind, k, line) if kind == "h" else (kind, line, k)
                answers[key] = count is not None and count(along[k], along[k + 1]) == 0
    return answers


def _oracle_top_rows(f):
    """Oracle: L(1, t) and L(t, 1) of the top form as untrimmed dict loops."""
    L = leading_form(f)
    n = int(f.degree)
    row, col = {}, {}
    for (a, b), c in L.terms.items():
        row[b] = row.get(b, Fraction(0)) + c.re
        col[a] = col.get(a, Fraction(0)) + c.re
    return [row.get(k, Fraction(0)) for k in range(n + 1)], [col.get(k, Fraction(0)) for k in range(n + 1)]


def _oracle_compactness_check(f):
    restriction, _ = _oracle_top_rows(f)
    if not restriction[-1]:
        return False
    return count_real_roots([re for re, _ in lift(restriction)[1]]) == 0


def _oracle_interval_eval(f, xlo, xhi, ylo, yhi):
    """Oracle: the bivariate term-by-term interval bound."""
    lo_total, hi_total = Fraction(0), Fraction(0)
    for (a, b), c in f.terms.items():
        plo, phi = fraction_box.interval_pow(xlo, xhi, a)
        qlo, qhi = fraction_box.interval_pow(ylo, yhi, b)
        cands = (plo * qlo, plo * qhi, phi * qlo, phi * qhi)
        tlo, thi = min(cands), max(cands)
        if c.re >= 0:
            lo_total, hi_total = lo_total + c.re * tlo, hi_total + c.re * thi
        else:
            lo_total, hi_total = lo_total + c.re * thi, hi_total + c.re * tlo
    return lo_total, hi_total


def _oracle_min_abs(coeffs, lo, hi, depth=14):
    """Oracle: the lower bound through a MultiPoly with y in [0, 0]."""
    poly = MultiPoly(2, {(k, 0): GaussianRational(c, Fraction(0)) for k, c in enumerate(coeffs) if c})

    def rec(a, b, d):
        vlo, vhi = _oracle_interval_eval(poly, a, b, Fraction(0), Fraction(0))
        if vlo > 0:
            return vlo
        if vhi < 0:
            return -vhi
        if d == 0:
            raise DegenerateInput("could not bound the top form away from zero")
        m = (a + b) / 2
        return min(rec(a, m, d - 1), rec(m, b, d - 1))

    return rec(lo, hi, depth)


def _oracle_default_box(f):
    r1, r2 = _oracle_top_rows(f)
    lam = min(_oracle_min_abs(r, Fraction(-1), Fraction(1)) for r in (r1, r2))
    n = int(f.degree)
    lower_mass = {}
    for (a, b), c in f.terms.items():
        if a + b < n:
            lower_mass[a + b] = lower_mass.get(a + b, Fraction(0)) + abs(c.re)
    B = Fraction(2)
    while not lam * B**n > sum(mass * B**d for d, mass in lower_mass.items()):
        B *= 2
    return Box(-B, B, -B, B)


def _seeded_curve(rng, degree):
    """A real curve of the given degree whose ovals, if any, lie near the
    origin: a product of ellipses (and of one line when the degree is odd)
    plus a small random perturbation of lower degree."""
    f = const2(1)
    for _ in range(degree // 2):
        cx, cy = (const2(Fraction(rng.randint(-4, 4), 8)) for _ in range(2))
        a, b = (const2(Fraction(rng.randint(1, 4), rng.randint(1, 3))) for _ in range(2))
        shear = const2(Fraction(rng.randint(-2, 2), 5))
        u, v = x - cx, y - cy
        f = f * (a * u**2 + shear * u * v + b * v**2 - const2(Fraction(rng.randint(1, 6), 8)))
    if degree % 2:
        f = f * (x + const2(Fraction(rng.randint(-3, 3), 4)) * y - const2(Fraction(rng.randint(-4, 4), 8)))
    for _ in range(3):
        da, db = rng.randint(0, degree - 1), rng.randint(0, degree - 1)
        if da + db < degree:
            f = f + const2(Fraction(rng.randint(-9, 9), 500)) * x**da * y**db
    return f


def test_top_form_restrictions_match_dict_loops():
    # compactness_check and default_box read L(1, t) and L(t, 1) through
    # _specialize and a univariate interval bound; the dict loops and
    # the bivariate bound with y in [0, 0] give the same verdicts and boxes
    rng = random.Random(2024)
    compact = 0
    for degree in (2, 3, 4, 5, 6) * 6:
        f = _seeded_curve(rng, degree)
        verdict = compactness_check(f)
        assert verdict == _oracle_compactness_check(f), print_poly(f)
        if verdict:
            compact += 1
            assert default_box(f) == _oracle_default_box(f), print_poly(f)
    # the same on top forms without a y^n term, with real directions, and
    # on sums of squares with a real-rootless but nonconstant L(1, t)
    for text in ("x^2*y + y - 1", "x*y^3 + x^4 - 2", "x^4 - y^4 + 1", "(x^2 + 2*x*y + 3*y^2)^2 - 1", "x^6 + y^6 - x*y"):
        f = parse_poly(text, 2)
        assert compactness_check(f) == _oracle_compactness_check(f), text
        if compactness_check(f):
            assert default_box(f) == _oracle_default_box(f), text
    assert compact >= 12


def _gen_ellipse(rng: random.Random) -> MultiPoly:
    """An axis-parallel ellipse drawn as perfbench's oval generator draws
    one: centre coordinates k/4 in [-3/2, 3/2], semi-axes k/4 in [1/2, 2]."""
    cx, cy = (Fraction(rng.randint(-6, 6), 4) for _ in range(2))
    a, b = (Fraction(rng.randint(2, 8), 4) for _ in range(2))
    return (x - const2(cx)).scale(gr(1 / a)) ** 2 + (y - const2(cy)).scale(gr(1 / b)) ** 2 - const2(1)


def _gen_crossing_pair(rng: random.Random) -> MultiPoly:
    """The level set E1*E2 = -eps of two crossing ellipses a X^2 + b Y^2 = 1
    and b X^2 + a Y^2 = 1 in shifted, scaled coordinates, as perfbench draws it."""
    a = rng.choice((Fraction(1, 2), Fraction(1), Fraction(3, 2)))
    b = a * rng.choice((Fraction(3, 2), Fraction(2), Fraction(3)))
    eps = rng.choice((Fraction(1, 20), Fraction(2, 25), Fraction(1, 8), Fraction(1, 5), Fraction(3, 10))) * (a - b) ** 2 / (4 * a * b)
    cx, cy = (Fraction(rng.randint(-6, 6), 8) for _ in range(2))
    s = rng.choice((Fraction(1), Fraction(3, 2), Fraction(2)))
    X, Y = (x - const2(cx)).scale(gr(1 / s)), (y - const2(cy)).scale(gr(1 / s))
    return (const2(a) * X**2 + const2(b) * Y**2 - const2(1)) * (const2(b) * X**2 + const2(a) * Y**2 - const2(1)) + const2(eps)


def _needle(delta: Fraction) -> MultiPoly:
    """(3y - x)^2 + delta x^2 - 1: the top form is small only near the
    direction (3 : 1), so its lower bound on [-1, 1] needs deep bisection,
    more the smaller delta is."""
    return (const2(3) * y - x) ** 2 + const2(delta) * x**2 - const2(1)


def test_default_box_matches_the_fraction_bisection():
    # the integer bisection gives the Box of the Fraction one (tests/fraction_box.py)
    rng = random.Random(33)
    curves = []
    for _ in range(220):
        f = const2(1)
        for _ in range(rng.choice((1, 2, 3))):
            f = f * _gen_ellipse(rng)
        curves.append(f)
    curves += [_gen_crossing_pair(rng) for _ in range(100)]
    curves += [gallery(name).curve for name in ("circle", "quartic-4-ovals")]
    curves += [_needle(Fraction(1, 10**k)) for k in range(1, 4)] + [quartic.scale(gr(Fraction(10**30, 7)))]
    for f in curves:
        assert default_box(f) == fraction_box.default_box(f), print_poly(f)
    assert len(curves) >= 300 and len({default_box(f) for f in curves}) >= 3
    # the needle at delta = 1/1000 needs at least 10 of the 14 bisections
    coeffs = realtopo._top_form_on(leading_form(_needle(Fraction(1, 1000))), 1)
    with pytest.raises(DegenerateInput):
        realtopo._min_abs_on_interval(coeffs, Fraction(-1), Fraction(1), depth=9)
    # where the depth runs out, both raise
    for delta in (Fraction(1, 10**6), Fraction(1, 10**9)):
        for box in (default_box, fraction_box.default_box):
            with pytest.raises(DegenerateInput, match="could not bound"):
                box(_needle(delta))


def test_min_abs_on_interval_matches_the_fraction_bisection():
    # any Fraction endpoints, not only the dyadic ones default_box passes, and
    # any depth: the same lower bound, or DegenerateInput from both
    rng = random.Random(34)
    decided = 0
    for _ in range(400):
        coeffs = [rng.randint(-20, 20) for _ in range(rng.randint(1, 7))]
        lo = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        hi = lo + Fraction(rng.randint(1, 30), rng.randint(1, 12))
        depth = rng.randint(0, 8)
        try:
            want = fraction_box.min_abs_on_interval(coeffs, lo, hi, depth)
        except DegenerateInput:
            with pytest.raises(DegenerateInput):
                realtopo._min_abs_on_interval(coeffs, lo, hi, depth)
            continue
        decided += 1
        assert realtopo._min_abs_on_interval(coeffs, lo, hi, depth) == want, (coeffs, lo, hi, depth)
    assert decided >= 150


def _lattice_lines(f, lattice) -> _LatticeLines:
    """The edge prover of a lattice, given the signs and rows of its sign grid."""
    signs, rows = _sign_grid(f, *lattice)
    return _LatticeLines(f, lattice, signs, rows)


def _zero_free(lines, kind, line, ks) -> list[bool]:
    """The prover's answers for the edges ks of one line, asked together."""
    return lines.zero_free(kind, np.full(len(ks), line), np.array(ks, dtype=np.int64)).tolist()


def _edge_is_zero_free(lines, kind, i, j) -> bool:
    """One edge's answer: a crossed edge is not zero-free; any other goes to the prover alone."""
    line, k = (j, i) if kind == "h" else (i, j)
    return _ends_agree(lines, kind, i, j) and _zero_free(lines, kind, line, [k])[0]


def _uncrossed_edges(lines, kind, line) -> tuple[list[int], list[tuple]]:
    """The line's uncrossed edges: their indices along it and their (kind, i, j) keys."""
    along = lines.signs[line] if kind == "h" else lines.signs[:, line]
    ks = np.flatnonzero(along[:-1] == along[1:]).tolist()
    return ks, [(kind, k, line) if kind == "h" else (kind, line, k) for k in ks]


def _tally_edge_proofs(monkeypatch) -> dict:
    """Spy on the prover: tally the edges it decides by the float Descartes
    test and by exact Sturm counts, and the Sturm chains it builds."""
    tally = {"float": 0, "exact": 0, "chains": 0}
    floats, chain = _LatticeLines.float_proofs, realtopo.sturm_counter

    def recording_floats(self, kind, line, k):
        proven = floats(self, kind, line, k)
        tally["float"] += int(proven.sum())
        return proven

    def recording_chain(c):
        count = chain(c)
        tally["chains"] += 1
        return lambda lo, hi: tally.__setitem__("exact", tally["exact"] + 1) or count(lo, hi)

    monkeypatch.setattr(realtopo, "sturm_counter", recording_chain)
    monkeypatch.setattr(_LatticeLines, "float_proofs", recording_floats)
    return tally


def test_lattice_lines_match_fraction_restrictions():
    # on shifted lattices around seeded curves of degree 2 to 6 every edge
    # answer of the integer rows equals the Fraction-node Sturm count
    rng = random.Random(99)
    for degree in (2, 3, 4, 5, 6):
        f = _seeded_curve(rng, degree)
        for box, res, shift in ((Box.square(2), 9, 1), (Box(Fraction(-3, 2), Fraction(5, 3), Fraction(-1), Fraction(2)), 7, 3)):
            lattice = _box_lattice(box, res, shift)
            lines = _lattice_lines(f, lattice)
            expected = _oracle_edge_answers(f, lattice)
            assert {key: _edge_is_zero_free(lines, *key) for key in expected} == expected, (degree, box)
            assert 0 < sum(expected.values()) < len(expected)


def test_lattice_lines_match_per_edge_sturm_counts():
    # one Sturm chain per lattice line gives the per-edge answers
    f = quartic * ((x - const2("1/3")) ** 2 + const2(2) * y**2 - const2("1/4"))
    lattice = (-14, 1, 7, -14, 1, 6, 28)  # x_i = i/7 - 2, y_j = j/6 - 7/3
    nodes_x = [Fraction(k, 7) - 2 for k in range(29)]
    nodes_y = [Fraction(k, 6) - Fraction(7, 3) for k in range(29)]
    lines = _lattice_lines(f, lattice)
    zero_free = 0
    for kind in ("h", "v"):
        for i in range(28):
            for j in range(28):
                if kind == "h":
                    coeffs, lo, hi = _line_restriction(f, "h", nodes_y[j]), nodes_x[i], nodes_x[i + 1]
                else:
                    coeffs, lo, hi = _line_restriction(f, "v", nodes_x[i]), nodes_y[j], nodes_y[j + 1]
                expected = count_real_roots(coeffs, lo, hi) == 0
                assert _edge_is_zero_free(lines, kind, i, j) == expected, (kind, i, j)
                zero_free += expected
    assert 0 < zero_free < 2 * 28 * 28
    # y = 0 is the lattice line j = 14, where y * f vanishes identically: its
    # nodes are zeros of f, which the edge prover refuses
    with pytest.raises(ValueError):
        _lattice_lines(y * f, lattice)


def _exact_descartes(lines, kind, line, k) -> list[int]:
    """The Descartes coefficients D of one edge, summed in integers from
    `_descartes_kernel` and the exact t^b p^c."""
    rows, (first, step) = lines.rows[kind], lines.along[kind]
    t, p = rows.lines[line], first + k * step
    z = [t**b * p**c for b in range(len(rows.weights)) for c in range(len(rows.weights[0]))]
    return [sum(v * w for v, w in zip(row, z)) for row in realtopo._descartes_kernel(rows.weights, step).tolist()]


def _sign_variations(values) -> int:
    signs = [v > 0 for v in values if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _int_poly_from_roots(roots: list[int], tail: list[int]) -> list[int]:
    """tail * prod (x - r) over the integer list roots, low to high."""
    c = list(tail)
    for r in roots:
        c = [a - r * b for a, b in zip([0] + c, c + [0])]
    return c


def _edge_descartes(c: list[int], lo: int, hi: int) -> list[int]:
    """D of the one-line row c (weights [c], t^0 = 1) on the edge from lo to hi."""
    return [sum(v * lo**k for k, v in enumerate(row)) for row in realtopo._descartes_kernel([list(c)], hi - lo).tolist()]


def test_descartes_coefficients_bound_the_roots_in_an_edge_with_their_parity():
    # on random integer polynomials (untrimmed: d may exceed the degree) and
    # edges with nonzero ends, the sign variations of D are at least the
    # number of distinct roots that Sturm finds there, and for a squarefree
    # polynomial of the same parity; on products of known integer roots,
    # repeated ones too, and a factor x^2 + k with no real root, at least the
    # roots counted with multiplicity, again of the same parity; D_0 and D_d
    # are the values at the ends
    rng = random.Random(2027)
    exact = 0
    for _ in range(600):
        c = [rng.randint(-30, 30) for _ in range(rng.randint(1, 9))]
        lo = rng.randint(-12, 11)
        hi = rng.randint(lo + 1, 13)
        if not any(c) or ueval(c, lo) == 0 or ueval(c, hi) == 0:
            continue
        d = _edge_descartes(c, lo, hi)
        assert (d[0], d[-1]) == (ueval(c, hi), ueval(c, lo)), (c, lo, hi)
        v, roots = _sign_variations(d), count_real_roots(c, Fraction(lo), Fraction(hi))
        assert v >= roots, (c, lo, hi)
        if len(_int_sturm_chain(utrim(list(c)))[-1]) == 1:
            assert (v - roots) % 2 == 0, (c, lo, hi)
        exact += v == roots
    assert exact > 300
    for _ in range(300):
        roots = [rng.randint(-6, 6) for _ in range(rng.randint(0, 5))]
        c = _int_poly_from_roots(roots, [rng.randint(1, 9), 0, rng.randint(1, 9)])
        lo = rng.randint(-8, 5) * 2 + 1  # odd ends are never roots
        hi = lo + 2 * rng.randint(1, 6)
        inside = sum(lo < r < hi for r in roots)
        v = _sign_variations(_edge_descartes(c, lo, hi))
        assert v >= inside and (v - inside) % 2 == 0, (roots, lo, hi)
    assert _sign_variations(_edge_descartes([1, -2, 1], 0, 2)) == 2  # (x - 1)^2
    assert _sign_variations(_edge_descartes([1, -2, 1], 2, 5)) == 0
    assert _edge_descartes([5], -3, 4) == [5]


def _sign_changes(signs) -> int:
    """S: the sign changes between consecutive nodes of one lattice line."""
    return int(np.count_nonzero(signs[:-1] != signs[1:]))


def _ends_agree(lines, kind, i, j):
    """Whether a proof that trusts the sign changes alone would call the edge
    zero-free: the edge's ends agree."""
    hi = lines.signs[j, i + 1] if kind == "h" else lines.signs[j + 1, i]
    return lines.signs[j, i] == hi


def test_two_roots_on_one_same_sign_edge_are_refused():
    # a circle of radius 1/20 centred on the lattice line y = 1/2, between the
    # nodes x = 1 and x = 3/2, inside a cell of the big circle's loop: the
    # line changes sign only where the big circle crosses it (S = 2 < deg_x f
    # = 4), and the edge between those nodes has one sign at both ends and
    # two roots
    big = x**2 + y**2 - const2("6/5")
    f = big * ((x - const2("5/4")) ** 2 + (y - const2("1/2")) ** 2 - const2("1/400"))
    box, res = Box.square(2), 8
    lattice = _box_lattice(box, res, 0)
    ax, sx, dx, ay, sy, dy, _ = lattice
    assert (Fraction(ax + 7 * sx, dx), Fraction(ay + 6 * sy, dy)) == (1, Fraction(1, 2))
    lines = _lattice_lines(f, lattice)
    assert _sign_changes(lines.signs[6]) == 2 and f.degree_in(0) == 4
    assert _ends_agree(lines, "h", 7, 6)
    assert not _edge_is_zero_free(lines, "h", 7, 6)
    assert _oracle_edge_answers(f, lattice)["h", 7, 6] is False
    # the loop of the big circle is found but not proven; alone it is proven
    ovals = count_ovals(f, box, res)
    assert (ovals.count, ovals.certified_count, ovals.open_chains) == (1, 0, 0)
    assert count_ovals(big, box, res).certified_count == 1


def test_a_double_root_inside_an_uncrossed_edge_is_refused(monkeypatch):
    # a circle of radius 1/20 tangent to the lattice line y = 1/2 from above
    # at x = 5/4, inside a cell of the big circle's loop: on that line f has
    # a double root inside the uncrossed edge from x = 1 to x = 3/2, so the
    # edge's Descartes coefficients change sign twice; the float test cannot
    # prove it, and the edge's own Sturm count, on the one chain built for
    # that line, finds the root
    big = x**2 + y**2 - const2("6/5")
    f = big * ((x - const2("5/4")) ** 2 + (y - const2("11/20")) ** 2 - const2("1/400"))
    lattice = _box_lattice(Box.square(2), 8, 0)
    lines = _lattice_lines(f, lattice)
    row = lines.rows["h"][6]  # y = 1/2, in nx = 2x
    assert count_real_roots(row) == 3 and _sign_changes(lines.signs[6]) == 2 and _ends_agree(lines, "h", 7, 6)
    first, step = lines.along["h"]
    assert _sign_variations(_exact_descartes(lines, "h", 6, 7)) == 2
    assert count_real_roots(row, Fraction(first + 7 * step), Fraction(first + 8 * step)) == 1
    refused, chains = [], []
    floats = _LatticeLines.float_proofs

    def spy_floats(self, kind, line, k):
        proven = floats(self, kind, line, k)
        refused.extend((kind, at, e) for at, e, ok in zip(line.tolist(), k.tolist(), proven.tolist()) if not ok)
        return proven

    def spy_chain(c):
        chains.append(list(c))
        return sturm_counter(c)

    monkeypatch.setattr(_LatticeLines, "float_proofs", spy_floats)
    monkeypatch.setattr(realtopo, "sturm_counter", spy_chain)
    ovals = count_ovals(f, Box.square(2), 8)
    assert (ovals.count, ovals.certified_count, ovals.open_chains, ovals.warnings) == (1, 0, 0, [])
    assert ("h", 6, 7) in refused and chains.count(row) == 1
    assert count_ovals(big, Box.square(2), 8).certified_count == 1


def test_proven_lines_match_the_fraction_oracle(monkeypatch):
    # on coarse shifted lattices around seeded curves of degree 2 to 6, single
    # edges and each line's uncrossed edges asked together are decided by
    # the float Descartes test and by exact Sturm counts, some same-sign
    # edges hold roots, and every answer equals the Fraction Sturm oracle
    rng = random.Random(7)
    lattices = (
        (Box.square(2), 6, 2),
        (Box.square(1), 5, 5),
        (Box(Fraction(-1), Fraction(3, 2), Fraction(-5, 4), Fraction(1)), 11, 7),
    )
    tally = _tally_edge_proofs(monkeypatch)
    roots_on_same_sign_edges = 0
    for degree in (2, 3, 4, 5, 6):
        f = _seeded_curve(rng, degree)
        for box, res, shift in lattices:
            lattice = _box_lattice(box, res, shift)
            lines = _lattice_lines(f, lattice)
            expected = _oracle_edge_answers(f, lattice)
            for key, want in expected.items():
                assert _edge_is_zero_free(lines, *key) == want, (degree, box, key)
                roots_on_same_sign_edges += not want and _ends_agree(lines, *key)
            for kind in ("h", "v"):
                for line in range(lattice[-1] + 1):
                    ks, keys = _uncrossed_edges(lines, kind, line)
                    assert _zero_free(lines, kind, line, ks) == [expected[key] for key in keys]
    assert min(tally.values()) > 0 and roots_on_same_sign_edges > 0


def _float_test_lattices(rng) -> list[tuple]:
    """(f, lattice, kind of case) for the float Descartes test: seeded curves
    of degree 2 to 6 on lattices near them, the same curves moved far from
    the origin under a lattice of the same small step (so each edge's
    coefficients cancel heavily), circles touching a lattice line from above
    at a double root or a hair from it, a lattice whose coordinates reach
    2^53 and a curve whose weights are beyond float range."""
    out = []
    for degree in (2, 3, 4, 5, 6):
        f = _seeded_curve(rng, degree)
        out.append((f, _box_lattice(Box.square(2), 9, 1), "near"))
        for off in (10**3, 10**5):
            box = Box(Fraction(off - 2), Fraction(off + 2), Fraction(off - 2), Fraction(off + 2))
            out.append((f.shift((-off, -off)), _box_lattice(box, 9, 1), "far"))
    big = x**2 + y**2 - const2("6/5")
    for gap in (0, Fraction(1, 10**12), -Fraction(1, 10**12), Fraction(1, 10**3)):
        small = (x - const2("5/4")) ** 2 + (y - const2(Fraction(11, 20) + gap)) ** 2 - const2("1/400")
        out.append((big * small, _box_lattice(Box.square(2), 8, 0), "tangent"))
    huge = Box(Fraction(-2) + Fraction(1, 2**55), Fraction(2), Fraction(-2), Fraction(2))
    out.append((quartic, _box_lattice(huge, 6, 0), "exact"))
    out.append((quartic.scale(gr(10**400)), _box_lattice(Box.square(2), 6, 1), "exact"))
    return out


def _float_test_answers(f, lattice) -> list[tuple]:
    """(kind, line, k, float proof, prover's answer, exact Sturm answer) for
    every edge of the lattice, the exact answer from a per-edge Sturm count
    on a chain of the edge's own row."""
    lines, n = _lattice_lines(f, lattice), lattice[-1]
    out = []
    for kind in ("h", "v"):
        line, k = np.divmod(np.arange((n + 1) * n), n)
        floats, answers = lines.float_proofs(kind, line, k).tolist(), lines.zero_free(kind, line, k).tolist()
        first, step = lines.along[kind]
        for at, e, fl, ans in zip(line.tolist(), k.tolist(), floats, answers):
            want = sturm_counter(lines.rows[kind][at])(first + e * step, first + (e + 1) * step) == 0
            out.append((kind, at, e, fl, ans, want))
    return out


def test_the_float_descartes_test_matches_exact_sturm_counts(monkeypatch):
    # on seeded lattices every float proof is right and every answer equals
    # the exact per-edge Sturm count; floats prove most zero-free edges near
    # the curves, the far lattices and tangencies send edges to the exact
    # path, and lattices with coordinates reaching 2^53 or weights beyond
    # float range prove nothing by floats
    rng = random.Random(11)
    cases = _float_test_lattices(rng)
    tally, touching = {}, []
    for f, lattice, case in cases:
        rows = _float_test_answers(f, lattice)
        assert all(ans == want and (want or not fl) for *_, fl, ans, want in rows), (case, lattice)
        floats, free = tally.get(case, (0, 0))
        tally[case] = floats + sum(fl for *_, fl, _, _ in rows), free + sum(want for *_, want in rows)
        if case == "tangent":
            touching += [(fl, want) for *key, fl, _, want in rows if key == ["h", 6, 7]]
    # the uncrossed edge from x = 1 to 3/2 on y = 1/2 holds the double root
    # (gap 0) and the two close roots (gap -1e-12), and no root at the gaps
    # 1e-12 and 1e-3; the floats prove none of the four
    assert touching == [(False, False), (False, True), (False, False), (False, True)]
    assert tally["exact"][0] == 0 and tally["exact"][1] > 0
    assert tally["near"][0] > 0.9 * tally["near"][1]
    assert 0 < tally["far"][0] < tally["far"][1] and tally["tangent"][0] < tally["tangent"][1]
    # mutation check: with the rounding bound scaled to 0 (sign grids built
    # first, with the true bound), some seeded edge is proven wrongly
    grids = [(f, lattice, _lattice_lines(f, lattice)) for f, lattice, case in cases if case == "far"]
    monkeypatch.setattr(realtopo, "_gamma", lambda k: 0.0)
    wrong = 0
    for f, lattice, lines in grids:
        n = lattice[-1]
        for kind in ("h", "v"):
            line, k = np.divmod(np.arange((n + 1) * n), n)
            proven = lines.float_proofs(kind, line, k)
            first, step = lines.along[kind]
            for at, e in zip(line[proven].tolist(), k[proven].tolist()):
                wrong += sturm_counter(lines.rows[kind][at])(first + e * step, first + (e + 1) * step) > 0
    assert wrong > 0


def _cell_edges(i, j) -> list[tuple]:
    """The (kind, i, j) keys of the bottom, top, left and right edges of cell (i, j)."""
    return [("h", i, j), ("h", i, j + 1), ("v", i, j), ("v", i + 1, j)]


def test_certify_loop_matches_the_edge_oracle_on_any_cells():
    # `_certify_loops` tells whether every edge of each set of cells is
    # crossed or zero-free; on random blocks and scatters of cells of shifted
    # lattices around seeded curves, asked one set at a time and all of a
    # lattice's sets at once, it agrees with the Fraction Sturm oracle edge by
    # edge, and gives both answers
    rng = random.Random(31)
    answers = []
    for degree in (2, 3, 4, 5, 6):
        f = _seeded_curve(rng, degree)
        for box, res, shift in ((Box.square(2), 9, 1), (Box(Fraction(-1), Fraction(3, 2), Fraction(-5, 4), Fraction(1)), 11, 7)):
            lattice = _box_lattice(box, res, shift)
            n = lattice[-1]
            lines, expected = _lattice_lines(f, lattice), _oracle_edge_answers(f, lattice)
            loops, wants = [], []
            for _ in range(30):
                i, j, w, h = rng.randrange(n), rng.randrange(n), rng.randint(1, 6), rng.randint(1, 6)
                cells = {(a, b) for a in range(i, min(i + w, n)) for b in range(j, min(j + h, n))}
                cells |= {(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3))}
                keys = {key for c in cells for key in _cell_edges(*c)}
                want = all(not _ends_agree(lines, *key) or expected[key] for key in keys)
                assert realtopo._certify_loops([tuple_mesher.cell_array(cells)], lines) == [want], (degree, box, sorted(cells))
                loops.append(cells)
                wants.append(want)
            assert realtopo._certify_loops([tuple_mesher.cell_array(c) for c in loops], _lattice_lines(f, lattice)) == wants, (degree, box)
            answers += wants
    assert 0 < sum(answers) < len(answers)


def test_edges_the_float_test_proves_build_no_chain(monkeypatch):
    built, asked = [], []
    floats = _LatticeLines.float_proofs

    def spy_chain(c):
        built.append(list(c))
        return sturm_counter(c)

    def spy_floats(self, kind, line, k):
        proven = floats(self, kind, line, k)
        asked.extend(zip([kind] * len(line), line.tolist(), k.tolist(), proven.tolist()))
        return proven

    monkeypatch.setattr(realtopo, "sturm_counter", spy_chain)
    monkeypatch.setattr(_LatticeLines, "float_proofs", spy_floats)
    lattice = _box_lattice(Box.square(2), 8, 0)  # nodes at k/2 - 5/2 on both axes
    lines = _lattice_lines(x**2 + y**2 - const2("6/5"), lattice)
    # y = 1/2, 1 (j = 6, 7) and x = -1/2, 0 (i = 4, 5) each cross the circle
    # twice, and it passes through the cell (4, 6) across its top and left
    # sides: those are never asked, and the float test proves the other two,
    # so no row is read
    assert _sign_changes(lines.signs[6]) == _sign_changes(lines.signs[7]) == 2
    assert _sign_changes(lines.signs[:, 4]) == _sign_changes(lines.signs[:, 5]) == 2
    assert realtopo._certify_loops([np.array([[4, 6]])], lines) == [True]
    assert sorted(asked) == [("h", 6, 4, True), ("v", 5, 6, True)]
    assert built == [] and lines.rows["h"]._built == lines.rows["v"]._built == {}
    # the cell (3, 8) outside the circle, and (5, 6), which it crosses at its
    # top and right sides: the uncrossed sides are proven by floats
    asked.clear()
    assert realtopo._certify_loops([np.array([[3, 8]]), np.array([[5, 6]])], lines) == [True, True]
    assert all(proven for *_, proven in asked) and ("v", 6, 6, True) not in asked
    assert len(asked) == 4 + 2 and built == []


def test_a_box_that_cuts_an_oval_keeps_the_oracle_answers():
    # the lattice of this box cuts the quartic's right oval (x from 0.69 to
    # 0.99), so lines hold roots outside the lattice range as well as inside
    box = Box(Fraction(17, 20), Fraction(6, 5), Fraction(-1, 2), Fraction(1, 2))
    lattice = _box_lattice(box, 5, 0)
    ax, sx, dx, ay, sy, dy, n = lattice
    lines = _lattice_lines(quartic, lattice)
    roots_on_same_sign_edges = 0
    answers = _oracle_edge_answers(quartic, lattice)
    for key, expected in answers.items():
        assert _edge_is_zero_free(lines, *key) == expected, key
        roots_on_same_sign_edges += not expected and _ends_agree(lines, *key)
    assert roots_on_same_sign_edges > 0
    cut = 0
    for kind, across, lo, hi in (
        ("h", [Fraction(ay + j * sy, dy) for j in range(n + 1)], Fraction(ax, dx), Fraction(ax + n * sx, dx)),
        ("v", [Fraction(ax + i * sx, dx) for i in range(n + 1)], Fraction(ay, dy), Fraction(ay + n * sy, dy)),
    ):
        for line, at in enumerate(across):
            coeffs = _line_restriction(quartic, kind, at)
            inside = count_real_roots(coeffs, lo, hi)
            ks, keys = _uncrossed_edges(lines, kind, line)
            # the stretch of all the line's uncrossed edges counts only the roots inside it
            proven = bool(ks) and all(_zero_free(lines, kind, line, ks))
            assert proven == (bool(ks) and all(answers[key] for key in keys)), (kind, line)
            cut += proven and 0 < inside < count_real_roots(coeffs)
    assert cut > 0
    ovals = count_ovals(quartic, box, 5)
    assert ovals.count == 0 and ovals.open_chains == 1


def test_subdivision_lattices_refine_their_cell(monkeypatch):
    # each sub-lattice the mesher evaluates spans its coarse cell in m equal
    # steps, and its signs are those of f at the rational nodes
    f = parse_poly("(x^2+y^2)^2 - 4*x*y", 2)  # the saddle at the origin exhausts every depth
    lattices = []
    plain = realtopo._sign_grid

    def recording(g, *lattice):
        lattices.append(lattice)
        return plain(g, *lattice)

    monkeypatch.setattr(realtopo, "_sign_grid", recording)
    ovals = count_ovals(f, Box(Fraction(-3, 2), Fraction(3, 2), Fraction(-2), Fraction(2)), 5)
    assert ovals.warnings == ["cell (3,3) still ambiguous at depth 6; count may be unreliable there"]
    (ax, sx, dx, ay, sy, dy, _), subs = lattices[0], lattices[1:]
    assert [sub[-1] for sub in subs] == [2, 4, 8, 16, 32, 64]
    x1, x2 = Fraction(ax + 3 * sx, dx), Fraction(ax + 4 * sx, dx)
    y1, y2 = Fraction(ay + 3 * sy, dy), Fraction(ay + 4 * sy, dy)
    for sax, ssx, sdx, say, ssy, sdy, m in subs:
        assert (Fraction(sax, sdx), Fraction(sax + m * ssx, sdx)) == (x1, x2)
        assert (Fraction(say, sdy), Fraction(say + m * ssy, sdy)) == (y1, y2)
        if m <= 8:
            # a sub-lattice with a node on the curve has no signs
            signs, _ = plain(f, sax, ssx, sdx, say, ssy, sdy, m)
            values = [[f.evaluate((x1 + (x2 - x1) * a / m, y1 + (y2 - y1) * b / m)).re for a in range(m + 1)] for b in range(m + 1)]
            assert (signs is None) == any(v == 0 for row in values for v in row), m
            for b in range(m + 1):
                for a in range(m + 1):
                    v = values[b][a]
                    assert signs is None or signs[b, a] == (v > 0) - (v < 0), (m, a, b)


# -- characterization of the mesher's output ------------------------------------------


def _fingerprint(ovals) -> tuple:
    """Per oval: vertex count, certified flag and a sha256 prefix of the
    vertices as float.hex; then the warnings and the open-chain count."""
    per_oval = []
    for o in ovals.ovals:
        text = " ".join(f"{vx.hex()},{vy.hex()}" for vx, vy in o.vertices)
        per_oval.append((len(o.vertices), o.certified, hashlib.sha256(text.encode()).hexdigest()[:16]))
    return per_oval, ovals.warnings, ovals.open_chains


SHARED_EDGE = "3 crossings on one shared edge; neighbor resolution too coarse, pairing locally"
OPEN_2 = "2 open chain(s) reached the search boundary"


@pytest.mark.parametrize(
    "curve, box, res, expected",
    [
        # the cell at the origin is ambiguous and one subdivision resolves it
        ("x*y - 1/100", Box.square(1), 3, ([], [OPEN_2], 2)),
        # a true crossing: depth runs out and the cell is paired on a diagonal
        (
            "x*y",
            Box.square(1),
            8,
            (
                [],
                [
                    "lattice shifted 1 time(s) to avoid exact zeros at nodes",
                    "cell (4,4) still ambiguous at depth 6; count may be unreliable there",
                    OPEN_2,
                ],
                2,
            ),
        ),
        # three sub-crossings on one edge of the subdivided cell
        (
            "((x-1/4)*(y-1/4) - 1/100)*((x-3/32)^2 + (y-15/64)^2 - 1/16)",
            Box.square(1),
            4,
            ([], [f"cell (3,3): {SHARED_EDGE}", OPEN_2], 2),
        ),
        # closed ovals through subdivided cells: resolved at depth 1, at
        # depth 2, not resolved, and with three crossings on a shared edge
        (
            "(x^2+y^2)^2 - 4*x*y + 1/100",
            Box.square(2),
            5,
            ([(5, True, "050cc56d320ca094"), (5, True, "93997d27a304ee42")], [], 0),
        ),
        ("(x^2+y^2)^2 - 4*x*y - 1/100", Box.square(2), 5, ([(17, True, "0b33d9a86e906df1")], [], 0)),
        # a box taller than wide: vertices on vertical sub-edges
        (
            "(x^2+y^2)^2 - 4*x*y - 1/100",
            Box(Fraction(-3, 2), Fraction(3, 2), Fraction(-2), Fraction(2)),
            5,
            ([(15, True, "48cefab7a94f1742")], [], 0),
        ),
        (
            "(x^2+y^2)^2 - 4*x*y",
            Box.square(2),
            5,
            (
                [(5, False, "431c88b0c3d0330c"), (5, False, "d68d5b47d96c60b5")],
                ["cell (3,3) still ambiguous at depth 6; count may be unreliable there"],
                0,
            ),
        ),
        (
            "((x-3/8)^2 + (y+5/16)^2 - 7/64)*((x+1/16)^2 + 2*(y+3/16)^2 - 7/64) + 1/5000",
            Box.square(1),
            4,
            ([(15, False, "fb3f642b18902c76"), (19, False, "dfca444433aa1061")], [f"cell (3,2): {SHARED_EDGE}"], 0),
        ),
    ],
)
def test_mesher_output_is_pinned(curve, box, res, expected):
    assert _fingerprint(count_ovals(parse_poly(curve, 2), box, res)) == expected


# -- vertices from the exact lattice rows -----------------------------------------------

TWO_ELLIPSES = "((x-3/8)^2 + (y+5/16)^2 - 7/64)*((x+1/16)^2 + 2*(y+3/16)^2 - 7/64) + 1/5000"
VERTEX_CASES = [
    ("x^2 + 16/9*y^2 - 1", Box.square(2), 64),
    ("x^2 + 16/9*y^2 - 1", None, 64),  # the default box
    ("(x^2+y^2)^2 - 4*x*y - 1/100", Box.square(2), 5),  # subdivided cells
    (TWO_ELLIPSES, Box.square(1), 4),  # subdivided, three crossings on a shared edge
]


def _mesh(ovals) -> tuple:
    """Every vertex and certified flag of every oval, the warnings and the open chains."""
    return [(o.vertices, o.certified) for o in ovals.ovals], ovals.warnings, ovals.open_chains


@pytest.mark.parametrize("curve, box, res", VERTEX_CASES)
def test_ovals_do_not_depend_on_the_scale_of_f(curve, box, res):
    # one positive multiple of f gives every lattice row, so the vertices of
    # c*f are those of f to the bit, whatever c, even beyond float range
    f = parse_poly(curve, 2)
    expected = _mesh(count_ovals(f, box, res))
    assert expected[0]
    for c in (Fraction(1, 10**400), Fraction(1, 10**11), Fraction(3, 7), Fraction(10**11), Fraction(10**400)):
        assert _mesh(count_ovals(f.scale(gr(c)), box, res)) == expected, c


def _edge_key(n, edge) -> tuple:
    """(kind, i, j) of a lattice edge id: horizontal edges j*n + i come
    first, then vertical edges H + j*(n+1) + i, H = (n+1)*n."""
    if edge < (n + 1) * n:
        j, i = divmod(edge, n)
        return "h", i, j
    j, i = divmod(edge - (n + 1) * n, n + 1)
    return "v", i, j


def test_vertices_are_the_zeros_of_the_linear_interpolant(monkeypatch):
    # oracle: the zero of the linear interpolant of each edge, in Fractions
    # from f at the edge's rational end nodes; each vertex read through
    # `Oval.vertices` is placed by `_edge_points` and lies within 2 ulps of
    # max(|coordinate|, step) of it, on the coarse lattice and on the
    # sub-lattices of subdivided cells alike
    placed = []
    edge_points = realtopo._edge_points

    def recording(rows, lattice, edges):
        points = edge_points(rows, lattice, edges)
        placed.extend((lattice, _edge_key(lattice[-1], e), tuple(p)) for e, p in zip(edges.tolist(), points.tolist()))
        return points

    monkeypatch.setattr(realtopo, "_edge_points", recording)
    coarse = sub = 0
    for curve, box, res in VERTEX_CASES:
        f = parse_poly(curve, 2)
        placed.clear()
        read = {v for o in count_ovals(f, box, res).ovals for v in o.vertices}
        assert read <= {point for *_, point in placed}
        for (ax, sx, dx, ay, sy, dy, n), (kind, i, j), point in placed:
            ends = [(Fraction(ax + i * sx, dx), Fraction(ay + j * sy, dy))]
            ends.append((ends[0][0] + Fraction(sx, dx), ends[0][1]) if kind == "h" else (ends[0][0], ends[0][1] + Fraction(sy, dy)))
            va, vb = (f.evaluate(end).re for end in ends)
            t = va / (va - vb)
            exact = [a + t * (b - a) for a, b in zip(*ends)]
            step = float(Fraction(sx, dx) if kind == "h" else Fraction(sy, dy))
            for got, want in zip(point, exact):
                assert abs(Fraction(got) - want) <= 2 * Fraction(math.ulp(max(abs(float(want)), step))), (curve, kind, i, j)
            # the sub-lattices have 2 to 64 steps, never res + 2
            coarse, sub = (coarse + 1, sub) if n == res + 2 else (coarse, sub + 1)
    assert coarse > 200 and sub > 20


# -- the integer-id mesher against the tuple-keyed one ----------------------------------


def _bits(mesh) -> tuple:
    """A `_mesh` or `tuple_mesher.mesh` result with every coordinate as float.hex."""
    ovals, warnings, open_chains = mesh
    return [([(vx.hex(), vy.hex()) for vx, vy in verts], ok) for verts, ok in ovals], warnings, open_chains


def _ellipse_product(rng: random.Random, k: int) -> MultiPoly:
    """k axis-parallel ellipses drawn as perfbench draws them, kept pairwise
    apart by their bounding boxes unless `rng` lets them overlap."""
    f, boxes = const2(1), []
    while len(boxes) < k:
        cx, cy = (Fraction(rng.randint(-6, 6), 4) for _ in range(2))
        a, b = (Fraction(rng.randint(2, 8), 4) for _ in range(2))
        box = (cx - a, cx + a, cy - b, cy + b)
        apart = all(p[1] < box[0] or box[1] < p[0] or p[3] < box[2] or box[3] < p[2] for p in boxes)
        if apart or rng.random() < 0.15:
            boxes.append(box)
            f = f * ((x - const2(cx)).scale(gr(1 / a)) ** 2 + (y - const2(cy)).scale(gr(1 / b)) ** 2 - const2(1))
    return f


def _differential_cases() -> list[tuple]:
    """(f, box, res) at res 2 to 64: products of ellipses and crossing pairs
    on their default boxes and on boxes that cut them, the vertex cases, and
    non-compact curves on explicit boxes."""
    rng = random.Random(35)
    cases = []
    for _ in range(130):
        f = _ellipse_product(rng, rng.choice((1, 2, 3))) if rng.random() < 0.7 else _gen_crossing_pair(rng)
        res = rng.randint(2, 64)
        cases.append((f, None, res))
        lo_x, lo_y = (Fraction(rng.randint(-12, 4), 8) for _ in range(2))
        cut = Box(lo_x, lo_x + Fraction(rng.randint(4, 16), 8), lo_y, lo_y + Fraction(rng.randint(4, 16), 8))
        cases.append((f, cut, rng.randint(2, 32)))
    cases += [(parse_poly(curve, 2), box, res) for curve, box, res in VERTEX_CASES]
    cases += [(parse_poly(curve, 2), box, res) for curve, box, res in TINY_OVAL_CASES]
    for _ in range(50):
        c = const2(Fraction(rng.randint(-9, 9), rng.randint(10, 100)))
        f = rng.choice((x * y + c, y - x**2 + c, _seeded_curve(rng, 3), _seeded_curve(rng, 5) * (x - y + c)))
        half = Fraction(rng.randint(2, 12), 4)
        cases.append((f, Box(-half, half, -half, half + Fraction(rng.randint(0, 4), 8)), rng.randint(2, 48)))
    return cases


# tiny ovals inside one subdivided coarse cell, beside larger ovals
TINY_OVAL_CASES = [
    ("(((x+7/8)^2+(y+3/4)^2)^2 - 25/16*(x+7/8)*(y+3/4) + 9/100*(5/8)^4)*((x+1/8)^2 + 2*(y+1/4)^2 - 1/4)", Box.square(2), 4),
    ("(((x-1/4)^2+(y+1/4)^2)^2 - 4*(x-1/4)*(y+1/4) + 3/25)*((x+1)^2 + 2*(y+3/8)^2 - 5/16)", Box.square(2), 4),
]


def test_integer_id_mesher_matches_the_tuple_keyed_mesher(monkeypatch):
    # the parent design (tests/tuple_mesher.py) places every vertex when it
    # names it and sorts by every vertex; the arrays, the CSR chains, the
    # lazy placement and the sort lemma give the same vertices to the bit,
    # the same certified flags, warnings, open chains and oval order
    subdivided = []
    plain = realtopo._Mesher._subdivide_cell

    def spy(self, i, j):
        subdivided.append((i, j))
        return plain(self, i, j)

    monkeypatch.setattr(realtopo._Mesher, "_subdivide_cell", spy)
    cases = _differential_cases()
    seen = {"multi": 0, "open": 0, "subdivided": 0, "uncertified": 0}
    for f, box, res in cases:
        subdivided.clear()
        ovals = count_ovals(f, box, res)
        got = _bits(_mesh(ovals))
        assert got == _bits(tuple_mesher.mesh(f, box, res)), (print_poly(f), box, res)
        assert [o.vertex_count for o in ovals.ovals] == [len(o.vertices) for o in ovals.ovals]
        seen["multi"] += ovals.count > 1
        seen["open"] += ovals.open_chains > 0
        seen["subdivided"] += bool(subdivided)
        seen["uncertified"] += ovals.certified_count < ovals.count
    assert len(cases) >= 300 and min(seen.values()) >= 30, seen


def _spy_placements(monkeypatch) -> list[int]:
    """Spy on `_edge_points`: the number of vertices each call places."""
    placed = []
    edge_points = realtopo._edge_points

    def recording(rows, lattice, edges):
        placed.append(len(edges))
        return edge_points(rows, lattice, edges)

    monkeypatch.setattr(realtopo, "_edge_points", recording)
    return placed


def test_counting_places_fewer_vertices_than_the_ovals_hold(monkeypatch):
    # the report reads the chain lengths (`vertex_count`), and the sort key
    # reads the vertices of each loop's least column and row; the rest is
    # placed only when read
    placed = _spy_placements(monkeypatch)
    ovals = count_ovals(quartic, None, 256)
    payload = to_jsonable(ovals)
    held = sum(o["vertex_count"] - 1 for o in payload["ovals"])  # each closed polyline repeats its first vertex
    assert ovals.count == 4 and 0 < sum(placed) < held / 4
    assert [o["vertex_count"] for o in payload["ovals"]] == [len(o.vertices) for o in ovals.ovals]
    assert sum(placed) == held


def test_reading_vertices_twice_places_nothing_the_second_time(monkeypatch):
    placed = _spy_placements(monkeypatch)
    ovals = count_ovals(parse_poly(TWO_ELLIPSES, 2), Box.square(1), 16)
    before = sum(placed)
    first = [o.vertices for o in ovals.ovals]
    after = sum(placed)
    assert after > before
    assert [o.vertices for o in ovals.ovals] == first and sum(placed) == after
    assert all(o.vertices is v for o, v in zip(ovals.ovals, first))


def test_an_oval_seed_is_its_first_vertex_to_the_bit(monkeypatch):
    # `seed` places chain[0] alone; `vertices` places it in a batch with the
    # rest of the polyline; both give the same bits, also where the oval
    # starts on a sub-lattice of a subdivided cell
    placed = _spy_placements(monkeypatch)
    on_sub_lattice = 0
    for curve, box, res in VERTEX_CASES + TINY_OVAL_CASES:
        f = parse_poly(curve, 2)
        firsts = [o.vertices[0] for o in count_ovals(f, box, res).ovals]
        for o, first in zip(count_ovals(f, box, res).ovals, firsts):
            o._mesher._placed[:] = False  # as if counting had placed nothing: the seed is placed alone
            del placed[:]
            seed = o.seed
            assert placed == [1] and [c.hex() for c in seed] == [c.hex() for c in first]
            sub_bases = [base for base, _, _ in o._mesher.lattices[1:]]
            on_sub_lattice += bool(sub_bases) and o._mesher.vertex_ids[o.chain[0]] >= sub_bases[0]
    assert on_sub_lattice >= 3


@pytest.mark.parametrize("curve, box, res", TINY_OVAL_CASES)
def test_ovals_are_sorted_by_the_least_coordinates_of_every_vertex(curve, box, res):
    # the sort key comes from the vertices of each loop's least column and
    # row; it equals (min x, min y) over all of the loop's vertices, also
    # with a tiny oval wholly inside one subdivided coarse cell
    ovals = count_ovals(parse_poly(curve, 2), box, res)
    keys = [(min(vx for vx, _ in o.vertices), min(vy for _, vy in o.vertices)) for o in ovals.ovals]
    assert ovals.count == 3 and keys == sorted(keys)
    ax, sx, dx, ay, sy, dy, _ = _box_lattice(box, res, 0)
    assert ovals.warnings == []  # the lattice was not shifted

    def one_cell(values, a, s, d):
        cells = {math.floor((Fraction(v) * d - a) / s) for v in values}
        return len(cells) == 1 and all(Fraction(v) * d != a + s * c for v in values for c in cells)

    assert any(one_cell([vx for vx, _ in o.vertices], ax, sx, dx) and one_cell([vy for _, vy in o.vertices], ay, sy, dy) for o in ovals.ovals)


def test_seeded_multi_oval_curves_are_sorted_by_every_vertex():
    rng = random.Random(351)
    multi = 0
    for _ in range(60):
        f = _ellipse_product(rng, 3) if rng.random() < 0.5 else _gen_crossing_pair(rng)
        ovals = count_ovals(f, None, rng.randint(48, 128))
        keys = [(min(vx for vx, _ in o.vertices), min(vy for _, vy in o.vertices)) for o in ovals.ovals]
        assert keys == sorted(keys), print_poly(f)
        multi += ovals.count > 1
    assert multi >= 30
