import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from foltools import realtopo
from foltools.construct import gallery
from foltools.errors import DegenerateInput, PreconditionError, UncertifiedResult
from foltools.gaussian import GaussianRational, gr
from foltools.polyring import MultiPoly, affine_vars, const2, leading_form
from foltools.realtopo import (
    Box,
    _filtered_signs,
    _gamma,
    _horner,
    _IntPoly,
    _LatticeLines,
    _box_lattice,
    _sign_grid,
    compactness_check,
    count_ovals,
    default_box,
    newton_project,
    refine_polyline,
    trace_oval,
)
from foltools.textio import parse_poly, print_poly
from foltools.uniroots import count_real_roots, sturm_counter, utrim

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
    # huge coefficients overflow the int64 bound, forcing the exact big-int
    # row evaluation; the count must not change
    scaled = circle.scale(gr(10**15))
    ovals = count_ovals(scaled, Box.square(2), 32)
    assert ovals.count == 1 and ovals.certified_count == 1


def test_trace_circle_accuracy():
    pts = trace_oval(circle, (1.01, 0.0), spacing=2e-3)
    assert pts[0] == pts[-1]
    dev = max(abs(math.hypot(px, py) - 1.0) for px, py in pts)
    assert dev < 1e-9
    spacings = [
        math.hypot(b[0] - a[0], b[1] - a[1]) for a, b in zip(pts[:-2], pts[1:-1])
    ]
    assert max(spacings) < 4e-3  # vertex spacing bounded


def test_trace_rejects_bad_seed():
    # the gradient vanishes at the origin, so the correction cannot start
    with pytest.raises(PreconditionError):
        trace_oval(circle, (0.0, 0.0))


def test_trace_hits_node():
    nodal = gallery("nodal-cubic").curve
    yv = 0.9 * math.sqrt(0.1)
    with pytest.raises(DegenerateInput):
        trace_oval(nodal, (-0.9, yv), spacing=2e-3)  # loop runs into the node
    with pytest.raises(DegenerateInput):
        trace_oval(nodal, (-0.05, 0.05), spacing=2e-3)  # seeded near the node


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


def _scalar_newton(f, pt, tol=1e-13, max_iter=60):
    """Newton projection by a scalar loop over Python floats: the reference
    for the batched projection behind `newton_project`."""
    ev, gx, gy = _horner(f), _horner(f.partial(0)), _horner(f.partial(1))
    px, py = float(pt[0]), float(pt[1])
    for _ in range(max_iter):
        v = ev(px, py)
        dx, dy = gx(px, py), gy(px, py)
        g2 = dx * dx + dy * dy
        if g2 < 1e-24:
            return None
        if abs(v) <= tol * max(1.0, math.sqrt(g2)):
            return (px, py)
        px -= v * dx / g2
        py -= v * dy / g2
    return None


def test_newton_project_matches_the_scalar_loop():
    rng = random.Random(5)
    seeds = [(1e-13, 0.0), (0.0, 0.0), (2.0**55, 0.0), (2.0**56, 0.0), (1e9, 1e9), (float("nan"), 0.0), (1e200, 1e200)]
    seeds += [(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(30)]
    small = circle.scale(gr(Fraction(1, 1000)))
    product = (x**2 + const2(2) * y**2 - const2(1)) * (x**2 + y**2 - const2(9))
    for f in (small, product):
        for tol, max_iter in ((1e-13, 60), (1e-12, 59), (1e-13, 61)):
            for seed in seeds:
                got, want = newton_project(f, seed, tol, max_iter), _scalar_newton(f, seed, tol, max_iter)
                assert (got is None) == (want is None), seed
                if got is not None:
                    assert all(type(c) is float for c in got)
                    assert np.array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64)), seed


def test_refine_polyline_matches_scalar_newton():
    # the batched projection keeps newton_project's per-point rules, so every
    # midpoint gets the same bits as a scalar projection, or stays as it is
    # when that fails.  On this circle |grad f| < 1, so the stop is tol
    # itself, not tol * |grad f|; a repeated vertex puts its own value at the
    # midpoint, to reach the other rules
    small = circle.scale(gr(Fraction(1, 1000)))
    assert newton_project(small, (1e-13, 0.0)) is None  # g2 < 1e-24
    assert newton_project(small, (2.0**55, 0.0), max_iter=59) is None  # converges at the 60th step
    assert newton_project(small, (2.0**56, 0.0)) is None  # needs 61 steps
    assert newton_project(small, (2.0**56, 0.0), max_iter=61) is not None
    seeds = [(1e-13, 0.0), (0.0, 0.0), (2.0**55, 0.0), (2.0**56, 0.0), (1e9, 1e9)]
    product = (x**2 + const2(2) * y**2 - const2(1)) * (x**2 + y**2 - const2(9))
    for f in (small, product):
        pts = trace_oval(f, (1.01, 0.0), spacing=4e-3) + [s for seed in seeds for s in (seed, seed)]
        expected = [pts[0]]
        for a, b in zip(pts, pts[1:]):
            mid = (0.5 * (a[0] + b[0]), 0.5 * (a[1] + b[1]))
            expected += [newton_project(f, mid) or mid, b]
        refined = refine_polyline(f, pts)
        assert refined.shape == (2 * len(pts) - 1, 2)
        assert np.array_equal(refined.view(np.int64), np.array(expected).view(np.int64))


# -- the sign grid against exact integer Horner ---------------------------------------


def _check_grid(f, ax, sx, dx, ay, sy, dy, n) -> dict:
    """Compare _sign_grid with an exact node-by-node evaluation; return path facts."""
    ip = _IntPoly(f)
    signs, vals = _sign_grid(ip, ax, sx, dx, ay, sy, dy, n)
    denom = ip.lcm * dx**ip.degx * dy**ip.degy
    dx_pows = [dx**k for k in range(ip.degx + 1)]
    dy_pows = [dy**k for k in range(ip.degy + 1)]
    exact = [[0] * (n + 1) for _ in range(n + 1)]
    overflowing_rows = 0
    for j in range(n + 1):
        w = ip.row_coefficients(ay + j * sy, dy_pows, dx_pows)
        overflowing_rows += any(abs(c) > 2**1023 for c in w)
        for i in range(n + 1):
            exact[j][i] = sum(c * (ax + i * sx) ** a for a, c in enumerate(w))
    for j in range(n + 1):
        for i in range(n + 1):
            v = exact[j][i]
            assert signs[j, i] == (v > 0) - (v < 0), (j, i)
            if not np.isnan(vals[j, i]):
                assert vals[j, i] == float(Fraction(v, denom)), (j, i)
    bigint = bool(np.isnan(vals).any())
    if bigint:  # every node the mesher reads has a value, and only those
        for j in range(n + 1):
            for i in range(n + 1):
                nbrs = [(j, i - 1), (j, i + 1), (j - 1, i), (j + 1, i)]
                crossing = any(0 <= b <= n and 0 <= a <= n and exact[j][i] * exact[b][a] < 0 for b, a in nbrs)
                assert np.isnan(vals[j, i]) != crossing, (j, i)
    return {"bigint": bigint, "zeros": int((signs == 0).sum()), "overflowing_rows": overflowing_rows}


def test_sign_grid_bigint_matches_exact_horner():
    scaled = circle.scale(gr(10**15))
    # unshifted, the circle passes through lattice nodes (1, 0) etc.; the
    # shifted lattices have denominators 257 and 251
    facts = [_check_grid(scaled, *_box_lattice(Box.square(2), 32, shift)) for shift in (0, 1, 2)]
    assert all(fa["bigint"] for fa in facts)
    assert facts[0]["zeros"] > 0 and facts[1]["zeros"] == facts[2]["zeros"] == 0
    ovals = count_ovals(scaled, Box.square(2), 32)
    assert any("shifted" in w for w in ovals.warnings)
    assert ovals.count == 1 and ovals.certified_count == 1


def test_sign_grid_overflowing_rows_use_exact_fallback():
    # rows far from y = 0 have coefficients beyond float range and are
    # evaluated exactly; the rows near it still go through the float filter
    huge = (x**2 + y**2 - const2(1)).scale(gr(10**274)) + y**6 * const2(10**286)
    facts = _check_grid(huge, *_box_lattice(Box.square(2), 8, 1))
    assert facts["bigint"] and 0 < facts["overflowing_rows"] < 11


def test_float_filter_sends_cancelling_nodes_to_exact_horner():
    # K (3x - 1)(x + 5)(x - 2) + s at x = k/3: near x = 1/3, -5 and 2 the
    # float Horner cancels to noise, and its sign is often wrong
    wrong_float_signs = 0
    for K in (10**17, 10**18 + 1, 3**40, 7**25):
        for s in (1, -1, 2, -3):
            f = const2(K) * (const2(3) * x - const2(1)) * (x + const2(5)) * (x - const2(2)) + const2(s)
            ip = _IntPoly(f)
            row = ip.row_coefficients(0, [1], [3**k for k in range(ip.degx + 1)])
            nx = list(range(-20, 21))
            exact = [sum(c * v**a for a, c in enumerate(row)) for v in nx]
            naive = np.zeros(len(nx))
            for c in reversed(row):
                naive = naive * np.array(nx, dtype=float) + float(c)
            wrong_float_signs += sum(np.sign(p) != (e > 0) - (e < 0) for p, e in zip(naive, exact))
            assert _filtered_signs([row], nx)[0].tolist() == [(e > 0) - (e < 0) for e in exact]
    assert wrong_float_signs > 0


# -- line restrictions against the Fraction code they replaced -------------------------


def _line_restriction(f, kind, at):
    """Oracle: trimmed Fraction coefficients of f on the horizontal line
    y = at ("h", in x) or the vertical line x = at ("v", in y)."""
    coeffs = {}
    for (a, b), c in f.terms.items():
        if kind == "h":
            coeffs[a] = coeffs.get(a, Fraction(0)) + c.re * at**b
        else:
            coeffs[b] = coeffs.get(b, Fraction(0)) + c.re * at**a
    top = max(coeffs, default=0)
    return utrim([coeffs.get(k, Fraction(0)) for k in range(top + 1)])


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
    return count_real_roots(restriction) == 0


def _oracle_interval_eval(f, xlo, xhi, ylo, yhi):
    """Oracle: the bivariate term-by-term interval bound."""
    lo_total, hi_total = Fraction(0), Fraction(0)
    for (a, b), c in f.terms.items():
        plo, phi = realtopo._interval_pow(xlo, xhi, a)
        qlo, qhi = realtopo._interval_pow(ylo, yhi, b)
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
    # _specialize_keeping and a univariate interval bound; the dict loops and
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


def test_lattice_lines_match_fraction_restrictions():
    # on shifted lattices around seeded curves of degree 2 to 6 every edge
    # answer of the integer rows equals the Fraction-node Sturm count
    rng = random.Random(99)
    for degree in (2, 3, 4, 5, 6):
        f = _seeded_curve(rng, degree)
        for box, res, shift in ((Box.square(2), 9, 1), (Box(Fraction(-3, 2), Fraction(5, 3), Fraction(-1), Fraction(2)), 7, 3)):
            lattice = _box_lattice(box, res, shift)
            lines = _LatticeLines(_IntPoly(f), lattice)
            expected = _oracle_edge_answers(f, lattice)
            assert {key: lines.edge_is_zero_free(*key) for key in expected} == expected, (degree, box)
            assert 0 < sum(expected.values()) < len(expected)


def test_lattice_lines_match_per_edge_sturm_counts():
    # one Sturm chain per lattice line gives the per-edge answers
    f = quartic * ((x - const2("1/3")) ** 2 + const2(2) * y**2 - const2("1/4"))
    lattice = (-14, 1, 7, -14, 1, 6, 28)  # x_i = i/7 - 2, y_j = j/6 - 7/3
    nodes_x = [Fraction(k, 7) - 2 for k in range(29)]
    nodes_y = [Fraction(k, 6) - Fraction(7, 3) for k in range(29)]
    lines = _LatticeLines(_IntPoly(f), lattice)
    zero_free = 0
    for kind in ("h", "v"):
        for i in range(28):
            for j in range(28):
                if kind == "h":
                    coeffs, lo, hi = _line_restriction(f, "h", nodes_y[j]), nodes_x[i], nodes_x[i + 1]
                else:
                    coeffs, lo, hi = _line_restriction(f, "v", nodes_x[i]), nodes_y[j], nodes_y[j + 1]
                expected = count_real_roots(coeffs, lo, hi) == 0
                assert lines.edge_is_zero_free(kind, i, j) == expected, (kind, i, j)
                zero_free += expected
    assert 0 < zero_free < 2 * 28 * 28
    # y = 0 is the lattice line j = 14, where y * f vanishes identically
    assert not _LatticeLines(_IntPoly(y * f), lattice).edge_is_zero_free("h", 3, 14)


def test_subdivision_lattices_refine_their_cell(monkeypatch):
    # each sub-lattice the mesher evaluates spans its coarse cell in m equal
    # steps, and its signs are those of f at the rational nodes
    f = parse_poly("(x^2+y^2)^2 - 4*x*y", 2)  # the saddle at the origin exhausts every depth
    lattices = []
    plain = realtopo._sign_grid

    def recording(ip, *lattice):
        lattices.append(lattice)
        return plain(ip, *lattice)

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
            signs, _ = plain(_IntPoly(f), sax, ssx, sdx, say, ssy, sdy, m)
            for b in range(m + 1):
                for a in range(m + 1):
                    v = f.evaluate((x1 + (x2 - x1) * a / m, y1 + (y2 - y1) * b / m)).re
                    assert signs[b, a] == (v > 0) - (v < 0), (m, a, b)


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
            ([(5, True, "dee5641f46c74696"), (5, True, "3568544610d9f663")], [], 0),
        ),
        ("(x^2+y^2)^2 - 4*x*y - 1/100", Box.square(2), 5, ([(17, True, "4f3f59b305d65bf9")], [], 0)),
        # a box taller than wide: vertices on vertical sub-edges
        (
            "(x^2+y^2)^2 - 4*x*y - 1/100",
            Box(Fraction(-3, 2), Fraction(3, 2), Fraction(-2), Fraction(2)),
            5,
            ([(15, True, "840e6d7f38a659df")], [], 0),
        ),
        (
            "(x^2+y^2)^2 - 4*x*y",
            Box.square(2),
            5,
            (
                [(5, False, "a973aa9d54e06117"), (5, False, "1f7bf9941f07985b")],
                ["cell (3,3) still ambiguous at depth 6; count may be unreliable there"],
                0,
            ),
        ),
        (
            "((x-3/8)^2 + (y+5/16)^2 - 7/64)*((x+1/16)^2 + 2*(y+3/16)^2 - 7/64) + 1/5000",
            Box.square(1),
            4,
            ([(15, False, "f86e1ff22047aac7"), (19, False, "dfca444433aa1061")], [f"cell (3,2): {SHARED_EDGE}"], 0),
        ),
    ],
)
def test_mesher_output_is_pinned(curve, box, res, expected):
    assert _fingerprint(count_ovals(parse_poly(curve, 2), box, res)) == expected
