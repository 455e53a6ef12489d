"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Criterion 4 is expected to fail at m = 3: the exhaustive enumeration finds
the partition (2, 2, 1) with value 2 against the closed-form value 1.  The
test asserts the criterion as stated and reports the counterexample.
"""

from __future__ import annotations

import math
import random
import time

import pytest

from conftest import affine_vars, const2, projective_vars, random_poly, random_real_poly, series_coefficient, substitute
from foltools.bounds import (
    harnack_bound,
    mk_argmax,
    nodal_degree_bound,
    nondicritical_degree_bound,
    thm1_bound,
    thm2_bound,
)
from foltools.branches import (
    branch_multiplicity,
    corollary2_check,
    euler_identity_check,
    infinity_branch_data,
    local_branches,
)
from foltools.construct import LogarithmicSpec, eee_system, gallery, logarithmic_form
from foltools.cycles import certify_cycle, divergence_integral, location_check
from foltools.errors import DegenerateInput
from foltools.fields import (
    AffineVectorField,
    darboux_check,
    deprojectivize,
    iif_check,
    infinity_invariant,
    invariance_check,
    projectivize,
)
from foltools.gaussian import gr
from foltools.polyring import (
    MultiPoly,
    dehomogenize,
    exact_divide,
    homogenize,
)
from foltools.realtopo import Box, count_ovals, trace_oval
from foltools.singularities import ProjectivePoint
from foltools.textio import parse_poly, print_poly

x, y = affine_vars()
X, Y, Z = projective_vars()


def _line(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}", flush=True)
    return ok


# -- criterion 1: Euler identity on the three reference foliations ------------------


def test_criterion_1_euler_identities():
    started = time.perf_counter()
    expected = {"example1": (2, 1, 1, 2), "example2": (3, 1, 2, 2), "example3": (4, 1, 3, 2)}
    results = {}
    for name, (smu, n, m, chi) in expected.items():
        entry = gallery(name)
        rep = euler_identity_check(entry.form, entry.curve, chi)
        results[name] = (
            rep.sum_mu,
            rep.curve_degree,
            rep.foliation_degree,
            rep.chi_claimed,
            rep.checkable and rep.identity_holds,
        )
    elapsed = time.perf_counter() - started
    ok = all(
        results[name][:4] == expected[name] and results[name][4] for name in expected
    ) and elapsed < 1.0
    assert _line("1 euler-identity gallery", ok, f"{results}; {elapsed:.3f}s")


# -- criterion 2: chi of smooth curves via the Hamiltonian route ---------------------


def test_criterion_2_hamiltonian_chi():
    cases = ((1, "x + y - 1", 2), (2, "x^2 + 4*y^2 - 1", 2), (3, "x^2*y + x*y^2 - 1", 0))
    all_ok = True
    details = []
    for n, text, chi in cases:
        f = parse_poly(text, 2)
        ok, rep = corollary2_check(n, f)
        mus_one = all(row["mu"] == 1 for row in rep.multiplicities)
        got_chi = rep.sum_mu - n * ((n - 1) - 1)
        all_ok &= ok and mus_one and rep.chi_claimed == chi and got_chi == chi
        details.append(f"n={n}: chi={got_chi}")
    assert _line("2 hamiltonian chi n=1,2,3", all_ok, "; ".join(details))


# -- criterion 3: bound tables -------------------------------------------------------


def test_criterion_3_bound_tables():
    ok = {m: thm1_bound(m) for m in (2, 3, 4, 5, 6)} == {2: 1, 3: 1, 4: 4, 5: 6, 6: 11}
    ok &= thm2_bound(2, True) == 2 and thm2_bound(3, True) == 3
    ok &= thm2_bound(2, False) == 4 and thm2_bound(3, False) == 6
    ok &= all(
        nodal_degree_bound(m).bound == m + 2 and nondicritical_degree_bound(m).bound == m + 2
        for m in range(0, 11)
    )
    assert _line("3 bound tables", ok)


# -- criterion 4: exhaustive partition maximization ----------------------------------


def test_criterion_4_partition_maximization():
    started = time.perf_counter()
    mismatches = []
    for m in range(2, 31):
        result = mk_argmax(m)
        if result.k != 3 or result.value != thm1_bound(m):
            mismatches.append(
                f"m={m}: enumeration max {result.value} via partition "
                f"{list(result.partition)} (k={result.k}) != closed form {thm1_bound(m)}"
            )
    elapsed = time.perf_counter() - started
    ok = not mismatches and elapsed < 10.0
    _line(
        "4 partition maximization m=2..30",
        ok,
        f"{elapsed:.2f}s" + ("; " + "; ".join(mismatches) if mismatches else ""),
    )
    assert elapsed < 10.0
    assert not mismatches, (
        "exhaustive enumeration contradicts the closed form: " + "; ".join(mismatches)
    )


# -- criterion 5: three-lines expansion ----------------------------------------------


def test_criterion_5_three_lines_expansion():
    all_ok = True
    for weights in ((gr(1), gr(1), gr(-2)), (gr(3), gr(-1), gr(-2)), (gr(1, 1), gr(1, -1), gr(-2))):
        l1, l2, l3 = weights
        spec = LogarithmicSpec.make([X, Y, Y - X - Z], list(weights))
        form = logarithmic_form(spec)
        expP = Y * (Y.scale(l1) + X.scale(l2) - Z.scale(l1))
        expQ = -(X * (Y.scale(l1) + X.scale(l2) + Z.scale(l2)))
        expR = (X * Y).scale(-l3)
        match = (
            print_poly(form.P) == print_poly(expP)
            and print_poly(form.Q) == print_poly(expQ)
            and print_poly(form.R) == print_poly(expR)
        )
        affine_field = deprojectivize(form)
        all_ok &= match and not infinity_invariant(affine_field)
    assert _line("5 three-lines coefficients + infinity", all_ok)


# -- criterion 6: gallery logarithmic certificates ------------------------------------


def test_criterion_6_log_gallery_certificates():
    all_ok = True
    details = []
    for entry in (gallery("three-lines"), gallery("example1")):
        field = entry.field
        certs = []
        weights = []
        V = MultiPoly.constant(2, gr(1))
        for F, w in zip(entry.log_spec.curves, entry.log_spec.weights):
            f_aff = dehomogenize(F)
            if f_aff.is_constant():
                continue  # the line at infinity has no affine equation
            V = V * f_aff
            cert = invariance_check(field, f_aff)
            if cert is None:
                all_ok = False
                break
            certs.append(cert)
            weights.append(w)
        else:
            ok = darboux_check(certs, weights) and iif_check(field, V)
            details.append(f"{entry.name}: {len(certs)} cofactors")
            all_ok &= ok
    assert _line("6 invariance/darboux/iif certificates", all_ok, "; ".join(details))


# -- criterion 7: the prescribed-oval pipeline ----------------------------------------


def test_criterion_7_eee_pipeline(quartic_ovalset):
    g = parse_poly("x^2 + y^2 - 1", 2)
    h = parse_poly("x - 2", 2)
    field, cert = eee_system(g, h, gr(1), gr(1))
    ok_cofactor = cert.cofactor == parse_poly("2*x + 2*y", 2)

    ovals = count_ovals(g, Box.square(2), 64)
    ok_count = ovals.count == 1 and ovals.certified_count == 1

    pts = trace_oval(g, ovals.ovals[0].vertices[0], spacing=1.5e-3)
    D, T, rel = divergence_integral(field, pts, f=g)
    ok_divergence = abs(D) > 0.1 and rel <= 1e-6

    loc = location_check(field, g, [pts], mode="invariant-curve")
    ok_location = loc[0]["residual"] < 1e-8

    quartic, q_ovals = quartic_ovalset
    ok_quartic_count = q_ovals.count == 4 and q_ovals.certified_count == 4
    hyperbolic = 0
    for idx, ov in enumerate(q_ovals.ovals):
        q_field, _ = eee_system(quartic, h, gr(1), gr(1))
        q_pts = trace_oval(quartic, ov.vertices[0], spacing=5e-4)
        c = certify_cycle(q_field, q_pts, idx, f=quartic, v_poly=quartic)
        if c.hyperbolic:
            hyperbolic += 1
    ok_quartic = ok_quartic_count and hyperbolic == 4 and hyperbolic == thm1_bound(4)

    ok = ok_cofactor and ok_count and ok_divergence and ok_location and ok_quartic
    assert _line(
        "7 eee pipeline",
        ok,
        f"K ok={ok_cofactor}, circle ovals={ovals.count}, |D|={abs(D):.4f}, rel={rel:.1e}, "
        f"residual={loc[0]['residual']:.1e}, quartic ovals={q_ovals.count}, "
        f"hyperbolic={hyperbolic} == bound {thm1_bound(4)}",
    )


# -- criterion 8: randomized property suites ------------------------------------------


def test_criterion_8a_ring_axioms():
    rng = random.Random(801)
    for _ in range(220):
        arity = rng.choice((2, 3))
        a = random_poly(rng, arity=arity, max_degree=3)
        b = random_poly(rng, arity=arity, max_degree=3)
        c = random_poly(rng, arity=arity, max_degree=3)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
    assert _line("8a ring axioms (220 cases)", True)


def test_criterion_8b_parse_print_roundtrip():
    rng = random.Random(802)
    for _ in range(220):
        p = random_poly(rng, arity=rng.choice((2, 3)), max_degree=5, max_terms=6)
        assert parse_poly(print_poly(p), p.arity) == p
    assert _line("8b parse/print round-trip (220 cases)", True)


def test_criterion_8c_cofactor_multiplicativity():
    rng = random.Random(803)
    checked = 0
    while checked < 220:
        f = random_poly(rng, max_degree=2, complex_prob=0.2)
        g = random_poly(rng, max_degree=2, complex_prob=0.2)
        if f.is_constant() or g.is_constant():
            continue
        product = f * g
        # Hamiltonian field of the product keeps both factors invariant
        try:
            field = AffineVectorField.make(-product.partial(1), product.partial(0))
        except DegenerateInput:
            continue
        cf = invariance_check(field, f)
        cg = invariance_check(field, g)
        cfg = invariance_check(field, product)
        assert cf is not None and cg is not None and cfg is not None
        assert cfg.cofactor == cf.cofactor + cg.cofactor
        checked += 1
    assert _line("8c cofactor multiplicativity (220 cases)", True)


def test_criterion_8d_projective_condition():
    rng = random.Random(804)
    checked = 0
    while checked < 220:
        p = random_poly(rng, max_degree=3)
        q = random_poly(rng, max_degree=3)
        if p.is_zero() and q.is_zero():
            continue
        try:
            form = projectivize(AffineVectorField.make(p, q))
        except DegenerateInput:
            continue
        lhs = X * form.P + Y * form.Q + Z * form.R
        assert lhs.is_zero()
        checked += 1
    assert _line("8d projective condition (220 cases)", True)


def _random_invariant_branch(rng):
    """A graph curve with its Hamiltonian field and a branch at a rational point."""
    raw = random_poly(rng, max_degree=3, complex_prob=0.2)
    p = MultiPoly(2, {(a, 0): c for (a, b), c in raw.terms.items()})
    f = y - p
    field = AffineVectorField.make(-f.partial(1), f.partial(0))
    x0 = gr(rng.randint(-2, 2))
    y0 = p.evaluate((x0, gr(0)))
    branches = local_branches(f, ProjectivePoint.affine(x0, y0), truncation=9)
    return field, f, branches[0]


def _center(br):
    """The branch's center point (phi1(0), phi2(0))."""
    return series_coefficient(br.phi1, 0), series_coefficient(br.phi2, 0)


def test_criterion_8e_pullback_consistency():
    rng = random.Random(805)
    from foltools.series import compose_poly

    for _ in range(220):
        field, f, br = _random_invariant_branch(rng)
        # the defining residual vanishes and the two pullback routes agree
        assert compose_poly(f, br.phi1, br.phi2).is_zero_to_truncation()
        a, b = field.component_x, field.component_y
        A1 = compose_poly(a, br.phi1, br.phi2)
        A2 = compose_poly(b, br.phi1, br.phi2)
        d1, d2 = br.phi1.derivative(), br.phi2.derivative()
        lhs = A1.truncate(d2.truncation) * d2
        rhs = A2.truncate(d1.truncation) * d1
        assert (lhs - rhs).is_zero_to_truncation()
    assert _line("8e branch pullback consistency (220 cases)", True)


def _random_line_foliation(rng):
    """Three lines with distinct nonzero slopes and zero-sum weights."""
    slopes = rng.sample(range(1, 12), 3)
    offsets = rng.sample(range(-6, 7), 3)
    lines = [
        homogenize(y - x.scale(gr(s)) - const2(c), 1) for s, c in zip(slopes, offsets)
    ]
    w1, w2 = gr(rng.randint(1, 5)), gr(rng.randint(1, 5))
    weights = [w1, w2, -(w1 + w2)]
    return LogarithmicSpec.make(lines, weights), slopes, offsets


def test_criterion_8f_chart_independence_of_mu():
    rng = random.Random(806)
    checked = 0
    while checked < 220:
        try:
            spec, slopes, offsets = _random_line_foliation(rng)
            form = logarithmic_form(spec)
        except (DegenerateInput, Exception) as exc:
            from foltools.errors import FolError

            if isinstance(exc, FolError):
                continue
            raise
        field = deprojectivize(form)
        # infinite point of the first line is visible in the X- and Y-charts
        s = slopes[0]
        line_aff = y - x.scale(gr(s)) - const2(offsets[0])
        pt = ProjectivePoint.make(gr(1), gr(s), gr(0))
        mus = []
        for chart_point in (pt,):
            branches = local_branches(line_aff, chart_point, truncation=8)
            mu, cert = branch_multiplicity(field, branches[0])
            assert cert
            mus.append(mu)
        # swap X and Y: same geometric point through the other chart
        subs = {0: Y, 1: X, 2: Z}
        swapped = type(form).make(
            substitute(form.Q, subs), substitute(form.P, subs), substitute(form.R, subs)
        )
        sw_field = deprojectivize(swapped)
        sw_line = x - y.scale(gr(s)) - const2(offsets[0])
        sw_pt = ProjectivePoint.make(gr(s), gr(1), gr(0))
        branches = local_branches(sw_line, sw_pt, truncation=8)
        mu_sw, cert = branch_multiplicity(sw_field, branches[0])
        assert cert
        assert mu_sw == mus[0]
        checked += 1
    assert _line("8f chart independence of mu (220 cases)", True)


def test_criterion_8g_truncation_stability():
    rng = random.Random(807)
    for _ in range(220):
        field, f, br = _random_invariant_branch(rng)
        mu1, cert1 = branch_multiplicity(field, br)
        x0, y0 = _center(br)
        big = local_branches(f, ProjectivePoint.affine(x0, y0), truncation=2 * br.truncation)[0]
        mu2, cert2 = branch_multiplicity(field, big)
        assert cert1 and cert2 and mu1 == mu2
    assert _line("8g truncation stability of mu (220 cases)", True)


def test_criterion_8h_certified_count_monotone():
    rng = random.Random(808)
    checked = 0
    while checked < 220:
        cx = gr(rng.randint(-2, 2))
        cy = gr(rng.randint(-2, 2))
        rr = gr(rng.randint(1, 3))
        conic = (x - const2(cx)) ** 2 + (y - const2(cy)) ** 2 - const2(rr)
        if rng.random() < 0.4:
            dx = gr(rng.randint(3, 6))
            other = (x - const2(cx + dx)) ** 2 + (y - const2(cy)) ** 2 - const2(1)
            curve = conic * other
        else:
            curve = conic
        box = Box.square(8)
        coarse = count_ovals(curve, box, 32)
        fine = count_ovals(curve, box, 64)
        assert fine.certified_count >= coarse.certified_count
        # live check against the closed-form oval cap
        cap = harnack_bound(int(curve.degree)).bound
        assert fine.count <= cap
        checked += 1
    assert _line("8h certified-count monotone under doubling (220 cases)", True)
