import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import random_poly
from foltools.branches import (
    branch_multiplicity,
    corollary2_check,
    euler_identity_check,
    genus_and_chi,
    infinity_branch_data,
    local_branches,
)
from foltools.construct import gallery
from foltools.errors import PreconditionError, UncertifiedResult, UnsupportedBranch
from foltools.fields import AffineVectorField
from foltools.gaussian import ZERO, gr
from foltools.polyring import affine_vars, const2
from foltools.series import PowerSeries, compose_poly
from foltools.singularities import ProjectivePoint, is_nodal
from foltools.textio import parse_poly

x, y = affine_vars()
circle = x**2 + y**2 - const2(1)
rotation = AffineVectorField.make(-y, x)


def test_circle_branch_series():
    (br,) = local_branches(circle, ProjectivePoint.affine(1, 0), truncation=8)
    # the transversal coordinate is y: phi = (psi(t), t)
    assert br.phi2.coeffs[1] == gr(1)
    assert br.phi1.coefficient(0) == gr(1)
    assert br.phi1.coefficient(2) == gr("-1/2")
    assert br.phi1.coefficient(4) == gr("-1/8")
    assert compose_poly(circle, br.phi1, br.phi2).is_zero_to_truncation()


def test_node_branches():
    f = y**2 - x**2
    branches = local_branches(f, ProjectivePoint.affine(0, 0), truncation=6)
    slopes = sorted(str(b.phi2.coefficient(1)) for b in branches)
    assert slopes == ["-1", "1"]
    for b in branches:
        assert compose_poly(f, b.phi1, b.phi2).is_zero_to_truncation()


def test_branch_residual_always_vanishes(rng):
    # graph curves y = p(x) through translated points
    from conftest import random_poly

    from foltools.polyring import MultiPoly

    for _ in range(50):
        raw = random_poly(rng, max_degree=3, complex_prob=0.2)
        p = MultiPoly(2, {(a, 0): c for (a, b), c in raw.terms.items()})
        f = y - p
        x0 = gr(rng.randint(-2, 2))
        y0 = p.evaluate((x0, gr(0)))
        branches = local_branches(f, ProjectivePoint.affine(x0, y0), truncation=7)
        assert len(branches) == 1
        br = branches[0]
        assert compose_poly(f, br.phi1, br.phi2).is_zero_to_truncation()


def test_unsupported_branches():
    with pytest.raises(UnsupportedBranch):
        local_branches(y**2 - x**3, ProjectivePoint.affine(0, 0))  # cusp
    with pytest.raises(UnsupportedBranch) as exc:
        # tangents y = +-sqrt(2) x are outside Q(i)
        local_branches(y**2 - (x**2).scale(gr(2)) + x**3, ProjectivePoint.affine(0, 0))
    assert "Q(i)" in str(exc.value)
    # complex tangents inside Q(i) are fine: y^2 + x^2 factors (y-ix)(y+ix)
    branches = local_branches(y**2 + x**2 + x**3, ProjectivePoint.affine(0, 0))
    assert len(branches) == 2


def test_multiplicity_at_regular_point_is_zero():
    (br,) = local_branches(circle, ProjectivePoint.affine(1, 0), truncation=8)
    mu, certified = branch_multiplicity(rotation, br)
    assert mu == 0 and certified


def test_multiplicity_requires_invariance():
    f = y - x**2
    (br,) = local_branches(f, ProjectivePoint.affine(0, 0), truncation=8)
    with pytest.raises(PreconditionError):
        branch_multiplicity(rotation, br)


def test_euler_identity_reference_foliations():
    expected = {"example1": (2, 1, 1), "example2": (3, 1, 2), "example3": (4, 1, 3)}
    for name, (smu, n, m) in expected.items():
        entry = gallery(name)
        rep = euler_identity_check(entry.form, entry.curve, 2)
        assert rep.checkable and rep.identity_holds
        assert (rep.sum_mu, rep.curve_degree, rep.foliation_degree) == (smu, n, m)
        mus = {row["point"]: row["mu"] for row in rep.table}
        assert mus == dict(entry.expected_mu)


def test_euler_identity_rejects_wrong_chi():
    entry = gallery("example1")
    rep = euler_identity_check(entry.form, entry.curve, 3)
    assert rep.checkable and not rep.identity_holds


def test_euler_identity_needs_invariance():
    with pytest.raises(PreconditionError):
        euler_identity_check(rotation, x, 2)


def test_euler_identity_honest_on_unresolvable_points():
    # the prescribed-oval circle system has genuine foliation singularities at
    # (2, +-i*sqrt(3)) on the complexified circle: outside Q(i), so the
    # report must refuse rather than drop them
    from foltools.construct import eee_system

    g = circle
    field, _ = eee_system(g, x - const2(2), gr(1), gr(1))
    rep = euler_identity_check(field, g, 2)
    assert not rep.checkable and rep.notes
    # degree-4 version: the divisor search budget caps out but the pipeline
    # still degrades to a clean "not checkable" instead of failing
    quartic = gallery("quartic-4-ovals").curve
    fq, _ = eee_system(quartic, x - const2(2), gr(1), gr(1))
    rq = euler_identity_check(fq, quartic, -4)
    assert not rq.checkable and rq.notes


def test_euler_identity_checkable_log_configuration():
    # circle plus two rational secants: every singularity on each curve is a
    # rational transversal crossing, so all three identities are checkable
    from foltools.construct import LogarithmicSpec, logarithmic_form
    from foltools.fields import deprojectivize
    from foltools.polyring import homogenize

    l1 = x - const2("3/5")
    l2 = y
    curves = [homogenize(c, int(c.degree)) for c in (circle, l1, l2)]
    spec = LogarithmicSpec.make(curves, [gr(1), gr(-1), gr(-1)])
    field = deprojectivize(logarithmic_form(spec))
    rep = euler_identity_check(field, circle, 2)
    assert rep.checkable and rep.identity_holds and rep.sum_mu == 4
    for line in (l1, l2):
        rep = euler_identity_check(field, line, 2)
        assert rep.checkable and rep.identity_holds and rep.sum_mu == 3


def test_infinity_branch_data_circle():
    for t in (gr(0, 1), gr(0, -1)):
        pt = ProjectivePoint.make(gr(1), t, gr(0))
        l, mu = infinity_branch_data(rotation, circle, pt)
        assert (l, mu) == (0, 1)


def test_infinity_branch_data_preconditions():
    fld = AffineVectorField.make(x, -y, x + y)
    with pytest.raises(PreconditionError):
        infinity_branch_data(fld, circle, ProjectivePoint.make(gr(1), gr(0, 1), gr(0)))
    with pytest.raises(PreconditionError):
        infinity_branch_data(rotation, circle, ProjectivePoint.affine(1, 0))
    # not invariant: linear field with a parabola
    lin = AffineVectorField.make(x, y.scale(gr(2)))
    with pytest.raises(PreconditionError):
        infinity_branch_data(lin, y - x**2, ProjectivePoint.make(gr(0), gr(1), gr(0)))


def test_genus_and_chi_cases():
    genus, chi = genus_and_chi(circle, [2], [0])
    assert genus == [0] and chi == 2
    cubic = parse_poly("x^2*y + x*y^2 - 1", 2)
    genus, chi = genus_and_chi(cubic, [3], [0])
    assert genus == [1] and chi == 0
    nodal = gallery("nodal-cubic").curve
    genus, chi = genus_and_chi(nodal, [3], [1])
    assert genus == [0] and chi == 2
    with pytest.raises(PreconditionError):
        genus_and_chi(y**2 - x**3, [3], [1])  # cusp is not nodal
    with pytest.raises(PreconditionError):
        genus_and_chi(circle, [2], [3])  # negative genus
    with pytest.raises(PreconditionError):
        genus_and_chi(circle, [3], [0])  # degrees do not sum to deg f


def test_transversality_only_matters_for_is_nodal():
    # the parabola's closure is smooth but tangent to Z = 0 at (0 : 1 : 0)
    parabola = y - x**2
    assert is_nodal(parabola) is False
    assert is_nodal(parabola, include_infinity=False) is True
    assert genus_and_chi(parabola, [2], [0]) == ([0], 2)


def test_corollary2_values():
    for n, text, chi in ((1, "x + y - 1", 2), (2, "x^2 + 4*y^2 - 1", 2), (3, "x^2*y + x*y^2 - 1", 0)):
        ok, rep = corollary2_check(n, parse_poly(text, 2))
        assert ok and rep.chi_claimed == chi and rep.identity_holds
        assert all(row["mu"] == 1 for row in rep.table)


def test_corollary2_rejects_bad_curves():
    with pytest.raises(PreconditionError):
        corollary2_check(3, gallery("nodal-cubic").curve)  # singular
    with pytest.raises(PreconditionError):
        corollary2_check(3, y - x**3)  # one triple point at infinity, not 3
    # a point on Z = 0 that the root search leaves uncertain is not "no point"
    f = parse_poly(f"(x + {10**21 + 7}*y)^2*(x + y)*(x + 2*y) + x^3 + 1", 2)
    with pytest.raises(UncertifiedResult):
        corollary2_check(4, f)


def test_truncation_env_override(monkeypatch):
    from foltools.branches import default_truncation

    monkeypatch.setenv("FOLTOOLS_TRUNCATION", "17")
    assert default_truncation(4, 3) == 17
    monkeypatch.delenv("FOLTOOLS_TRUNCATION")
    assert default_truncation(4, 3) == 2 * 6 * 3


# -- the integer series store against GaussianRational arithmetic on `coeffs` --


def _ref_mul(a, b):
    n = min(len(a), len(b))
    return [sum((a[i] * b[k - i] for i in range(k + 1)), ZERO) for k in range(n)]


def _ref_divide(a, b):
    v = next((k for k, c in enumerate(b) if c), None)
    if v is None or any(a[:v]):
        return None
    a, b = a[v:], b[v:]
    out = []
    for k in range(min(len(a), len(b))):
        out.append((a[k] - sum((out[j] * b[k - j] for j in range(k)), ZERO)) / b[0])
    return out or None


def _assert_canonical_series(s):
    assert s.den > 0
    assert math.gcd(s.den, *itertools.chain.from_iterable(s.num)) == 1
    assert s.coeffs == tuple(gr(Fraction(re, s.den), Fraction(im, s.den)) for re, im in s.num)


def _mixed(rng):
    def part():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if rng.random() < 0.8 else Fraction(0)

    return gr(part(), part() if rng.random() < 0.5 else 0)


def _series(rng, order=0):
    n = rng.randint(order, 7)
    return PowerSeries.from_list([ZERO] * order + [_mixed(rng) for _ in range(n + 1 - order)], n)


def test_integer_series_store_matches_gaussian_rational_arithmetic():
    rng = random.Random(5150)
    for _ in range(150):
        a, b = _series(rng), _series(rng, rng.randint(0, 2))
        ca, cb = list(a.coeffs), list(b.coeffs)
        n = min(len(ca), len(cb))
        c = _mixed(rng) or gr(3, -1)
        results = {
            "add": (a + b, [u + v for u, v in zip(ca, cb)]),
            "sub": (a - b, [u - v for u, v in zip(ca, cb)]),
            "neg": (-a, [-u for u in ca]),
            "mul": (a * b, _ref_mul(ca, cb)),
            "scale": (a.scale(c), [u * c for u in ca]),
            "truncate": (a.truncate(2), ca[:3]),
            "shift_constant": (a.shift_constant(c), [ca[0] + c] + ca[1:]),
            "derivative": (a.derivative(), [u * k for k, u in enumerate(ca) if k] or [ZERO]),
            "divide": (a.divide(b), _ref_divide(ca, cb)),
            "divide_shifted": ((a * b).divide(b), _ref_divide(_ref_mul(ca, cb), cb)),
        }
        for name, (got, want) in results.items():
            if want is None:
                assert got is None, name
                continue
            _assert_canonical_series(got)
            assert list(got.coeffs) == want, name
            assert got.truncation == len(want) - 1, name
        assert (a + b).truncation == n - 1
        assert a.derivative().truncation == max(a.truncation - 1, 0)
        v = b.order()
        if v is not None and v <= a.truncation and not any(ca[:v]):
            assert a.divide(b).truncation == min(a.truncation, b.truncation) - v
        f = random_poly(rng, max_degree=3, max_terms=5, complex_prob=0.5)
        phi1, phi2 = _series(rng), _series(rng)
        m = min(phi1.truncation, phi2.truncation)
        want = [ZERO] * (m + 1)
        for (i, j), coeff in f.terms.items():
            term = [coeff] + [ZERO] * m
            for _ in range(i):
                term = _ref_mul(term, list(phi1.coeffs))
            for _ in range(j):
                term = _ref_mul(term, list(phi2.coeffs))
            want = [u + w for u, w in zip(want, term)]
        composed = compose_poly(f, phi1, phi2)
        _assert_canonical_series(composed)
        assert list(composed.coeffs) == want
        # one value, two routes: equal and with one hash
        same = a.scale(c).scale(c.inverse())
        assert same == a and hash(same) == hash(a)
        assert PowerSeries(tuple(ca)) == a
