import random

import pytest

from conftest import affine_vars, const2, projective_vars, random_real_poly
from foltools.construct import (
    GALLERY_NAMES,
    LogarithmicSpec,
    eee_system,
    gallery,
    logarithmic_form,
    ratio_condition_report,
    thm2b_configuration,
)
from foltools.errors import PreconditionError
from foltools.fields import (
    darboux_check,
    deprojectivize,
    iif_check,
    infinity_invariant,
    invariance_check,
)
from foltools.gaussian import gr
from foltools.polyring import MultiPoly, dehomogenize
from foltools.textio import parse_poly

x, y = affine_vars()
X, Y, Z = projective_vars()


@pytest.mark.parametrize(
    "weights",
    [(gr(1), gr(1), gr(-2)), (gr(2), gr(-1), gr(-1)), (gr(1, 1), gr(1, -1), gr(-2))],
)
def test_three_lines_expansion_matches_printed_form(weights):
    l1, l2, l3 = weights
    spec = LogarithmicSpec.make([X, Y, Y - X - Z], list(weights))
    form = logarithmic_form(spec)
    expP = Y * (Y.scale(l1) + X.scale(l2) - Z.scale(l1))
    expQ = -(X * (Y.scale(l1) + X.scale(l2) + Z.scale(l2)))
    expR = (X * Y).scale(-l3)
    assert form.P == expP and form.Q == expQ and form.R == expR
    assert form.m == 1
    assert not infinity_invariant(deprojectivize(form))


def test_two_curve_rational_pencil():
    spec = LogarithmicSpec.make([X, Y], [gr(1), gr(-1)])
    form = logarithmic_form(spec)
    assert form.m == 0
    XX, YY, ZZ = form.P, form.Q, form.R
    assert (X * XX + Y * YY + Z * ZZ).is_zero()


@pytest.mark.parametrize("curves, weights", [((X, X * Y, Z), (1, 1, -3)), ((X + Y, X + Y, Z), (1, 2, -3))])
def test_logarithmic_form_names_two_curves_that_share_a_factor(curves, weights):
    spec = LogarithmicSpec.make(curves, [gr(w) for w in weights])
    with pytest.raises(PreconditionError) as exc:
        logarithmic_form(spec)
    assert str(exc.value) == "curves 1 and 2 share a factor; a logarithmic form needs coprime curves"


def test_log_spec_validation():
    with pytest.raises(PreconditionError):
        LogarithmicSpec.make([X], [gr(1)])
    with pytest.raises(PreconditionError):
        LogarithmicSpec.make([X, Y], [gr(1), gr(1)])  # weight sum nonzero
    with pytest.raises(PreconditionError):
        LogarithmicSpec.make([X, Y], [gr(1), gr(0)])
    with pytest.raises(PreconditionError):
        LogarithmicSpec.make([X * X, Y], [gr(1), gr(-2)])  # not squarefree


def test_log_form_factor_invariance_and_iif():
    entry = gallery("three-lines")
    field = entry.field
    V = MultiPoly.constant(2, gr(1))
    certs = []
    for F in entry.log_spec.curves:
        f_aff = dehomogenize(F)
        V = V * f_aff
        cert = invariance_check(field, f_aff)
        assert cert is not None
        certs.append(cert)
    assert darboux_check(certs, list(entry.log_spec.weights))
    assert iif_check(field, V)
    # the divergence equals the sum of the cofactors for this construction
    from foltools.fields import divergence

    total = MultiPoly.zero(2)
    for cert in certs:
        total = total + cert.cofactor
    assert divergence(field) == total


def test_ratio_condition_report():
    rows = ratio_condition_report([gr(1), gr(1), gr(-2)])
    violated = {(r["i"], r["j"]) for r in rows if r["status"] == "Violated"}
    assert (0, 2) in violated and (2, 0) in violated and (0, 1) not in violated
    rows = ratio_condition_report([gr(1, 1), gr(1, -1), gr(-2)])
    by_pair = {(r["i"], r["j"]): r["status"] for r in rows}
    assert by_pair[(0, 1)] == "Satisfied"  # (1+i)/(1-i) = i
    assert by_pair[(0, 2)] == "Satisfied"  # complex ratio
    with pytest.raises(PreconditionError):
        ratio_condition_report([gr(1), gr(0)])


def test_eee_system_identity_random():
    rnd = random.Random(11)
    h = x - const2(2)
    for _ in range(60):
        g = random_real_poly(rnd, max_degree=6, max_terms=6)
        if g.is_zero() or g.is_constant():
            continue
        field, cert = eee_system(g, h, gr(1), gr(1))
        assert cert.cofactor == g.partial(0) + g.partial(1)
        assert field.m == int(g.degree)


def test_eee_preconditions():
    g = x**2 + y**2 - const2(1)
    with pytest.raises(PreconditionError):
        eee_system(g, const2(1), gr(1), gr(1))  # h must vanish somewhere
    with pytest.raises(PreconditionError):
        eee_system(g, y, gr(1), gr(0))  # a h_x + b h_y = 0
    with pytest.raises(PreconditionError):
        eee_system(g, x - const2(2), gr(0, 1), gr(1))  # complex a
    for constant in (const2(1), MultiPoly.zero(2)):
        with pytest.raises(PreconditionError):
            eee_system(constant, x, gr(1), gr(1))  # g must be a curve


def test_thm2b_configurations():
    for m in (2, 3, 4):
        spec, report = thm2b_configuration(m)
        assert spec.total_degree == m + 2
        form = logarithmic_form(spec)
        assert form.m == m
        assert not infinity_invariant(deprojectivize(form))
        # real rational weights with mixed signs always violate some ratio pair
        assert any(r["status"] == "Violated" for r in report)


def test_gallery_names_load():
    for name in GALLERY_NAMES:
        entry = gallery(name)
        assert entry.name == name
    with pytest.raises(PreconditionError):
        gallery("nonsense")


def test_gallery_quartic_shape():
    q = gallery("quartic-4-ovals")
    assert int(q.curve.degree) == 4
    assert q.curve.evaluate((gr(0), gr(0))) == gr("101/100")
