"""Command-line interface: certificates in, certificates out.

Exit codes: 0 every check passed, 1 a verification failed, 2 usage or parse
error, 3 an Unknown/Unsupported/uncertified outcome was encountered, 141
(128 + SIGPIPE) stdout was closed before the output was written.
Machine-readable JSON accompanies human output on 0 and 1 (--json / --report).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import bounds as bounds_mod
from .branches import (
    branch_multiplicity,
    corollary2_check,
    euler_identity_check,
    local_branches,
)
from .construct import (
    GALLERY_NAMES,
    LogarithmicSpec,
    eee_system,
    gallery,
    logarithmic_form,
    thm2b_configuration,
)
from .cycles import certify_cycle, location_rows
from .errors import (
    ConfigError,
    FolError,
    ParseError,
    UncertifiedResult,
    UnsupportedBranch,
)
from .fields import (
    AffineVectorField,
    darboux_check,
    deprojectivize,
    iif_check,
    infinity_invariant,
    invariance_check,
    projectivize,
)
from .gaussian import GaussianRational, gr
from .polyring import MultiPoly, dehomogenize, homogenize
from .realtopo import Box, compactness_check, count_ovals, trace_oval
from .singularities import (
    ProjectivePoint,
    Verdict,
    affine_singularities,
    classify_dicritical,
    infinite_singularities,
    is_nodal,
)
from .textio import (
    SystemDocument,
    format_system,
    parse_poly,
    parse_system,
    print_poly,
    report_json,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_UNKNOWN = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE: what a shell shows for a writer whose reader left early


def _load_document(path: str) -> SystemDocument:
    return parse_system(Path(path).read_text(encoding="utf-8"))


def _get_field(doc: SystemDocument, name: str) -> AffineVectorField:
    if name not in doc.fields:
        raise ParseError(f"no field named {name!r} in the document")
    entry = doc.fields[name]
    return AffineVectorField.make(entry.p, entry.q, entry.r)


def _get_curve(doc: SystemDocument, name: str) -> MultiPoly:
    if name not in doc.curves:
        raise ParseError(f"no curve named {name!r} in the document")
    return doc.curves[name].f


def _parse_constant(text: str) -> GaussianRational:
    """One point coordinate, weight or parameter: a constant of Q(i)."""
    value = parse_poly(text, 2)
    if not value.is_constant():
        raise ParseError(f"expected a constant, got {text.strip()!r}")
    return value.constant_value()


def _parse_ints(text: str) -> list[int]:
    """Comma-separated integers, as --orders and --partition take them."""
    try:
        return [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise ParseError(f"expected comma-separated integers, got {text!r}") from None


def _parse_point(text: str) -> ProjectivePoint:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ParseError("projective point must be X:Y:Z")
        return ProjectivePoint.make(*(_parse_constant(p) for p in parts))
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError("affine point must be x,y")
    return ProjectivePoint.affine(*(_parse_constant(p) for p in parts))


def _parse_weights(text: str) -> list[GaussianRational]:
    return [_parse_constant(chunk) for chunk in text.split(",") if chunk.strip()]


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if getattr(args, "json", False):
        print(report_json(payload))
    else:
        for line in text_lines:
            print(line)
    report_path = getattr(args, "report", None)
    if report_path:
        Path(report_path).write_text(report_json(payload) + "\n", encoding="utf-8")


# -- subcommand handlers -----------------------------------------------------------


def cmd_check_invariant(args) -> int:
    doc = _load_document(args.document)
    field = _get_field(doc, args.field)
    curve = _get_curve(doc, args.curve)
    cert = invariance_check(field, curve)
    if cert is None:
        _emit(args, {"invariant": False}, [f"curve {args.curve!r} is NOT invariant"])
        return EXIT_FAILED
    payload = {"invariant": True, "certificate": cert.to_dict()}
    _emit(
        args,
        payload,
        [
            f"curve {args.curve!r} is invariant",
            f"cofactor = {print_poly(cert.cofactor)}",
            f"degree bound ok: {cert.degree_bound_ok}",
        ],
    )
    return EXIT_OK


def cmd_cofactor(args) -> int:
    doc = _load_document(args.document)
    field = _get_field(doc, args.field)
    curve = _get_curve(doc, args.curve)
    cert = invariance_check(field, curve)
    if cert is None:
        print("NotInvariant")
        return EXIT_FAILED
    print(print_poly(cert.cofactor))
    return EXIT_OK


def cmd_projectivize(args) -> int:
    doc = _load_document(args.document)
    field = _get_field(doc, args.field)
    form = projectivize(field)
    payload = {
        "P": form.P,
        "Q": form.Q,
        "R": form.R,
        "degree": form.m,
        "infinity_invariant": infinity_invariant(field),
    }
    _emit(
        args,
        payload,
        [
            f"P = {print_poly(form.P)}",
            f"Q = {print_poly(form.Q)}",
            f"R = {print_poly(form.R)}",
            f"foliation degree m = {form.m}",
            f"line at infinity invariant: {infinity_invariant(field)}",
        ],
    )
    return EXIT_OK


def cmd_singularities(args) -> int:
    doc = _load_document(args.document)
    field = _get_field(doc, args.field)
    aff = affine_singularities(field)
    inf = infinite_singularities(field.one_form)
    payload = {
        "affine": [str(p) for p in aff.points],
        "affine_residual": aff.residual,
        "affine_uncertain": aff.uncertain,
        "infinite": [str(p) for p in inf.points],
        "infinite_residual": inf.residual,
        "infinite_uncertain": inf.uncertain,
    }
    lines = [
        f"affine singular points ({len(aff.points)}, residual {aff.residual},"
        f" uncertain {aff.uncertain}):"
    ]
    lines += [f"  {p}" for p in aff.points]
    lines += [
        f"infinite singular points ({len(inf.points)}, residual {inf.residual},"
        f" uncertain {inf.uncertain}):"
    ]
    lines += [f"  {p}" for p in inf.points]
    _emit(args, payload, lines)
    return EXIT_UNKNOWN if aff.undecided or inf.undecided else EXIT_OK


def cmd_classify(args) -> int:
    doc = _load_document(args.document)
    field = _get_field(doc, args.field)
    aff = affine_singularities(field)
    inf = infinite_singularities(field.one_form)
    records = [classify_dicritical(field, p) for p in aff.points + inf.points]
    payload = {
        "records": [r.to_dict() for r in records],
        "residual": aff.residual + inf.residual,
        "uncertain": aff.uncertain + inf.uncertain,
    }
    lines = []
    for r in records:
        lines.append(f"{r.point}  [{r.chart}-chart]  {r.verdict.value}  ({r.verdict_reason})")
    _emit(args, payload, lines)
    if any(r.verdict is Verdict.UNKNOWN for r in records) or aff.undecided or inf.undecided:
        return EXIT_UNKNOWN
    return EXIT_OK


def cmd_nodal(args) -> int:
    doc = _load_document(args.document)
    curve = _get_curve(doc, args.curve)
    verdict = is_nodal(curve, include_infinity=args.with_infinity)
    payload = {"nodal": verdict, "with_infinity": args.with_infinity}
    _emit(args, payload, [f"nodal: {verdict}"])
    if verdict is None:
        return EXIT_UNKNOWN
    return EXIT_OK if verdict else EXIT_FAILED


def cmd_multiplicity(args) -> int:
    doc = _load_document(args.document)
    field = _get_field(doc, args.field)
    curve = _get_curve(doc, args.curve)
    if invariance_check(field, curve) is None:
        print("curve is not invariant; multiplicities are undefined", file=sys.stderr)
        return EXIT_FAILED
    undecided = 0
    if args.point:
        points = [_parse_point(args.point)]
    else:
        aff = affine_singularities(field)
        inf = infinite_singularities(field.one_form)
        undecided = aff.undecided + inf.undecided
        F = homogenize(curve, int(curve.degree))
        points = [
            p
            for p in aff.points + inf.points
            if F.evaluate(p.coords).is_zero()
        ]
    rows = []
    for pt in points:
        branches = local_branches(curve, pt, args.truncation)
        for idx, br in enumerate(branches):
            mu, certified = branch_multiplicity(field, br)
            rows.append({"point": str(pt), "branch": idx, "mu": mu, "certified": certified})
    payload = {"multiplicities": rows, "undecided_coordinates": undecided}
    lines = [f"{r['point']} branch {r['branch']}: mu = {r['mu']} (certified: {r['certified']})" for r in rows]
    if undecided:
        lines.append(f"warning: {undecided} singular coordinate(s) could not be resolved")
    _emit(args, payload, lines)
    if undecided or any(not r["certified"] for r in rows):
        return EXIT_UNKNOWN
    return EXIT_OK


def cmd_euler_check(args) -> int:
    doc = _load_document(args.document)
    field = _get_field(doc, args.field)
    curve = _get_curve(doc, args.curve)
    report = euler_identity_check(field, curve, args.chi)
    lines = [
        f"curve degree n = {report.curve_degree}, foliation degree m = {report.foliation_degree}",
    ]
    for row in report.table:
        lines.append(f"  {row['point']} branch {row['branch']}: mu = {row['mu']}")
    lines.append(f"sum(mu) = {report.sum_mu}, claimed chi = {report.chi_claimed}")
    lines.append(
        f"identity chi = sum(mu) - n(m-1): {'HOLDS' if report.identity_holds else 'FAILS'}"
    )
    if not report.checkable:
        lines.append("NOT CHECKABLE: " + "; ".join(report.notes))
    _emit(args, report, lines)
    if not report.checkable:
        return EXIT_UNKNOWN
    return EXIT_OK if report.identity_holds else EXIT_FAILED


def cmd_corollary2(args) -> int:
    doc = _load_document(args.document)
    curve = _get_curve(doc, args.curve)
    n = int(curve.degree)
    ok, report = corollary2_check(n, curve)
    chi = -n * (n - 3)
    lines = [
        f"degree n = {n}, expected chi = {chi}",
        f"sum(mu) = {report.sum_mu} over {len(report.table)} infinity branches",
        f"verified: {ok}",
    ]
    _emit(args, report, lines)
    return EXIT_OK if ok else EXIT_FAILED


def cmd_bounds(args) -> int:
    t = args.theorem
    payload: dict
    if t == "t1":
        value = bounds_mod.thm1_bound(args.m)
        payload = {"theorem": "t1", "m": args.m, "bound": value}
        print(value)
    elif t == "t2":
        value = bounds_mod.thm2_bound(args.m, not args.r_nonzero)
        payload = {"theorem": "t2", "m": args.m, "r_zero": not args.r_nonzero, "bound": value}
        print(value)
    elif t == "t4":
        value = bounds_mod.thm4_bound(args.m)
        payload = {"theorem": "t4", "m": args.m, "bound": value}
        print(value)
    elif t == "harnack":
        orders = _parse_ints(args.orders) if args.orders else []
        rep = bounds_mod.harnack_bound(args.m, orders)
        payload = rep.to_dict()
        print(rep.bound)
    elif t == "degree-nodal":
        rep = bounds_mod.nodal_degree_bound(args.m)
        payload = rep.to_dict()
        print(rep.bound)
        print("note:", rep.notes[0])
    elif t == "degree-nondicritical":
        rep = bounds_mod.nondicritical_degree_bound(args.m)
        payload = rep.to_dict()
        print(rep.bound)
    elif t == "mk":
        if args.partition:
            partition = _parse_ints(args.partition)
            value, envelope = bounds_mod.mk_value(args.m, len(partition), partition)
            payload = {"m": args.m, "partition": partition, "value": value, "envelope": envelope}
            print(value)
        else:
            result = bounds_mod.mk_argmax(args.m)
            payload = result.to_dict()
            print(f"k = {result.k}, partition = {list(result.partition)}, value = {result.value}")
    else:
        raise ParseError(f"unknown theorem {t!r}")
    if args.table:
        rows = bounds_mod.bound_table(list(range(args.table_from, args.table_to + 1)))
        payload = {"table": rows, "single": payload}
        for row in rows:
            print(row)
    report_path = getattr(args, "report", None)
    if report_path:
        Path(report_path).write_text(report_json(payload) + "\n", encoding="utf-8")
    return EXIT_OK


def _document_from_parts(fields=None, curves=None, params=None) -> SystemDocument:
    doc = SystemDocument()
    from .textio import CurveEntry, FieldEntry

    for name, fld in (fields or {}).items():
        doc.fields[name] = FieldEntry(fld.p, fld.q, fld.r)
    for name, poly in (curves or {}).items():
        doc.curves[name] = CurveEntry(poly)
    for name, value in (params or {}).items():
        doc.params[name] = value
    return doc


def cmd_construct(args) -> int:
    kind = args.kind
    if kind == "log":
        curves = [parse_poly(c, 3) for c in args.curves.split(";")]
        weights = _parse_weights(args.weights)
        spec = LogarithmicSpec.make(curves, weights)
        form = logarithmic_form(spec)
        field = deprojectivize(form)
        doc = _document_from_parts(
            fields={"log": field},
            curves={f"component_{k}": dehomogenize(F) for k, F in enumerate(spec.curves) if not dehomogenize(F).is_constant()},
        )
        print(f"# P = {print_poly(form.P)}")
        print(f"# Q = {print_poly(form.Q)}")
        print(f"# R = {print_poly(form.R)}")
        print(f"# degree m = {form.m}, infinity invariant: {infinity_invariant(field)}")
    elif kind == "eee":
        g = parse_poly(args.g, 2)
        h = parse_poly(args.h, 2)
        field, cert = eee_system(g, h, _parse_constant(args.a), _parse_constant(args.b))
        doc = _document_from_parts(fields={"eee": field}, curves={"g": g})
        print(f"# cofactor = {print_poly(cert.cofactor)}, degree m = {field.m}")
    elif kind == "thm2b":
        spec, report = thm2b_configuration(args.m)
        form = logarithmic_form(spec)
        field = deprojectivize(form)
        doc = _document_from_parts(
            fields={"thm2b": field},
            curves={f"component_{k}": dehomogenize(F) for k, F in enumerate(spec.curves)},
        )
        print(f"# degree m = {form.m}, total invariant degree = {spec.total_degree}")
        for row in report:
            if row["status"] == "Violated":
                print(f"# ratio condition violated for pair ({row['i']},{row['j']}): {row['ratio']}")
    elif kind == "gallery":
        entry = gallery(args.name)
        fields = {}
        curves = {}
        if entry.field is not None:
            fields[entry.name.replace("-", "_")] = entry.field
        if entry.curve is not None:
            curves["curve"] = entry.curve
        doc = _document_from_parts(fields=fields, curves=curves)
    else:
        raise ParseError(f"unknown construct kind {kind!r}")
    text = format_system(doc)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"# wrote {args.out}")
    else:
        print(text)
    return EXIT_OK


def _parse_box(text: str) -> Box:
    parts = text.split(":")
    if len(parts) != 4:
        raise ParseError("box must be x_lo:x_hi:y_lo:y_hi")
    try:
        x_lo, x_hi, y_lo, y_hi = (Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"box bounds must be rationals: {text!r}") from None
    if x_lo >= x_hi or y_lo >= y_hi:
        raise ParseError("box must satisfy x_lo < x_hi and y_lo < y_hi")
    return Box(x_lo, x_hi, y_lo, y_hi)


def _checked(convert, ok, message: str):
    """An argparse type: `convert` the text and reject a value that fails `ok`."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {convert.__name__} value: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(message)
        return value

    return parse


_resolution = _checked(int, lambda res: res >= 2, "resolution must be at least 2")
_truncation = _checked(int, lambda n: n >= 2, "truncation must be at least 2")
_spacing = _checked(float, lambda h: math.isfinite(h) and h > 0, "spacing must be a positive finite number")


def cmd_ovals(args) -> int:
    doc = _load_document(args.document)
    curve = _get_curve(doc, args.curve)
    box = _parse_box(args.box) if args.box else None
    if box is None and not compactness_check(curve):
        print("real locus is non-compact; supply --box explicitly", file=sys.stderr)
        return EXIT_FAILED
    ovals = count_ovals(curve, box, args.res)
    payload = ovals.to_dict()
    lines = [
        f"ovals: {ovals.count} (certified: {ovals.certified_count})",
    ]
    lines += [f"warning: {w}" for w in ovals.warnings]
    _emit(args, payload, lines)
    if args.emit_polylines:
        chunks = []
        for ov in ovals.ovals:
            chunks.append("\n".join(f"{x:.17g} {y:.17g}" for x, y in ov.vertices))
        Path(args.emit_polylines).write_text("\n\n".join(chunks) + "\n", encoding="utf-8")
    return EXIT_OK


def cmd_certify(args) -> int:
    doc = _load_document(args.document)
    field = _get_field(doc, args.field)
    curve = _get_curve(doc, args.curve)
    cert = invariance_check(field, curve)
    if cert is None:
        print("curve is not invariant; nothing to certify", file=sys.stderr)
        return EXIT_FAILED
    box = _parse_box(args.box) if args.box else None
    ovals = count_ovals(curve, box, args.res)
    selected = ovals.ovals if args.all_ovals else ovals.ovals[:1]
    results = []
    lines = [f"cofactor = {print_poly(cert.cofactor)}", f"ovals found: {ovals.count}"]
    inconclusive = False
    for idx, ov in enumerate(selected):
        pts = trace_oval(curve, ov.vertices[0], spacing=args.spacing)
        c = certify_cycle(field, pts, idx, f=curve, v_poly=curve)
        results.append(c.to_dict())
        lines.append(
            f"oval {idx}: D = {c.divergence_integral:+.9e} T = {c.period:.9e} "
            f"rel_err = {c.quadrature_rel_err:.2e} {c.stability} hyperbolic = {c.hyperbolic}"
        )
        if not c.hyperbolic:
            inconclusive = True
    # location_check(mode="invariant-curve") rows: the invariance was checked
    # above and certify_cycle(v_poly=curve) computed each oval's residual
    loc = location_rows([r["v_residual"] for r in results])
    payload = {
        "cofactor": cert.cofactor,
        "oval_count": ovals.count,
        "certificates": results,
        "location": loc,
    }
    for row in loc:
        lines.append(f"oval {row['oval_id']}: |V| residual = {row['residual']:.2e} pass = {row['pass']}")
    _emit(args, payload, lines)
    if any(not row["pass"] for row in loc):
        return EXIT_FAILED
    return EXIT_UNKNOWN if inconclusive else EXIT_OK


def cmd_iif_check(args) -> int:
    doc = _load_document(args.document)
    field = _get_field(doc, args.field)
    V = _get_curve(doc, args.curve)
    ok = iif_check(field, V)
    _emit(args, {"iif": ok}, [f"inverse integrating factor: {ok}"])
    return EXIT_OK if ok else EXIT_FAILED


def cmd_darboux_check(args) -> int:
    doc = _load_document(args.document)
    field = _get_field(doc, args.field)
    names = [s.strip() for s in args.curves.split(",")]
    weights = _parse_weights(args.weights)
    certs = []
    for name in names:
        cert = invariance_check(field, _get_curve(doc, name))
        if cert is None:
            print(f"curve {name!r} is not invariant", file=sys.stderr)
            return EXIT_FAILED
        certs.append(cert)
    ok = darboux_check(certs, weights)
    _emit(
        args,
        {"darboux": ok, "cofactors": [c.cofactor for c in certs]},
        [f"sum(lambda_i * K_i) = 0: {ok}"],
    )
    return EXIT_OK if ok else EXIT_FAILED


# -- the built-in fixture suite ----------------------------------------------------


def run_paper_suite(report_path: str | None = None) -> int:
    """Every reference fixture end-to-end; deterministic output."""
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str = ""):
        checks.append((name, bool(ok), detail))

    # Euler identities on the three reference foliations
    expected = {"example1": (2, 1, 1, 2), "example2": (3, 1, 2, 2), "example3": (4, 1, 3, 2)}
    for name, (smu, n, m, chi) in expected.items():
        entry = gallery(name)
        rep = euler_identity_check(entry.form, entry.curve, chi)
        ok = (
            rep.checkable
            and rep.identity_holds
            and rep.sum_mu == smu
            and rep.curve_degree == n
            and rep.foliation_degree == m
        )
        check(
            f"euler-identity {name}",
            ok,
            f"sum_mu={rep.sum_mu} n={rep.curve_degree} m={rep.foliation_degree} chi={chi}",
        )

    # Hamiltonian-route Euler characteristics
    for n, curve_text, chi in (
        (1, "x + y - 1", 2),
        (2, "x^2 + 4*y^2 - 1", 2),
        (3, "x^2*y + x*y^2 - 1", 0),
    ):
        ok, rep = corollary2_check(n, parse_poly(curve_text, 2))
        check(f"smooth-curve chi n={n}", ok and rep.chi_claimed == chi, f"chi={rep.chi_claimed}")

    # bound tables
    t1 = {2: 1, 3: 1, 4: 4, 5: 6, 6: 11, 7: 15}
    check("bound table t1 m=2..7", all(bounds_mod.thm1_bound(m) == v for m, v in t1.items()), str(t1))
    check(
        "bound table t2 r=0",
        bounds_mod.thm2_bound(2, True) == 2 and bounds_mod.thm2_bound(3, True) == 3,
        "m=2->2, m=3->3",
    )
    check(
        "bound table t2 r!=0",
        bounds_mod.thm2_bound(2, False) == 4 and bounds_mod.thm2_bound(3, False) == 6,
        "m=2->4, m=3->6",
    )
    check(
        "degree caps",
        all(
            bounds_mod.nodal_degree_bound(m).bound == m + 2
            and bounds_mod.nondicritical_degree_bound(m).bound == m + 2
            for m in range(2, 8)
        ),
        "m+2 for m=2..7",
    )
    mk = bounds_mod.mk_argmax(4)
    check("partition maximum m=4", mk.k == 3 and mk.value == 4, f"k={mk.k} value={mk.value}")

    # printed coefficients of the three-lines form
    entry = gallery("three-lines")
    expP = parse_poly("Y*(Y + X - Z)", 3)
    expQ = parse_poly("-X*(Y + X + Z)", 3)
    expR = parse_poly("2*X*Y", 3)
    check(
        "three-lines printed coefficients",
        entry.form.P == expP and entry.form.Q == expQ and entry.form.R == expR,
        "weights (1, 1, -2)",
    )
    check(
        "three-lines infinity not invariant",
        not infinity_invariant(entry.field),
        f"r = {print_poly(entry.field.r)}",
    )

    # invariance + weighted-cofactor identity + inverse integrating factor
    for log_entry in (gallery("three-lines"), gallery("example1")):
        if log_entry.log_spec is None:
            continue
        field = log_entry.field
        certs = []
        all_inv = True
        V = MultiPoly.constant(2, gr(1))
        for F in log_entry.log_spec.curves:
            f_aff = dehomogenize(F)
            if f_aff.is_constant():
                continue
            V = V * f_aff
            c = invariance_check(field, f_aff)
            if c is None:
                all_inv = False
                break
            certs.append(c)
        weights = [
            w
            for F, w in zip(log_entry.log_spec.curves, log_entry.log_spec.weights)
            if not dehomogenize(F).is_constant()
        ]
        check(f"invariance of factors [{log_entry.name}]", all_inv)
        if all_inv:
            check(f"weighted cofactor identity [{log_entry.name}]", darboux_check(certs, weights))
            check(f"inverse integrating factor [{log_entry.name}]", iif_check(field, V))

    # eee pipeline on the unit circle (exact parts + oval count)
    g = parse_poly("x^2 + y^2 - 1", 2)
    h = parse_poly("x - 2", 2)
    field, cert = eee_system(g, h, gr(1), gr(1))
    check(
        "eee cofactor",
        cert.cofactor == parse_poly("2*x + 2*y", 2),
        f"K = {print_poly(cert.cofactor)}",
    )
    ovals = count_ovals(g, Box.square(2), 64)
    check("eee circle oval count", ovals.count == 1 and ovals.certified_count == 1, "1 certified oval")

    failures = [c for c in checks if not c[1]]
    width = max(len(c[0]) for c in checks)
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        print(f"{status}  {name.ljust(width)}{suffix}")
    print(f"{len(checks) - len(failures)}/{len(checks)} fixture checks passed")
    if report_path:
        payload = {
            "checks": [{"name": n, "pass": ok, "detail": d} for n, ok, d in checks],
            "total": len(checks),
            "failed": len(failures),
        }
        Path(report_path).write_text(report_json(payload) + "\n", encoding="utf-8")
    return EXIT_OK if not failures else EXIT_FAILED


def cmd_paper_suite(args) -> int:
    return run_paper_suite(getattr(args, "report", None))


# -- parser ------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads every token starting with a single '-' as a value.

    Boxes, weights and rationals may start with '-' ("--box -2:2:-2:2",
    "--weights -3,1,2", "--a -1/2"), where stock argparse takes only plain
    negative numbers as values.  The only single-dash option here is -h,
    which argparse still matches before it asks this pattern.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-[^-]")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="foltools",
        description="Exact verification toolkit for planar polynomial vector fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, field=False, curve=False):
        p.add_argument("document", help="path to a .fol system document")
        if field:
            p.add_argument("--field", required=True, help="field name in the document")
        if curve:
            p.add_argument("--curve", required=True, help="curve name in the document")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--report", help="also write the JSON report to this path")

    p = sub.add_parser("check-invariant", help="exact invariance certificate")
    add_common(p, field=True, curve=True)
    p.set_defaults(handler=cmd_check_invariant)

    p = sub.add_parser("cofactor", help="print the exact cofactor")
    add_common(p, field=True, curve=True)
    p.set_defaults(handler=cmd_cofactor)

    p = sub.add_parser("projectivize", help="homogeneous one-form of a field")
    add_common(p, field=True)
    p.set_defaults(handler=cmd_projectivize)

    p = sub.add_parser("singularities", help="enumerate singular points")
    add_common(p, field=True)
    p.set_defaults(handler=cmd_singularities)

    p = sub.add_parser("classify", help="dicritical classification of singular points")
    add_common(p, field=True)
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("nodal", help="decide nodality of a curve")
    add_common(p, curve=True)
    p.add_argument("--with-infinity", action="store_true", default=False)
    p.set_defaults(handler=cmd_nodal)

    p = sub.add_parser("multiplicity", help="branch multiplicities at singular points")
    add_common(p, field=True, curve=True)
    p.add_argument("--point", help="affine x,y or projective X:Y:Z")
    p.add_argument("--truncation", type=_truncation, default=None)
    p.set_defaults(handler=cmd_multiplicity)

    p = sub.add_parser("euler-check", help="chi = sum(mu) - n(m-1) identity")
    add_common(p, field=True, curve=True)
    p.add_argument("--chi", type=int, required=True)
    p.set_defaults(handler=cmd_euler_check)

    p = sub.add_parser("corollary2", help="chi of a smooth curve via its Hamiltonian foliation")
    add_common(p, curve=True)
    p.set_defaults(handler=cmd_corollary2)

    p = sub.add_parser("bounds", help="closed-form bound calculators")
    p.add_argument(
        "--theorem",
        required=True,
        choices=["t1", "t2", "t4", "harnack", "degree-nodal", "degree-nondicritical", "mk"],
    )
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r-nonzero", action="store_true")
    p.add_argument("--orders", help="comma-separated singular orders (harnack)")
    p.add_argument("--partition", help="comma-separated partition (mk)")
    p.add_argument("--table", action="store_true", help="also emit a table over a range")
    p.add_argument("--table-from", type=int, default=2)
    p.add_argument("--table-to", type=int, default=7)
    p.add_argument("--report")
    p.set_defaults(handler=cmd_bounds)

    p = sub.add_parser("construct", help="emit reference systems as .fol documents")
    ksub = p.add_subparsers(dest="kind", required=True)
    pk = ksub.add_parser("log")
    pk.add_argument("--curves", required=True, help="semicolon-separated homogeneous polynomials")
    pk.add_argument("--weights", required=True, help="comma-separated weights")
    pk.add_argument("--out")
    pk.set_defaults(handler=cmd_construct)
    pk = ksub.add_parser("eee")
    pk.add_argument("--g", required=True)
    pk.add_argument("--h", required=True)
    pk.add_argument("--a", default="1")
    pk.add_argument("--b", default="1")
    pk.add_argument("--out")
    pk.set_defaults(handler=cmd_construct)
    pk = ksub.add_parser("thm2b")
    pk.add_argument("--m", type=int, required=True)
    pk.add_argument("--out")
    pk.set_defaults(handler=cmd_construct)
    pk = ksub.add_parser("gallery")
    pk.add_argument("name", choices=list(GALLERY_NAMES))
    pk.add_argument("--out")
    pk.set_defaults(handler=cmd_construct)

    p = sub.add_parser("ovals", help="count real ovals by certified marching squares")
    add_common(p, curve=True)
    p.add_argument("--box", help="x_lo:x_hi:y_lo:y_hi (rationals)")
    p.add_argument("--res", type=_resolution, default=256)
    p.add_argument("--emit-polylines", help="write oval polylines to this file")
    p.set_defaults(handler=cmd_ovals)

    p = sub.add_parser("certify", help="hyperbolic limit-cycle certificates")
    add_common(p, field=True, curve=True)
    p.add_argument("--all-ovals", action="store_true")
    p.add_argument("--box")
    p.add_argument("--res", type=_resolution, default=256)
    p.add_argument("--spacing", type=_spacing, default=1.5e-3)
    p.set_defaults(handler=cmd_certify)

    p = sub.add_parser("iif-check", help="inverse integrating factor identity")
    add_common(p, field=True, curve=True)
    p.set_defaults(handler=cmd_iif_check)

    p = sub.add_parser("darboux-check", help="weighted cofactor identity")
    add_common(p, field=True)
    p.add_argument("--curves", required=True, help="comma-separated curve names")
    p.add_argument("--weights", required=True, help="comma-separated weights")
    p.set_defaults(handler=cmd_darboux_check)

    p = sub.add_parser("paper-suite", help="run every built-in reference fixture")
    p.add_argument("--report", help="write the JSON report to this path")
    p.set_defaults(handler=cmd_paper_suite)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.handler(args)
    except (ParseError, ConfigError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (UnsupportedBranch, UncertifiedResult) as exc:
        print(f"unsupported/uncertified: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    except FolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (e.g. `| head`): point stdout at devnull
        # so the flush at interpreter exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(EXIT_BROKEN_PIPE)
    sys.exit(code)


if __name__ == "__main__":
    main()
