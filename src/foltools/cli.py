"""Command-line interface: certificates in, certificates out.

Each subcommand handler returns (payload, text lines, verdict), the verdict
True (proven), False (refuted) or None (undecided); `run` alone emits the
output and turns the verdict into the exit code.  `run` alone also reads a
document command's inputs: it loads the document, then builds the `--field`
and looks up the `--curve` (or each `--curves` name, in order) the command
declared, and calls the handler with them, so a handler only computes.

Exit codes: 0 the answer is proven, 1 a verification failed (and, for
now, DegenerateInput), 2 usage or parse error, a file that cannot be read
or written, or a failed precondition (a curve that is not invariant, a
non-compact curve with no --box, a field whose components share a factor:
NonIsolatedSingularities, `construct log` curves that share a factor,
polynomials over different variable sets: ArityMismatch, a computed
coefficient with more digits than Python prints, 4,300 by default),
3 an undecided outcome (Unknown, Unsupported, uncertified,
an oval count with an uncertified oval, a `certify` that finds no oval, a
numerical step that failed inside the program), 141 (128 + SIGPIPE) stdout
was closed before the output was written.
Machine-readable JSON (--json / --report) accompanies every verdict.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

from .branches import (
    _resolved_multiplicity,
    corollary2_check,
    euler_identity_check,
    singular_points_on_curve,
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
    ArityMismatch,
    FolError,
    NonIsolatedSingularities,
    ParseError,
    PreconditionError,
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
from .polyring import MultiPoly, dehomogenize, require_reduced_curve
from .realtopo import Box, count_ovals, ellipse_count, ellipse_loop, trace_oval
from .singularities import (
    ProjectivePoint,
    Verdict,
    affine_singularities,
    classify_dicritical,
    infinite_singularities,
    is_nodal,
)
from .textio import (
    CurveEntry,
    FieldEntry,
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


@contextlib.contextmanager
def _file_errors(path: str):
    """A file that cannot be read or written is a usage error (exit 2), one line on stderr."""
    try:
        yield
    except UnicodeDecodeError:
        raise PreconditionError(f"{path}: not UTF-8 text") from None
    except OSError as exc:
        raise PreconditionError(f"{path}: {exc.strerror or exc}") from None


def _load_document(path: str) -> SystemDocument:
    with _file_errors(path):
        text = Path(path).read_text(encoding="utf-8")
    return parse_system(text)


def _write_text(path: str, text: str) -> None:
    with _file_errors(path):
        Path(path).write_text(text, encoding="utf-8")


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
        try:
            return ProjectivePoint.make(*(_parse_constant(p) for p in parts))
        except ValueError as exc:  # (0 : 0 : 0)
            raise ParseError(str(exc)) from None
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError("affine point must be x,y")
    return ProjectivePoint.affine(*(_parse_constant(p) for p in parts))


def _parse_weights(text: str) -> list[GaussianRational]:
    return [_parse_constant(chunk) for chunk in text.split(",") if chunk.strip()]


def _emit(args, payload, text_lines: list[str]) -> None:
    # the report first: a report that cannot be written leaves stdout empty
    report_path = getattr(args, "report", None)
    if report_path:
        _write_text(report_path, report_json(payload) + "\n")
    if getattr(args, "json", False):
        print(report_json(payload))
    else:
        for line in text_lines:
            print(line)


# -- subcommand handlers -----------------------------------------------------------


def cmd_check_invariant(args, field, curve):
    cert = invariance_check(field, curve)
    if cert is None:
        return {"invariant": False}, [f"curve {args.curve!r} is NOT invariant"], False
    payload = {"invariant": True, "certificate": cert}
    lines = [
        f"curve {args.curve!r} is invariant",
        f"cofactor = {print_poly(cert.cofactor)}",
        f"degree bound ok: {cert.degree_bound_ok}",
    ]
    return payload, lines, True


def cmd_cofactor(args, field, curve):
    cert = invariance_check(field, curve)
    if cert is None:
        return {"invariant": False}, ["NotInvariant"], False
    K = print_poly(cert.cofactor)
    return {"invariant": True, "cofactor": K}, [K], True


def cmd_projectivize(args, field):
    form = projectivize(field)
    payload = {
        "P": form.P,
        "Q": form.Q,
        "R": form.R,
        "degree": form.m,
        "infinity_invariant": infinity_invariant(field),
    }
    lines = [
        f"P = {print_poly(form.P)}",
        f"Q = {print_poly(form.Q)}",
        f"R = {print_poly(form.R)}",
        f"foliation degree m = {form.m}",
        f"line at infinity invariant: {infinity_invariant(field)}",
    ]
    return payload, lines, True


def cmd_singularities(args, field):
    aff = affine_singularities(field)
    inf = infinite_singularities(field.one_form)
    payload = {
        "affine": aff.points,
        "affine_residual": aff.residual,
        "affine_uncertain": aff.uncertain,
        "infinite": inf.points,
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
    return payload, lines, not (aff.undecided or inf.undecided) or None


def cmd_classify(args, field):
    aff = affine_singularities(field)
    inf = infinite_singularities(field.one_form)
    records = [classify_dicritical(field, p) for p in aff.points + inf.points]
    payload = {
        "records": records,
        "residual": aff.residual + inf.residual,
        "uncertain": aff.uncertain + inf.uncertain,
    }
    lines = []
    for r in records:
        lines.append(f"{r.point}  [{r.chart}-chart]  {r.verdict.value}  ({r.verdict_reason})")
    unknown = any(r.verdict is Verdict.UNKNOWN for r in records)
    return payload, lines, not (unknown or aff.undecided or inf.undecided) or None


def cmd_nodal(args, curve):
    verdict = is_nodal(curve, include_infinity=args.with_infinity)
    payload = {"nodal": verdict, "with_infinity": args.with_infinity}
    return payload, [f"nodal: {verdict}"], verdict


def _invariance(field: AffineVectorField, curve: MultiPoly, message: str):
    """The invariance certificate of curve; a curve that is not invariant
    fails the command's precondition with `message`."""
    cert = invariance_check(field, curve)
    if cert is None:
        raise PreconditionError(message)
    return cert


def cmd_multiplicity(args, field, curve):
    _invariance(field, curve, "curve is not invariant; multiplicities are undefined")
    undecided = 0
    if args.point:
        points = [_parse_point(args.point)]
        require_reduced_curve(curve)
    else:
        points, enumerations = singular_points_on_curve(field, curve)
        undecided = sum(e.undecided_on(curve) for e in enumerations)
    rows = []
    for pt in points:
        for idx, (mu, _br) in enumerate(_resolved_multiplicity(field, curve, pt)):
            rows.append({"point": pt, "branch": idx, "mu": mu, "certified": True})
    payload = {"multiplicities": rows, "undecided_coordinates": undecided}
    lines = [f"{r['point']} branch {r['branch']}: mu = {r['mu']} (certified: True)" for r in rows]
    if undecided:
        lines.append(f"warning: {undecided} singular coordinate(s) could not be resolved")
    return payload, lines, not undecided or None


def cmd_euler_check(args, field, curve):
    report = euler_identity_check(field, curve, args.chi)
    lines = [
        f"curve degree n = {report.curve_degree}, foliation degree m = {report.foliation_degree}",
    ]
    for row in report.multiplicities:
        lines.append(f"  {row['point']} branch {row['branch']}: mu = {row['mu']}")
    lines.append(f"sum(mu) = {report.sum_mu}, claimed chi = {report.chi_claimed}")
    status = "UNDECIDED" if not report.checkable else "HOLDS" if report.identity_holds else "FAILS"
    lines.append(f"identity chi = sum(mu) - n(m-1): {status}")
    if not report.checkable:
        lines.append("NOT CHECKABLE: " + "; ".join(report.notes))
    return report, lines, report.identity_holds if report.checkable else None


def cmd_corollary2(args, curve):
    ok, report = corollary2_check(curve.degree, curve)
    lines = [
        f"degree n = {report.curve_degree}, expected chi = {report.chi_claimed}",
        f"sum(mu) = {report.sum_mu} over {len(report.multiplicities)} infinity branches",
        f"verified: {ok}",
    ]
    return report, lines, ok


def cmd_bounds(args):
    from . import bounds as bounds_mod  # loaded by the commands that ask for a bound, not at start-up

    if args.table and args.table_from > args.table_to:
        raise ParseError(f"--table-from {args.table_from} exceeds --table-to {args.table_to}")
    t = args.theorem
    if t == "t1":
        value = bounds_mod.thm1_bound(args.m)
        payload = {"theorem": "t1", "m": args.m, "bound": value}
        lines = [str(value)]
    elif t == "t2":
        value = bounds_mod.thm2_bound(args.m, not args.r_nonzero)
        payload = {"theorem": "t2", "m": args.m, "r_zero": not args.r_nonzero, "bound": value}
        lines = [str(value)]
    elif t == "t4":
        value = bounds_mod.thm4_bound(args.m)
        payload = {"theorem": "t4", "m": args.m, "bound": value}
        lines = [str(value)]
    elif t == "harnack":
        orders = _parse_ints(args.orders) if args.orders else []
        payload = bounds_mod.harnack_bound(args.m, orders)
        lines = [str(payload.bound)]
    elif t == "degree-nodal":
        payload = bounds_mod.nodal_degree_bound(args.m)
        lines = [str(payload.bound), f"note: {payload.notes[0]}"]
    elif t == "degree-nondicritical":
        payload = bounds_mod.nondicritical_degree_bound(args.m)
        lines = [str(payload.bound)]
    else:  # mk
        if args.partition is not None:
            partition = _parse_ints(args.partition)
            value, envelope = bounds_mod.mk_value(args.m, len(partition), partition)
            payload = {"m": args.m, "partition": partition, "value": value, "envelope": envelope}
            lines = [str(value)]
        else:
            payload = bounds_mod.mk_argmax(args.m)
            lines = [f"k = {payload.k}, partition = {list(payload.partition)}, value = {payload.value}"]
    if args.table:
        rows = bounds_mod.bound_table(list(range(args.table_from, args.table_to + 1)))
        payload = {"table": rows, "single": payload}
        lines += _table_lines(rows)
    return payload, lines, True


def _table_lines(rows: list[dict]) -> list[str]:
    """A header of the rows' keys, then one line per row, each column right
    aligned to its widest entry; None reads "-"."""
    if not rows:
        return []
    cells = [list(rows[0])] + [["-" if v is None else str(v) for v in row.values()] for row in rows]
    widths = [max(len(line[c]) for line in cells) for c in range(len(cells[0]))]
    return ["  ".join(v.rjust(w) for v, w in zip(line, widths)) for line in cells]


def _document_from_parts(fields=None, curves=None) -> SystemDocument:
    doc = SystemDocument()
    for name, fld in (fields or {}).items():
        doc.fields[name] = FieldEntry(fld.p, fld.q, fld.r)
    for name, poly in (curves or {}).items():
        doc.curves[name] = CurveEntry(poly)
    return doc


def cmd_construct(args):
    kind = args.kind
    lines = []
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
        lines += [
            f"# P = {print_poly(form.P)}",
            f"# Q = {print_poly(form.Q)}",
            f"# R = {print_poly(form.R)}",
            f"# degree m = {form.m}, infinity invariant: {infinity_invariant(field)}",
        ]
    elif kind == "eee":
        g = parse_poly(args.g, 2)
        h = parse_poly(args.h, 2)
        field, cert = eee_system(g, h, _parse_constant(args.a), _parse_constant(args.b))
        doc = _document_from_parts(fields={"eee": field}, curves={"g": g})
        lines.append(f"# cofactor = {print_poly(cert.cofactor)}, degree m = {field.m}")
    elif kind == "thm2b":
        spec, report = thm2b_configuration(args.m)
        form = logarithmic_form(spec)
        field = deprojectivize(form)
        doc = _document_from_parts(
            fields={"thm2b": field},
            curves={f"component_{k}": dehomogenize(F) for k, F in enumerate(spec.curves)},
        )
        lines.append(f"# degree m = {form.m}, total invariant degree = {spec.total_degree}")
        for row in report:
            if row["status"] == "Violated":
                lines.append(f"# ratio condition violated for pair ({row['i']},{row['j']}): {row['ratio']}")
    else:  # gallery
        entry = gallery(args.name)
        fields = {}
        curves = {}
        if entry.field is not None:
            fields[entry.name.replace("-", "_")] = entry.field
        if entry.curve is not None:
            curves["curve"] = entry.curve
        doc = _document_from_parts(fields=fields, curves=curves)
    text = format_system(doc)
    if args.out:
        _write_text(args.out, text)
        lines.append(f"# wrote {args.out}")
    else:
        lines.append(text)
    return None, lines, True


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
_spacing = _checked(float, lambda h: math.isfinite(h) and h > 0, "spacing must be a positive finite number")


def cmd_ovals(args, curve):
    box = _parse_box(args.box) if args.box else None
    ovals = count_ovals(curve, box, args.res)
    exact = ellipse_count(curve, ovals.box)  # a conic's count is exact: the lattice may step over a small oval
    agrees = exact in (None, ovals.count)
    if not agrees:
        ovals.warnings.append(f"the curve is an ellipse with exactly {exact} oval(s) in the box; the lattice counted {ovals.count}")
    lines = [
        f"ovals: {ovals.count} (certified: {ovals.certified_count})",
    ]
    lines += [f"warning: {w}" for w in ovals.warnings]
    if args.emit_polylines:
        chunks = []
        for ov in ovals.ovals:
            chunks.append("\n".join(f"{x:.17g} {y:.17g}" for x, y in ov.vertices))
        _write_text(args.emit_polylines, "\n\n".join(chunks) + "\n")
    return ovals, lines, (agrees and ovals.certified_count == ovals.count) or None


def cmd_certify(args, field, curve):
    cert = _invariance(field, curve, "curve is not invariant; nothing to certify")
    box = _parse_box(args.box) if args.box else None
    loops = ellipse_loop(curve, box, spacing=args.spacing)
    if loops is None:  # not an ellipse strictly inside the box: the lattice counts, and each certified oval is traced
        ovals = count_ovals(curve, box, args.res)
        count = ovals.count
        selected = ovals.ovals if args.all_ovals else ovals.ovals[:1]
        loops = (trace_oval(curve, ov.seed, spacing=args.spacing) if ov.certified else None for ov in selected)
    else:
        count = len(loops)
    results = []
    lines = [f"cofactor = {print_poly(cert.cofactor)}", f"ovals found: {count}"]
    uncertified = False
    for idx, pts in enumerate(loops):
        if pts is None:
            uncertified = True
            lines.append(f"oval {idx}: not certified by the lattice; no certificate")
            continue
        c = certify_cycle(field, pts, idx, f=curve, v_poly=curve)
        results.append(c)
        lines.append(
            f"oval {idx}: D = {c.divergence_integral:+.9e} T = {c.period:.9e} "
            f"rel_err = {c.quadrature_rel_err:.2e} {c.stability} hyperbolic = {c.hyperbolic}"
        )
    # location_check(mode="invariant-curve") rows: the invariance was checked
    # above and certify_cycle(v_poly=curve) computed each oval's residual
    loc = location_rows([(c.oval_id, c.v_residual) for c in results])
    payload = {
        "cofactor": cert.cofactor,
        "oval_count": count,
        "certificates": results,
        "location": loc,
    }
    for row in loc:
        lines.append(f"oval {row['oval_id']}: |V| residual = {row['residual']:.2e} pass = {row['pass']}")
    if not all(row["pass"] for row in loc):
        return payload, lines, False
    if not count:
        lines.append("no oval found; nothing certified")
        return payload, lines, None
    return payload, lines, (not uncertified and all(c.hyperbolic for c in results)) or None


def cmd_iif_check(args, field, curve):
    ok = iif_check(field, curve)
    return {"iif": ok}, [f"inverse integrating factor: {ok}"], ok


def cmd_darboux_check(args, field, curves):
    weights = _parse_weights(args.weights)
    certs = [_invariance(field, curve, f"curve {name!r} is not invariant") for name, curve in curves]
    ok = darboux_check(certs, weights)
    payload = {"darboux": ok, "cofactors": [c.cofactor for c in certs]}
    return payload, [f"sum(lambda_i * K_i) = 0: {ok}"], ok


# -- the built-in fixture suite ----------------------------------------------------


def run_paper_suite() -> list[tuple[str, bool, str]]:
    """Every reference fixture end-to-end: deterministic (name, passed, detail) rows."""
    from . import bounds as bounds_mod

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
    return checks


def cmd_paper_suite(args):
    checks = run_paper_suite()
    failures = [c for c in checks if not c[1]]
    width = max(len(c[0]) for c in checks)
    lines = []
    for name, ok, detail in checks:
        suffix = f"  ({detail})" if detail else ""
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name.ljust(width)}{suffix}")
    lines.append(f"{len(checks) - len(failures)}/{len(checks)} fixture checks passed")
    payload = {
        "checks": [{"name": n, "pass": ok, "detail": d} for n, ok, d in checks],
        "total": len(checks),
        "failed": len(failures),
    }
    return payload, lines, not failures


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

    def add_common(name, handler, summary, field=False, curve=False):
        """Declare a document subcommand; `run` loads its document, builds the
        field and looks up the curves it takes, and passes them to `handler`."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("document", help="path to a .fol system document")
        if field:
            p.add_argument("--field", required=True, help="field name in the document")
        if curve:
            p.add_argument("--curve", required=True, help="curve name in the document")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--report", help="also write the JSON report to this path")
        p.set_defaults(handler=handler)
        return p

    add_common("check-invariant", cmd_check_invariant, "exact invariance certificate", field=True, curve=True)
    add_common("cofactor", cmd_cofactor, "print the exact cofactor", field=True, curve=True)
    add_common("projectivize", cmd_projectivize, "homogeneous one-form of a field", field=True)
    add_common("singularities", cmd_singularities, "enumerate singular points", field=True)
    add_common("classify", cmd_classify, "dicritical classification of singular points", field=True)
    p = add_common("nodal", cmd_nodal, "decide nodality of a curve", curve=True)
    p.add_argument("--with-infinity", action="store_true", default=False)
    p = add_common("multiplicity", cmd_multiplicity, "branch multiplicities at singular points", field=True, curve=True)
    p.add_argument("--point", help="affine x,y or projective X:Y:Z")
    p = add_common("euler-check", cmd_euler_check, "chi = sum(mu) - n(m-1) identity", field=True, curve=True)
    p.add_argument("--chi", type=int, required=True)
    add_common("corollary2", cmd_corollary2, "chi of a smooth curve via its Hamiltonian foliation", curve=True)

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
    p.set_defaults(handler=cmd_construct)
    ksub = p.add_subparsers(dest="kind", required=True)
    pk = ksub.add_parser("log")
    pk.add_argument("--curves", required=True, help="semicolon-separated homogeneous polynomials")
    pk.add_argument("--weights", required=True, help="comma-separated weights")
    pk.add_argument("--out")
    pk = ksub.add_parser("eee")
    pk.add_argument("--g", required=True)
    pk.add_argument("--h", required=True)
    pk.add_argument("--a", default="1")
    pk.add_argument("--b", default="1")
    pk.add_argument("--out")
    pk = ksub.add_parser("thm2b")
    pk.add_argument("--m", type=int, required=True)
    pk.add_argument("--out")
    pk = ksub.add_parser("gallery")
    pk.add_argument("name", choices=list(GALLERY_NAMES))
    pk.add_argument("--out")

    p = add_common("ovals", cmd_ovals, "count real ovals by certified marching squares", curve=True)
    p.add_argument("--box", help="x_lo:x_hi:y_lo:y_hi (rationals)")
    p.add_argument("--res", type=_resolution, default=256)
    p.add_argument("--emit-polylines", help="write oval polylines to this file")

    p = add_common("certify", cmd_certify, "hyperbolic limit-cycle certificates", field=True, curve=True)
    p.add_argument("--all-ovals", action="store_true")
    p.add_argument("--box")
    p.add_argument("--res", type=_resolution, default=256)
    p.add_argument("--spacing", type=_spacing, default=1.5e-3)

    add_common("iif-check", cmd_iif_check, "inverse integrating factor identity", field=True, curve=True)
    p = add_common("darboux-check", cmd_darboux_check, "weighted cofactor identity", field=True)
    p.add_argument("--curves", required=True, help="comma-separated curve names")
    p.add_argument("--weights", required=True, help="comma-separated weights")

    p = sub.add_parser("paper-suite", help="run every built-in reference fixture")
    p.add_argument("--report", help="write the JSON report to this path")
    p.set_defaults(handler=cmd_paper_suite)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing reads it and never changes it."""
    return build_parser()


def run(argv: list[str]) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        inputs = ()
        if "document" in args:
            doc = _load_document(args.document)
            if "field" in args:
                inputs += (_get_field(doc, args.field),)
            if "curve" in args:
                inputs += (_get_curve(doc, args.curve),)
            if "curves" in args:
                names = [name.strip() for name in args.curves.split(",")]
                inputs += ([(name, _get_curve(doc, name)) for name in names],)
        payload, lines, verdict = args.handler(args, *inputs)
        _emit(args, payload, lines)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (UnsupportedBranch, UncertifiedResult) as exc:
        print(f"unsupported/uncertified: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    except (PreconditionError, NonIsolatedSingularities, ArityMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED
    return {True: EXIT_OK, False: EXIT_FAILED, None: EXIT_UNKNOWN}[verdict]


def main() -> None:
    try:
        code = run(sys.argv[1:])
        if sys.stdout is not None:  # None when the process started with no stdout at all
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
