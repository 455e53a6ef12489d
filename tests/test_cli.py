import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from conftest import src_env
from foltools import cli
from foltools.cli import EXIT_BROKEN_PIPE, run
from foltools.errors import ArityMismatch, PreconditionError

EEE_DOC = """
[field eee]
p = x^2 + y^2 - 1 - (x - 2)*2*y
q = x^2 + y^2 - 1 + (x - 2)*2*x

[field rotation]
p = -y
q = x

[curve circle]
f = x^2 + y^2 - 1

[curve line]
f = x
"""

EX1_DOC = """
[param alpha]
value = 1 + 2*i

[field example1]
p = -x
q = alpha*y

[curve line]
f = x
"""

THREE_LINES_DOC = """
[field log3]
p = x
q = -y
r = x + y

[curve l1]
f = x

[curve l2]
f = y

[curve l3]
f = y - x - 1
"""


@pytest.fixture
def eee_doc(tmp_path):
    p = tmp_path / "eee.fol"
    p.write_text(EEE_DOC)
    return str(p)


@pytest.fixture
def ex1_doc(tmp_path):
    p = tmp_path / "ex1.fol"
    p.write_text(EX1_DOC)
    return str(p)


@pytest.fixture
def log3_doc(tmp_path):
    p = tmp_path / "log3.fol"
    p.write_text(THREE_LINES_DOC)
    return str(p)


def test_check_invariant_exit_codes(eee_doc, capsys):
    assert run(["check-invariant", eee_doc, "--field", "eee", "--curve", "circle"]) == 0
    out = capsys.readouterr().out
    assert "cofactor = 2*x + 2*y" in out
    assert run(["check-invariant", eee_doc, "--field", "rotation", "--curve", "line"]) == 1


def test_cofactor_output(eee_doc, capsys):
    assert run(["cofactor", eee_doc, "--field", "eee", "--curve", "circle"]) == 0
    assert capsys.readouterr().out.strip() == "2*x + 2*y"


def test_cofactor_json_and_report(eee_doc, tmp_path, capsys):
    report = tmp_path / "r.json"
    argv = ["cofactor", eee_doc, "--field", "eee", "--curve", "circle", "--json", "--report", str(report)]
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert json.loads(out) == {"invariant": True, "cofactor": "2*x + 2*y"}
    assert report.read_text(encoding="utf-8") == out
    assert run(["cofactor", eee_doc, "--field", "rotation", "--curve", "line", "--json", "--report", str(report)]) == 1
    out = capsys.readouterr().out
    assert json.loads(out) == {"invariant": False}
    assert report.read_text(encoding="utf-8") == out
    # without --json the text lines stay, and the report is still written
    assert run(["cofactor", eee_doc, "--field", "rotation", "--curve", "line", "--report", str(report)]) == 1
    assert capsys.readouterr().out == "NotInvariant\n"
    assert json.loads(report.read_text(encoding="utf-8")) == {"invariant": False}


def test_projectivize_output(eee_doc, capsys):
    assert run(["projectivize", eee_doc, "--field", "rotation", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["degree"] == 1 and payload["infinity_invariant"] is True


def test_singularities_and_classify(eee_doc, ex1_doc, capsys):
    assert run(["singularities", eee_doc, "--field", "rotation"]) == 0
    out = capsys.readouterr().out
    assert "(0 : 0 : 1)" in out
    # every singular point of the reference foliation is certified non-dicritical
    assert run(["classify", ex1_doc, "--field", "example1"]) == 0
    out = capsys.readouterr().out
    assert "non-dicritical" in out and "unknown" not in out
    # the rotation's infinite points are resonant: honest unknown, exit 3
    assert run(["classify", eee_doc, "--field", "rotation"]) == 3
    out = capsys.readouterr().out
    assert "non-dicritical" in out and "resonant-ratio" in out


def test_classify_at_a_point_with_a_zero_jacobian_is_undecided(tmp_path, capsys):
    doc = tmp_path / "zero-jacobian.fol"
    doc.write_text("[field f]\np = x^2 + y^3\nq = x*y\n")
    assert run(["classify", str(doc), "--field", "f"]) == 3
    assert capsys.readouterr().out == "(0 : 0 : 1)  [z-chart]  unknown  (zero-jacobian)\n(1 : 0 : 0)  [x-chart]  unknown  (zero-jacobian)\n"


def test_classify_residual_exit(eee_doc, capsys):
    # the eee system's singular points all have non-Q(i) coordinates
    assert run(["singularities", eee_doc, "--field", "eee"]) == 3
    out = capsys.readouterr().out
    assert "residual" in out


def test_nodal_exit_codes(eee_doc, tmp_path, capsys):
    assert run(["nodal", eee_doc, "--curve", "circle", "--with-infinity"]) == 0
    cusp = tmp_path / "cusp.fol"
    cusp.write_text("[curve cusp]\nf = y^2 - x^3\n")
    assert run(["nodal", str(cusp), "--curve", "cusp"]) == 1


def test_uncertain_point_at_infinity_exits_unknown(tmp_path, capsys):
    doc = tmp_path / "tangent.fol"
    doc.write_text(f"[curve f]\nf = (x + {10**21 + 7}*y)^2*(x + y)*(x + 2*y) + x^3 + 1\n")
    assert run(["nodal", str(doc), "--curve", "f", "--with-infinity"]) == 3
    assert "nodal: None" in capsys.readouterr().out
    assert run(["corollary2", str(doc), "--curve", "f"]) == 3


def test_multiplicity_and_euler(ex1_doc, capsys):
    assert run(["multiplicity", ex1_doc, "--field", "example1", "--curve", "line"]) == 0
    out = capsys.readouterr().out
    assert "mu = 1" in out
    assert run(["euler-check", ex1_doc, "--field", "example1", "--curve", "line", "--chi", "2"]) == 0
    out = capsys.readouterr().out
    assert "HOLDS" in out and "sum(mu) = 2" in out
    assert run(["euler-check", ex1_doc, "--field", "example1", "--curve", "line", "--chi", "5"]) == 1


def test_corollary2_cli(tmp_path, capsys):
    doc = tmp_path / "cubic.fol"
    doc.write_text("[curve cubic]\nf = x^2*y + x*y^2 - 1\n")
    assert run(["corollary2", str(doc), "--curve", "cubic"]) == 0
    assert "verified: True" in capsys.readouterr().out


# curve -> (chi, points at infinity) for smooth curves whose n points at
# infinity are Q(i)-rational: each point is one branch with mu = 1
COROLLARY2_VERIFIED = {
    "x + y - 1": (2, ("(-1 : 1 : 0)",)),
    "x^2 + 4*y^2 - 1": (2, ("(-2*i : 1 : 0)", "(2*i : 1 : 0)")),
    "x^2*y + x*y^2 - 1": (0, ("(-1 : 1 : 0)", "(0 : 1 : 0)", "(1 : 0 : 0)")),
    "x*y - 1": (2, ("(0 : 1 : 0)", "(1 : 0 : 0)")),
    "x^2 - y^2 - 1": (2, ("(-1 : 1 : 0)", "(1 : 1 : 0)")),
    "x*y*(x - y) - 1": (0, ("(0 : 1 : 0)", "(1 : 0 : 0)", "(1 : 1 : 0)")),
    "x*y*(x+y)*(x-y) - 1": (-4, ("(-1 : 1 : 0)", "(0 : 1 : 0)", "(1 : 0 : 0)", "(1 : 1 : 0)")),
    "(x-1)*(y+2)*(x+y) + 5": (0, ("(-1 : 1 : 0)", "(0 : 1 : 0)", "(1 : 0 : 0)")),
}
IRRATIONAL_AT_INFINITY = "unsupported/uncertified: infinity points not all Q(i)-rational\n"


def _corollary2(tmp_path, capsys, curve, *options):
    doc = tmp_path / "curve.fol"
    doc.write_text(f"[curve c]\nf = {curve}\n")
    rc = run(["corollary2", str(doc), "--curve", "c", *options])
    out, err = capsys.readouterr()
    return rc, out, err


@pytest.mark.parametrize("curve", COROLLARY2_VERIFIED)
def test_corollary2_output_is_pinned(tmp_path, curve, capsys):
    chi, points = COROLLARY2_VERIFIED[curve]
    n = len(points)
    text = f"degree n = {n}, expected chi = {chi}\nsum(mu) = {n} over {n} infinity branches\nverified: True\n"
    payload = {
        "checkable": True,
        "chi_claimed": chi,
        "curve_degree": n,
        "foliation_degree": n - 1,
        "identity_holds": True,
        "multiplicities": [{"branch": 0, "mu": 1, "point": p} for p in points],
        "notes": [],
        "sum_mu": n,
    }
    assert _corollary2(tmp_path, capsys, curve) == (0, text, "")
    assert _corollary2(tmp_path, capsys, curve, "--json") == (0, json.dumps(payload, indent=2, sort_keys=True) + "\n", "")


@pytest.mark.parametrize(
    "curve, rc, err",
    [
        ("x^3 + y^3 - 1", 3, IRRATIONAL_AT_INFINITY),
        ("x^4 + y^4 - 1", 3, IRRATIONAL_AT_INFINITY),
        ("x^2 - 2*y^2 + 3*x - 1", 3, IRRATIONAL_AT_INFINITY),
        ("y - x^2", 2, "error: curve meets the line at infinity in 1 rational points, need 2\n"),
        ("x^2 + y^2", 2, "error: curve must be smooth\n"),
    ],
)
def test_corollary2_refusals_are_pinned(tmp_path, curve, rc, err, capsys):
    for options in ((), ("--json",)):
        assert _corollary2(tmp_path, capsys, curve, *options) == (rc, "", err)


def test_bounds_cli(capsys):
    assert run(["bounds", "--theorem", "t1", "--m", "4"]) == 0
    assert capsys.readouterr().out.strip() == "4"
    assert run(["bounds", "--theorem", "t2", "--m", "3", "--r-nonzero"]) == 0
    assert capsys.readouterr().out.strip() == "6"
    assert run(["bounds", "--theorem", "harnack", "--m", "3", "--orders", "2"]) == 0
    assert capsys.readouterr().out.strip() == "0"
    assert run(["bounds", "--theorem", "mk", "--m", "4"]) == 0
    assert "k = 3" in capsys.readouterr().out


def test_construct_gallery_roundtrip(tmp_path, capsys):
    out = tmp_path / "c.fol"
    assert run(["construct", "gallery", "circle", "--out", str(out)]) == 0
    capsys.readouterr()
    assert run(["nodal", str(out), "--curve", "curve"]) == 0


def test_construct_log_prints_form(capsys):
    code = run(["construct", "log", "--curves", "X;Y;Y - X - Z", "--weights", "1,1,-2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "# P = " in out and "[field log]" in out


def test_construct_eee_and_certify(tmp_path, capsys):
    out = tmp_path / "eee.fol"
    assert run(["construct", "eee", "--g", "x^2 + y^2 - 1", "--h", "x - 2", "--out", str(out)]) == 0
    capsys.readouterr()
    code = run(
        ["certify", str(out), "--field", "eee", "--curve", "g", "--res", "64", "--spacing", "2e-3"]
    )
    out_text = capsys.readouterr().out
    assert code == 0
    assert "hyperbolic = True" in out_text


def test_values_beyond_float_range_exit_3(tmp_path, capsys):
    # the ovals come from the exact lattice rows and tracing sees f at unit
    # scale; the quadrature sees the field at unit scale too, so only its
    # period, about 1.8e-400, is out of float range
    doc = tmp_path / "huge.fol"
    doc.write_text(
        "[field eee]\n"
        "p = 10^400*(x^2 + y^2 - 1 - (x - 2)*2*y)\n"
        "q = 10^400*(x^2 + y^2 - 1 + (x - 2)*2*x)\n\n"
        "[curve g]\n"
        "f = 10^400*(x^2 + y^2 - 1)\n"
    )
    assert run(["ovals", str(doc), "--curve", "g"]) == 0
    assert "ovals: 1 (certified: 1)" in capsys.readouterr().out
    assert run(["certify", str(doc), "--field", "eee", "--curve", "g"]) == 3
    assert "float range" in capsys.readouterr().err


def test_denominator_beyond_float_range_gives_the_answers_within_it(tmp_path, capsys):
    # f = (x^2 + y^2 - 1)/10^e: no vertex and no traced point sees the
    # denominator, so e = 400 gives the answers of e = 300 byte for byte
    doc = tmp_path / "tiny.fol"
    ovals = ["ovals", str(doc), "--curve", "c", "--res", "16"]
    outputs = []
    for e in (400, 300):
        c = "1/1" + "0" * e
        doc.write_text(EEE_DOC.split("[curve")[0] + f"[curve c]\nf = {c}*x^2 + {c}*y^2 - {c}\n")
        outputs.append([])
        for argv in (ovals + ["--box=-2:2:-2:2"], ovals, ["certify", str(doc), "--field", "eee", "--curve", "c"]):
            assert run(argv) == 0
            outputs[-1].append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "ovals: 1 (certified: 1)" in outputs[0][0] and "hyperbolic = True" in outputs[0][2]


def test_ovals_cli(eee_doc, tmp_path, capsys):
    lines_file = tmp_path / "polylines.txt"
    assert (
        run(
            [
                "ovals",
                eee_doc,
                "--curve",
                "circle",
                "--res",
                "64",
                "--emit-polylines",
                str(lines_file),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "ovals: 1 (certified: 1)" in out
    content = lines_file.read_text().strip().splitlines()
    xs, ys = zip(*(map(float, line.split()) for line in content if line))
    assert max(xs) <= 1.2 and min(xs) >= -1.2


def test_iif_and_darboux_cli(log3_doc, eee_doc, capsys):
    assert run(["iif-check", eee_doc, "--field", "rotation", "--curve", "circle"]) == 0
    assert (
        run(
            [
                "darboux-check",
                log3_doc,
                "--field",
                "log3",
                "--curves",
                "l1,l2,l3",
                "--weights",
                "1,1,-2",
            ]
        )
        == 0
    )
    assert (
        run(
            [
                "darboux-check",
                log3_doc,
                "--field",
                "log3",
                "--curves",
                "l1,l2,l3",
                "--weights",
                "1,1,-1",
            ]
        )
        == 1
    )
    # a repeated name is a curve of its own: l1 twice at weight 1/2 each is l1 once at weight 1
    argv = ["darboux-check", log3_doc, "--field", "log3", "--curves", "l1,l1,l2,l3", "--json"]
    capsys.readouterr()
    assert run(argv + ["--weights", "1/2,1/2,1,-2"]) == 0
    assert len(json.loads(capsys.readouterr().out)["cofactors"]) == 4
    assert run(argv + ["--weights", "1,1,-2"]) == 2
    assert capsys.readouterr().err == "error: one weight per certificate required\n"


def test_usage_errors(tmp_path):
    assert run(["no-such-command"]) == 2
    assert run(["bounds", "--theorem", "t1"]) == 2  # missing --m
    bad = tmp_path / "bad.fol"
    bad.write_text("[field broken]\np = x +\nq = y\n")
    assert run(["check-invariant", str(bad), "--field", "broken", "--curve", "c"]) == 2
    assert run(["check-invariant", str(tmp_path / "missing.fol"), "--field", "a", "--curve", "b"]) == 2
    assert run(["bounds", "--theorem", "t9", "--m", "3"]) == 2  # not a theorem choice
    assert run(["construct", "nosuch"]) == 2  # not a construct kind


def test_a_parse_error_with_no_position_names_none(ex1_doc, tmp_path, capsys):
    assert run(["multiplicity", ex1_doc, "--field", "example1", "--curve", "line", "--point", "1:2"]) == 2
    assert capsys.readouterr() == ("", "parse error: projective point must be X:Y:Z\n")
    doc = tmp_path / "components.fol"
    doc.write_text("[curve ab]\nf = x\ncomponents = missing\n")
    assert run(["ovals", str(doc), "--curve", "ab"]) == 2
    assert capsys.readouterr() == ("", "parse error: curve 'ab' references unknown component 'missing'\n")


def test_paper_suite_exit_zero(capsys):
    assert run(["paper-suite"]) == 0
    out = capsys.readouterr().out
    assert "21/21 fixture checks passed" in out


@pytest.mark.parametrize("r", ["7/96", "1/15", "1/2", "3/2"])
def test_certify_reports_a_rel_that_bounds_its_error_on_circles(tmp_path, r, capsys):
    # g = x^2 + y^2 - r^2, h = x - c, a = b = 1: on the oval div X = 2x and
    # dt = dtheta / (2 (c - r cos theta)), so T = pi / sqrt(c^2 - r^2) and
    # D = 2 pi (c / sqrt(c^2 - r^2) - 1).  A sequential trace of the two
    # small circles at this spacing has a chord count that is not a multiple
    # of 4, so the Romberg decimations are not nested polylines
    doc = tmp_path / "eee.fol"
    assert run(["construct", "eee", "--g", f"x^2 + y^2 - ({r})^2", "--h", "x - 3", "--out", str(doc)]) == 0
    capsys.readouterr()
    argv = ["certify", str(doc), "--field", "eee", "--curve", "g", "--box=-2:2:-2:2", "--res", "64", "--spacing", "2e-3", "--json"]
    assert run(argv) == 0
    cert = json.loads(capsys.readouterr().out)["certificates"][0]
    c, r = 3, float(Fraction(r))
    T, D = math.pi / math.sqrt(c * c - r * r), 2 * math.pi * (c / math.sqrt(c * c - r * r) - 1)
    rel = cert["quadrature_rel_err"]
    assert abs(cert["divergence_integral"] - D) <= rel * abs(D) and abs(cert["period"] - T) <= rel * T


@pytest.mark.parametrize("curve, traces", [("x^2 + y^2 - 1", 0), ("2*x^4 + 5*x^2*y^2 + 2*y^4 - 3*x^2 - 3*y^2 + 101/100", 4)])
def test_certify_traces_only_what_is_not_an_ellipse(tmp_path, monkeypatch, curve, traces, capsys):
    doc = tmp_path / "eee.fol"
    assert run(["construct", "eee", "--g", curve, "--h", "x - 3", "--out", str(doc)]) == 0
    calls, trace_oval = [], cli.trace_oval
    monkeypatch.setattr(cli, "trace_oval", lambda *args, **kwargs: calls.append(args) or trace_oval(*args, **kwargs))
    assert run(["certify", str(doc), "--field", "eee", "--curve", "g", "--all-ovals", "--res", "64"]) == 0
    assert f"ovals found: {max(traces, 1)}" in capsys.readouterr().out
    assert len(calls) == traces


def test_paper_suite_deterministic_report(tmp_path):
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    assert run(["paper-suite", "--report", str(r1)]) == 0
    assert run(["paper-suite", "--report", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_certify_does_not_depend_on_the_scale_of_the_curve(tmp_path, capsys):
    # c*f has the zero set of f: the trace, the refinement and the residual
    # run on the curve scaled to a largest coefficient of magnitude 1
    doc = tmp_path / "scaled.fol"
    argv = ["certify", str(doc), "--field", "eee", "--curve", "c", "--res", "64", "--json"]
    answers = []
    for c in ("1", "1/10^11", "1/10^13", "1/10^300", "10^11"):
        doc.write_text(EEE_DOC.split("[curve")[0] + f"[curve c]\nf = {c}*x^2 + {c}*y^2 - {c}\n")
        assert run(argv) == 0, (c, capsys.readouterr().err)
        cert = json.loads(capsys.readouterr().out)["certificates"][0]
        answers.append((cert["stability"], cert["hyperbolic"], cert["divergence_integral"]))
    (stability, hyperbolic, D), *scaled = answers
    assert (stability, hyperbolic) == ("Unstable", True)
    for got in scaled:
        assert got[:2] == (stability, hyperbolic)
        assert abs(got[2] - D) <= 1e-6 * abs(D)


@pytest.mark.parametrize("box", ["a:1:-1:1", "1/0:1:-1:1", "1:-1:-1:1", "-1:1:1:1", "1:2:3"])
def test_malformed_box_is_a_usage_error(eee_doc, box, capsys):
    assert run(["ovals", eee_doc, "--curve", "circle", f"--box={box}", "--res", "8"]) == 2
    assert "parse error: box" in capsys.readouterr().err
    argv = ["certify", eee_doc, "--field", "eee", "--curve", "circle", f"--box={box}", "--res", "8"]
    assert run(argv) == 2


def test_well_formed_box_still_counts(eee_doc, capsys):
    assert run(["ovals", eee_doc, "--curve", "circle", "--box=-2:2:-2:2", "--res", "8"]) == 0
    assert "ovals: 1" in capsys.readouterr().out


@pytest.mark.parametrize("res", ["0", "1", "-3"])
def test_resolution_below_two_is_a_usage_error(eee_doc, res, capsys):
    assert run(["ovals", eee_doc, "--curve", "circle", f"--res={res}"]) == 2
    assert "resolution must be at least 2" in capsys.readouterr().err
    assert run(["certify", eee_doc, "--field", "eee", "--curve", "circle", f"--res={res}"]) == 2
    assert "resolution must be at least 2" in capsys.readouterr().err


EEE_ARGS = ["construct", "eee", "--g", "x^2 + y^2 - 1", "--h", "x - 2"]
POINT_ARGS = ["multiplicity", "EX1", "--field", "example1", "--curve", "line"]
CERTIFY_ARGS = ["certify", "EEE", "--field", "eee", "--curve", "circle", "--res", "8"]


@pytest.mark.parametrize(
    "argv, message",
    [
        # a value that is not a single constant was cut to its constant term
        (EEE_ARGS + ["--a", "x + 1"], "parse error: expected a constant"),
        (EEE_ARGS + ["--b", "2*y"], "parse error: expected a constant"),
        (["construct", "log", "--curves", "X;Y;Y - X - Z", "--weights", "1,1,x-2"], "parse error: expected a constant"),
        (["darboux-check", "EEE", "--field", "eee", "--curves", "circle", "--weights", "y"], "parse error: expected a constant"),
        (POINT_ARGS + ["--point", "y,0"], "parse error: expected a constant"),
        (POINT_ARGS + ["--point", "0:x:1"], "parse error: expected a constant"),
        # crashed with IndexError or ValueError
        (EEE_ARGS + ["--a", ","], "parse error: unexpected character"),
        (EEE_ARGS + ["--a", "1,2"], "parse error: unexpected character"),
        (["bounds", "--theorem", "mk", "--m", "4", "--partition", "2,x"], "parse error: expected comma-separated integers"),
        (["bounds", "--theorem", "harnack", "--m", "4", "--orders", "a"], "parse error: expected comma-separated integers"),
        (["bounds", "--theorem", "harnack", "--m", "4", "--orders", "2.0"], "parse error: expected comma-separated integers"),
        # ran out the trace budget
        (CERTIFY_ARGS + ["--spacing", "0"], "spacing must be a positive finite number"),
        (CERTIFY_ARGS + ["--spacing=-1e-3"], "spacing must be a positive finite number"),
        (CERTIFY_ARGS + ["--spacing", "nan"], "spacing must be a positive finite number"),
        (CERTIFY_ARGS + ["--spacing", "inf"], "spacing must be a positive finite number"),
        (CERTIFY_ARGS + ["--spacing", "fine"], "invalid float value"),
        # crashed with ValueError
        (POINT_ARGS + ["--point", "0:0:0"], "parse error: (0 : 0 : 0) is not a projective point"),
        # printed the single bound and an empty table, and exited 0
        (["bounds", "--theorem", "t1", "--m", "3", "--table", "--table-from", "5", "--table-to", "3"],
         "parse error: --table-from 5 exceeds --table-to 3"),
    ],
)
def test_malformed_value_is_a_usage_error(eee_doc, ex1_doc, argv, message, capsys):
    argv = [{"EEE": eee_doc, "EX1": ex1_doc}.get(a, a) for a in argv]
    assert run(argv) == 2
    assert message in capsys.readouterr().err


def test_well_formed_values_still_read(ex1_doc, capsys):
    assert run(EEE_ARGS + ["--a", " 3/4 ", "--b", "2*3 - 1/2"]) == 0
    assert "[field eee]" in capsys.readouterr().out
    assert run(POINT_ARGS[:1] + [ex1_doc] + POINT_ARGS[2:] + ["--point", " 0 , 0 "]) == 0
    assert "(0 : 0 : 1) branch 0" in capsys.readouterr().out
    assert run(["bounds", "--theorem", "harnack", "--m", "5", "--orders", " 2, 2,"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert run(["bounds", "--theorem", "mk", "--m", "4", "--partition", "2,2,2"]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_an_empty_partition_given_explicitly_is_a_usage_error(capsys):
    # an empty --partition read as no --partition and printed the argmax
    assert run(["bounds", "--theorem", "mk", "--m", "3", "--partition", ""]) == 2
    assert capsys.readouterr() == ("", "error: k must lie in [3, 5]\n")


def _joined(argv):
    """argv with each `--option -value` pair written as `--option=-value`."""
    out = []
    for arg in argv:
        if out and out[-1].startswith("--") and arg.startswith("-") and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


@pytest.mark.parametrize(
    "argv",
    [
        ["ovals", "DOC", "--curve", "circle", "--box", "-2:2:-2:2", "--res", "8"],
        ["construct", "log", "--curves", "X;Y;Y - X - Z", "--weights", "-3,1,2"],
        ["construct", "eee", "--g", "-x^2 - y^2 + 1", "--h", "x - 2", "--a", "-1/2", "--b", "-3"],
    ],
)
def test_option_values_may_start_with_a_dash(eee_doc, argv, capsys):
    argv = [eee_doc if a == "DOC" else a for a in argv]
    assert _joined(argv) != argv
    assert run(argv) == 0
    spaced = capsys.readouterr()
    assert run(_joined(argv)) == 0
    assert capsys.readouterr() == spaced


@pytest.mark.parametrize("box", ["-2:x:-2:2", "-2:2:-2", "-1:1:1:1"])
def test_malformed_negative_box_is_a_usage_error(eee_doc, box, capsys):
    assert run(["ovals", eee_doc, "--curve", "circle", "--box", box, "--res", "8"]) == 2
    assert "parse error: box" in capsys.readouterr().err


def test_closed_stdout_exits_quietly():
    # the reader is gone before the first write (as with `| head` on long
    # output): no traceback, the documented exit code
    read_end, write_end = os.pipe()
    os.close(read_end)
    argv = ["construct", "log", "--curves", "X;Y;X+Y+Z", "--weights", "-3,1,2"]
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "foltools.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=src_env(),
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_BROKEN_PIPE
    assert b"Traceback" not in proc.stderr and b"BrokenPipeError" not in proc.stderr


def test_no_stdout_at_all_keeps_the_exit_code_and_the_files(tmp_path):
    # started with fd 1 closed (`foltools ... >&-`), print writes nothing and
    # sys.stdout is None: the run's own exit code stands and --out is written
    out = tmp_path / "circle.json"
    for argv, code in ((["construct", "gallery", "circle", "--out", str(out)], 0), (["construct", "gallery", "no-such-entry"], 2)):
        proc = subprocess.run(
            ["sh", "-c", 'exec "$0" -m foltools.cli "$@" >&-', sys.executable, *argv],
            stderr=subprocess.PIPE,
            env=src_env(),
            timeout=60,
        )
        assert proc.returncode == code, proc.stderr
        assert b"Traceback" not in proc.stderr
    assert out.read_text(encoding="utf-8").strip()


def test_parser_is_built_once_and_a_usage_error_leaves_it_intact(eee_doc, monkeypatch, capsys):
    builds = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real())
    cli._parser.cache_clear()
    valid = ["ovals", eee_doc, "--curve", "circle", "--res", "8"]
    try:
        assert run(["ovals", eee_doc, "--curve", "circle", "--box=-2:2:-2:2", "--res=1"]) == 2
        capsys.readouterr()
        assert run(valid) == 0
        out = capsys.readouterr().out
    finally:
        cli._parser.cache_clear()
    assert builds == [1]
    fresh = subprocess.run([sys.executable, "-m", "foltools.cli", *valid], capture_output=True, text=True, env=src_env(), timeout=120)
    assert (fresh.returncode, fresh.stdout) == (0, out)


EXIT_RULES_DOC = """
[field saddle]
p = x
q = -y

[field rotation]
p = -y
q = x

[curve sextic]
f = (x^2 + 2*y^2 - 1)*(2*x^2 + y^2 - 1)*(x^2 + y^2 - 4/5) + 1/10000

[curve circles]
f = (x^2 + y^2 - 1)*((x - 1)^2 + y^2 - 1)

[curve hyperbola]
f = x*y - 1

[curve line]
f = x - 1

[field shared]
p = x*(x - 1)
q = x*(y + 2)
"""


@pytest.fixture
def rules_doc(tmp_path):
    p = tmp_path / "rules.fol"
    p.write_text(EXIT_RULES_DOC)
    return str(p)


@pytest.mark.parametrize(
    "curve, res, shown",
    [("sextic", "64", "ovals: 9 (certified: 0)"), ("circles", "256", "ovals: 2 (certified: 0)")],
)
def test_an_uncertified_oval_count_is_undecided(rules_doc, curve, res, shown, capsys):
    assert run(["ovals", rules_doc, "--curve", curve, "--res", res]) == 3
    assert capsys.readouterr().out.splitlines()[0] == shown
    assert run(["ovals", rules_doc, "--curve", curve, "--res", res, "--json"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["certified_count"] < payload["count"]


def test_ovals_and_certify_need_a_squarefree_curve(tmp_path, capsys):
    # a squared factor never changes sign, so the sign grid cannot see it: the
    # squared circle was missed next to the other circle, or alone counted as 0
    doc = tmp_path / "squares.fol"
    doc.write_text(
        "[field rotation]\np = -y\nq = x\n\n"
        "[curve g2h]\nf = (x^2 + y^2 - 1)^2*((x - 5)^2 + y^2 - 1)\n\n"
        "[curve g2]\nf = (x^2 + y^2 - 1)^2\n"
    )
    for argv in (["ovals", "--curve", "g2h"], ["ovals", "--curve", "g2"], ["certify", "--field", "rotation", "--curve", "g2"]):
        assert run([argv[0], str(doc), *argv[1:], "--res", "64"]) == 2
        assert capsys.readouterr() == ("", "error: curve must be squarefree\n")


def test_a_non_compact_curve_with_no_box_is_a_usage_error(rules_doc, capsys):
    assert run(["ovals", rules_doc, "--curve", "hyperbola"]) == 2
    assert "real locus is unbounded; supply a box explicitly" in capsys.readouterr().err
    assert run(["certify", rules_doc, "--field", "saddle", "--curve", "hyperbola"]) == 2
    assert "real locus is unbounded; supply a box explicitly" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["corollary2", "--curve", "zero"],
        ["euler-check", "--field", "rotation", "--curve", "const", "--chi", "2"],
        ["multiplicity", "--field", "rotation", "--curve", "const"],
    ],
    ids=["corollary2", "euler-check", "multiplicity"],
)
def test_a_constant_curve_fails_the_precondition(tmp_path, argv, capsys):
    # the rotation field leaves every curve invariant, the constant ones too;
    # none of them is a curve, so there is no degree, no point and no verdict
    doc = tmp_path / "constant.fol"
    doc.write_text("[field rotation]\np = -y\nq = x\n\n[curve zero]\nf = 0\n\n[curve const]\nf = 3\n")
    assert run([argv[0], str(doc), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert "curve must be a nonconstant polynomial" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["euler-check", "--field", "f", "--curve", "square", "--chi", "2"], "curve must be squarefree"),
        (["multiplicity", "--field", "f", "--curve", "square"], "curve must be squarefree"),
        (["euler-check", "--field", "f", "--curve", "const", "--chi", "2"], "curve must be a nonconstant polynomial"),
        (["multiplicity", "--field", "f", "--curve", "const", "--point", "1,0"], "curve must be a nonconstant polynomial"),
    ],
    ids=["euler-check-square", "multiplicity-square", "euler-check-const", "multiplicity-point-const"],
)
def test_euler_check_and_multiplicity_prove_the_curve_before_its_points(tmp_path, argv, message, capsys):
    # y^2 is invariant, and neither of its singular points (+-sqrt 2, 0) is in
    # Q(i): the squared factor is refused before any point is decided or not
    doc = tmp_path / "curves.fol"
    doc.write_text("[field f]\np = x^2 - 2\nq = y\n\n[curve square]\nf = y^2\n\n[curve const]\nf = 3\n")
    assert run([argv[0], str(doc), *argv[1:]]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [["euler-check", "--chi", "2"], ["multiplicity"], ["multiplicity", "--point", "0,0"]],
    ids=["euler-check", "multiplicity", "multiplicity-point"],
)
def test_a_command_proves_its_curve_squarefree_once(tmp_path, monkeypatch, argv, capsys):
    # example1's line x = 0 holds two singular points, (0 : 0 : 1) and
    # (0 : 1 : 0); the curve is proven once, not again at each of them
    from foltools import polyring

    doc = tmp_path / "example1.fol"
    assert run(["construct", "gallery", "example1", "--out", str(doc)]) == 0
    real, calls = polyring.is_squarefree, []

    def spy(f):
        calls.append(f)
        return real(f)

    for name, module in list(sys.modules.items()):
        if name.startswith("foltools.") and getattr(module, "is_squarefree", None) is real:
            monkeypatch.setattr(module, "is_squarefree", spy)
    assert run([argv[0], str(doc), "--field", "example1", "--curve", "curve", *argv[1:]]) == 0
    assert "mu = 1" in capsys.readouterr().out
    assert len(calls) <= 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ovals", "--curve", "zero"], "curve must be nonconstant"),
        (["ovals", "--curve", "const"], "curve must be nonconstant"),
        (["certify", "--field", "rotation", "--curve", "zero"], "invariance check on the zero curve"),
        (["certify", "--field", "rotation", "--curve", "const"], "curve must be nonconstant"),
    ],
    ids=["ovals-zero", "ovals-const", "certify-zero", "certify-const"],
)
def test_a_constant_curve_in_an_explicit_box_fails_the_precondition(tmp_path, argv, message, capsys):
    # with a box given, no default box checks the curve first
    doc = tmp_path / "constant.fol"
    doc.write_text("[field rotation]\np = -y\nq = x\n\n[curve zero]\nf = 0\n\n[curve const]\nf = 3\n")
    assert run([argv[0], str(doc), *argv[1:], "--box=-2:2:-2:2", "--res", "64"]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["certify", "--curve", "line"], "curve is not invariant; nothing to certify"),
        (["multiplicity", "--curve", "line"], "curve is not invariant; multiplicities are undefined"),
        (["euler-check", "--curve", "line", "--chi", "2"], "curve is not invariant under the field"),
        (["darboux-check", "--curves", "line", "--weights", "1"], "curve 'line' is not invariant"),
    ],
)
def test_a_curve_that_is_not_invariant_fails_a_precondition(rules_doc, argv, message, capsys):
    assert run([argv[0], rules_doc, "--field", "rotation", *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


@pytest.mark.parametrize("weights", ["1,1", "y,1"])
def test_darboux_check_looks_up_every_curve_name_before_it_checks_one(rules_doc, weights, capsys):
    # a missing name is reported before the earlier curve that is not invariant, and before malformed weights
    assert run(["darboux-check", rules_doc, "--field", "rotation", "--curves", "line, nope", "--weights", weights]) == 2
    assert capsys.readouterr() == ("", "parse error: no curve named 'nope' in the document\n")


@pytest.mark.parametrize("command, shown", [("check-invariant", "curve 'line' is NOT invariant"), ("cofactor", "NotInvariant")])
def test_invariance_checks_still_refute_a_curve_that_is_not_invariant(rules_doc, command, shown, capsys):
    # here "not invariant" is the answer, not a precondition
    assert run([command, rules_doc, "--field", "rotation", "--curve", "line"]) == 1
    assert capsys.readouterr().out == shown + "\n"


def test_a_seed_the_corrector_cannot_place_is_undecided(eee_doc, monkeypatch, capsys):
    # the circle's start is the closed-form point at eccentric anomaly 0, on
    # the curve to rounding, so a corrector that does not converge on it is
    # the program's failure, not bad input
    from foltools import realtopo

    monkeypatch.setattr(realtopo, "_project_all", lambda _ev, seeds: (seeds.copy(), np.zeros(len(seeds), dtype=bool)))
    assert run(["certify", eee_doc, "--field", "eee", "--curve", "circle", "--res", "64"]) == 3
    assert "seed failed to project onto the curve" in capsys.readouterr().err


def test_a_failed_pullback_check_on_an_invariant_curve_is_undecided(ex1_doc, monkeypatch, capsys):
    # invariance is proven before any branch is expanded, so a pullback check
    # that still fails shows a fault of the truncated series
    from foltools import branches

    def inconsistent(_field, _branch):
        raise PreconditionError("pullback inconsistency: branch is not invariant under the field")

    monkeypatch.setattr(branches, "branch_multiplicity", inconsistent)
    assert run(["multiplicity", ex1_doc, "--field", "example1", "--curve", "line"]) == 3
    assert "pullback inconsistency" in capsys.readouterr().err
    assert run(["euler-check", ex1_doc, "--field", "example1", "--curve", "line", "--chi", "2"]) == 3
    out = capsys.readouterr().out
    assert "NOT CHECKABLE" in out
    assert "identity chi = sum(mu) - n(m-1): UNDECIDED" in out and "FAILS" not in out


def test_certify_that_finds_no_oval_is_undecided(tmp_path, capsys):
    # an ellipse whose value at the center is positive has no real point, and
    # one whose value there is 0 has the center alone: no oval, exactly
    for g in ("x^2 + y^2 + 1", "x^2 + y^2"):
        doc = tmp_path / "eee.fol"
        assert run(["construct", "eee", "--g", g, "--h", "x - 2", "--out", str(doc)]) == 0
        capsys.readouterr()
        assert run(["certify", str(doc), "--field", "eee", "--curve", "g"]) == 3
        assert capsys.readouterr().out.splitlines()[-2:] == ["ovals found: 0", "no oval found; nothing certified"]
        assert run(["certify", str(doc), "--field", "eee", "--curve", "g", "--json"]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert (payload["oval_count"], payload["certificates"]) == (0, [])


def test_certify_finds_an_ellipse_the_lattice_steps_over(tmp_path, capsys):
    # an ellipse with semi-axes 1/2 and 2 inside [-1, 0] x [-3.5, 0.5]: the
    # default box is [-32, 32]^2, whose cells at res 64 are 1 wide, so the
    # lattice steps over it; the closed form counts it at any --res
    doc = tmp_path / "eee.fol"
    g = "4*x^2 + 1/4*y^2 + 4*x + 3/4*y + 9/16"
    assert run(["construct", "eee", "--g", g, "--h", "x - 2", "--out", str(doc)]) == 0
    capsys.readouterr()
    for res in ("64", "256"):
        assert run(["certify", str(doc), "--field", "eee", "--curve", "g", "--res", res]) == 0
        out = capsys.readouterr().out
        assert "ovals found: 1" in out and "Unstable hyperbolic = True" in out


def test_ovals_refuses_a_lattice_count_the_ellipse_contradicts(tmp_path, capsys):
    # the same ellipse: at res 64 the lattice counts no oval, and the exact
    # count of the conic makes that a warning and exit 3; at res 256, or in a
    # box that cuts the oval (where nothing is exact), the lattice stands
    doc = tmp_path / "g.fol"
    doc.write_text("[curve g]\nf = 4*x^2 + 1/4*y^2 + 4*x + 3/4*y + 9/16\n")
    argv = ["ovals", str(doc), "--curve", "g", "--json"]
    assert run([*argv, "--res", "64"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == payload["certified_count"] == 0
    assert payload["warnings"] == ["the curve is an ellipse with exactly 1 oval(s) in the box; the lattice counted 0"]
    for extra, count in ((["--res", "256"], 1), (["--res", "64", "--box=-3/4:1:-4:1"], 0)):
        assert run([*argv, *extra]) == 0, extra
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == payload["certified_count"] == count, extra
        assert not any("ellipse" in w for w in payload["warnings"]), extra


def test_certify_counts_an_ellipse_inside_the_box_without_the_lattice(tmp_path, monkeypatch, capsys):
    # the oval's bounding rectangle [-1, 1]^2 must lie strictly inside --box;
    # otherwise the lattice counts in the box as for any other curve
    doc = tmp_path / "eee.fol"
    assert run(["construct", "eee", "--g", "x^2 + y^2 - 1", "--h", "x - 3", "--out", str(doc)]) == 0
    counted, count_ovals = [], cli.count_ovals
    monkeypatch.setattr(cli, "count_ovals", lambda *args: counted.append(args[1]) or count_ovals(*args))
    argv = ["certify", str(doc), "--field", "eee", "--curve", "g", "--res", "64", "--spacing", "2e-3"]
    # (a box whose side touches the oval at (-1, 0) is left to the lattice,
    # which finds the whole oval there; one that cuts it finds none)
    for box, ovals, lattice in (("-2:2:-2:2", 1, False), ("-3/2:3/2:-11/10:11/10", 1, False), ("-1:2:-2:2", 1, True), ("0:2:-2:2", 0, True)):
        counted.clear()
        assert run([*argv, f"--box={box}"]) == (0 if ovals else 3), box
        assert f"ovals found: {ovals}" in capsys.readouterr().out
        assert [f"{b.x_lo}:{b.x_hi}:{b.y_lo}:{b.y_hi}" for b in counted] == ([box] if lattice else []), box


def test_certify_gives_an_uncertified_oval_no_certificate(tmp_path, monkeypatch, capsys):
    # on the lattice route only a certified oval is traced; one the lattice
    # has not proven makes the verdict undecided
    from foltools import realtopo

    doc = tmp_path / "eee.fol"
    quartic = "2*x^4 + 5*x^2*y^2 + 2*y^4 - 3*x^2 - 3*y^2 + 101/100"
    assert run(["construct", "eee", "--g", quartic, "--h", "x - 3", "--out", str(doc)]) == 0
    capsys.readouterr()
    certify_loops = realtopo._certify_loops
    monkeypatch.setattr(realtopo, "_certify_loops", lambda loops, lines: [ok and k != 1 for k, ok in enumerate(certify_loops(loops, lines))])
    traced, trace_oval = [], cli.trace_oval
    monkeypatch.setattr(cli, "trace_oval", lambda *args, **kwargs: traced.append(args) or trace_oval(*args, **kwargs))
    argv = ["certify", str(doc), "--field", "eee", "--curve", "g", "--all-ovals", "--res", "64"]
    assert run(argv) == 3
    lines = capsys.readouterr().out.splitlines()
    assert "ovals found: 4" in lines and len(traced) == 3
    skipped = [int(line.split()[1][:-1]) for line in lines if line.endswith(": not certified by the lattice; no certificate")]
    assert len(skipped) == 1 and sum(line.startswith("oval ") for line in lines) == 1 + 3 + 3
    assert run([*argv, "--json"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["oval_count"] == 4
    ids = [k for k in range(4) if k != skipped[0]]
    assert [c["oval_id"] for c in payload["certificates"]] == [row["oval_id"] for row in payload["location"]] == ids
    assert all(c["hyperbolic"] for c in payload["certificates"])


def test_a_field_whose_components_share_a_factor_is_a_usage_error(rules_doc, capsys):
    assert run(["singularities", rules_doc, "--field", "shared"]) == 2
    captured = capsys.readouterr()
    assert "components share a polynomial factor" in captured.err and captured.out == ""


def test_polynomials_over_different_variable_sets_are_a_usage_error(rules_doc, monkeypatch, capsys):
    def mismatch(_field):
        raise ArityMismatch("homogenize expects an affine (arity-2) polynomial")

    monkeypatch.setattr(cli, "projectivize", mismatch)
    assert run(["projectivize", rules_doc, "--field", "saddle"]) == 2
    captured = capsys.readouterr()
    assert "homogenize expects an affine (arity-2) polynomial" in captured.err and captured.out == ""


# algebra pool entry 19 of the benchmark: a logarithmic foliation whose affine
# enumeration leaves degree 3 unresolved, which the line y = 1 provably misses
LOG_DOC = """
[field log]
p = -240*x^3 - 732*x^2*y - 564*x*y^2 - 24*x^2 - 84*x*y + 120*x
q = -72*x^2*y - 160*x*y^2 - 80*y^3 + 144*x^2 + 380*x*y + 224*y^2 - 40*x - 16*y - 32
r = -72*x^2*y - 180*x*y^2 - 96*y^3

[curve line]
f = 2*y - 2
"""


def test_multiplicity_discharges_a_residual_that_misses_the_curve(tmp_path, capsys):
    doc = tmp_path / "log.fol"
    doc.write_text(LOG_DOC, encoding="utf-8")
    argv = ["multiplicity", str(doc), "--field", "log", "--curve", "line"]
    assert run(argv + ["--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["undecided_coordinates"] == 0
    assert [(r["point"], r["mu"]) for r in payload["multiplicities"]] == [
        ("(-1 : 1 : 1)", 1), ("(-2 : 1 : 1)", 1), ("(0 : 1 : 1)", 1), ("(1 : 0 : 0)", 1)
    ]
    assert run(argv) == 0
    assert "warning" not in capsys.readouterr().out
    # euler-check takes the same residual off the curve by the same proof
    assert run(["euler-check", str(doc), "--field", "log", "--curve", "line", "--chi", "2"]) == 0


X9_DOC = """
[field x9]
p = x^9
q = y

[curve axis]
f = y
"""


def test_multiplicity_takes_the_truncation_euler_check_takes(tmp_path, capsys):
    # the branch (t, 0) of y at the origin pulls (x^9, y) back to t^9, which a
    # truncation fixed by the curve's degree alone (8) sees as zero
    doc = tmp_path / "x9.fol"
    doc.write_text(X9_DOC, encoding="utf-8")
    assert run(["multiplicity", str(doc), "--field", "x9", "--curve", "axis", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["multiplicities"]
    assert [(r["point"], r["mu"], r["certified"]) for r in rows] == [("(0 : 0 : 1)", 9, True), ("(1 : 0 : 0)", 1, True)]
    assert run(["euler-check", str(doc), "--field", "x9", "--curve", "axis", "--chi", "2"]) == 0
    assert "(0 : 0 : 1) branch 0: mu = 9" in capsys.readouterr().out


def test_multiplicity_uncertified_at_the_default_truncation_is_undecided(ex1_doc, monkeypatch, capsys):
    from foltools import branches

    monkeypatch.setattr(branches, "branch_multiplicity", lambda _field, _branch: (None, False))
    assert run(["multiplicity", ex1_doc, "--field", "example1", "--curve", "line"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "uncertified up to truncation 8" in captured.err
    assert run(["euler-check", ex1_doc, "--field", "example1", "--curve", "line", "--chi", "2"]) == 3
    assert "NOT CHECKABLE: multiplicity at (0 : 0 : 1) uncertified up to truncation 8" in capsys.readouterr().out


def test_a_cusp_on_the_curve_is_undecided(tmp_path, capsys):
    # the Hamiltonian field of y^2 - x^3 leaves it invariant; its cusp at the
    # origin has one repeated tangent, which no branch expansion here supports
    doc = tmp_path / "cusp.fol"
    doc.write_text("[field ham]\np = -2*y\nq = -3*x^2\n\n[curve cusp]\nf = y^2 - x^3\n")
    argv = [str(doc), "--field", "ham", "--curve", "cusp"]
    assert run(["euler-check", *argv, "--chi", "2"]) == 3
    assert capsys.readouterr().out.endswith(
        "NOT CHECKABLE: unsupported branch at (0 : 0 : 1): order-2 point with a repeated tangent (cusp-like)\n"
    )
    assert run(["multiplicity", *argv]) == 3
    assert capsys.readouterr() == ("", "unsupported/uncertified: order-2 point with a repeated tangent (cusp-like)\n")


@pytest.mark.parametrize(
    "c, rc, shown",
    [
        ("2^60", 0, "T = 1.573220169e-18"),
        ("1/2^60", 0, "T = 2.091168292e+18"),
        ("1/2^200", 0, "T = 2.914663203e+60"),
        ("1/2^1060", 3, "the period is beyond float range"),  # T is about 1.8 * 2^1060
        ("2^1060", 3, "the period is below float range"),
    ],
)
def test_certify_does_not_see_the_scale_of_the_field(tmp_path, c, rc, shown, capsys):
    doc = tmp_path / "scaled.fol"
    doc.write_text(
        f"[field eee]\np = ({c})*((x^2 + y^2 - 1) - (x - 2)*2*y)\nq = ({c})*((x^2 + y^2 - 1) + (x - 2)*2*x)\n"
        "\n[curve circle]\nf = x^2 + y^2 - 1\n",
        encoding="utf-8",
    )
    assert run(["certify", str(doc), "--field", "eee", "--curve", "circle", "--res", "64", "--spacing", "2e-3"]) == rc
    out, err = capsys.readouterr()
    if rc:
        assert shown in err and out == ""
    else:
        assert f"D = +9.720121498e-01 {shown}" in out and "Unstable hyperbolic = True" in out


@pytest.mark.parametrize(
    "g, p, q",
    [
        ("1/4*x^2 + y^2 - 1", "(y - 3)*2*y", "(y - 3)*1/2*x"),
        ("x^2 - 2/3*x + 1/2*y^2 - 8/9", "(y + 4)*y", "(y + 4)*(2*x - 2/3)"),
    ],
    ids=["ellipse", "shifted-ellipse"],
)
def test_an_orbit_with_zero_divergence_integral_stops_at_the_rounding_floor(tmp_path, monkeypatch, g, p, q, capsys):
    # X = (g - h*g_y, h*g_x) is reversible under a reflection in x that keeps
    # the oval g = 0, so D is zero and only rounding is left of it: no
    # refinement can meet a relative target, and the quadrature stops within
    # the sum's rounding bound instead of refining 8 times
    from foltools import cycles

    doc = tmp_path / "reversible.fol"
    doc.write_text(f"[field rev]\np = {g} - {p}\nq = {q}\n\n[curve g]\nf = {g}\n", encoding="utf-8")
    refinements = []
    refine = cycles.refine_polyline
    monkeypatch.setattr(cycles, "refine_polyline", lambda f, pts: refinements.append(len(pts)) or refine(f, pts))
    assert run(["certify", str(doc), "--field", "rev", "--curve", "g"]) == 3
    assert "inconclusive hyperbolic = False" in capsys.readouterr().out
    assert len(refinements) <= 1


# -- files that cannot be read or written: one line on stderr, exit 2 ------------


def _file_error(argv, capsys, shown):
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and shown in err and err.count("\n") == 1


def test_a_directory_as_the_document_is_a_usage_error(tmp_path, capsys):
    _file_error(["ovals", str(tmp_path), "--curve", "c"], capsys, "Is a directory")


def test_a_document_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    doc = tmp_path / "latin1.fol"
    doc.write_bytes("[curve c]\nf = x^2 + y^2 - 1  # \xe9\n".encode("latin-1"))
    _file_error(["ovals", str(doc), "--curve", "c"], capsys, "not UTF-8 text")


def test_a_report_into_a_directory_is_a_usage_error(tmp_path, capsys):
    # the report is written before the verdict is printed, so no verdict reaches stdout
    _file_error(["bounds", "--theorem", "t1", "--m", "3", "--report", str(tmp_path)], capsys, "Is a directory")


def test_construct_out_into_a_directory_is_a_usage_error(tmp_path, capsys):
    _file_error(["construct", "gallery", "circle", "--out", str(tmp_path)], capsys, "Is a directory")


def test_polylines_into_a_directory_are_a_usage_error(eee_doc, tmp_path, capsys):
    argv = ["ovals", eee_doc, "--curve", "circle", "--res", "16", "--emit-polylines", str(tmp_path)]
    _file_error(argv, capsys, "Is a directory")


# -- a document command's inputs: the document, then the field, then the curve ----

INPUTS_DOC = """
[field f]
p = -y
q = x

[field zero]
p = 0
q = 0

[curve c]
f = x^2 + y^2 - 1
"""

# (command, takes --field, the option naming its curve or None, its other required options)
DOCUMENT_COMMANDS = [
    ("check-invariant", True, "--curve", []),
    ("cofactor", True, "--curve", []),
    ("projectivize", True, None, []),
    ("singularities", True, None, []),
    ("classify", True, None, []),
    ("nodal", False, "--curve", []),
    ("multiplicity", True, "--curve", []),
    ("euler-check", True, "--curve", ["--chi", "2"]),
    ("corollary2", False, "--curve", []),
    ("ovals", False, "--curve", []),
    ("certify", True, "--curve", []),
    ("iif-check", True, "--curve", []),
    ("darboux-check", True, "--curves", ["--weights", "1"]),
]


@pytest.mark.parametrize("name, takes_field, curve_option, extra", DOCUMENT_COMMANDS, ids=[c[0] for c in DOCUMENT_COMMANDS])
def test_document_inputs_fail_in_order_document_field_curve(tmp_path, capsys, name, takes_field, curve_option, extra):
    doc = tmp_path / "inputs.fol"
    doc.write_text(INPUTS_DOC, encoding="utf-8")
    latin1 = tmp_path / "latin1.fol"
    latin1.write_bytes(b"[curve c]\nf = x  # \xe9\n")

    def fails(document, field, curve):
        argv = [name, str(document)] + (["--field", field] if takes_field else [])
        argv += ([curve_option, curve] if curve_option else []) + extra
        rc = run(argv)
        out, err = capsys.readouterr()
        assert out == ""
        return rc, err

    no_field = (2, "parse error: no field named 'nope' in the document\n")
    no_curve = (2, "parse error: no curve named 'nope' in the document\n")
    assert fails(tmp_path, "nope", "nope") == (2, f"error: {tmp_path}: Is a directory\n")
    assert fails(latin1, "nope", "nope") == (2, f"error: {latin1}: not UTF-8 text\n")
    assert fails(doc, "nope", "nope") == (no_field if takes_field else no_curve)
    if takes_field:
        assert fails(doc, "nope", "c") == no_field
        # the field is built (and refused) before the curve is looked up
        assert fails(doc, "zero", "nope") == (1, "error: zero vector field has no degree\n")
    if curve_option:
        assert fails(doc, "f", "nope") == no_curve


@pytest.mark.parametrize(
    "curve, count",
    [("x^2 + y^2 - 1", 1), ("2*x^4 + 5*x^2*y^2 + 2*y^4 - 3*x^2 - 3*y^2 + 101/100", 4)],
)
def test_certify_places_one_vertex_per_traced_oval(tmp_path, monkeypatch, curve, count, capsys):
    # a trace starts from each oval's first vertex: `Oval.seed` places that
    # one vertex (if counting has not placed it already), not the polyline
    from foltools import realtopo

    doc = tmp_path / "eee.fol"
    assert run(["construct", "eee", "--g", curve, "--h", "x - 3", "--out", str(doc)]) == 0
    placed, counted = [], []
    edge_points, count_ovals = realtopo._edge_points, cli.count_ovals

    def recording(rows, lattice, edges):
        placed.append(len(edges))
        return edge_points(rows, lattice, edges)

    def counting(*args):
        ovals = count_ovals(*args)
        counted.append(len(placed))
        return ovals

    monkeypatch.setattr(realtopo, "_edge_points", recording)
    monkeypatch.setattr(cli, "count_ovals", counting)
    assert run(["certify", str(doc), "--field", "eee", "--curve", "g", "--all-ovals", "--res", "64"]) == 0
    assert f"ovals found: {count}" in capsys.readouterr().out
    if count == 1:  # an ellipse is counted and placed in closed form: no lattice, no lattice vertex
        assert counted == placed == []
    else:
        after = placed[counted[0] :]
        assert after == [1] * len(after) and len(after) <= count


# --report / --json payloads that no replay job runs, pinned byte for byte
HARNACK_CLAMPED = """\
{
  "bound": 0,
  "clamped": true,
  "inputs": {
    "n": 3,
    "orders": [
      2,
      2
    ],
    "raw": -3
  },
  "notes": [],
  "theorem": "harnack"
}
"""

MK_ARGMAX = """\
{
  "k": 3,
  "m": 4,
  "partition": [
    4,
    1,
    1
  ],
  "value": 4
}
"""

MK_PARTITION = """\
{
  "envelope": 4,
  "m": 4,
  "partition": [
    3,
    2,
    1
  ],
  "value": 2
}
"""

DEGREE_NODAL = """\
{
  "bound": 5,
  "clamped": false,
  "inputs": {
    "m": 3
  },
  "notes": [
    "equality forces a reducible curve and a logarithmic foliation with weights satisfying sum(lambda_i * deg F_i) = 0"
  ],
  "theorem": "degree-nodal"
}
"""

MK_TABLE = """\
{
  "single": {
    "k": 3,
    "m": 3,
    "partition": [
      2,
      2,
      1
    ],
    "value": 2
  },
  "table": [
    {
      "degree_cap": 3,
      "m": 1,
      "nodal_cycles": 0,
      "nondicritical_cycles_r0": 0,
      "nondicritical_cycles_r1": 1,
      "three_curve_cycles": null
    },
    {
      "degree_cap": 4,
      "m": 2,
      "nodal_cycles": 1,
      "nondicritical_cycles_r0": 2,
      "nondicritical_cycles_r1": 4,
      "three_curve_cycles": 1
    },
    {
      "degree_cap": 5,
      "m": 3,
      "nodal_cycles": 1,
      "nondicritical_cycles_r0": 3,
      "nondicritical_cycles_r1": 6,
      "three_curve_cycles": 1
    }
  ]
}
"""

FIRST_INTEGRAL = """\
{
  "certificate": {
    "cofactor": "0",
    "cofactor_degree": null,
    "curve": "x^2 + y^2 - 1",
    "degree_bound": 0,
    "degree_bound_ok": true,
    "residual_check": true
  },
  "invariant": true
}
"""


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["--theorem", "harnack", "--m", "3", "--orders", "2,2"], HARNACK_CLAMPED),
        (["--theorem", "mk", "--m", "4"], MK_ARGMAX),
        (["--theorem", "mk", "--m", "4", "--partition", "3,2,1"], MK_PARTITION),
        (["--theorem", "degree-nodal", "--m", "3"], DEGREE_NODAL),
        (["--theorem", "mk", "--m", "3", "--table", "--table-from", "1", "--table-to", "3"], MK_TABLE),
    ],
)
def test_bounds_reports_are_pinned(tmp_path, argv, expected, capsys):
    report = tmp_path / "bounds.json"
    assert run(["bounds", *argv, "--report", str(report)]) == 0
    assert report.read_text(encoding="utf-8") == expected


BOUND_TABLE_TEXT = """\
1
m  nodal_cycles  nondicritical_cycles_r0  nondicritical_cycles_r1  three_curve_cycles  degree_cap
1             0                        0                        1                   -           3
2             1                        2                        4                   1           4
3             1                        3                        6                   1           5
"""


def test_bound_table_text_is_aligned(capsys):
    # the text form of --table: a header of the JSON keys, then one line per
    # degree, each column right-aligned; the absent m = 1 three-curve bound reads "-"
    assert run(["bounds", "--theorem", "t1", "--m", "3", "--table", "--table-from", "1", "--table-to", "3"]) == 0
    assert capsys.readouterr().out == BOUND_TABLE_TEXT


def test_a_first_integral_certificate_is_pinned(eee_doc, capsys):
    # the rotation field's cofactor on the circle is zero, whose degree reads null
    assert run(["check-invariant", eee_doc, "--field", "rotation", "--curve", "circle", "--json"]) == 0
    assert capsys.readouterr().out == FIRST_INTEGRAL


def test_ovals_and_certify_leave_numpy_ma_unimported(tmp_path):
    # numpy's plain np.unique imports numpy.ma, which alone costs a short run
    # more than its lattice; the mesher takes distinct values by one sort
    doc = tmp_path / "eee.fol"
    doc.write_text(EEE_DOC, encoding="utf-8")
    code = (
        "import sys\n"
        "from foltools.cli import run\n"
        f"codes = [run(['ovals', {str(doc)!r}, '--curve', 'circle', '--res', '64']),\n"
        f"         run(['certify', {str(doc)!r}, '--field', 'eee', '--curve', 'circle', '--res', '64'])]\n"
        "print(codes, 'numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=src_env(), timeout=120)
    assert proc.stdout.splitlines()[-1] == "[0, 0] False", proc.stdout + proc.stderr
