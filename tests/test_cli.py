import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import foltools
from foltools.cli import EXIT_BROKEN_PIPE, run

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
    doc = tmp_path / "huge.fol"
    doc.write_text(
        "[field eee]\n"
        "p = 10^400*(x^2 + y^2 - 1 - (x - 2)*2*y)\n"
        "q = 10^400*(x^2 + y^2 - 1 + (x - 2)*2*x)\n\n"
        "[curve g]\n"
        "f = 10^400*(x^2 + y^2 - 1)\n"
    )
    for argv in (["certify", str(doc), "--field", "eee"], ["ovals", str(doc)]):
        assert run(argv + ["--curve", "g"]) == 3
        assert "float range" in capsys.readouterr().err


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


def test_usage_errors(tmp_path):
    assert run(["no-such-command"]) == 2
    assert run(["bounds", "--theorem", "t1"]) == 2  # missing --m
    bad = tmp_path / "bad.fol"
    bad.write_text("[field broken]\np = x +\nq = y\n")
    assert run(["check-invariant", str(bad), "--field", "broken", "--curve", "c"]) == 2
    assert run(["check-invariant", str(tmp_path / "missing.fol"), "--field", "a", "--curve", "b"]) == 2


def test_paper_suite_exit_zero(capsys):
    assert run(["paper-suite"]) == 0
    out = capsys.readouterr().out
    assert "21/21 fixture checks passed" in out


def test_paper_suite_deterministic_report(tmp_path):
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    assert run(["paper-suite", "--report", str(r1)]) == 0
    assert run(["paper-suite", "--report", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


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


@pytest.mark.parametrize("n", ["0", "1", "-3"])
def test_truncation_below_two_is_a_usage_error(eee_doc, n, capsys):
    argv = ["multiplicity", eee_doc, "--field", "eee", "--curve", "circle", "--point", "1,0", f"--truncation={n}"]
    assert run(argv) == 2
    assert "truncation must be at least 2" in capsys.readouterr().err
    assert run(argv[:-1] + ["--truncation=2"]) == 0


def test_non_integer_truncation_variable_is_a_usage_error(eee_doc, monkeypatch, capsys):
    monkeypatch.setenv("FOLTOOLS_TRUNCATION", "abc")
    assert run(["multiplicity", eee_doc, "--field", "eee", "--curve", "circle", "--point", "1,0"]) == 2
    assert "FOLTOOLS_TRUNCATION must be an integer" in capsys.readouterr().err
    assert run(["euler-check", eee_doc, "--field", "eee", "--curve", "circle", "--chi", "0"]) == 2
    assert "FOLTOOLS_TRUNCATION must be an integer" in capsys.readouterr().err


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
    env = dict(os.environ, PYTHONPATH=str(Path(foltools.__file__).resolve().parent.parent))
    argv = ["construct", "log", "--curves", "X;Y;X+Y+Z", "--weights", "-3,1,2"]
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "foltools.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_BROKEN_PIPE
    assert b"Traceback" not in proc.stderr and b"BrokenPipeError" not in proc.stderr
