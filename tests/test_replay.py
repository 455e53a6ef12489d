"""tools/replay.py --compare: the byte-identity gate between two replays."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from foltools import cli

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "replay.py"


@pytest.fixture(scope="module")
def replay():
    spec = importlib.util.spec_from_file_location("replay", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def row(job_id, rc=0, stdout_sha="aaaa", polylines_sha="-", verdict_sha="-", report_sha="-", seconds=0.5):
    return {
        "id": job_id,
        "rc": rc,
        "stdout_sha": stdout_sha,
        "polylines_sha": polylines_sha,
        "verdict_sha": verdict_sha,
        "report_sha": report_sha,
        "seconds": seconds,
    }


BASE = [row("ovals/1", polylines_sha="cccc"), row("nodal/2", rc=1, stdout_sha="bbbb", verdict_sha="9999"), row("paper-suite", report_sha="ffff")]


def table(out, title):
    """The rows of the --compare table under the header that starts with title: name -> columns."""
    lines = out.splitlines()
    start = next(k for k, line in enumerate(lines) if line.startswith(title)) + 1
    rows = {}
    for line in lines[start:]:
        if not line.startswith("  "):
            break
        rows[line.split()[0]] = line.split()[1:]
    return rows


def compare(replay, tmp_path, a_rows, b_rows):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(a_rows), encoding="utf-8")
    b.write_text(json.dumps(b_rows), encoding="utf-8")
    return replay.main(["--compare", str(a), str(b)])


def test_identical_rows_pass(replay, tmp_path, capsys):
    # the wall time is reported, never compared
    slower = [dict(r, seconds=r["seconds"] * 3) for r in BASE]
    assert compare(replay, tmp_path, BASE, slower) == 0
    assert "0 of 3 job(s) differ" in capsys.readouterr().out


def test_compare_prints_seconds_per_job_kind(replay, tmp_path, capsys):
    # the kind is the id before "/": pool kinds, named jobs and paper-suite;
    # a kind in one file only reads 0 in the other
    a_rows = BASE + [row("ovals/2", seconds=0.25), row("certify/7", seconds=1.0)]
    b_rows = [dict(r, seconds=r["seconds"] * 2) for r in BASE]
    b_rows += [row("ovals/2", seconds=0.125), row("quartic-4-ovals/res64", seconds=0.75)]
    compare(replay, tmp_path, a_rows, b_rows)
    out = capsys.readouterr().out
    kinds = table(out, "seconds per job kind")
    assert kinds == {
        "certify": ["1.000", "|", "0.000"],
        "nodal": ["0.500", "|", "1.000"],
        "ovals": ["0.750", "|", "1.125"],
        "paper-suite": ["0.500", "|", "1.000"],
        "quartic-4-ovals": ["0.000", "|", "0.750"],
    }
    assert "seconds per job kind, a.json | b.json:" in out
    assert replay.kind_seconds(a_rows) == {"ovals": 0.75, "nodal": 0.5, "paper-suite": 0.5, "certify": 1.0}


def test_compare_prints_seconds_per_command(replay, tmp_path, capsys):
    # pool jobs of one kind run different commands; rows without a command
    # (files written before it was recorded) group under "-"
    a_rows = [row("algebra/1", seconds=0.25), row("algebra/2", seconds=0.5), row("paper-suite", seconds=1.0)]
    b_rows = [
        dict(row("algebra/1", seconds=0.125), command="classify"),
        dict(row("algebra/2", seconds=0.75), command="euler-check"),
        dict(row("algebra/3", seconds=0.5), command="classify"),
        dict(row("paper-suite", seconds=2.0), command="paper-suite"),
    ]
    compare(replay, tmp_path, a_rows, b_rows)
    out = capsys.readouterr().out
    assert out.index("seconds per job kind") < out.index("seconds per command, a.json | b.json:")
    assert table(out, "seconds per job kind") == {"algebra": ["0.750", "|", "1.375"], "paper-suite": ["1.000", "|", "2.000"]}
    assert table(out, "seconds per command") == {
        "-": ["1.750", "|", "0.000"],
        "classify": ["0.000", "|", "0.625"],
        "euler-check": ["0.000", "|", "0.750"],
        "paper-suite": ["0.000", "|", "2.000"],
    }
    assert replay.command_seconds(b_rows) == {"classify": 0.625, "euler-check": 0.75, "paper-suite": 2.0}


@pytest.mark.parametrize(
    "field, value",
    [("rc", 3), ("stdout_sha", "dddd"), ("polylines_sha", "eeee"), ("verdict_sha", "eeee"), ("report_sha", "eeee")],
)
def test_a_changed_field_fails_and_names_the_job(replay, tmp_path, capsys, field, value):
    changed = [BASE[0], dict(BASE[1], **{field: value}), BASE[2]]
    assert compare(replay, tmp_path, BASE, changed) == 1
    out = capsys.readouterr().out
    assert "nodal/2:" in out and "ovals/1:" not in out
    assert f"{field} " in out and out.count(" -> ") == 2  # the field, and the total time
    assert "1 of 3 job(s) differ" in out


@pytest.mark.parametrize("field, value", [("rc", 1), ("stdout_sha", "dddd"), ("report_sha", "eeee")])
def test_a_changed_paper_suite_row_fails(replay, tmp_path, capsys, field, value):
    changed = BASE[:2] + [dict(BASE[2], **{field: value})]
    assert compare(replay, tmp_path, BASE, changed) == 1
    out = capsys.readouterr().out
    assert "paper-suite:" in out and "nodal/2:" not in out
    assert "1 of 3 job(s) differ" in out


def test_a_job_in_one_file_only_differs(replay, tmp_path, capsys):
    assert compare(replay, tmp_path, BASE, BASE[:1]) == 1
    out = capsys.readouterr().out
    assert "nodal/2: only in" in out and "paper-suite: only in" in out and "2 of 3 job(s) differ" in out
    assert compare(replay, tmp_path, BASE[1:], BASE) == 1
    assert "ovals/1: only in" in capsys.readouterr().out


def test_paper_suite_row_hashes_stdout_and_report(replay, tmp_path, capsys):
    got = replay.paper_suite_row(cli, tmp_path)
    printed = capsys.readouterr().out
    report = (tmp_path / "paper-suite.json").read_bytes()
    assert cli.run(["paper-suite"]) == 0
    stdout = capsys.readouterr().out
    assert (got["id"], got["rc"], got["polylines_sha"]) == ("paper-suite", 0, "-")
    assert got["stdout_sha"] == hashlib.sha256(stdout.encode("utf-8")).hexdigest()[:16]
    assert got["report_sha"] == hashlib.sha256(report).hexdigest()[:16]
    assert b'"failed": 0' in report and got["report_sha"] in printed


CERTIFICATE = {
    "oval_id": 0,
    "period": 1.8137993642342178,
    "period_precision": 1.1e-07,
    "divergence_integral": 0.9720147202236127,
    "divergence_integral_precision": 1.1e-07,
    "stability": "Unstable",
    "hyperbolic": True,
    "quadrature_rel_err": 1.1e-07,
    "v_residual": 2.2e-16,
}
PAYLOAD = {
    "cofactor": "2*x",
    "oval_count": 1,
    "certificates": [CERTIFICATE],
    "location": [{"oval_id": 0, "residual": 2.2e-16, "residual_precision": 1e-08, "pass": True}],
}


def test_verdict_sha_ignores_only_float_digits(replay):
    sha = replay.verdict_sha(json.dumps(PAYLOAD))
    moved = dict(CERTIFICATE, period=1.8137993642342176, divergence_integral=0.9720147202236131)
    moved.update(period_precision=1.3e-07, divergence_integral_precision=1.3e-07, quadrature_rel_err=1.3e-07, v_residual=0.0)
    location = [dict(PAYLOAD["location"][0], residual=4.4e-16)]
    assert replay.verdict_sha(json.dumps(dict(PAYLOAD, certificates=[moved], location=location), indent=2)) == sha
    for changed in (
        dict(PAYLOAD, certificates=[dict(CERTIFICATE, stability="Stable")]),
        dict(PAYLOAD, certificates=[dict(CERTIFICATE, hyperbolic=False)]),
        dict(PAYLOAD, location=[dict(PAYLOAD["location"][0], **{"pass": False})]),
        dict(PAYLOAD, oval_count=2),
    ):
        assert replay.verdict_sha(json.dumps(changed)) != sha
    assert replay.verdict_sha("") == "-"


def test_run_row_hashes_the_certify_verdict(replay, tmp_path, capsys):
    doc = tmp_path / "eee.fol"
    doc.write_text("[field eee]\np = x^2 + y^2 - 1 - (x - 2)*2*y\nq = x^2 + y^2 - 1 + (x - 2)*2*x\n\n[curve g]\nf = x^2 + y^2 - 1\n")
    argv = ["certify", str(doc), "--field", "eee", "--curve", "g", "--res", "64", "--spacing", "2e-3", "--json"]
    got = replay.run_row(cli, "certify/eee", argv)
    capsys.readouterr()
    assert got["command"] == "certify"
    assert cli.run(argv) == 0
    assert got["verdict_sha"] == replay.verdict_sha(capsys.readouterr().out) != "-"
    assert replay.run_row(cli, "ovals/eee", ["ovals", str(doc), "--curve", "g", "--res", "64"])["verdict_sha"] == "-"


def test_work_directory_is_created_when_missing(replay, tmp_path, monkeypatch):
    # --work names a directory that may not exist yet; the replay's
    # temporary directory is made inside it, and the rows are still written
    seen = []

    def fake_replay(workload, src, work):
        seen.append((workload, work.parent))
        return [row("ovals/1")]

    monkeypatch.setattr(replay, "replay", fake_replay)
    work, out = tmp_path / "not" / "there", tmp_path / "rows.json"
    assert replay.main(["--workload", "geometry", "--work", str(work), "--out", str(out)]) == 0
    assert seen == [("geometry", work)] and work.is_dir()
    assert json.loads(out.read_text(encoding="utf-8"))[0]["id"] == "ovals/1"
