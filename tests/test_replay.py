"""tools/replay.py --compare: the byte-identity gate between two replays."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
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


def row(job_id, rc=0, stdout_sha="aaaa", stderr_sha="0000", polylines_sha="-", verdict_sha="-", report_sha="-", seconds=0.5):
    return {
        "id": job_id,
        "rc": rc,
        "stdout_sha": stdout_sha,
        "stderr_sha": stderr_sha,
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
    assert replay.seconds_by(a_rows, replay.job_kind) == {"ovals": 0.75, "nodal": 0.5, "paper-suite": 0.5, "certify": 1.0}


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
    assert replay.seconds_by(b_rows, replay.job_command) == {"classify": 0.625, "euler-check": 0.75, "paper-suite": 2.0}


@pytest.mark.parametrize(
    "field, value",
    [("rc", 3), ("stdout_sha", "dddd"), ("stderr_sha", "dddd"), ("polylines_sha", "eeee"), ("verdict_sha", "eeee"), ("report_sha", "eeee")],
)
def test_a_changed_field_fails_and_names_the_job(replay, tmp_path, capsys, field, value):
    changed = [BASE[0], dict(BASE[1], **{field: value}), BASE[2]]
    assert compare(replay, tmp_path, BASE, changed) == 1
    out = capsys.readouterr().out
    assert "nodal/2:" in out and "ovals/1:" not in out
    assert f"{field} " in out and out.count(" -> ") == 2  # the field, and the total time
    assert "1 of 3 job(s) differ" in out


def test_certify_rows_that_move_only_float_digits_are_counted(replay, tmp_path, capsys):
    # stdout moved under an equal verdict: listed, counted in one summary line,
    # and still a difference; a moved verdict or exit code, or a non-certify
    # row, is not counted there
    a_rows = [row(f"certify/{k}", stdout_sha="aaaa", verdict_sha="vvvv") for k in range(5)] + BASE
    b_rows = [dict(r, stdout_sha="bbbb") for r in a_rows[:3]]
    b_rows += [dict(a_rows[3], stdout_sha="bbbb", verdict_sha="wwww"), dict(a_rows[4], stdout_sha="bbbb", rc=3)]
    b_rows += [dict(BASE[0], stdout_sha="bbbb")] + BASE[1:]
    assert compare(replay, tmp_path, a_rows, b_rows) == 1
    out = capsys.readouterr().out
    assert "3 certify rows differ in float digits only" in out
    assert all(f"certify/{k}: " in out for k in range(5)) and "ovals/1: stdout_sha" in out
    assert "6 of 8 job(s) differ" in out
    assert compare(replay, tmp_path, a_rows, a_rows) == 0
    assert "float digits" not in capsys.readouterr().out


def test_compare_prints_float_moves_against_their_precisions(replay, tmp_path, capsys):
    # over the rows that differ in float digits only, the largest |dD|/|D|
    # and |dT|/|T| of a certificate, each as a multiple of rel_old + rel_new
    a_rows = [
        dict(row("certify/1", verdict_sha="vvvv"), certificates=[[1.0, 2.0, 1e-6]]),
        dict(row("certify/2", verdict_sha="vvvv"), certificates=[[-0.5, 4.0, 1e-8], [2.0, 1.0, 1e-8]]),
    ]
    b_rows = [
        dict(a_rows[0], stdout_sha="bbbb", certificates=[[1.0 + 1e-6, 2.0, 1e-6]]),
        dict(a_rows[1], stdout_sha="bbbb", certificates=[[-0.5, 4.0, 3e-8], [2.0, 1.0 + 1e-8, 3e-8]]),
    ]
    assert compare(replay, tmp_path, a_rows + BASE, b_rows + BASE) == 1
    out = capsys.readouterr().out
    assert "2 certify rows differ in float digits only" in out
    assert "largest move as a multiple of rel_old + rel_new: |dD|/|D| 0.5 (certify/1), |dT|/|T| 0.25 (certify/2)" in out
    # a move beyond the precisions reads above 1; rows written before the
    # certificates were recorded print no such line
    b_rows[1]["certificates"][0][0] = -0.5 - 1e-7
    compare(replay, tmp_path, a_rows + BASE, b_rows + BASE)
    assert "|dD|/|D| 5 (certify/2)" in capsys.readouterr().out
    old = [{k: v for k, v in r.items() if k != "certificates"} for r in a_rows]
    compare(replay, tmp_path, old + BASE, b_rows + BASE)
    assert "largest move" not in capsys.readouterr().out


@pytest.mark.parametrize("field, value", [("rc", 1), ("stdout_sha", "dddd"), ("report_sha", "eeee")])
def test_a_changed_paper_suite_row_fails(replay, tmp_path, capsys, field, value):
    changed = BASE[:2] + [dict(BASE[2], **{field: value})]
    assert compare(replay, tmp_path, BASE, changed) == 1
    out = capsys.readouterr().out
    assert "paper-suite:" in out and "nodal/2:" not in out
    assert "1 of 3 job(s) differ" in out


def test_rows_written_before_stderr_was_hashed_compare_cleanly(replay, tmp_path, capsys):
    # a file without stderr_sha compares every other field, either way round
    old = [{k: v for k, v in r.items() if k != "stderr_sha"} for r in BASE]
    assert compare(replay, tmp_path, old, BASE) == 0
    assert compare(replay, tmp_path, BASE, old) == 0
    assert "0 of 3 job(s) differ" in capsys.readouterr().out
    assert compare(replay, tmp_path, old, [dict(BASE[0], rc=3)] + BASE[1:]) == 1
    assert "ovals/1: rc 0 -> 3" in capsys.readouterr().out


def test_run_row_hashes_stderr(replay, tmp_path, capsys):
    # a job that fails with a message on stderr: the message is hashed, so a
    # changed error position shows in --compare
    doc = tmp_path / "bad.fol"
    doc.write_text("[curve a]\nf = x + $\n")
    argv = ["check-invariant", str(doc), "--field", "f", "--curve", "a"]
    got = replay.run_row(cli, "bad", argv)
    capsys.readouterr()
    assert cli.run(argv) == got["rc"] == 2
    err = capsys.readouterr().err
    assert "(line 2, column 9)" in err
    assert got["stderr_sha"] == hashlib.sha256(err.encode("utf-8")).hexdigest()[:16]
    assert replay.run_row(cli, "eee", ["construct", "gallery", "circle"])["stderr_sha"] == hashlib.sha256(b"").hexdigest()[:16]


def test_a_job_in_one_file_only_differs(replay, tmp_path, capsys):
    assert compare(replay, tmp_path, BASE, BASE[:1]) == 1
    out = capsys.readouterr().out
    assert "nodal/2: only in" in out and "paper-suite: only in" in out and "2 of 3 job(s) differ" in out
    assert compare(replay, tmp_path, BASE[1:], BASE) == 1
    assert "ovals/1: only in" in capsys.readouterr().out


def test_paper_suite_row_hashes_stdout_and_report(replay, tmp_path, capsys):
    got = replay.run_row(cli, *replay.paper_suite_job(tmp_path))
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
    out = capsys.readouterr().out
    assert got["verdict_sha"] == replay.verdict_sha(out) != "-"
    certificates = json.loads(out)["certificates"]
    assert got["certificates"] == [[c["divergence_integral"], c["period"], c["quadrature_rel_err"]] for c in certificates]
    ovals = replay.run_row(cli, "ovals/eee", ["ovals", str(doc), "--curve", "g", "--res", "64"])
    assert ovals["verdict_sha"] == "-" and "certificates" not in ovals


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


def test_repeat_records_median_seconds_and_fails_on_unstable_hashes(replay, tmp_path, monkeypatch, capsys):
    # --repeat N replays the job list N times; each row keeps its median
    # seconds, and a job whose hashes move between passes exits 1
    passes = [
        [row("ovals/1", seconds=0.3), row("paper-suite", seconds=2.0)],
        [row("ovals/1", seconds=0.1), row("paper-suite", seconds=1.0)],
        [row("ovals/1", seconds=0.2), row("paper-suite", seconds=3.0)],
    ]
    calls = []

    def fake_replay(workload, src, work):
        calls.append(workload)
        return passes[len(calls) - 1]

    monkeypatch.setattr(replay, "replay", fake_replay)
    out = tmp_path / "rows.json"
    assert replay.main(["--workload", "geometry", "--repeat", "3", "--out", str(out)]) == 0
    assert calls == ["geometry"] * 3
    rows = json.loads(out.read_text(encoding="utf-8"))
    assert [(r["id"], r["seconds"], r["pass_seconds"]) for r in rows] == [("ovals/1", 0.2, [0.3, 0.1, 0.2]), ("paper-suite", 2.0, [2.0, 1.0, 3.0])]
    passes[2][0] = row("ovals/1", polylines_sha="dddd")
    calls.clear()
    assert replay.main(["--workload", "geometry", "--repeat", "3"]) == 1
    assert "ovals/1: polylines_sha differ between passes" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        replay.main(["--workload", "geometry", "--repeat", "0"])


def test_compare_prints_the_pass_to_pass_spread_beside_the_median(replay, tmp_path, capsys):
    # rows that record their seconds in every pass give each kind and command
    # the median of its per-pass sums and their min-max; a group whose rows
    # lack them, or record different numbers of passes, keeps its plain sum
    a_rows = [
        dict(row("ovals/1", seconds=0.2), command="ovals", pass_seconds=[0.3, 0.1, 0.2]),
        dict(row("ovals/2", seconds=0.2), command="ovals", pass_seconds=[0.1, 0.4, 0.2]),
        dict(row("certify/1", seconds=1.0), command="certify", pass_seconds=[1.0, 1.5]),
        dict(row("certify/2", seconds=1.0), command="certify", pass_seconds=[1.0, 1.0, 1.0]),
    ]
    b_rows = [dict(row("ovals/1", seconds=0.25), command="ovals"), dict(row("ovals/2", seconds=0.5), command="ovals")]
    compare(replay, tmp_path, a_rows, b_rows)
    out = capsys.readouterr().out
    assert replay.pass_sums(a_rows, replay.job_kind) == {"ovals": [0.4, 0.5, 0.4]}
    assert table(out, "seconds per job kind") == {
        "certify": ["2.000", "|", "0.000"],
        "ovals": ["0.400", "[0.400-0.500]", "|", "0.750"],
    }
    assert table(out, "seconds per command")["ovals"] == ["0.400", "[0.400-0.500]", "|", "0.750"]


def test_against_alternates_the_two_trees_and_compares_their_medians(replay, tmp_path, monkeypatch, capsys):
    # --against DIR runs every job on DIR and on --src in turn, the tree that
    # goes first alternating from job to job and from pass to pass; each tree
    # keeps its median rows, --src's go to --out and DIR's beside them, and
    # the --compare report of the two follows
    base_dir, src_dir = tmp_path / "parent", tmp_path / "change"
    seconds = {base_dir: iter([0.4, 1.0, 0.2, 1.0, 0.3, 1.0]), src_dir: iter([0.1, 1.0, 0.5, 1.0, 0.3, 1.0])}
    calls = []

    class FakeTree:
        def __init__(self, src):
            self.src = src

        def run(self, job_id, argv, polylines=None, report=None):
            calls.append((self.src.name, job_id))
            polylines = "eeee" if self.src == src_dir else "cccc"
            return row(job_id, polylines_sha=polylines if job_id == "ovals/1" else "-", seconds=next(seconds[self.src]))

    monkeypatch.setattr(replay, "Tree", FakeTree)
    monkeypatch.setattr(replay, "job_list", lambda workload, work: [("ovals/1", ["ovals"], None, None), ("paper-suite", ["paper-suite"], None, None)])
    out = tmp_path / "rows.json"
    argv = ["--workload", "geometry", "--src", str(src_dir), "--against", str(base_dir), "--repeat", "3", "--out", str(out)]
    assert replay.main(argv) == 1  # the polylines differ between the trees
    even = [("parent", "ovals/1"), ("change", "ovals/1"), ("change", "paper-suite"), ("parent", "paper-suite")]
    odd = [even[1], even[0], even[3], even[2]]
    assert calls == even + odd + even
    rows = json.loads(out.read_text(encoding="utf-8"))
    base = json.loads((tmp_path / "rows.against.json").read_text(encoding="utf-8"))
    assert [(r["id"], r["polylines_sha"], r["seconds"]) for r in rows] == [("ovals/1", "eeee", 0.3), ("paper-suite", "-", 1.0)]
    assert [(r["id"], r["polylines_sha"], r["seconds"]) for r in base] == [("ovals/1", "cccc", 0.3), ("paper-suite", "-", 1.0)]
    out_text = capsys.readouterr().out
    assert "ovals/1: polylines_sha cccc -> eeee" in out_text
    assert table(out_text, "seconds per job kind, rows.against.json | rows.json") == {
        "ovals": ["0.300", "[0.200-0.400]", "|", "0.300", "[0.100-0.500]"],
        "paper-suite": ["1.000", "[1.000-1.000]", "|", "1.000", "[1.000-1.000]"],
    }
    monkeypatch.setattr(FakeTree, "run", lambda self, job_id, *rest: row(job_id))
    assert replay.main(argv[:-4] + ["--out", str(out)]) == 0  # one pass each, identical rows
    with pytest.raises(SystemExit):
        replay.main(argv[:-2])  # --against needs --out


def test_closed_stdout_exits_quietly(tmp_path):
    # the reader is gone before the first write (as with `| head -1`): no
    # traceback, and 141 as `foltools` exits, not 1 as for a differing job
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(BASE), encoding="utf-8")
    b.write_text(json.dumps([dict(BASE[0], rc=3)] + BASE[1:]), encoding="utf-8")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, str(SCRIPT), "--compare", str(a), str(b)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_BROKEN_PIPE
    assert b"Traceback" not in proc.stderr and b"BrokenPipeError" not in proc.stderr


def _fake_tree(root: Path, answer: str) -> Path:
    """A source tree whose `foltools` prints `answer` from a submodule it imports only when it runs."""
    package = root / "foltools"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("", encoding="utf-8")
    (package / "cli.py").write_text("def run(argv):\n    from .late import ANSWER\n    print(ANSWER, argv[0])\n    return 0\n", encoding="utf-8")
    (package / "late.py").write_text(f"ANSWER = {answer!r}\n", encoding="utf-8")
    return root


def test_two_trees_run_in_one_process_each_on_its_own_modules(replay, tmp_path, monkeypatch, capsys):
    # each tree's modules are in sys.modules only while it runs, so a module
    # imported at run time comes from the tree that runs, on every later run too
    monkeypatch.setattr(sys, "path", list(sys.path))
    saved = replay._package_modules()
    try:
        trees = [replay.Tree(_fake_tree(tmp_path / name, name)) for name in ("parent", "change")]
        assert trees[0].cli is not trees[1].cli
        expected = {name: hashlib.sha256(f"{name} ovals\n".encode()).hexdigest()[:16] for name in ("parent", "change")}
        for tree, name in [(trees[1], "change"), (trees[0], "parent"), (trees[0], "parent"), (trees[1], "change")]:
            assert tree.run("ovals/1", ["ovals"])["stdout_sha"] == expected[name]
        assert trees[0].modules["foltools.late"].ANSWER == "parent"
        assert sys.modules["foltools"] is trees[1].modules["foltools"]
    finally:
        for name in replay._package_modules():
            del sys.modules[name]
        sys.modules.update(saved)
