"""tools/replay.py --compare: the byte-identity gate between two replays."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "replay.py"


@pytest.fixture(scope="module")
def replay():
    spec = importlib.util.spec_from_file_location("replay", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def row(job_id, rc=0, stdout_sha="aaaa", polylines_sha="-", seconds=0.5):
    return {"id": job_id, "rc": rc, "stdout_sha": stdout_sha, "polylines_sha": polylines_sha, "seconds": seconds}


BASE = [row("ovals/1", polylines_sha="cccc"), row("nodal/2", rc=1, stdout_sha="bbbb")]


def compare(replay, tmp_path, a_rows, b_rows):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(a_rows), encoding="utf-8")
    b.write_text(json.dumps(b_rows), encoding="utf-8")
    return replay.main(["--compare", str(a), str(b)])


def test_identical_rows_pass(replay, tmp_path, capsys):
    # the wall time is reported, never compared
    slower = [dict(r, seconds=r["seconds"] * 3) for r in BASE]
    assert compare(replay, tmp_path, BASE, slower) == 0
    assert "0 of 2 job(s) differ" in capsys.readouterr().out


@pytest.mark.parametrize("field, value", [("rc", 3), ("stdout_sha", "dddd"), ("polylines_sha", "eeee")])
def test_a_changed_field_fails_and_names_the_job(replay, tmp_path, capsys, field, value):
    changed = [BASE[0], dict(BASE[1], **{field: value})]
    assert compare(replay, tmp_path, BASE, changed) == 1
    out = capsys.readouterr().out
    assert "nodal/2:" in out and "ovals/1:" not in out
    assert "1 of 2 job(s) differ" in out


def test_a_job_in_one_file_only_differs(replay, tmp_path, capsys):
    assert compare(replay, tmp_path, BASE, BASE[:1]) == 1
    out = capsys.readouterr().out
    assert "nodal/2: only in" in out and "1 of 2 job(s) differ" in out
    assert compare(replay, tmp_path, BASE[1:], BASE) == 1
    assert "ovals/1: only in" in capsys.readouterr().out
