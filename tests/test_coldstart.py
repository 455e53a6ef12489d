"""tools/coldstart.py: one row per command and mode, and nothing written in the repository."""

import subprocess
import sys
from pathlib import Path

from conftest import src_env

ROOT = Path(__file__).resolve().parent.parent


def _files():
    return sorted(p for p in ROOT.rglob("*") if ".git" not in p.parts)


def test_coldstart_times_every_command_in_both_modes_and_writes_nothing_here():
    before = _files()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "coldstart.py"), "--repeat", "1"],
        capture_output=True, text=True, env=src_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[2:]]
    labels = ["bounds", "singularities", "euler-check", "ovals"]
    assert [(r[0], r[-4]) for r in rows] == [(label, mode) for label in labels for mode in ("cached", "source")]
    assert all(r[-1] == "0" and r[-2] == "ms" and float(r[-3]) > 0 for r in rows)
    assert _files() == before
