"""tools/traffic.py: the functions and lines of foltools that a workload never runs."""

import importlib.util
import inspect
from pathlib import Path

import pytest

from foltools import bounds

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "traffic.py"


@pytest.fixture(scope="module")
def traffic():
    spec = importlib.util.spec_from_file_location("traffic", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _section(out: str, module: str) -> str:
    """The report block of one module: its header line up to the next header."""
    lines = out.splitlines()
    start = next(k for k, line in enumerate(lines) if line.startswith(module + ":"))
    end = next((k for k in range(start + 1, len(lines)) if not lines[k].startswith(" ")), len(lines))
    return "\n".join(lines[start:end])


def test_one_job_reports_what_it_never_ran(traffic, monkeypatch, capsys):
    works = []

    def one_job(workload, work):
        works.append(work)
        return [("bounds/1", ["bounds", "--theorem", "t1", "--m", "3"], None, None)]

    monkeypatch.setattr(traffic.replay, "job_list", one_job)
    assert traffic.main(["--workload", "algebra"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("1 algebra jobs traced (0 crashed)\n")
    # the documents go to a temporary directory, not into the source or the benchmark
    assert not any(work.resolve().is_relative_to(ROOT / part) for work in works for part in ("src", "perfbench"))
    report = _section(out, "bounds.py")
    never_entered = report.splitlines()[1]
    assert "thm2_bound (" in never_entered and "thm1_bound (" not in never_entered
    # thm1_bound ran, but not its refusal of m < 1
    source, first = inspect.getsourcelines(bounds.thm1_bound)
    refusal = first + next(k for k, line in enumerate(source) if "raise" in line)
    assert f"    thm1_bound: {refusal}\n" in report + "\n"
    cli = _section(out, "cli.py")
    assert "cmd_ovals (" in cli and "cmd_bounds (" not in cli.splitlines()[1]
    # a module no job enters lists its functions, not their lines
    cycles = _section(out, "cycles.py")
    assert "certify_cycle (" in cycles and "\n  lines never run:" not in cycles


def test_ranges_join_consecutive_lines(traffic):
    assert traffic._ranges([3, 4, 5, 9, 11, 12]) == "3-5, 9, 11-12"


def test_tests_mode_reports_what_a_test_file_never_ran(traffic, tmp_path, capsys):
    test_file = tmp_path / "test_one_bound.py"
    test_file.write_text("from foltools import bounds\n\n\ndef test_thm1():\n    assert bounds.thm1_bound(3) > 0\n")
    assert traffic.main(["--tests", str(test_file), "-q", "-p", "no:cacheprovider"]) == 0
    out = capsys.readouterr().out
    assert "1 passed" in out and f"tests traced: pytest {test_file} -q -p no:cacheprovider (exit code 0)\n" in out
    report = _section(out, "bounds.py")
    never_entered = report.splitlines()[1]
    assert "thm2_bound (" in never_entered and "thm1_bound (" not in never_entered
    # the exit code is pytest's: 1 for a failing test
    failing = tmp_path / "test_fails.py"
    failing.write_text("def test_fails():\n    assert False\n")
    assert traffic.main(["--tests", str(failing), "-q", "-p", "no:cacheprovider"]) == 1
