"""tools/sweep.py: pool jobs off the recorded pool, judged against construction."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "sweep.py"


@pytest.fixture(scope="module")
def sweep():
    spec = importlib.util.spec_from_file_location("sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_held_out_skips_the_recorded_pool(sweep):
    # the algebra pool records indices 0..159
    assert [job.id for job in sweep.held_out("algebra", 158, 161)] == ["algebra/160", "algebra/161"]


def test_a_two_index_sweep_prints_the_ratios_per_kind(sweep, capsys):
    assert sweep.main(["--workload", "geometry", "--from", "5000", "--to", "5001"]) == 0
    misses, _, table = capsys.readouterr().out.partition("kind ")
    rows = {line.split()[0]: [float(v) for v in line.split()[1:]] for line in table.splitlines()[1:]}
    assert sorted(rows) == ["certify", "ovals"]
    for jobs, correct, ratio, decided, decided_ratio in rows.values():
        assert jobs == 2 and (ratio, decided_ratio) == (correct / 2, decided / 2)
    assert misses.count("miss ") == sum(jobs - correct for jobs, correct, *_ in rows.values())


def test_an_empty_range_is_refused(sweep):
    with pytest.raises(SystemExit):
        sweep.main(["--workload", "algebra", "--from", "5", "--to", "4"])
