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


def _tables(out: str) -> tuple[str, dict[str, dict[str, list[float]]]]:
    """The miss lines, and each table's rows by group name: jobs, correct,
    ratio, decided, ratio."""
    misses, _, tables = out.partition("job kind ")
    kinds, _, commands = tables.partition("command ")
    rows = [
        {line.split()[0]: [float(v) for v in line.split()[1:]] for line in table.splitlines()[1:]}
        for table in (kinds, commands)
    ]
    return misses, dict(zip(("job kind", "command"), rows))


def test_a_two_index_sweep_prints_the_ratios_per_kind(sweep, capsys):
    assert sweep.main(["--workload", "geometry", "--from", "5000", "--to", "5001"]) == 0
    misses, tables = _tables(capsys.readouterr().out)
    for rows in tables.values():  # each geometry kind is one command
        assert sorted(rows) == ["certify", "ovals"]
        for jobs, correct, ratio, decided, decided_ratio in rows.values():
            assert jobs == 2 and (ratio, decided_ratio) == (correct / 2, decided / 2)
    assert tables["job kind"] == tables["command"]
    assert misses.count("miss ") == sum(jobs - correct for jobs, correct, *_ in tables["job kind"].values())


def test_an_algebra_sweep_splits_its_one_kind_by_command(sweep, capsys):
    assert sweep.main(["--workload", "algebra", "--from", "5000", "--to", "5005"]) == 0
    misses, tables = _tables(capsys.readouterr().out)
    assert sorted(tables["job kind"]) == ["algebra"]
    total = tables["job kind"]["algebra"]
    commands = {sweep.gen.POOL_JOB["algebra"](i).command for i in range(5000, 5006)}
    assert sorted(tables["command"]) == sorted(commands)
    for k in (0, 1, 3):  # jobs, correct and decided add up over the commands
        assert sum(row[k] for row in tables["command"].values()) == total[k]
    for jobs, correct, ratio, decided, decided_ratio in tables["command"].values():
        assert (ratio, decided_ratio) == (round(correct / jobs, 3), round(decided / jobs, 3))
    assert total[0] == 6 and misses.count("miss ") == total[0] - total[1]


def test_an_empty_range_is_refused(sweep):
    with pytest.raises(SystemExit):
        sweep.main(["--workload", "algebra", "--from", "5", "--to", "4"])
