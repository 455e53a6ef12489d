"""Run benchmark pool jobs that the recorded pool does not hold, and judge
them against construction alone.

    python3 tools/sweep.py --workload geometry --from 5000 --to 5199 [--src DIR]

For every index from A to B (both included) and every job kind of the
workload (`algebra`; `ovals` and `certify`), it generates the pool job at
that index with perfbench/gen.py, skipping the (kind, index) pairs recorded
in perfbench/answers.json, runs it in this process through
`foltools.cli.run` imported from DIR (default: this checkout's src/), and
judges its answer with `checks.judge(..., seed=None)`: against what is known
by construction only, since no answer is recorded for it.  It prints one
line per miss (id, exit code, reason) and then, per job kind (the id before
its "/") and per command, as `replay.py --compare` groups its seconds, the
jobs run, the correct ratio and the decided ratio, the share of jobs that
exit 0 or 1.  Every `algebra` job has the kind `algebra`, so its commands
show only in the second table.

The recorded pool is what the benchmark runs and what its answers were
checked on; a sweep over fresh indices shows whether that pool flatters the
program.  Only the standard library is used here; perfbench/ is read, never
written.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import replay  # noqa: E402  (tools/replay.py)

sys.path.insert(0, str(replay.PERFBENCH))
import checks  # noqa: E402
import gen  # noqa: E402

DECIDED = (0, 1)  # exit codes of a proven or refuted answer


def held_out(workload: str, lo: int, hi: int) -> list:
    """The workload's pool jobs at indices lo..hi that answers.json does not record."""
    recorded = set(replay.recorded_pool(workload))
    return [
        gen.POOL_JOB[kind](i)
        for kind in gen.WORKLOAD_KINDS[workload]
        for i in range(lo, hi + 1)
        if (kind, i) not in recorded
    ]


def sweep(workload: str, lo: int, hi: int, src: Path, work: Path) -> dict[str, dict[str, list[int]]]:
    """Per job kind and per command: [jobs, correct, decided]; each miss is
    printed as it happens."""
    cli = replay.import_cli(src)
    tally: dict[str, dict[str, list[int]]] = {"job kind": {}, "command": {}}
    for job in held_out(workload, lo, hi):
        rc, stdout, _stderr = replay.run_cli(cli, replay.job_argv(job, work))
        crashed = isinstance(rc, str)  # judge takes None for a crash
        ok, _summary, reason = checks.judge(job.command, None if crashed else rc, stdout, job.expect, seed=None)
        if not ok:
            print(f"miss {job.id:<16} exit {rc}: {reason}", flush=True)
        for title, name in (("job kind", job.id.split("/", 1)[0]), ("command", job.command)):
            row = tally[title].setdefault(name, [0, 0, 0])
            row[0] += 1
            row[1] += ok
            row[2] += rc in DECIDED
    return tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOAD_KINDS))
    parser.add_argument("--from", dest="lo", type=int, required=True, metavar="A", help="first index")
    parser.add_argument("--to", dest="hi", type=int, required=True, metavar="B", help="last index (included)")
    parser.add_argument("--src", type=Path, default=replay.ROOT / "src", help="source tree holding foltools/")
    args = parser.parse_args(argv)
    if args.lo < 0 or args.hi < args.lo:
        parser.error("need 0 <= A <= B")
    with tempfile.TemporaryDirectory() as tmp:
        tally = sweep(args.workload, args.lo, args.hi, args.src, Path(tmp))
    for title, rows in tally.items():
        print(f"{title:<16} {'jobs':>5} {'correct':>8} {'ratio':>6} {'decided':>8} {'ratio':>6}")
        for name, (jobs, correct, decided) in sorted(rows.items()):
            print(f"  {name:<14} {jobs:>5} {correct:>8} {correct / jobs:>6.3f} {decided:>8} {decided / jobs:>6.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
