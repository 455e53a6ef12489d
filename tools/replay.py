"""Replay every job of a benchmark workload against one source tree.

    python3 tools/replay.py --workload geometry [--src DIR] [--out FILE.json] [--work DIR] [--repeat N]
    python3 tools/replay.py --workload geometry --against DIR --out FILE.json [--src DIR] [--repeat N]
    python3 tools/replay.py --compare A.json B.json

The first form regenerates the workload's pool entries (the (kind, index)
pairs recorded in perfbench/answers.json) and its named jobs with
perfbench/gen.py, runs each one in this process through `foltools.cli.run`
imported from DIR (default: this checkout's src/), and prints one row per
job: id, exit code, sha256 prefixes of stdout and stderr, for an `ovals` job a sha256
prefix of the polylines it writes with `--emit-polylines` into the work
directory ("-" when it writes none), so a moved vertex shows even when the
counts do not change, for a `certify` job a sha256 prefix of its JSON payload
without the float fields in FLOAT_KEYS ("-" for other jobs), so a change that
moves only the digits of D, T and the residuals keeps it, and wall seconds;
each row also records its command (the CLI subcommand, argv[0]), and a
`certify` row the (D, T, rel) of each of its certificates.  A last
row, `paper-suite`, runs `paper-suite --report` and hashes its stdout and
the JSON report it writes.  `--repeat N` runs the whole job list N times
and records each job's median seconds and its seconds in every pass
(`pass_seconds`); it exits 1, naming the jobs, if a job's exit code or
hashes differ between passes.  `--out` also writes the rows as JSON.

The second form replays two trees job by job in this one process: it
imports the `--against` tree, takes its `foltools` modules out of
`sys.modules`, imports the `--src` tree beside it, and puts each tree's
modules back in `sys.modules` while that tree runs (`Tree`).  Every job runs
on both trees in turn, the tree that goes first alternating from job to job
and from pass to pass, so drift of the machine falls on both trees alike and
no process start or cold cache weighs on one of them.  It keeps each tree's
median rows, writes those of `--src` to `--out` and those of the
`--against` tree beside them as `<stem>.against.json`, and prints the
`--compare` report of the two files.

The third form lists every job whose exit code, stdout, stderr, polylines,
certify verdict or report differ between two such files, naming the fields
that differ (a field that one file does not record, such as `stderr_sha` in
files written before it was recorded, is not compared), counts in one line
the `certify` rows among them whose stdout differs with an equal verdict
and nothing else ("N certify rows differ in float digits only"), with
the largest |dD|/|D| and |dT|/|T| over their certificates, each as a
multiple of rel_old + rel_new (the tolerance of perfbench's
`checks.compare`, so a move above 1 is one that check refuses), so a
planned move of D, T and their precisions reads at a glance, prints the
summed wall seconds of each job kind (the id before its "/") and of each
command in both files, and exits 1 if a job differs, so a
change that must keep output byte-identical can be checked by replaying the
parent's tree and the change's tree, and its time moves show per kind and
per command (every `algebra` pool job has the kind `algebra`, whichever
command it runs).  Where every row of a kind or command records the same
number of passes (two or more), it prints the median of that group's
per-pass sums and their min-max beside it, so a move inside the
pass-to-pass spread reads as noise.

Every form exits 141 (128 + SIGPIPE) without a traceback when its stdout
is closed early, as in `... --compare A.json B.json | head -1`.

Only the standard library is used here; perfbench/ is read, never written.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as `foltools.cli.main` exits when stdout is closed early
PERFBENCH = ROOT / "perfbench"
PACKAGE = "foltools"
FIELDS = ("rc", "stdout_sha", "stderr_sha", "polylines_sha", "verdict_sha", "report_sha")  # what --compare compares
# certify payload fields that carry float digits; the verdict is everything else
FLOAT_KEYS = frozenset(
    {
        "divergence_integral", "divergence_integral_precision", "period", "period_precision",
        "quadrature_rel_err", "v_residual", "residual",
    }
)


def recorded_pool(workload: str) -> list[tuple[str, int]]:
    """The workload's pool entries recorded in perfbench/answers.json, as (kind, index) pairs."""
    answers = json.loads((PERFBENCH / "answers.json").read_text(encoding="utf-8"))
    return [(entry["kind"], entry["i"]) for entry in answers["workloads"][workload]["pool"]]


def load_jobs(workload: str) -> list:
    sys.path.insert(0, str(PERFBENCH))
    import gen

    jobs = [gen.POOL_JOB[kind](i) for kind, i in recorded_pool(workload)]
    return jobs + gen.NAMED_JOBS[workload]()


def job_argv(job, work: Path) -> list[str]:
    """The job's argv, its document (if it has one) written into `work`."""
    path = None
    if job.doc is not None:
        path = work / (job.id.replace("/", "_") + ".fol")
        path.write_text(job.doc, encoding="utf-8")
    return job.args(None if path is None else str(path))


def run_cli(cli, argv: list[str]) -> tuple[int | str, str, str]:
    """(exit code, or "crash: ..." when it raised; stdout; stderr) of one
    command run in this process."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(argv)
    except Exception as exc:  # a crash is a result, not the end of the run
        rc = f"crash: {type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue()


def import_cli(src: Path):
    sys.path.insert(0, str(src))
    cli = importlib.import_module("foltools.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"foltools was imported from {cli.__file__}, not from {src}")
    return cli


def _package_modules() -> dict:
    return {name: module for name, module in sys.modules.items() if name == PACKAGE or name.startswith(PACKAGE + ".")}


class Tree:
    """One source tree's `foltools`, imported beside another tree's in this process.

    Importing a tree first takes every `foltools` module out of
    `sys.modules`; `run` puts this tree's back while its job runs (a relative
    import made at run time then finds this tree's module) and keeps any
    module the job imported for the next run."""

    def __init__(self, src: Path):
        for name in _package_modules():
            del sys.modules[name]
        self.cli = import_cli(src)
        self.modules = _package_modules()

    def run(self, job_id: str, argv: list[str], polylines: Path | None = None, report: Path | None = None) -> dict:
        for name in _package_modules():
            del sys.modules[name]
        sys.modules.update(self.modules)
        try:
            return run_row(self.cli, job_id, argv, polylines, report)
        finally:
            self.modules = _package_modules()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _file_sha(path: Path | None) -> str:
    return _sha(path.read_bytes()) if path is not None and path.exists() else "-"


def _without_floats(value):
    if isinstance(value, dict):
        return {k: _without_floats(v) for k, v in value.items() if k not in FLOAT_KEYS}
    if isinstance(value, list):
        return [_without_floats(v) for v in value]
    return value


def verdict_sha(stdout: str) -> str:
    """Hash of a certify JSON payload without its float fields ("-" if the
    output is not JSON)."""
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "-"
    return _sha(json.dumps(_without_floats(payload), sort_keys=True).encode("utf-8"))


def certificate_floats(stdout: str) -> list[list[float]] | None:
    """[D, T, rel] of each certificate of a certify JSON payload (None if the
    output is not one)."""
    try:
        certificates = json.loads(stdout)["certificates"]
    except (ValueError, KeyError, TypeError):
        return None
    return [[c["divergence_integral"], c["period"], c["quadrature_rel_err"]] for c in certificates]


def _multiple(old: float, new: float, rel: float) -> float:
    """|new - old| / |old| as a multiple of rel (inf when rel * |old| is 0 and the value moved)."""
    gap, bound = abs(new - old), rel * abs(old)
    if not gap:
        return 0.0
    return gap / bound if bound else math.inf


def float_moves(ra: dict, rb: dict) -> tuple[float, float] | None:
    """The largest |dD|/|D| and |dT|/|T| between two certify rows'
    certificates, each as a multiple of rel_old + rel_new, the tolerance of
    perfbench's checks.compare (None unless both rows record certificates)."""
    if not (ra.get("certificates") and rb.get("certificates")):
        return None
    moves = [
        (_multiple(d0, d1, r0 + r1), _multiple(t0, t1, r0 + r1))
        for (d0, t0, r0), (d1, t1, r1) in zip(ra["certificates"], rb["certificates"])
    ]
    return max(m[0] for m in moves), max(m[1] for m in moves)


def run_row(cli, job_id: str, argv: list[str], polylines: Path | None = None, report: Path | None = None) -> dict:
    """Run one command in this process; hash its stdout and the files it wrote
    ("-" for a file it was not asked for or did not write, so each file is
    removed first)."""
    for path in (polylines, report):
        if path is not None:
            path.unlink(missing_ok=True)
    start = time.perf_counter()
    rc, stdout, stderr = run_cli(cli, argv)
    seconds = time.perf_counter() - start
    row = {
        "id": job_id,
        "command": argv[0],
        "rc": rc,
        "stdout_sha": _sha(stdout.encode("utf-8")),
        "stderr_sha": _sha(stderr.encode("utf-8")),
        "polylines_sha": _file_sha(polylines),
        "verdict_sha": verdict_sha(stdout) if argv[0] == "certify" else "-",
        "report_sha": _file_sha(report),
        "seconds": round(seconds, 4),
    }
    if argv[0] == "certify":
        row["certificates"] = certificate_floats(stdout)
    print(
        f"{row['id']:<28} {str(row['rc']):>4} {row['stdout_sha']} {row['stderr_sha']} {row['polylines_sha']:<16} "
        f"{row['verdict_sha']:<16} {row['report_sha']:<16} {row['seconds']:9.3f}",
        flush=True,
    )
    return row


def job_list(workload: str, work: Path) -> list[tuple[str, list[str], Path | None, Path | None]]:
    """`run_row`'s arguments after `cli` for every job, `paper-suite` last:
    (id, argv, polylines file or None, report file or None)."""
    out = []
    for job in load_jobs(workload):
        argv, polylines = job_argv(job, work), None
        if job.command == "ovals":
            polylines = work / (job.id.replace("/", "_") + ".polylines")
            argv += ["--emit-polylines", str(polylines)]
        out.append((job.id, argv, polylines, None))
    return out + [paper_suite_job(work)]


def paper_suite_job(work: Path) -> tuple[str, list[str], None, Path]:
    report = work / "paper-suite.json"
    return "paper-suite", ["paper-suite", "--report", str(report)], None, report


def replay(workload: str, src: Path, work: Path) -> list[dict]:
    jobs = job_list(workload, work)
    cli = import_cli(src)
    rows = [run_row(cli, *job) for job in jobs]
    print(f"{len(rows)} jobs, {sum(r['seconds'] for r in rows):.1f} s")
    return rows


def replay_against(workload: str, trees: list[Tree], work: Path, repeat: int) -> list[list[list[dict]]]:
    """passes[tree][pass]: every job run on both trees in turn, `repeat` times;
    the tree that runs a job first alternates between jobs and between passes."""
    jobs = job_list(workload, work)
    passes = [[[] for _ in range(repeat)] for _ in trees]
    for r in range(repeat):
        for k, job in enumerate(jobs):
            for t in (0, 1) if (k + r) % 2 == 0 else (1, 0):
                passes[t][r].append(trees[t].run(*job))
    return passes


def median_rows(passes: list[list[dict]]) -> tuple[list[dict], int]:
    """One row per job from several passes over the same jobs: the first
    pass's row with the median seconds of all of them, and the number of
    jobs whose FIELDS differ between passes (each named on stdout)."""
    rows, unstable = [], 0
    for same in zip(*passes, strict=True):
        if moved := [k for k in FIELDS if len({r.get(k) for r in same}) > 1]:
            print(f"{same[0]['id']}: {', '.join(moved)} differ between passes")
            unstable += 1
        seconds = [r["seconds"] for r in same]
        rows.append(dict(same[0], seconds=round(statistics.median(seconds), 4), pass_seconds=seconds))
    return rows, unstable


def compare(a_path: Path, b_path: Path) -> int:
    a = {r["id"]: r for r in json.loads(a_path.read_text(encoding="utf-8"))}
    b = {r["id"]: r for r in json.loads(b_path.read_text(encoding="utf-8"))}
    differ = float_only = 0
    moves = {}  # job id -> its float_moves, for the rows that differ in float digits only
    for job_id in sorted(a.keys() | b.keys()):
        ra, rb = a.get(job_id), b.get(job_id)
        if ra is None or rb is None:
            print(f"{job_id}: only in {a_path if rb is None else b_path}")
        elif moved := [k for k in FIELDS if k in ra and k in rb and ra[k] != rb[k]]:
            print(f"{job_id}: " + ", ".join(f"{k} {ra.get(k)} -> {rb.get(k)}" for k in moved))
            if moved == ["stdout_sha"] and ra.get("verdict_sha", "-") != "-":
                float_only += 1
                if (move := float_moves(ra, rb)) is not None:
                    moves[job_id] = move
        else:
            continue
        differ += 1
    if float_only:
        print(f"{float_only} certify rows differ in float digits only")
    if moves:
        d_job, t_job = (max(moves, key=lambda job: moves[job][k]) for k in (0, 1))
        print(
            f"largest move as a multiple of rel_old + rel_new: |dD|/|D| {moves[d_job][0]:.3g} ({d_job}), "
            f"|dT|/|T| {moves[t_job][1]:.3g} ({t_job})"
        )
    for title, key in (("job kind", job_kind), ("command", job_command)):
        columns = [_group_seconds(rows.values(), key) for rows in (a, b)]
        print(f"seconds per {title}, {a_path.name} | {b_path.name}:")
        for name in sorted(columns[0].keys() | columns[1].keys()):
            print(f"  {name:<26} " + " | ".join(column.get(name, f"{0.0:8.3f}") for column in columns))
    time_a, time_b = (sum(r["seconds"] for r in rows.values()) for rows in (a, b))
    print(f"{differ} of {len(a.keys() | b.keys())} job(s) differ; {time_a:.1f} s -> {time_b:.1f} s")
    return 1 if differ else 0


def job_kind(r) -> str:
    """The job kind, the id up to its first "/" (`ovals`, `certify`, a named
    job's name, `paper-suite`)."""
    return r["id"].split("/", 1)[0]


def job_command(r) -> str:
    """The CLI command; rows written before commands were recorded read "-"."""
    return r.get("command", "-")


def seconds_by(rows, key) -> dict[str, float]:
    """Summed wall seconds per group, `key` naming each row's group."""
    out: dict[str, float] = {}
    for r in rows:
        name = key(r)
        out[name] = out.get(name, 0.0) + r["seconds"]
    return out


def pass_sums(rows, key) -> dict[str, list[float]]:
    """Each group's summed seconds in every pass, for the groups whose rows
    all record the same number of passes, two or more."""
    groups: dict[str, list] = {}
    for r in rows:
        groups.setdefault(key(r), []).append(r.get("pass_seconds") or [])
    return {
        name: [sum(p) for p in zip(*lists)]
        for name, lists in groups.items()
        if len({len(seconds) for seconds in lists}) == 1 and len(lists[0]) > 1
    }


def _group_seconds(rows, key) -> dict[str, str]:
    """The --compare column of each group: the median of its per-pass sums
    and their min-max where `pass_sums` has them, else its summed seconds."""
    rows = list(rows)
    out = {name: f"{total:8.3f}" for name, total in seconds_by(rows, key).items()}
    for name, sums in pass_sums(rows, key).items():
        out[name] = f"{statistics.median(sums):8.3f} [{min(sums):.3f}-{max(sums):.3f}]"
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("algebra", "geometry"))
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="source tree holding foltools/")
    parser.add_argument("--out", type=Path, help="write the rows as JSON here")
    parser.add_argument("--work", type=Path, help="where to make the temporary directory for the generated documents (created if missing)")
    parser.add_argument("--repeat", type=int, default=1, metavar="N", help="run the job list N times; record each job's median seconds")
    parser.add_argument("--against", type=Path, metavar="DIR", help="also replay this source tree in this process, both trees job by job")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload or --compare is required")
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if args.against and not args.out:
        parser.error("--against needs --out")
    if args.work:
        args.work.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=args.work) as tmp:
        if args.against is None:
            passes = [[replay(args.workload, args.src, Path(tmp)) for _ in range(args.repeat)]]
        else:
            trees = [Tree(args.against), Tree(args.src)]
            passes = replay_against(args.workload, trees, Path(tmp), args.repeat)
    results = [median_rows(p) for p in passes]  # the --src tree's last
    unstable = sum(u for _, u in results)
    if unstable:
        print(f"{unstable} job(s) differ between passes")
    if args.out:
        args.out.write_text(json.dumps(results[-1][0], indent=1) + "\n", encoding="utf-8")
    if args.against:
        base = args.out.with_name(args.out.stem + ".against.json")
        base.write_text(json.dumps(results[0][0], indent=1) + "\n", encoding="utf-8")
        return max(compare(base, args.out), 1 if unstable else 0)
    return 1 if unstable else 0


if __name__ == "__main__":
    try:
        code = main()
        if sys.stdout is not None:  # None when the process started with no stdout at all
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (e.g. `| head -1`): point stdout at devnull
        # so the flush at interpreter exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)
