"""Replay every job of a benchmark workload against one source tree.

    python3 tools/replay.py --workload geometry [--src DIR] [--out FILE.json] [--work DIR]
    python3 tools/replay.py --compare A.json B.json

The first form regenerates the workload's pool entries (the (kind, index)
pairs recorded in perfbench/answers.json) and its named jobs with
perfbench/gen.py, runs each one in this process through `foltools.cli.run`
imported from DIR (default: this checkout's src/), and prints one row per
job: id, exit code, a sha256 prefix of stdout, for an `ovals` job a sha256
prefix of the polylines it writes with `--emit-polylines` into the work
directory ("-" when it writes none), so a moved vertex shows even when the
counts do not change, for a `certify` job a sha256 prefix of its JSON payload
without the float fields in FLOAT_KEYS ("-" for other jobs), so a change that
moves only the digits of D, T and the residuals keeps it, and wall seconds;
each row also records its command (the CLI subcommand, argv[0]).  A last
row, `paper-suite`, runs `paper-suite --report` and hashes its stdout and
the JSON report it writes.  `--out` also writes the rows as JSON.  The
second form lists every job whose exit code, stdout, polylines, certify
verdict or report differ between two such files, naming the fields that
differ, prints the summed wall seconds of each job kind (the id before its
"/") and of each command in both files, and exits 1 if a job differs, so a
change that must keep output byte-identical can be checked by replaying the
parent's tree and the change's tree, and its time moves show per kind and
per command (every `algebra` pool job has the kind `algebra`, whichever
command it runs).

Only the standard library is used here; perfbench/ is read, never written.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
FIELDS = ("rc", "stdout_sha", "polylines_sha", "verdict_sha", "report_sha")  # what --compare compares
# certify payload fields that carry float digits; the verdict is everything else
FLOAT_KEYS = frozenset(
    {
        "divergence_integral", "divergence_integral_precision", "period", "period_precision",
        "quadrature_rel_err", "v_residual", "residual",
    }
)


def load_jobs(workload: str) -> list:
    sys.path.insert(0, str(PERFBENCH))
    import gen

    answers = json.loads((PERFBENCH / "answers.json").read_text(encoding="utf-8"))
    recorded = answers["workloads"][workload]
    jobs = [gen.POOL_JOB[entry["kind"]](entry["i"]) for entry in recorded["pool"]]
    return jobs + gen.NAMED_JOBS[workload]()


def import_cli(src: Path):
    sys.path.insert(0, str(src))
    cli = importlib.import_module("foltools.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"foltools was imported from {cli.__file__}, not from {src}")
    return cli


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


def run_row(cli, job_id: str, argv: list[str], polylines: Path | None = None, report: Path | None = None) -> dict:
    """Run one command in this process; hash its stdout and the files it wrote
    ("-" for a file it was not asked for or did not write)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(argv)
    except Exception as exc:  # a crash is a row, not the end of the replay
        rc = f"crash: {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    row = {
        "id": job_id,
        "command": argv[0],
        "rc": rc,
        "stdout_sha": _sha(out.getvalue().encode("utf-8")),
        "polylines_sha": _file_sha(polylines),
        "verdict_sha": verdict_sha(out.getvalue()) if argv[0] == "certify" else "-",
        "report_sha": _file_sha(report),
        "seconds": round(seconds, 4),
    }
    print(
        f"{row['id']:<28} {str(row['rc']):>4} {row['stdout_sha']} {row['polylines_sha']:<16} "
        f"{row['verdict_sha']:<16} {row['report_sha']:<16} {row['seconds']:9.3f}",
        flush=True,
    )
    return row


def paper_suite_row(cli, work: Path) -> dict:
    report = work / "paper-suite.json"
    return run_row(cli, "paper-suite", ["paper-suite", "--report", str(report)], report=report)


def replay(workload: str, src: Path, work: Path) -> list[dict]:
    jobs = load_jobs(workload)
    cli = import_cli(src)
    rows = []
    for job in jobs:
        path = None
        stem = job.id.replace("/", "_")
        if job.doc is not None:
            path = work / (stem + ".fol")
            path.write_text(job.doc, encoding="utf-8")
        argv = job.args(None if path is None else str(path))
        polylines = None
        if job.command == "ovals":
            polylines = work / (stem + ".polylines")
            argv += ["--emit-polylines", str(polylines)]
        rows.append(run_row(cli, job.id, argv, polylines))
    rows.append(paper_suite_row(cli, work))
    print(f"{len(rows)} jobs, {sum(r['seconds'] for r in rows):.1f} s")
    return rows


def compare(a_path: Path, b_path: Path) -> int:
    a = {r["id"]: r for r in json.loads(a_path.read_text(encoding="utf-8"))}
    b = {r["id"]: r for r in json.loads(b_path.read_text(encoding="utf-8"))}
    differ = 0
    for job_id in sorted(a.keys() | b.keys()):
        ra, rb = a.get(job_id), b.get(job_id)
        if ra is None or rb is None:
            print(f"{job_id}: only in {a_path if rb is None else b_path}")
        elif moved := [k for k in FIELDS if ra.get(k) != rb.get(k)]:
            print(f"{job_id}: " + ", ".join(f"{k} {ra.get(k)} -> {rb.get(k)}" for k in moved))
        else:
            continue
        differ += 1
    for title, seconds in (("job kind", kind_seconds), ("command", command_seconds)):
        sums_a, sums_b = seconds(a.values()), seconds(b.values())
        print(f"seconds per {title}, {a_path.name} | {b_path.name}:")
        for name in sorted(sums_a.keys() | sums_b.keys()):
            print(f"  {name:<26} {sums_a.get(name, 0.0):8.3f} | {sums_b.get(name, 0.0):8.3f}")
    time_a, time_b = (sum(r["seconds"] for r in rows.values()) for rows in (a, b))
    print(f"{differ} of {len(a.keys() | b.keys())} job(s) differ; {time_a:.1f} s -> {time_b:.1f} s")
    return 1 if differ else 0


def _seconds_by(rows, key) -> dict[str, float]:
    out: dict[str, float] = {}
    for r in rows:
        name = key(r)
        out[name] = out.get(name, 0.0) + r["seconds"]
    return out


def kind_seconds(rows) -> dict[str, float]:
    """Summed wall seconds per job kind, the id up to its first "/"
    (`ovals`, `certify`, a named job's name, `paper-suite`)."""
    return _seconds_by(rows, lambda r: r["id"].split("/", 1)[0])


def command_seconds(rows) -> dict[str, float]:
    """Summed wall seconds per CLI command; rows written before commands
    were recorded group under "-"."""
    return _seconds_by(rows, lambda r: r.get("command", "-"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("algebra", "geometry"))
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="source tree holding foltools/")
    parser.add_argument("--out", type=Path, help="write the rows as JSON here")
    parser.add_argument("--work", type=Path, help="where to make the temporary directory for the generated documents (created if missing)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload or --compare is required")
    if args.work:
        args.work.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=args.work) as tmp:
        rows = replay(args.workload, args.src, Path(tmp))
    if args.out:
        args.out.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
