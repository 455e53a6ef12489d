"""foltools benchmark: seeded CLI jobs run in-process, answers checked.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload algebra --seed 1 --seconds 50 --trace 0

Workloads (why each exists is in BENCHMARK.json and perfbench/NOTES.md):
  algebra   logarithmic foliations through construct log, check-invariant,
            darboux-check, singularities, classify, euler-check, multiplicity
  geometry  `ovals --json` on curves whose oval count is known by
            construction, and `certify` on eee systems over ellipses

Every job calls `foltools.cli.run(argv)`, the function behind the
`foltools` command, on a document the benchmark generated.  The loop is
closed with one client: one process, one job at a time, no extra threads.
--seed picks which entries of a fixed, pre-recorded pool the run uses (one
per cost stratum), so every answer can be checked against construction and
against the answer recorded at the seed commit (answers.json).

--trace 0 prints the end-to-end metrics, their times in reference seconds
(speed.py: wall time scaled by the host's speed, probed while each job
runs); --trace 1 runs the same job list with per-layer spans and prints the
per-layer metrics, in plain wall time.  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import os

# pin native thread pools before numpy is imported by foltools
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import functools
import hashlib
import importlib
import io
import json
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SPANS_DIR = HERE / ".spans"
ANSWERS = HERE / "answers.json"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import speed  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

WORKLOADS = ("algebra", "geometry")
NOMINAL_SECONDS = 50  # the job lists below take about 47 s at the seed commit
# timed pool jobs per run at NOMINAL_SECONDS, one per cost stratum of the pool
JOBS_PER_RUN = {"algebra": 59, "geometry": 41}
DRAWS = 500
WARMUP_JOBS = 3  # the cheapest pool entries; never timed
SETUP_ROUNDS = 5
TAIL_BEYOND = 10  # the tail percentile keeps at least this many jobs beyond it
OVERHEAD_SAMPLE = 4  # in a traced run, every 4th job also runs untraced


class BenchError(Exception):
    """The benchmark itself cannot run (missing source, stale answers)."""


def job_sha(job: gen.Job) -> str:
    text = json.dumps([job.argv, job.doc], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_answers() -> dict:
    if not ANSWERS.is_file():
        raise BenchError(f"missing {ANSWERS.name}")
    return json.loads(ANSWERS.read_text(encoding="utf-8"))


def _profile(entries: list[dict]) -> tuple[float, ...]:
    """What a job list costs at the seed: total, median, tail and peak memory."""
    costs = [e["cost_s"] for e in entries]
    return sum(costs), hd_quantile(costs, 0.5), tail(costs)[1], max(e["rss_mib"] for e in entries)


def select(entries: list[dict], named: list[dict], seed: int, count: int) -> tuple[list[dict], list[dict]]:
    """(warm-up entries, timed pool entries) for one run.

    The warm-up jobs are the cheapest entries at the seed commit.  The rest
    of the pool is split into the entries answered right at the seed and the
    known failures, each group is sorted by seed cost and cut into
    consecutive strata (their number in proportion to the group, at least
    one for known failures), and one entry is drawn from each stratum, so
    every run holds the same mix of cheap, costly and known-failing jobs.
    Job costs span three orders of magnitude, so the seed makes DRAWS such
    draws and the run takes the most typical one: the draw whose total,
    median and tail seed cost and peak memory (with the named jobs) stray
    least, relatively, from their medians over all draws.  Every seed then
    carries the same work at the seed commit and differs only in which
    inputs represent it.
    """
    usable = [e for e in entries if not e.get("duplicate")]
    usable.sort(key=lambda e: (e["cost_s"], e["kind"], e["i"]))
    warmup, rest = usable[:WARMUP_JOBS], usable[WARMUP_JOBS:]
    count = max(2, min(count, len(rest)))
    failing = [e for e in rest if not e["ok"]]
    groups = [[e for e in rest if e["ok"]], failing]
    shares = [0, max(1, round(count * len(failing) / len(rest))) if failing else 0]
    shares[0] = count - shares[1]
    strata = []
    for group, share in zip(groups, shares):
        group.sort(key=lambda e: (e["cost_s"], e["kind"], e["i"]))
        strata += [group[k * len(group) // share : (k + 1) * len(group) // share] for k in range(share)]
    rng = random.Random(seed)
    draws = [[rng.choice(stratum) for stratum in strata] for _ in range(DRAWS)]
    profiles = [_profile(named + draw) for draw in draws]
    targets = [statistics.median(column) for column in zip(*profiles)]

    def stray(profile):
        return max(abs(v - t) / t for v, t in zip(profile, targets))

    best = min(range(DRAWS), key=lambda k: stray(profiles[k]))
    chosen = draws[best]
    rng.shuffle(chosen)
    return warmup, chosen


def run_job(cli, job: gen.Job, path: str | None) -> tuple[int | None, str, float, str]:
    """(exit code or None on a crash, stdout, seconds, crash text)."""
    out, err = io.StringIO(), io.StringIO()
    crash = ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(job.args(path))
    except Exception as exc:  # a crash is a failed job, not a failed benchmark
        rc, crash = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return rc, out.getvalue(), elapsed, crash


def import_cli():
    """Import foltools from this checkout's src/, afresh."""
    for name in [n for n in sys.modules if n == "foltools" or n.startswith("foltools.")]:
        del sys.modules[name]
    cli = importlib.import_module("foltools.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"foltools was imported from {cli.__file__}, not from {SRC}")
    return cli


def write_docs(jobs: list[gen.Job]) -> dict[str, str | None]:
    paths = {}
    for job in jobs:
        if job.doc is None:
            paths[job.id] = None
            continue
        path = WORK / (job.id.replace("/", "_") + ".fol")
        path.write_text(job.doc, encoding="utf-8")
        paths[job.id] = str(path)
    return paths


def build_jobs(workload: str, entries: list[dict]) -> list[gen.Job]:
    jobs = []
    for entry in entries:
        if "i" in entry:
            job = gen.POOL_JOB[entry["kind"]](entry["i"])
        else:
            job = next(j for j in gen.NAMED_JOBS[workload]() if j.id == entry["id"])
        if job_sha(job) != entry["sha"]:
            raise BenchError(f"{job.id}: generated input differs from the recorded one")
        jobs.append(job)
    return jobs


def setup(workload: str, answers: dict, seed: int, count: int):
    """Import, generate the inputs and warm up; returns the timed job list.

    This runs SETUP_ROUNDS times and the median round is the reported
    set-up time, so that work moved into import or generation shows.
    """
    book = answers[workload]
    rounds, walls = [], []
    for _ in range(SETUP_ROUNDS):
        with speed.Sampled() as clock:
            cli = import_cli()
            named = book["named"]
            warm, chosen = select(book["pool"], named, seed, count)
            warm_jobs = build_jobs(workload, warm)
            jobs = build_jobs(workload, named) + build_jobs(workload, chosen)
            shutil.rmtree(WORK, ignore_errors=True)
            WORK.mkdir(parents=True)
            paths = write_docs(warm_jobs + jobs)
            for job in warm_jobs:
                run_job(cli, job, paths[job.id])
        rounds.append(clock.ref_seconds)
        walls.append(clock.seconds)
    return cli, jobs, named + chosen, paths, statistics.median(rounds), statistics.median(walls)


@functools.lru_cache(maxsize=None)
def _hd_weights(n: int, q: float) -> np.ndarray:
    """Beta((n+1)q, (n+1)(1-q)) mass of each interval [(i-1)/n, i/n]."""
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    grid = np.linspace(0.0, 1.0, 20001)
    inner = grid[1:-1]
    log_pdf = (a - 1) * np.log(inner) + (b - 1) * np.log1p(-inner)
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_pdf - log_pdf.max())), [0.0]))
    cdf[-1] = cdf[-2]
    cdf /= cdf[-1]
    return np.diff(np.interp(np.arange(n + 1) / n, grid, cdf))


def hd_quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A weighted mean of all order statistics with Beta((n+1)q, (n+1)(1-q))
    weights.  Job costs in a run are spread unevenly, and on a shared 2-CPU
    host the speed of the same job drifts by tens of percent within seconds,
    so a single order statistic jumps between neighbouring jobs; the
    Harrell-Davis estimate moves smoothly.
    """
    return float(np.dot(_hd_weights(len(values), q), np.sort(np.asarray(values, dtype=float))))


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with TAIL_BEYOND jobs beyond it."""
    n = len(times)
    q = max(1, n - TAIL_BEYOND) / n
    return 100.0 * q, hd_quantile(times, q)


def execute(cli, jobs, records, paths, tracer=None, sampled=False):
    """Run every job once; returns per-job (seconds, ok, known failure, reason, wall seconds).

    With `sampled`, seconds are reference seconds (speed.py) and wall
    seconds exclude the probes; otherwise both are the plain wall time.
    """
    results = []
    for job, record in zip(jobs, records):
        if tracer is not None:
            tracer.job = job.id
        if sampled:
            with speed.Sampled() as clock:
                rc, stdout, _, crash = run_job(cli, job, paths[job.id])
            seconds, wall = clock.ref_seconds, clock.seconds
        else:
            rc, stdout, seconds, crash = run_job(cli, job, paths[job.id])
            wall = seconds
        if tracer is not None:
            tracer.job = None
        ok, _, reason = checks.judge(job.command, rc, stdout, job.expect, record)
        results.append((seconds, ok, not record["ok"], crash or reason, wall))
    return results


def environment() -> dict:
    """What a reader needs to compare two runs; no gate uses it."""
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "cpus": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_omp_threads": os.environ["OMP_NUM_THREADS"],
        "loop": "closed, one client",
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "foltools").glob("*.py")),
    }


def end_to_end(results, setup_s: float, setup_wall_s: float) -> tuple[dict, dict]:
    """The end-to-end metrics, in reference seconds; job times exclude the answer checks."""
    times = [r[0] for r in results]
    walls = [r[4] for r in results]
    failed = sum(1 for r in results if not r[1])
    pct, value = tail(times)
    return {
        "setup_s": (setup_s, "s"),
        "throughput_jobs_per_s": (len(times) / sum(times), "jobs/s"),
        "job_p50_s": (hd_quantile(times, 0.5), "s"),
        "job_tail_s": (value, "s"),
        "correct_ratio": (1 - failed / len(times), "ratio"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }, {
        "tail_percentile": pct,
        "jobs": len(times),
        "failed_ratio": failed / len(times),
        "host_speed_vs_ref": sum(times) / sum(walls),
        "wall_throughput_jobs_per_s": len(walls) / sum(walls),
        "wall_job_p50_s": hd_quantile(walls, 0.5),
        "wall_job_tail_s": tail(walls)[1],
        "wall_setup_s": setup_wall_s,
    }


def measure(args) -> tuple[dict, list[str]]:
    """One run: the result object and the human-readable report lines."""
    answers = load_answers()
    count = max(4, round(JOBS_PER_RUN[args.workload] * args.seconds / NOMINAL_SECONDS))
    cli, jobs, records, paths, setup_s, setup_wall_s = setup(args.workload, answers["workloads"], args.seed, count)
    if not args.trace:
        results = execute(cli, jobs, records, paths, sampled=True)
        metrics, info = end_to_end(results, setup_s, setup_wall_s)
        harness_ok = True
    else:
        # every OVERHEAD_SAMPLE-th job also runs untraced before the traced
        # pass; trace.overhead_ratio compares the two times of those jobs
        sample = list(range(0, len(jobs), OVERHEAD_SAMPLE))
        plain = execute(cli, [jobs[k] for k in sample], [records[k] for k in sample], paths)
        tracer = Tracer()
        tracer.install()
        try:
            results = execute(cli, jobs, records, paths, tracer)
        finally:
            tracer.restore()
        leftovers = tracer.leftovers()
        overhead = sum(results[k][0] for k in sample) / sum(r[0] for r in plain)
        # every second of a traced job belongs to exactly one layer's self time
        self_total = sum(tracer.layer_times()[0].values())
        roots = tracer.root_seconds()
        job_total = sum(r[0] for r in results)
        harness_ok = not leftovers and abs(self_total - roots) <= 1e-6 * max(roots, 1.0) and roots <= job_total
        metrics = layer_metrics(tracer)
        metrics["trace.overhead_ratio"] = (overhead, "ratio")
        info = {"self_s_total": self_total, "cli_run_s_total": roots, "traced_job_s_total": job_total, "leftover_patches": len(leftovers)}
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.dump(SPANS_DIR / f"{args.workload}-seed{args.seed}.tsv")
    shutil.rmtree(WORK, ignore_errors=True)

    new_failures = [(job.id, r[3]) for job, r in zip(jobs, results) if not r[1] and not r[2]]
    lines = [f"workload {args.workload}  seed {args.seed}  jobs {len(jobs)}  trace {args.trace}"]
    lines.append("  " + "  ".join(f"{k}={v}" for k, v in environment().items()))
    for job, record, r in zip(jobs, records, results):
        if "i" not in record:
            lines.append(f"  named job {job.id:28s} {r[0]:9.4f} s  {'ok' if r[1] else 'FAILED: ' + r[3]}")
    lines += [f"  NEW FAILURE {job_id}: {reason}" for job_id, reason in new_failures]
    lines += [f"  {name:42s} {value:14.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines += [f"  ({name} = {value:.6g})" for name, value in info.items()]
    result = {
        "correct": harness_ok and not new_failures,
        "attempted": len(results),
        "failed": sum(1 for r in results if not r[1]),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=NOMINAL_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "foltools" / "cli.py").is_file():
        print(f"error: no foltools source under {SRC}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    try:
        result, lines = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
