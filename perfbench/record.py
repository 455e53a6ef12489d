"""Record the reference answers, seed costs and memory of every pool entry.

Run once, at the commit whose answers become the reference:

    python3 perfbench/record.py [workload ...]

It writes perfbench/answers.json.  Every pool entry and named job runs in a
fresh interpreter of its own, three times in a row.  For each one the file
keeps a hash of the generated input, the median time in reference seconds
(cost_s, see speed.py), the
peak resident memory after the first run (rss_mib), whether the answer was
right by construction, and the mathematical answer later commits are
compared against.  cost_s and rss_mib are used only to compose balanced job
lists (run.select); no metric reads them.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time

import run
import speed
from run import ANSWERS, SRC, WORK, checks, gen, job_sha, run_job

POOL_SIZE = {"algebra": 160, "ovals": 112, "certify": 80}  # per job kind
REPEATS = 3


def _job(name: str, key: str) -> gen.Job:
    """Pool entry `key` of job kind `name`, or named job `key` of workload `name`."""
    if key.isdigit():
        return gen.POOL_JOB[name](int(key))
    return next(j for j in gen.NAMED_JOBS[name]() if j.id == key)


def record_one(name: str, key: str) -> dict:
    """Run one job REPEATS times in this process and describe it."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    cli = run.import_cli()
    job = _job(name, key)
    WORK.mkdir(parents=True, exist_ok=True)
    path = run.write_docs([job])[job.id]
    times, answers = [], []
    for k in range(REPEATS):
        with speed.Sampled() as clock:
            rc, stdout, _, crash = run_job(cli, job, path)
        if k == 0:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        times.append(clock.ref_seconds)
        answers.append(checks.judge(job.command, rc, stdout, job.expect, None))
    ok, summary, reason = answers[0]
    if any(a[:2] != answers[0][:2] for a in answers):
        ok, reason = False, "answer differs between repeats"
    entry = {
        "sha": job_sha(job),
        "cost_s": round(statistics.median(times), 4),
        "rss_mib": round(rss, 1),
        "ok": ok,
        "summary": checks.fraction_free(summary) if ok else None,
    }
    if not ok:
        entry["reason"] = crash or reason
    return entry


def record(name: str, key: str) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, "--one", name, key],
        capture_output=True,
        text=True,
        check=True,
        timeout=900,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(workloads) -> int:
    book = json.loads(ANSWERS.read_text()) if ANSWERS.is_file() else {"workloads": {}}
    for workload in workloads:
        named = []
        for job in gen.NAMED_JOBS[workload]():
            named.append({"id": job.id, **record(workload, job.id)})
            print(workload, job.id, named[-1]["cost_s"], named[-1]["ok"], flush=True)
        pool, seen = [], set()
        for kind in gen.WORKLOAD_KINDS[workload]:
            for i in range(POOL_SIZE[kind]):
                entry = {"kind": kind, "i": i, **record(kind, str(i))}
                if entry["sha"] in seen:
                    entry["duplicate"] = True
                seen.add(entry["sha"])
                pool.append(entry)
                print(kind, i, entry["cost_s"], entry["rss_mib"], entry["ok"], entry.get("reason", ""), flush=True)
        # re-read so that records of other workloads made meanwhile survive
        book = json.loads(ANSWERS.read_text()) if ANSWERS.is_file() else {"workloads": {}}
        book["workloads"][workload] = {"named": named, "pool": pool}
        ANSWERS.write_text(json.dumps(book, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--one"]:
        print(json.dumps(record_one(sys.argv[2], sys.argv[3])))
        sys.exit(0)
    started = time.time()
    code = main(sys.argv[1:] or run.WORKLOADS)
    print(f"recorded in {time.time() - started:.0f} s")
    sys.exit(code)
