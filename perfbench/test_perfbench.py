"""Tests of the benchmark itself (not of foltools).

Run from the root of the checkout:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from tracing import Tracer  # noqa: E402

ANSWERS = run.load_answers()["workloads"]


def _job_list(workload: str, seed: int) -> list[tuple]:
    warm, chosen = run.select(ANSWERS[workload]["pool"], ANSWERS[workload]["named"], seed, run.JOBS_PER_RUN[workload])
    jobs = run.build_jobs(workload, warm + ANSWERS[workload]["named"] + chosen)
    return [(job.id, job.argv, job.doc) for job in jobs]


def test_same_seed_gives_byte_identical_documents():
    for workload in run.WORKLOADS:
        first, again = _job_list(workload, 7), _job_list(workload, 7)
        assert first == again
        assert first != _job_list(workload, 8)


def test_no_input_repeats_within_a_run():
    for workload in run.WORKLOADS:
        jobs = _job_list(workload, 3)
        keys = [json.dumps([argv, doc]) for _, argv, doc in jobs]
        assert len(keys) == len(set(keys))


def test_every_run_has_the_same_mix_of_known_failures():
    for workload in run.WORKLOADS:
        mixes = set()
        for seed in range(5):
            _, chosen = run.select(ANSWERS[workload]["pool"], ANSWERS[workload]["named"], seed, run.JOBS_PER_RUN[workload])
            mixes.add(sum(1 for e in chosen if not e["ok"]))
        assert len(mixes) == 1


def _named(workload: str, job_id: str) -> tuple[gen.Job, dict]:
    job = next(j for j in gen.NAMED_JOBS[workload]() if j.id == job_id)
    record = next(e for e in ANSWERS[workload]["named"] if e["id"] == job_id)
    return job, record


def test_oval_count_off_by_one_is_rejected():
    job, record = _named("geometry", "quartic-4-ovals/res256")
    right = {"count": 4, "certified_count": 4}
    assert checks.judge("ovals", 0, json.dumps(right), job.expect, record)[0]
    for count in (3, 5):
        wrong = {"count": count, "certified_count": count}
        ok, _, reason = checks.judge("ovals", 0, json.dumps(wrong), job.expect, record)
        assert not ok and "constructed" in reason


def _certify_payload(record: dict, **changes) -> str:
    cert = dict(record["summary"]["certificates"][0], hyperbolic=True, **changes)
    return json.dumps(
        {
            "oval_count": 1,
            "certificates": [cert],
            "location": [{"oval_id": 0, "residual": 1e-15, "pass": True}],
        }
    )


def test_flipped_stability_sign_is_rejected():
    job, record = _named("geometry", "eee-circle/default")
    assert checks.judge("certify", 0, _certify_payload(record), job.expect, record)[0]
    seed_cert = record["summary"]["certificates"][0]
    flipped = "Stable" if seed_cert["stability"] == "Unstable" else "Unstable"
    assert not checks.judge("certify", 0, _certify_payload(record, stability=flipped), job.expect, record)[0]
    negated = -seed_cert["divergence_integral"]
    assert not checks.judge(
        "certify", 0, _certify_payload(record, divergence_integral=negated, stability=flipped), job.expect, record
    )[0]


def test_divergence_integral_beyond_rel_err_is_rejected():
    job, record = _named("geometry", "eee-circle/default")
    cert = record["summary"]["certificates"][0]
    moved = cert["divergence_integral"] * (1 + 10 * cert["quadrature_rel_err"])
    assert not checks.judge("certify", 0, _certify_payload(record, divergence_integral=moved), job.expect, record)[0]


def test_wrong_cofactor_is_rejected():
    entry = next(e for e in ANSWERS["algebra"]["pool"] if gen.algebra_job(e["i"]).command == "check-invariant")
    job = gen.algebra_job(entry["i"])
    bad = {"invariant": True, "certificate": {"cofactor": "x + 1"}}
    ok, _, reason = checks.judge("check-invariant", 0, json.dumps(bad), job.expect, entry)
    assert not ok and "cofactor" in reason


def test_tracer_restores_every_patched_attribute():
    sys.path.insert(0, str(run.SRC))
    cli = run.import_cli()
    modules = {n: m for n, m in sys.modules.items() if n.startswith("foltools")}

    def snapshot():
        state = {}
        for name, module in modules.items():
            for attr, value in vars(module).items():
                state[(name, attr)] = id(value)
                if isinstance(value, type) and value.__module__ == name:
                    for cattr, cvalue in vars(value).items():
                        state[(name, attr, cattr)] = id(cvalue)
        return state

    before = snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.leftovers()
        job, record = _named("algebra", "gallery-euler/example2")
        run.WORK.mkdir(parents=True, exist_ok=True)
        paths = run.write_docs([job])
        tracer.job = job.id
        rc, stdout, seconds, _ = run.run_job(cli, job, paths[job.id])
        tracer.job = None
    finally:
        tracer.restore()
        shutil.rmtree(run.WORK, ignore_errors=True)
    assert tracer.leftovers() == []
    assert snapshot() == before
    assert checks.judge(job.command, rc, stdout, job.expect, record)[0]
    self_s, _, calls = tracer.layer_times()
    assert calls["cli.run"] == 1 and calls["branches.euler_identity_check"] == 1
    assert abs(sum(self_s.values()) - tracer.root_seconds()) < 1e-9
    assert tracer.root_seconds() <= seconds
    assert tracer.counts["gaussian.mul"] > 0


def test_speed_probe_excludes_its_own_time_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampled() as clock:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.samples) >= 4  # before, after and at least two ticks inside
    assert 0 < clock.inside < 0.2
    assert abs(clock.seconds + clock.inside - clock.wall) < 1e-12
    expected = clock.seconds * speed.REF_PROBE_S / (sum(clock.samples) / len(clock.samples))
    assert abs(clock.ref_seconds - expected) < 1e-12


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns(".work", ".spans", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "algebra", "--seed", "1", "--seconds", "2", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
