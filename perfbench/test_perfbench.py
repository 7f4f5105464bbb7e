"""The benchmark's own tests: exact counts, the count baseline, the checker.

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload runs traced twice on the pinned seed, so this takes about four
minutes on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

BASELINE = json.loads((HERE / "baseline_counts.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def traced(workload: str) -> tuple[dict, dict]:
    result = result_of(bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "1"))
    spans = json.loads((ROOT / ".perfbench_out" / f"spans-{workload}-seed0.json").read_text(encoding="utf-8"))
    return result, spans


def exact(result: dict, workload: str) -> dict:
    return {k: result["metrics"][k]["value"] for k in BASELINE["workloads"][workload]}


def per_job(spans: dict) -> dict[int, dict]:
    """Counts, riesz contours and routes of every traced job, by job id."""
    jobs: dict[int, dict] = defaultdict(lambda: {"calls": Counter(), "contours": set(), "routes": []})
    for s in spans["spans"]:
        jobs[s[2]]["calls"][s[3]] += 1
        if s[3] == "projections.riesz_projection":
            jobs[s[2]]["contours"].add(tuple(s[7]["contour"]))
    for job, name, n in spans["counts"]:
        jobs[job]["calls"][name] += n
    owner = {s[0]: s[2] for s in spans["spans"]}
    for sid, lu in tracer.riesz_routes(spans["spans"]).items():
        jobs[owner[sid]]["routes"].append(lu)
    return {job: {"key": spans["job_keys"][job], **data} for job, data in jobs.items() if job >= 0}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_counts_repeat_and_match_the_baseline(workload):
    first, _ = traced(workload)
    second, spans = traced(workload)
    assert first["correct"] and second["correct"]
    assert exact(first, workload) == exact(second, workload)
    assert exact(second, workload) == BASELINE["workloads"][workload]

    jobs = per_job(spans)
    assert len(jobs) == len(workloads.WORKLOADS[workload](0)[2])
    for job in jobs.values():
        command, bc = job["key"].split(":")[:2]
        calls = job["calls"]
        if command in ("spectrum", "deviations"):
            assert calls["operator.eig"] == 2, job["key"]
        if command == "deviations":
            assert calls["resolvent.find_threshold_n"] == 2, job["key"]
        if command == "reconstruct":
            assert calls["projections.riesz_projection"] == 2 * len(job["contours"]), job["key"]
        if job["routes"]:
            on_lu = workload == "defective" and bc != "dir"
            assert all(job["routes"]) if on_lu else not any(job["routes"]), job["key"]


def test_corrupted_reference_fails_jobs():
    done = bench("--workload", "defective", "--seed", "0", "--seconds", "1", "--corrupt")
    result = result_of(done)
    assert "reference=applied" in done.stdout.splitlines()[0]
    assert result["failed"] > 0 and not result["correct"]


def test_refuses_to_run_without_the_package():
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = bench("--workload", "audit", "--seed", "0", "--seconds", "1", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
