"""The benchmark command: one workload's job list through `diracproj.cli.main`.

    python3 perfbench/run.py --workload spectral --seed 0 --seconds 17 --trace 0

Jobs run in-process, one after another (a closed loop with one client),
after one untimed warm-up job.  Whole passes over the job list repeat until
`--seconds` have gone by, so the last pass may end after that.
Every job's outputs are checked (check.py).  BLAS keeps its default thread
count, which is recorded with the rest of the environment.

With `--trace 0` the last stdout line carries the end-to-end metrics.  With
`--trace 1` one untraced and one traced pass run, and the last line carries
the per-layer metrics of the traced pass plus the tracing overhead (traced
minus untraced job time).  Every metric is also printed on its own line
with its unit, and the full result, including the environment and input
hashes, is written under `.perfbench_out/`.  README.md explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import check
import workloads
from tracer import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"

PINNED_SEED = 0
SETUP_REPEATS = 5
JOB_METRICS = {
    "spectrum": "spectrum_s",
    "threshold": "threshold_s",
    "deviations": "deviations_s",
    "reconstruct": "reconstruct_s",
    "verify-bounds": "verify_bounds_s",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--corrupt",
        action="store_true",
        help="self-test: perturb one reference value first; the run must report failed jobs",
    )
    return parser.parse_args(argv)


# -- environment -------------------------------------------------------------------

def _blas_libraries() -> list[dict]:
    """Loaded OpenBLAS builds with their runtime configuration and thread count."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for key, names, restype in (
            ("config", ("scipy_openblas_get_config64_", "scipy_openblas_get_config", "openblas_get_config"), ctypes.c_char_p),
            ("threads", ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"), ctypes.c_int),
        ):
            for name in names:
                fn = getattr(lib, name, None)
                if fn is not None:
                    fn.argtypes = []
                    fn.restype = restype
                    value = fn()
                    entry[key] = value.decode() if isinstance(value, bytes) else value
                    break
        found.append(entry)
    return found


def _git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    """Hash of the package sources; names the code where git is absent."""
    h = hashlib.sha256()
    for path in sorted((SRC / "diracproj").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return "sha256:" + h.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    blas_build = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
        },
        "blas_vendor": blas_build.get("name"),
        "blas_version": blas_build.get("version"),
        "blas": _blas_libraries(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "source": _source_digest(),
    }


def reference_fingerprint(env: dict) -> dict:
    """What must match for results to agree to the last bit with the references."""
    return {k: env[k] for k in ("numpy", "scipy", "blas")}


# -- set-up ------------------------------------------------------------------------

def measure_setup() -> float:
    """Median time for a fresh interpreter to import the CLI with numpy and scipy."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import diracproj.cli"]
    subprocess.run(cmd, env=env, check=True, timeout=120)  # writes bytecode caches
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def import_cli():
    sys.path.insert(0, str(SRC))
    import diracproj
    import diracproj.cli

    if Path(diracproj.__file__).resolve().parent != SRC / "diracproj":
        raise RuntimeError(f"imported diracproj from {diracproj.__file__}, not from {SRC}")
    return diracproj.cli


# -- jobs --------------------------------------------------------------------------

class Runner:
    """Runs jobs, checks their outputs and keeps the tallies of one run."""

    def __init__(self, cli, inputs: workloads.Inputs, directory: Path, references: dict | None):
        self.cli = cli
        self.inputs = inputs
        self.directory = directory
        self.references = references
        self.failures: list[str] = []
        self.keys: list[str] = []  # job key by job id
        self.digests: dict[str, dict] = {}  # latest checked outputs by job key

    def run(self, job: workloads.Job, tracer: Tracer | None = None) -> float:
        job_id = len(self.keys)
        self.keys.append(job.key)
        out = self.directory / f"job{job_id}"
        argv = job.argv(self.inputs.paths, out)
        gc.collect()
        start = time.perf_counter()
        try:
            rc = tracer.job_span(job_id, lambda: self.cli.main(argv)) if tracer else self.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crash is a failed job; the run goes on
            rc = "crash: " + traceback.format_exc(limit=3)
        seconds = time.perf_counter() - start
        problems = self._check(job, rc, out)
        if problems:
            self.failures.append(f"{job.key}: " + "; ".join(problems[:3]))
        shutil.rmtree(out, ignore_errors=True)
        return seconds

    def _check(self, job: workloads.Job, rc, out: Path) -> list[str]:
        if not isinstance(rc, int):
            return [str(rc)]
        try:
            got = check.digest(job.command, rc, out)
        except (OSError, ValueError, KeyError) as exc:
            return [f"unreadable outputs: {exc!r}"]
        self.digests[job.key] = got
        problems = check.gates(job.command, job.bc, got)
        if self.references is not None:
            problems += check.compare(got, self.references[job.key])
        return problems


def load_references(workload: str, seed: int, inputs: workloads.Inputs, env: dict, corrupt: bool):
    """Reference digests for this run, or None with the reason they do not apply."""
    if seed != PINNED_SEED:
        return None, f"seed {seed} is not the pinned seed {PINNED_SEED}"
    recorded = json.loads(REFERENCE.read_text(encoding="utf-8"))
    if recorded["environment"] != reference_fingerprint(env):
        return None, "numpy, scipy or BLAS build or thread count differs from the references'"
    entry = recorded["workloads"][workload]
    references = entry["jobs"]
    if entry["inputs"] != inputs.record:
        # the generator no longer makes the recorded inputs: every job fails
        references = {key: {"exit": "inputs differ from the reference inputs"} for key in references}
    if corrupt:
        corrupt_one(references[inputs.jobs[-1].key])
    return references, "applied"


def corrupt_one(reference: dict) -> None:
    """Move the first float cell of the reference 1000 tolerances away."""
    for name, rows in reference["csv"].items():
        for kind_index, kind in enumerate(check.CSV_KINDS[name]):
            if kind in ("rel", "eig"):
                value = float(rows[1][kind_index])
                rows[1][kind_index] = repr(value * (1 + 1000 * check.REL_TOL) + 1000 * check.REL_TOL)
                return
    raise ValueError("reference holds no float cell to corrupt")


# -- metrics -------------------------------------------------------------------------

def run_pass(runner: Runner, jobs, tracer: Tracer | None = None) -> list[float]:
    return [runner.run(job, tracer) for job in jobs]


def end_to_end(passes: list[list[float]], jobs, setup_s: float) -> tuple[dict, dict]:
    """The gated metrics of BENCHMARK.json, and the job times that are only printed.

    A subcommand's job time exists only on workloads that run it, so it
    cannot be a gated metric, which every workload must report.
    """
    gated = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(sum(p) for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    printed = {}
    for command, name in JOB_METRICS.items():
        times = [t for p in passes for job, t in zip(jobs, p) if job.command == command]
        if times:
            printed[name] = (statistics.median(times), "s")
    return gated, printed


def per_layer(tracer: Tracer, jobs, untraced: list[float], traced: list[float]) -> dict:
    units = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    values = layer_metrics(tracer, len(jobs))
    values["tracing_overhead_s"] = sum(traced) - sum(untraced)
    return {m["name"]: (values[m["name"]], m["unit"]) for m in units}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "diracproj" / "cli.py").is_file():
        print(f"perfbench: no package sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.corrupt and args.seed != PINNED_SEED:
        print(f"perfbench: --corrupt needs the pinned seed {PINNED_SEED}", file=sys.stderr)
        return 2

    setup_s = measure_setup()
    cli = import_cli()
    env = environment()
    directory = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(directory, ignore_errors=True)
    try:
        inputs = workloads.generate(args.workload, args.seed, directory / "inputs")
        references, reference_status = load_references(args.workload, args.seed, inputs, env, args.corrupt)
        runner = Runner(cli, inputs, directory, references)
        jobs = inputs.jobs

        runner.run(jobs[0])  # warm-up, untimed
        tracer = None
        if args.trace:
            untraced = run_pass(runner, jobs)
            with Tracer() as tracer:
                traced = run_pass(runner, jobs, tracer)
            passes = [untraced, traced]
            metrics, printed = per_layer(tracer, jobs, untraced, traced), {}
        else:
            passes = []
            start = time.perf_counter()
            while not passes or time.perf_counter() - start < args.seconds:
                passes.append(run_pass(runner, jobs))
            metrics, printed = end_to_end(passes, jobs, setup_s)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    # 0 on a healthy run, so not a gated metric: the result line carries the
    # failures as `failed` and `attempted`
    printed["failed_frac"] = (len(runner.failures) / len(runner.keys), "ratio")

    result = {
        "correct": not runner.failures,
        "attempted": len(runner.keys),
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        **result,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "jobs": [job.key for job in jobs],
        "job_seconds": passes,
        "failures": runner.failures,
        "printed": {name: value for name, (value, _) in printed.items()},
        "reference": reference_status,
        "inputs": inputs.record,
        "environment": env,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    if tracer is not None:
        spans = {
            "job_keys": runner.keys,
            "spans": tracer.spans,
            "counts": [[job, name, n] for (job, name), n in sorted(tracer.counts.items())],
        }
        (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(spans), encoding="utf-8")

    print(
        f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
        f"passes={len(passes)} jobs={len(jobs)} reference={reference_status}"
    )
    print("environment " + json.dumps(env, sort_keys=True))
    print("inputs " + json.dumps(inputs.record, sort_keys=True))
    for failure in runner.failures:
        print("FAILED " + failure)
    for name, (value, unit) in {**metrics, **printed}.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
