"""Record the pinned-seed references and the exact-count baseline.

    python3 perfbench/record.py

Runs every workload once at the pinned seed and writes
  reference.json        each job's checked outputs (see check.py), with the
                        numpy, scipy and BLAS fingerprint they were taken at
  baseline_counts.json  the exact per-layer counts of one traced pass

Run it only when the program's outputs or call structure change on
purpose, and say so in the change that commits the new files.
"""

from __future__ import annotations

import json
import shutil

import run
import workloads
from tracer import Tracer, layer_metrics

EXACT = ("calls", "eig_per_job", "riesz_per_disc", "route_lu_frac", "refused", "gate_refusals", "checks", "violations")


def main() -> None:
    cli = run.import_cli()
    env = run.environment()
    reference = {"seed": run.PINNED_SEED, "environment": run.reference_fingerprint(env), "workloads": {}}
    counts = {"seed": run.PINNED_SEED, "workloads": {}}
    for name in workloads.WORKLOADS:
        directory = run.WORK / f"record-{name}"
        shutil.rmtree(directory, ignore_errors=True)
        try:
            inputs = workloads.generate(name, run.PINNED_SEED, directory / "inputs")
            runner = run.Runner(cli, inputs, directory, None)
            with Tracer() as tracer:
                run.run_pass(runner, inputs.jobs, tracer)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        if runner.failures:
            raise SystemExit(f"{name}: jobs failed their gates: {runner.failures}")
        reference["workloads"][name] = {"inputs": inputs.record, "jobs": runner.digests}
        metrics = layer_metrics(tracer, len(inputs.jobs))
        counts["workloads"][name] = {k: v for k, v in metrics.items() if k.rsplit(".", 1)[-1] in EXACT}
        print(name, "recorded", flush=True)
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    (run.HERE / "baseline_counts.json").write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
