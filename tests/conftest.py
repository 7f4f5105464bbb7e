"""Suite-wide check on the projection route choice.

The route is chosen by the 1-norm estimate ||V||_1 ||V^{-1}||_1 of the
eigenbasis condition.  Every operator a test sends through
riesz_projection is also checked against the 2-norm condition number
(an SVD): both must fall on the same side of SPECTRAL_COND_LIMIT.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from diracproj import projections
from diracproj.operator import eigen

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(autouse=True)
def route_choice_agrees_with_svd_condition(monkeypatch):
    estimate = projections.eigenbasis_condition
    checked = {}

    def choose(op):
        value = estimate(op)
        if id(op) not in checked:
            checked[id(op)] = op  # held, so the id is not reused within the test
            exact = float(np.linalg.cond(eigen(op)[1]))
            limit = projections.SPECTRAL_COND_LIMIT
            assert (exact > limit) == (value > limit), (
                f"route choice flips: 1-norm estimate {value:.3e}, SVD condition {exact:.3e}, limit {limit:.0e}"
            )
        return value

    monkeypatch.setattr(projections, "eigenbasis_condition", choose)


@pytest.fixture
def benchmark_cases(monkeypatch, tmp_path):
    """cases(workload, seeds): the sorted (potential path, bc, K) of every
    operator the benchmark workload builds on those seeds, with its inputs
    written by the benchmark's own generator."""
    spec = importlib.util.spec_from_file_location("benchmark_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)

    def cases(workload, seeds):
        found = set()
        for seed in seeds:
            files, _, jobs = module.WORKLOADS[workload](seed)
            for name, payload in files.items():
                path = tmp_path / f"{workload}-{seed}-{name}.json"
                path.write_text(json.dumps(payload), encoding="utf-8")
                for job in jobs:
                    if job.potential == name:
                        found.add((str(path), job.bc, int(job.args[job.args.index("--K") + 1])))
        assert found
        return sorted(found)

    return cases
