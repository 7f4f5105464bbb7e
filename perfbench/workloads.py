"""Workload definitions and the input generator.

A workload is a fixed list of CLI jobs plus the input files they read.  The
inputs are drawn from the workload seed here, written as potential JSON
files, and hashed; the program under test only ever sees those files (or,
for `verify-bounds`, a per-job seed derived from the workload seed), never
the workload seed itself.  Why each workload exists is written down in
README.md next to this file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAX_MODE = 8
# per- runs the same code as per+ on the odd lattice at the same cost, so the
# job lists leave it out to fit two passes in a run
BCS = ("per+", "dir")


@dataclass(frozen=True)
class Job:
    """One CLI invocation.  `key` names it in references and traces."""

    key: str
    command: str
    args: tuple[str, ...]
    potential: str | None = None

    def argv(self, inputs: dict[str, Path], out: Path) -> list[str]:
        argv = [self.command, *self.args, "--out", str(out)]
        if self.potential is not None:
            argv += ["--potential", str(inputs[self.potential])]
        return argv

    @property
    def bc(self) -> str | None:
        return self.args[self.args.index("--bc") + 1] if "--bc" in self.args else None


def _gaussian_halves(rng: np.random.Generator) -> tuple[dict, dict]:
    """Independent complex Gaussians on every mode |m| <= MAX_MODE, P then Q."""
    modes = range(-MAX_MODE, MAX_MODE + 1)
    halves = []
    for _ in range(2):
        re = rng.standard_normal(len(modes))
        im = rng.standard_normal(len(modes))
        halves.append({m: complex(a, b) for m, a, b in zip(modes, re, im)})
    return halves[0], halves[1]


def _potential_json(p: dict, q: dict, norm: float) -> dict:
    """Coefficient-form potential file, scaled so its L2 norm is `norm`.

    The norm counts the even-lattice coefficients only, as the program's
    potential_norm does.
    """
    size = np.sqrt(sum(abs(v) ** 2 for m, v in (*p.items(), *q.items()) if m % 2 == 0))
    scale = norm / size

    def rows(coeffs: dict, parity: int) -> list:
        return [
            [m, (scale * v).real, (scale * v).imag]
            for m, v in sorted(coeffs.items())
            if m % 2 == parity
        ]

    return {
        "max_mode": MAX_MODE,
        "p_even": rows(p, 0),
        "q_even": rows(q, 0),
        "p_odd": rows(p, 1),
        "q_odd": rows(q, 1),
    }


def _spectral(seed: int) -> tuple[dict, dict, list[Job]]:
    p, q = _gaussian_halves(np.random.default_rng([seed, 0]))
    files = {"gauss": _potential_json(p, q, 1.0)}
    jobs = [
        Job(f"{cmd}:{bc}", cmd, ("--bc", bc, "--K", "128"), "gauss")
        for cmd in ("spectrum", "threshold", "deviations", "reconstruct")
        for bc in BCS
    ]
    return files, {}, jobs


def audit_seeds(seed: int, count: int = 2) -> list[int]:
    """Per-job battery seeds, derived from the workload seed."""
    state = np.random.SeedSequence([seed, 2]).generate_state(count)
    return [int(s) for s in state]


def _audit(seed: int) -> tuple[dict, dict, list[Job]]:
    seeds = audit_seeds(seed)
    jobs = [
        Job(f"verify-bounds:{i}", "verify-bounds", ("--window", "256", "--draws", "2", "--seed", str(s)))
        for i, s in enumerate(seeds)
    ]
    return {}, {f"verify-bounds:{i}": s for i, s in enumerate(seeds)}, jobs


def _defective(seed: int) -> tuple[dict, dict, list[Job]]:
    p, q = _gaussian_halves(np.random.default_rng([seed, 1]))
    files = {
        "p_only": _potential_json(p, {}, 0.5),
        "q_only": _potential_json({}, q, 0.5),
    }
    jobs = [
        Job(f"deviations:{bc}:{name}", "deviations", ("--bc", bc, "--K", "32"), name)
        for name in ("p_only", "q_only")
        for bc in BCS
    ]
    jobs.append(Job("reconstruct:per+:p_only", "reconstruct", ("--bc", "per+", "--K", "32"), "p_only"))
    return files, {}, jobs


WORKLOADS = {"spectral": _spectral, "audit": _audit, "defective": _defective}


@dataclass(frozen=True)
class Inputs:
    paths: dict[str, Path]
    record: dict  # name -> sha256 of the file, or the derived job seed
    jobs: list[Job]


def generate(workload: str, seed: int, directory: Path) -> Inputs:
    """Write the workload's input files under `directory` and hash them."""
    files, seeds, jobs = WORKLOADS[workload](seed)
    directory.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}
    record: dict = {}
    for name, payload in files.items():
        data = json.dumps(payload, sort_keys=True).encode()
        path = directory / f"{name}.json"
        path.write_bytes(data)
        paths[name] = path
        record[name] = "sha256:" + hashlib.sha256(data).hexdigest()
    record.update({name: f"seed:{s}" for name, s in seeds.items()})
    return Inputs(paths, record, jobs)
