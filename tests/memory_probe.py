"""Memory of one CLI job, each measured in a fresh interpreter.

    python tests/memory_probe.py deviations --bc per+ --K 128 --potential p.json
    python tests/memory_probe.py threshold --bc dir --K 128
    python tests/memory_probe.py verify-bounds --window 4096 --draws 2

Runs `diracproj.cli.main(argv)` three times, each in its own child process:
- untraced, and prints the child's own peak resident set (VmHWM from
  /proc/self/status; a child's ru_maxrss also counts the resident set it
  inherits from its parent's fork);
- untraced after a numpy.linalg warm-up (an inverse, a QR and a matmul on a
  small stack), and prints that VmHWM too.  numpy and scipy each load their
  own OpenBLAS, and the job runs in scipy's: the warm-up wakes numpy's, so
  the difference is what a second OpenBLAS would cost the job, and about
  nothing when the job already uses numpy's;
- under tracemalloc, and prints the traced peak of each dense stage of an
  operator, in units of one dim x dim complex matrix (dim^2 * 16 bytes).
  A stage's peak is that of its first call, the one that computes (later
  calls read the operator's cache).  It counts everything the job holds
  while the stage runs, such as V while the Schur form is computed, and
  takes in the stages it calls.  The smallness scan and the bound battery,
  which have no operator, are printed in MiB alone.

The stages are operator.eigen (eigen), operator.eigenbasis_condition
(inverse and condition, which computes V^-1), operator.eigenbasis_inverse
(inverse), projections._schur_form (Schur form), projections._disc_sweep
(disc sweep, the pass over the discs of deviations and reconstruct),
resolvent.circle_norm_profile (smallness scan, the threshold scan of every
job but verify-bounds) and bounds.run_battery (battery, the whole battery of
verify-bounds).  A stage the job never enters is left out.  `--out` defaults to a temporary directory.  Not a
pytest module: it has no test_ prefix.  Needs Linux (/proc/self/status).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = r"""
import json, re, sys, tracemalloc
import diracproj.bounds, diracproj.cli, diracproj.operator, diracproj.projections, diracproj.resolvent

STAGES = {
    "eigen": (diracproj.operator, "eigen"),
    "inverse and condition": (diracproj.operator, "eigenbasis_condition"),
    "inverse": (diracproj.operator, "eigenbasis_inverse"),
    "Schur form": (diracproj.projections, "_schur_form"),
    "disc sweep": (diracproj.projections, "_disc_sweep"),
    "smallness scan": (diracproj.resolvent, "circle_norm_profile"),
    "battery": (diracproj.bounds, "run_battery"),
}
traced = sys.argv[1] == "traced"
if sys.argv[1] == "warm":
    import numpy as np

    stack = np.eye(4, dtype=complex)[None].repeat(2, axis=0)
    np.linalg.inv(stack), np.linalg.qr(stack, mode="r"), stack @ stack
peaks, dims, running = {}, {}, []  # running: each open stage's peak so far, outermost first


def wrap(stage, fn):
    def probed(*args, **kwargs):
        if running:  # reset_peak below forgets the enclosing stage's peak
            running[-1] = max(running[-1], tracemalloc.get_traced_memory()[1])
        running.append(0)
        tracemalloc.reset_peak()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = max(running.pop(), tracemalloc.get_traced_memory()[1])
            if running:
                running[-1] = max(running[-1], peak)
            if stage not in peaks:
                # the operator's dim; None for the scan and the battery, which take none
                peaks[stage], dims[stage] = peak, getattr(args[0], "dim", None) if args else None
    return probed


if traced:
    modules = [m for n, m in sys.modules.items() if n == "diracproj" or n.startswith("diracproj.")]
    for stage, (owner, name) in STAGES.items():
        fn, probed = getattr(owner, name), wrap(stage, getattr(owner, name))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if obj is fn:
                    setattr(module, attr, probed)
    tracemalloc.start()
code = diracproj.cli.main(sys.argv[2:])
tracemalloc.stop()
status = open("/proc/self/status").read()
print(json.dumps({
    "code": code,
    "vmhwm_kb": int(re.search(r"VmHWM:\s*(\d+) kB", status).group(1)),
    "stages": {stage: [peaks[stage], dims[stage]] for stage in STAGES if stage in peaks},
}))
"""


def run_child(mode: str, argv: list[str]) -> dict:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", CHILD, mode, *argv], capture_output=True, text=True, env=env)
    if proc.returncode:
        sys.exit(f"the {mode} child failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv: list[str]) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    with tempfile.TemporaryDirectory() as scratch:
        plain, warm, traced = (
            run_child(mode, argv + ([] if "--out" in argv else ["--out", str(Path(scratch) / mode)]))
            for mode in ("plain", "warm", "traced")
        )
    print(f"exit code {plain['code']}; VmHWM {plain['vmhwm_kb'] / 1024:.1f} MB, "
          f"{warm['vmhwm_kb'] / 1024:.1f} MB after a numpy.linalg warm-up")
    for stage, (peak, dim) in traced["stages"].items():
        if dim is None:
            print(f"{stage:>22}: {peak / 2**20:.2f} MiB traced")
        else:
            print(f"{stage:>22}: {peak / (16 * dim**2):5.2f} dim^2  ({peak / 2**20:.1f} MiB traced, dim {dim})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
