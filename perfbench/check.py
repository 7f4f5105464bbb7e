"""Output checker: every job's files against references and the program's gates.

A job's outputs are reduced to a digest (exit code, CSV cells as printed,
and the result keys of the JSON files).  On the pinned seed the digest is
compared with the recorded reference, cell by cell, by the kind of its
column:

  int   integers (thresholds, ranks, disc labels, counts, exit codes): exact
  str   names and parameter strings: exact
  rel   deviations, norms, bound sides and ratios: within REL_TOL relative
  eig   an eigenvalue's (re, im) pair: |z - z_ref| <= REL_TOL * max(1, |z_ref|)
  tiny  roundoff-level errors (a converged reconstruction): at most TINY_CEILING
  err   a reconstruction error that falls to roundoff as the window grows:
        `rel` while the reference is at or above TINY_CEILING, `tiny` below it

TINY_CEILING sits well above where the routes end: about 5e-13 on the
spectral route and 5e-9 on the defective LU route.  On every seed, pinned or
not, the program's own gates are applied as well.

Repeated runs at one BLAS thread count give byte-identical CSVs.  Changing
the count changes the order of floating-point reductions: on seed 0, going
from 2 threads to 1 moved dir K=128 deviations by up to 4.0e-12 relative and
reconstruction errors near 1e-6 by up to 1e-6 relative.  So the references
are compared only where the BLAS builds and thread counts match the ones
they were recorded with.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REL_TOL = 1e-12
TINY_CEILING = 1e-7

CSV_KINDS = {
    "spectrum.csv": ("eig", "eig", "int"),
    "localization.csv": ("int", "int"),
    "threshold.csv": ("int", "rel"),
    "deviations.csv": ("int", "int", "rel", "rel"),
    "reconstruction.csv": ("int", "err"),
    "excursions.csv": ("int", "rel", "tiny"),
    "bounds.csv": ("str", "str", "rel", "rel", "rel"),
}

OUTPUTS = {
    "spectrum": ("spectrum.csv", "localization.csv"),
    "threshold": ("threshold.csv",),
    "deviations": ("deviations.csv",),
    "reconstruct": ("reconstruction.csv", "excursions.csv"),
    "verify-bounds": ("bounds.csv",),
}

# result keys of run.json (timings, versions and paths are not results)
RUN_KINDS = {
    "dim": "int",
    "threshold_N": "int",
    "N_used": "int",
    "M_used": "int",
    "samples_per_circle": "int",
    "localization_verified_beyond_N": "int",
    "checks": "int",
    "violations": "int",
    "potential_norm": "rel",
    "tail_sum": "rel",
    "worst_ratios": "rel",
}

UNCONDITIONALITY_KINDS = {
    "trials": "int",
    "seed": "int",
    "base_error": "tiny",
    "max_reordered_error": "tiny",
    "max_partial_sum_spread": "rel",
    "bari_markus_tail": "rel",
    "f_norm": "rel",
    "excursion_constant": "rel",
}


def digest(command: str, exit_code: int, out: Path) -> dict:
    """Reduce one job's output directory to the values that are checked."""
    d: dict = {"exit": exit_code, "csv": {}, "run": {}}
    if exit_code != 0:
        return d
    for name in OUTPUTS[command]:
        lines = (out / name).read_text(encoding="utf-8").splitlines()
        d["csv"][name] = [line.split(",") for line in lines]
    run = json.loads((out / "run.json").read_text(encoding="utf-8"))
    d["run"] = {k: run[k] for k in RUN_KINDS if k in run}
    if command == "reconstruct":
        unc = json.loads((out / "unconditionality.json").read_text(encoding="utf-8"))
        d["unconditionality"] = {k: unc[k] for k in UNCONDITIONALITY_KINDS}
    return d


def _same(kind: str, got, ref) -> bool:
    if kind in ("int", "str"):
        return got == ref
    got, ref = float(got), float(ref)
    if not math.isfinite(got):
        return False
    if kind == "tiny" or (kind == "err" and abs(ref) < TINY_CEILING):
        return abs(got) <= TINY_CEILING
    return abs(got - ref) <= REL_TOL * abs(ref)


def compare(got: dict, ref: dict) -> list[str]:
    """Differences between a job's digest and its reference; empty if none."""
    problems: list[str] = []
    if got["exit"] != ref["exit"]:
        return [f"exit code {got['exit']} != {ref['exit']}"]
    for name, ref_rows in ref["csv"].items():
        rows = got["csv"].get(name)
        if rows is None or len(rows) != len(ref_rows) or rows[0] != ref_rows[0]:
            problems.append(f"{name}: shape or header differs from the reference")
            continue
        kinds = CSV_KINDS[name]
        for i, (row, ref_row) in enumerate(zip(rows[1:], ref_rows[1:]), start=1):
            if len(row) != len(ref_row):
                problems.append(f"{name} row {i}: {len(row)} cells, reference has {len(ref_row)}")
                continue
            if kinds[:2] == ("eig", "eig"):
                z, z_ref = complex(float(row[0]), float(row[1])), complex(float(ref_row[0]), float(ref_row[1]))
                if not abs(z - z_ref) <= REL_TOL * max(1.0, abs(z_ref)):
                    problems.append(f"{name} row {i}: eigenvalue {z} != {z_ref}")
                cells = zip(kinds[2:], row[2:], ref_row[2:])
            else:
                cells = zip(kinds, row, ref_row)
            for kind, cell, ref_cell in cells:
                if not _same(kind, cell, ref_cell):
                    problems.append(f"{name} row {i}: {cell!r} != {ref_cell!r} ({kind})")
    for section, kinds in (("run", RUN_KINDS), ("unconditionality", UNCONDITIONALITY_KINDS)):
        for key, ref_value in ref.get(section, {}).items():
            value = got.get(section, {}).get(key)
            if isinstance(ref_value, dict):
                ok = isinstance(value, dict) and value.keys() == ref_value.keys() and all(
                    _same(kinds[key], value[k], ref_value[k]) for k in ref_value
                )
            else:
                ok = value is not None and _same(kinds[key], value, ref_value)
            if not ok:
                problems.append(f"{section}.{key}: {value!r} != {ref_value!r}")
    return problems


def gates(command: str, bc: str | None, got: dict) -> list[str]:
    """The program's own acceptance gates, which hold on every seed."""
    if got["exit"] != 0:
        return [f"exit code {got['exit']}"]
    problems: list[str] = []
    csv = got["csv"]
    run = got["run"]
    for name, rows in csv.items():
        for row in rows[1:]:
            for kind, cell in zip(CSV_KINDS[name], row):
                if kind in ("rel", "eig", "tiny", "err") and not math.isfinite(float(cell)):
                    problems.append(f"{name}: non-finite value {cell!r}")
    if command == "spectrum" and len(csv["spectrum.csv"]) - 1 != run["dim"]:
        problems.append("spectrum.csv does not list one eigenvalue per basis vector")
    if command == "deviations":
        expected = 1 if bc == "dir" else 2
        if run["localization_verified_beyond_N"] is not True:
            problems.append("localization_verified_beyond_N is not true")
        ranks = {int(row[1]) for row in csv["deviations.csv"][1:]}
        if ranks - {expected}:
            problems.append(f"disc ranks {sorted(ranks)} != {expected}")
        if not csv["deviations.csv"][1:]:
            problems.append("no discs beyond the threshold")
    if command == "reconstruct":
        unc = got["unconditionality"]
        for key in ("base_error", "max_reordered_error"):
            if not unc[key] <= TINY_CEILING:
                problems.append(f"{key} {unc[key]:.3e} exceeds {TINY_CEILING:.0e}")
    if command == "verify-bounds" and run["violations"] != 0:
        problems.append(f"{run['violations']} bound violations")
    return problems
