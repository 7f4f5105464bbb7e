"""Batch command-line front end.

Subcommands map one-to-one onto the library's report producers:

  spectrum       eigenvalues of one truncation, with disc assignments
  deviations     per-disc projection deviations beyond a cutoff
  reconstruct    reconstruction curve plus the reordering experiment
  verify-bounds  the full inequality audit battery
  classify-bc    regularity of a two-point coupling quadruple
  threshold      smallness-test profile and the verified cutoff

Runs are reproducible by construction: a config file (JSON) plus flag
overrides (flags win) fix everything, every random draw is seeded, CSV
floats are printed with 17 significant digits, and rows are emitted in a
deterministic order, so identical config + seed gives byte-identical CSV
files.  Each subcommand writes its CSVs and returns its results; main
writes run.json once per run, with the effective config, library versions
and wall-clock timings (the one file allowed to differ between reruns)
next to those results.  For deviations and reconstruct its `gates` block holds
the projection route and the worst disc gate margins (largest idempotency
residual and |trace - rank|, smallest contour offset).

Exit codes: 0 success, 2 unusable config or arguments, 3 numerical failure
(residual, contour-proximity and quadrature-quality gates, no verified
threshold within the truncation), 4 a verified bound was violated.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import functools
import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .bounds import (
    BATTERY_CUTOFFS,
    check_elementary,
    run_battery,
    violations,
    worst_ratios,
    BoundCheck,
)
from .decomposition import disc_expansion, expand, reconstruction_curve, unconditionality_test
from .operator import (
    EigenResidualError,
    build_operator,
    classify_bc,
    disc_centers,
    eigen,
    lattice_step,
)
from .potential import (
    BC_TAGS,
    PotentialSpec,
    from_samples,
    potential_norm,
    random_potential,
)
from .projections import (
    ContourProximityError,
    ProjectionQualityError,
    deviation_report,
    localization_counts,
)
from .resolvent import (
    RECORDED_SAMPLES,
    ThresholdNotFoundError,
    circle_norm_profile,
    find_threshold_n,
    threshold_from_profile,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_BOUNDS = 4

NUMERICAL_ERRORS = (
    EigenResidualError,
    ContourProximityError,
    ProjectionQualityError,
    ThresholdNotFoundError,
)


class ConfigError(Exception):
    pass


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Effective knobs of one run after merging defaults, file, and flags."""

    command: str
    bc: str = "per+"
    K: int = 64
    radius: float = 0.5
    nodes: int = 64
    N: int | None = None
    seed: int = 0
    out: str = "."
    potential: str | None = None

    def __post_init__(self) -> None:
        # config values are JSON: true, 16.0 or "16" where an integer belongs is refused, not coerced
        integers, strings = ("K", "nodes", "N", "seed"), ("bc", "out", "potential")
        for kind, name, keys in ((int, "integer", integers), (str, "string", strings)):
            for key in keys:
                value = getattr(self, key)
                if type(value) is not kind and not (value is None and key in ("N", "potential")):
                    raise ConfigError(f"{key} must be a JSON {name}, got {json.dumps(value)}")
        if not _finite_number(self.radius):
            raise ConfigError(f"radius must be a finite JSON number, got {json.dumps(self.radius)}")
        if self.bc not in BC_TAGS:
            raise ConfigError(f"bc must be one of {BC_TAGS}, got {self.bc!r}")
        if self.K < 8:
            raise ConfigError("K must be an integer >= 8")
        if not (0 < self.radius <= 0.5):
            raise ConfigError("radius must lie in (0, 1/2]")
        if self.nodes < 8 or self.nodes % 2:
            raise ConfigError("nodes must be an even integer >= 8")
        if self.N is not None and self.N < 1:
            raise ConfigError("N must be a positive integer")
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")


_CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(RunConfig) if f.name != "command")


def _merge_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if args.config is not None:
        try:
            raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(raw) - set(_CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        values.update(raw)
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return RunConfig(command=args.command, **values)


def _finite_number(value) -> bool:
    """A JSON number (not a bool or a string) that fits a finite float."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def load_potential_file(path: str) -> PotentialSpec:
    """Read a potential from JSON: coefficient lists or a sample table.

    Coefficient form: {"max_mode": 8, "p_even": [[m, re, im], ...],
    "q_even": [...], "p_odd": [...], "q_odd": [...]} (odd lists optional).
    Sample form: {"max_mode": 8, "samples": [[x, reP, imP, reQ, imQ], ...]}
    with x on the uniform left-endpoint grid j*pi/count.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read potential {path}: {exc}") from None
    if not isinstance(raw, dict) or "max_mode" not in raw:
        raise ConfigError("potential file must be a JSON object with max_mode")
    max_mode = raw["max_mode"]
    if type(max_mode) is not int:  # JSON true and false load as bool, an int subclass
        raise ConfigError(f"max_mode must be a JSON integer, got {json.dumps(max_mode)}")
    if "samples" in raw:
        rows = raw["samples"]
        if not (isinstance(rows, list) and rows
                and all(isinstance(row, list) and len(row) == 5 and all(map(_finite_number, row)) for row in rows)):
            raise ConfigError("samples rows must be [x, reP, imP, reQ, imQ], five finite JSON numbers")
        arr = np.array(rows, dtype=float)
        count = arr.shape[0]
        grid = np.arange(count) * (np.pi / count)
        if np.max(np.abs(arr[:, 0] - grid)) > 1e-9:
            raise ConfigError("sample abscissae must be the uniform grid j*pi/count")
        p = arr[:, 1] + 1j * arr[:, 2]
        q = arr[:, 3] + 1j * arr[:, 4]
        try:
            return from_samples(p, q, max_mode)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def table(key: str) -> dict[int, complex]:
        rows = raw.get(key, [])
        if not isinstance(rows, list):
            raise ConfigError(f"{key} must be a list of [m, re, im] rows")
        out: dict[int, complex] = {}
        for row in rows:
            if not (isinstance(row, list) and len(row) == 3 and type(row[0]) is int
                    and all(map(_finite_number, row[1:]))):
                raise ConfigError(f"{key} rows must be [m, re, im], m an integer, re and im finite; got {json.dumps(row)}")
            if row[0] in out:
                raise ConfigError(f"{key} repeats mode {row[0]}")
            out[row[0]] = complex(row[1], row[2])
        return out

    try:
        return PotentialSpec(
            p_even=table("p_even"),
            q_even=table("q_even"),
            p_odd=table("p_odd"),
            q_odd=table("q_odd"),
            max_mode=max_mode,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _potential_for(cfg: RunConfig) -> PotentialSpec:
    if cfg.potential is not None:
        return load_potential_file(cfg.potential)
    return random_potential(cfg.seed)


def _fmt(value) -> str:
    if isinstance(value, (bool, int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


def _threshold_and_cutoff(cfg: RunConfig, spec: PotentialSpec) -> tuple[int, int]:
    """The verified threshold, and the cutoff N: --N when given, else the threshold."""
    threshold = find_threshold_n(spec, cfg.bc, cfg.K)
    return threshold, cfg.N if cfg.N is not None else threshold


# -- subcommands: each writes its CSVs into out and returns its run.json results

def cmd_spectrum(cfg: RunConfig, args: argparse.Namespace, out: Path) -> dict:
    spec = _potential_for(cfg)
    op = build_operator(spec, cfg.bc, cfg.K)
    vals, _ = eigen(op)
    counts, discs = localization_counts(op, cfg.radius)
    rows = [(float(lam.real), float(lam.imag), "" if n is None else str(n)) for lam, n in zip(vals, discs)]
    _write_csv(out / "spectrum.csv", ("re", "im", "disc"), rows)
    _write_csv(out / "localization.csv", ("n", "count"), sorted(counts.items()))
    if args.dump_matrix:
        rows = zip(op.rows.tolist(), op.cols.tolist(), op.values.real.tolist(), op.values.imag.tolist())
        _write_csv(out / "matrix.csv", ("row", "col", "re", "im"), rows)
    return {"potential_norm": potential_norm(spec), "dim": op.dim}


def cmd_deviations(cfg: RunConfig, args: argparse.Namespace, out: Path) -> dict:
    spec = _potential_for(cfg)
    op = build_operator(spec, cfg.bc, cfg.K)  # first: it refuses a K too large to hold
    threshold, N = _threshold_and_cutoff(cfg, spec)
    report = deviation_report(op, N, threshold, cfg.radius, cfg.nodes)
    rows = zip(report.discs, report.ranks, report.deviations, report.cumulative)
    _write_csv(out / "deviations.csv", ("n", "rank", "deviation_hs", "cumulative_sum"), rows)
    counts, _ = localization_counts(op, cfg.radius)
    expected = lattice_step(cfg.bc)  # one eigenvalue per basis channel of a disc
    return {
        "threshold_N": threshold,
        "N_used": N,
        "tail_sum": report.tail_sum,
        "localization_verified_beyond_N": all(counts[n] == expected for n in counts if abs(n) > N),
        "potential_norm": potential_norm(spec),
        "gates": report.gates,
    }


def cmd_reconstruct(cfg: RunConfig, args: argparse.Namespace, out: Path) -> dict:
    if args.trials < 1:
        raise ConfigError(f"--trials must be a positive integer, got {args.trials}")
    M = cfg.K // 2 if args.M is None else args.M
    if not 1 <= M <= cfg.K // 2:
        raise ConfigError(f"--M must lie in 1..K/2 = {cfg.K // 2}, got {M}")
    spec = _potential_for(cfg)
    op = build_operator(spec, cfg.bc, cfg.K)
    threshold, N = _threshold_and_cutoff(cfg, spec)
    # seeded band-limited input spread over the low modes
    rng = np.random.default_rng([cfg.seed, 101])
    low = [(n, ch) for (n, ch) in op.basis.indices if abs(n) <= min(8, cfg.K / 4)]
    f = expand(
        {idx: complex(a, b) for idx, a, b in zip(low, rng.standard_normal(len(low)), rng.standard_normal(len(low)))},
        op.basis,
    )
    expansion = disc_expansion(f, op, N, threshold, M, cfg.radius, cfg.nodes)
    _write_csv(out / "reconstruction.csv", ("M", "error"), reconstruction_curve(expansion))
    report = unconditionality_test(expansion, trials=args.trials, seed=cfg.seed)
    _write_csv(
        out / "excursions.csv",
        ("trial", "excursion", "terminal_error"),
        [(t, exc, term) for t, (exc, term) in enumerate(zip(report.trial_excursions, report.trial_terminals))],
    )
    keys = ("trials", "seed", "base_error", "max_reordered_error", "max_partial_sum_spread", "bari_markus_tail",
            "f_norm", "excursion_constant")
    _write_json(out / "unconditionality.json", {key: getattr(report, key) for key in keys})
    return {"threshold_N": threshold, "N_used": N, "M_used": M, "gates": expansion.report.gates}


def _params_str(parameters: dict) -> str:
    return ";".join(f"{k}={parameters[k]}" for k in sorted(parameters))


def cmd_verify_bounds(cfg: RunConfig, args: argparse.Namespace, out: Path) -> dict:
    if args.draws < 1:
        raise ConfigError(f"--draws must be a positive integer, got {args.draws}")
    cutoff = max(BATTERY_CUTOFFS)
    # the window must hold a disc past the cutoff on every lattice, whose steps are 1 and 2
    reach = max(next(n for n in disc_centers(bc, cutoff + 2) if n > cutoff) for bc in BC_TAGS)
    if args.window < reach:
        raise ConfigError(
            f"--window must reach a disc past the battery's cutoff N = {cutoff} on every lattice, "
            f"i.e. be at least {reach}, got {args.window}"
        )
    checks: list[BoundCheck] = list(check_elementary(n_max=1000))
    checks += run_battery(seed=cfg.seed, draws=args.draws, K=args.window)
    if args.self_test:
        checks.insert(0, BoundCheck("row_shift_sum", 2.0, 1.0, 2.0, {"self_test": 1}))
    _write_csv(
        out / "bounds.csv",
        ("check", "parameters", "lhs", "rhs", "ratio"),
        [(c.name, _params_str(c.parameters), c.lhs, c.rhs_without_constant, c.ratio) for c in checks],
    )
    bad = violations(checks)
    for c in bad[:10]:
        print(f"violated: {c.name} ratio={c.ratio:.6g} ({_params_str(c.parameters)})", file=sys.stderr)
    return {
        "checks": len(checks),
        "violations": len(bad),
        "worst_ratios": worst_ratios(checks),
        "self_test": bool(args.self_test),
    }


def cmd_threshold(cfg: RunConfig, args: argparse.Namespace, out: Path) -> dict:
    spec = _potential_for(cfg)
    profile = circle_norm_profile(spec, cfg.bc, cfg.K)
    rows = sorted(profile.items(), key=lambda kv: (abs(kv[0]), kv[0]))
    _write_csv(out / "threshold.csv", ("n", "max_kvk_hs"), rows)
    return {
        "threshold_N": threshold_from_profile(profile, cfg.K),
        "samples_per_circle": RECORDED_SAMPLES,
        "potential_norm": potential_norm(spec),
    }


@functools.cache  # parse_args leaves the parser as it was, so one serves every main() of a process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diracproj",
        description="Spectral projections and decompositions of 1-d Dirac operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None, help="JSON config file; flags override it")
    common.add_argument("--bc", choices=BC_TAGS, default=None, help="boundary condition")
    common.add_argument("--K", type=int, default=None, help="truncation size")
    common.add_argument("--radius", type=float, default=None, help="disc radius, in (0, 1/2]")
    common.add_argument("--nodes", type=int, default=None, help="contour quadrature nodes (even)")
    common.add_argument("--N", type=int, default=None, help="cutoff; defaults to the verified threshold")
    common.add_argument("--seed", type=int, default=None, help="seed for every random draw")
    common.add_argument("--out", type=str, default=None, help="output directory")
    common.add_argument("--potential", type=str, default=None, help="potential JSON file (default: seeded random)")

    p = sub.add_parser("spectrum", parents=[common], help="eigenvalues and disc localization")
    p.add_argument("--dump-matrix", action="store_true", help="also write nonzero operator entries as (row, col, re, im)")

    sub.add_parser("deviations", parents=[common], help="per-disc projection deviations")

    p = sub.add_parser("reconstruct", parents=[common], help="reconstruction curve and reordering experiment")
    p.add_argument("--M", type=int, default=None, help="outer disc window (default K/2)")
    p.add_argument("--trials", type=int, default=16, help="reordering trials")

    p = sub.add_parser("verify-bounds", parents=[common], help="inequality audit battery")
    p.add_argument("--draws", type=int, default=20, help="random potentials in the battery")
    p.add_argument("--window", type=int, default=256, help="outer summation window for the tail/chain sums")
    p.add_argument("--self-test", action="store_true", help="inject a corrupted check; the run must exit 4")

    p = sub.add_parser("classify-bc", help="classify a coupling quadruple a b c d")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("c")
    p.add_argument("d")

    sub.add_parser("threshold", parents=[common], help="smallness-test profile and verified cutoff")

    return parser


def cmd_classify_bc(args: argparse.Namespace) -> int:
    try:
        quad = [complex(s) for s in (args.a, args.b, args.c, args.d)]
    except ValueError:
        raise ConfigError("classify-bc arguments must parse as complex numbers") from None
    if not all(map(cmath.isfinite, quad)):
        raise ConfigError("classify-bc arguments must be finite")
    result = classify_bc(*quad)
    print(
        json.dumps(
            {
                "a": [quad[0].real, quad[0].imag],
                "b": [quad[1].real, quad[1].imag],
                "c": [quad[2].real, quad[2].imag],
                "d": [quad[3].real, quad[3].imag],
                "regular": result.regular,
                "strictly_regular": result.strictly_regular,
                "roots": [[z.real, z.imag] for z in result.roots],
            },
            indent=2,
            sort_keys=True,
        )
    )
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    commands = {"spectrum": cmd_spectrum, "deviations": cmd_deviations, "reconstruct": cmd_reconstruct,
                "verify-bounds": cmd_verify_bounds, "threshold": cmd_threshold}
    fresh: list[Path] = []  # the levels of --out that do not exist yet, innermost first
    try:
        if args.command == "classify-bc":
            return cmd_classify_bc(args)
        cfg = _merge_config(args)
        started = time.perf_counter()
        out = Path(cfg.out)
        fresh = [level for level in (out, *out.parents) if not os.path.lexists(level)]
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a file in the way, or no permission
            raise ConfigError(f"cannot use {out} as the output directory: {exc.strerror}") from None
        results = commands[args.command](cfg, args, out)
        run = {
            "config": dataclasses.asdict(cfg),
            "versions": {"diracproj": __version__, "numpy": np.__version__, "scipy": scipy.__version__,
                         "python": sys.version.split()[0]},
            "timings": {"wall_s": time.perf_counter() - started},
        }
        _write_json(out / "run.json", {**run, **results})
        return EXIT_BOUNDS if results.get("violations") else EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        code = EXIT_CONFIG
    except MemoryError as exc:  # --K, --window or --nodes too large to hold
        print(f"config error: the arguments need more memory than there is: {exc}", file=sys.stderr)
        code = EXIT_CONFIG
    except (*NUMERICAL_ERRORS, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        code = EXIT_NUMERICAL
    # a refused run takes back the directories it made, as long as they are empty
    for level in fresh:
        try:
            level.rmdir()
        except FileNotFoundError:
            continue
        except OSError:
            break
    return code


if __name__ == "__main__":
    sys.exit(main())
