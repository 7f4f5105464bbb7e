"""Command-line front end: exit codes, file outputs, determinism."""

import csv
import dataclasses
import importlib
import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from diracproj.cli import (
    ConfigError,
    EXIT_BOUNDS,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    RunConfig,
    load_potential_file,
    main,
)
from diracproj.operator import basis_index_set
from diracproj import projections
from diracproj.resolvent import ShiftedSolve, circle_norm_profile

SMALL = {
    "max_mode": 2,
    "p_even": [[2, 0.3, 0.0]],
    "q_even": [[-2, 0.1, 0.05]],
}
HUGE = {"max_mode": 2, "p_even": [[2, 50.0, 0.0]]}
# Q = 0 with p(-4) != 0: the per+ truncation has Jordan blocks at n = +-2
P_ONLY = {"max_mode": 4, "p_even": [[-4, 0.3, 0.0], [2, 0.2, 0.1]]}
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
TRACER_PY = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture
def small_potential(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps(SMALL), encoding="utf-8")
    return str(path)


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_run(outdir):
    return json.loads((outdir / "run.json").read_text(encoding="utf-8"))


class TestConfigHandling:
    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"bc": "dir", "bogus": 1}', encoding="utf-8")
        code = main(["threshold", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_config_must_be_object(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text("[1, 2]", encoding="utf-8")
        code = main(["threshold", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["threshold", "--config", str(tmp_path / "absent.json")])
        assert code == EXIT_CONFIG

    def test_flags_override_config(self, tmp_path, small_potential):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps({"bc": "dir", "K": 32, "potential": small_potential}),
            encoding="utf-8",
        )
        out = tmp_path / "run"
        code = main(
            ["threshold", "--config", str(cfg), "--K", "16", "--out", str(out)]
        )
        assert code == EXIT_OK
        run = read_run(out)
        assert run["config"]["K"] == 16  # flag wins
        assert run["config"]["bc"] == "dir"  # file survives

    @pytest.mark.parametrize(
        "flags",
        [
            ["--K", "4"],
            ["--radius", "0.7"],
            ["--radius", "0"],
            ["--nodes", "15"],
            ["--nodes", "6"],
            ["--N", "0"],
            ["--seed", "-3"],
        ],
    )
    def test_rejected_values(self, tmp_path, capsys, flags):
        code = main(["threshold", *flags, "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config",
        [
            {"K": 16.0},
            {"K": 16.5},
            {"K": True},
            {"seed": 1.5},
            {"N": 3.5},
            {"nodes": 64.0},
            {"radius": "0.5"},
            {"radius": True},
            {"potential": 7},
            {"out": 5},
            {"bc": 7},
        ],
        ids=lambda config: ",".join(f"{key}={json.dumps(value)}" for key, value in config.items()),
    )
    def test_config_value_of_wrong_type(self, tmp_path, capsys, config):
        # refused with exit 2 and the key named: no coercion, no traceback, and
        # N = 3.5 is not mistaken for a cutoff below the verified threshold
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"bc": "dir", "out": str(tmp_path / "run"), **config}), encoding="utf-8")
        code = main(["deviations", "--config", str(cfg)])
        assert code == EXIT_CONFIG
        [key] = config
        assert f"config error: {key} must be a" in capsys.readouterr().err

    def test_bad_bc_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"bc": "periodic"}', encoding="utf-8")
        code = main(["threshold", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

    def test_run_json_echoes_every_config_field(self, tmp_path, small_potential):
        out = tmp_path / "run"
        assert main(["threshold", "--K", "8", "--potential", small_potential, "--out", str(out)]) == EXIT_OK
        config = read_run(out)["config"]
        assert set(config) == {f.name for f in dataclasses.fields(RunConfig)}
        assert set(config) == {"command", "bc", "K", "radius", "nodes", "N", "seed", "out", "potential"}
        assert config["command"] == "threshold" and config["K"] == 8 and config["potential"] == small_potential

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestPotentialFiles:
    def test_coefficient_form(self, small_potential):
        spec = load_potential_file(small_potential)
        assert spec.p(2) == 0.3
        assert spec.q(-2) == 0.1 + 0.05j
        assert spec.p(1) == 0.0

    def test_sample_form_recovers_both_parities(self, tmp_path):
        count, max_mode = 16, 2
        x = np.arange(count) * np.pi / count
        p = 0.3 * np.exp(2j * x) + 0.2 * np.exp(1j * x)
        q = 0.1 * np.exp(-2j * x)
        rows = [
            [float(xi), pi.real, pi.imag, qi.real, qi.imag]
            for xi, pi, qi in zip(x, p, q)
        ]
        path = tmp_path / "sampled.json"
        path.write_text(json.dumps({"max_mode": max_mode, "samples": rows}))
        spec = load_potential_file(str(path))
        assert spec.p(2) == pytest.approx(0.3, abs=1e-9)
        assert spec.p(1) == pytest.approx(0.2, abs=1e-9)
        assert spec.q(-2) == pytest.approx(0.1, abs=1e-9)
        assert spec.q(2) == pytest.approx(0.0, abs=1e-9)

    def test_sample_form_rejects_shifted_grid(self, tmp_path):
        x = np.arange(8) * np.pi / 8 + 0.05
        rows = [[float(xi), 1.0, 0.0, 1.0, 0.0] for xi in x]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"max_mode": 1, "samples": rows}))
        with pytest.raises(ConfigError, match="uniform grid"):
            load_potential_file(str(path))

    def test_sample_form_rejects_bad_rows(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"max_mode": 1, "samples": [[0.0, 1.0]]}))
        with pytest.raises(ConfigError, match="samples rows"):
            load_potential_file(str(path))

    def test_requires_max_mode(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"p_even": [[2, 1.0, 0.0]]}))
        with pytest.raises(ConfigError, match="max_mode"):
            load_potential_file(str(path))

    def test_coefficient_rows_validated(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"max_mode": 2, "p_even": [[2, 1.0]]}))
        with pytest.raises(ConfigError, match="p_even rows"):
            load_potential_file(str(path))


# malformed potential files, each with the field its error message must name
BAD_POTENTIALS = [
    pytest.param({"max_mode": None}, "max_mode", id="max_mode-null"),
    pytest.param({"max_mode": "x"}, "max_mode", id="max_mode-string"),
    pytest.param({"max_mode": 8.7}, "max_mode", id="max_mode-fraction"),
    pytest.param({"max_mode": True}, "max_mode", id="max_mode-bool"),
    pytest.param({"max_mode": 2, "p_even": [[0, None, 0]]}, "p_even", id="null-coefficient"),
    pytest.param({"max_mode": 2, "p_even": [[None, 1, 0]]}, "p_even", id="null-mode"),
    pytest.param({"max_mode": 2, "p_even": 5}, "p_even", id="table-not-a-list"),
    pytest.param({"max_mode": 2, "q_odd": [[1, 0.5, True]]}, "q_odd", id="bool-coefficient"),
    pytest.param({"max_mode": 2, "q_even": [[2.0, 0.5, 0]]}, "q_even", id="float-mode"),
    pytest.param({"max_mode": 2, "p_odd": [[1, 10**400, 0]]}, "p_odd", id="int-beyond-float"),
    pytest.param({"max_mode": 4, "p_even": [[2, 0.3, 0], [-4, 1e200, 0]]}, "mode -4", id="energy-overflow"),
    pytest.param({"max_mode": 2, "p_even": [[2, 0.3, 0], [2, 5.0, 0]]}, "p_even", id="repeated-mode"),
    pytest.param({"max_mode": 0, "samples": [[0.0, "0.25", True, 0, 0]]}, "samples", id="sample-string-and-bool"),
    pytest.param({"max_mode": 0, "samples": [[0.0, float("inf"), 0, 0, 0]]}, "samples", id="sample-infinite"),
]

# arbitrary JSON for the loader's property test
JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1e308, -1e308, 8.7, -0.5]),
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)
ROWS = st.lists(
    st.one_of(
        st.tuples(st.integers(-4, 4), JSON_LEAVES, JSON_LEAVES).map(list),
        st.lists(JSON_VALUES, max_size=4),
        JSON_VALUES,
    ),
    max_size=3,
)
TABLE = st.one_of(ROWS, JSON_VALUES)
POTENTIAL_FILES = st.fixed_dictionaries(
    {"max_mode": st.one_of(st.integers(0, 4), JSON_VALUES)},
    optional={key: TABLE for key in ("p_even", "q_even", "p_odd", "q_odd")},
)


class TestMalformedPotentialFiles:
    @pytest.mark.parametrize("content, field", BAD_POTENTIALS)
    def test_exits_two_naming_the_field(self, tmp_path, capsys, content, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(content), encoding="utf-8")
        code = main(["spectrum", "--K", "8", "--potential", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["spectrum", "deviations", "threshold"])
    def test_energy_overflow_rejected_before_any_work(self, tmp_path, capsys, command):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"max_mode": 2, "p_even": [[2, 1e200, 0]]}), encoding="utf-8")
        code = main([command, "--K", "8", "--potential", str(path), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "p_even" in capsys.readouterr().err
        assert not (tmp_path / "out" / "run.json").exists()

    def test_overflowing_operator_norm_is_a_numerical_failure(self, tmp_path, capsys):
        # sum |c|^2 is finite, ||L||_HS is not: the eigen gate refuses
        path = tmp_path / "edge.json"
        path.write_text(
            json.dumps({"max_mode": 2, "p_even": [[2, 9e153, 0]], "q_even": [[0, 9e153, 0]]}),
            encoding="utf-8",
        )
        code = main(["spectrum", "--K", "32", "--potential", str(path), "--out", str(tmp_path / "out")])
        assert code == EXIT_NUMERICAL
        assert "||L||_HS = inf" in capsys.readouterr().err

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(content=POTENTIAL_FILES)
    def test_arbitrary_json_never_raises(self, content):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "potential.json"
            path.write_text(json.dumps(content), encoding="utf-8")
            code = main(["spectrum", "--K", "8", "--potential", str(path), "--out", str(Path(tmp) / "out")])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL)


class TestClassifyBc:
    def test_periodic_like_quadruple(self, capsys):
        code = main(["classify-bc", "0", "-1", "-1", "0"])
        assert code == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["regular"] is True
        assert data["strictly_regular"] is False

    def test_separated_quadruple(self, capsys):
        code = main(["classify-bc", "-1", "0", "0", "-1"])
        assert code == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["strictly_regular"] is True
        z1, z2 = (complex(re, im) for re, im in data["roots"])
        assert abs(z1 - z2) > 1e-10

    def test_unparseable_argument(self, capsys):
        code = main(["classify-bc", "xyz", "0", "0", "1"])
        assert code == EXIT_CONFIG
        assert "complex" in capsys.readouterr().err

    def test_console_script_entry_point(self):
        """The [project.scripts] target exists and runs as the installed
        script would, without installing the package."""
        tomllib = pytest.importorskip("tomllib")
        with open(PYPROJECT, "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["diracproj"]
        module_name, _, func_name = target.partition(":")
        module = importlib.import_module(module_name)
        assert callable(getattr(module, func_name, None)), target
        package = importlib.import_module(module_name.partition(".")[0])
        source_root = Path(package.__file__).resolve().parent.parent
        # The same call the generated console-script wrapper makes.
        code = f"import sys; from {module_name} import {func_name}; sys.exit({func_name}())"
        proc = subprocess.run(
            [sys.executable, "-c", code, "classify-bc", "0", "-1", "-1", "0"],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(source_root)},
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["regular"] is True

    @pytest.mark.skipif(
        shutil.which("diracproj") is None,
        reason="no diracproj console script on PATH; run pip install -e . to install it",
    )
    def test_console_script_installed(self):
        exe = shutil.which("diracproj")
        assert exe is not None, "console script missing from PATH"
        proc = subprocess.run(
            [exe, "classify-bc", "0", "-1", "-1", "0"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["regular"] is True


class TestSpectrum:
    def test_outputs(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            ["spectrum", "--K", "16", "--seed", "1", "--out", str(out), "--dump-matrix"]
        )
        assert code == EXIT_OK
        run = read_run(out)
        header, rows = read_csv(out / "spectrum.csv")
        assert header == ["re", "im", "disc"]
        assert len(rows) == run["dim"] == 66
        assert run["potential_norm"] == pytest.approx(1.0)
        header, rows = read_csv(out / "localization.csv")
        assert header == ["n", "count"]
        assert sum(int(c) for _, c in rows) <= 66
        header, rows = read_csv(out / "matrix.csv")
        assert header == ["row", "col", "re", "im"]
        assert len(rows) > 64

    def test_deterministic(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert main(["spectrum", "--K", "16", "--seed", "7", "--out", str(out)]) == EXIT_OK
            outs.append(out)
        for name in ("spectrum.csv", "localization.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["spectrum", "--K", "16", "--seed", "1", "--out", str(a)])
        main(["spectrum", "--K", "16", "--seed", "2", "--out", str(b)])
        assert (a / "spectrum.csv").read_bytes() != (b / "spectrum.csv").read_bytes()


class TestDeviations:
    def test_outputs(self, tmp_path, small_potential):
        out = tmp_path / "run"
        code = main(
            ["deviations", "--bc", "dir", "--K", "16",
             "--potential", small_potential, "--out", str(out)]
        )
        assert code == EXIT_OK
        run = read_run(out)
        assert run["threshold_N"] == 2
        assert run["N_used"] == 2
        assert run["localization_verified_beyond_N"] is True
        header, rows = read_csv(out / "deviations.csv")
        assert header == ["n", "rank", "deviation_hs", "cumulative_sum"]
        assert len(rows) == 12  # discs 2 < |n| <= 8, both signs
        assert all(int(r[1]) == 1 for r in rows)
        cums = [float(r[3]) for r in rows]
        assert all(b >= a for a, b in zip(cums, cums[1:]))
        assert run["tail_sum"] == pytest.approx(cums[-1])

    def test_explicit_N(self, tmp_path, small_potential):
        out = tmp_path / "run"
        code = main(
            ["deviations", "--bc", "dir", "--K", "16", "--N", "4",
             "--potential", small_potential, "--out", str(out)]
        )
        assert code == EXIT_OK
        run = read_run(out)
        assert run["N_used"] == 4
        _, rows = read_csv(out / "deviations.csv")
        assert len(rows) == 8

    def test_no_disc_in_window_is_numerical(self, tmp_path, small_potential, capsys):
        # N = K/2 leaves no disc: nothing is verified, so no report is written
        out = tmp_path / "run"
        code = main(
            ["deviations", "--bc", "dir", "--K", "16", "--N", "8",
             "--potential", small_potential, "--out", str(out)]
        )
        assert code == EXIT_NUMERICAL
        assert "no discs in the window" in capsys.readouterr().err
        assert not (out / "deviations.csv").exists() and not (out / "run.json").exists()

    def test_threshold_not_found_is_numerical(self, tmp_path, capsys):
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps(HUGE), encoding="utf-8")
        code = main(
            ["deviations", "--K", "16", "--potential", str(huge), "--out", str(tmp_path)]
        )
        assert code == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err


class TestReconstruct:
    def run(self, out, small_potential, *extra):
        return main(
            ["reconstruct", "--bc", "dir", "--K", "16", "--trials", "3",
             "--potential", small_potential, "--out", str(out), *extra]
        )

    def test_outputs(self, tmp_path, small_potential):
        out = tmp_path / "run"
        assert self.run(out, small_potential) == EXIT_OK
        run = read_run(out)
        assert run["threshold_N"] == 2
        assert run["M_used"] == 8
        header, rows = read_csv(out / "reconstruction.csv")
        assert header == ["M", "error"]
        assert [int(r[0]) for r in rows] == [3, 4, 5, 6, 7, 8]
        errors = [float(r[1]) for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))
        header, rows = read_csv(out / "excursions.csv")
        assert header == ["trial", "excursion", "terminal_error"]
        assert len(rows) == 3
        report = json.loads((out / "unconditionality.json").read_text())
        assert report["trials"] == 3
        assert report["max_reordered_error"] >= 0.0
        assert report["bari_markus_tail"] > 0.0

    def test_deterministic(self, tmp_path, small_potential):
        a, b = tmp_path / "a", tmp_path / "b"
        assert self.run(a, small_potential) == EXIT_OK
        assert self.run(b, small_potential) == EXIT_OK
        for name in ("reconstruction.csv", "excursions.csv", "unconditionality.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_M_beyond_trusted_window(self, tmp_path, small_potential, capsys):
        code = self.run(tmp_path / "run", small_potential, "--M", "20")
        assert code == EXIT_CONFIG
        assert "--M" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value", [("--trials", "0"), ("--trials", "-2"), ("--M", "0"), ("--M", "9"), ("--M", "100")]
    )
    def test_rejected_arguments(self, monkeypatch, tmp_path, small_potential, capsys, flag, value):
        # refused before any work: no eigendecomposition, no output directory
        eigs = count_calls(monkeypatch, scipy.linalg.eig, owners=[scipy.linalg])
        out = tmp_path / "run"
        assert self.run(out, small_potential, flag, value) == EXIT_CONFIG
        assert flag in capsys.readouterr().err
        assert eigs == []
        assert not out.exists()

    def test_no_disc_in_window_is_numerical(self, tmp_path, small_potential, capsys):
        # a data-dependent refusal: the threshold is 2, so M = 2 leaves no disc
        code = self.run(tmp_path / "run", small_potential, "--M", "2")
        assert code == EXIT_NUMERICAL
        assert "no discs in the window" in capsys.readouterr().err

    @pytest.mark.parametrize("bc", ["per+", "dir"])
    def test_tail_matches_deviations(self, tmp_path, small_potential, bc):
        # both jobs read the same disc sweep over N < |n| <= K/2
        common = ["--bc", bc, "--K", "32", "--potential", small_potential]
        assert main(["deviations", *common, "--out", str(tmp_path / "d")]) == EXIT_OK
        assert main(["reconstruct", *common, "--trials", "2", "--out", str(tmp_path / "r")]) == EXIT_OK
        tail = read_run(tmp_path / "d")["tail_sum"]
        report = json.loads((tmp_path / "r" / "unconditionality.json").read_text())
        assert tail > 0
        assert report["bari_markus_tail"] == tail

    def test_N_below_threshold(self, tmp_path, small_potential, capsys):
        code = self.run(tmp_path / "run", small_potential, "--N", "1")
        assert code == EXIT_NUMERICAL
        assert "below the verified threshold" in capsys.readouterr().err


class TestVerifyBounds:
    def test_clean_run(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            ["verify-bounds", "--draws", "1", "--window", "32", "--out", str(out)]
        )
        assert code == EXIT_OK
        run = read_run(out)
        assert run["checks"] == 44  # 2 elementary + 14 per bc per draw
        assert run["violations"] == 0
        assert set(run["worst_ratios"]) >= {"row_shift_sum", "chain_closed"}
        header, rows = read_csv(out / "bounds.csv")
        assert header == ["check", "parameters", "lhs", "rhs", "ratio"]
        assert len(rows) == 44

    def test_self_test_trips_exit_code(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(
            ["verify-bounds", "--draws", "1", "--window", "32",
             "--self-test", "--out", str(out)]
        )
        assert code == EXIT_BOUNDS
        assert "violated: row_shift_sum" in capsys.readouterr().err
        _, rows = read_csv(out / "bounds.csv")
        assert rows[0][0] == "row_shift_sum" and rows[0][1] == "self_test=1"

    @pytest.mark.parametrize(
        "flag, value", [("--draws", "0"), ("--draws", "-1"), ("--window", "0"), ("--window", "8")]
    )
    def test_rejected_arguments(self, tmp_path, capsys, flag, value):
        # no draws audits no potential; a window at or below the battery's
        # cutoff N = 8 leaves no disc beyond it
        out = tmp_path / "run"
        code = main(["verify-bounds", "--window", "32", "--draws", "1", flag, value, "--out", str(out)])
        assert code == EXIT_CONFIG
        assert flag in capsys.readouterr().err
        assert not out.exists()


class TestThreshold:
    def test_outputs(self, tmp_path, small_potential):
        out = tmp_path / "run"
        code = main(
            ["threshold", "--bc", "per+", "--K", "16", "--samples", "8",
             "--potential", small_potential, "--out", str(out)]
        )
        assert code == EXIT_OK
        run = read_run(out)
        assert run["threshold_N"] == 2
        assert run["samples_per_circle"] == 8
        assert run["potential_norm"] == pytest.approx(0.32015621187164245)
        header, rows = read_csv(out / "threshold.csv")
        assert header == ["n", "max_kvk_hs"]
        assert [int(r[0]) for r in rows] == [-2, 2, -4, 4, -6, 6, -8, 8]
        assert all(float(r[1]) > 0 for r in rows)
        # everything beyond the reported threshold really is small
        for n, val in rows:
            if abs(int(n)) > run["threshold_N"]:
                assert float(val) <= 0.5

    @pytest.mark.parametrize("value", ["3", "0", "-1"])
    def test_too_few_samples_rejected(self, monkeypatch, tmp_path, small_potential, capsys, value):
        scans = count_calls(monkeypatch, circle_norm_profile)
        out = tmp_path / "run"
        code = main(["threshold", "--K", "16", "--samples", value, "--potential", small_potential, "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "--samples" in capsys.readouterr().err
        assert scans == []
        assert not out.exists()


def count_calls(monkeypatch, fn, owners=()):
    """Replace fn in every diracproj namespace (and in `owners`) by a counter.

    The modules bind names at import, so the function is replaced by
    identity wherever it is bound.  Returns the list of recorded argument
    tuples, one per call.
    """
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    modules = [m for n, m in sys.modules.items() if n == "diracproj" or n.startswith("diracproj.")]
    for owner in [*modules, *owners]:
        for attr, obj in list(vars(owner).items()):
            if obj is fn:
                monkeypatch.setattr(owner, attr, counted)
    return calls


class TestGateMargins:
    """deviations and reconstruct record the route and the worst disc gate
    margins in run.json; each is finite and inside its gate."""

    @pytest.mark.parametrize("command", ["deviations", "reconstruct"])
    @pytest.mark.parametrize("bc,potential,route", [("per+", "small", "spectral"), ("dir", "small", "spectral"),
                                                     ("per+", "p_only", "schur")])
    def test_gates_block(self, tmp_path, small_potential, command, bc, potential, route):
        path = small_potential
        if potential == "p_only":
            path = tmp_path / "p_only.json"
            path.write_text(json.dumps(P_ONLY), encoding="utf-8")
        out = tmp_path / "run"
        argv = [command, "--bc", bc, "--K", "32", "--potential", str(path), "--out", str(out)]
        assert main(argv + (["--trials", "2"] if command == "reconstruct" else [])) == EXIT_OK
        gates = read_run(out)["gates"]
        assert gates["route"] == route
        assert set(gates) == {"route", "max_idempotency_residual", "max_trace_gap", "min_contour_offset"}
        for key in ("max_idempotency_residual", "max_trace_gap", "min_contour_offset"):
            assert math.isfinite(gates[key]), key
        assert 0.0 <= gates["max_idempotency_residual"] <= projections.QUALITY_TOL
        assert 0.0 <= gates["max_trace_gap"] <= projections.QUALITY_TOL
        assert projections.PROXIMITY_TOL <= gates["min_contour_offset"] <= 0.5


class TestWorkPerJob:
    """Each job diagonalizes its operator once, inverts its eigenbasis at most
    once, scans the smallness test once and integrates over each contour once."""

    JOBS = {
        "spectrum": ["spectrum"],
        "threshold": ["threshold"],
        "deviations": ["deviations"],
        "reconstruct": ["reconstruct", "--trials", "2"],
        "verify-bounds": ["verify-bounds", "--draws", "1", "--window", "32"],
    }
    # (eig, smallness scans, V^-1 solves) per job
    EXPECTED = {
        "spectrum": (1, 0, 0),
        "threshold": (0, 1, 0),
        "deviations": (1, 1, 1),
        "reconstruct": (1, 1, 1),
        "verify-bounds": (0, 0, 0),
    }

    @pytest.mark.parametrize("bc", ["per+", "dir"])
    @pytest.mark.parametrize("command", sorted(JOBS))
    def test_counts(self, monkeypatch, tmp_path, small_potential, bc, command):
        eigs = count_calls(monkeypatch, scipy.linalg.eig, owners=[scipy.linalg])
        scans = count_calls(monkeypatch, circle_norm_profile)
        # every contour goes through the batched pass: each disc once, and on
        # reconstruct one global contour (riesz_projection's batch of one)
        batches = count_calls(monkeypatch, projections._project)
        # numpy and scipy each ship an OpenBLAS with its own thread pool: V^-1 is
        # one zgesv in scipy's, next to eig, and no dim x dim inverse goes to numpy's
        solves = count_calls(monkeypatch, scipy.linalg.lapack.zgesv, owners=[scipy.linalg.lapack])
        inverses = count_calls(monkeypatch, np.linalg.inv, owners=[np.linalg])
        out = tmp_path / "run"
        argv = self.JOBS[command] + ["--out", str(out)]
        if command != "verify-bounds":
            argv += ["--bc", bc, "--K", "16", "--potential", small_potential]
        assert main(argv) == EXIT_OK
        assert (len(eigs), len(scans), len(solves)) == self.EXPECTED[command]
        assert all(args[0].shape[-1] < basis_index_set(bc, 16).dim for args in inverses)
        contours = [c for args in batches for c in args[1]]
        if command == "deviations":
            _, rows = read_csv(out / "deviations.csv")
            assert sorted(c.center.real for c in contours) == sorted(float(r[0]) for r in rows)
        elif command == "reconstruct":
            run = read_run(out)
            discs = [c for c in contours if c.radius == 0.5]
            globals_ = [c for c in contours if c not in discs]
            assert len(set(contours)) == len(contours)
            assert [(c.center, c.radius) for c in globals_] == [(0, run["N_used"] + 0.5)]
            assert sorted(abs(c.center.real) for c in discs) == sorted(
                abs(n) for n in range(-run["M_used"], run["M_used"] + 1)
                if run["N_used"] < abs(n) and (bc == "dir" or n % 2 == 0)
            )
        else:
            assert contours == []

    def test_defective_deviations_use_one_schur_form(self, monkeypatch, tmp_path):
        # one Schur form, one full-size reorder and one Sylvester solve split off
        # the window |z| < K/2 + 1/2 (w = 34 of dim 130); each contour then
        # works inside the window only
        path = tmp_path / "p_only.json"
        path.write_text(json.dumps(P_ONLY), encoding="utf-8")
        schurs = count_calls(monkeypatch, scipy.linalg.schur, owners=[scipy.linalg])
        reorders = count_calls(monkeypatch, scipy.linalg.lapack.ztrsen, owners=[scipy.linalg.lapack])
        sylvesters = count_calls(monkeypatch, scipy.linalg.lapack.ztrsyl, owners=[scipy.linalg.lapack])
        inverses = count_calls(monkeypatch, np.linalg.inv, owners=[np.linalg])
        eigenbasis_solves = count_calls(monkeypatch, scipy.linalg.lapack.zgesv, owners=[scipy.linalg.lapack])
        solves = []
        post_init = ShiftedSolve.__post_init__
        monkeypatch.setattr(ShiftedSolve, "__post_init__", lambda self: solves.append(self) or post_init(self))
        argv = ["deviations", "--bc", "per+", "--K", "32", "--potential", str(path), "--out", str(tmp_path / "run")]
        assert main(argv) == EXIT_OK
        assert (len(solves), len(schurs)) == (0, 1)
        dim, w = 130, 34
        _, rows = read_csv(tmp_path / "run" / "deviations.csv")
        reordered = [len(args[1]) for args in reorders]
        assert reordered == [dim] + [w] * len(rows)
        shapes = [(len(a), len(b)) for a, b, *_ in sylvesters]
        assert shapes[0] == (w, dim - w) and len(shapes) == 1 + len(rows)
        assert all(m + n == w for m, n in shapes[1:])
        # V^-1 still sets the route; each chunk of discs inverts its r x r filter nodes in one batch
        assert len(eigenbasis_solves) == 1
        assert len(inverses) == math.ceil(len(rows) / projections.DISC_CHUNK)
        assert all(args[0].ndim == 4 and args[0].shape[-1] < w for args in inverses)

    def test_classify_bc_does_no_spectral_work(self, monkeypatch, capsys):
        eigs = count_calls(monkeypatch, scipy.linalg.eig, owners=[scipy.linalg])
        scans = count_calls(monkeypatch, circle_norm_profile)
        assert main(["classify-bc", "0", "-1", "-1", "0"]) == EXIT_OK
        assert (len(eigs), len(scans)) == (0, 0)


class TestBenchmarkTracer:
    """perfbench/tracer.py patches the package from outside: each layer module
    by attribute, their public functions by identity, and ShiftedSolve and
    RSequence.__call__ on their classes.  A `--trace 1` benchmark run fails
    if any of these names goes missing."""

    def test_traced_job_runs(self, tmp_path, small_potential):
        # the tracer walks the diracproj modules already imported, here through diracproj.cli
        spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER_PY)
        tracer_module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer_module)
        tracer = tracer_module.Tracer()
        try:
            tracer.install()  # a failed install leaves its patches to the uninstall below
            argv = ["deviations", "--K", "16", "--potential", small_potential, "--out", str(tmp_path)]
            code = tracer.job_span(0, lambda: main(argv))
        finally:
            tracer.uninstall()
        assert code == EXIT_OK
        metrics = tracer_module.layer_metrics(tracer, 1)
        assert metrics["resolvent.circle_norm_profile.calls"] == metrics["operator.eig.calls"] == 1

    def test_every_exported_name_resolves(self):
        import diracproj

        assert [name for name in diracproj.__all__ if not hasattr(diracproj, name)] == []
