import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

import dispersim
from dispersim import tailprob
from dispersim.cli import (
    _SUBCOMMANDS,
    config_hash,
    derived_seed,
    main,
    parse_data,
    parse_grid,
    parse_seed,
)
from dispersim.errors import ConfigurationError
from dispersim.grid import Field, GridSpec, write_binary
from dispersim.propagators import FlowKind


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


BASE_TAILS = {
    "grid": {"dim": 1, "samples_per_axis": 128, "extent": 16.0},
    "flow": "kdv",
    "data": {"recipe": "gaussian", "width": 2.0},
    "times": [0.05],
    "thresholds": [0.01],
    "observation_points": [[64]],
    "ensemble_size": 100,
    "seed": 7,
}

DENSITY = {
    "grid": {"dim": 1, "samples_per_axis": 256, "extent": 40.0},
    "data": {"recipe": "gaussian", "width": 2.0},
    "epsilon_schedule": [0.2],
    "multi_indices": [[[0], [0]], [[1], [1]]],
    "ensemble_size": 300,
    "calibration_ensemble": 1200,
    "seed": 5,
}


CONVERGENCE = {
    "grid": {"dim": 1, "samples_per_axis": 256, "extent": 40.0},
    "flow": "kdv",
    "data": {"recipe": "gaussian", "width": 2.0},
    "epsilon_schedule": [0.05],
    "ensemble_size": 100,
    "calibration_ensemble": 500,
    "observation_points": [[128]],
    "seed": 3,
}

KHINTCHINE = {"p_values": [2, 4], "vector_length": 8, "n_vectors": 4,
              "samples": 2000, "seed": 3}


class TestParsing:
    def test_whole_number_points_accepted(self):
        spec = GridSpec(2, 16, 8.0)
        assert tailprob.grid_points(spec, [[3.0, np.int64(4)]]) == ((3, 4),)
        with pytest.raises(ConfigurationError, match="outside the grid"):
            tailprob.grid_points(spec, [[3, 16]])

    def test_seed_decimal_and_hex(self):
        assert parse_seed("123") == 123
        assert parse_seed("0xff") == 255
        assert parse_seed(7) == 7
        with pytest.raises(ConfigurationError):
            parse_seed("seven")

    def test_derived_seed_stays_in_key_space(self):
        assert derived_seed(2**64 - 2, 1) == 2**64 - 1
        assert derived_seed(7, 0) == 7
        for seed, offset in ((2**64 - 1, 1), (2**64 - 5, 5)):
            with pytest.raises(ConfigurationError):
                derived_seed(seed, offset)

    def test_import_leaves_scipy_out(self):
        # scipy is a test-only dependency; the CLI must not pay its import.
        src = os.path.dirname(os.path.dirname(dispersim.__file__))
        code = "import sys, dispersim.cli; print(sorted({m.split('.')[0] for m in sys.modules}))"
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert "'scipy'" not in done.stdout and "'numpy'" in done.stdout

    def test_import_leaves_thread_pool_out(self):
        # Ensembles run serially; concurrent.futures (and the logging it
        # pulls in) would be import time paid for nothing.
        src = os.path.dirname(os.path.dirname(dispersim.__file__))
        code = "import sys, dispersim.cli; print('concurrent.futures' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout.strip() == "False"

    def test_seed_outside_key_space_rejected(self):
        # Philox keys are 64 bit: 2^64 + 7 would silently reuse seed 7's stream.
        assert parse_seed(2**64 - 1) == 2**64 - 1
        for bad in (2**64 + 7, str(2**64 + 7), hex(2**64), -1, "-1"):
            with pytest.raises(ConfigurationError):
                parse_seed(bad)

    def test_grid_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError):
            parse_grid({"dim": 1, "samples_per_axis": 64, "extent": 8.0, "pad": 2})

    def test_data_recipes(self):
        spec = GridSpec(1, 64, 16.0)
        g = parse_data({"recipe": "gaussian", "width": 2.0, "amplitude": 3.0}, spec)
        assert abs(g.values[spec.origin_index()] - 3.0) < 1e-12
        m = parse_data({"recipe": "mode", "frequency": [2 * spec.dxi]}, spec)
        assert np.allclose(np.abs(m.values), 1.0)
        ind = parse_data({"recipe": "indicator", "radius": 1.0}, spec)
        x = spec.axis_coordinates()
        assert np.array_equal(ind.values.real, (np.abs(x) <= 1.0).astype(float))

    def test_mode_requires_lattice_frequency(self):
        spec = GridSpec(1, 64, 16.0)
        with pytest.raises(ConfigurationError):
            parse_data({"recipe": "mode", "frequency": [0.1234]}, spec)

    def test_custom_file_round_trip(self, tmp_path):
        spec = GridSpec(1, 64, 16.0)
        f = Field(spec, np.ones(64))
        path = tmp_path / "f.bin"
        write_binary(f, path)
        loaded = parse_data({"recipe": "custom-file", "path": str(path)}, spec)
        assert np.array_equal(loaded.values, f.values)

    def test_config_hash_ignores_execution_knobs(self):
        base = dict(BASE_TAILS)
        assert config_hash(base) == config_hash(dict(base, output_dir="elsewhere"))
        assert config_hash(base) != config_hash(dict(base, seed=8))


class TestExitCodes:
    def test_unknown_key_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bad.json", dict(BASE_TAILS, bogus=1))
        assert main(["tails", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "bogus" in capsys.readouterr().err
        # Every subcommand checks its keys against the table, unknown
        # keys before missing ones, and before it writes anything.
        cfg = write_config(tmp_path, "bogus.json", {"seed": 7, "bogus": 1})
        for name in _SUBCOMMANDS:
            assert main([name, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
            assert f"unknown {name} field(s): bogus\n" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("grids", [[], {}], ids=["empty-list", "empty-object"])
    @pytest.mark.parametrize("name", ["check-wiener", "check-propagators"])
    def test_check_without_grids_exits_one(self, tmp_path, capsys, name, grids):
        # A check over no grid checks nothing; it must not pass as 0/0.
        cfg = write_config(tmp_path, "grids.json", {"grids": grids})
        assert main([name, "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert "grids" in captured.err
        assert "checks passed" not in captured.out

    @pytest.mark.parametrize(
        "name, key",
        [
            ("tails", "flows"),
            ("tails", "observation_points"),
            ("convergence", "flows"),
            ("convergence", "epsilon_schedule"),
            ("convergence", "observation_points"),
            ("density", "epsilon_schedule"),
            ("khintchine", "p_values"),
        ],
    )
    def test_empty_list_exits_one(self, tmp_path, capsys, name, key):
        # An empty list is a configuration error, not a crash (exit 4) or
        # a header-only table (exit 0).
        base = {"tails": BASE_TAILS, "convergence": CONVERGENCE,
                "density": DENSITY, "khintchine": KHINTCHINE}[name]
        payload = dict(base, **{key: []})
        if key == "flows":
            del payload["flow"]
        cfg = write_config(tmp_path, "empty.json", payload)
        assert main([name, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert f"{key} must be a non-empty list" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "name, key, value",
        [
            ("tails", "times", "5"),
            ("tails", "thresholds", "12"),
            ("tails", "flows", "kdv"),
            ("tails", "observation_points", "12"),
            ("convergence", "epsilon_schedule", "2"),
            ("density", "epsilon_schedule", "2"),
            ("khintchine", "p_values", "24"),
            ("density", "multi_indices", "00"),
        ],
    )
    def test_string_for_list_exits_one(self, tmp_path, capsys, name, key, value):
        # A string is not read one character at a time: "5" is no t = 5.0,
        # and "kdv" no flow 'k'.  The error names the key, before any output.
        base = {"tails": BASE_TAILS, "convergence": CONVERGENCE,
                "density": DENSITY, "khintchine": KHINTCHINE}[name]
        payload = dict(base, **{key: value})
        if key == "flows":
            del payload["flow"]
        cfg = write_config(tmp_path, "string.json", payload)
        assert main([name, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert f"{key} must be a list, got {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("point", [["3"], [1.7], [True]], ids=["string", "float", "bool"])
    def test_non_integer_point_exits_one(self, tmp_path, capsys, point):
        # int() would read these as grid indices 3, 1 and 1.
        payload = dict(BASE_TAILS, observation_points=[[64], point])
        cfg = write_config(tmp_path, "points.json", payload)
        assert main(["tails", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert f"observation point {point!r} must hold integer" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "name, change, key",
        [
            ("convergence", {"ensemble_size": 150.7}, "ensemble_size"),
            ("convergence", {"ensemble_size": True}, "ensemble_size"),
            ("tails", {"ensemble_size": "200"}, "ensemble_size"),
            ("tails", {"grid": {"dim": 1, "samples_per_axis": 64.5, "extent": 16.0}},
             "samples_per_axis"),
            ("tails", {"grid": {"dim": True, "samples_per_axis": 128, "extent": 16.0}},
             "dim"),
            ("khintchine", {"samples": 1000.5}, "samples"),
            ("khintchine", {"n_vectors": 2.9}, "n_vectors"),
            ("khintchine", {"vector_length": True}, "vector_length"),
            ("tails", {"max_ci_width": 0.1}, "max_ci_width"),
            ("convergence", {"calibration_ensemble": 50}, "calibration_ensemble"),
            ("convergence", {"grid": {"dim": 2, "samples_per_axis": 32, "extent": 16.0},
                             "observation_points": [[16, 16]]}, "kdv"),
            ("convergence", {"observation_points": [[128], [7]]}, "observation_points"),
        ],
        ids=["ensemble-fraction", "ensemble-bool", "ensemble-string", "samples-per-axis",
             "dim-bool", "samples", "n-vectors", "vector-length", "max-ci-width", "calibration-floor", "kdv-on-2d", "two-points"],
    )
    def test_setting_checked_before_output(self, tmp_path, capsys, name, change, key):
        # Each of these ran before (a fraction or a bool truncated to an
        # integer, a second point ignored) or failed after the output
        # directory existed; now each exits 1 naming the key, leaving nothing.
        base = {"tails": BASE_TAILS, "convergence": CONVERGENCE,
                "density": DENSITY, "khintchine": KHINTCHINE}[name]
        cfg = write_config(tmp_path, "c.json", dict(base, **change))
        out = tmp_path / "o"
        assert main([name, "--config", cfg, "--out", str(out)]) == 1
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_missing_required_field_exits_one(self, tmp_path, capsys):
        payload = dict(BASE_TAILS)
        del payload["times"]
        cfg = write_config(tmp_path, "bad.json", payload)
        assert main(["tails", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "times" in capsys.readouterr().err

    def test_wrapping_seed_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "seed.json", dict(BASE_TAILS, seed=2**64 + 7))
        assert main(["tails", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "2^64" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_invalid_thread_count_exits_one(self, tmp_path, capsys, where):
        # No thread count is read any more: the flag is a usage error and
        # the key an unknown field, whatever their value.
        payload = dict(BASE_TAILS, threads=2) if where == "config" else BASE_TAILS
        argv = ["tails", "--config", write_config(tmp_path, "t.json", payload),
                "--out", str(tmp_path / "o")]
        if where == "flag":
            argv += ["--threads", "2"]
        assert main(argv) == 1
        assert "threads" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv", [["tails", "--threads", "two"], ["bogus"]], ids=["bad-flag", "bad-subcommand"]
    )
    def test_usage_error_exits_one(self, tmp_path, capsys, argv):
        # 2 is the code of a failed check, not of a bad command line.
        assert main(argv + ["--out", str(tmp_path / "o")]) == 1
        assert "usage: dispersim" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_usage_error_exit_code_of_the_process(self, tmp_path):
        src = os.path.dirname(os.path.dirname(dispersim.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "dispersim.cli", "bogus"],
            env=env, capture_output=True, text=True, cwd=tmp_path,
        )
        assert done.returncode == 1 and "invalid choice" in done.stderr
        assert list(tmp_path.iterdir()) == []

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "usage: dispersim" in capsys.readouterr().out

    def test_wrapping_derived_seed_exits_one(self, tmp_path, capsys):
        # Calibration draws with seed + 1, which for 2^64 - 1 would wrap
        # onto seed 0's stream.
        payload = dict(DENSITY, seed=2**64 - 1)
        cfg = write_config(tmp_path, "seed.json", payload)
        assert main(["density", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "2^64" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_split_failure_exits_three_without_result_file(self, tmp_path, capsys):
        # A wide Gaussian splits trivially at eps above its norm (4.6), then
        # cannot reach eps 0.5 on this grid: the first row is computed, the
        # second fails, and no CSV may be left behind.
        payload = {
            "grid": {"dim": 1, "samples_per_axis": 256, "extent": 40.0},
            "flow": "kdv",
            "data": {"recipe": "gaussian", "width": 12.0},
            "epsilon_schedule": [5.0, 0.5],
            "ensemble_size": 100,
            "calibration_ensemble": 500,
            "observation_points": [[128]],
            "seed": 3,
        }
        cfg = write_config(tmp_path, "c.json", payload)
        out = tmp_path / "out"
        assert main(["convergence", "--config", cfg, "--out", str(out)]) == 3
        assert "split" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_khintchine_sample_floor_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "k.json", dict(KHINTCHINE, samples=500))
        assert main(["khintchine", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "config error: samples: need at least 1000, got 500" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "pairs",
        [[[[0], [3]]], [[[-1], [0]]], [[[0, 0], [0]]], [[[0], ["x"]]], [[[0]]], [[[1.7], [0]]]],
    )
    def test_bad_multi_index_exits_one(self, tmp_path, capsys, pairs):
        # int() read the entry 1.7 as 1; a fraction is no multi-index entry.
        cfg = write_config(tmp_path, "d.json", dict(DENSITY, multi_indices=pairs))
        out = tmp_path / "o"
        assert main(["density", "--config", cfg, "--out", str(out)]) == 1
        assert "config error: multi_indices: " in capsys.readouterr().err
        assert not out.exists()

    def test_non_numeric_field_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "t.json", dict(BASE_TAILS, ensemble_size="many"))
        assert main(["tails", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "many" in capsys.readouterr().err

    def test_internal_error_exits_four_with_traceback(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("injected internal fault")

        monkeypatch.setattr(dispersim.tailprob, "estimate_tail", broken)
        cfg = write_config(tmp_path, "t.json", BASE_TAILS)
        out = tmp_path / "o"
        assert main(["tails", "--config", cfg, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "Traceback" in err and "injected internal fault" in err
        assert "config error" not in err
        assert list(out.iterdir()) == []

    def test_invalid_json_exits_one(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["tails", "--config", str(path)]) == 1

    def test_checks_pass_exit_zero(self, capsys):
        assert main(["check-propagators"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out


class TestTailsCommand:
    def test_single_cell_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "t.json", BASE_TAILS)
        out = tmp_path / "out"
        assert main(["tails", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "tails_results.csv").read_text().splitlines()
        assert lines[0].startswith("# config=")
        assert lines[1].split(",")[:4] == ["flow", "t", "alpha", "x_index"]
        assert len(lines) == 3  # comment + header + one data row
        manifest = json.loads((out / "tails_manifest.json").read_text())
        assert manifest["seed"] == 7
        assert "lattice_hash" in manifest

    def test_manifest_carries_the_exact_law(self, tmp_path, capsys):
        payload = dict(BASE_TAILS, times=[0.05, 0.1], thresholds=[0.005, 0.01, 0.02],
                       observation_points=[[64], [70]], ensemble_size=2000)
        cfg = write_config(tmp_path, "t.json", payload)
        out = tmp_path / "out"
        assert main(["tails", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "tails_results.csv", newline="") as fh:
            rows = list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
        law = json.loads((out / "tails_manifest.json").read_text())["exact_law"]
        assert len(law["rows"]) == len(rows) == 12
        misses = 0
        for row, entry in zip(rows, law["rows"]):
            assert entry["x_index"] == row["x_index"]
            assert entry["alpha"] == float(row["alpha"]) and entry["t"] == float(row["t"])
            p = math.exp(-((entry["alpha"] / entry["series_norm"]) ** 2))
            assert entry["exact_prob"] == pytest.approx(p, rel=1e-12)
            misses += not float(row["ci_low"]) <= p <= float(row["ci_high"])
            k, m = int(row["exceed_count"]), int(row["M"])
            assert entry["z"] == pytest.approx(dispersim.tailprob.binomial_z(k, m, p))
        assert law["outside_wilson"] == misses

    def test_rerun_with_other_draw_chunk_is_byte_identical(self, tmp_path, monkeypatch):
        payload = dict(BASE_TAILS, times=[0.05, 0.1], thresholds=[0.005, 0.01, 0.02],
                       ensemble_size=400)
        cfg = write_config(tmp_path, "t.json", payload)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["tails", "--config", cfg, "--out", str(out1)]) == 0
        monkeypatch.setattr(tailprob, "_CHUNK", 333)  # a chunk edge mid-ensemble
        monkeypatch.setattr(tailprob, "_DRAW_CHUNK", 16)
        assert main(["tails", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "tails_results.csv").read_bytes() == (
            out2 / "tails_results.csv"
        ).read_bytes()

    def test_environment_is_not_read(self, tmp_path, monkeypatch):
        # Flags and the config file are the only sources: DISPERSIM_SEED,
        # DISPERSIM_OUT and DISPERSIM_CONFIG change neither the rows nor
        # where they go.
        cfg = write_config(tmp_path, "t.json", BASE_TAILS)
        other = write_config(tmp_path, "other.json", dict(BASE_TAILS, thresholds=[0.02]))
        unset, with_env, env_out = tmp_path / "unset", tmp_path / "env", tmp_path / "env_out"
        assert main(["tails", "--config", cfg, "--out", str(unset)]) == 0
        monkeypatch.setenv("DISPERSIM_SEED", "99")
        monkeypatch.setenv("DISPERSIM_OUT", str(env_out))
        monkeypatch.setenv("DISPERSIM_CONFIG", other)
        assert main(["tails", "--config", cfg, "--out", str(with_env)]) == 0
        assert (unset / "tails_results.csv").read_bytes() == (
            with_env / "tails_results.csv"
        ).read_bytes()
        manifest = json.loads((with_env / "tails_manifest.json").read_text())
        assert manifest["seed"] == 7 and manifest["config"] == BASE_TAILS
        # Without --config there is no config: tails misses its keys.
        assert main(["tails", "--out", str(tmp_path / "no_config")]) == 1
        assert not env_out.exists() and not (tmp_path / "no_config").exists()

    def test_whole_float_ensemble_runs_as_its_integer(self, tmp_path):
        payload = dict(BASE_TAILS, ensemble_size=200.0)
        cfg = write_config(tmp_path, "t.json", payload)
        out = tmp_path / "out"
        assert main(["tails", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "tails_results.csv", newline="") as fh:
            (row,) = csv.DictReader(ln for ln in fh if not ln.startswith("#"))
        assert row["M"] == "200"
        assert json.loads((out / "tails_manifest.json").read_text())["ensemble_size"] == 200


class TestConvergenceCommand:
    def test_threshold_column_follows_schedule_formula(self, tmp_path):
        payload = {
            "grid": {"dim": 1, "samples_per_axis": 256, "extent": 40.0},
            "flow": "kdv",
            "data": {"recipe": "gaussian", "width": 2.0},
            "epsilon_schedule": [0.4, 0.2, 0.1],
            "ensemble_size": 300,
            "calibration_ensemble": 2000,
            "observation_points": [[128]],
            "seed": 11,
        }
        cfg = write_config(tmp_path, "c.json", payload)
        out = tmp_path / "out"
        assert main(["convergence", "--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "convergence_manifest.json").read_text())
        consts = manifest["fitted_constants"]["kdv"]
        lines = (out / "convergence_results.csv").read_text().splitlines()[2:]
        assert len(lines) == 3
        for line in lines:
            parts = line.split(",")
            eps, alpha = float(parts[1]), float(parts[3])
            expected = consts["C"] * math.e * eps * math.sqrt(
                math.log(3 * consts["C1"] / eps)
            )
            assert abs(alpha - expected) < 1e-12

    def test_series_computed_once_per_time(self, tmp_path, monkeypatch):
        # Calibration thresholds, calibration ensembles and the curve all
        # read one series stack per flow, one row per time t = eps / 2.
        payload = dict(CONVERGENCE, epsilon_schedule=[0.4, 0.2, 0.1])
        calls = []
        inner = dispersim.tailprob._deviation_stack

        def counted(flow, f, times, points):
            calls.append(tuple(times))
            return inner(flow, f, times, points)

        monkeypatch.setattr(dispersim.tailprob, "_deviation_stack", counted)
        cfg = write_config(tmp_path, "c.json", payload)
        assert main(["convergence", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert calls == [(0.2, 0.1, 0.05)]

    def test_curve_below_the_tails_ensemble_floor(self, tmp_path):
        # Only the calibration is a tails experiment with its floor of 100
        # draws; the curve counts any ensemble_size of at least 1.
        cfg = write_config(tmp_path, "c.json", dict(CONVERGENCE, ensemble_size=50))
        out = tmp_path / "out"
        assert main(["convergence", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "convergence_results.csv", newline="") as fh:
            table = list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
        assert [row["M"] for row in table] == ["50"]

    def test_split_falls_back_to_cutoff_only(self, tmp_path):
        # The sigma schedule stalls at ||h|| = 0.075 on this data; the
        # cutoff alone reaches 5e-10, so eps = 0.05 runs instead of exiting 3.
        cfg = write_config(tmp_path, "c.json", CONVERGENCE)
        out = tmp_path / "out"
        assert main(["convergence", "--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "convergence_manifest.json").read_text())
        (split,) = manifest["fitted_constants"]["kdv"]["splits"]
        assert split["sigma"] == 0.0 and split["achieved_h_norm"] < 0.05


    def test_manifest_carries_the_exact_law(self, tmp_path, capsys):
        # Each curve row's deviation is CN(0, ||a||^2) with a the series of
        # its cell (eps / 2, x), so P(|Y| > alpha) = exp(-alpha^2 / ||a||^2).
        payload = dict(CONVERGENCE, epsilon_schedule=[0.4, 0.2, 0.1], ensemble_size=2000)
        del payload["flow"]
        payload["flows"] = ["kdv", "schrodinger:+"]
        cfg = write_config(tmp_path, "c.json", payload)
        out = tmp_path / "out"
        assert main(["convergence", "--config", cfg, "--out", str(out)]) == 0
        law = json.loads((out / "convergence_manifest.json").read_text())["exact_law"]
        with open(out / "convergence_results.csv", newline="") as fh:
            table = list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
        spec = parse_grid(payload["grid"])
        data = parse_data(payload["data"], spec)
        schedule = payload["epsilon_schedule"]
        assert [(r["flow"], r["t"]) for r in law["rows"]] == [
            (flow, eps / 2.0) for flow in payload["flows"] for eps in schedule
        ]
        for entry, row in zip(law["rows"], table):
            assert entry["alpha"] == float(row["alpha"]) and entry["x_index"] == "128"
            flow = FlowKind.parse(entry["flow"])
            a = dispersim.tailprob.deviation_coefficients(flow, data, entry["t"], (128,))
            norm = dispersim.tailprob.series_norm(a)
            p = math.exp(-((entry["alpha"] / norm) ** 2))
            assert entry["series_norm"] == norm
            assert entry["exact_prob"] == pytest.approx(p, rel=1e-15)
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 0
        (line,) = [ln for ln in capsys.readouterr().out.splitlines()
                   if ln.startswith("convergence_manifest.json: max |z| ")]
        assert "Bonferroni over 6 rows" in line and line.endswith(" yes")


class TestDensityCommand:
    def test_density_rows(self, tmp_path):
        cfg = write_config(tmp_path, "d.json", DENSITY)
        out = tmp_path / "out"
        assert main(["density", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "density_results.csv").read_text().splitlines()
        assert len(lines) == 3
        row = dict(zip(lines[1].split(","), lines[2].split(",")))
        assert float(row["target"]) == 1.0 - 2 * 0.2
        assert 0.0 <= float(row["prob"]) <= 1.0

    def test_rows_sharing_a_split_draw_once(self, tmp_path, monkeypatch):
        # On this grid eps = 0.2 and 0.1 select the same split, so the run
        # draws one calibration and one event ensemble, and each row is the
        # row of a run of its eps alone.
        payload = {
            "grid": {"dim": 2, "samples_per_axis": 64, "extent": 32.0},
            "data": {"recipe": "gaussian", "width": 2.0},
            "epsilon_schedule": [0.2, 0.1],
            "ensemble_size": 200,
            "calibration_ensemble": 300,
            "seed": 7,
        }
        calls = []
        inner = dispersim.tailprob._split_draw_statistics

        def counted(*args, **kwargs):
            calls.append(args[2:4])
            return inner(*args, **kwargs)

        monkeypatch.setattr(dispersim.tailprob, "_split_draw_statistics", counted)
        out = tmp_path / "both"
        assert main(["density", "--config", write_config(tmp_path, "d.json", payload),
                     "--out", str(out)]) == 0
        assert calls == [(300, 8), (200, 7)]
        rows = (out / "density_results.csv").read_text().splitlines()[2:]
        for eps, row in zip(payload["epsilon_schedule"], rows):
            single = dict(payload, epsilon_schedule=[eps])
            out = tmp_path / repr(eps)
            cfg = write_config(tmp_path, f"{eps}.json", single)
            assert main(["density", "--config", cfg, "--out", str(out)]) == 0
            assert (out / "density_results.csv").read_text().splitlines()[2:] == [row]

    def test_rerun_with_other_draw_chunk_is_byte_identical(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, "d.json", DENSITY)
        out1, out3 = tmp_path / "o1", tmp_path / "o3"
        assert main(["density", "--config", cfg, "--out", str(out1)]) == 0
        monkeypatch.setattr(tailprob, "_CHUNK", 333)
        monkeypatch.setattr(tailprob, "_DRAW_CHUNK", 16)  # chunk edges mid-ensemble
        assert main(["density", "--config", cfg, "--out", str(out3)]) == 0
        assert (out1 / "density_results.csv").read_bytes() == (
            out3 / "density_results.csv"
        ).read_bytes()

    def test_3d_defaults_keep_beta_within_order_two(self, tmp_path):
        payload = {
            "grid": {"dim": 3, "samples_per_axis": 16, "extent": 16.0},
            "data": {"recipe": "gaussian", "width": 2.0},
            "epsilon_schedule": [0.2],
            "ensemble_size": 100,
        }
        out = tmp_path / "out"
        assert main(["density", "--config", write_config(tmp_path, "d.json", payload),
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "density_manifest.json").read_text())
        assert manifest["multi_indices"] == [[[0, 0, 0], [0, 0, 0]], [[1, 1, 1], [1, 1, 0]]]


class TestReportCommand:
    def test_aggregates_result_files(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "t.json", BASE_TAILS)
        out = tmp_path / "out"
        assert main(["tails", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "tails_results.csv" in text

    def test_verdicts_for_khintchine_and_density_rows(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["khintchine", "--out", str(out)]) == 0  # the defaults: 80 rows
        cfg = write_config(tmp_path, "d.json", DENSITY)
        assert main(["density", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "density_results.csv", newline="") as fh:
            (density,) = csv.DictReader(ln for ln in fh if not ln.startswith("#"))
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        khintchine = [ln for ln in lines if ln.startswith("khintchine_results.csv")]
        assert len(khintchine) == 80
        assert all(ln.split()[-3:-1] == ["<=", "3.0"] for ln in khintchine)
        assert all(ln.endswith(" yes") for ln in khintchine)
        (row,) = [ln for ln in lines if ln.startswith("density_results.csv")]
        reached = float(density["ci_high"]) >= float(density["target"])
        assert row.endswith(" yes" if reached else " NO") and " >= " in row
        assert f"{80 + 1 - (not reached)}/81 rows pass their check" in lines

    def test_exact_law_judged_by_the_familywise_rule(self, tmp_path, capsys):
        payload = dict(BASE_TAILS, times=[0.05, 0.1], thresholds=[0.005, 0.01, 0.02],
                       observation_points=[[64], [70]], ensemble_size=2000)
        cfg = write_config(tmp_path, "t.json", payload)
        out = tmp_path / "out"
        assert main(["tails", "--config", cfg, "--out", str(out)]) == 0
        # Bonferroni over 12 rows at familywise alpha 1e-4.
        limit = NormalDist().inv_cdf(1.0 - 1e-4 / 24.0)

        def verdict():
            capsys.readouterr()
            assert main(["report", "--out", str(out)]) == 0
            (line,) = [ln for ln in capsys.readouterr().out.splitlines()
                       if ln.startswith("tails_manifest.json:")]
            assert f"limit {limit:.3f}" in line and "12 rows" in line
            return line

        manifest_path = out / "tails_manifest.json"
        manifest = json.loads(manifest_path.read_text())
        worst = max(abs(r["z"]) for r in manifest["exact_law"]["rows"])
        assert worst <= limit
        line = verdict()
        assert f"max |z| {worst:.3f}" in line and line.endswith(" yes")
        manifest["exact_law"]["rows"][5]["z"] = -6.0
        manifest_path.write_text(json.dumps(manifest))
        line = verdict()
        assert "max |z| 6.000" in line and line.endswith(" NO")

    def test_empty_directory(self, tmp_path, capsys):
        assert main(["report", "--out", str(tmp_path / "nothing")]) == 0
        assert "no result files" in capsys.readouterr().out


class TestKhintchineCommand:
    def test_ratio_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "k.json", KHINTCHINE)
        out = tmp_path / "out"
        assert main(["khintchine", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "khintchine_results.csv").read_text().splitlines()
        assert lines[1] == "vector_id,p,moment,ratio"
        assert len(lines) == 2 + 4 * 2
        manifest = json.loads((out / "khintchine_manifest.json").read_text())
        assert manifest["worst_ratio"] <= 3.0

    def test_manifest_carries_the_exact_gaussian_moment(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "k.json", KHINTCHINE)
        out = tmp_path / "out"
        assert main(["khintchine", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "khintchine_results.csv", newline="") as fh:
            rows = list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
        exact = json.loads((out / "khintchine_manifest.json").read_text())["exact_moments"]
        assert len(exact) == len(rows) == 8
        for row, entry in zip(rows, exact):
            assert entry["vector_id"] == int(row["vector_id"])
            p = entry["p"]
            assert p == float(row["p"])
            # Every vector has unit norm: CN(0, 1) has E|Y|^p = Gamma(1 + p/2).
            law = math.gamma(1.0 + p / 2.0) ** (1.0 / p)
            assert entry["exact_moment"] == pytest.approx(law, rel=1e-14)
            moment = float(row["moment"])
            assert entry["relative_error"] == pytest.approx((moment - law) / law, rel=1e-9)
            assert abs(entry["relative_error"]) < 0.1


# The columns README.md documents for each result table.
COLUMNS = {
    "khintchine": ["vector_id", "p", "moment", "ratio"],
    "tails": ["flow", "t", "alpha", "x_index", "exceed_count", "M", "prob",
              "ci_low", "ci_high", "bound"],
    "convergence": ["flow", "epsilon", "t", "alpha", "exceed_count", "M", "prob",
                    "ci_low", "ci_high", "h_norm", "bound"],
    "density": ["epsilon", "lambda", "m_threshold", "hit_count", "M", "prob",
                "ci_low", "ci_high", "target"],
}


@pytest.mark.parametrize(
    "subcommand, payload",
    [
        ("khintchine", KHINTCHINE),
        ("tails", BASE_TAILS),
        ("convergence", CONVERGENCE),
        ("density", DENSITY),
    ],
)
def test_result_files_share_one_layout(tmp_path, capsys, subcommand, payload):
    cfg = write_config(tmp_path, "cfg.json", payload)
    out = tmp_path / "out"
    assert main([subcommand, "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / f"{subcommand}_manifest.json").read_text())
    shared = {"config", "config_hash", "seed", "software_version", "normalization",
              "created_at"}
    assert shared <= set(manifest)
    assert manifest["config"] == payload and manifest["seed"] == payload["seed"]
    assert ("lattice_hash" in manifest) == ("grid" in payload)

    with open(out / f"{subcommand}_results.csv", newline="") as fh:
        first = fh.readline()
        header, *rows = list(csv.reader(fh))
    assert first == f"# config={manifest['config_hash']}\n"
    assert header == COLUMNS[subcommand]
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    assert f"`{','.join(header)}`" in readme
    assert rows and all(len(r) == len(header) for r in rows)

    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 0
    assert capsys.readouterr().out.count(f"{subcommand}_results.csv") == len(rows)
