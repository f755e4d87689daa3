import csv
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

import dispersim
from dispersim import tailprob
from dispersim.cli import (
    _SUBCOMMANDS,
    config_hash,
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
    "seed": 5,
}


CONVERGENCE = {
    "grid": {"dim": 1, "samples_per_axis": 256, "extent": 40.0},
    "flow": "kdv",
    "data": {"recipe": "gaussian", "width": 2.0},
    "epsilon_schedule": [0.05],
    "ensemble_size": 100,
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
        assert parse_seed(7.0) == 7
        with pytest.raises(ConfigurationError):
            parse_seed("seven")

    def test_import_leaves_scipy_out(self):
        # scipy is a test-only dependency; the CLI must not pay its import.
        src = os.path.dirname(os.path.dirname(dispersim.__file__))
        code = "import sys, dispersim.cli; print(sorted({m.split('.')[0] for m in sys.modules}))"
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert "'scipy'" not in done.stdout and "'numpy'" in done.stdout

    def test_density_run_leaves_numpy_ma_out(self, tmp_path):
        # np.quantile imports numpy.ma lazily, about 10 ms of a run; density
        # takes its thresholds from proven tails and quantiles nothing.
        src = os.path.dirname(os.path.dirname(dispersim.__file__))
        args = ["density", "--config", write_config(tmp_path, "d.json", DENSITY),
                "--out", str(tmp_path / "o")]
        code = (
            f"import sys; from dispersim.cli import main; assert main({args!r}) == 0;"
            " print('numpy.ma' in sys.modules)"
        )
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout.splitlines()[-1] == "False"

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

    def test_check_wiener_leaves_tailprob_out(self, tmp_path):
        # The runners that use tailprob import it (about 10 ms); importing
        # the CLI and a default check-wiener run load none of it, and a
        # tails run in the same process still finds it.
        src = os.path.dirname(os.path.dirname(dispersim.__file__))
        args = ["tails", "--config", write_config(tmp_path, "t.json", BASE_TAILS),
                "--out", str(tmp_path / "o")]
        code = (
            "import sys, dispersim.cli; seen = ['dispersim.tailprob' in sys.modules];"
            " assert dispersim.cli.main(['check-wiener']) == 0;"
            " seen.append('dispersim.tailprob' in sys.modules);"
            f" assert dispersim.cli.main({args!r}) == 0;"
            " print(seen, 'dispersim.tailprob' in sys.modules)"
        )
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout.splitlines()[-1] == "[False, False] True"

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
        assert config_hash(base, 7) == config_hash(dict(base, output_dir="elsewhere"), 7)
        assert config_hash(base, 7) != config_hash(base, 8)

    def test_config_hash_names_the_effective_seed(self, tmp_path, capsys):
        # --seed 8 over a config without a seed hashes like {"seed": 8};
        # --seed 9 over the same config does not.
        unseeded = {k: v for k, v in KHINTCHINE.items() if k != "seed"}
        runs = {
            "flag8": (unseeded, ["--seed", "8"]),
            "key8": (dict(unseeded, seed=8), []),
            "flag9": (unseeded, ["--seed", "9"]),
        }
        hashes = {}
        for name, (payload, flags) in runs.items():
            cfg = write_config(tmp_path, f"{name}.json", payload)
            out = tmp_path / name
            assert main(["khintchine", "--config", cfg, "--out", str(out), *flags]) == 0
            manifest = json.loads((out / "khintchine_manifest.json").read_text())
            first = (out / "khintchine_results.csv").read_text().splitlines()[0]
            assert first == f"# config={manifest['config_hash']}"
            hashes[name] = manifest["config_hash"]
        assert hashes["flag8"] == hashes["key8"] != hashes["flag9"]


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
            ("convergence", {"calibration_ensemble": 500}, "calibration_ensemble"),
            ("density", {"calibration_ensemble": 300}, "calibration_ensemble"),
            # At least 100 draws, as for tails.
            ("density", {"ensemble_size": 50}, "ensemble_size must be a whole number >= 100"),
            ("convergence", {"grid": {"dim": 2, "samples_per_axis": 32, "extent": 16.0},
                             "observation_points": [[16, 16]]}, "kdv"),
            ("convergence", {"observation_points": [[128], [7]]}, "observation_points"),
            ("khintchine", {"p_values": [2, 342]}, "p_values"),
            ("tails", {"grid": [1, 128, 16.0]}, "grid must be an object"),
            ("tails", {"data": {"width": 2.0}}, "recipe"),
            ("tails", {"data": {"recipe": "gaussian", "width": 0}}, "width must be positive"),
            ("tails", {"data": {"recipe": "mode", "frequency": [0.0, 0.0]}},
             "one entry per axis"),
            ("tails", {"data": {"recipe": "indicator", "radius": -1}},
             "radius must be positive"),
            ("tails", {"data": {"recipe": "custom-file", "path": "no-such-dir/f.bin"}},
             "cannot read custom-file"),
            ("tails", {"data": {"recipe": "spline"}}, "unknown data recipe"),
            ("tails", {"flows": ["kdv"]}, "exactly one of"),
            ("convergence", {"epsilon_schedule": [0.05, -0.1]}, "epsilon_schedule"),
            ("convergence", {"epsilon_schedule": [3.0]}, "epsilon_schedule"),
            ("convergence", {"epsilon_schedule": [0.05, 10.0]}, "epsilon_schedule"),
            # kdv leaves a constant field in place: every cell's series is
            # zero, and no bound constant C > 0 exists.
            ("convergence", {"data": {"recipe": "mode", "frequency": [0.0]}},
             "config error: kdv: the deviation at x = 128 vanishes"),
            # A real setting is a JSON number: a string or a bool read as
            # one (true as 1.0) before.
            ("tails", {"times": ["0.1"]}, "times[0] must be a number"),
            ("tails", {"thresholds": [True, 0.01]}, "thresholds[0] must be a number"),
            ("tails", {"grid": {"dim": 1, "samples_per_axis": 128, "extent": "16"}},
             "grid.extent must be a number"),
            ("tails", {"data": {"recipe": "gaussian", "width": True}},
             "data.width must be a number"),
            ("tails", {"data": {"recipe": "gaussian", "amplitude": "2"}},
             "data.amplitude must be a number"),
            ("tails", {"data": {"recipe": "indicator", "radius": False}},
             "data.radius must be a number"),
            ("tails", {"data": {"recipe": "mode", "frequency": ["0"]}},
             "data.frequency[0] must be a number"),
            ("density", {"epsilon_schedule": ["0.2"]}, "epsilon_schedule[0] must be a number"),
            ("khintchine", {"p_values": [2, "4"]}, "p_values[1] must be a number"),
            ("tails", {"flow": None, "flows": ["kdv", "kdv"]}, "duplicate flow kdv"),
            ("convergence", {"flow": None, "flows": ["kdv", "kdv"]}, "duplicate flow kdv"),
        ],
        ids=["ensemble-fraction", "ensemble-bool", "ensemble-string", "samples-per-axis",
             "dim-bool", "samples", "n-vectors", "vector-length", "max-ci-width",
             "calibration-unknown-key", "density-calibration-unknown-key",
             "density-ensemble-floor", "kdv-on-2d", "two-points",
             "gamma-overflow", "grid-not-object", "data-without-recipe", "zero-width",
             "mode-length", "negative-radius", "missing-custom-file", "unknown-recipe",
             "flow-and-flows", "negative-epsilon", "epsilon-three", "epsilon-ten",
             "vanishing-deviation", "string-time", "bool-threshold", "string-extent",
             "bool-width", "string-amplitude", "bool-radius", "string-frequency",
             "string-epsilon", "string-p", "duplicate-tails-flow",
             "duplicate-convergence-flow"],
    )
    def test_setting_checked_before_output(self, tmp_path, capsys, name, change, key):
        # Each of these ran before (a fraction or a bool truncated to an
        # integer, a second point ignored) or failed after the output
        # directory existed; now each exits 1 naming the key, leaving nothing.
        base = {"tails": BASE_TAILS, "convergence": CONVERGENCE,
                "density": DENSITY, "khintchine": KHINTCHINE}[name]
        payload = {k: v for k, v in dict(base, **change).items() if v is not None}  # None drops
        cfg = write_config(tmp_path, "c.json", payload)
        out = tmp_path / "o"
        assert main([name, "--config", cfg, "--out", str(out)]) == 1
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", [5, None, ["a"], ""], ids=["int", "null", "list", "empty"])
    def test_bad_output_dir_exits_one_before_the_run(self, tmp_path, monkeypatch, capsys, value):
        # Without --out the config key is the output directory; a value that
        # is no non-empty string was an internal error after the whole run.
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, "k.json", dict(KHINTCHINE, output_dir=value))
        assert main(["khintchine", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert "output_dir" in captured.err
        assert captured.out == ""
        assert sorted(os.listdir(tmp_path)) == ["k.json"]

    @pytest.mark.parametrize("flag, setting", [("--out", "output_dir"), ("--seed", "seed")],
                             ids=["out", "seed"])
    def test_empty_flag_exits_one(self, tmp_path, monkeypatch, capsys, flag, setting):
        # A flag beats the config even when empty: it is rejected, not
        # taken as absent (the config's seed 5, or the default ./results).
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, "k.json", dict(KHINTCHINE, seed=5))
        assert main(["khintchine", "--config", cfg, flag, ""]) == 1
        assert setting in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["k.json"]

    def test_custom_file_path_must_be_a_string(self, tmp_path, capfd):
        # A number is no path: open() would read it as a file descriptor
        # (true is fd 1) and close it afterwards.  capfd stands in for fd 1.
        spec = parse_grid(BASE_TAILS["grid"])
        write_binary(Field(spec, np.ones(spec.shape)), tmp_path / "f.bin")
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, (tmp_path / "f.bin").read_bytes())
            os.close(write_end)
            for path in (read_end, True):
                data = {"recipe": "custom-file", "path": path}
                cfg = write_config(tmp_path, "c.json", dict(BASE_TAILS, data=data))
                assert main(["tails", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
                assert "path" in capfd.readouterr().err
            os.fstat(read_end)  # still open
        finally:
            os.close(read_end)
        assert not (tmp_path / "o").exists()

    def test_spectrum_tagged_custom_file_exits_one(self, tmp_path, capsys):
        # Byte 4 of the header is the representation tag; only fields (0) load.
        spec = parse_grid(BASE_TAILS["grid"])
        path = tmp_path / "spectrum.bin"
        write_binary(Field(spec, np.ones(spec.shape)), path)
        raw = bytearray(path.read_bytes())
        raw[4] = 1
        path.write_bytes(bytes(raw))
        data = {"recipe": "custom-file", "path": str(path)}
        cfg = write_config(tmp_path, "c.json", dict(BASE_TAILS, data=data))
        assert main(["tails", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and str(path) in err
        assert not (tmp_path / "o").exists()

    def test_custom_file_of_another_grid_exits_one(self, tmp_path, capsys):
        path = tmp_path / "coarse.bin"
        write_binary(Field(GridSpec(1, 64, 16.0), np.ones(64)), path)
        data = {"recipe": "custom-file", "path": str(path)}
        cfg = write_config(tmp_path, "c.json", dict(BASE_TAILS, data=data))
        assert main(["tails", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "does not match the configured grid" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "name, payload, named",
        [
            ("tails", dict(BASE_TAILS, grid=dict(BASE_TAILS["grid"], extent=math.inf)),
             "grid.extent"),
            ("tails", dict(BASE_TAILS, grid=dict(BASE_TAILS["grid"], extent="1e309")),
             "grid.extent"),
            ("check-wiener", {"grids": [{"dim": 1, "samples_per_axis": 64, "extent": math.inf}]},
             "grids[0].extent"),
            ("check-wiener", {"grids": [{"dim": 1, "samples_per_axis": 64, "extent": 1e-300}]},
             "extent"),
            ("check-propagators",
             {"grids": [{"dim": 1, "samples_per_axis": 64, "extent": 1e-300}]}, "extent"),
            ("tails", dict(BASE_TAILS, grid=dict(BASE_TAILS["grid"], extent=1e-300)), "extent"),
            ("density", dict(DENSITY, grid=dict(DENSITY["grid"], extent=1e-300)), "extent"),
            ("tails", dict(BASE_TAILS, data={"recipe": "gaussian", "width": 1e-300}), "width"),
            ("density", dict(DENSITY, grid={"dim": 2, "samples_per_axis": 32, "extent": 16.0},
                             data={"recipe": "gaussian", "width": 1e-300}, multi_indices=[]),
             "width"),
            ("convergence", dict(CONVERGENCE, data={"recipe": "gaussian", "width": 1e-300}),
             "width"),
            ("tails", dict(BASE_TAILS, data={"recipe": "gaussian", "amplitude": math.nan}),
             "data.amplitude"),
            ("tails", dict(BASE_TAILS, times=[math.nan]), "times[0]"),
            ("tails", dict(BASE_TAILS, times=["1e309"]), "times[0]"),
            ("tails", dict(BASE_TAILS, data={"recipe": "custom-file", "path": "nan.bin"}),
             "nan.bin"),
            ("tails", dict(BASE_TAILS, thresholds=[math.nan]), "thresholds[0]"),
            ("tails", dict(BASE_TAILS, thresholds=["1e309"]), "thresholds[0]"),
            ("khintchine", dict(KHINTCHINE, p_values=[2, math.nan]), "p_values[1]"),
        ],
    )
    def test_non_finite_number_exits_one(self, tmp_path, monkeypatch, capsys, name, payload,
                                         named):
        # JSON reads NaN, Infinity and 1e309 (written bare below) as
        # non-finite floats; a tiny gaussian width makes NaN samples, and a
        # tiny extent a grid too coarse in frequency.
        monkeypatch.chdir(tmp_path)
        spec = parse_grid(BASE_TAILS["grid"])
        values = np.ones(spec.shape, dtype=np.complex128)
        values[3] = np.nan
        write_binary(Field(spec, values), "nan.bin")
        (tmp_path / "c.json").write_text(json.dumps(payload).replace('"1e309"', "1e309"))
        assert main([name, "--config", "c.json", "--out", "o"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error") and named in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "name, payload",
        [
            ("check-wiener", {"grids": [{"dim": 1, "samples_per_axis": 64, "extent": 1e-100}]}),
            ("check-wiener", {"grids": [{"dim": 1, "samples_per_axis": 64, "extent": 1e-6}]}),
            ("tails", dict(BASE_TAILS, grid={"dim": 3, "samples_per_axis": 16, "extent": 1e-3},
                           observation_points=[[8, 8, 8]])),
            ("density", dict(DENSITY, grid=dict(DENSITY["grid"], extent=3.0))),
        ],
    )
    def test_coarse_frequency_spacing_exits_one(self, tmp_path, capsys, name, payload):
        # A spacing 2*pi/extent of 2 or more would build a unit lattice that
        # grows with the spacing (4e8 points for the 1D 1e-6 grid); the grid
        # is rejected before anything is allocated.
        cfg = write_config(tmp_path, "c.json", payload)
        start = time.perf_counter()
        assert main([name, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("config error") and "extent" in err
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize(
        "name, payload", [("density", DENSITY), ("khintchine", KHINTCHINE)],
        ids=["density", "khintchine"],
    )
    def test_largest_seed_runs_every_stream(self, tmp_path, name, payload):
        # Density's ensemble halves and khintchine's vectors read sample
        # ranges of the run's own stream, so no seed is derived from 2^64 - 1.
        assert payload.get("n_vectors", 2) >= 2
        cfg = write_config(tmp_path, "seed.json", dict(payload, seed=2**64 - 1))
        out = tmp_path / "o"
        assert main([name, "--config", cfg, "--out", str(out)]) == 0
        assert json.loads((out / f"{name}_manifest.json").read_text())["seed"] == 2**64 - 1

    def test_largest_seed_runs_convergence(self, tmp_path):
        # Convergence draws no calibration ensemble, so it derives no seed:
        # 2^64 - 1 is a seed like any other.
        cfg = write_config(tmp_path, "seed.json", dict(CONVERGENCE, seed=2**64 - 1))
        out = tmp_path / "o"
        assert main(["convergence", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads((out / "convergence_manifest.json").read_text())["seed"] == 2**64 - 1

    def test_split_failure_exits_three_without_result_file(self, tmp_path, capsys):
        # A wide Gaussian splits trivially at eps above its norm (2.74), then
        # stalls at ||h|| = 0.588 short of eps 0.5 on this grid: the first
        # row is computed, the second fails, and no CSV may be left behind.
        payload = {
            "grid": {"dim": 1, "samples_per_axis": 256, "extent": 40.0},
            "flow": "kdv",
            "data": {"recipe": "gaussian", "width": 12.0, "amplitude": 0.6},
            "epsilon_schedule": [2.9, 0.5],
            "ensemble_size": 100,
            "observation_points": [[128]],
            "seed": 3,
        }
        cfg = write_config(tmp_path, "c.json", payload)
        out = tmp_path / "out"
        assert main(["convergence", "--config", cfg, "--out", str(out)]) == 3
        assert "split" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under-file"])
    def test_output_directory_that_cannot_be_made_exits_one(self, tmp_path, capsys, below):
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory")
        out = blocker / below if below else blocker
        cfg = write_config(tmp_path, "k.json", KHINTCHINE)
        assert main(["khintchine", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"config error: cannot create output directory {str(out)!r}" in err
        assert "Traceback" not in err
        assert blocker.read_text() == "not a directory"

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
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [("{not json", "config is not valid JSON"), ("[1, 2]", "config must be a JSON object"),
         (None, "cannot read config")],
        ids=["broken", "not-object", "missing"],
    )
    def test_invalid_json_exits_one(self, tmp_path, capsys, text, message):
        path = tmp_path / "config.json"
        if text is not None:
            path.write_text(text)
        assert main(["tails", "--config", str(path)]) == 1
        assert message in capsys.readouterr().err

    def test_checks_pass_exit_zero(self, capsys):
        assert main(["check-propagators"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_check_wiener_default_grids_pass(self, capsys):
        assert main(["check-wiener"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "16/16 checks passed"

    def test_check_wiener_duplicate_dimension_exits_one(self, tmp_path, capsys):
        grid = {"dim": 1, "samples_per_axis": 64, "extent": 16.0}
        payload = {"grids": [grid, dict(grid, samples_per_axis=32)]}
        cfg = write_config(tmp_path, "grids.json", payload)
        out = tmp_path / "o"
        assert main(["check-wiener", "--config", cfg, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "duplicate grid for dim 1" in captured.err
        assert "checks passed" not in captured.out
        assert not out.exists()


def readme_tails_config() -> dict:
    """The tails config of README.md's command-line example, as written."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    return json.loads(readme.split("cat > tails.json <<'EOF'\n", 1)[1].split("EOF", 1)[0])


class TestTailsCommand:
    def test_readme_example_uses_default_points(self, tmp_path, capsys):
        # No observation_points: the origin, then 4 grid points drawn from the seed.
        config = readme_tails_config()
        assert "observation_points" not in config
        cfg = write_config(tmp_path, "tails.json", config)
        tables = []
        for name, seed in (("a", []), ("b", []), ("other", ["--seed", "8"])):
            out = tmp_path / name
            assert main(["tails", "--config", cfg, "--out", str(out), *seed]) == 0
            tables.append((out / "tails_results.csv").read_bytes())
        assert tables[0] == tables[1]
        points = []
        for table in (tables[0], tables[2]):
            lines = table.decode().splitlines()[1:]
            rows = list(csv.DictReader(lines))
            assert len(rows) == 45
            points.append(list(dict.fromkeys(row["x_index"] for row in rows)))
        assert len(points[0]) == len(points[1]) == 5
        assert points[0][0] == points[1][0] == "128"
        assert points[0][1:] != points[1][1:]

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
        assert "warnings" not in manifest  # no data-blind time-limit diagnostic

    def test_manifest_carries_the_exact_law(self, tmp_path, capsys):
        payload = dict(BASE_TAILS, times=[0.05, 0.1], thresholds=[0.005, 0.01, 0.02],
                       observation_points=[[64], [70]], ensemble_size=2000)
        cfg = write_config(tmp_path, "t.json", payload)
        out = tmp_path / "out"
        assert main(["tails", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "tails_results.csv", newline="") as fh:
            rows = list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
        manifest = json.loads((out / "tails_manifest.json").read_text())
        assert manifest["fitted_constants"]["kdv"]["regime"] == "flow-deviation"
        law = manifest["exact_law"]
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


    def test_whole_float_seed_runs_as_its_integer(self, tmp_path, capsys):
        bodies = []
        for seed in (7, 7.0):
            out = tmp_path / f"out{len(bodies)}"
            cfg = write_config(tmp_path, "t.json", dict(BASE_TAILS, seed=seed))
            assert main(["tails", "--config", cfg, "--out", str(out)]) == 0
            hash_line, body = (out / "tails_results.csv").read_text().split("\n", 1)
            assert hash_line.startswith("# config=")
            bodies.append(body)
            assert json.loads((out / "tails_manifest.json").read_text())["seed"] == 7
        assert bodies[0] == bodies[1]
        for seed in (7.5, True, "7.5"):
            cfg = write_config(tmp_path, "t.json", dict(BASE_TAILS, seed=seed))
            out = tmp_path / "bad"
            assert main(["tails", "--config", cfg, "--out", str(out)]) == 1
            assert "seed" in capsys.readouterr().err
            assert not out.exists()


class TestConvergenceCommand:
    def test_threshold_column_follows_schedule_formula(self, tmp_path):
        payload = {
            "grid": {"dim": 1, "samples_per_axis": 256, "extent": 40.0},
            "flow": "kdv",
            "data": {"recipe": "gaussian", "width": 2.0},
            "epsilon_schedule": [0.4, 0.2, 0.1],
            "ensemble_size": 300,
            "observation_points": [[128]],
            "seed": 11,
        }
        cfg = write_config(tmp_path, "c.json", payload)
        out = tmp_path / "out"
        assert main(["convergence", "--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "convergence_manifest.json").read_text())
        consts = manifest["exact_law_constants"]["kdv"]
        assert consts["C1"] == 1.0
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
        # The constants and the curve read one series stack per flow, one
        # row per time t = eps / 2.
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
        # The tails floor of 100 draws does not hold here: the curve counts
        # any ensemble_size of at least 1.
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
        (split,) = manifest["exact_law_constants"]["kdv"]["splits"]
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
        # draws one ensemble, samples [0, 500) of seed 7, as the two ranges
        # cut at the block boundary 256, and each row is the row of a run of
        # its eps alone.
        payload = {
            "grid": {"dim": 2, "samples_per_axis": 64, "extent": 32.0},
            "data": {"recipe": "gaussian", "width": 2.0},
            "epsilon_schedule": [0.2, 0.1],
            "ensemble_size": 500,
            "seed": 7,
        }
        calls = []
        inner = dispersim.tailprob._run_ensembles

        def counted(run, ensembles):
            calls.append((run.args[1], ensembles))
            return inner(run, ensembles)

        monkeypatch.setattr(dispersim.tailprob, "_run_ensembles", counted)
        out = tmp_path / "both"
        assert main(["density", "--config", write_config(tmp_path, "d.json", payload),
                     "--out", str(out)]) == 0
        assert calls == [(7, [range(256), range(256, 500)])]
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
        # Block edges mid-ensemble, one of them inside a read of 7 draws.
        monkeypatch.setattr(tailprob, "_DRAW_BLOCK", 7)
        assert main(["density", "--config", cfg, "--out", str(out3)]) == 0
        assert (out1 / "density_results.csv").read_bytes() == (
            out3 / "density_results.csv"
        ).read_bytes()

    @pytest.mark.parametrize("failing", [0, 256], ids=["caller", "helper"])
    def test_failed_ensemble_exits_four_with_one_traceback(
        self, tmp_path, capsys, monkeypatch, failing
    ):
        # The ensemble's samples [0, 256) run in the calling thread, and
        # [256, 300) in the helper thread.
        stream = tailprob._RowStream

        def failing_stream(seed, start):
            if start == failing:
                raise RuntimeError(f"stream {start} failed")
            return stream(seed, start)

        monkeypatch.setattr(tailprob, "_RowStream", failing_stream)
        out = tmp_path / "o"
        cfg = write_config(tmp_path, "d.json", DENSITY)
        assert main(["density", "--config", cfg, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.count("Traceback (most recent call last)") == 1
        assert f"stream {failing} failed" in err and "Exception in thread" not in err
        assert not out.exists()

    def test_vanishing_seminorm_exits_one_before_any_thread(self, tmp_path, capsys, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(tailprob, "decay_seminorm", lambda *args: 0.0)
        monkeypatch.setattr(tailprob.threading, "Thread", no_thread)
        out = tmp_path / "o"
        cfg = write_config(tmp_path, "d.json", DENSITY)
        assert main(["density", "--config", cfg, "--out", str(out)]) == 1
        assert "decay seminorm of the smooth part vanishes" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_data_needs_no_fit(self, tmp_path):
        # Zero data splits into g = 0 and h = 0: lambda and M are 0, and
        # every draw meets them; no fitted constant is left to fail.
        payload = dict(DENSITY, grid={"dim": 1, "samples_per_axis": 64, "extent": 16.0},
                       data={"recipe": "gaussian", "width": 2.0, "amplitude": 0.0})
        out = tmp_path / "o"
        assert main(["density", "--config", write_config(tmp_path, "d.json", payload),
                     "--out", str(out)]) == 0
        with open(out / "density_results.csv", newline="") as fh:
            (row,) = csv.DictReader(ln for ln in fh if not ln.startswith("#"))
        assert float(row["lambda"]) == 0.0 and float(row["m_threshold"]) == 0.0
        assert row["hit_count"] == row["M"] == str(DENSITY["ensemble_size"])
        manifest = json.loads((out / "density_manifest.json").read_text())
        assert "fitted_constants" not in manifest
        (tails,) = manifest["proven_tails"]
        assert tails["trace_G"] == tails["max_row_sum_G"] == tails["m_union_sum"] == 0.0
        assert tails["lambda_event_count"] == DENSITY["ensemble_size"]

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

    def test_default_run_draws_one_ensemble(self, tmp_path, monkeypatch):
        # Every vector reads the same draws: samples rows of vector_length
        # normals in all, not one ensemble per vector.
        import dispersim.randomize as randomize

        shapes = []
        inner = randomize.gaussian_matrix

        def counted(seed, n_samples, n_coeffs, sample_offset=0):
            shapes.append((seed, n_samples, n_coeffs))
            return inner(seed, n_samples, n_coeffs, sample_offset)

        monkeypatch.setattr(randomize, "gaussian_matrix", counted)
        assert main(["khintchine", "--seed", "7", "--out", str(tmp_path / "o")]) == 0
        assert {(seed, width) for seed, _, width in shapes} == {(7, 32)}
        assert sum(rows for _, rows, _ in shapes) == 10_000

    def test_default_moments_within_five_standard_errors(self, tmp_path, capsys):
        # Over M samples of CN(0, 1) the estimate (mean |Y|^p)^(1/p) has
        # relative standard error sqrt(Gamma(1+p) / Gamma(1+p/2)^2 - 1) / (p sqrt M).
        out = tmp_path / "out"
        assert main(["khintchine", "--seed", "7", "--out", str(out)]) == 0
        exact = json.loads((out / "khintchine_manifest.json").read_text())["exact_moments"]
        samples = 10_000
        checked = [entry for entry in exact if entry["p"] in (2.0, 4.0, 8.0)]
        assert len(checked) == 3 * 20
        for entry in checked:
            p = entry["p"]
            ratio = math.gamma(1.0 + p) / math.gamma(1.0 + p / 2.0) ** 2
            se = math.sqrt(ratio - 1.0) / (p * math.sqrt(samples))
            assert abs(entry["relative_error"]) < 5.0 * se, entry


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


def quick_tour() -> str:
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    tour = readme.split("## Library quick tour", 1)[1]
    return tour.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_tour_runs():
    exec(compile(quick_tour(), "README quick tour", "exec"), {})


def test_public_names_exist():
    missing = [name for name in dispersim.__all__ if not hasattr(dispersim, name)]
    assert missing == []
    # The root exports exactly the quick tour's names, plus __version__.
    block = quick_tour().split("from dispersim import (", 1)[1].split(")", 1)[0]
    tour = {name.strip() for name in block.split(",")} - {""}
    assert set(dispersim.__all__) == tour | {"__version__"}
