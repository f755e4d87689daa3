"""Batch front end: config parsing, experiment orchestration, persistence.

Configuration is a single JSON object checked against the subcommand's
required and optional keys in ``_SUBCOMMANDS`` (unknown keys are
rejected).  Results go to the output directory as CSV tables plus a JSON
manifest; CSV bodies depend only on the config and the seed, so reruns
are byte identical.  A run reads its seed's stream alone, independent
ensembles as disjoint sample ranges of it.  No flag, variable or key
sets how a run is scheduled: every ensemble runs one serial loop over
chunks of draws, and ``density`` runs the two halves of its ensemble,
samples [0, M) for M = ``ensemble_size`` cut at a 256-sample block
boundary, at once.

Exit codes: 0 success, 1 configuration error (or tails that admit no
bound: tails that cannot be fitted, a convergence deviation that
vanishes), 2 a check-* subcommand found failures, 3 the
density split could not reach a requested epsilon on the grid, not even
in its cutoff-only limit, 4 an internal error (its traceback goes to
stderr).  Result files are written whole or not at all, every table and
manifest by ``_write_results``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time
import traceback
from contextlib import contextmanager

import numpy as np

from . import __version__
from .checks import CheckResult
from .decompose import multi_index, whole_number
from .errors import ConfigurationError, FitError, SplitResolutionError
from .grid import Field, GridSpec, read_binary
from .propagators import FlowKind
from .propagators import invariant_report as propagator_checks
from .randomize import khintchine_moments
from .wiener import invariant_report as wiener_checks
from .wiener import unit_lattice


def __getattr__(name):  # the runners that use tailprob import it; check-* runs never do
    if name != "tailprob":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import tailprob
    return tailprob


def _fail(message: str) -> int:
    print(f"config error: {message}", file=sys.stderr)
    return 1


@contextmanager
def _config_values(where: str):
    """Config values are read inside this block: a TypeError or ValueError
    raised there (a string where a number belongs, a bad multi-index) is a
    configuration error of ``where``, not an internal fault."""
    try:
        yield
    except ConfigurationError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{where}: {exc}") from exc


def _count(config: dict, key: str, default=None, minimum: int = 1) -> int:
    """The config field ``key`` (required when ``default`` is None), a
    :func:`whole_number` of at least ``minimum``."""
    raw = config[key] if default is None else config.get(key, default)
    value = whole_number(raw)
    if value is None or value < minimum:
        raise ConfigurationError(f"{key} must be a whole number >= {minimum}, got {raw!r}")
    return value


def _real(value, key: str) -> float:
    """The config number ``value`` of ``key`` as a float, never a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer)):
        raise ConfigurationError(f"{key} must be a number, got {value!r}")
    return float(value)


def _reject_non_finite(value, where: str) -> None:
    """A NaN or infinite number anywhere in the config value ``value`` is a
    configuration error naming its key; JSON reads NaN, Infinity and
    numbers beyond the float range (1e309) as such floats."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigurationError(f"{where} must be a finite number, got {value!r}")
    if isinstance(value, dict):
        for key, item in value.items():
            _reject_non_finite(item, f"{where}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _reject_non_finite(item, f"{where}[{i}]")


def _reject_unknown(obj: dict, allowed, where: str) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigurationError(f"unknown {where} field(s): {', '.join(unknown)}")


def _require(obj: dict, keys, where: str) -> None:
    missing = sorted(k for k in keys if k not in obj)
    if missing:
        raise ConfigurationError(f"missing {where} field(s): {', '.join(missing)}")


def parse_seed(value) -> int:
    """Seed as a :func:`whole_number` in [0, 2^64), the key space of the
    Philox streams; a seed outside it would alias another seed's stream."""
    if isinstance(value, str):
        try:
            value = int(value, 0)  # accepts decimal and 0x-prefixed hex
        except ValueError:
            raise ConfigurationError(f"seed {value!r} is not a valid integer") from None
    seed = whole_number(value)
    if seed is None:
        raise ConfigurationError(f"seed must be a whole number, got {value!r}")
    if not 0 <= seed < 2**64:
        raise ConfigurationError(f"seed must lie in [0, 2^64), got {seed}")
    return seed


def parse_grid(obj) -> GridSpec:
    if not isinstance(obj, dict):
        raise ConfigurationError("grid must be an object")
    _require(obj, ("dim", "samples_per_axis", "extent"), "grid")
    _reject_unknown(obj, ("dim", "samples_per_axis", "extent"), "grid")
    spec = GridSpec(
        dim=_count(obj, "dim"),
        samples_per_axis=_count(obj, "samples_per_axis"),
        extent=_real(obj["extent"], "grid.extent"),
    )
    # With a frequency spacing below 2, the diameter of a unit piece's
    # support, the unit lattice holds fewer than (2N + 1)^dim points; a
    # coarser grid's lattice grows with the spacing.
    if not spec.dxi < 2.0:
        raise ConfigurationError(
            f"grid extent {spec.extent!r} is too small: the frequency spacing"
            " 2*pi/extent must be below 2"
        )
    # The kdv phase is xi^3: past this |xi| no symbol is finite.
    xi_max = math.sqrt(spec.dim) * spec.samples_per_axis / 2 * spec.dxi
    if not xi_max < sys.float_info.max ** (1.0 / 3.0):
        raise ConfigurationError(
            f"grid extent {spec.extent!r} is too small: the largest |xi|^3 overflows"
        )
    return spec


def parse_data(obj, spec: GridSpec) -> Field:
    """The configured data field, whose samples must all be finite."""
    with np.errstate(all="ignore"):  # the check below reports the outcome
        data = _data_field(obj, spec)
    if not np.all(np.isfinite(data.values)):
        raise ConfigurationError(f"data {obj!r} has non-finite samples")
    return data


def _data_field(obj, spec: GridSpec) -> Field:
    if not isinstance(obj, dict) or "recipe" not in obj:
        raise ConfigurationError("data must be an object with a 'recipe' field")
    recipe = obj["recipe"]
    if recipe == "gaussian":
        _reject_unknown(obj, ("recipe", "width", "amplitude"), "data")
        width = _real(obj.get("width", 1.0), "data.width")
        amplitude = _real(obj.get("amplitude", 1.0), "data.amplitude")
        if width <= 0:
            raise ConfigurationError("gaussian width must be positive")
        r2 = spec.coordinate_norm_squared()
        return Field(spec, amplitude * np.exp(-r2 / (2.0 * width**2)))
    if recipe == "mode":
        _reject_unknown(obj, ("recipe", "frequency"), "data")
        _require(obj, ("frequency",), "data")
        entries = obj["frequency"] if isinstance(obj["frequency"], list) else [obj["frequency"]]
        xi0 = np.array([_real(v, f"data.frequency[{i}]") for i, v in enumerate(entries)])
        if xi0.size != spec.dim:
            raise ConfigurationError("mode frequency must have one entry per axis")
        steps = xi0 / spec.dxi
        if np.max(np.abs(steps - np.round(steps))) > 1e-9:
            raise ConfigurationError(
                "mode frequency must sit on the grid's frequency lattice"
            )
        phase = np.zeros(spec.shape)
        for v, g in zip(xi0, spec.coordinate_grids()):
            phase = phase + v * g
        return Field(spec, np.exp(1j * phase))
    if recipe == "indicator":
        _reject_unknown(obj, ("recipe", "radius"), "data")
        _require(obj, ("radius",), "data")
        radius = _real(obj["radius"], "data.radius")
        if radius <= 0:
            raise ConfigurationError("indicator radius must be positive")
        inside = np.ones(spec.shape, dtype=bool)
        for g in spec.coordinate_grids():
            inside &= np.abs(g) <= radius
        return Field(spec, inside.astype(np.complex128))
    if recipe == "custom-file":
        _reject_unknown(obj, ("recipe", "path"), "data")
        _require(obj, ("path",), "data")
        path = obj["path"]
        # A number would open as a file descriptor (0 is stdin, true is 1).
        if not isinstance(path, str) or not path:
            raise ConfigurationError(f"custom-file path must be a non-empty string, got {path!r}")
        try:
            loaded = read_binary(path)
        except OSError as exc:
            raise ConfigurationError(f"cannot read custom-file: {exc}") from exc
        if loaded.spec != spec:
            raise ConfigurationError(
                "custom-file grid does not match the configured grid"
            )
        return loaded
    raise ConfigurationError(
        f"unknown data recipe {recipe!r}; expected gaussian, mode, indicator"
        " or custom-file"
    )


def _entries(config: dict, key: str, default=(), empty=False) -> list:
    """The config list ``key`` (``default`` when absent), non-empty unless
    ``empty``.  A string there is an error, not one entry per character."""
    values = config.get(key, default)
    if not isinstance(values, (list, tuple)):
        raise ConfigurationError(f"{key} must be a list, got {values!r}")
    if values or empty:
        return list(values)
    raise ConfigurationError(f"{key} must be a non-empty list")


def _reals(config: dict, key: str, default=()) -> list[float]:
    """The config list ``key`` of numbers (:func:`_entries`, :func:`_real`)."""
    return [_real(v, f"{key}[{i}]") for i, v in enumerate(_entries(config, key, default))]


def parse_schedule(config) -> list[float]:
    schedule = _reals(config, "epsilon_schedule")
    if any(e <= 0 for e in schedule):
        raise ConfigurationError("epsilon_schedule entries must be positive")
    return schedule


def parse_pairs(config, spec: GridSpec) -> list[tuple]:
    """The density event's (alpha, beta) multi-index pairs: one nonnegative
    whole number per axis each, and |beta| <= 2, the spectral derivative's limit.
    The default pairs are (0, 0) and (1, beta) with beta one on the first
    two axes, which is (1, 1) in one and two dimensions."""
    first_two = [int(j < 2) for j in range(spec.dim)]
    default = [[[0] * spec.dim, [0] * spec.dim], [[1] * spec.dim, first_two]]
    pairs = []
    with _config_values("multi_indices"):
        for a, b in _entries(config, "multi_indices", default, empty=True):
            pair = (multi_index(a), multi_index(b))
            if any(len(m) != spec.dim for m in pair):
                raise ConfigurationError(f"multi_indices: {pair} needs {spec.dim} entries each")
            if sum(pair[1]) > 2:
                raise ConfigurationError(f"multi_indices: derivative order of {pair[1]} exceeds 2")
            pairs.append(pair)
    return pairs


def parse_flows(config, spec: GridSpec | None = None) -> list[FlowKind]:
    """The configured flows, each checked against ``spec`` when given."""
    if ("flow" in config) == ("flows" in config):
        raise ConfigurationError("exactly one of 'flow' or 'flows' is required")
    names = [config["flow"]] if "flow" in config else _entries(config, "flows")
    flows = [FlowKind.parse(str(n)) for n in names]
    for i, flow in enumerate(flows):
        if flow.label() in [f.label() for f in flows[:i]]:
            raise ConfigurationError(f"duplicate flow {flow.label()}")
        if spec is not None:
            flow.validate_for(spec)
    return flows


def observation_points(config, spec: GridSpec, seed: int):
    """Configured points, or the origin plus 4 seeded random grid points."""
    if "observation_points" in config:
        from . import tailprob
        return tailprob.grid_points(spec, _entries(config, "observation_points"))
    rng = np.random.default_rng(seed)
    pts = [spec.origin_index()]
    for _ in range(4):
        pts.append(tuple(int(i) for i in rng.integers(0, spec.samples_per_axis, spec.dim)))
    return tuple(pts)


def config_hash(config: dict, seed: int) -> str:
    """Hash of the scientific configuration run with ``seed``, the parsed
    seed in effect; output_dir, which only says where results go, is
    excluded so it cannot change result bytes."""
    body = {k: v for k, v in config.items() if k != "output_dir"}
    body["seed"] = seed
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Result files
# ---------------------------------------------------------------------------

_NORMALIZATION = "E|g_k|^2 = 1 (complex standard Gaussian)"
TAILS_COLUMNS = ("flow", "t", "alpha", "x_index", "exceed_count", "M", "prob", "ci_low",
                 "ci_high", "bound")
KHINTCHINE_COLUMNS = ("vector_id", "p", "moment", "ratio")
CONVERGENCE_COLUMNS = ("flow", "epsilon", "t", "alpha", "exceed_count", "M", "prob",
                       "ci_low", "ci_high", "h_norm", "bound")
DENSITY_COLUMNS = ("epsilon", "lambda", "m_threshold", "hit_count", "M", "prob",
                   "ci_low", "ci_high", "target")


@contextmanager
def _atomic_open(path):
    """Text file handle for a result file: the rows go to a temporary file
    in the same directory, which replaces ``path`` only once the block
    completes, so a failed run leaves no partial result file."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _write_results(
    out_dir, stem, config, seed, columns, rows, spec=None, **fields
) -> str:
    """Write ``<stem>_results.csv`` and ``<stem>_manifest.json``, creating
    ``out_dir`` first, so a run that fails earlier leaves no directory.  The
    table holds a ``# config=`` line, the header and the rows, floats as
    ``repr``; the manifest carries the keys every run shares (config and its
    hash, seed, version, coefficient normalization, created_at, the lattice
    hash when a grid is given) plus the subcommand's own ``fields``.
    Returns the table's path."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot create output directory {out_dir!r}: {exc.strerror}"
        ) from exc
    chash = config_hash(config, seed)
    manifest = {
        "config": config,
        "config_hash": chash,
        "seed": seed,
        "software_version": __version__,
        "normalization": _NORMALIZATION,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        **fields,
    }
    if spec is not None:
        manifest["lattice_hash"] = unit_lattice(spec).digest()
    path = os.path.join(out_dir, f"{stem}_results.csv")
    manifest_path = os.path.join(out_dir, f"{stem}_manifest.json")
    # Neither file replaces its path until both are written.
    with _atomic_open(path) as fh, _atomic_open(manifest_path) as mh:
        fh.write(f"# config={chash}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        # repr(float(v)): under numpy 2, repr(np.float64(x)) reads np.float64(x).
        writer.writerows(
            [repr(float(v)) if isinstance(v, float) else str(v) for v in row] for row in rows
        )
        json.dump(manifest, mh, indent=2, sort_keys=True)
        mh.write("\n")
    return path


def _split_records(splits) -> list[dict]:
    """Manifest records of the density splits behind convergence or density
    rows."""
    keys = ("epsilon", "sigma", "radius", "achieved_h_norm")
    return [{key: getattr(split, key) for key in keys} for split in splits]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _print_checks(results: list[CheckResult]) -> int:
    for res in results:
        print(res.line())
    failed = sum(not r.passed for r in results)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 2 if failed else 0


def _grids_from_config(config) -> dict[int, GridSpec]:
    if "grids" in config:
        grids = config["grids"]
        if not isinstance(grids, list) or not grids:
            raise ConfigurationError("grids must be a non-empty list of grid objects")
        specs = [parse_grid(g) for g in grids]
        by_dim = {}
        for s in specs:
            if s.dim in by_dim:
                raise ConfigurationError(f"duplicate grid for dim {s.dim}")
            by_dim[s.dim] = s
        return by_dim
    return {1: GridSpec(1, 64, 16.0), 2: GridSpec(2, 32, 16.0)}


def run_check_wiener(config, seed, out_dir) -> int:
    with _config_values("check-wiener"):
        grids = _grids_from_config(config)
    return _print_checks(wiener_checks(grids, seed=seed))


def run_check_propagators(config, seed, out_dir) -> int:
    with _config_values("check-propagators"):
        grids = _grids_from_config(config)
    return _print_checks(propagator_checks(grids, seed=seed))


def run_khintchine(config, seed, out_dir) -> int:
    with _config_values("khintchine"):
        p_values = _reals(config, "p_values", (2, 4, 8, 16))
        length = _count(config, "vector_length", 32)
        n_vectors = _count(config, "n_vectors", 20)
        samples = _count(config, "samples", 10_000)
        for p in p_values:  # the exact moment needs Gamma(1 + p/2); p < 2 fails later
            try:
                math.gamma(1.0 + max(p, 2.0) / 2.0)
            except OverflowError:
                raise ConfigurationError(f"p_values: Gamma(1 + p/2) overflows at p = {p!r}")
    rng = np.random.default_rng(seed)
    vectors = np.zeros((length, n_vectors), dtype=np.complex128)
    for i in range(n_vectors):
        if i % 2 == 0:
            vectors[(i // 2) % length, i] = 1.0
        else:
            c = rng.standard_normal(length) + 1j * rng.standard_normal(length)
            vectors[:, i] = c / np.linalg.norm(c)
    rows, exact = [], []
    moments = khintchine_moments(vectors, p_values, samples, seed)  # one ensemble for all
    for vid, (c, column) in enumerate(zip(vectors.T, moments)):
        norm_c = float(np.linalg.norm(c))
        for p, moment in zip(p_values, column):
            rows.append((vid, p, moment, moment / (math.sqrt(p) * norm_c)))
            # sum_k g_k c_k is CN(0, ||c||^2), so E|.|^p = ||c||^p Gamma(1 + p/2).
            law = norm_c * math.gamma(1.0 + p / 2.0) ** (1.0 / p)
            exact.append({"vector_id": vid, "p": p, "exact_moment": law,
                          "relative_error": (moment - law) / law})
    worst = max(ratio for *_, ratio in rows)
    path = _write_results(
        out_dir, "khintchine", config, seed, KHINTCHINE_COLUMNS, rows, worst_ratio=worst,
        exact_moments=exact,
    )
    print(f"worst ratio moment / (sqrt(p) ||c||): {worst:.4f} -> {path}")
    return 0


def run_tails(config, seed, out_dir) -> int:
    from . import tailprob
    with _config_values("tails"):
        spec = parse_grid(config["grid"])
        data = parse_data(config["data"], spec)
        points = observation_points(config, spec, seed)
        ensemble = _count(config, "ensemble_size")
        configs = [
            tailprob.TailExperimentConfig(
                flow=flow,
                data=data,
                times=tuple(_reals(config, "times")),
                thresholds=tuple(_reals(config, "thresholds")),
                observation_points=points,
                ensemble_size=ensemble,
                seed=seed,
            )
            for flow in parse_flows(config)
        ]

    rows = []
    estimates = []  # for the exact law
    manifest_fits = {}
    for cfg in configs:
        flow = cfg.flow
        cells = tailprob.estimate_tail(cfg)
        params = None
        try:
            scales = [abs(e.t) for e in cells]
            fit = tailprob.fit_constants(cells, scales)
            params = tailprob.dominate_constants(cells, fit.params, scales)
            manifest_fits[flow.label()] = {
                "C": params.C,
                "C1": params.C1,
                "regime": "flow-deviation",
                "r_squared": fit.r_squared,
            }
        except FitError as exc:
            manifest_fits[flow.label()] = {"unfittable": str(exc)}
        rows.extend(
            (e.flow_label, e.t, e.alpha, tailprob.format_x_index(e.x_index), e.exceed_count,
             e.ensemble_size, e.probability, e.ci_low, e.ci_high,
             "" if params is None else tailprob.theoretical_bound(params, e.alpha, abs(e.t)))
            for e in cells
        )
        estimates.extend(cells)

    path = _write_results(
        out_dir,
        "tails",
        config,
        seed,
        TAILS_COLUMNS,
        rows,
        spec=spec,
        fitted_constants=manifest_fits,
        ensemble_size=ensemble,
        exact_law=tailprob.exact_law(estimates),
    )
    print(f"wrote {len(rows)} rows -> {path}")
    return 0


def run_convergence(config, seed, out_dir) -> int:
    from . import tailprob
    with _config_values("convergence"):
        spec = parse_grid(config["grid"])
        data = parse_data(config["data"], spec)
        flows = parse_flows(config, spec)
        schedule = parse_schedule(config)
        if max(schedule) >= 3.0:
            # alpha = C e eps sqrt(ln(3 C1 / eps)) with C1 = 1 needs eps < 3.
            raise ConfigurationError(
                f"epsilon_schedule entries must lie below 3, got {max(schedule)!r}"
            )
        ensemble = _count(config, "ensemble_size")
        points = _entries(config, "observation_points", [spec.origin_index()])
        if len(points) > 1:
            raise ConfigurationError(
                f"observation_points: convergence takes one point, got {len(points)}"
            )
        (x_index,) = tailprob.grid_points(spec, points)

    rows = []
    cells = []  # the curve's tail estimates, for the exact law
    manifest_fits = {}
    for flow in flows:
        params, curve = tailprob.convergence_rows(flow, data, schedule, x_index, ensemble, seed)
        manifest_fits[flow.label()] = {
            "C": params.C,
            "C1": params.C1,
            "splits": _split_records(s for _, s in curve),
        }
        # The chained bound 3 C1 exp(-(alpha / (C e eps))^2) of the schedule.
        chained = tailprob.BoundParams(params.C, 3.0 * params.C1)
        rows.extend(
            (e.flow_label, s.epsilon, e.t, e.alpha, e.exceed_count, e.ensemble_size,
             e.probability, e.ci_low, e.ci_high, s.achieved_h_norm,
             tailprob.theoretical_bound(chained, e.alpha, s.epsilon))
            for e, s in curve
        )
        cells.extend(e for e, _ in curve)
    path = _write_results(
        out_dir,
        "convergence",
        config,
        seed,
        CONVERGENCE_COLUMNS,
        rows,
        spec=spec,
        exact_law_constants=manifest_fits,
        exact_law=tailprob.exact_law(cells),
    )
    print(f"wrote convergence curves for {len(flows)} flow(s) -> {path}")
    return 0


def run_density(config, seed, out_dir) -> int:
    from . import tailprob
    with _config_values("density"):
        spec = parse_grid(config["grid"])
        data = parse_data(config["data"], spec)
        schedule = parse_schedule(config)
        pairs = parse_pairs(config, spec)
        ensemble = _count(config, "ensemble_size", minimum=100)

    density = tailprob.density_rows(data, schedule, pairs, ensemble, seed)
    rows = [
        (r.epsilon, r.lam, r.m_threshold, r.hit_count, r.ensemble_size, r.probability,
         r.ci_low, r.ci_high, r.target)
        for _, r, _ in density
    ]
    path = _write_results(
        out_dir,
        "density",
        config,
        seed,
        DENSITY_COLUMNS,
        rows,
        spec=spec,
        proven_tails=[{"epsilon": r.epsilon, **tails} for tails, r, _ in density],
        splits=_split_records(s for _, _, s in density),
        multi_indices=[[list(a), list(b)] for a, b in pairs],
    )
    print(f"wrote {len(rows)} density rows -> {path}")
    return 0


# Acceptance criterion 4: every Khintchine moment stays below this many
# times sqrt(p) ||c||_2.
KHINTCHINE_RATIO_LIMIT = 3.0


def _row_check(row: dict) -> tuple[str, str, str, str]:
    """(label, checked value, relation, limit) of one result row: a
    khintchine ratio against ``KHINTCHINE_RATIO_LIMIT``, a density row's
    ci_high against its target, a tails or convergence row's ci_high
    against its bound; the relation is blank when there is no limit."""
    if "ratio" in row:
        label = f"v{row['vector_id']} p={row['p']}"
        return label, row["ratio"], "<=", repr(KHINTCHINE_RATIO_LIMIT)
    if "target" in row:
        return f"eps={row['epsilon']}", row["ci_high"], ">=", row["target"]
    bound = row.get("bound", "")
    return row.get("flow", "-"), row.get("ci_high", ""), "<=" if bound else "", bound


def run_report(config, seed, out_dir) -> int:
    # The result files are input here: a malformed one is not an internal error.
    with _config_values(f"report of {out_dir}"):
        return _report(out_dir)


# ``report`` judges the exact law of a tails or convergence manifest at
# this familywise level: Bonferroni over its rows, each row's |z| within
# the normal quantile of 1 - alpha / (2 rows).  The rows share draws, so
# Wilson misses come in clusters and their bare count says little.
EXACT_LAW_FAMILYWISE_ALPHA = 1e-4


def _exact_law_line(name: str, law: dict) -> str:
    # Imported here, as in tailprob.binomial_z: only report needs it.
    from statistics import NormalDist

    rows = len(law["rows"])
    worst = max(abs(r["z"]) for r in law["rows"])
    limit = NormalDist().inv_cdf(1.0 - EXACT_LAW_FAMILYWISE_ALPHA / (2.0 * rows))
    return (
        f"{name}: max |z| {worst:.3f} against the exact law, limit {limit:.3f}"
        f" (Bonferroni over {rows} rows, familywise alpha"
        f" {EXACT_LAW_FAMILYWISE_ALPHA:g}); {law['outside_wilson']}/{rows} Wilson"
        f" intervals miss it; {'yes' if worst <= limit else 'NO'}"
    )


def _report(out_dir) -> int:
    rows = []
    laws = []
    for name in sorted(os.listdir(out_dir) if os.path.isdir(out_dir) else []):
        if name.endswith("_manifest.json"):
            with open(os.path.join(out_dir, name)) as fh:
                law = json.load(fh).get("exact_law")
            if law:
                laws.append(_exact_law_line(name, law))
        if not name.endswith("_results.csv"):
            continue
        with open(os.path.join(out_dir, name), newline="") as fh:
            table = list(csv.reader(ln for ln in fh if not ln.startswith("#")))
        if not table:
            continue
        header, *body = table
        rows.extend((name, dict(zip(header, cells))) for cells in body)
    if not rows:
        print(f"no result files under {out_dir}")
        return 0
    print(f"{'file':<28} {'row':<16} {'prob':>10} {'value':>10}    {'limit':>10} ok")
    n_ok = 0
    comparable = 0
    for name, row in rows:
        label, value, relation, limit = _row_check(row)
        verdict = ""
        if relation and value:
            comparable += 1
            a, b = float(value), float(limit)
            ok = a <= b if relation == "<=" else a >= b
            n_ok += ok
            verdict = "yes" if ok else "NO"
        print(
            f"{name:<28} {label:<16} {row.get('prob', ''):>10.10s} {value:>10.10s}"
            f" {relation:>2} {limit:>10.10s} {verdict}"
        )
    print("value: ci_high against the bound (tails, convergence) or the target"
          " (density); ratio moment / (sqrt(p) ||c||) against criterion 4 (khintchine)")
    if comparable:
        print(f"{n_ok}/{comparable} rows pass their check")
    for line in laws:
        print(line)
    return 0


# Every subcommand accepts these config keys.
_COMMON_KEYS = ("seed", "output_dir")

# subcommand: (run function, required config keys, optional config keys).
_SUBCOMMANDS = {
    "check-wiener": (run_check_wiener, (), ("grids",)),
    "check-propagators": (run_check_propagators, (), ("grids",)),
    "khintchine": (
        run_khintchine, (), ("p_values", "vector_length", "n_vectors", "samples")
    ),
    "tails": (
        run_tails,
        ("grid", "data", "times", "thresholds", "ensemble_size"),
        ("flow", "flows", "observation_points"),
    ),
    "convergence": (
        run_convergence,
        ("grid", "data", "epsilon_schedule", "ensemble_size"),
        ("flow", "flows", "observation_points"),
    ),
    "density": (
        run_density,
        ("grid", "data", "epsilon_schedule", "ensemble_size"),
        ("multi_indices",),
    ),
    "report": (run_report, (), ()),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dispersim",
        description="Randomized dispersive-flow experiments on periodic grids",
    )
    parser.add_argument("subcommand", choices=sorted(_SUBCOMMANDS))
    parser.add_argument("--config", help="path to a JSON config file")
    parser.add_argument("--seed", help="overrides the config seed (decimal or hex)")
    parser.add_argument("--out", help="output directory for result files")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, the code of a failed check; a
        # bad command line is a configuration error.  --help exits 0.
        return 0 if exc.code == 0 else 1

    config = {}
    if args.config:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except OSError as exc:
            return _fail(f"cannot read config: {exc}")
        except json.JSONDecodeError as exc:
            return _fail(f"config is not valid JSON: {exc}")
        if not isinstance(config, dict):
            return _fail("config must be a JSON object")

    try:
        for key, value in config.items():
            _reject_non_finite(value, key)
        seed = parse_seed(config.get("seed", 0) if args.seed is None else args.seed)
        run, required, optional = _SUBCOMMANDS[args.subcommand]
        _reject_unknown(config, _COMMON_KEYS + required + optional, args.subcommand)
        _require(config, required, args.subcommand)
        out_dir = config.get("output_dir", "results") if args.out is None else args.out
        if not isinstance(out_dir, str) or not out_dir:
            raise ConfigurationError(f"output_dir must be a non-empty string, got {out_dir!r}")
        return run(config, seed, out_dir)
    except (ConfigurationError, FitError) as exc:
        return _fail(str(exc))
    except SplitResolutionError as exc:
        print(f"split error: {exc}", file=sys.stderr)
        return 3
    except Exception:
        traceback.print_exc()
        print("internal error: this is a fault in dispersim, not in the config",
              file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
