"""Batch front end: config parsing, experiment orchestration, persistence.

Configuration is a single JSON object checked against the subcommand's
required and optional keys in ``_SUBCOMMANDS`` (unknown keys are
rejected).  Results go to the output directory as CSV tables plus a JSON
manifest; CSV bodies depend only on the config and the seed, so reruns
are byte identical.  No flag, variable or key sets how a run is
scheduled: every ensemble runs one serial loop over chunks of draws.

Exit codes: 0 success, 1 configuration error (or calibration tails that
cannot be fitted), 2 a check-* subcommand found failures, 3 the density split could
not reach a requested epsilon on the grid, not even in its cutoff-only
limit, 4 an internal error (its traceback goes to stderr).  Result files
are written whole or not at all, each table by ``tailprob.write_table``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
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
from . import tailprob


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


def _reject_unknown(obj: dict, allowed, where: str) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigurationError(f"unknown {where} field(s): {', '.join(unknown)}")


def _require(obj: dict, keys, where: str) -> None:
    missing = sorted(k for k in keys if k not in obj)
    if missing:
        raise ConfigurationError(f"missing {where} field(s): {', '.join(missing)}")


def parse_seed(value) -> int:
    """Seed as an integer in [0, 2^64), the key space of the Philox streams;
    a seed outside it would alias another seed's stream."""
    if isinstance(value, bool):
        raise ConfigurationError("seed must be an integer")
    if isinstance(value, str):
        try:
            value = int(value, 0)  # accepts decimal and 0x-prefixed hex
        except ValueError:
            raise ConfigurationError(f"seed {value!r} is not a valid integer") from None
    if not isinstance(value, int):
        raise ConfigurationError(f"seed must be an integer, got {type(value).__name__}")
    if not 0 <= value < 2**64:
        raise ConfigurationError(f"seed must lie in [0, 2^64), got {value}")
    return value


def derived_seed(seed: int, offset: int) -> int:
    """``seed + offset``, the seed of a derived stream, which must stay in
    [0, 2^64) too: Philox would wrap it onto seed ``offset - 1``'s stream."""
    if seed + offset >= 2**64:
        raise ConfigurationError(
            f"seed {seed} is too large: the derived seed {seed} + {offset} leaves [0, 2^64)"
        )
    return seed + offset


def parse_grid(obj) -> GridSpec:
    if not isinstance(obj, dict):
        raise ConfigurationError("grid must be an object")
    _require(obj, ("dim", "samples_per_axis", "extent"), "grid")
    _reject_unknown(obj, ("dim", "samples_per_axis", "extent"), "grid")
    return GridSpec(
        dim=_count(obj, "dim"),
        samples_per_axis=_count(obj, "samples_per_axis"),
        extent=float(obj["extent"]),
    )


def parse_data(obj, spec: GridSpec) -> Field:
    if not isinstance(obj, dict) or "recipe" not in obj:
        raise ConfigurationError("data must be an object with a 'recipe' field")
    recipe = obj["recipe"]
    if recipe == "gaussian":
        _reject_unknown(obj, ("recipe", "width", "amplitude"), "data")
        width = float(obj.get("width", 1.0))
        amplitude = float(obj.get("amplitude", 1.0))
        if width <= 0:
            raise ConfigurationError("gaussian width must be positive")
        r2 = spec.coordinate_norm_squared()
        return Field(spec, amplitude * np.exp(-r2 / (2.0 * width**2)))
    if recipe == "mode":
        _reject_unknown(obj, ("recipe", "frequency"), "data")
        _require(obj, ("frequency",), "data")
        xi0 = np.asarray(obj["frequency"], dtype=float).reshape(-1)
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
        radius = float(obj["radius"])
        if radius <= 0:
            raise ConfigurationError("indicator radius must be positive")
        inside = np.ones(spec.shape, dtype=bool)
        for g in spec.coordinate_grids():
            inside &= np.abs(g) <= radius
        return Field(spec, inside.astype(np.complex128))
    if recipe == "custom-file":
        _reject_unknown(obj, ("recipe", "path"), "data")
        _require(obj, ("path",), "data")
        try:
            loaded = read_binary(obj["path"])
        except OSError as exc:
            raise ConfigurationError(f"cannot read custom-file: {exc}") from exc
        if not isinstance(loaded, Field):
            raise ConfigurationError("custom-file must hold a physical-space field")
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


def parse_schedule(config) -> list[float]:
    schedule = [float(e) for e in _entries(config, "epsilon_schedule")]
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
    if spec is not None:
        for flow in flows:
            flow.validate_for(spec)
    return flows


def observation_points(config, spec: GridSpec, seed: int):
    """Configured points, or the origin plus 4 seeded random grid points."""
    if "observation_points" in config:
        return tailprob.grid_points(spec, _entries(config, "observation_points"))
    rng = np.random.default_rng(seed)
    pts = [spec.origin_index()]
    for _ in range(4):
        pts.append(tuple(int(i) for i in rng.integers(0, spec.samples_per_axis, spec.dim)))
    return tuple(pts)


def config_hash(config: dict) -> str:
    """Hash of the scientific configuration; output_dir, which only says
    where results go, is excluded so it cannot change result bytes."""
    body = {k: v for k, v in config.items() if k != "output_dir"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Result files
# ---------------------------------------------------------------------------

_NORMALIZATION = "E|g_k|^2 = 1 (complex standard Gaussian)"
KHINTCHINE_COLUMNS = ("vector_id", "p", "moment", "ratio")
CONVERGENCE_COLUMNS = ("flow", "epsilon", "t", "alpha", "exceed_count", "M", "prob",
                       "ci_low", "ci_high", "h_norm", "bound")
DENSITY_COLUMNS = ("epsilon", "lambda", "m_threshold", "hit_count", "M", "prob",
                   "ci_low", "ci_high", "target")


def _write_results(
    out_dir, stem, config, seed, columns, rows, spec=None, **fields
) -> str:
    """Write ``<stem>_results.csv`` and ``<stem>_manifest.json``; the manifest
    carries the keys every run shares (config and its hash, seed, version,
    coefficient normalization, the lattice hash when a grid is given) plus
    the subcommand's own ``fields``.  Returns the table's path."""
    chash = config_hash(config)
    path = os.path.join(out_dir, f"{stem}_results.csv")
    tailprob.write_table(path, columns, rows, chash)
    manifest = {
        "config": config,
        "config_hash": chash,
        "seed": seed,
        "software_version": __version__,
        "normalization": _NORMALIZATION,
        **fields,
    }
    if spec is not None:
        manifest["lattice_hash"] = unit_lattice(spec).digest()
    tailprob.write_manifest(os.path.join(out_dir, f"{stem}_manifest.json"), manifest)
    return path


def _split_records(splits) -> list[dict]:
    """Manifest records of the density splits behind convergence or density
    rows, each given as (epsilon, sigma, radius, achieved ||h||)."""
    keys = ("epsilon", "sigma", "radius", "achieved_h_norm")
    return [dict(zip(keys, split)) for split in splits]


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
        p_values = [float(p) for p in _entries(config, "p_values", (2, 4, 8, 16))]
        length = _count(config, "vector_length", 32)
        n_vectors = _count(config, "n_vectors", 20)
        samples = _count(config, "samples", 10_000)
    derived_seed(seed, n_vectors - 1)  # vector i draws with seed + i
    rng = np.random.default_rng(seed)
    vectors = []
    for i in range(n_vectors):
        if i % 2 == 0:
            c = np.zeros(length, dtype=np.complex128)
            c[(i // 2) % length] = 1.0
        else:
            c = rng.standard_normal(length) + 1j * rng.standard_normal(length)
            c /= np.linalg.norm(c)
        vectors.append(c)
    rows = []
    exact = []
    worst = 0.0
    for vid, c in enumerate(vectors):
        norm_c = float(np.linalg.norm(c))
        moments = khintchine_moments(c, p_values, samples, seed + vid)
        for p, moment in zip(p_values, moments):
            ratio = moment / (math.sqrt(p) * norm_c)
            worst = max(worst, ratio)
            rows.append((vid, p, moment, ratio))
            # sum_k g_k c_k is CN(0, ||c||^2), so E|.|^p = ||c||^p Gamma(1 + p/2).
            law = norm_c * math.gamma(1.0 + p / 2.0) ** (1.0 / p)
            exact.append({"vector_id": vid, "p": p, "exact_moment": law,
                          "relative_error": (moment - law) / law})
    os.makedirs(out_dir, exist_ok=True)
    path = _write_results(
        out_dir, "khintchine", config, seed, KHINTCHINE_COLUMNS, rows, worst_ratio=worst,
        exact_moments=exact,
    )
    print(f"worst ratio moment / (sqrt(p) ||c||): {worst:.4f} -> {path}")
    return 0


def _calibration(label, times, stack, targets, ensemble, seed, x_index):
    """Fit tail constants at the largest |t| and inflate them to dominate
    every (t, alpha) calibration cell; ``stack`` holds the series
    coefficients of each time's cell (t, x_index), one row per time."""
    all_cells = []
    fit_cells = []
    t_fit = max(times, key=abs)
    for t, a in zip(times, stack):
        norm_a = tailprob.series_norm(a)
        if norm_a == 0:
            continue
        alphas = tuple(sorted(norm_a * math.sqrt(-math.log(p)) for p in targets))
        cells = tailprob._count_cells(
            label, [(t, x_index)], a[None, :], alphas, ensemble, seed
        )
        all_cells.extend(cells)
        if t == t_fit:
            fit_cells.extend(cells)
    fit = tailprob.fit_constants(fit_cells, "flow-deviation")
    dom = tailprob.dominate_constants(all_cells, fit.params)
    return fit, dom


_CAL_TARGETS = (0.4, 0.3, 0.2, 0.12, 0.06, 0.03, 0.012)


def run_tails(config, seed, out_dir) -> int:
    with _config_values("tails"):
        spec = parse_grid(config["grid"])
        data = parse_data(config["data"], spec)
        points = observation_points(config, spec, seed)
        ensemble = _count(config, "ensemble_size")
        configs = [
            tailprob.TailExperimentConfig(
                flow=flow,
                data=data,
                times=tuple(_entries(config, "times")),
                thresholds=tuple(_entries(config, "thresholds")),
                observation_points=points,
                ensemble_size=ensemble,
                seed=seed,
            )
            for flow in parse_flows(config)
        ]
    os.makedirs(out_dir, exist_ok=True)

    estimates = []
    bounds = []
    manifest_fits = {}
    warnings = []
    for cfg in configs:
        flow = cfg.flow
        warnings.extend(f"{flow.label()}: {w}" for w in cfg.time_limit_warnings())
        cells = tailprob.estimate_tail(cfg)
        params = None
        try:
            fit = tailprob.fit_constants(cells, "flow-deviation")
            params = tailprob.dominate_constants(cells, fit.params)
            manifest_fits[flow.label()] = {
                "C": params.C,
                "C1": params.C1,
                "regime": params.regime,
                "r_squared": fit.r_squared,
            }
        except FitError as exc:
            manifest_fits[flow.label()] = {"unfittable": str(exc)}
        for est in cells:
            estimates.append(est)
            bounds.append(
                None
                if params is None
                else tailprob.theoretical_bound(params, est.alpha, abs(est.t))
            )

    path = _write_results(
        out_dir,
        "tails",
        config,
        seed,
        tailprob.CSV_COLUMNS,
        tailprob.tail_rows(estimates, bounds),
        spec=spec,
        fitted_constants=manifest_fits,
        ensemble_size=ensemble,
        warnings=warnings,
        exact_law=tailprob.exact_law(estimates),
    )
    print(f"wrote {len(estimates)} rows -> {path}")
    return 0


def run_convergence(config, seed, out_dir) -> int:
    with _config_values("convergence"):
        spec = parse_grid(config["grid"])
        data = parse_data(config["data"], spec)
        flows = parse_flows(config, spec)
        schedule = parse_schedule(config)
        ensemble = _count(config, "ensemble_size")
        cal_ensemble = _count(
            config, "calibration_ensemble", max(2000, ensemble // 2), minimum=100
        )
        points = _entries(config, "observation_points", [spec.origin_index()])
        if len(points) > 1:
            raise ConfigurationError(
                f"observation_points: convergence takes one point, got {len(points)}"
            )
        (x_index,) = tailprob.grid_points(spec, points)
    cal_seed = derived_seed(seed, 1)
    os.makedirs(out_dir, exist_ok=True)

    rows = []
    cells = []  # the curve's tail estimates, for the exact law
    manifest_fits = {}
    times = tuple(e / 2.0 for e in schedule)
    for flow in flows:
        # Every cell's series in one stack, shared by calibration and curve.
        stack = tailprob._deviation_stack(flow, data, times, (x_index,))
        fit, params = _calibration(
            flow.label(), times, stack, _CAL_TARGETS, cal_ensemble, cal_seed, x_index
        )
        curve = tailprob.convergence_curve(
            flow, data, schedule, params, ensemble, seed, x_index, stack=stack
        )
        manifest_fits[flow.label()] = {
            "C": params.C,
            "C1": params.C1,
            "r_squared": fit.r_squared,
            "splits": _split_records(
                (s.epsilon, s.sigma, s.radius, s.achieved_h_norm) for _, s in curve
            ),
        }
        # The chained bound 3 C1 exp(-(alpha / (C e eps))^2) of the schedule.
        chained = tailprob.BoundParams(params.C, 3.0 * params.C1, params.regime)
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
        fitted_constants=manifest_fits,
        exact_law=tailprob.exact_law(cells),
    )
    print(f"wrote convergence curves for {len(flows)} flow(s) -> {path}")
    return 0


def run_density(config, seed, out_dir) -> int:
    with _config_values("density"):
        spec = parse_grid(config["grid"])
        data = parse_data(config["data"], spec)
        schedule = parse_schedule(config)
        pairs = parse_pairs(config, spec)
        ensemble = _count(config, "ensemble_size")
        cal_ensemble = _count(config, "calibration_ensemble", ensemble)
    cal_seed = derived_seed(seed, 1)
    os.makedirs(out_dir, exist_ok=True)

    density = tailprob.density_rows(
        data, schedule, pairs, ensemble, seed, cal_ensemble, cal_seed
    )
    fits = {repr(r.epsilon): {"C": p.C, "C1": p.C1} for p, r in density}
    results = [r for _, r in density]
    rows = [
        (r.epsilon, r.lam, r.m_threshold, r.hit_count, r.ensemble_size, r.probability,
         r.ci_low, r.ci_high, r.target)
        for r in results
    ]
    path = _write_results(
        out_dir,
        "density",
        config,
        seed,
        DENSITY_COLUMNS,
        rows,
        spec=spec,
        fitted_constants=fits,
        splits=_split_records(
            (r.epsilon, r.split_sigma, r.split_radius, r.h_norm) for r in results
        ),
        multi_indices=[[list(a), list(b)] for a, b in pairs],
    )
    print(f"wrote {len(results)} density rows -> {path}")
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
        ("flow", "flows", "calibration_ensemble", "observation_points"),
    ),
    "density": (
        run_density,
        ("grid", "data", "epsilon_schedule", "ensemble_size"),
        ("multi_indices", "calibration_ensemble"),
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
        seed = parse_seed(args.seed or config.get("seed", 0))
        run, required, optional = _SUBCOMMANDS[args.subcommand]
        _reject_unknown(config, _COMMON_KEYS + required + optional, args.subcommand)
        _require(config, required, args.subcommand)
        out_dir = args.out or config.get("output_dir", "results")
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
