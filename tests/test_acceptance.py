"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""

import json
import math

import numpy as np
import pytest
from scipy import stats

from dispersim import cli, tailprob
from dispersim.grid import Field, GridSpec, l2_norm
from dispersim.propagators import FlowKind, evolve, symbol
from dispersim.randomize import khintchine_moment
from dispersim.wiener import (
    bump_value,
    partition_deviation,
    reconstruction_deviation,
    square_bound_excess,
)

SEED = 20260810

SPEC_1D = GridSpec(1, 64, 16.0)
SPEC_2D = GridSpec(2, 32, 16.0)
SPEC_3D = GridSpec(3, 16, 16.0)

# Grids fine enough for the density split of the experiment data.
DATA_SPEC_1D = GridSpec(1, 256, 40.0)
DATA_SPEC_2D = GridSpec(2, 128, 32.0)


def _report(name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def gaussian_on(spec: GridSpec, width: float) -> Field:
    r2 = np.zeros(spec.shape)
    for g in spec.coordinate_grids():
        r2 = r2 + g**2
    return Field(spec, np.exp(-r2 / (2.0 * width**2)))


DATA_1D = gaussian_on(DATA_SPEC_1D, 2.0)
DATA_2D = gaussian_on(DATA_SPEC_2D, 1.0)


def per_target_thresholds(flow, data, t, targets):
    norm_a = tailprob.series_norm(
        tailprob.deviation_coefficients(flow, data, t, data.spec.origin_index())
    )
    return tuple(sorted(norm_a * math.sqrt(-math.log(p)) for p in targets))


def tail_cells(flow, data, t, targets, ensemble, seed):
    cfg = tailprob.TailExperimentConfig(
        flow,
        data,
        (t,),
        per_target_thresholds(flow, data, t, targets),
        (data.spec.origin_index(),),
        ensemble,
        seed,
    )
    return tailprob.estimate_tail(cfg)


def fitted_flow_constants(flow, data, times, ensemble, seed):
    """Gaussian-tail fit on the largest time, inflated to dominate every
    calibration cell across all times."""
    targets = (0.4, 0.3, 0.2, 0.12, 0.06, 0.03, 0.012)
    t_fit = max(times)
    fit_cells_ = tail_cells(flow, data, t_fit, targets, ensemble, seed)
    all_cells = list(fit_cells_)
    for t in times:
        if t != t_fit:
            all_cells.extend(tail_cells(flow, data, t, targets, ensemble, seed))
    fit = tailprob.fit_constants(fit_cells_, "flow-deviation")
    dom = tailprob.dominate_constants(all_cells, fit.params)
    return fit, dom, all_cells


def test_criterion_1_partition_and_reconstruction():
    worst_partition = 0.0
    for dim in (1, 2, 3):
        worst_partition = max(worst_partition, partition_deviation(dim, 10_000, SEED + dim))
    worst_rec = 0.0
    for spec in (SPEC_1D, SPEC_2D, SPEC_3D):
        worst_rec = max(worst_rec, reconstruction_deviation(spec, 100, SEED + spec.dim))
    ok = worst_partition < 1e-12 and worst_rec < 1e-10
    _report(
        "criterion 1 (partition of unity and reconstruction)",
        ok,
        f"max |sum psi - 1| = {worst_partition:.2e} (< 1e-12), "
        f"max reconstruction error = {worst_rec:.2e} (< 1e-10)",
    )


def test_criterion_2_square_function_bounds():
    times = (0.0, 0.1, 1.0)
    cases = [
        ("identity 1d", None, SPEC_1D),
        ("identity 2d", None, SPEC_2D),
        ("identity 3d", None, SPEC_3D),
        ("kdv", FlowKind.parse("kdv"), SPEC_1D),
        ("wave-half", FlowKind.parse("wave-half"), SPEC_2D),
        ("schrodinger:+-", FlowKind.parse("schrodinger:+-"), SPEC_2D),
        ("schrodinger:++-", FlowKind.parse("schrodinger:++-"), SPEC_3D),
    ]
    details = []
    ok = True
    for label, flow, spec in cases:
        (excess,) = square_bound_excess(spec, [flow], times, 100, SEED)
        ok = ok and excess <= 1.0 + 1e-9
        line = f"{label}: max ratio {excess:.4f} <= 1+1e-9"
        if spec.dim > 1:
            ball = {2: math.pi, 3: 4 * math.pi / 3}[spec.dim]
            slack_ok = excess <= math.sqrt(ball) * (1 + 1e-9)
            line += f" (ball-volume slack {math.sqrt(ball):.3f}: {'ok' if slack_ok else 'violated'})"
        details.append(line)
    _report(
        "criterion 2 (square-function bounds, 100 fields per flow)",
        ok,
        "; ".join(details),
    )


def test_criterion_3_propagator_exactness():
    rng = np.random.default_rng(SEED)
    worst_unitary = 0.0
    worst_group = 0.0
    for name, spec in (
        ("kdv", GridSpec(1, 256, 40.0)),
        ("wave-plus", SPEC_2D),
        ("wave-minus", SPEC_2D),
        ("schrodinger:+-", SPEC_2D),
    ):
        kind = FlowKind.parse(name)
        f = Field(spec, rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape))
        base = l2_norm(f)
        for t in (0.1, 1.0, -0.7):
            worst_unitary = max(
                worst_unitary, abs(l2_norm(evolve(f, kind, t)) - base) / base
            )
        a = evolve(evolve(f, kind, 0.3), kind, 0.45)
        b = evolve(f, kind, 0.75)
        worst_group = max(
            worst_group, l2_norm(Field(spec, a.values - b.values)) / base
        )

    # Direct-summation oracle for the KdV value at x = 0 on a 256-point grid.
    spec = GridSpec(1, 256, 40.0)
    x = spec.axis_coordinates()
    f = Field(spec, np.exp(-(x**2) / 2))
    t = 0.01
    xi = spec.axis_frequencies()
    coeffs = (
        spec.dx / np.sqrt(2 * np.pi)
        * np.array([np.sum(f.values * np.exp(-1j * w * x)) for w in xi])
    )
    oracle = spec.dxi / np.sqrt(2 * np.pi) * np.sum(np.exp(1j * t * xi**3) * coeffs)
    got = evolve(f, FlowKind.parse("kdv"), t).values[spec.origin_index()]
    oracle_err = abs(got - oracle)

    ok = worst_unitary < 1e-10 and worst_group < 1e-10 and oracle_err < 1e-8
    _report(
        "criterion 3 (propagator exactness)",
        ok,
        f"unitarity {worst_unitary:.2e} (< 1e-10), group law {worst_group:.2e}"
        f" (< 1e-10), direct-sum oracle {oracle_err:.2e} (< 1e-8)",
    )


def test_criterion_4_khintchine_desk_scale():
    rng = np.random.default_rng(SEED + 4)
    vectors = []
    for i in range(10):
        c = np.zeros(32, dtype=complex)
        c[(3 * i) % 32] = 1.0
        vectors.append(c)
    for _ in range(10):
        c = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        vectors.append(c / np.linalg.norm(c))
    worst = 0.0
    for i, c in enumerate(vectors):
        for p in (2, 4, 8, 16):
            m = khintchine_moment(c, p, 10_000, SEED + 40 + i)
            worst = max(worst, m / (math.sqrt(p) * np.linalg.norm(c)))
    m2 = khintchine_moment(np.array([1.0]), 2.0, 100_000, SEED + 90)
    m4 = khintchine_moment(np.array([1.0]), 4.0, 100_000, SEED + 91)
    err2 = abs(m2 - 1.0)
    err4 = abs(m4 - 2.0**0.25) / 2.0**0.25
    ok = worst <= 3.0 and err2 < 0.03 and err4 < 0.03
    _report(
        "criterion 4 (Khintchine-type moment growth)",
        ok,
        f"worst ratio {worst:.3f} (<= 3), p=2 moment err {err2:.3%},"
        f" p=4 moment err {err4:.3%} (< 3%)",
    )


def _single_mode_case(label, flow, spec, xi_steps, t):
    xi0 = np.array(xi_steps, dtype=float) * spec.dxi
    phase = np.zeros(spec.shape)
    for v, g in zip(xi0, spec.coordinate_grids()):
        phase = phase + v * g
    f = Field(spec, np.exp(1j * phase))
    x_index = spec.origin_index()
    sym = symbol(flow, spec, t)
    idx = tuple(int(s) + spec.samples_per_axis // 2 for s in xi_steps)
    factor = abs(complex(sym[idx]) - 1.0)
    lo = np.floor(xi0)
    import itertools

    total = 0.0
    for off in itertools.product((0.0, 1.0), repeat=spec.dim):
        total += float(bump_value(xi0 - (lo + np.asarray(off)))) ** 2
    scale = factor * math.sqrt(total)  # |f(x)| = 1
    devs = tailprob.deviation_samples(flow, f, t, x_index, 10_000, SEED + 5)
    ks = stats.kstest(devs, stats.rayleigh(scale=scale / math.sqrt(2)).cdf)
    return label, float(ks.statistic)


def test_criterion_5_single_mode_oracle():
    spec1 = GridSpec(1, 128, 16.0)
    spec2 = GridSpec(2, 32, 16.0)
    cases = [
        _single_mode_case("kdv 1d", FlowKind.parse("kdv"), spec1, (1,), 0.5),
        _single_mode_case("wave-half 2d", FlowKind.parse("wave-half"), spec2, (1, 2), 1.0),
        _single_mode_case("schrodinger:++ 2d", FlowKind.parse("schrodinger:++"), spec2, (1, 2), 0.7),
        _single_mode_case("schrodinger:+- 2d", FlowKind.parse("schrodinger:+-"), spec2, (2, 1), 0.7),
    ]
    worst = max(k for _, k in cases)
    ok = worst < 0.05
    _report(
        "criterion 5 (single-mode scaled-Rayleigh oracle, 1e4 draws)",
        ok,
        "; ".join(f"{label} KS {k:.4f}" for label, k in cases) + " (all < 0.05)",
    )


@pytest.fixture(scope="module")
def fitted_constants():
    """Per-flow Gaussian-tail constants shared by criteria 6 and 7."""
    out = {}
    fit, dom, cells = fitted_flow_constants(
        FlowKind.parse("kdv"), DATA_1D, (0.02, 0.05, 0.1), 10_000, SEED + 6
    )
    out["kdv"] = (fit, dom, cells, DATA_1D)
    fit, dom, cells = fitted_flow_constants(
        FlowKind.parse("wave-half"), DATA_2D, (0.06, 0.1, 0.14), 10_000, SEED + 7
    )
    out["wave-half"] = (fit, dom, cells, DATA_2D)
    for sig in ("schrodinger:++", "schrodinger:+-"):
        fit, dom, cells = fitted_flow_constants(
            FlowKind.parse(sig), DATA_2D, (0.02, 0.05, 0.1), 10_000, SEED + 8
        )
        out[sig] = (fit, dom, cells, DATA_2D)
    return out


def test_criterion_6_gaussian_tail_shape(fitted_constants):
    details = []
    ok = True
    for label in ("kdv", "wave-half", "schrodinger:+-"):
        fit, dom, cells, _ = fitted_constants[label]
        in_range = sum(1 for e in cells if 1e-3 < e.probability < 0.5)
        dominated = all(
            tailprob.theoretical_bound(dom, e.alpha, abs(e.t)) >= e.ci_high
            for e in cells
        )
        ok = ok and fit.r_squared > 0.9 and fit.n_points >= 6 and in_range >= 6 and dominated
        details.append(
            f"{label}: R^2 {fit.r_squared:.4f} on {fit.n_points} cells,"
            f" {in_range} cells with P in (1e-3, 0.5), dominated={dominated}"
        )
    _report("criterion 6 (Gaussian tail shape and domination)", ok, "; ".join(details))


def test_criterion_7_convergence_curves(fitted_constants):
    schedule = (0.4, 0.2, 0.1)
    details = []
    ok = True
    for label in ("kdv", "wave-half", "schrodinger:++", "schrodinger:+-"):
        _, dom, _, data = fitted_constants[label]
        rows = tailprob.convergence_curve(
            FlowKind.parse(label), data, schedule, dom, 4000, SEED + 70
        )
        under = all(
            est.probability <= split.epsilon + (est.ci_high - est.ci_low) / 2
            for est, split in rows
        )
        ratios = [est.alpha / math.sqrt(split.epsilon) for est, split in rows]
        shrinking = all(a > b for a, b in zip(ratios, ratios[1:]))
        ok = ok and under and shrinking
        details.append(
            f"{label}: P = {[est.probability for est, _ in rows]} vs eps {list(schedule)},"
            f" alpha/sqrt(eps) decreasing={shrinking}"
        )
    _report("criterion 7 (convergence-in-probability schedule)", ok, "; ".join(details))


def test_criterion_8_density_event():
    pairs = [((0,), (0,)), ((1,), (0,)), ((0,), (1,)), ((1,), (1,))]
    details = []
    ok = True
    for eps in (0.2, 0.1):
        params = tailprob.calibrate_density_constants(
            DATA_1D, eps, pairs, 2000, SEED + 80
        )
        res = tailprob.density_event_probability(
            DATA_1D, eps, pairs, 2000, SEED + 81, params
        )
        halfwidth = (res.ci_high - res.ci_low) / 2
        good = res.probability >= res.target - halfwidth
        ok = ok and good
        details.append(
            f"eps={eps}: P = {res.probability:.4f} >= {res.target} - {halfwidth:.4f}"
        )
    _report("criterion 8 (joint smallness/decay event)", ok, "; ".join(details))


def test_criterion_9_chunk_determinism(tmp_path, monkeypatch):
    config = {
        "grid": {"dim": 1, "samples_per_axis": 256, "extent": 40.0},
        "flow": "kdv",
        "data": {"recipe": "gaussian", "width": 2.0},
        "times": [0.02, 0.05],
        "thresholds": [0.001, 0.003, 0.01],
        "observation_points": [[128], [100]],
        "ensemble_size": 3000,
        "seed": 20260810,
    }
    cfg_path = tmp_path / "tails.json"
    cfg_path.write_text(json.dumps(config))
    default = tailprob._CHUNK
    bodies = []
    for chunk in (default, 333):
        monkeypatch.setattr(tailprob, "_CHUNK", chunk)
        out = tmp_path / f"run_c{chunk}"
        assert cli.main(["tails", "--config", str(cfg_path), "--out", str(out)]) == 0
        bodies.append((out / "tails_results.csv").read_bytes())
    ok = bodies[0] == bodies[1]
    _report(
        "criterion 9 (byte-identical CSV across draw chunk sizes)",
        ok,
        f"{len(bodies[0])} bytes, chunks {default} vs 333 identical={ok}",
    )
