import functools
import inspect
import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from dispersim import cli
from dispersim.cli import parse_data
from dispersim.decompose import decay_seminorm, schwartz_split
from dispersim.errors import ConfigurationError, FitError
from dispersim.grid import Field, GridSpec, forward_transform, l2_norm, monomial_weight
from dispersim.propagators import FlowKind, symbol
from dispersim.randomize import (
    RandomDraw,
    draw,
    gaussian_matrix,
    randomize_field,
    randomized_weights,
)
from dispersim.wiener import (
    _square_function_from_coeffs,
    bump_value,
    projection_blocks,
    scatter,
    unit_lattice,
)
from dispersim import tailprob
from dispersim.tailprob import (
    BoundParams,
    TailEstimate,
    TailExperimentConfig,
    binomial_z,
    convergence_rows,
    density_rows,
    deviation_coefficients,
    deviation_samples,
    dominate_constants,
    estimate_tail,
    fit_constants,
    observable_factor,
    pointwise_deviation,
    series_norm,
    theoretical_bound,
    threshold_schedule,
    wilson_interval,
)

SPEC = GridSpec(1, 128, 16.0)
X = SPEC.axis_coordinates()
KDV = FlowKind.parse("kdv")
ORIGIN = SPEC.origin_index()

# The density split needs a frequency cell small enough to resolve the
# mollifier, so split-based tests run on a wider, finer box.
SPLIT_SPEC = GridSpec(1, 256, 40.0)
SPLIT_ORIGIN = SPLIT_SPEC.origin_index()


def single_mode():
    xi0 = SPEC.dxi  # strictly between lattice points 0 and 1
    return Field(SPEC, np.exp(1j * xi0 * X)), xi0


def gaussian(width=2.0):
    return Field(SPEC, np.exp(-(X**2) / (2 * width**2)))


def split_gaussian(width=2.0):
    x = SPLIT_SPEC.axis_coordinates()
    return Field(SPLIT_SPEC, np.exp(-(x**2) / (2 * width**2)))


def mode_deviation_scale(xi0, t, x_value=0.0):
    """Closed-form series norm for a single-mode field: the deviation is
    |symbol - 1| |f(x)| |Z| with Z complex Gaussian of variance
    sum_k psi(xi0 - k)^2."""
    sym = abs(np.exp(1j * t * xi0**3) - 1.0)
    psi = bump_value(np.array([[xi0], [xi0 - 1.0]]))
    return sym * float(np.sqrt(np.sum(psi**2)))


class TestWilson:
    def test_contains_point_estimate(self):
        for k, n in ((0, 100), (3, 100), (50, 100), (100, 100)):
            lo, hi = wilson_interval(k, n)
            assert 0.0 <= lo <= k / n <= hi <= 1.0

    def test_zero_count_has_positive_upper(self):
        lo, hi = wilson_interval(0, 1000)
        assert lo == 0.0 and 0 < hi < 0.01

    def test_bitwise_equal_to_scipy(self):
        # scipy's binomtest is the oracle; the closed form must reproduce
        # it bit for bit, including the exact 0 and 1 at k = 0 and k = n.
        sizes = list(range(1, 41)) + [99, 100, 1000, 1024, 2000, 10_000, 20_000]
        for n in sizes:
            ks = set(range(0, n + 1, max(1, n // 60))) | {0, 1, 2, n - 2, n - 1, n}
            for k in sorted(k for k in ks if 0 <= k <= n):
                ci = stats.binomtest(k, n).proportion_ci(
                    confidence_level=0.95, method="wilson"
                )
                assert wilson_interval(k, n) == (float(ci.low), float(ci.high)), (k, n)

    def test_rejects_impossible_counts(self):
        for k, n in ((0, 0), (5, 4), (-1, 10)):
            with pytest.raises(ValueError):
                wilson_interval(k, n)


class TestConfigValidation:
    def test_small_ensemble_rejected(self):
        f, _ = single_mode()
        with pytest.raises(ConfigurationError):
            TailExperimentConfig(KDV, f, (0.1,), (0.5,), (ORIGIN,), 50, 1)

    def test_observation_point_bounds(self):
        f, _ = single_mode()
        with pytest.raises(ConfigurationError):
            TailExperimentConfig(KDV, f, (0.1,), (0.5,), ((200,),), 100, 1)

    def test_flow_dimension_checked(self):
        f, _ = single_mode()
        with pytest.raises(ConfigurationError):
            TailExperimentConfig(FlowKind.parse("wave-half"), f, (0.1,), (0.5,), (ORIGIN,), 100, 1)


class TestPointwiseDeviation:
    def test_zero_at_t0(self):
        # Exactly 0, not round-off: S(0) - 1 is the zero multiplier.
        f, _ = single_mode()
        spec_2d = GridSpec(2, 32, 16.0)
        cases = (
            (KDV, f, ORIGIN),
            (FlowKind.parse("schrodinger:+-"), parse_data({"recipe": "gaussian"}, spec_2d),
             (17, 12)),
        )
        for flow, data, x in cases:
            lattice = unit_lattice(data.spec)
            for seed in range(40):
                assert pointwise_deviation(flow, data, draw(seed, lattice), 0.0, x) == 0.0

    def test_zero_field(self):
        f = Field(SPEC, np.zeros(SPEC.shape))
        d = draw(4, unit_lattice(SPEC))
        assert pointwise_deviation(KDV, f, d, 0.3, ORIGIN) == 0.0

    def test_pipeline_matches_series_route(self):
        f = gaussian()
        lattice = unit_lattice(SPEC)
        a = deviation_coefficients(KDV, f, 0.25, ORIGIN)
        for m in range(5):
            d = draw(31, lattice, m)
            via_pipeline = pointwise_deviation(KDV, f, d, 0.25, ORIGIN)
            via_series = abs(np.dot(d.coefficients, a))
            assert abs(via_pipeline - via_series) < 1e-10

    def test_single_mode_matches_scaled_rayleigh(self):
        # The deviation of a single-mode field is |e^{i t xi0^3} - 1| times
        # the modulus of a complex Gaussian; KS distance over 1e4 draws.
        f, xi0 = single_mode()
        t = 0.5
        scale = mode_deviation_scale(xi0, t)
        devs = deviation_samples(KDV, f, t, ORIGIN, 10_000, 2718)
        ks = stats.kstest(devs, stats.rayleigh(scale=scale / np.sqrt(2)).cdf)
        assert ks.statistic < 0.05


class TestEstimateTail:
    def test_unreachable_threshold_gives_zero(self):
        f, xi0 = single_mode()
        pilot = deviation_samples(KDV, f, 0.5, ORIGIN, 500, 9)
        cfg = TailExperimentConfig(
            KDV, f, (0.5,), (float(10 * pilot.max()),), (ORIGIN,), 500, 9
        )
        (est,) = estimate_tail(cfg)
        assert est.probability == 0.0

    def test_t0_gives_zero(self):
        f, _ = single_mode()
        cfg = TailExperimentConfig(KDV, f, (0.0,), (1e-9,), (ORIGIN,), 200, 9)
        (est,) = estimate_tail(cfg)
        assert est.probability == 0.0

    def test_row_cardinality(self):
        f, _ = single_mode()
        cfg = TailExperimentConfig(KDV, f, (0.1, 0.5), (0.01, 0.02, 0.03), (ORIGIN,), 100, 9)
        assert len(estimate_tail(cfg)) == 6

    def test_single_mode_cells_cover_oracle_tail(self):
        # Exact tail: P(dev > alpha) = exp(-alpha^2 / scale^2); the Wilson
        # interval should cover it for ~95% of cells.
        f, xi0 = single_mode()
        t = 0.5
        scale = mode_deviation_scale(xi0, t)
        alphas = tuple(scale * math.sqrt(-math.log(p)) for p in (0.5, 0.3, 0.15, 0.05))
        cfg = TailExperimentConfig(KDV, f, (t,), alphas, (ORIGIN,), 10_000, 5)
        cells = estimate_tail(cfg)
        covered = sum(
            est.ci_low <= math.exp(-((est.alpha / scale) ** 2)) <= est.ci_high
            for est in cells
        )
        assert covered >= 3

    def test_thread_count_never_changes_results(self):
        f = gaussian()
        cfg = TailExperimentConfig(KDV, f, (0.1,), (0.002, 0.005), (ORIGIN,), 4200, 12)
        assert estimate_tail(cfg, threads=1) == estimate_tail(cfg, threads=3)

    def test_chunk_size_never_changes_results(self, monkeypatch):
        cfg = TailExperimentConfig(
            KDV, gaussian(), (0.1, 0.3), (0.002, 0.005), (ORIGIN, (70,)), 4200, 12
        )
        whole = estimate_tail(cfg)
        monkeypatch.setattr(tailprob, "_CHUNK", 333)
        assert estimate_tail(cfg) == whole

    def test_draws_one_normal_per_cell(self, monkeypatch):
        widths = []

        def counted(seed, n_samples, n_coeffs, sample_offset=0):
            widths.append((n_samples, n_coeffs))
            return gaussian_matrix(seed, n_samples, n_coeffs, sample_offset)

        monkeypatch.setattr(tailprob, "gaussian_matrix", counted)
        cfg = TailExperimentConfig(
            KDV, gaussian(), (0.1, 0.3), (0.002, 0.005), (ORIGIN, (70,), (3,)), 4200, 12
        )
        estimate_tail(cfg)
        assert {n for _, n in widths} == {6}  # 2 times x 3 points
        assert sum(m for m, _ in widths) == 4200
        widths.clear()
        deviation_samples(KDV, gaussian(), 0.1, ORIGIN, 3000, 12)
        assert {n for _, n in widths} == {1}
        assert sum(m for m, _ in widths) == 3000


# ---------------------------------------------------------------------------
# Series coefficients one cell at a time
# ---------------------------------------------------------------------------


def full_table_series(spec, weighted):
    """sum_xi psi(xi - k) weighted(xi) summing every neighbour-table entry,
    zero weights included, with separate real and imaginary bincounts per
    corner."""
    table = projection_blocks(spec)
    n = len(unit_lattice(spec))
    stack = weighted.reshape(-1, spec.size)
    offsets = n * np.arange(len(stack))[:, None]
    out = np.zeros(len(stack) * n, dtype=np.complex128)
    for index, weight in zip(table.index.T, table.weight.T):
        terms = (weight * stack).reshape(-1)
        bins = (index + offsets).reshape(-1)
        out += np.bincount(bins, terms.real, out.size) + 1j * np.bincount(
            bins, terms.imag, out.size
        )
    return out.reshape(weighted.shape[: weighted.ndim - spec.dim] + (n,))


def stacked_deviation_rows(flow, f, times, points):
    """Every cell's series, one full-table sum per time over the stacked
    phases of all points, then the series' scale."""
    spec = f.spec
    F = forward_transform(f).coeffs
    phases = np.stack([tailprob._point_phase(spec, x) for x in points])
    scale = spec.frequency_cell_volume * (2.0 * np.pi) ** (-spec.dim / 2.0)
    return scale * np.concatenate(
        [full_table_series(spec, phases * (symbol(flow, spec, t) - 1.0) * F) for t in times]
    )


# The tails-3d benchmark workload: 2 times x 5 points on a 32^3 mesh.
TAILS_3D_SPEC = GridSpec(3, 32, 16.0)
TAILS_3D_FLOW = FlowKind.parse("schrodinger:++-")
TAILS_3D_TIMES = (0.02, 0.05)
TAILS_3D_POINTS = ((16, 16, 16), (17, 16, 16), (16, 18, 16), (15, 15, 17), (18, 17, 16))


def tails_3d_data():
    return parse_data({"recipe": "gaussian", "width": 1.5}, TAILS_3D_SPEC)


@pytest.mark.parametrize(
    "spec, lead",
    [
        (GridSpec(1, 256, 40.0), ()),
        (GridSpec(1, 256, 40.0), (3,)),
        (GridSpec(2, 64, 32.0), ()),
        (GridSpec(2, 64, 32.0), (2, 2)),
        (GridSpec(3, 16, 16.0), ()),
        (GridSpec(3, 16, 16.0), (3,)),
    ],
    ids=lambda v: f"{v.dim}d-{v.samples_per_axis}" if isinstance(v, GridSpec) else f"lead{v}",
)
def test_windowed_series_equals_full_table_sum(spec, lead):
    rng = np.random.default_rng(spec.dim + len(lead))
    weighted = rng.standard_normal(lead + spec.shape) + 1j * rng.standard_normal(
        lead + spec.shape
    )
    got = scatter(spec, weighted)
    assert got.shape == lead + (len(unit_lattice(spec)),)
    assert np.array_equal(got, full_table_series(spec, weighted))
    # Real input, as the remainder law's |h^|^2 S: a real sum, the same bits.
    real = scatter(spec, weighted.real)
    assert real.dtype == np.float64 and real.shape == got.shape
    assert np.array_equal(real, full_table_series(spec, weighted.real).real)


def test_deviation_stack_equals_stacked_route_on_tails_3d():
    f = tails_3d_data()
    got = tailprob._deviation_stack(TAILS_3D_FLOW, f, TAILS_3D_TIMES, TAILS_3D_POINTS)
    expected = stacked_deviation_rows(TAILS_3D_FLOW, f, TAILS_3D_TIMES, TAILS_3D_POINTS)
    assert got.shape == (10, len(unit_lattice(TAILS_3D_SPEC)))
    assert np.array_equal(got, expected)


def test_deviation_stack_holds_about_one_cell_at_a_time():
    # Stacking all 5 points' mesh arrays peaked at ~25 complex mesh arrays.
    f = tails_3d_data()
    projection_blocks(TAILS_3D_SPEC)  # built once per grid, outside the peak
    tracemalloc.start()
    try:
        tailprob._deviation_stack(TAILS_3D_FLOW, f, TAILS_3D_TIMES, TAILS_3D_POINTS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 16 * TAILS_3D_SPEC.size


# Observable-space sampling: grids with a t = 0 cell (a = 0) and a repeated
# observation point, so the Gram matrix of the cells is rank deficient.
FACTOR_CASES = {
    "3d": (
        GridSpec(3, 16, 16.0),
        FlowKind.parse("schrodinger:++-"),
        (0.0, 0.05),
        ((8, 8, 8), (9, 8, 8), (8, 8, 8), (5, 11, 8)),
    ),
    "2d": (
        GridSpec(2, 32, 16.0),
        FlowKind.parse("wave-half"),
        (0.0, 0.1, 0.3),
        ((16, 16), (17, 15), (16, 16)),
    ),
}


def factor_case(name):
    spec, flow, times, points = FACTOR_CASES[name]
    r2 = spec.coordinate_norm_squared()
    f = Field(spec, np.exp(-r2 / 2.0) * (1.0 + 0.3j * spec.coordinate_grids()[0]))
    A = np.stack(
        [deviation_coefficients(flow, f, t, x) for t in times for x in points], axis=1
    )
    return A, observable_factor(A)


@pytest.mark.parametrize("name", sorted(FACTOR_CASES))
class TestObservableFactor:
    def test_reproduces_rank_deficient_gram(self, name):
        A, B = factor_case(name)
        gram = A.T @ A.conj()
        assert np.linalg.matrix_rank(gram, tol=1e-10 * np.max(np.abs(gram))) < len(gram)
        err = np.max(np.abs(B.T @ B.conj() - gram))
        assert err <= 1e-13 * np.max(np.abs(gram))

    def test_samples_have_the_cell_covariance(self, name):
        A, B = factor_case(name)
        gram = A.T @ A.conj()
        n = 20_000
        Y = gaussian_matrix(404, n, len(gram)) @ B
        var = np.real(np.diag(gram))
        # Var of the estimator of E[Y_c conj(Y_d)] is Sigma_cc Sigma_dd / n, and
        # of the estimator of E[Y_c Y_d] at most twice that; allow 5 sigma.
        sigma = np.sqrt(2.0 * np.outer(var, var) / n)
        slack = 5.0 * sigma + 1e-13 * np.max(var)
        assert np.all(np.abs(Y.T @ Y.conj() / n - gram) <= slack)
        assert np.all(np.abs(Y.T @ Y / n) <= slack)


class TestExactLaw:
    def test_entries_follow_the_rayleigh_law(self):
        f = gaussian()
        points = (ORIGIN, (70,))
        cfg = TailExperimentConfig(KDV, f, (0.0, 0.2), (1e-4, 0.003, 0.01), points, 2000, 8)
        estimates = estimate_tail(cfg)
        law = tailprob.exact_law(estimates)
        assert len(law["rows"]) == len(estimates) == 12
        misses = 0
        for est, row in zip(estimates, law["rows"]):
            norm = series_norm(deviation_coefficients(KDV, f, est.t, est.x_index))
            assert row["series_norm"] == pytest.approx(norm, rel=1e-12, abs=0.0)
            if est.t == 0.0:  # a = 0: the deviation never exceeds alpha > 0
                assert row["exact_prob"] == 0.0 and row["z"] == 0.0
                continue
            p = math.exp(-((est.alpha / norm) ** 2))
            assert row["exact_prob"] == pytest.approx(p, rel=1e-12)
            m, k = est.ensemble_size, est.exceed_count
            assert row["z"] == pytest.approx(scipy_binomial_z(k, m, p), rel=1e-9, abs=1e-9)
            misses += not est.ci_low <= p <= est.ci_high
        assert law["outside_wilson"] == misses

    def test_small_mean_count_scored_by_the_exact_tail(self):
        # M p = 0.5 and k = 4: the normal approximation reads 4.95 sigma, the
        # exact tail P(X >= 4) = 1.75e-3 only 2.92.
        k, m, p = 4, 10_000, 5e-5
        assert (k - m * p) / math.sqrt(m * p * (1 - p)) == pytest.approx(4.95, abs=0.005)
        assert binomial_z(k, m, p) == pytest.approx(scipy_binomial_z(k, m, p), rel=1e-9)
        assert binomial_z(k, m, p) == pytest.approx(2.92, abs=0.005)

    @pytest.mark.parametrize(
        "k, m, p",
        [(0, 10_000, 5e-5), (1, 100, 0.3), (45, 100, 0.3), (30, 100, 0.3), (9_990, 10_000, 0.999)],
    )
    def test_binomial_z_against_scipy(self, k, m, p):
        assert binomial_z(k, m, p) == pytest.approx(scipy_binomial_z(k, m, p), rel=1e-9, abs=1e-9)

    def test_binomial_z_at_certain_counts(self):
        assert binomial_z(0, 100, 0.0) == binomial_z(100, 100, 1.0) == 0.0
        assert binomial_z(3, 100, 0.0) == math.inf


def scipy_binomial_z(k, m, p):
    """Signed z of k against Binomial(m, p) from scipy's exact tails."""
    tail = stats.binom.sf(k - 1, m, p) if k >= m * p else stats.binom.cdf(k, m, p)
    z = stats.norm.isf(min(1.0, 2.0 * tail) / 2.0)
    return math.copysign(z, k - m * p) if z else 0.0


class TestTheoreticalBound:
    PARAMS = BoundParams(C=2.0, C1=5.0)

    def test_decreasing_to_zero(self):
        vals = [theoretical_bound(self.PARAMS, a, 0.1) for a in (0.5, 1.0, 2.0, 5.0, 50.0)]
        assert all(x >= y for x, y in zip(vals, vals[1:]))
        assert vals[-1] < 1e-12

    def test_unit_exponent_point(self):
        scale = 0.3
        alpha = self.PARAMS.C * math.e * scale
        expected = min(1.0, self.PARAMS.C1 * math.exp(-1.0))
        assert abs(theoretical_bound(self.PARAMS, alpha, scale) - expected) < 1e-12

    def test_clamped_to_unit_interval(self):
        assert theoretical_bound(self.PARAMS, 0.0, 1.0) == 1.0


def synthetic_estimates(C, C1, times, targets, n=100_000):
    ests = []
    for t in times:
        for p_target in targets:
            alpha = C * math.e * t * math.sqrt(math.log(C1 / p_target))
            p = C1 * math.exp(-((alpha / (C * math.e * t)) ** 2))
            k = int(round(p * n))
            lo, hi = wilson_interval(k, n)
            ests.append(TailEstimate("kdv", t, alpha, (64,), k, n, p, lo, hi))
    return ests


class TestFitConstants:
    def test_exact_model_round_trip(self):
        ests = synthetic_estimates(2.0, 5.0, (0.1, 0.05, 0.02), (0.35, 0.2, 0.08, 0.02))
        fit = fit_constants(ests, [abs(e.t) for e in ests])
        assert abs(fit.params.C - 2.0) < 0.02
        assert abs(fit.params.C1 - 5.0) < 0.05
        assert fit.r_squared > 0.999

    def test_all_zero_probabilities_unfittable(self):
        ests = [
            TailEstimate("kdv", 0.1, a, (64,), 0, 1000, 0.0, 0.0, 0.004)
            for a in np.linspace(0.1, 1.0, 8)
        ]
        with pytest.raises(FitError):
            fit_constants(ests, [0.1] * len(ests))

    def test_too_few_cells_unfittable(self):
        ests = synthetic_estimates(2.0, 5.0, (0.1,), (0.35, 0.2))
        with pytest.raises(FitError):
            fit_constants(ests, [0.1] * len(ests))

    @pytest.mark.filterwarnings("error")
    def test_single_abscissa_unfittable(self):
        # Six cells at one (alpha/scale)^2: no slope can be fitted, so the
        # fit refuses rather than letting polyfit return an arbitrary line.
        ests = [
            TailEstimate("kdv", 0.1, 0.05, (i,), k, 1000, k / 1000, 0.0, 1.0)
            for i, k in enumerate((561, 536, 512, 479, 426, 420))
        ]
        with pytest.raises(FitError, match="distinct"):
            fit_constants(ests, [0.1] * len(ests))

    def test_uses_each_estimates_scale(self):
        # Cells at t = 1: on scale 1.0 the fit gives back C = 2; on scale
        # 2.0 the same alphas give C = 1, so the scale is the given one.
        ests = synthetic_estimates(2.0, 5.0, (1.0,), (0.4, 0.3, 0.2, 0.1, 0.05, 0.02))
        fit = fit_constants(ests, [1.0] * len(ests))
        assert abs(fit.params.C - 2.0) < 0.02
        fit = fit_constants(ests, [2.0] * len(ests))
        assert abs(fit.params.C - 1.0) < 0.01

    def test_single_mode_ensemble_fit(self):
        # The single-mode tail is exactly Gaussian in alpha^2, so the fit
        # comes back nearly perfect.
        f, xi0 = single_mode()
        t = 0.5
        scale = mode_deviation_scale(xi0, t)
        alphas = tuple(scale * math.sqrt(-math.log(p)) for p in (0.45, 0.3, 0.2, 0.12, 0.06, 0.02))
        cfg = TailExperimentConfig(KDV, f, (t,), alphas, (ORIGIN,), 10_000, 97)
        cells = estimate_tail(cfg)
        fit = fit_constants(cells, [abs(e.t) for e in cells])
        assert fit.r_squared > 0.9

    def test_domination_after_inflation(self):
        f = gaussian()
        norm_a = series_norm(deviation_coefficients(KDV, f, 0.1, ORIGIN))
        alphas = tuple(norm_a * math.sqrt(-math.log(p)) for p in (0.4, 0.25, 0.12, 0.05, 0.02, 0.008))
        cfg = TailExperimentConfig(KDV, f, (0.1,), alphas, (ORIGIN,), 10_000, 98)
        cells = estimate_tail(cfg)
        scales = [abs(e.t) for e in cells]
        fit = fit_constants(cells, scales)
        dom = dominate_constants(cells, fit.params, scales)
        assert all(
            theoretical_bound(dom, est.alpha, abs(est.t)) >= est.ci_high for est in cells
        )


class TestConvergenceCurve:
    PARAMS = BoundParams(C=0.05, C1=2.0)

    def test_zero_field_has_no_bound(self):
        # Every deviation of the zero field vanishes: no constant C > 0.
        f = Field(SPEC, np.zeros(SPEC.shape))
        with pytest.raises(FitError, match="vanishes at every t"):
            convergence_rows(KDV, f, (0.4, 0.2), ORIGIN, 200, 3)

    def test_threshold_shrinks_faster_than_sqrt_eps(self):
        schedule = (0.4, 0.2, 0.1)
        ratios = [threshold_schedule(self.PARAMS, e) / math.sqrt(e) for e in schedule]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))

    def test_gaussian_curve_stays_under_eps(self):
        f = split_gaussian()
        _, rows = convergence_rows(KDV, f, (0.4, 0.2, 0.1), SPLIT_ORIGIN, 500, 7)
        for est, split in rows:
            halfwidth = (est.ci_high - est.ci_low) / 2
            assert est.probability <= split.epsilon + halfwidth
        probs = [est.probability for est, _ in rows]
        assert all(a >= b - 0.05 for a, b in zip(probs, probs[1:]))
        # The counts read 0 or 1, so the lines above cannot fail; report's
        # exact-law check can, as the control with twice each series norm shows.
        estimates = [est for est, _ in rows]
        doubled = [replace(est, series_norm=2.0 * est.series_norm) for est in estimates]
        for ests, verdict in ((estimates, "; yes"), (doubled, "; NO")):
            assert cli._exact_law_line("curve", tailprob.exact_law(ests)).endswith(verdict)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_rows_count_as_raw_samples(self, dim):
        # Each row is the one-cell tails count at (eps/2, alpha(eps), x):
        # the same draws and comparison as the raw deviation samples.
        if dim == 1:
            flow, f, x = KDV, split_gaussian(), SPLIT_ORIGIN
        else:
            flow, x = FlowKind.parse("schrodinger:+-"), (33, 30)
            f = parse_data({"recipe": "gaussian", "width": 2.0}, GridSpec(2, 64, 32.0))
        schedule = (0.4, 0.2, 0.1)
        params, rows = convergence_rows(flow, f, schedule, x, 3000, 11)
        for eps, (est, split) in zip(schedule, rows):
            assert (split.epsilon, est.t, est.x_index) == (eps, eps / 2, x)
            assert est.alpha == threshold_schedule(params, eps)
            devs = deviation_samples(flow, f, eps / 2, x, 3000, 11)
            assert est.exceed_count == int(np.sum(devs > est.alpha))
            assert est.ensemble_size == 3000


class TestConvergenceRows:
    SCHEDULE = (0.4, 0.2, 0.1)

    @staticmethod
    def dominates(params, cells):
        """Whether the bound on scale |t| lies above every cell's exact law
        exp(-alpha^2/||a||^2), up to rounding, at alpha from 0 to 6 ||a||."""
        for t, a in cells:
            norm = series_norm(a)
            for alpha in np.linspace(0.0, 6.0 * norm, 61):
                exact = math.exp(-((alpha / norm) ** 2))
                if theoretical_bound(params, alpha, abs(t)) < exact * (1.0 - 1e-12):
                    return False
        return True

    @pytest.mark.parametrize("label", ["kdv", "schrodinger:+", "wave-half"])
    def test_constants_from_the_exact_law(self, label, monkeypatch):
        # C = C*, the max of ||a|| / (e |t|) over the curve's cells, and
        # C1 = 1: the bound dominates every cell's exact law, and 2 % less
        # C does not.  The curve's ensembles are the only draws.
        flow, f, x = FlowKind.parse(label), split_gaussian(), SPLIT_ORIGIN
        if label == "wave-half":
            f = parse_data({"recipe": "gaussian", "width": 2.0}, GridSpec(2, 64, 32.0))
            x = (33, 30)
        counted = []
        inner = tailprob._count_cells

        def count_cells(flow_label, cells, stack, thresholds, m_total, seed):
            counted.append((len(cells), m_total, seed))
            return inner(flow_label, cells, stack, thresholds, m_total, seed)

        monkeypatch.setattr(tailprob, "_count_cells", count_cells)
        params, curve = convergence_rows(flow, f, self.SCHEDULE, x, 200, 3)
        cells = [(eps / 2, deviation_coefficients(flow, f, eps / 2, x)) for eps in self.SCHEDULE]
        assert params.C == max(series_norm(a) / (math.e * t) for t, a in cells)
        assert params.C1 == 1.0
        assert counted == [(1, 200, 3)] * len(self.SCHEDULE)
        assert [est.alpha for est, _ in curve] == [
            threshold_schedule(params, eps) for eps in self.SCHEDULE
        ]
        assert self.dominates(params, cells)
        assert not self.dominates(BoundParams(0.98 * params.C, 1.0), cells)


class TestDensityEvent:
    PAIRS = [((0,), (0,)), ((1,), (0,)), ((0,), (1,)), ((1,), (1,))]

    def test_calibrated_event_beats_target(self):
        f = split_gaussian()
        ((_, res, _),) = density_rows(f, [0.2], self.PAIRS, 1500, 9)
        halfwidth = (res.ci_high - res.ci_low) / 2
        assert res.probability >= res.target - halfwidth

    def test_joint_event_below_each_marginal(self):
        from dispersim.decompose import schwartz_split

        f = split_gaussian()
        split = schwartz_split(f, 0.2)
        ((hnorms, ratios),) = draw_statistics(split, tuple(self.PAIRS), 21, [range(800)])
        lam, mthr = np.quantile(hnorms, 0.8), np.quantile(ratios, 0.8)
        joint = np.mean((hnorms <= lam) & (ratios <= mthr))
        assert joint <= np.mean(hnorms <= lam)
        assert joint <= np.mean(ratios <= mthr)

    def test_degenerate_split_reduces_to_norm_event(self):
        # eps above ||f|| forces g = 0, so only the h-norm part can fail,
        # and M is 0: no pair is checked.
        f = gaussian(width=1.0)
        eps = 1.05 * l2_norm(f)

        from dispersim.decompose import schwartz_split
        from dispersim.tailprob import _density_result

        split = schwartz_split(f, eps)
        setup = tailprob._split_setup(split, self.PAIRS)
        lam, _ = tailprob._lambda_threshold(*tailprob._remainder_law(setup), eps)
        assert setup_sigmas(split, self.PAIRS) == {}
        m_threshold, union = tailprob._m_threshold(np.empty(0), eps)
        assert (m_threshold, union) == (0.0, 0.0)
        ((hnorms, ratios),) = draw_statistics(split, tuple(self.PAIRS), 10, [range(300)])
        res = _density_result(eps, lam, m_threshold, hnorms, ratios)
        assert np.all(ratios == 0.0)
        assert res.lam == lam > 0 and res.m_threshold == 0.0
        assert res.probability == np.mean(hnorms <= lam)


class TestResultsCsv:
    def test_layout_and_rerun_bytes(self, tmp_path):
        ests = synthetic_estimates(2.0, 5.0, (0.1,), (0.3, 0.1))
        bounds = [theoretical_bound(BoundParams(2.0, 5.0), e.alpha, 0.1) for e in ests]
        rows = [
            (e.flow_label, e.t, e.alpha, tailprob.format_x_index(e.x_index), e.exceed_count,
             e.ensemble_size, e.probability, e.ci_low, e.ci_high, b)
            for e, b in zip(ests, bounds)
        ]
        p1, p2 = (
            cli._write_results(tmp_path / d, "tails", {}, 0, cli.TAILS_COLUMNS, rows)
            for d in ("a", "b")
        )
        assert open(p1, "rb").read() == open(p2, "rb").read()
        lines = open(p1).read().splitlines()
        assert lines[0] == f"# config={cli.config_hash({}, 0)}"
        assert lines[1].split(",") == list(cli.TAILS_COLUMNS)
        assert len(lines) == 2 + len(ests)

    @pytest.mark.parametrize("where", ["row", "manifest"])
    def test_failed_write_leaves_no_result_file(self, tmp_path, monkeypatch, where):
        # The table and the manifest replace their paths together or not at all.
        def fail(*args, **kwargs):
            raise RuntimeError("cannot be written")

        class Unprintable:
            __str__ = fail

        rows = [("kdv", 0.1)]
        if where == "row":
            rows.append(("kdv", Unprintable()))
        else:
            monkeypatch.setattr(cli.json, "dump", fail)
        with pytest.raises(RuntimeError, match="cannot be written"):
            cli._write_results(tmp_path / "o", "tails", {}, 0, ("flow", "t"), rows)
        assert list((tmp_path / "o").iterdir()) == []


def shifted_draw_statistics(split, pairs, seed, samples):
    """The density draw loop over the ``samples`` range of seed's stream with the usual index shifts: every mesh array
    in natural order, an ifftshift and an fftshift per draw and beta.  The
    reference the shift-free loop matches bit for bit."""
    spec = split.g.spec
    lattice = unit_lattice(spec)
    Fg = forward_transform(split.g).coeffs
    Fh = forward_transform(split.h).coeffs
    betas = sorted({b for _, b in pairs})
    freqs = spec.frequency_grids()
    beta_weights = {b: monomial_weight(freqs, b, imaginary=True) * Fg for b in betas}
    coords = spec.coordinate_grids()
    alpha_weights = {a: np.abs(monomial_weight(coords, a)) for a, _ in pairs}
    base = {pair: decay_seminorm(split.g, pair[0], pair[1]) for pair in pairs}
    degenerate = not np.any(split.g.values != 0)
    inv_scale = (2.0 * np.pi) ** (spec.dim / 2.0) / spec.cell_volume
    axes = tuple(range(spec.dim))
    hnorms = np.empty(len(samples))
    ratios = np.zeros(len(samples))
    draws = gaussian_matrix(seed, len(samples), len(lattice), samples.start)
    for m, coeffs in enumerate(draws):
        W = randomized_weights(spec, coeffs)
        hnorms[m] = math.sqrt(
            spec.frequency_cell_volume * float(np.sum(np.abs(W * Fh) ** 2))
        )
        if degenerate:
            continue
        worst = 0.0
        for b in betas:
            spec_side = np.fft.ifftshift(W * beta_weights[b])
            mag = np.abs(inv_scale * np.fft.fftshift(np.fft.ifftn(spec_side, axes=axes)))
            for a, bb in pairs:
                if bb == b:
                    worst = max(worst, float(np.max(alpha_weights[a] * mag)) / base[(a, bb)])
        ratios[m] = worst
    return hnorms, ratios


def draw_statistics(split, pairs, seed, ensembles):
    """Per-draw (||h^omega||, max pair ratio) of each of ``ensembles``,
    ranges of seed's samples, as density_rows draws them: one setup of the
    split, then the ensembles at once."""
    setup = tailprob._split_setup(split, pairs)
    run = functools.partial(tailprob._ensemble_statistics, setup, seed)
    return tailprob._run_ensembles(run, ensembles)


def setup_sigmas(split, pairs) -> dict:
    """sigma_x = |x^alpha| Sq[d^beta g](x) of each pair, in the draws' FFT x
    order, from the beta spectra and alpha weights of the split's setup."""
    spec = split.g.spec
    *_, spectra, terms = tailprob._split_setup(split, pairs)
    sigmas = {}
    for pair, (b, weight, _) in zip(dict.fromkeys(pairs), terms):
        square = _square_function_from_coeffs(spec, spectra[b].reshape(spec.shape))
        sigmas[pair] = square if weight is None else np.abs(weight.reshape(spec.shape)) * square
    return sigmas


def _gaussian_on(spec, width):
    return Field(spec, np.exp(-spec.coordinate_norm_squared() / (2.0 * width**2)))


# (grid, data width, eps, pair sets).  3D keeps |beta| <= 2: the spectral
# derivative stops at order 2, so its all-ones pair has beta (1, 1, 0).
DRAW_CASES = {
    "1d": (SPLIT_SPEC, 2.0, 0.2, {
        "default": (((0,), (0,)), ((1,), (1,))),
        "mixed": (((2,), (1,)), ((0,), (2,))),
    }),
    "2d": (GridSpec(2, 64, 32.0), 2.0, 0.2, {
        "default": (((0, 0), (0, 0)), ((1, 1), (1, 1))),
        "mixed": (((1, 0), (0, 1)),),
    }),
    "3d": (GridSpec(3, 16, 8.0), 1.0, 0.3, {
        "default": (((0, 0, 0), (0, 0, 0)), ((1, 1, 1), (1, 1, 0))),
        "mixed": (((1, 0, 0), (0, 1, 0)), ((0, 0, 1), (0, 0, 0))),
    }),
}


class TestSplitDrawStatistics:
    @pytest.mark.parametrize("kind", ["default", "mixed", "degenerate"])
    @pytest.mark.parametrize("name", sorted(DRAW_CASES))
    def test_fft_order_equals_shifted_draws(self, name, kind, monkeypatch):
        spec, width, eps, pair_sets = DRAW_CASES[name]
        f = _gaussian_on(spec, width)
        if kind == "degenerate":  # eps above ||f||: g = 0
            eps = 1.05 * l2_norm(f)
        split = schwartz_split(f, eps)
        assert (kind == "degenerate") == (not np.any(split.g.values))
        pairs = pair_sets["default" if kind == "degenerate" else kind]
        # Block edges mid-ensemble; both ensembles at once, the second
        # across a 256-sample block of the stream.
        monkeypatch.setattr(tailprob, "_DRAW_BLOCK", 3)
        ensembles = [range(40), range(250, 267)]
        got = draw_statistics(split, pairs, 77, ensembles)
        assert len(got) == len(ensembles)
        for (hnorms, ratios), samples in zip(got, ensembles):
            expected = shifted_draw_statistics(split, pairs, 77, samples)
            assert np.array_equal(hnorms, expected[0])
            assert np.array_equal(ratios, expected[1])

    def test_ratio_is_the_seminorm_ratio_of_the_randomized_smooth_part(self):
        # The default 2D pair has odd alpha: x^alpha < 0 on half the mesh,
        # where |x^alpha d^beta g^omega| counts as much as anywhere else.
        split = schwartz_split(_gaussian_on(GridSpec(2, 32, 16.0), 2.0), 0.2)
        pair = ((1, 1), (1, 1))
        ((_, ratios),) = draw_statistics(split, (pair,), 5, [range(30)])
        lattice = unit_lattice(split.g.spec)
        base = decay_seminorm(split.g, *pair)
        for ratio, coeffs in zip(ratios, gaussian_matrix(5, 30, len(lattice))):
            g_omega = randomize_field(split.g, RandomDraw(lattice, coeffs))
            assert ratio == pytest.approx(decay_seminorm(g_omega, *pair) / base, rel=1e-9)

    def test_ensembles_keep_their_places_under_fast_thread_switching(self):
        split = schwartz_split(split_gaussian(), 0.2)
        pairs = DRAW_CASES["1d"][3]["default"]
        ensembles = [range(50 * i, 50 * (i + 1)) for i in range(4)]  # three on the helper
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = draw_statistics(split, pairs, 3, ensembles)
        finally:
            sys.setswitchinterval(interval)
        for (hnorms, ratios), ensemble in zip(got, ensembles):
            ((alone_h, alone_r),) = draw_statistics(split, pairs, 3, [ensemble])
            assert np.array_equal(hnorms, alone_h) and np.array_equal(ratios, alone_r)

    @pytest.mark.parametrize("failing", [0, 256], ids=["calling-thread", "helper-thread"])
    def test_failure_in_one_ensemble_is_raised_after_both_end(self, failing, monkeypatch):
        split = schwartz_split(_gaussian_on(GridSpec(2, 64, 32.0), 2.0), 0.2)
        pairs = DRAW_CASES["2d"][3]["default"]
        stream = tailprob._RowStream
        reads = []

        def failing_stream(seed, start):
            rows = stream(seed, start)
            read = rows.read

            def counted(out):
                reads.append((start, len(out)))
                if start == failing:
                    raise RuntimeError(f"stream {start} failed")
                return read(out)

            rows.read = counted
            return rows

        monkeypatch.setattr(tailprob, "_RowStream", failing_stream)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match=f"stream {failing} failed"):
            draw_statistics(split, pairs, 7, tailprob._block_halves(500))
        assert threading.active_count() == threads
        # The other ensemble stops at its next block, well before its last:
        # it reads at most 192 of its 256 or 244 draws.
        assert [s for s, _ in reads].count(failing) == 1
        assert sum(n for s, n in reads if s != failing) <= 192

    def test_helper_thread_calls_no_public_function(self, monkeypatch):
        # The benchmark's layer trace wraps every public function of the
        # modules other than cli, at every binding site, and takes spans of
        # different threads never to overlap: so only the calling thread
        # may call one.
        public = {}
        for name, mod in list(sys.modules.items()):
            if name.startswith("dispersim.") and name != "dispersim.cli":
                for attr, obj in vars(mod).items():
                    if (not attr.startswith("_") and getattr(obj, "__module__", None) == name
                            and (inspect.isfunction(obj) or hasattr(obj, "cache_info"))):
                        public[id(obj)] = obj
        callers = []

        def recorded(fn):
            @functools.wraps(fn)
            def call(*args, **kwargs):
                callers.append(threading.get_ident())
                return fn(*args, **kwargs)
            return call

        wrapped = {key: recorded(fn) for key, fn in public.items()}
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "dispersim":
                for attr, obj in list(vars(mod).items()):
                    if public.get(id(obj)) is obj:
                        monkeypatch.setattr(mod, attr, wrapped[id(obj)])
        readers = []
        stream = tailprob._RowStream

        def counted_stream(*args):
            readers.append(threading.get_ident())
            return stream(*args)

        monkeypatch.setattr(tailprob, "_RowStream", counted_stream)
        f = _gaussian_on(GridSpec(2, 64, 32.0), 2.0)
        tailprob.density_rows(f, [0.2], DRAW_CASES["2d"][3]["default"], 200, 7)
        me = threading.get_ident()
        assert len(readers) == 2 and len(set(readers)) == 2 and me in readers
        assert callers and set(callers) == {me}


    @pytest.mark.parametrize("n_samples, cut", [(100, 0), (500, 256), (700, 256)])
    def test_block_halves_equal_one_serial_range(self, n_samples, cut):
        halves = tailprob._block_halves(n_samples)
        assert halves == [range(cut), range(cut, n_samples)]
        split = schwartz_split(split_gaussian(), 0.2)
        pairs = DRAW_CASES["1d"][3]["default"]
        parts = draw_statistics(split, pairs, 9, halves)
        ((hnorms, ratios),) = draw_statistics(split, pairs, 9, [range(n_samples)])
        assert np.array_equal(np.concatenate([h for h, _ in parts]), hnorms)
        assert np.array_equal(np.concatenate([r for _, r in parts]), ratios)


class TestDensityRows:
    def test_each_eps_alone_equals_eps_run_together(self):
        # On the density-2d grid eps = 0.2 and 0.1 select the same split,
        # so the joint run draws its ensembles once and shares them.
        f = _gaussian_on(GridSpec(2, 64, 32.0), 2.0)
        pairs = [((0, 0), (0, 0)), ((1, 1), (1, 1))]
        together = density_rows(f, [0.2, 0.1], pairs, 200, 7)
        alone = [density_rows(f, [eps], pairs, 200, 7)[0] for eps in (0.2, 0.1)]
        assert [row[:2] for row in together] == [row[:2] for row in alone]
        first, second = (split for _, _, split in together)
        assert (first.sigma, first.radius) == (second.sigma, second.radius)

    def test_one_transform_of_g_and_h_and_one_seminorm_per_pair(self, monkeypatch):
        # The draws and both laws read one setup of the split: g and h are
        # transformed once each, each pair's seminorm is taken once (one
        # more transform where beta != 0), and tr G = E||h^omega||^2 takes
        # the fourth.
        f = _gaussian_on(GridSpec(2, 64, 32.0), 2.0)
        pairs = DRAW_CASES["2d"][3]["default"]
        transforms, seminorms = [], []

        def counted_transform(field):
            transforms.append(field)
            return forward_transform(field)

        def counted_seminorm(g, a, b):
            seminorms.append((a, b))
            return decay_seminorm(g, a, b)

        for name, mod in list(sys.modules.items()):
            bound = vars(mod).get("forward_transform")
            if name.split(".")[0] == "dispersim" and bound is forward_transform:
                monkeypatch.setattr(mod, "forward_transform", counted_transform)
        monkeypatch.setattr(tailprob, "decay_seminorm", counted_seminorm)
        ((_, _, split),) = density_rows(f, [0.2], pairs, 100, 7)
        assert np.any(split.g.values)
        assert seminorms == list(pairs)
        assert len(transforms) <= 4


def remainder_gram(h):
    """G_kk' = dxi sum_xi psi(xi - k) psi(xi - k') |h^(xi)|^2, the matrix of
    ||h^omega||^2 = g^H G g, by one bincount per pair of corners."""
    spec = h.spec
    table = projection_blocks(spec)
    n = len(unit_lattice(spec))
    power = spec.frequency_cell_volume * np.abs(forward_transform(h).coeffs.reshape(-1)) ** 2
    gram = np.zeros(n * n)
    for i, wi in zip(table.index.T, table.weight.T):
        for j, wj in zip(table.index.T, table.weight.T):
            gram += np.bincount(i * n + j, wi * wj * power, minlength=n * n)
    return gram.reshape(n, n)


def within_eps(exceed, eps):
    """Whether a fraction of exceedances stays within eps plus the half
    width of its Wilson interval."""
    k, n = int(np.sum(exceed)), exceed.size
    lo, hi = wilson_interval(k, n)
    return k / n <= eps + (hi - lo) / 2


class TestProvenThresholds:
    # A small 2D grid whose split at eps = 0.2 keeps a nonzero g.
    SPEC = GridSpec(2, 32, 16.0)
    PAIRS = (((0, 0), (0, 0)), ((1, 0), (0, 1)), ((1, 1), (1, 1)))

    def test_lambda_tail_holds_under_the_law_of_the_h_norm(self):
        split = schwartz_split(_gaussian_on(GridSpec(2, 64, 32.0), 2.0), 0.2)
        gram = remainder_gram(split.h)
        mu = np.linalg.eigvalsh(gram)
        trace, top = tailprob._remainder_law(tailprob._split_setup(split, ()))
        assert trace == pytest.approx(np.trace(gram), rel=1e-12)
        assert top >= mu[-1]
        # ||h^omega||^2 = sum_i mu_i Exp(1), in G's eigenbasis; eigenvalues
        # at round-off level are left out.
        mu = mu[mu > 1e-14 * mu[-1]]
        rng = np.random.default_rng(11)
        squares = np.concatenate(
            [rng.standard_exponential((10_000, mu.size)) @ mu for _ in range(10)]
        )
        for eps in (0.2, 0.1):
            lam, x = tailprob._lambda_threshold(trace, top, eps)
            assert math.exp(-x) <= eps
            assert within_eps(squares > lam**2, eps)
            # The mean alone is no threshold.
            assert not within_eps(squares > trace, eps)

    def test_sigma_is_the_per_piece_square_sum(self):
        spec = self.SPEC
        split = schwartz_split(_gaussian_on(spec, 2.0), 0.2)
        assert np.any(split.g.values)
        sigmas = setup_sigmas(split, self.PAIRS)
        table = projection_blocks(spec)
        Fg = forward_transform(split.g).coeffs
        inv_scale = (2.0 * np.pi) ** (spec.dim / 2.0) / spec.cell_volume
        for (a, b), sigma in sigmas.items():
            spectrum = monomial_weight(spec.frequency_grids(), b, imaginary=True) * Fg
            alpha = np.fft.ifftshift(monomial_weight(spec.coordinate_grids(), a))
            total = np.zeros(spec.shape)
            for k in range(len(unit_lattice(spec))):
                psi = np.sum(np.where(table.index == k, table.weight, 0.0), axis=1)
                piece = inv_scale * np.fft.ifftn(psi.reshape(spec.shape) * spectrum)
                total += np.abs(alpha * piece) ** 2
            assert sigma**2 == pytest.approx(total, rel=1e-12, abs=0)

    def test_rates_read_each_pair_in_order(self):
        # Betas interleave and a pair repeats: one rate block per distinct
        # pair, in the pairs' order, each (seminorm_g / sigma_x)^2 where
        # sigma_x > 0.
        split = schwartz_split(_gaussian_on(self.SPEC, 2.0), 0.2)
        pairs = (((0, 0), (0, 0)), ((1, 1), (1, 0)), ((2, 0), (0, 0)), ((0, 1), (1, 0)),
                 ((1, 0), (0, 1)), ((1, 1), (1, 0)))
        blocks = {
            pair: (decay_seminorm(split.g, *pair) / s[s > 0]) ** 2
            for pair, s in setup_sigmas(split, pairs).items()
        }
        got = tailprob._decay_rates(tailprob._split_setup(split, pairs))
        assert np.array_equal(got, np.concatenate(list(blocks.values())))
        # The pairs taken beta by beta give other rates.
        by_beta = sorted(blocks, key=lambda pair: [b for _, b in blocks].index(pair[1]))
        assert not np.array_equal(got, np.concatenate([blocks[p] for p in by_beta]))

    def test_union_bound_holds_and_a_halved_sigma_does_not(self):
        split = schwartz_split(_gaussian_on(self.SPEC, 2.0), 0.2)
        eps = 0.2
        sigmas = setup_sigmas(split, self.PAIRS)

        def rates(scale):
            return np.concatenate([
                (decay_seminorm(split.g, *pair) / (scale * s[s > 0])) ** 2
                for pair, s in sigmas.items()
            ])

        def union(m):  # sum_pairs sum_x exp(-(M seminorm_g / sigma_x)^2)
            return np.sum(np.exp(-((m * m) * rates(1.0))))

        m_threshold, at_m = tailprob._m_threshold(rates(1.0), eps)
        assert at_m == union(m_threshold) <= eps < union(0.98 * m_threshold)
        m_halved, _ = tailprob._m_threshold(rates(0.5), eps)
        ((_, ratios),) = draw_statistics(split, self.PAIRS, 5, [range(2000)])
        assert within_eps(ratios > m_threshold, eps)
        assert not within_eps(ratios > m_halved, eps)
