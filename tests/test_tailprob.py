import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from dispersim.cli import parse_data
from dispersim.decompose import decay_seminorm, schwartz_split
from dispersim.errors import ConfigurationError, FitError
from dispersim.grid import Field, GridSpec, forward_transform, l2_norm, monomial_weight
from dispersim.propagators import FlowKind, symbol
from dispersim.randomize import draw, gaussian_matrix, randomized_weights
from dispersim.wiener import bump_value, projection_blocks, unit_lattice
from dispersim import tailprob
from dispersim.tailprob import (
    BoundParams,
    TailEstimate,
    TailExperimentConfig,
    binomial_z,
    calibrate_density_constants,
    convergence_curve,
    density_event_probability,
    density_rows,
    deviation_coefficients,
    deviation_samples,
    dominate_constants,
    estimate_tail,
    fit_constants,
    moment_growth_check,
    observable_factor,
    point_coefficients,
    pointwise_deviation,
    series_norm,
    theoretical_bound,
    threshold_schedule,
    tail_rows,
    wilson_interval,
    write_table,
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

    def test_time_limit_diagnostic_not_error(self):
        f, _ = single_mode()
        cfg = TailExperimentConfig(KDV, f, (1000.0,), (0.5,), (ORIGIN,), 100, 1)
        assert cfg.time_limit_warnings()


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
    """_windowed_series summing every neighbour-table entry, zero weights
    included, with separate real and imaginary bincounts per corner."""
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
    scale = spec.frequency_cell_volume * (2.0 * np.pi) ** (-spec.dim / 2.0)
    return scale * out.reshape(weighted.shape[: weighted.ndim - spec.dim] + (n,))


def stacked_deviation_rows(flow, f, times, points):
    """Every cell's series, one windowed sum per time over the stacked
    phases of all points."""
    spec = f.spec
    F = forward_transform(f).coeffs
    phases = np.stack(
        [tailprob._mesh_from_axes(tailprob._point_phase(spec, x)) for x in points]
    )
    return np.concatenate(
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
    got = tailprob._windowed_series(spec, weighted)
    assert got.shape == lead + (len(unit_lattice(spec)),)
    assert np.array_equal(got, full_table_series(spec, weighted))


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
    PARAMS = BoundParams(C=2.0, C1=5.0, regime="flow-deviation")

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
        fit = fit_constants(ests, "flow-deviation")
        assert abs(fit.params.C - 2.0) < 0.02
        assert abs(fit.params.C1 - 5.0) < 0.05
        assert fit.r_squared > 0.999

    def test_all_zero_probabilities_unfittable(self):
        ests = [
            TailEstimate("kdv", 0.1, a, (64,), 0, 1000, 0.0, 0.0, 0.004)
            for a in np.linspace(0.1, 1.0, 8)
        ]
        with pytest.raises(FitError):
            fit_constants(ests, "flow-deviation")

    def test_too_few_cells_unfittable(self):
        ests = synthetic_estimates(2.0, 5.0, (0.1,), (0.35, 0.2))
        with pytest.raises(FitError):
            fit_constants(ests, "flow-deviation")

    def test_data_size_regime_requires_scale(self):
        ests = synthetic_estimates(2.0, 5.0, (1.0,), (0.4, 0.3, 0.2, 0.1, 0.05, 0.02))
        with pytest.raises(ValueError):
            fit_constants(ests, "data-size")
        fit = fit_constants(ests, "data-size", scale=1.0)
        assert abs(fit.params.C - 2.0) < 0.02

    def test_single_mode_ensemble_fit(self):
        # The single-mode tail is exactly Gaussian in alpha^2, so the fit
        # comes back nearly perfect.
        f, xi0 = single_mode()
        t = 0.5
        scale = mode_deviation_scale(xi0, t)
        alphas = tuple(scale * math.sqrt(-math.log(p)) for p in (0.45, 0.3, 0.2, 0.12, 0.06, 0.02))
        cfg = TailExperimentConfig(KDV, f, (t,), alphas, (ORIGIN,), 10_000, 97)
        fit = fit_constants(estimate_tail(cfg), "flow-deviation")
        assert fit.r_squared > 0.9

    def test_domination_after_inflation(self):
        f = gaussian()
        norm_a = series_norm(deviation_coefficients(KDV, f, 0.1, ORIGIN))
        alphas = tuple(norm_a * math.sqrt(-math.log(p)) for p in (0.4, 0.25, 0.12, 0.05, 0.02, 0.008))
        cfg = TailExperimentConfig(KDV, f, (0.1,), alphas, (ORIGIN,), 10_000, 98)
        cells = estimate_tail(cfg)
        fit = fit_constants(cells, "flow-deviation")
        dom = dominate_constants(cells, fit.params)
        assert all(
            theoretical_bound(dom, est.alpha, abs(est.t)) >= est.ci_high for est in cells
        )


class TestConvergenceCurve:
    PARAMS = BoundParams(C=0.05, C1=2.0, regime="flow-deviation")

    def test_zero_field_never_exceeds(self):
        f = Field(SPEC, np.zeros(SPEC.shape))
        rows = convergence_curve(KDV, f, (0.4, 0.2), self.PARAMS, 200, 3)
        assert [split.epsilon for _, split in rows] == [0.4, 0.2]
        assert all(est.probability == 0.0 for est, _ in rows)

    def test_threshold_shrinks_faster_than_sqrt_eps(self):
        schedule = (0.4, 0.2, 0.1)
        ratios = [threshold_schedule(self.PARAMS, e) / math.sqrt(e) for e in schedule]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))

    def test_gaussian_curve_stays_under_eps(self):
        f = split_gaussian()
        rows = convergence_curve(KDV, f, (0.4, 0.2, 0.1), self.PARAMS, 500, 7)
        for est, split in rows:
            halfwidth = (est.ci_high - est.ci_low) / 2
            assert est.probability <= split.epsilon + halfwidth
        probs = [est.probability for est, _ in rows]
        assert all(a >= b - 0.05 for a, b in zip(probs, probs[1:]))

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
        rows = convergence_curve(flow, f, schedule, self.PARAMS, 3000, 11, x)
        for eps, (est, split) in zip(schedule, rows):
            assert (split.epsilon, est.t, est.x_index) == (eps, eps / 2, x)
            assert est.alpha == threshold_schedule(self.PARAMS, eps)
            devs = deviation_samples(flow, f, eps / 2, x, 3000, 11)
            assert est.exceed_count == int(np.sum(devs > est.alpha))
            assert est.ensemble_size == 3000


class TestMomentGrowth:
    def test_zero_field(self):
        f = Field(SPEC, np.zeros(SPEC.shape))
        rows = moment_growth_check(f, (1,), (1,), [2, 4], 2000, 1)
        assert all(v == 0.0 for _, v in rows)

    def test_second_moment_matches_projection_sum(self):
        # Oracle: E|v|^2 = sum_k |x^alpha d^beta piece_k(x*)|^2, assembled
        # here from explicit per-piece projections.
        from dispersim.decompose import spectral_derivative
        from dispersim.wiener import project

        g = gaussian()
        rows = moment_growth_check(g, (1,), (1,), [2], 10_000, 44)
        p2 = rows[0][1]

        field = spectral_derivative(g, (1,))
        weighted = np.abs(X * field.values)
        x_star = int(np.argmax(weighted))
        total = 0.0
        for k in unit_lattice(SPEC).points:
            piece = spectral_derivative(project(g, k), (1,))
            total += abs(X[x_star] * piece.values[x_star]) ** 2
        assert abs(p2 - math.sqrt(total)) < 0.05 * math.sqrt(total)

    def test_sqrt_p_growth(self):
        g = gaussian()
        rows = moment_growth_check(g, (1,), (1,), [2, 4, 8, 16], 10_000, 45)
        ratios = [v / math.sqrt(p) for p, v in rows]
        assert all(r <= 3 * ratios[0] for r in ratios)


class TestDensityEvent:
    PAIRS = [((0,), (0,)), ((1,), (0,)), ((0,), (1,)), ((1,), (1,))]

    def test_calibrated_event_beats_target(self):
        f = split_gaussian()
        params = calibrate_density_constants(f, 0.2, self.PAIRS, 1500, 8)
        res = density_event_probability(f, 0.2, self.PAIRS, 1500, 9, params)
        halfwidth = (res.ci_high - res.ci_low) / 2
        assert res.probability >= res.target - halfwidth

    def test_joint_event_below_each_marginal(self):
        from dispersim.decompose import schwartz_split
        from dispersim.tailprob import _split_draw_statistics

        f = split_gaussian()
        split = schwartz_split(f, 0.2)
        hnorms, ratios = _split_draw_statistics(split, tuple(self.PAIRS), 800, 21)
        lam, mthr = np.quantile(hnorms, 0.8), np.quantile(ratios, 0.8)
        joint = np.mean((hnorms <= lam) & (ratios <= mthr))
        assert joint <= np.mean(hnorms <= lam)
        assert joint <= np.mean(ratios <= mthr)

    def test_degenerate_split_reduces_to_norm_event(self):
        # eps above ||f|| forces g = 0, so only the h-norm part can fail.
        f = gaussian(width=1.0)
        eps = 1.05 * l2_norm(f)
        params = BoundParams(C=1.0, C1=2.0, regime="data-size")
        res = density_event_probability(f, eps, self.PAIRS, 300, 10, params)

        from dispersim.decompose import schwartz_split
        from dispersim.tailprob import _split_draw_statistics

        split = schwartz_split(f, eps)
        hnorms, ratios = _split_draw_statistics(split, tuple(self.PAIRS), 300, 10)
        assert np.all(ratios == 0.0)
        assert res.probability == np.mean(hnorms <= res.lam)


class TestResultsCsv:
    def test_layout_and_rerun_bytes(self, tmp_path):
        ests = synthetic_estimates(2.0, 5.0, (0.1,), (0.3, 0.1))
        bounds = [theoretical_bound(BoundParams(2.0, 5.0, "flow-deviation"), e.alpha, 0.1) for e in ests]
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_table(p1, tailprob.CSV_COLUMNS, tail_rows(ests, bounds), "deadbeef")
        write_table(p2, tailprob.CSV_COLUMNS, tail_rows(ests, bounds), "deadbeef")
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0] == "# config=deadbeef"
        assert lines[1].split(",") == list(tailprob.CSV_COLUMNS)
        assert len(lines) == 2 + len(ests)


def test_point_coefficients_second_moment_identity():
    # ||b||^2 equals the exact mean square of the randomized point value.
    g = gaussian()
    b = point_coefficients(g, ORIGIN)
    devs = np.abs(
        np.array(
            [
                np.dot(draw(71, unit_lattice(SPEC), m).coefficients, b)
                for m in range(4000)
            ]
        )
    )
    assert abs(np.mean(devs**2) - series_norm(b) ** 2) < 0.1 * series_norm(b) ** 2


def shifted_draw_statistics(split, pairs, n_samples, seed):
    """The density draw loop as it was before it kept draws in FFT order:
    every mesh array in natural order, an ifftshift and an fftshift per
    draw and beta.  The reference the FFT-order loop matches bit for bit."""
    spec = split.g.spec
    lattice = unit_lattice(spec)
    Fg = forward_transform(split.g).coeffs
    Fh = forward_transform(split.h).coeffs
    betas = sorted({b for _, b in pairs})
    freqs = spec.frequency_grids()
    beta_weights = {b: monomial_weight(freqs, b, imaginary=True) * Fg for b in betas}
    coords = spec.coordinate_grids()
    alpha_weights = {a: monomial_weight(coords, a) for a, _ in pairs}
    base = {pair: decay_seminorm(split.g, pair[0], pair[1]) for pair in pairs}
    degenerate = not np.any(split.g.values != 0)
    inv_scale = (2.0 * np.pi) ** (spec.dim / 2.0) / spec.cell_volume
    axes = tuple(range(spec.dim))
    hnorms = np.empty(n_samples)
    ratios = np.zeros(n_samples)
    draws = gaussian_matrix(seed, n_samples, len(lattice))
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
        monkeypatch.setattr(tailprob, "_DRAW_CHUNK", 16)  # chunk edges mid-ensemble
        got = tailprob._split_draw_statistics(split, pairs, 40, 77)
        expected = shifted_draw_statistics(split, pairs, 40, 77)
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])


class TestDensityRows:
    def test_rows_equal_calibration_then_event_per_eps(self):
        # On the density-2d grid eps = 0.2 and 0.1 select the same split.
        f = _gaussian_on(GridSpec(2, 64, 32.0), 2.0)
        pairs = [((0, 0), (0, 0)), ((1, 1), (1, 1))]
        expected = []
        for eps in (0.2, 0.1):
            params = calibrate_density_constants(f, eps, pairs, 300, 8)
            expected.append((params, density_event_probability(f, eps, pairs, 200, 7, params)))
        assert density_rows(f, [0.2, 0.1], pairs, 200, 7, 300, 8) == expected
