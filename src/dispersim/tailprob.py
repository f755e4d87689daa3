"""Monte Carlo tail-probability experiments for randomized free flows.

The pointwise deviation Y_c = S(t)f^omega(x) - f^omega(x) of a randomized
field at a cell c = (t, x) is a linear series sum_k g_k a_k(t, x) in the
circular complex Gaussian coefficients, so the vector Y over all cells is
exactly circular CN(0, Sigma) with Sigma = A^T conj(A) the small cells x
cells Gram matrix of the series coefficients.  Tail and convergence
ensembles therefore draw one complex normal per cell per sample and map
it through a factor of Sigma (:func:`observable_factor`) instead of one
normal per lattice point.  Every ensemble runs one serial loop over
chunks of draws (:func:`_draw_chunks`); exceedance counting is integer
based and sample streams are counter keyed, so results are reproducible
bit for bit whatever the chunk size.  The nonlinear density event keeps
the per-lattice-point draws.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .decompose import (
    SchwartzSplit,
    decay_seminorm,
    multi_index,
    schwartz_split,
    spectral_derivative,
    whole_number,
)
from .errors import ConfigurationError, FitError
from .grid import (
    Field,
    GridSpec,
    Spectrum,
    forward_transform,
    inverse_transform,
    monomial_weight,
)
from .propagators import FlowKind, symbol
from .randomize import (
    _gather_weights,
    gaussian_matrix,
    khintchine_moments,
    randomized_weights,
    RandomDraw,
)
from .wiener import projection_blocks, unit_lattice

_TWO_PI = 2.0 * np.pi
_E = math.e
_CHUNK = 2048
_DRAW_CHUNK = 256  # draws per gaussian_matrix call in the density statistics
_WILSON_Z = 1.959963984540054  # standard normal 97.5% quantile


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion (Wilson 1927),
    in the closed form of Newcombe (1998); the bounds at k = 0 and k = n
    are exactly 0 and 1."""
    k, n = int(successes), int(trials)
    if n < 1 or not 0 <= k <= n:
        raise ValueError(f"need 0 <= successes <= trials and trials >= 1, got {k}/{n}")
    p = k / n
    z = _WILSON_Z
    denom = 2 * (n + z**2)
    center = (2 * n * p + z**2) / denom
    delta = z / denom * math.sqrt(4 * n * p * (1 - p) + z**2)
    lo = 0.0 if k == 0 else center - delta
    hi = 1.0 if k == n else center + delta
    return lo, hi


# ---------------------------------------------------------------------------
# Experiment configuration and results
# ---------------------------------------------------------------------------


def grid_points(spec: GridSpec, points) -> tuple:
    """Observation points as tuples of grid indices, each inside the grid and
    a :func:`~dispersim.decompose.whole_number`."""
    n = spec.samples_per_axis
    pts = []
    for p in points:
        pts.append(tuple(whole_number(i) for i in p))
        if None in pts[-1]:
            raise ConfigurationError(f"observation point {p!r} must hold integer grid indices")
        if len(pts[-1]) != spec.dim or any(not 0 <= i < n for i in pts[-1]):
            raise ConfigurationError(f"observation point {pts[-1]} outside the grid")
    return tuple(pts)


@dataclass(frozen=True, eq=False)
class TailExperimentConfig:
    flow: FlowKind
    data: Field
    times: tuple
    thresholds: tuple
    observation_points: tuple
    ensemble_size: int
    seed: int

    def __post_init__(self):
        spec = self.data.spec
        self.flow.validate_for(spec)
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        object.__setattr__(
            self, "thresholds", tuple(float(a) for a in self.thresholds)
        )
        pts = grid_points(spec, self.observation_points)
        object.__setattr__(self, "observation_points", pts)
        if self.ensemble_size < 100:
            raise ConfigurationError("ensemble_size must be at least 100")
        if not self.times or not self.thresholds or not pts:
            raise ConfigurationError("times, thresholds and observation points "
                                     "must be nonempty")

    def time_limit_warnings(self) -> list[str]:
        """Diagnostic only: times past the grid's dispersive resolution."""
        limit = dispersive_time_limit(self.data.spec, self.flow)
        return [
            f"|t| = {abs(t)} exceeds the dispersive resolution limit {limit:.4g}"
            for t in self.times
            if abs(t) > limit
        ]


@dataclass(frozen=True)
class TailEstimate:
    flow_label: str
    t: float
    alpha: float
    x_index: tuple
    exceed_count: int
    ensemble_size: int
    probability: float
    ci_low: float
    ci_high: float
    series_norm: float | None = None  # ||a|| of the cell's series, when it has one


@dataclass(frozen=True)
class BoundParams:
    """Constants of the Gaussian tail bound C1 * exp(-(alpha/(C e scale))^2)."""

    C: float
    C1: float
    regime: str  # 'flow-deviation' (scale = |t|) or 'data-size' (scale = ||h||)

    def __post_init__(self):
        if self.C <= 0 or self.C1 <= 0:
            raise ValueError("bound constants must be positive")
        if self.regime not in ("flow-deviation", "data-size"):
            raise ValueError(f"unknown regime {self.regime!r}")


@dataclass(frozen=True)
class FitResult:
    params: BoundParams
    r_squared: float
    n_points: int


def dispersive_time_limit(spec: GridSpec, flow: FlowKind) -> float:
    """Heuristic largest |t| before the symbol phase wraps across one
    frequency cell: pi / (dxi * max |grad phase|)."""
    xi_max = float(np.max(np.abs(spec.axis_frequencies())))
    if flow.family == "kdv":
        grad = 3.0 * xi_max**2
    elif flow.family.startswith("wave"):
        grad = 1.0
    else:
        grad = 2.0 * math.sqrt(spec.dim) * xi_max
    return math.pi / (spec.dxi * grad)


# ---------------------------------------------------------------------------
# Series coefficients of pointwise observables
# ---------------------------------------------------------------------------


def _point_phase(spec: GridSpec, x_index) -> list[np.ndarray]:
    """Per-axis arrays exp(i x_j xi_j) for the grid point at x_index."""
    coords = spec.axis_coordinates()
    freqs = spec.axis_frequencies()
    return [np.exp(1j * coords[i] * freqs) for i in x_index]


def _windowed_series(spec: GridSpec, weighted: np.ndarray) -> np.ndarray:
    """Per-lattice-point sums a_k = scale * sum_xi psi(xi - k) weighted(xi)
    of a mesh array, or of each in a stack of them (leading axes), from
    the neighbour table: per corner, one bincount over the nonzero-weight
    entries' interleaved real and imaginary parts, binned by
    2 (index + row * n) + part.  Each bin adds the same nonzero terms in
    the same order as a sum over every entry, so the result is the same
    bit for bit."""
    table = projection_blocks(spec)
    n = len(unit_lattice(spec))
    stack = weighted.reshape(-1, spec.size)
    offsets = 2 * n * np.arange(len(stack))[:, None]
    out = np.zeros(2 * len(stack) * n)
    for index, weight in zip(table.index.T, table.weight.T):
        used = np.nonzero(weight != 0)[0]
        terms = stack.take(used, axis=1)
        terms *= weight[used]
        bins = 2 * index[used] + offsets
        parts = np.stack((bins, bins + 1), axis=-1).reshape(-1)
        out += np.bincount(parts, terms.view(np.float64).reshape(-1), out.size)
    scale = spec.frequency_cell_volume * _TWO_PI ** (-spec.dim / 2.0)
    return scale * out.view(np.complex128).reshape(
        weighted.shape[: weighted.ndim - spec.dim] + (n,)
    )


def _mesh_from_axes(axes_arrays) -> np.ndarray:
    out = axes_arrays[0]
    for arr in axes_arrays[1:]:
        out = out[..., None] * arr
    return out


def _deviation_stack(flow: FlowKind, f: Field, times, points) -> np.ndarray:
    """Series coefficients of every cell (t, x), t major, as an
    (n_cells, n_lattice) stack: one transform of f, one symbol per time,
    then one cell at a time its point's phase and one windowed sum of
    that cell's mesh array, so no more than one cell's mesh array is
    held at once."""
    spec = f.spec
    F = forward_transform(f).coeffs
    rows = []
    for t in times:
        shifted = symbol(flow, spec, t) - 1.0
        for x in points:
            weighted = _mesh_from_axes(_point_phase(spec, x)) * shifted * F
            rows.append(_windowed_series(spec, weighted))
    return np.stack(rows)


def deviation_coefficients(
    flow: FlowKind, f: Field, t: float, x_index
) -> np.ndarray:
    """Series coefficients a_k(t, x) of S(t)f^omega(x) - f^omega(x):
    the deviation of a draw with coefficients g is |sum_k g_k a_k|."""
    return _deviation_stack(flow, f, (t,), (x_index,))[0]


def observable_factor(A: np.ndarray) -> np.ndarray:
    """B with B^T conj(B) = A^T conj(A) for an (n_lattice, n_cells) stack A
    of series coefficients.

    With z a row of n_cells standard complex Gaussians, z @ B has the law
    of g @ A (circular, covariance A^T conj(A)), so a sample of every
    cell's observable needs n_cells normals, not n_lattice.  The factor
    comes from the eigendecomposition of the Gram matrix, with round-off
    negative eigenvalues clipped to 0, so a rank-deficient Gram matrix (a
    t = 0 cell, a repeated point) needs no special case."""
    lam, vecs = np.linalg.eigh(A.T @ A.conj())
    return (vecs * np.sqrt(np.maximum(lam, 0.0))).T


def point_coefficients(f: Field, x_index, beta_idx=None) -> np.ndarray:
    """Series coefficients b_k of (d^beta f^omega)(x) = sum_k g_k b_k."""
    spec = f.spec
    F = forward_transform(f).coeffs
    weighted = _mesh_from_axes(_point_phase(spec, x_index)) * F
    if beta_idx is not None:
        weighted = monomial_weight(
            spec.frequency_grids(), multi_index(beta_idx), base=weighted, imaginary=True
        )
    return _windowed_series(spec, weighted)


def pointwise_deviation(
    flow: FlowKind, f: Field, d: RandomDraw, t: float, x_index
) -> float:
    """|S(t)f^omega(x) - f^omega(x)| for one draw, computed on the mesh
    rather than through the series: the multiplier symbol - 1 applied to
    the randomized spectrum sum_k g_k psi(xi - k) F(xi), then one inverse
    transform.  At t = 0 the multiplier is exactly 0, and so is the
    deviation."""
    spec = f.spec
    if d.lattice.spec != spec:
        raise ConfigurationError("draw lattice does not match the field's grid")
    weights = randomized_weights(spec, d.coefficients)
    shifted = (symbol(flow, spec, t) - 1.0) * (weights * forward_transform(f).coeffs)
    deviation = inverse_transform(Spectrum(spec, shifted))
    return float(np.abs(deviation.values[tuple(int(i) for i in x_index)]))


def _draw_chunks(seed: int, n_samples: int, width: int, chunk: int):
    """Samples 0 .. n_samples - 1 of the (seed, m) streams, ``width``
    complex normals each, as successive :func:`gaussian_matrix` blocks of
    at most ``chunk`` rows."""
    for start in range(0, n_samples, chunk):
        yield gaussian_matrix(seed, min(chunk, n_samples - start), width, start)


def deviation_samples(
    flow: FlowKind, f: Field, t: float, x_index, n_samples: int, seed: int
) -> np.ndarray:
    """Ensemble of pointwise deviations |sum_k g_k a_k| for n_samples draws,
    each drawn as one complex normal through :func:`observable_factor`."""
    factor = observable_factor(deviation_coefficients(flow, f, t, x_index)[:, None])
    chunks = _draw_chunks(seed, n_samples, 1, _CHUNK)
    return np.concatenate([np.empty(0), *(np.abs(z @ factor)[:, 0] for z in chunks)])


def _count_cells(label: str, cells, stack, thresholds, m_total: int, seed: int):
    """Tail estimates of every (t, alpha, x), cells (t, x) major: the one
    exceedance count behind ``tails``, its calibration and every
    convergence row.  ``stack`` holds the cells' series coefficients, one
    row per cell.  Sample m draws one complex normal per cell, keyed by
    (seed, m), and maps them through :func:`observable_factor`, so every
    cell's deviation has its exact joint law; each (cell, alpha) gets the
    integer count of |z @ factor| > alpha over the draws, its Wilson
    interval and the cell's series norm."""
    factor = observable_factor(stack.T)
    alphas = np.asarray(thresholds)
    counts = sum(
        np.sum(np.abs(z @ factor)[:, :, None] > alphas, axis=0)
        for z in _draw_chunks(seed, m_total, len(cells), _CHUNK)
    )
    estimates = []
    for (t, x), a, row in zip(cells, stack, counts):
        norm = series_norm(a)
        for alpha, k in zip(thresholds, row.tolist()):
            lo, hi = wilson_interval(k, m_total)
            estimates.append(
                TailEstimate(label, t, alpha, x, k, m_total, k / m_total, lo, hi, norm)
            )
    return estimates


def estimate_tail(
    config: TailExperimentConfig, *, stack: np.ndarray | None = None, threads: int = 1
) -> list[TailEstimate]:
    """Exceedance frequencies with Wilson intervals for every
    (t, alpha, x) cell, all cells sharing one ensemble of draws
    (:func:`_count_cells`).  ``stack`` holds the cells' series
    coefficients, t major, when the caller already has them.
    Deterministic for a given seed: exceedances are integer counts, so
    chunking cannot change the result.

    ``threads`` is ignored: ensembles run serially, and no other part of
    dispersim reads a thread count.  The keyword stays only because the
    benchmark's ``layertrace.py --speedup`` probe passes it; it goes
    together with that probe and its ``tailprob.thread_speedup`` metric.
    """
    if stack is None:
        stack = _deviation_stack(
            config.flow, config.data, config.times, config.observation_points
        )
    cells = [(t, x) for t in config.times for x in config.observation_points]
    return _count_cells(
        config.flow.label(), cells, stack, config.thresholds, config.ensemble_size,
        config.seed,
    )


def binomial_z(k: int, m: int, p: float) -> float:
    """Signed z-score of k successes in m Binomial(m, p) trials from the
    exact two-sided tail: the standard normal quantile of half that tail's
    probability, with the sign of k - m p.  The tail is summed term by
    term from k outward, each term in log space, so the score stays valid
    when m p is small, where the normal approximation
    (k - m p) / sqrt(m p (1 - p)) overstates it.  0 when k = m p is the
    only possible count (p of 0 or 1), infinite when k is impossible."""
    # Imported here: statistics pulls in decimal and fractions, ~4 ms and
    # 0.5 MB that only the tails manifest needs.
    from statistics import NormalDist

    if p <= 0.0 or p >= 1.0:
        return 0.0 if k == m * p else math.copysign(math.inf, k - m * p)
    log_p, log_q, log_m = math.log(p), math.log1p(-p), math.lgamma(m + 1)
    step = 1 if k >= m * p else -1  # from k away from the mean, terms shrink
    tail, j = 0.0, k
    while 0 <= j <= m:
        log_choose = log_m - math.lgamma(j + 1) - math.lgamma(m - j + 1)
        term = math.exp(log_choose + j * log_p + (m - j) * log_q)
        tail += term
        if term <= 1e-17 * tail:
            break
        j += step
    half = min(1.0, 2.0 * tail) / 2.0
    z = math.inf if half <= 0.0 else -NormalDist().inv_cdf(half)
    return math.copysign(z, k - m * p) if z else 0.0


def exact_law(estimates) -> dict:
    """Each tail estimate against its exact law: a deviation with series
    norm ||a|| is CN(0, ||a||^2), so P(|Y| > alpha) = exp(-alpha^2/||a||^2).
    One entry per estimate with that probability and the
    :func:`binomial_z` of the count, and the number of estimates whose
    Wilson interval misses it."""
    entries = []
    misses = 0
    for est in estimates:
        norm, m = est.series_norm, est.ensemble_size
        r = est.alpha / norm if norm > 0 else math.inf
        p = 1.0 if est.alpha < 0 else math.exp(-r * r)
        entries.append({
            "flow": est.flow_label,
            "t": est.t,
            "alpha": est.alpha,
            "x_index": format_x_index(est.x_index),
            "series_norm": norm,
            "exact_prob": p,
            "z": binomial_z(est.exceed_count, m, p),
        })
        misses += not est.ci_low <= p <= est.ci_high
    return {"rows": entries, "outside_wilson": misses}


# ---------------------------------------------------------------------------
# Theoretical bounds and constant fitting
# ---------------------------------------------------------------------------


def theoretical_bound(params: BoundParams, alpha: float, scale: float) -> float:
    """C1 * exp(-(alpha / (C e scale))^2), clamped to [0, 1] so it can be
    compared against probabilities."""
    if scale <= 0:
        return 1.0
    exponent = (alpha / (params.C * _E * scale)) ** 2
    return float(min(1.0, params.C1 * math.exp(-min(exponent, 700.0))))


def _estimate_scale(est: TailEstimate, regime: str, scale):
    if regime == "flow-deviation":
        return abs(est.t)
    if scale is None:
        raise ValueError("data-size regime requires an explicit scale")
    return float(scale)


def fit_constants(
    estimates, regime: str, scale: float | None = None
) -> FitResult:
    """Least-squares fit of -log(probability) against (alpha/scale)^2.

    The slope is 1/(C e)^2 and the intercept -log C1.  Only cells with
    probability strictly inside (0, 1) participate; fewer than 6 such
    cells, or all-0/all-1 probabilities, raise :class:`FitError`.
    """
    xs, ys = [], []
    for est in estimates:
        if 0.0 < est.probability < 1.0:
            s = _estimate_scale(est, regime, scale)
            if s <= 0:
                continue
            xs.append((est.alpha / s) ** 2)
            ys.append(-math.log(est.probability))
    if len(xs) < 6:
        raise FitError(
            f"need at least 6 estimates with probability in (0,1), got {len(xs)}"
        )
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    slope, intercept = np.polyfit(xs, ys, 1)
    if slope <= 0:
        raise FitError("fitted slope is not positive; tails are not Gaussian-shaped")
    resid = ys - (slope * xs + intercept)
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 0.0
    params = BoundParams(
        C=1.0 / (_E * math.sqrt(slope)), C1=math.exp(-intercept), regime=regime
    )
    return FitResult(params=params, r_squared=r2, n_points=len(xs))


def dominate_constants(
    estimates, params: BoundParams, scale: float | None = None
) -> BoundParams:
    """Minimal inflation of C1 so the bound sits above every cell's
    Wilson upper limit (the clamp at 1 makes saturated cells trivial)."""
    c1 = max(params.C1, 1.0)
    for est in estimates:
        s = _estimate_scale(est, params.regime, scale)
        if s <= 0 or est.ci_high <= 0:
            continue
        # Same exponent cap as theoretical_bound so domination is consistent.
        exponent = min((est.alpha / (params.C * _E * s)) ** 2, 700.0)
        c1 = max(c1, est.ci_high * math.exp(exponent))
    # Nudge above rounding of the exp round trip so the bound check is safe.
    return BoundParams(C=params.C, C1=c1 * (1.0 + 1e-9), regime=params.regime)


# ---------------------------------------------------------------------------
# Convergence-in-probability curves
# ---------------------------------------------------------------------------


def threshold_schedule(params: BoundParams, eps: float) -> float:
    """alpha(eps) = C e eps sqrt(ln(3 C1 / eps))."""
    return params.C * _E * eps * math.sqrt(math.log(3.0 * params.C1 / eps))


def convergence_curve(
    flow: FlowKind,
    f: Field,
    eps_schedule,
    params: BoundParams,
    ensemble_size: int,
    seed: int,
    observation_point=None,
    stack=None,
) -> list[tuple[TailEstimate, SchwartzSplit]]:
    """(estimate, split) for each eps: the split f = g + h at eps, and the
    tails cell (t, alpha, x) with t = eps/2 and alpha = C e eps
    sqrt(ln(3 C1/eps)) from previously fitted constants, counted alone by
    :func:`_count_cells` over ``ensemble_size`` draws of ``seed``.
    ``stack`` holds the series coefficients of the cells (eps/2, x), one
    row per eps, when the caller already has them."""
    x = tuple(observation_point) if observation_point else f.spec.origin_index()
    times = [eps / 2.0 for eps in eps_schedule]
    if stack is None:
        stack = _deviation_stack(flow, f, times, (x,))
    rows = []
    for eps, t, a in zip(eps_schedule, times, stack):
        split = schwartz_split(f, eps)
        alpha = threshold_schedule(params, eps)
        (est,) = _count_cells(
            flow.label(), [(t, x)], a[None, :], (alpha,), ensemble_size, seed
        )
        rows.append((est, split))
    return rows


# ---------------------------------------------------------------------------
# Joint smallness/decay event of the randomized split
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DensityResult:
    epsilon: float
    lam: float
    m_threshold: float
    hit_count: int
    ensemble_size: int
    probability: float
    ci_low: float
    ci_high: float
    target: float
    h_norm: float
    split_sigma: float
    split_radius: float


def _split_draw_statistics(split: SchwartzSplit, pairs, n_samples, seed):
    """Per-draw (||h^omega||_L2, max pair ratio) for the randomized split.

    The pair ratio is decay_seminorm(g^omega)/decay_seminorm(g) maximized
    over the requested (alpha, beta) pairs.

    Every mesh array is kept in FFT order: the neighbour-table rows, the
    beta weights, Fh and the alpha weights are permuted once per call, so
    each draw's weight is gathered in the order ``np.fft.ifftn`` takes and
    its result is used unshifted (the maximum does not depend on order).
    Each entry gets the same arithmetic as in natural order, so the ratios
    are bitwise those of shifting every draw.  The h-norm terms are summed
    back in natural order, because a sum in another order rounds
    differently.
    """
    spec = split.g.spec
    n_lattice = len(unit_lattice(spec))
    # Entry j of a flat FFT-ordered mesh array is entry order[j] of the
    # natural one; samples_per_axis is a power of two, so fftshift and
    # ifftshift are both this permutation, and it is its own inverse.
    order = np.fft.ifftshift(np.arange(spec.size).reshape(spec.shape)).reshape(-1)
    table = projection_blocks(spec)
    index, weight = table.index[order], table.weight[order]
    base = {pair: decay_seminorm(split.g, pair[0], pair[1]) for pair in pairs}
    # One gaussian_matrix call per chunk: the same stream as per-draw
    # coefficient_block calls, without building a generator per draw.
    chunks = _draw_chunks(seed, n_samples, n_lattice, _DRAW_CHUNK)
    draws = (coeffs for block in chunks for coeffs in block)
    # Degenerate split (g = 0): every randomized piece vanishes too, so
    # the decay event holds trivially and only the h-norm event remains.
    degenerate = not np.any(split.g.values != 0)
    for pair, val in base.items():
        if val <= 0 and not degenerate:
            raise ConfigurationError(
                f"decay seminorm of the smooth part vanishes for indices {pair}"
            )
    Fg = forward_transform(split.g).coeffs
    Fh = np.fft.ifftshift(forward_transform(split.h).coeffs)
    freqs = spec.frequency_grids()
    coords = spec.coordinate_grids()
    # Per beta: (i xi)^beta Fg, and (x^alpha, seminorm of g) of each of its pairs.
    by_beta = {}
    for (a, b), val in base.items():
        if b not in by_beta:
            beta_weight = monomial_weight(freqs, b, imaginary=True) * Fg
            by_beta[b] = (np.fft.ifftshift(beta_weight), [])
        by_beta[b][1].append((np.fft.ifftshift(monomial_weight(coords, a)), val))
    inv_scale = _TWO_PI ** (spec.dim / 2.0) / spec.cell_volume
    hnorms = np.empty(n_samples)
    ratios = np.zeros(n_samples)
    dxi_vol = spec.frequency_cell_volume
    for m, coeffs in enumerate(draws):
        W = _gather_weights(index, weight, coeffs).reshape(spec.shape)
        terms = (np.abs(W * Fh) ** 2).reshape(-1)[order]
        hnorms[m] = math.sqrt(dxi_vol * float(np.sum(terms)))
        if degenerate:
            continue
        worst = 0.0
        for beta_weight, alphas in by_beta.values():
            mag = np.abs(inv_scale * np.fft.ifftn(W * beta_weight))
            for alpha_weight, val in alphas:
                worst = max(worst, float(np.max(alpha_weight * mag)) / val)
        ratios[m] = worst
    return hnorms, ratios


def _density_constants(split: SchwartzSplit, hnorms, ratios) -> BoundParams:
    """Constants dominating the pilot tails of ||h^omega|| (on the scale
    ||h||) and of the worst decay ratio (on the unit scale)."""

    def fitted(samples: np.ndarray, scale: float) -> BoundParams:
        qs = np.quantile(samples, [0.55, 0.7, 0.8, 0.88, 0.94, 0.975, 0.99])
        ests = []
        for q in qs:
            k = int(np.sum(samples > q))
            lo, hi = wilson_interval(k, samples.size)
            ests.append(
                TailEstimate("pilot", 0.0, float(q), (), k, samples.size, k / samples.size,
                             lo, hi)
            )
        fit = fit_constants(ests, "data-size", scale=scale)
        return dominate_constants(ests, fit.params, scale=scale)

    h_params = fitted(hnorms, split.achieved_h_norm)
    if not np.any(ratios > 0):
        return BoundParams(C=h_params.C, C1=max(h_params.C1, 1.0), regime="data-size")
    g_params = fitted(ratios, 1.0)
    return BoundParams(
        C=max(h_params.C, g_params.C),
        C1=max(h_params.C1, g_params.C1, 1.0),
        regime="data-size",
    )


def _density_result(
    split: SchwartzSplit, eps: float, params: BoundParams, hnorms, ratios
) -> DensityResult:
    """The joint event's frequency over the draws, with lambda and M from
    ``params`` and eps."""
    log_term = math.log(params.C1 / eps)
    if log_term <= 0:
        raise ConfigurationError("C1 must exceed eps for the threshold schedule")
    lam = params.C * _E * eps * math.sqrt(log_term)
    m_threshold = params.C * _E * math.sqrt(log_term)
    n_samples = hnorms.size
    hits = int(np.sum((hnorms <= lam) & (ratios <= m_threshold)))
    lo, hi = wilson_interval(hits, n_samples)
    return DensityResult(
        epsilon=float(eps),
        lam=lam,
        m_threshold=m_threshold,
        hit_count=hits,
        ensemble_size=n_samples,
        probability=hits / n_samples,
        ci_low=lo,
        ci_high=hi,
        target=1.0 - 2.0 * eps,
        h_norm=split.achieved_h_norm,
        split_sigma=split.sigma,
        split_radius=split.radius,
    )


def _index_pairs(pairs) -> tuple:
    return tuple((multi_index(a), multi_index(b)) for a, b in pairs)


def calibrate_density_constants(
    f: Field, eps: float, pairs, n_samples: int, seed: int
) -> BoundParams:
    """Fit dominating constants for the joint smallness/decay event from
    pilot ensembles of ||h^omega|| and of the worst decay ratio."""
    split = schwartz_split(f, eps)
    stats = _split_draw_statistics(split, _index_pairs(pairs), n_samples, seed)
    return _density_constants(split, *stats)


def density_event_probability(
    f: Field,
    eps: float,
    pairs,
    n_samples: int,
    seed: int,
    params: BoundParams,
) -> DensityResult:
    """Empirical probability of the joint event
    ||h^omega|| <= lambda and, for every listed index pair,
    decay_seminorm(g^omega) <= M * decay_seminorm(g),
    with lambda = C e eps sqrt(ln(C1/eps)) and M = C e sqrt(ln(C1/eps));
    compare against the 1 - 2 eps target."""
    split = schwartz_split(f, eps)
    stats = _split_draw_statistics(split, _index_pairs(pairs), n_samples, seed)
    return _density_result(split, eps, params, *stats)


def density_rows(
    f: Field, schedule, pairs, n_samples: int, seed: int, cal_samples: int, cal_seed: int
) -> list[tuple[BoundParams, DensityResult]]:
    """(constants, result) for every eps of ``schedule``, equal to
    :func:`calibrate_density_constants` with (cal_samples, cal_seed)
    followed by :func:`density_event_probability` with (n_samples, seed).

    The data is fixed, so a split's (sigma, R) determines g and h.  The
    split schedule is coarse, and eps that select the same split share
    its calibration and event ensembles, drawn once; only lambda and M
    depend on eps.
    """
    pairs = _index_pairs(pairs)
    shared = {}
    rows = []
    for eps in schedule:
        split = schwartz_split(f, eps)
        key = (split.sigma, split.radius)
        if key not in shared:
            cal = _split_draw_statistics(split, pairs, cal_samples, cal_seed)
            shared[key] = (
                _density_constants(split, *cal),
                _split_draw_statistics(split, pairs, n_samples, seed),
            )
        params, stats = shared[key]
        rows.append((params, _density_result(split, eps, params, *stats)))
    return rows


def moment_growth_check(
    g: Field, alpha_idx, beta_idx, p_list, n_samples: int, seed: int
) -> list[tuple[float, float]]:
    """Empirical L^p norms over draws of x^alpha d^beta g^omega at the
    grid point maximizing the deterministic |x^alpha d^beta g|."""
    alpha_idx = multi_index(alpha_idx)
    beta_idx = multi_index(beta_idx)
    spec = g.spec
    der = spectral_derivative(g, beta_idx)
    weight = monomial_weight(spec.coordinate_grids(), alpha_idx)
    field_abs = np.abs(weight * der.values)
    flat = int(np.argmax(field_abs))
    x_star = np.unravel_index(flat, spec.shape)
    b = weight[x_star] * point_coefficients(g, x_star, beta_idx)
    p_list = [float(p) for p in p_list]
    return list(zip(p_list, khintchine_moments(b, p_list, n_samples, seed)))


def series_norm(coefficients: np.ndarray) -> float:
    """l2 norm of series coefficients; the exact second moment of the
    corresponding randomized observable."""
    return float(np.sqrt(np.sum(np.abs(coefficients) ** 2)))


# ---------------------------------------------------------------------------
# Result persistence
# ---------------------------------------------------------------------------

CSV_COLUMNS = (
    "flow",
    "t",
    "alpha",
    "x_index",
    "exceed_count",
    "M",
    "prob",
    "ci_low",
    "ci_high",
    "bound",
)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def format_x_index(x_index) -> str:
    return ":".join(str(int(i)) for i in x_index)


@contextmanager
def atomic_open(path):
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


def write_table(path, columns, rows, config_hash: str = "") -> None:
    """The one writer of result tables: a ``# config=`` line (when a hash
    is given), the header, then one line per row with floats as ``repr``
    and every other cell as ``str``."""
    with atomic_open(path) as fh:
        if config_hash:
            fh.write(f"# config={config_hash}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def tail_rows(estimates, bounds=None) -> list[tuple]:
    """Rows of tail estimates in the ``CSV_COLUMNS`` layout; ``bounds`` maps
    row position to the theoretical bound value (blank when absent)."""
    return [
        (est.flow_label, est.t, est.alpha, format_x_index(est.x_index),
         est.exceed_count, est.ensemble_size, est.probability, est.ci_low, est.ci_high,
         "" if bounds is None or bounds[i] is None else bounds[i])
        for i, est in enumerate(estimates)
    ]


def write_manifest(path, payload: dict) -> None:
    """JSON manifest next to a result file; the created_at stamp is
    excluded from any byte-identity guarantees."""
    body = dict(payload)
    body.setdefault("created_at", time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()))
    with atomic_open(path) as fh:
        json.dump(body, fh, indent=2, sort_keys=True)
        fh.write("\n")
