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
the per-lattice-point draws, in blocks of ``_DRAW_BLOCK``, and draws the
two halves of its one ensemble, cut at a 256-sample block boundary, at
once, the second in a helper thread (:func:`_ensemble_statistics`); its
thresholds come from proven Gaussian tails, and the draws and both tails
read one setup of the split (:func:`_split_setup`).  The partition of
unity is read through :mod:`dispersim.wiener`'s scatter (the series a_k,
the remainder law) and gather (each draw's weight).
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .decompose import SchwartzSplit, decay_seminorm, schwartz_split, whole_number
from .errors import ConfigurationError, FitError
from .grid import Field, GridSpec, _apply_multiplier, forward_transform, monomial_weight
from .propagators import FlowKind, symbol
from .randomize import _BLOCK, RandomDraw, _RowStream, gaussian_matrix, randomize_field
from .wiener import (
    _expected_norm_squared,
    _gather,
    _gather_table,
    _square_function_from_coeffs,
    projection_blocks,
    scatter,
    unit_lattice,
)

_TWO_PI = 2.0 * np.pi
_E = math.e
_CHUNK = 2048
_DRAW_BLOCK = 8  # draws per block of the density statistics
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

    def __post_init__(self):
        if self.C <= 0 or self.C1 <= 0:
            raise ValueError("bound constants must be positive")


@dataclass(frozen=True)
class FitResult:
    params: BoundParams
    r_squared: float
    n_points: int


# ---------------------------------------------------------------------------
# Series coefficients of pointwise observables
# ---------------------------------------------------------------------------


def _point_phase(spec: GridSpec, x_index) -> np.ndarray:
    """exp(i x.xi) on the frequency mesh for the grid point at x_index,
    multiplied out from the per-axis factors exp(i x_j xi_j)."""
    coords, freqs = spec.axis_coordinates(), spec.axis_frequencies()
    out, *rest = [np.exp(1j * coords[i] * freqs) for i in x_index]
    for arr in rest:
        out = out[..., None] * arr
    return out


def _deviation_stack(flow: FlowKind, f: Field, times, points) -> np.ndarray:
    """Series coefficients a_k = scale * sum_xi psi(xi - k) exp(i x.xi)
    (symbol_t(xi) - 1) f^(xi) of every cell (t, x), t major, as an
    (n_cells, n_lattice) stack: one transform of f, one symbol per time,
    then one cell at a time its point's phase and one
    :func:`~dispersim.wiener.scatter` of that cell's mesh array, so no
    more than one cell's mesh array is held at once."""
    spec = f.spec
    F = forward_transform(f).coeffs
    rows = []
    for t in times:
        shifted = symbol(flow, spec, t) - 1.0
        for x in points:
            rows.append(scatter(spec, _point_phase(spec, x) * shifted * F))
    return spec.frequency_cell_volume * _TWO_PI ** (-spec.dim / 2.0) * np.stack(rows)


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


def pointwise_deviation(
    flow: FlowKind, f: Field, d: RandomDraw, t: float, x_index
) -> float:
    """|S(t)f^omega(x) - f^omega(x)| for one draw, computed on the mesh
    rather than through the series: the multiplier symbol - 1 applied to
    the randomized field f^omega.  At t = 0 the multiplier is exactly 0,
    and so is the deviation."""
    deviation = _apply_multiplier(randomize_field(f, d), symbol(flow, f.spec, t) - 1.0)
    return float(np.abs(deviation.values[tuple(int(i) for i in x_index)]))


def _draw_chunks(seed: int, n_samples: int, width: int, chunk: int):
    """Samples 0 .. n_samples - 1 of seed's stream, ``width`` complex
    normals each, as successive :func:`gaussian_matrix` calls of
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
    exceedance count behind ``tails`` and every convergence row.
    ``stack`` holds the cells' series coefficients, one row per cell.
    Sample m draws one complex normal per cell, row m of
    :func:`gaussian_matrix`, and maps them through
    :func:`observable_factor`, so every cell's deviation has its exact
    joint law; each (cell, alpha) gets the integer count of
    |z @ factor| > alpha over the draws, its Wilson interval and the
    cell's series norm."""
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


def estimate_tail(config: TailExperimentConfig, *, threads: int = 1) -> list[TailEstimate]:
    """Exceedance frequencies with Wilson intervals for every
    (t, alpha, x) cell, all cells sharing one ensemble of draws
    (:func:`_count_cells`).  Deterministic for a given seed: exceedances
    are integer counts, so chunking cannot change the result.

    ``threads`` is ignored: ensembles run serially, and no other part of
    dispersim reads a thread count.  The keyword stays only because the
    benchmark's ``layertrace.py --speedup`` probe passes it; it goes
    together with that probe and its ``tailprob.thread_speedup`` metric.
    """
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


def fit_constants(estimates, scales) -> FitResult:
    """Least-squares fit of -log(probability) against (alpha/scale)^2,
    ``scales`` holding one scale per estimate, |t| for a flow deviation.

    The slope is 1/(C e)^2 and the intercept -log C1.  Only cells with
    probability strictly inside (0, 1) and a positive scale participate;
    fewer than 6 such cells, all-0/all-1 probabilities, or a single
    distinct (alpha/scale)^2 among them raise :class:`FitError`.
    """
    xs, ys = [], []
    for est, s in zip(estimates, scales, strict=True):
        if 0.0 < est.probability < 1.0 and s > 0:
            xs.append((est.alpha / s) ** 2)
            ys.append(-math.log(est.probability))
    if len(xs) < 6:
        raise FitError(
            f"need at least 6 estimates with probability in (0,1), got {len(xs)}"
        )
    if len(set(xs)) < 2:
        raise FitError("need at least 2 distinct (alpha/scale)^2 values, got 1")
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    slope, intercept = np.polyfit(xs, ys, 1)
    if slope <= 0:
        raise FitError("fitted slope is not positive; tails are not Gaussian-shaped")
    resid = ys - (slope * xs + intercept)
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 0.0
    params = BoundParams(C=1.0 / (_E * math.sqrt(slope)), C1=math.exp(-intercept))
    return FitResult(params=params, r_squared=r2, n_points=len(xs))


def dominate_constants(estimates, params: BoundParams, scales) -> BoundParams:
    """Minimal inflation of C1 so the bound, on each estimate's scale in
    ``scales``, sits above every cell's Wilson upper limit (the clamp at 1
    makes saturated cells trivial)."""
    c1 = max(params.C1, 1.0)
    for est, s in zip(estimates, scales, strict=True):
        if s <= 0 or est.ci_high <= 0:
            continue
        # Same exponent cap as theoretical_bound so domination is consistent.
        exponent = min((est.alpha / (params.C * _E * s)) ** 2, 700.0)
        c1 = max(c1, est.ci_high * math.exp(exponent))
    # Nudge above rounding of the exp round trip so the bound check is safe.
    return BoundParams(C=params.C, C1=c1 * (1.0 + 1e-9))


# ---------------------------------------------------------------------------
# Convergence-in-probability curves
# ---------------------------------------------------------------------------


def threshold_schedule(params: BoundParams, eps: float) -> float:
    """alpha(eps) = C e eps sqrt(ln(3 C1 / eps))."""
    return params.C * _E * eps * math.sqrt(math.log(3.0 * params.C1 / eps))


def convergence_rows(
    flow: FlowKind, f: Field, schedule, x_index, n_samples: int, seed: int
) -> tuple[BoundParams, list[tuple[TailEstimate, SchwartzSplit]]]:
    """(constants, curve) of one flow at the point ``x_index``, the
    convergence twin of :func:`density_rows`.  Each cell (t, x), t = eps/2,
    deviates by CN(0, ||a||^2), so the bound C1 exp(-(alpha/(C e |t|))^2)
    lies above its exact law exp(-alpha^2/||a||^2) at every alpha exactly
    when C1 >= 1 and C e |t| >= ||a||: the constants are C* = the max of
    ||a||/(e |t|) over the cells and C1 = 1, with no draw.  A deviation
    that vanishes at every time has no such bound and raises
    :class:`FitError`.

    The curve holds (estimate, split) for each eps: the split f = g + h at
    eps, and the tails cell (t, alpha, x) with alpha = C e eps
    sqrt(ln(3 C1/eps)), counted alone by :func:`_count_cells` over
    (n_samples, seed) on the same series stack, one row per time."""
    times = [eps / 2.0 for eps in schedule]
    stack = _deviation_stack(flow, f, times, (x_index,))
    c_star = max(series_norm(a) / (_E * abs(t)) for t, a in zip(times, stack))
    if c_star <= 0:
        raise FitError(
            f"{flow.label()}: the deviation at x = {format_x_index(x_index)} vanishes at"
            " every t = eps/2, so no Gaussian tail bound has a positive constant C"
        )
    params = BoundParams(c_star, 1.0)
    curve = []
    for eps, t, a in zip(schedule, times, stack):
        split = schwartz_split(f, eps)
        alpha = threshold_schedule(params, eps)
        (est,) = _count_cells(flow.label(), [(t, x_index)], a[None, :], (alpha,), n_samples, seed)
        curve.append((est, split))
    return params, curve


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


def _real_front(a: np.ndarray) -> np.ndarray:
    """A float64 array shaped like the complex array ``a``, in the first
    half of its memory, so that row r of it lies in row r of ``a``."""
    return a.reshape(-1).view(np.float64)[: a.size].reshape(a.shape)


def _split_setup(split: SchwartzSplit, pairs) -> tuple:
    """(split, lattice size, h^, spectra, terms): what the draws
    and both tails of a split read, built once in the calling thread.
    ``spectra`` maps each distinct beta to (i xi)^beta g^, from one
    transform of g; ``terms`` holds (beta, |x^alpha| ifftshifted into the
    draws' FFT x order or None where it is 1, decay_seminorm(g)) of each
    pair, in order.  Both are empty when g = 0, whose randomized pieces
    vanish too, so its decay event holds with no pair to check; a
    seminorm that vanishes raises."""
    spec = split.g.spec
    spectra, terms = {}, []
    if np.any(split.g.values):
        Fg = forward_transform(split.g).coeffs
        freqs, coords = spec.frequency_grids(), spec.coordinate_grids()
        for a, b in dict.fromkeys(pairs):
            val = decay_seminorm(split.g, a, b)
            if val <= 0:
                raise ConfigurationError(
                    f"decay seminorm of the smooth part vanishes for indices {(a, b)}"
                )
            if b not in spectra:
                spectra[b] = (monomial_weight(freqs, b, imaginary=True) * Fg).reshape(-1)
            shifted = np.abs(np.fft.ifftshift(monomial_weight(coords, a))).reshape(-1)
            terms.append((b, shifted if any(a) else None, val))
    Fh = forward_transform(split.h).coeffs.reshape(-1)
    _gather_table(spec)  # built here: the draws' helper thread calls no public function
    return split, len(unit_lattice(spec)), Fh, spectra, terms


def _ensemble_statistics(setup, seed: int, samples: range, stop: threading.Event):
    """(hnorms, ratios) of the ``samples`` range of seed's stream for the
    split of ``setup`` (:func:`_split_setup`), or None once ``stop`` is
    set: per draw, ||h^omega||_L2 and the largest pair ratio
    decay_seminorm(g^omega)/decay_seminorm(g), 0 when no pair is checked.

    Each draw's weight stays in natural order and is transformed without
    the usual index shifts: the modulus of the result equals that of the
    shifted transform, with x in FFT order, so only the alpha weights are
    shifted, once per split.  Draws are read and reduced in blocks of
    ``_DRAW_BLOCK`` through three complex block arrays; the magnitudes
    reuse the memory of whichever one is spent.  Only private helpers and
    numpy run here, so no traced public call runs off the calling thread."""
    split, n_lattice, Fh, spectra, terms = setup
    spec = split.g.spec
    shape, axes = spec.shape, tuple(range(1, spec.dim + 1))
    dxi_vol, inv_scale = spec.frequency_cell_volume, _TWO_PI ** (spec.dim / 2.0) / spec.cell_volume
    n_samples = len(samples)
    hnorms, ratios = np.empty(n_samples), np.zeros(n_samples)
    stream = _RowStream(seed, samples.start)
    rows = np.empty((min(_DRAW_BLOCK, n_samples), n_lattice), dtype=np.complex128)
    weights = np.empty((len(rows), Fh.size), dtype=np.complex128)
    work, spare = np.empty_like(weights), np.empty_like(weights)
    work_re, spare_re = _real_front(work), _real_front(spare)
    for start in range(0, n_samples, _DRAW_BLOCK):
        if stop.is_set():
            return None
        coeffs = stream.read(rows[: n_samples - start])
        b = len(coeffs)
        W, mesh = weights[:b], (b, *shape)
        drawn = slice(start, start + b)
        _gather(spec, coeffs, W, work[:b])
        sq = np.abs(np.multiply(W, Fh, out=work[:b]), out=spare_re[:b])
        hnorms[drawn] = np.sqrt(dxi_vol * np.sum(np.square(sq, out=sq), axis=1))
        worst = ratios[drawn]
        for beta, beta_weight in spectra.items():
            spectrum = np.multiply(W, beta_weight, out=work[:b]).reshape(mesh)
            field = np.fft.ifftn(spectrum, axes=axes, out=spare[:b].reshape(mesh)).reshape(b, -1)
            parts = field.view(np.float64)
            parts *= inv_scale  # the bits of the complex-by-real product, up to signs of 0
            mag = np.abs(field, out=work_re[:b])
            for alpha_weight, val in (term[1:] for term in terms if term[0] == beta):
                if alpha_weight is not None:
                    peak = np.max(np.multiply(mag, alpha_weight, out=spare_re[:b]), axis=1)
                else:
                    peak = np.max(mag, axis=1)
                np.maximum(worst, peak / val, out=worst)
    return hnorms, ratios


def _run_ensembles(run, ensembles) -> list:
    """[run(ensemble, stop) for each of ``ensembles``]: the first in the
    calling thread, the rest one after another in one helper thread.  An
    error in either sets ``stop``, so the other ends at its next block, and
    the first error is raised here once the helper has ended."""
    results = [None] * len(ensembles)
    errors = []
    stop = threading.Event()

    def work(indices):
        try:
            for i in indices:
                results[i] = run(ensembles[i], stop)
        except BaseException as exc:  # raised again by the calling thread
            errors.append(exc)
            stop.set()

    helper = threading.Thread(target=work, args=(range(1, len(ensembles)),))
    helper.start()
    try:
        work(range(1))
    finally:
        helper.join()
    if errors:
        raise errors[0]
    return results


def _block_halves(n_samples: int) -> list[range]:
    """[0, n_samples) cut at the 256-sample block boundary nearest
    n_samples / 2, so neither range draws rows of the other's blocks."""
    cut = _BLOCK * ((n_samples + _BLOCK) // (2 * _BLOCK))
    return [range(cut), range(cut, n_samples)]


def _remainder_law(setup) -> tuple[float, float]:
    """(T, R) of ||h^omega||^2 = g^H G g, G_kk' = dxi sum_xi psi(xi - k)
    psi(xi - k') |h^(xi)|^2, from the h^ of ``setup``: T = tr G, and R =
    G's largest row sum, which bounds ||G|| as G >= 0 entrywise: the scatter
    of |h^(xi)|^2 S(xi), S(xi) numpy's row sum of xi's corner weights (in
    3D a corner-by-corner sum, and R with it, has other bits)."""
    split, _, Fh, _, _ = setup
    spec = split.h.spec
    rows = scatter(spec, np.abs(Fh) ** 2 * projection_blocks(spec).weight.sum(axis=1))
    top = spec.frequency_cell_volume * float(rows.max())
    return _expected_norm_squared(spec, Fh), top


def _lambda_threshold(trace: float, top: float, eps: float) -> tuple[float, float]:
    """(lambda, x), P(||h^omega|| > lambda) <= exp(-x) <= eps, for tr G =
    ``trace`` and ||G|| <= ``top``: the chi-square tail of Laurent & Massart
    (Ann. Statist. 2000) with ||G||_F^2 <= ||G|| tr G, x = ln(1/eps) up to
    the float whose exp(-x) does not exceed eps."""
    x = max(0.0, -math.log(eps))
    while math.exp(-x) > eps:
        x = math.nextafter(x, math.inf)
    return math.sqrt(trace + math.sqrt(2.0 * top * trace * x) + top * x), x


def _decay_rates(setup) -> np.ndarray:
    """The union bound's rates (seminorm_g / sigma_x)^2 for the split of
    ``setup``, pair by pair in order, over the mesh points where sigma_x > 0:
    x^alpha d^beta g^omega(x) is CN(0, sigma_x^2), sigma_x = |x^alpha|
    Sq[d^beta g](x), with one square function per distinct beta."""
    split, _, _, spectra, terms = setup
    squares = {b: _square_function_from_coeffs(split.g.spec, s) for b, s in spectra.items()}
    rates = [np.empty(0)]
    for b, alpha_weight, val in terms:
        sigma = squares[b] if alpha_weight is None else alpha_weight * squares[b]
        rates.append((val / sigma[sigma > 0]) ** 2)
    return np.concatenate(rates)


def _m_threshold(rates: np.ndarray, eps: float) -> tuple[float, float]:
    """(M, sum): the least M whose union bound sum exp(-M^2 rates) on
    P(decay ratio > M), rates = (seminorm_g / sigma_x)^2, is at most eps,
    as the upper end of a bisection bracket, and that sum."""
    hi = 0.0
    if rates.size > eps:  # twice the M at which rates.size exp(-M^2 min rates) = eps
        hi = 2.0 * math.sqrt(math.log(rates.size / eps) / float(rates.min()))
    lo = 0.0
    for _ in range(60 if hi else 0):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if np.sum(np.exp(-mid * mid * rates)) > eps else (lo, mid)
    return hi, float(np.sum(np.exp(-hi * hi * rates)))


def _density_result(eps: float, lam: float, m_threshold: float, hnorms, ratios) -> DensityResult:
    """The frequency over the draws of ||h^omega|| <= lam and every pair
    ratio <= m_threshold."""
    hits = int(np.sum((hnorms <= lam) & (ratios <= m_threshold)))
    lo, hi = wilson_interval(hits, hnorms.size)
    return DensityResult(
        epsilon=float(eps),
        lam=lam,
        m_threshold=m_threshold,
        hit_count=hits,
        ensemble_size=hnorms.size,
        probability=hits / hnorms.size,
        ci_low=lo,
        ci_high=hi,
        target=1.0 - 2.0 * eps,
    )


def density_rows(
    f: Field, schedule, pairs, n_samples: int, seed: int
) -> list[tuple[dict, DensityResult, SchwartzSplit]]:
    """(proven tails, result, split) for every eps of ``schedule``: the
    density experiment over the split f = g + h at eps, the twin of
    :func:`convergence_rows`.  ``pairs`` holds (alpha, beta) multi-index
    tuples, as :func:`~dispersim.cli.parse_pairs` returns them.

    The result is the frequency, over samples [0, n_samples) of seed's
    stream, of the joint event ||h^omega|| <= lambda and, for every pair,
    decay_seminorm(g^omega) <= M * decay_seminorm(g), against the
    1 - 2 eps target.  lambda (:func:`_lambda_threshold`) and M
    (:func:`_m_threshold`) are proven, each event's tail at most eps, with
    no calibration draw.  The proven tails hold T, R and x of lambda, its
    tail bound exp(-x), the union sum at M and the number of draws with
    ||h^omega|| <= lambda.

    A split's (sigma, R) determines g and h, and eps that select the same
    split share its setup (:func:`_split_setup`), its ensemble, drawn once
    as two halves on two threads (:func:`_block_halves`), and its laws,
    computed after the draws.
    """
    shared = {}
    rows = []
    for eps in schedule:
        split = schwartz_split(f, eps)
        key = (split.sigma, split.radius)
        if key not in shared:
            setup = _split_setup(split, pairs)
            run = functools.partial(_ensemble_statistics, setup, seed)
            halves = _run_ensembles(run, _block_halves(n_samples))
            hnorms, ratios = (np.concatenate(arrays) for arrays in zip(*halves))
            # The laws after the draws: computed first, they raised the
            # run's peak memory.
            shared[key] = hnorms, ratios, _remainder_law(setup), _decay_rates(setup)
        hnorms, ratios, (trace, top), rates = shared[key]
        lam, x = _lambda_threshold(trace, top, eps)
        m_threshold, union = _m_threshold(rates, eps)
        tails = dict(trace_G=trace, max_row_sum_G=top, x=x, lambda_tail_bound=math.exp(-x),
                     m_union_sum=union, lambda_event_count=int(np.sum(hnorms <= lam)))
        rows.append((tails, _density_result(eps, lam, m_threshold, hnorms, ratios), split))
    return rows


def series_norm(coefficients: np.ndarray) -> float:
    """l2 norm of series coefficients; the exact second moment of the
    corresponding randomized observable."""
    return float(np.sqrt(np.sum(np.abs(coefficients) ** 2)))


def format_x_index(x_index) -> str:
    return ":".join(str(int(i)) for i in x_index)
