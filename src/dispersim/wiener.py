"""Unit-cube decomposition of frequency space.

A smooth compactly supported bump psi with supp psi inside the open unit
ball is normalized against its own lattice translates, so that
sum over k in Z^dim of psi(xi - k) is identically 1.  Frequency-side
multiplication by psi(. - k) then splits a field into unit-scale pieces
that reconstruct exactly, and the pointwise l2 aggregate of the pieces is
controlled by the L2 norm of the field, with or without a free flow
applied first.

Frequency vectors are arrays of shape (..., dim); the last axis is the
coordinate axis even in dimension one.

The square function sum_k |piece_k(x)|^2 is computed on a coarse grid.
Piece k's spectrum lives in a window of at most W mesh points per axis
starting at some index a_k; moving the window to the origin multiplies
piece_k by the unimodular phase exp(2 pi i a_k.j / N), which |piece_k|^2
drops.  So the sum is a trigonometric polynomial in x with integer
frequencies delta, |delta_j| <= W - 1, whose coefficients R_delta are the
windows' summed autocorrelations.  Zero-padding each window to 2W - 1
points per axis makes a small inverse FFT, |.|^2 and a forward FFT give
every R_delta without aliasing; folding delta modulo N onto the mesh is
exact, even when 2W - 1 > N, because exp(2 pi i delta.j / N) depends on
delta only modulo N.  One inverse FFT on the mesh then evaluates the sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import hashlib
import itertools

import numpy as np

from . import propagators
from .checks import CheckResult
from .errors import ConfigurationError
from .grid import (
    Field,
    GridSpec,
    Spectrum,
    forward_transform,
    inverse_transform,
    l2_norm,
    monomial_weight,
)

_TWO_PI = 2.0 * np.pi

# Beyond this |xi|^2 the mollifier and all its first and second derivative
# terms underflow to exactly zero in float64, so they are masked out before
# any power of 1/(1-|xi|^2) can overflow.
_SUPPORT_CAP = 0.9985


def _radius_squared(xi: np.ndarray) -> np.ndarray:
    return np.sum(xi**2, axis=-1)


def mollifier_value(xi) -> np.ndarray:
    """Base bump exp(-1/(1-|xi|^2)) for |xi| < 1, else 0."""
    xi = np.asarray(xi, dtype=float)
    u = _radius_squared(xi)
    out = np.zeros(u.shape)
    inside = u < _SUPPORT_CAP
    w = 1.0 / (1.0 - u[inside])
    out[inside] = np.exp(-w)
    return out


def _mollifier_jet(xi: np.ndarray):
    """Value, gradient and Hessian of the base bump, vectorized.

    Returns (phi, grad, hess) with shapes (...,), (..., d), (..., d, d).
    """
    xi = np.asarray(xi, dtype=float)
    d = xi.shape[-1]
    u = _radius_squared(xi)
    base = u.shape
    phi = np.zeros(base)
    grad = np.zeros(base + (d,))
    hess = np.zeros(base + (d, d))
    inside = u < _SUPPORT_CAP
    if not np.any(inside):
        return phi, grad, hess
    w = 1.0 / (1.0 - u[inside])
    p = np.exp(-w)
    x = xi[inside]
    phi[inside] = p
    # d_j phi = -2 xi_j w^2 phi
    grad[inside] = -2.0 * x * (w**2 * p)[..., None]
    # d_i d_j phi = phi [ (4 w^4 - 8 w^3) xi_i xi_j - 2 w^2 delta_ij ]
    outer = x[..., :, None] * x[..., None, :]
    h = outer * ((4.0 * w**4 - 8.0 * w**3) * p)[..., None, None]
    idx = np.arange(d)
    h[..., idx, idx] += (-2.0 * w**2 * p)[..., None]
    hess[inside] = h
    return phi, grad, hess


def _neighbor_offsets(dim: int):
    return list(itertools.product((0, 1), repeat=dim))


def _lattice_jet(xi: np.ndarray, order: int):
    """Value (and derivatives up to ``order``) of S(xi) = sum_k phi(xi - k).

    Only the 2^dim lattice points nearest to xi can contribute, because the
    mollifier support has radius one.
    """
    xi = np.asarray(xi, dtype=float)
    d = xi.shape[-1]
    base = xi.shape[:-1]
    lo = np.floor(xi)
    s = np.zeros(base)
    sg = np.zeros(base + (d,)) if order >= 1 else None
    sh = np.zeros(base + (d, d)) if order >= 2 else None
    for off in _neighbor_offsets(d):
        shifted = xi - (lo + np.asarray(off, dtype=float))
        if order == 0:
            s += mollifier_value(shifted)
        else:
            p, g, h = _mollifier_jet(shifted)
            s += p
            sg += g
            if order >= 2:
                sh += h
    return s, sg, sh


def bump_value(xi) -> np.ndarray:
    """Normalized bump psi(xi) = phi(xi) / sum_k phi(xi - k).

    Smooth, even, valued in [0, 1], zero for |xi| >= 1; its integer
    translates sum to one at every point by construction.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    phi = mollifier_value(xi)
    s, _, _ = _lattice_jet(xi, order=0)
    return phi / s


def bump_derivative(xi, beta) -> np.ndarray:
    """Partial derivative of psi of multi-index ``beta``, |beta| <= 2.

    Computed analytically through the quotient rule on the normalized bump,
    which keeps the values accurate up to the support boundary.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    d = xi.shape[-1]
    beta = tuple(int(b) for b in beta)
    if len(beta) != d:
        raise ValueError(f"multi-index length {len(beta)} does not match dim {d}")
    if any(b < 0 for b in beta):
        raise ValueError("multi-index entries must be nonnegative")
    order = sum(beta)
    if order > 2:
        raise ValueError("analytic bump derivatives are limited to order 2")
    if order == 0:
        return bump_value(xi)
    phi, grad, hess = _mollifier_jet(xi)
    s, sg, sh = _lattice_jet(xi, order=order)
    axes = [j for j, b in enumerate(beta) for _ in range(b)]
    if order == 1:
        (j,) = axes
        return grad[..., j] / s - phi * sg[..., j] / s**2
    i, j = axes
    term = hess[..., i, j] / s
    term -= (grad[..., i] * sg[..., j] + grad[..., j] * sg[..., i]) / s**2
    term -= phi * sh[..., i, j] / s**2
    term += 2.0 * phi * sg[..., i] * sg[..., j] / s**3
    return term


def smooth_step(s) -> np.ndarray:
    """Smooth monotone ramp from 0 (s <= 0) to 1 (s >= 1), built from the
    same exp(-1/.) family as the bump."""
    s = np.asarray(s, dtype=float)
    a = np.zeros(s.shape)
    b = np.zeros(s.shape)
    pos = s > 1e-12
    a[pos] = np.exp(-1.0 / s[pos])
    neg = (1.0 - s) > 1e-12
    b[neg] = np.exp(-1.0 / (1.0 - s[neg]))
    return a / (a + b)


@dataclass(frozen=True, eq=False)
class UnitLattice:
    """Integer frequency lattice points whose unit balls meet the grid's
    frequency box, in fixed lexicographic order."""

    spec: GridSpec
    points: np.ndarray  # (n_points, dim) int64

    @classmethod
    def for_grid(cls, spec: GridSpec) -> "UnitLattice":
        ax = spec.axis_frequencies()
        lo_f, hi_f = float(ax[0]), float(ax[-1])
        per_axis = np.arange(int(np.floor(lo_f - 1.0)) + 1, int(np.ceil(hi_f + 1.0)))
        mesh = np.array(
            list(itertools.product(per_axis, repeat=spec.dim)), dtype=np.int64
        )
        # Euclidean distance from k to the frequency box [lo_f, hi_f]^dim.
        excess = np.maximum(lo_f - mesh, 0.0) + np.maximum(mesh - hi_f, 0.0)
        keep = np.sum(excess**2, axis=1) < 1.0
        pts = mesh[keep].copy()
        pts.flags.writeable = False
        return cls(spec=spec, points=pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    def index_of(self, k) -> int:
        k = np.asarray(k, dtype=np.int64).reshape(-1)
        hits = np.nonzero(np.all(self.points == k, axis=1))[0]
        if hits.size == 0:
            raise KeyError(f"lattice point {tuple(k)} not in unit lattice")
        return int(hits[0])

    def __contains__(self, k) -> bool:
        k = np.asarray(k, dtype=np.int64).reshape(-1)
        if k.shape[0] != self.spec.dim:
            return False
        return bool(np.any(np.all(self.points == k, axis=1)))

    def digest(self) -> str:
        """Stable content hash for result manifests."""
        h = hashlib.sha256()
        h.update(np.int64(self.spec.dim).tobytes())
        h.update(np.int64(self.spec.samples_per_axis).tobytes())
        h.update(np.float64(self.spec.extent).tobytes())
        h.update(np.ascontiguousarray(self.points).tobytes())
        return h.hexdigest()[:16]


@lru_cache(maxsize=8)
def unit_lattice(spec: GridSpec) -> UnitLattice:
    return UnitLattice.for_grid(spec)


@dataclass(frozen=True, eq=False)
class NeighbourTable:
    """The partition of unity on one grid's frequency mesh.

    Row n belongs to mesh frequency xi_n (row-major mesh order) and lists
    its 2^dim lattice corners floor(xi_n) + {0,1}^dim in lexicographic,
    that is lattice, order, with the weights psi(xi_n - k).  No other
    lattice point has a nonzero bump at xi_n, because the bump's support
    has radius one.  Entries of weight zero carry lattice index 0.
    """

    index: np.ndarray  # (N^dim, 2^dim) int32 lattice indices
    weight: np.ndarray  # (N^dim, 2^dim) psi(xi - k)
    pieces: np.ndarray  # lattice indices whose window |xi_j - k_j| < 1 meets the mesh

    def __len__(self) -> int:
        return self.pieces.size


_BUILD_ROWS = 512


@lru_cache(maxsize=8)
def projection_blocks(spec: GridSpec) -> NeighbourTable:
    """The partition of unity of ``spec`` as a neighbour table, built once
    per grid; its length is the number of unit-scale pieces."""
    lattice = unit_lattice(spec)
    ax = spec.axis_frequencies()
    # Dense lookup over the lattice's bounding box; a corner with a nonzero
    # weight lies within distance one of the frequency box, so in the lattice.
    lo = lattice.points.min(axis=0)
    span = lattice.points.max(axis=0) - lo + 1
    lookup = np.zeros(span, dtype=np.int32)
    lookup[tuple((lattice.points - lo).T)] = np.arange(len(lattice))
    offsets = np.asarray(_neighbor_offsets(spec.dim), dtype=float)
    index = np.zeros((spec.size, offsets.shape[0]), dtype=np.int32)
    weight = np.zeros((spec.size, offsets.shape[0]))
    # Mesh rows in chunks keep the build's temporaries small.
    for start in range(0, spec.size, _BUILD_ROWS):
        rows = np.arange(start, min(start + _BUILD_ROWS, spec.size))
        xi = ax[np.stack(np.unravel_index(rows, spec.shape), axis=-1)][:, None, :]
        corners = np.floor(xi) + offsets
        # psi = phi / S with S = sum_k phi(xi - k) shared by the corners;
        # summing them in offset order gives bump_value's S bit for bit.
        phi = mollifier_value(xi - corners)
        total = np.zeros(len(rows))
        for column in phi.T:
            total += column
        weight[rows] = phi / total[:, None]
        rel = np.clip(corners.astype(np.int64) - lo, 0, span - 1)
        hit = lookup[tuple(np.moveaxis(rel, -1, 0))]
        index[rows] = np.where(weight[rows] != 0, hit, 0)
    pts = lattice.points.astype(float)
    nonempty = np.searchsorted(ax, pts + 1.0, side="left") > np.searchsorted(
        ax, pts - 1.0, side="right"
    )
    table = NeighbourTable(
        index=index,
        weight=weight,
        pieces=np.flatnonzero(np.all(nonempty, axis=1)),
    )
    for arr in (table.index, table.weight, table.pieces):
        arr.flags.writeable = False
    return table


def project(f: Field, k) -> Field:
    """Unit-scale piece of f at lattice point k: multiply the spectrum by
    psi(xi - k) and transform back.

    Lattice points with no support overlap on this grid yield the zero
    field rather than an error.
    """
    spec = f.spec
    k = tuple(int(c) for c in np.atleast_1d(np.asarray(k, dtype=np.int64)))
    if len(k) != spec.dim:
        raise ConfigurationError(
            f"lattice point of length {len(k)} on a dim-{spec.dim} grid"
        )
    F = forward_transform(f)
    lattice = unit_lattice(spec)
    weight = 0.0
    if k in lattice:
        table = projection_blocks(spec)
        hit = table.index == lattice.index_of(k)
        weight = np.where(hit, table.weight, 0.0).sum(axis=1).reshape(spec.shape)
    return inverse_transform(Spectrum(spec, weight * F.coeffs))


def reconstruct(f: Field) -> Field:
    """Sum of all unit-scale pieces; equals f up to rounding because the
    bump translates sum to one at every grid frequency."""
    spec = f.spec
    F = forward_transform(f).coeffs.reshape(-1)
    acc = np.zeros(spec.size, dtype=np.complex128)
    for weight in projection_blocks(spec).weight.T:
        acc += weight * F
    return inverse_transform(Spectrum(spec, acc.reshape(spec.shape)))


_SQUARE_CHUNK = 256


@lru_cache(maxsize=8)
def _piece_entries(spec: GridSpec):
    """The neighbour table's nonzero entries grouped by piece.

    Returns (slot, position, row, weight, width): the entry's piece slot
    (its place in ``pieces``, ascending), its flat place in that piece's
    width^dim window, its mesh row and its weight psi(xi - k).  A piece's
    window starts at the first mesh frequency of its support along each
    axis; width is the widest per-axis window on the grid.
    """
    table = projection_blocks(spec)
    ax = spec.axis_frequencies()
    pts = unit_lattice(spec).points[table.pieces].astype(float)
    first = np.searchsorted(ax, pts - 1.0, side="right")
    width = int(np.max(np.searchsorted(ax, pts + 1.0, side="left") - first))
    slot_of = np.full(len(unit_lattice(spec)), -1)
    slot_of[table.pieces] = np.arange(len(table))
    rows, cols = np.nonzero(table.weight)
    slot = slot_of[table.index[rows, cols]]
    order = np.argsort(slot, kind="stable")
    rows, cols, slot = rows[order], cols[order], slot[order]
    local = np.stack(np.unravel_index(rows, spec.shape), axis=-1) - first[slot]
    position = np.ravel_multi_index(tuple(local.T), (width,) * spec.dim)
    entries = (slot, position, rows, table.weight[rows, cols])
    for arr in entries:
        arr.flags.writeable = False
    return entries + (width,)


def _chunks(slot: np.ndarray, pieces: int, chunk: int):
    """(first piece, piece count, entry slice) per run of ``chunk`` pieces."""
    for start in range(0, pieces, chunk):
        lo, hi = np.searchsorted(slot, (start, start + chunk))
        yield start, min(chunk, pieces - start), slice(lo, hi)


def _piece_stacks(spec: GridSpec, coeffs: np.ndarray):
    """Full-mesh spectra psi(xi - k) coeffs(xi) of the pieces in lattice
    order, _SQUARE_CHUNK pieces at a time."""
    slot, _, row, weight, _ = _piece_entries(spec)
    flat = coeffs.reshape(-1)
    for start, count, part in _chunks(slot, len(projection_blocks(spec)), _SQUARE_CHUNK):
        stack = np.zeros((count, spec.size), dtype=np.complex128)
        stack[slot[part] - start, row[part]] = weight[part] * flat[row[part]]
        yield stack.reshape((count,) + spec.shape)


def _square_function_from_coeffs(spec: GridSpec, coeffs: np.ndarray) -> np.ndarray:
    """Pointwise (sum_k |piece_k(x)|^2)^(1/2) for the given coefficients,
    computed on the coarse grid of the pieces' windows (module docstring).

    Transforming the natural-order spectrum without the usual index shift
    only multiplies each piece by a unimodular (-1)^j checkerboard, which
    the modulus removes; one final shift restores natural x order.
    """
    slot, position, row, weight, width = _piece_entries(spec)
    dim = spec.dim
    coarse = 2 * width - 1
    axes = tuple(range(1, dim + 1))
    values = weight * coeffs.reshape(-1)[row]
    # No chunk of windows outgrows _SQUARE_CHUNK full-mesh spectra.
    chunk = max(1, _SQUARE_CHUNK * spec.size // coarse**dim)
    density = np.zeros((coarse,) * dim)
    for start, count, part in _chunks(slot, len(projection_blocks(spec)), chunk):
        windows = np.zeros((count, width**dim), dtype=np.complex128)
        windows[slot[part] - start, position[part]] = values[part]
        windows = windows.reshape((count,) + (width,) * dim)
        # Zero-padded to 2W-1 points per axis, so no lag of |piece|^2 aliases.
        sums = np.fft.ifftn(windows, s=(coarse,) * dim, axes=axes, norm="forward")
        density += np.sum(np.abs(sums) ** 2, axis=0)
    # Autocorrelation R_delta, delta in (-W, W)^dim, folded modulo N.
    autocorr = np.fft.fftn(density, norm="forward")
    lag = np.fft.fftfreq(coarse, 1.0 / coarse).astype(np.int64) % spec.samples_per_axis
    folded = np.zeros(spec.shape, dtype=np.complex128)
    np.add.at(folded, np.ix_(*(lag,) * dim), autocorr)
    scale = _TWO_PI ** (dim / 2.0) / spec.cell_volume / spec.size
    total = scale**2 * np.fft.ifftn(folded, norm="forward").real
    return np.sqrt(np.fft.fftshift(np.maximum(total, 0.0)))


def square_function(f: Field) -> Field:
    """Pointwise l2 aggregate of the unit-scale pieces (real-valued field)."""
    F = forward_transform(f)
    return Field(f.spec, _square_function_from_coeffs(f.spec, F.coeffs))


def square_function_evolved(f: Field, flow, t: float) -> Field:
    """Square function of the free flow applied to f at time t."""
    F = forward_transform(f)
    sym = propagators.symbol(flow, f.spec, t)
    return Field(f.spec, _square_function_from_coeffs(f.spec, sym * F.coeffs))


def weighted_tail_sum(g: Field, alpha_idx, beta_idx, k_min: int) -> float:
    """Sum over |k| >= k_min of the grid quadrature of
    |xi^alpha * Fg(xi) * (d^beta psi)(xi - k)|^2.

    Finite for smooth decaying data and decreasing in k_min.
    """
    spec = g.spec
    alpha_idx = tuple(int(a) for a in alpha_idx)
    beta_idx = tuple(int(b) for b in beta_idx)
    if len(alpha_idx) != spec.dim or len(beta_idx) != spec.dim:
        raise ConfigurationError("multi-index length must match grid dim")
    grids = spec.frequency_grids()
    weighted = (monomial_weight(grids, alpha_idx) * forward_transform(g).coeffs).reshape(-1)
    table = projection_blocks(spec)
    points = unit_lattice(spec).points
    far = np.sqrt(np.sum(points.astype(float) ** 2, axis=1)) >= k_min
    rows, cols = np.nonzero((table.weight != 0) & far[table.index])
    xi = np.stack(grids, axis=-1).reshape(-1, spec.dim)[rows]
    der = bump_derivative(xi - points[table.index[rows, cols]], beta_idx)
    return float(np.sum(np.abs(weighted[rows] * der) ** 2)) * spec.frequency_cell_volume


# ---------------------------------------------------------------------------
# Invariant suite (shared by tests and the check-wiener subcommand)
# ---------------------------------------------------------------------------


def partition_deviation(dim: int, n_points: int, seed: int) -> float:
    """Max |sum_k psi(xi - k) - 1| over random xi in [-6, 6]^dim.

    Sums the normalized bump over the active translates, which exercises
    the floating-point periodicity of the normalizing denominator.
    """
    rng = np.random.default_rng(seed)
    xi = rng.uniform(-6.0, 6.0, size=(n_points, dim))
    lo = np.floor(xi)
    total = np.zeros(n_points)
    for off in _neighbor_offsets(dim):
        total += bump_value(xi - (lo + np.asarray(off, dtype=float)))
    return float(np.max(np.abs(total - 1.0)))


def reconstruction_deviation(spec: GridSpec, n_fields: int, seed: int) -> float:
    """Max relative L2 error of summing all unit-scale pieces."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_fields):
        f = propagators._random_field(spec, rng)
        err = l2_norm(Field(spec, reconstruct(f).values - f.values))
        worst = max(worst, err / l2_norm(f))
    return worst


def square_bound_excess(spec: GridSpec, flow, times, n_fields: int, seed: int) -> float:
    """Max over fields and times of max_x square function / ||f||_L2."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_fields):
        f = propagators._random_field(spec, rng)
        norm = l2_norm(f)
        if flow is None:
            sq = square_function(f)
            worst = max(worst, float(np.max(sq.values.real)) / norm)
            continue
        for t in times:
            sq = square_function_evolved(f, flow, t)
            worst = max(worst, float(np.max(sq.values.real)) / norm)
    return worst


def bernstein_ratio(spec: GridSpec, n_fields: int, seed: int) -> float:
    """Max over fields and lattice points of sup|piece| / ||piece||_L2."""
    rng = np.random.default_rng(seed)
    scale = _TWO_PI ** (spec.dim / 2.0) / spec.cell_volume
    worst = 0.0
    axes = tuple(range(1, spec.dim + 1))
    for _ in range(n_fields):
        F = forward_transform(propagators._random_field(spec, rng)).coeffs
        for stack in _piece_stacks(spec, F):
            # sup and norm are invariant under the omitted index shifts.
            mags = np.abs(scale * np.fft.ifftn(stack, axes=axes))
            mags = mags.reshape(len(stack), -1)
            sup = mags.max(axis=1)
            nrm = np.sqrt((mags**2).sum(axis=1) * spec.cell_volume)
            ok = nrm > 0
            if np.any(ok):
                worst = max(worst, float(np.max(sup[ok] / nrm[ok])))
    return worst


def invariant_report(
    specs_by_dim: dict[int, GridSpec], seed: int = 20240901
) -> list[CheckResult]:
    """Run the decomposition invariant suite used by ``check-wiener``.

    Covers the partition of unity, exact reconstruction, the square-function
    bound with the identity and each free flow, the unit-scale sup/L2
    comparison across grid sizes, and finiteness/monotonicity of the
    derivative-weighted tail sums.  In dimensions 2 and 3 the
    square-function bound is recorded both against constant 1 and against
    the unit-ball-volume slack.
    """
    results: list[CheckResult] = []
    for dim, spec in sorted(specs_by_dim.items()):
        dev = partition_deviation(dim, 10_000, seed + dim)
        results.append(
            CheckResult(f"partition of unity (dim {dim})", dev < 1e-12, dev, 1e-12)
        )
        rec = reconstruction_deviation(spec, 100, seed + 10 + dim)
        results.append(
            CheckResult(f"reconstruction (dim {dim})", rec < 1e-10, rec, 1e-10)
        )

    flows: list[tuple[str, object, GridSpec]] = []
    for dim, spec in sorted(specs_by_dim.items()):
        flows.append((f"identity (dim {dim})", None, spec))
    if 1 in specs_by_dim:
        flows.append(("kdv", propagators.FlowKind.parse("kdv"), specs_by_dim[1]))
    if 2 in specs_by_dim:
        flows.append(
            ("wave-half", propagators.FlowKind.parse("wave-half"), specs_by_dim[2])
        )
        flows.append(
            (
                "schrodinger +-",
                propagators.FlowKind.parse("schrodinger:+-"),
                specs_by_dim[2],
            )
        )
    if 3 in specs_by_dim:
        flows.append(
            (
                "schrodinger ++-",
                propagators.FlowKind.parse("schrodinger:++-"),
                specs_by_dim[3],
            )
        )
    times = (0.0, 0.1, 1.0)
    for label, flow, spec in flows:
        excess = square_bound_excess(spec, flow, times, 100, seed + 100)
        limit = 1.0 + 1e-9
        results.append(
            CheckResult(
                f"square-function bound vs 1 ({label})", excess < limit, excess, limit
            )
        )
        if spec.dim > 1:
            ball = {2: np.pi, 3: 4.0 * np.pi / 3.0}[spec.dim]
            slack = float(np.sqrt(ball)) * (1.0 + 1e-9)
            results.append(
                CheckResult(
                    f"square-function bound vs ball-volume slack ({label})",
                    excess < slack,
                    excess,
                    slack,
                )
            )

    if 1 in specs_by_dim:
        base = specs_by_dim[1]
        ratios = [
            bernstein_ratio(GridSpec(1, n, base.extent), 10, seed + 7)
            for n in (64, 128, 256)
        ]
        worst = max(ratios)
        results.append(
            CheckResult(
                "unit-scale sup/L2 ratio, grid sizes 64/128/256",
                worst < 0.6,
                worst,
                0.6,
            )
        )
        spread = max(ratios) / min(ratios)
        results.append(
            CheckResult(
                "unit-scale sup/L2 ratio grid independence", spread < 1.2, spread, 1.2
            )
        )

        x = base.axis_coordinates()
        gauss = Field(base, np.exp(-(x**2) / 2.0))
        tails = [weighted_tail_sum(gauss, (1,), (1,), kmin) for kmin in (3, 6, 12)]
        results.append(
            CheckResult(
                "derivative-weighted tail sum decreasing in k_min",
                bool(tails[0] >= tails[1] >= tails[2]) and np.isfinite(tails[0]),
                tails[0],
                np.inf,
            )
        )
    return results
