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

The square function sum_k |piece_k(x)|^2 comes from the windows' Gram
matrix.  Piece k's spectrum lives in a window of at most W mesh points per
axis starting at some index a_k; moving the window to the origin
multiplies piece_k by the unimodular phase exp(2 pi i a_k.j / N), which
|piece_k|^2 drops.  With w_k the window's values at positions p,
|piece_k(x_j)|^2 = sum_{p,q} w_k[p] conj(w_k[q]) exp(2 pi i (p - q).j / N),
so the sum over k needs only the Gram matrix M = sum_k w_k w_k^H, one
matrix product over all pieces.  The sums of M along its lag diagonals
p - q = delta are the coefficients R_delta of a trigonometric polynomial
in x with integer frequencies |delta_j| <= W - 1.  Folding delta modulo N
onto the mesh is exact, even when 2W - 1 > N, because
exp(2 pi i delta.j / N) depends on delta only modulo N: one bincount per
block of M's rows, over the interleaved real and imaginary parts of the
whole batch's block, binned by a cached table of (p - q) mod N.  One
inverse FFT on the mesh then evaluates the sum.  Only the window positions
some piece uses enter M.

Every sum between the frequency mesh and the lattice reads the neighbour
table here: :func:`scatter` takes a mesh array to its sums
sum_xi psi(xi - k) values(xi) at the lattice points k, and :func:`_gather`
takes coefficients g_k to the mesh weight sum_k g_k psi(xi - k).
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

# Beyond this |xi|^2 the mollifier (below 1e-289) and its first derivative
# are set to exactly zero, before any power of 1/(1-|xi|^2) can overflow.
# Every partition weight depends on this value.
_SUPPORT_CAP = 0.9985


def _radius_squared(xi: np.ndarray) -> np.ndarray:
    # np.sum's left-to-right order, without its slow short-axis reduction.
    return sum(xi[..., j] ** 2 for j in range(xi.shape[-1]))


def _bump_of_radius_squared(u: np.ndarray) -> np.ndarray:
    out = np.zeros(u.shape)
    inside = u < _SUPPORT_CAP
    w = 1.0 / (1.0 - u[inside])
    out[inside] = np.exp(-w)
    return out


def mollifier_value(xi) -> np.ndarray:
    """Base bump exp(-1/(1-|xi|^2)) for |xi| < 1, else 0."""
    return _bump_of_radius_squared(_radius_squared(np.asarray(xi, dtype=float)))


def _mollifier_jet(xi: np.ndarray):
    """Value and gradient of the base bump, vectorized.

    Returns (phi, grad) with shapes (...,) and (..., d).
    """
    u = _radius_squared(xi)
    phi = _bump_of_radius_squared(u)
    inside = u < _SUPPORT_CAP
    w = 1.0 / (1.0 - u[inside])
    # d_j phi = -2 xi_j w^2 phi, and exactly zero outside the support.
    factor = np.zeros(u.shape)
    factor[inside] = w**2 * phi[inside]
    return phi, np.where(inside[..., None], -2.0 * xi * factor[..., None], 0.0)


def _neighbor_offsets(dim: int):
    return list(itertools.product((0, 1), repeat=dim))


def _lattice_jet(xi: np.ndarray):
    """Value and gradient of S(xi) = sum_k phi(xi - k).

    Only the 2^dim lattice points nearest to xi can contribute, because the
    mollifier support has radius one.
    """
    lo = np.floor(xi)
    s = np.zeros(xi.shape[:-1])
    sg = np.zeros(xi.shape)
    for off in _neighbor_offsets(xi.shape[-1]):
        p, g = _mollifier_jet(xi - (lo + np.asarray(off, dtype=float)))
        s += p
        sg += g
    return s, sg


def bump_value(xi) -> np.ndarray:
    """Normalized bump psi(xi) = phi(xi) / sum_k phi(xi - k).

    Smooth, even, valued in [0, 1], zero for |xi| >= 1; its integer
    translates sum to one at every point by construction.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    lo = np.floor(xi)
    s = np.zeros(xi.shape[:-1])
    for off in _neighbor_offsets(xi.shape[-1]):
        s += mollifier_value(xi - (lo + np.asarray(off, dtype=float)))
    return mollifier_value(xi) / s


def bump_derivative(xi, beta) -> np.ndarray:
    """Partial derivative of psi of multi-index ``beta``, |beta| <= 1.

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
    if sum(beta) > 1:
        raise ValueError("analytic bump derivatives are limited to order 1")
    if sum(beta) == 0:
        return bump_value(xi)
    phi, grad = _mollifier_jet(xi)
    s, sg = _lattice_jet(xi)
    j = beta.index(1)
    return grad[..., j] / s - phi * sg[..., j] / s**2


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

    def __len__(self) -> int:
        return self.points.shape[0]

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
    ax = spec.axis_frequencies()
    lo_f, hi_f = float(ax[0]), float(ax[-1])
    per_axis = np.arange(int(np.floor(lo_f - 1.0)) + 1, int(np.ceil(hi_f + 1.0)))
    mesh = np.array(list(itertools.product(per_axis, repeat=spec.dim)), dtype=np.int64)
    # Euclidean distance from k to the frequency box [lo_f, hi_f]^dim.
    excess = np.maximum(lo_f - mesh, 0.0) + np.maximum(mesh - hi_f, 0.0)
    keep = np.sum(excess**2, axis=1) < 1.0
    pts = mesh[keep].copy()
    pts.flags.writeable = False
    return UnitLattice(spec=spec, points=pts)


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


def _corner_grid(tables, slab) -> np.ndarray:
    """Combine per-axis (N, 2) corner tables into (rows, 2^dim): row-major
    mesh rows of the first-axis slab ``slab`` by corner offsets in
    lexicographic order, adding the axes' terms left to right."""
    dim = len(tables)
    out = 0
    for axis, table in enumerate(tables):
        if axis == 0:
            table = table[slab]
        shape = [1] * (2 * dim)
        shape[axis], shape[dim + axis] = table.shape
        out = out + table.reshape(shape)
    return out.reshape(-1, 2**dim)


@lru_cache(maxsize=8)
def projection_blocks(spec: GridSpec) -> NeighbourTable:
    """The partition of unity of ``spec`` as a neighbour table, built once
    per grid; its length is the number of unit-scale pieces.

    Every quantity of a corner factors per axis, so the build keeps two
    (N, 2) tables per axis, the squared offset (xi_j - (floor xi_j + o))^2
    and the corner's place in the lattice's lookup box, and broadcasts them
    over slabs of the first axis.  Adding the
    squared offsets axis by axis is the association of
    :func:`mollifier_value`'s sum, and the corners' normalizing sum runs in
    offset order, so the weights equal :func:`bump_value` bit for bit.
    """
    lattice = unit_lattice(spec)
    ax = spec.axis_frequencies()
    n = spec.samples_per_axis
    # Dense lookup over the lattice's bounding box; a corner with a nonzero
    # weight lies within distance one of the frequency box, so in the lattice.
    lo = lattice.points.min(axis=0)
    span = lattice.points.max(axis=0) - lo + 1
    lookup = np.zeros(span, dtype=np.int32)
    lookup[tuple((lattice.points - lo).T)] = np.arange(len(lattice))
    corners = np.floor(ax)[:, None] + np.array([0.0, 1.0])
    squares = [(ax[:, None] - corners) ** 2] * spec.dim
    places = [
        np.clip(corners.astype(np.int64) - lo[j], 0, span[j] - 1) * np.prod(span[j + 1 :])
        for j in range(spec.dim)
    ]
    corner_count = 2**spec.dim
    index = np.zeros((spec.size, corner_count), dtype=np.int32)
    weight = np.zeros((spec.size, corner_count))
    # Slabs of at most N^2 rows keep the temporaries small on 3D grids.
    step = min(n, n**3 // spec.size)
    per_index = spec.size // n
    for first in range(0, n, step):
        slab = slice(first, first + step)
        rows = slice(first * per_index, (first + step) * per_index)
        phi = _bump_of_radius_squared(_corner_grid(squares, slab))
        total = np.zeros(len(phi))
        for column in phi.T:
            total += column
        weight[rows] = phi / total[:, None]
        hit = lookup.reshape(-1)[_corner_grid(places, slab)]
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


def reconstruct(f: Field) -> Field:
    """Sum of all unit-scale pieces; equals f up to rounding because the
    bump translates sum to one at every grid frequency."""
    spec = f.spec
    F = forward_transform(f).coeffs.reshape(-1)
    acc = np.zeros(spec.size, dtype=np.complex128)
    for weight in projection_blocks(spec).weight.T:
        acc += weight * F
    return inverse_transform(Spectrum(spec, acc.reshape(spec.shape)))


def expected_randomized_norm_squared(f: Field) -> float:
    """Closed-form E ||f^omega||_L2^2 = sum_k ||psi(D-k) f||_L2^2."""
    spec = f.spec
    F = forward_transform(f).coeffs.reshape(-1)
    acc = np.zeros(spec.size)
    for weight in projection_blocks(spec).weight.T:
        acc += weight**2
    return float(spec.frequency_cell_volume * np.sum(acc * np.abs(F) ** 2))


def scatter(spec: GridSpec, values: np.ndarray) -> np.ndarray:
    """sum_xi psi(xi - k) values(xi) at each lattice point k, for a real or
    complex mesh array or each of a stack of them (leading axes): per
    corner in lattice order, one bincount of every entry's weighted real
    parts and one of its imaginary parts (zero weights, at lattice index 0,
    included), with the bits of the complex-by-real product's sums."""
    table = projection_blocks(spec)
    n = len(unit_lattice(spec))
    stack = values.reshape(-1, spec.size)
    offsets = n * np.arange(len(stack))[:, None]
    out = np.zeros(len(stack) * n, dtype=stack.dtype)
    parts = [(out.real, stack.real)] + [(out.imag, stack.imag)] * np.iscomplexobj(out)
    for index, weight in zip(table.index.T, table.weight.T):
        bins = (index + offsets).reshape(-1)
        for part, source in parts:
            part += np.bincount(bins, (weight * source).reshape(-1), out.size)
    return out.reshape(values.shape[: values.ndim - spec.dim] + (n,))


@lru_cache(maxsize=8)
def _gather_table(spec: GridSpec) -> tuple:
    """Each corner's lattice indices, and its weights repeated for the
    interleaved real and imaginary parts: the (2^dim, 2 N^dim) factors
    :func:`_gather` scales by."""
    table = projection_blocks(spec)
    weights = np.repeat(table.weight.T, 2, axis=1)
    weights.flags.writeable = False
    return table.index.T, weights


def _gather(spec: GridSpec, coefficients: np.ndarray, out: np.ndarray, scratch: np.ndarray):
    """Row r of ``out``: the mesh weight sum_k g_k psi(xi - k) of the draw in
    row r of ``coefficients``, gathered corner by corner in lattice order;
    ``scratch`` is a work array shaped like ``out``.  Scaling the
    interleaved parts gives the bits of the complex-by-real product.
    Private and, once the grid's cache is built, calling no public
    function, as the density draws run it in their helper thread."""
    parts = scratch.view(np.float64)
    out[...] = 0
    for index, weight in zip(*_gather_table(spec)):
        np.take(coefficients, index, axis=1, out=scratch, mode="clip")  # indices are in range
        parts *= weight
        out += scratch
    return out


@lru_cache(maxsize=8)
def _piece_entries(spec: GridSpec):
    """The neighbour table's nonzero entries, each labelled with its piece.

    Returns (slot, position, row, weight, width): the entry's piece slot
    (its place in ``pieces``), its flat place in that piece's width^dim
    window, its mesh row and its weight psi(xi - k).  A piece's window
    starts at the first mesh frequency of its support along each axis;
    width is the widest per-axis window on the grid.
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
    local = np.stack(np.unravel_index(rows, spec.shape), axis=-1) - first[slot]
    position = np.ravel_multi_index(tuple(local.T), (width,) * spec.dim)
    entries = (slot, position, rows, table.weight[rows, cols])
    for arr in entries:
        arr.flags.writeable = False
    return entries + (width,)


@lru_cache(maxsize=8)
def _window_lags(spec: GridSpec):
    """The Gram matrix's layout, a sibling of :func:`_piece_entries`.

    Returns (scatter, lag): each entry's flat place slot * used + column in
    a (pieces, used) array of windows, its column being its place among the
    window positions that some piece uses (ascending), and for every pair
    (i, j) of those positions the flat mesh index lag[i, j] of
    (pos_i - pos_j) mod N.
    """
    slot, position, _, _, width = _piece_entries(spec)
    in_use = np.bincount(position, minlength=width**spec.dim) > 0
    used = np.flatnonzero(in_use)
    scatter = slot * used.size + (np.cumsum(in_use) - 1)[position]
    n = spec.samples_per_axis
    lag = np.zeros((used.size, used.size), dtype=np.intp)
    for axis in np.unravel_index(used, (width,) * spec.dim):
        lag = lag * n + (axis[:, None] - axis[None, :]) % n
    for arr in (scatter, lag):
        arr.flags.writeable = False
    return scatter, lag


# The Gram matrix is reduced in blocks of rows of at most this many bytes
# per spectrum, and the invariant suite sends as many spectra per call as
# keep the call's temporaries within it (at least one).
_GRAM_BYTES = 1 << 20


def _gram_rows(used: int) -> int:
    return max(1, _GRAM_BYTES // (16 * used))


def _gram_group(spec: GridSpec) -> int:
    """Spectra per :func:`_folded_gram` call: per spectrum, 16 B for each
    gathered entry, each window value and its conjugate, each entry of a
    row block of the Gram matrix and its two int64 bins, and each mesh
    point of the fold and its block's bincount."""
    _, _, row, _, _ = _piece_entries(spec)
    used = len(_window_lags(spec)[1])
    rows = min(used, _gram_rows(used))
    per_spectrum = 16 * (
        2 * (len(projection_blocks(spec)) + rows) * used + row.size + 2 * spec.size
    )
    return max(1, _GRAM_BYTES // per_spectrum)


def _gram_workspace(spec: GridSpec, batch: int):
    """Buffers for up to ``batch`` spectra of :func:`_folded_gram`: values,
    windows, their conjugate, a flat Gram row block and the values' places."""
    values = np.empty((batch, _piece_entries(spec)[2].size), dtype=np.complex128)
    scatter, lag = _window_lags(spec)
    used = len(lag)
    windows = np.zeros((batch, len(projection_blocks(spec)), used), dtype=np.complex128)
    gram = np.empty(batch * min(used, _gram_rows(used)) * used, dtype=np.complex128)
    places = (windows[0].size * np.arange(batch)[:, None] + scatter).reshape(-1)
    return values, windows, np.empty_like(windows), gram, places


def _folded_gram(spec: GridSpec, coeffs: np.ndarray, work=None) -> np.ndarray:
    """The lag sums R_delta of each spectrum's window Gram matrix, folded
    onto the mesh: shape (batch, N^dim) for coefficients of shape
    batch + spec.shape.

    The windows are scattered in one flat assignment, into ``work``
    (:func:`_gram_workspace`) or fresh buffers.  Each block of the Gram
    matrix's rows is folded by one bincount over the interleaved float64
    view of the whole batch's block, binned by 2 (b N^dim + lag) + part;
    each bin adds the same terms in the same order as a bincount per
    spectrum and part would."""
    _, _, row, weight, _ = _piece_entries(spec)
    lag = _window_lags(spec)[1]
    flat = coeffs.reshape(-1, spec.size)
    batch, used = flat.shape[0], len(lag)
    values, windows, conj, gram, places = work or _gram_workspace(spec, batch)
    values, windows, conj = values[:batch], windows[:batch], conj[:batch]
    np.take(flat, row, axis=1, out=values, mode="clip")
    values *= weight
    # Every call fills the same window positions; the others stay zero.
    windows.reshape(-1)[places[: values.size]] = values.reshape(-1)
    np.conjugate(windows, out=conj)
    offsets = 2 * spec.size * np.arange(batch)[:, None, None, None]
    out = np.zeros(2 * batch * spec.size)
    step = _gram_rows(used)
    for start in range(0, used, step):
        lags = lag[start : start + step]
        part = gram[: batch * lags.size].reshape(batch, *lags.shape)
        # gram[b, i, j] = sum_k w_k[i] conj(w_k[j]) over the pieces k.
        np.matmul(windows[:, :, start : start + step].transpose(0, 2, 1), conj, out=part)
        bins = offsets + 2 * lags[:, :, None] + np.arange(2)
        out += np.bincount(bins.reshape(-1), part.view(np.float64).reshape(-1), out.size)
    return out.view(np.complex128).reshape(batch, spec.size)


def _square_function_from_coeffs(spec: GridSpec, coeffs: np.ndarray, work=None):
    """Pointwise (sum_k |piece_k(x)|^2)^(1/2) for coefficients of shape
    batch + spec.shape, one result per spectrum, from the windows' Gram
    matrix (module docstring); ``work`` as for :func:`_folded_gram`.

    Transforming the natural-order spectrum without the usual index shift
    only multiplies each piece by a unimodular (-1)^j checkerboard, which
    the modulus removes.  The result is left in FFT x order (x = 0 at
    index 0): a maximum needs no shift, and :func:`square_function` shifts
    back to natural order.
    """
    folded = _folded_gram(spec, coeffs, work).reshape((-1,) + spec.shape)
    axes = tuple(range(1, spec.dim + 1))
    scale = _TWO_PI ** (spec.dim / 2.0) / spec.cell_volume / spec.size
    total = scale**2 * np.fft.ifftn(folded, axes=axes, norm="forward").real
    return np.sqrt(np.maximum(total, 0.0)).reshape(coeffs.shape)


def square_function(f: Field) -> Field:
    """Pointwise l2 aggregate of the unit-scale pieces (real-valued field)."""
    sq = _square_function_from_coeffs(f.spec, forward_transform(f).coeffs)
    return Field(f.spec, np.fft.fftshift(sq))


def square_function_evolved(f: Field, flow, t: float) -> Field:
    """Square function of the free flow applied to f at time t."""
    sym = propagators.symbol(flow, f.spec, t)
    sq = _square_function_from_coeffs(f.spec, sym * forward_transform(f).coeffs)
    return Field(f.spec, np.fft.fftshift(sq))


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
    slot, _, row, _, _ = _piece_entries(spec)
    points = unit_lattice(spec).points[projection_blocks(spec).pieces]
    far = (np.sqrt(np.sum(points.astype(float) ** 2, axis=1)) >= k_min)[slot]
    rows = row[far]
    xi = np.stack(grids, axis=-1).reshape(-1, spec.dim)[rows]
    der = bump_derivative(xi - points[slot[far]], beta_idx)
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


def square_bound_excess(spec: GridSpec, flows, times, n_fields: int, seed: int) -> list[float]:
    """Per flow (None for the identity), the max over fields and times of
    max_x square function / ||f||_L2, all flows in one pass over the
    fields.

    Each field is drawn and transformed once and each (flow, t != 0)
    symbol built once.  Each spectrum of a field goes through the square
    function once, :func:`_gram_group` spectra at a time in one workspace
    of Gram buffers, not fresh ~1 MB ones per call, and its peak enters
    every flow that produces it: every flow at t = 0, whose symbol is
    exactly 1, shares the untouched spectrum's."""
    rng = np.random.default_rng(seed)
    # Each spectrum by its symbol (None: untouched), with the flows whose
    # excess its peak enters.
    at_zero = any(t == 0 for t in times)
    rows = [(None, [i for i, flow in enumerate(flows) if flow is None or at_zero])]
    rows += [
        (propagators.symbol(flow, spec, t), [i])
        for i, flow in enumerate(flows)
        if flow is not None
        for t in times
        if t != 0
    ]
    rows = [row for row in rows if row[1]]

    def spectra():
        for _ in range(n_fields):
            f = propagators._random_field(spec, rng)
            F = forward_transform(f).coeffs
            norm = l2_norm(f)
            for sym, owners in rows:
                yield (F if sym is None else sym * F), norm, owners

    pending = spectra()
    worst = [0.0] * len(flows)
    size = _gram_group(spec)
    work = _gram_workspace(spec, size)
    while group := list(itertools.islice(pending, size)):
        sq = _square_function_from_coeffs(spec, np.stack([F for F, _, _ in group]), work)
        peaks = np.max(sq.reshape(len(group), -1), axis=1)
        for peak, (_, norm, owners) in zip(peaks, group):
            for i in owners:
                worst[i] = max(worst[i], float(peak / norm))
    return worst


def bernstein_ratio(spec: GridSpec, n_fields: int, seed: int) -> float:
    """Max over fields and lattice points of sup|piece| / ||piece||_L2.

    Each piece's spectrum is transformed from its width^dim window, padded
    with zeros at the mesh origin: moving the window to its true place, like
    the omitted index shifts, multiplies the piece by a unimodular phase
    that neither the sup nor the norm sees."""
    rng = np.random.default_rng(seed)
    slot, position, row, weight, width = _piece_entries(spec)
    window_shape = (len(projection_blocks(spec)),) + (width,) * spec.dim
    scale = _TWO_PI ** (spec.dim / 2.0) / spec.cell_volume
    worst = 0.0
    axes = tuple(range(1, spec.dim + 1))
    for _ in range(n_fields):
        F = forward_transform(propagators._random_field(spec, rng)).coeffs.reshape(-1)
        windows = np.zeros(window_shape, dtype=np.complex128)
        windows.reshape(len(windows), -1)[slot, position] = weight * F[row]
        mags = np.abs(scale * np.fft.ifftn(windows, s=spec.shape, axes=axes))
        mags = mags.reshape(len(windows), -1)
        sup = mags.max(axis=1)
        nrm = np.sqrt((mags**2).sum(axis=1) * spec.cell_volume)
        ok = nrm > 0
        if np.any(ok):
            worst = max(worst, float(np.max(sup[ok] / nrm[ok])))
    return worst


# The free flows of the square-function checks, by grid dimension.
_SUITE_FLOWS = {1: ("kdv",), 2: ("wave-half", "schrodinger:+-"), 3: ("schrodinger:++-",)}


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

    # One pass per grid over the identity and the grid's free flows; the
    # table lists the identities first.
    identities, evolved = [], []
    for dim, spec in sorted(specs_by_dim.items()):
        names = _SUITE_FLOWS[dim]
        flows = [None] + [propagators.FlowKind.parse(name) for name in names]
        plain, *rest = square_bound_excess(spec, flows, (0.0, 0.1, 1.0), 100, seed + 100)
        identities.append((f"identity (dim {dim})", dim, plain))
        evolved += [(name.replace(":", " "), dim, value) for name, value in zip(names, rest)]
    for label, dim, excess in identities + evolved:
        limit = 1.0 + 1e-9
        results.append(
            CheckResult(
                f"square-function bound vs 1 ({label})", excess < limit, excess, limit
            )
        )
        if dim > 1:
            ball = {2: np.pi, 3: 4.0 * np.pi / 3.0}[dim]
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
