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
from .grid import (
    Field,
    GridSpec,
    _l2_norms,
    _transform,
    forward_transform,
)

_TWO_PI = 2.0 * np.pi

# Beyond this |xi|^2 the mollifier, below 1e-289 there, is set to exactly
# zero.  Every partition weight depends on this value.
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


def _neighbor_offsets(dim: int):
    return list(itertools.product((0, 1), repeat=dim))


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


def _reconstructed(spec: GridSpec, fields: np.ndarray) -> np.ndarray:
    """:func:`reconstruct` of each field of a stack, corners in lattice order."""
    F = _transform(spec, fields).reshape(-1, spec.size)
    acc, term = np.zeros_like(F), np.empty_like(F)
    for weight in projection_blocks(spec).weight.T:
        acc += np.multiply(weight, F, out=term)
    return _transform(spec, acc.reshape(fields.shape), inverse=True)


def reconstruct(f: Field) -> Field:
    """Sum of all unit-scale pieces; equals f up to rounding because the
    bump translates sum to one at every grid frequency."""
    return Field(f.spec, _reconstructed(f.spec, f.values))


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


def _gram_trace_and_row_sum(spec: GridSpec, weight: np.ndarray) -> tuple[float, float]:
    """(T, R) of G_w = dxi^d P^T diag(w) P, P[xi, k] = psi(xi - k), for a flat
    mesh weight w >= 0: T = tr G_w = dxi^d sum_xi w(xi) sum_k psi(xi - k)^2
    (E ||f^omega||^2 for w = |F|^2), and R = G_w's largest row sum, a bound on
    ||G_w|| as G_w >= 0: the scatter of w S, S(xi) numpy's row sum of xi's
    corner weights (a corner-by-corner sum has other bits in 3D)."""
    table = projection_blocks(spec)
    rows = scatter(spec, weight * table.weight.sum(axis=1))
    acc = np.zeros(spec.size)
    for column in table.weight.T:
        acc += column**2
    volume = spec.frequency_cell_volume
    return float(volume * np.sum(acc * weight)), volume * float(rows.max())


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
def _windows(spec: GridSpec):
    """The pieces' windows, read by the Gram matrix and the sup/L2 check:
    (source, scale, lag, used, width) over a (pieces, used) array, whose
    columns are the flat width^dim window positions ``used`` that some piece
    uses (ascending); a window starts at its piece's first mesh frequency
    along each axis, and width is the grid's widest.  Per window slot, its
    mesh row, or N^dim (one past the mesh) where no table entry sits, and its
    weight psi(xi - k) (0 there) twice, for the real and imaginary parts; per
    pair (i, j) of positions, the flat mesh index lag[i, j] of
    (pos_i - pos_j) mod N."""
    table = projection_blocks(spec)
    ax = spec.axis_frequencies()
    pts = unit_lattice(spec).points[table.pieces].astype(float)
    first = np.searchsorted(ax, pts - 1.0, side="right")
    width = int(np.max(np.searchsorted(ax, pts + 1.0, side="left") - first))
    rows, cols = np.nonzero(table.weight)
    # Every corner of nonzero weight is a piece, and the pieces ascend.
    slot = np.searchsorted(table.pieces, table.index[rows, cols])
    local = np.stack(np.unravel_index(rows, spec.shape), axis=-1) - first[slot]
    position = np.ravel_multi_index(tuple(local.T), (width,) * spec.dim)
    in_use = np.bincount(position, minlength=width**spec.dim) > 0
    used = np.flatnonzero(in_use)
    place = slot * used.size + (np.cumsum(in_use) - 1)[position]
    source = np.full(len(table) * used.size, spec.size)
    source[place] = rows
    scale = np.repeat(np.bincount(place, table.weight[rows, cols], source.size), 2)
    n = spec.samples_per_axis
    lag = np.zeros((used.size, used.size), dtype=np.intp)
    for axis in np.unravel_index(used, (width,) * spec.dim):
        lag = lag * n + (axis[:, None] - axis[None, :]) % n
    for arr in (source, scale, lag, used):
        arr.flags.writeable = False
    return source, scale, lag, used, width


def _take_windows(spec: GridSpec, padded: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out`` (batch, pieces, used): the windows (:func:`_windows`) of the
    spectra in the rows of ``padded``, each with a zero appended, in one take,
    weighted part by part, so a slot that no entry fills holds exactly 0 and
    the others the bits of the complex-by-real product up to signs of 0."""
    source, scale = _windows(spec)[:2]
    np.take(padded, source, axis=1, out=out.reshape(len(out), -1), mode="clip")
    parts = out.view(np.float64)
    parts *= scale.reshape(parts.shape[1:])
    return out


# The Gram matrix is reduced in blocks of rows of at most this many bytes
# per spectrum, and the invariant suite sends as many spectra per call as
# keep the call's temporaries within it (at least one).
_GRAM_BYTES = 1 << 20


def _gram_rows(used: int) -> int:
    return max(1, _GRAM_BYTES // (16 * used))


def _gram_group(spec: GridSpec) -> int:
    """Spectra per :func:`_folded_gram` call: per spectrum, 16 B for each
    mesh point of the spectrum's copy, the fold and a block's bincount, each
    window value and its conjugate, each entry of a row block of the Gram
    matrix and each entry of the matrix for its two int64 bins."""
    used = len(_windows(spec)[3])
    rows = min(used, _gram_rows(used))
    pieces = len(projection_blocks(spec))
    per_spectrum = 16 * ((2 * pieces + rows + used) * used + 3 * spec.size + 1)
    return max(1, _GRAM_BYTES // per_spectrum)


def _gram_workspace(spec: GridSpec, batch: int):
    """Buffers for up to ``batch`` spectra of :func:`_folded_gram`: the spectra
    with a zero appended, windows, their conjugate, a flat Gram row block, and
    each row block's bins 2 (b N^dim + lag) + part, b-major, so that those of
    fewer spectra are a prefix: 16 B per spectrum and Gram entry."""
    lag = _windows(spec)[2]
    used = len(lag)
    rows = min(used, _gram_rows(used))
    padded = np.zeros((batch, spec.size + 1), dtype=np.complex128)
    windows = np.empty((batch, len(projection_blocks(spec)), used), dtype=np.complex128)
    gram = np.empty(batch * rows * used, dtype=np.complex128)
    offsets = 2 * spec.size * np.arange(batch)[:, None, None, None]
    bins = [offsets + 2 * lag[i : i + rows, :, None] + np.arange(2) for i in range(0, used, rows)]
    return padded, windows, np.empty_like(windows), gram, [b.reshape(-1) for b in bins]


def _folded_gram(spec: GridSpec, coeffs: np.ndarray, work=None) -> np.ndarray:
    """The lag sums R_delta of each spectrum's window Gram matrix, folded
    onto the mesh: shape (batch, N^dim) for coefficients of shape
    batch + spec.shape.

    The windows (:func:`_take_windows`) go into ``work``
    (:func:`_gram_workspace`) or fresh buffers; their signs of 0 only zero
    sums carry, and the fold's bincounts, summing from +0, drop them.  Each
    block of the Gram matrix's rows is folded by one bincount over the
    interleaved float64 view of the whole batch's block, binned by the
    workspace's bins; each bin adds the same terms in the same order as a
    bincount per spectrum and part would."""
    lag = _windows(spec)[2]
    flat = coeffs.reshape(-1, spec.size)
    batch, used = flat.shape[0], len(lag)
    padded, windows, conj, gram, bins = work or _gram_workspace(spec, batch)
    padded, windows, conj = padded[:batch], windows[:batch], conj[:batch]
    padded[:, :-1] = flat
    _take_windows(spec, padded, windows)
    np.conjugate(windows, out=conj)
    out = np.zeros(2 * batch * spec.size)
    step = _gram_rows(used)
    for start, block in zip(range(0, used, step), bins):
        lags = lag[start : start + step]
        part = gram[: batch * lags.size].reshape(batch, *lags.shape)
        # gram[b, i, j] = sum_k w_k[i] conj(w_k[j]) over the pieces k.
        np.matmul(windows[:, :, start : start + step].transpose(0, 2, 1), conj, out=part)
        out += np.bincount(block[: 2 * part.size], part.view(np.float64).reshape(-1), out.size)
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
    total = scale**2 * np.fft.ifftn(folded, axes=axes, norm="forward", out=folded).real
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


_FIELD_CHUNK = 4  # fields per stack that the invariant suite draws and reduces


def _field_stacks(spec: GridSpec, n_fields: int, seed: int):
    """seed's n_fields random fields in stacks of at most _FIELD_CHUNK."""
    rng = np.random.default_rng(seed)
    for start in range(0, n_fields, _FIELD_CHUNK):
        yield propagators._random_fields(spec, rng, min(_FIELD_CHUNK, n_fields - start))


def reconstruction_deviation(spec: GridSpec, n_fields: int, seed: int) -> float:
    """Max relative L2 error of summing all unit-scale pieces, reconstructed
    and normed a stack of fields at a time with the bits of one at a time."""
    worst = 0.0
    for fields in _field_stacks(spec, n_fields, seed):
        err = _l2_norms(spec, _reconstructed(spec, fields) - fields)
        worst = max(worst, float(np.max(err / _l2_norms(spec, fields))))
    return worst


def square_bound_excess(spec: GridSpec, flows, times, n_fields: int, seed: int) -> list[float]:
    """Per flow (None for the identity), the max over fields and times of
    max_x square function / ||f||_L2, all flows in one pass over the
    fields.

    The fields are drawn, transformed and normed once, in stacks, and each
    (flow, t != 0) symbol built once.  Each spectrum goes through the square
    function once, :func:`_gram_group` spectra at a time in one workspace
    of Gram buffers, not fresh ~1 MB ones per call, and its peak enters
    every flow that produces it: every flow at t = 0, whose symbol is
    exactly 1, shares the untouched spectrum's."""
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

    pending = (
        ((F if sym is None else sym * F), norm, owners)
        for fields in _field_stacks(spec, n_fields, seed)
        for F, norm in zip(_transform(spec, fields), _l2_norms(spec, fields))
        for sym, owners in rows
    )
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


@lru_cache(maxsize=8)
def _top_eigenpair(spec: GridSpec):
    """B's top eigenvalue and unit eigenvector v, B = P^T P on the whole
    lattice (:func:`_gram_trace_and_row_sum`), cached; B is never formed.
    Lanczos (J. Res. NBS 1950) from the ones vector, fully reorthogonalized
    (Paige 1972), with B u the scatter of u's gather, builds T = Q^T B Q, Q 8
    rows at a time.  Every 8 steps (or at n or beta ~ 0), T's top pair
    (theta, y) comes from squaring T >= 0 entrywise (T^(2^j) at trace 1 tends
    to y y^T, whose row sums give y) until |T y - theta y| <= theta rtol / 2,
    rtol = _SHARP_RTOL, and (theta, Q y) is taken once beta |y_last| <= theta
    rtol / 2, so |B v - theta v| <= theta rtol.  No LAPACK eigensolver is
    loaded (eigh: about 1.4 MB of code pages, 4 % of check-wiener's peak RSS)."""
    n = len(unit_lattice(spec))
    out, scratch = np.empty((2, 1, spec.size), dtype=np.complex128)
    basis, alpha, beta = np.full((8, n), n**-0.5), np.zeros(n), np.zeros(n)
    for m in range(1, n + 1):
        q = basis[:m]
        image = scatter(spec, _gather(spec, q[-1:].astype(np.complex128), out, scratch)[0].real)
        alpha[m - 1] = q[-1] @ image
        for _ in range(2):  # classical Gram-Schmidt, twice
            image -= q.T @ (q @ image)
        beta[m - 1] = np.linalg.norm(image)
        # beta ~ 0: the Krylov space is invariant, and holds the top pair.
        if beta[m - 1] <= alpha[0] * _SHARP_RTOL / 2 or m == n or m % 8 == 0:
            tri = np.diag(alpha[:m]) + np.diag(beta[: m - 1], 1) + np.diag(beta[: m - 1], -1)
            power = tri / np.trace(tri)
            while True:
                y = power.sum(axis=1) / np.linalg.norm(power.sum(axis=1))
                value = y @ tri @ y
                if np.linalg.norm(tri @ y - value * y) <= value * _SHARP_RTOL / 2:
                    break
                power = power @ power
                power /= np.trace(power)
            if m == n or beta[m - 1] * abs(y[-1]) <= value * _SHARP_RTOL / 2:
                vector = y @ q
                vector /= np.linalg.norm(vector)
                vector.flags.writeable = False
                return value, vector
            basis = np.concatenate([basis, np.empty((8, n))])
        basis[m] = image / beta[m - 1]


def extremal_square_ratios(spec: GridSpec, flows, times):
    """The sharp constant of max_x Sq f / ||f||_L2, and per flow (None: the
    identity, once) the ratio its extremal field reaches at each time t != 0.

    Sq f(x)^2 = (2 pi)^-d dxi^2d |P^T (e^{ix.xi} F)|^2, so the constant is
    (2 pi)^(-d/2) sqrt(dxi^d lambda_max(B)), attained at x = 0 by spectrum
    P v.  For a flow the field's spectrum is conj(symbol) P v, evolved to
    |symbol|^2 P v: a unimodular flow attains the constant too."""
    value, vector = _top_eigenpair(spec)
    sharp = _TWO_PI ** (-spec.dim / 2.0) * float(np.sqrt(spec.frequency_cell_volume * value))
    out, scratch = np.empty((2, 1, spec.size), dtype=np.complex128)
    extremal = _gather(spec, vector.astype(np.complex128)[None], out, scratch).reshape(spec.shape)
    ratios = []
    for flow in flows:
        symbols = [propagators.symbol(flow, spec, t) for t in times if t != 0] if flow else [1.0]
        ratios.append([])
        for sym in symbols:
            data = np.conjugate(sym) * extremal
            norm = np.sqrt(spec.frequency_cell_volume * np.sum(np.abs(data) ** 2))
            peak = np.max(_square_function_from_coeffs(spec, sym * data))
            ratios[-1].append(float(peak / norm))
    return sharp, ratios


def _sup_to_l2(spec: GridSpec, windows: np.ndarray) -> float:
    """Max of sup|piece| / ||piece||_L2 over the nonzero pieces given as rows
    of (pieces, used) windows (:func:`_windows`), each transformed as its
    width^dim window padded with zeros at the mesh origin: the move to the
    true place, like the omitted index shifts, is a unimodular phase that
    neither sup nor norm sees.  Blocks of pieces whose padded spectra take
    at most _GRAM_BYTES."""
    used, width = _windows(spec)[3:]
    scale = _TWO_PI ** (spec.dim / 2.0) / spec.cell_volume
    axes = tuple(range(1, spec.dim + 1))
    step = max(1, _GRAM_BYTES // (16 * spec.size))
    worst = 0.0
    for start in range(0, len(windows), step):
        rows = windows[start : start + step]
        block = np.zeros((len(rows),) + (width,) * spec.dim, dtype=np.complex128)
        block.reshape(len(rows), -1)[:, used] = rows
        mags = np.abs(scale * np.fft.ifftn(block, s=spec.shape, axes=axes))
        mags = mags.reshape(len(block), -1)
        sup = mags.max(axis=1)
        nrm = np.sqrt((mags**2).sum(axis=1) * spec.cell_volume)
        ok = nrm > 0
        if np.any(ok):
            worst = max(worst, float(np.max(sup[ok] / nrm[ok])))
    return worst


def bernstein_ratio(spec: GridSpec, n_fields: int, seed: int) -> float:
    """Max over fields and lattice points of sup|piece| / ||piece||_L2
    (:func:`_sup_to_l2`).  Fields are drawn and transformed in stacks,
    pieces one field at a time, their windows taken as the Gram matrix's."""
    padded = np.zeros((1, spec.size + 1), dtype=np.complex128)
    shape = (1, len(projection_blocks(spec)), len(_windows(spec)[3]))
    windows = np.empty(shape, dtype=np.complex128)
    worst = 0.0
    for fields in _field_stacks(spec, n_fields, seed):
        for F in _transform(spec, fields).reshape(len(fields), -1):
            padded[0, :-1] = F
            worst = max(worst, _sup_to_l2(spec, _take_windows(spec, padded, windows)[0]))
    return worst


def one_piece_bound(spec: GridSpec) -> tuple[float, float]:
    """The sharp sup/L2 constant of one piece, (2 pi)^(-d/2) sqrt(dxi^d
    max_k |S_k|) with S_k the mesh points where psi_k > 0, and the ratio
    that the piece equal to 1 on the largest S_k, which attains it at
    x = 0, reaches through :func:`_sup_to_l2`."""
    filled = _windows(spec)[0].reshape(len(projection_blocks(spec)), -1) < spec.size
    counts = np.count_nonzero(filled, axis=1)
    largest = np.argmax(counts)
    constant = _TWO_PI ** (-spec.dim / 2.0) * np.sqrt(spec.frequency_cell_volume * counts[largest])
    return float(constant), _sup_to_l2(spec, filled[largest : largest + 1].astype(np.complex128))


# The free flows of the square-function checks, by grid dimension.
_SUITE_FLOWS = {1: ("kdv",), 2: ("wave-half", "schrodinger:+-"), 3: ("schrodinger:++-",)}
# A bound holds to this relative tolerance, and a sharp constant is attained to it.
_SHARP_RTOL = 1e-12


def invariant_report(
    specs_by_dim: dict[int, GridSpec], seed: int = 20240901
) -> list[CheckResult]:
    """Run the decomposition invariant suite used by ``check-wiener``: per
    grid the partition of unity, reconstruction, and the square function's
    sharp constant, bounding white noise under each flow and attained under
    each unimodular one; on three 1D sizes the one-piece sup/L2 constant,
    bounding white noise and attained, and grid independence."""
    results: list[CheckResult] = []
    for dim, spec in sorted(specs_by_dim.items()):
        dev = partition_deviation(dim, 10_000, seed + dim)
        results.append(CheckResult.below(f"partition of unity (dim {dim})", dev, 1e-12))
        rec = reconstruction_deviation(spec, 100, seed + 10 + dim)
        results.append(CheckResult.below(f"reconstruction (dim {dim})", rec, 1e-10))

    # One pass per grid over the identity and the grid's free flows; the
    # table lists the identities first.
    times = (0.0, 0.1, 1.0)
    identities, evolved = [], []
    for dim, spec in sorted(specs_by_dim.items()):
        names = _SUITE_FLOWS[dim]
        flows = [None] + [propagators.FlowKind.parse(name) for name in names]
        peaks = square_bound_excess(spec, flows, times, 100, seed + 100)
        sharp, ratios = extremal_square_ratios(spec, flows, times)
        # wave-half, cos(t|xi|), is a contraction: its field falls short.
        rows = [(sharp, peak, None if flow and flow.family == "wave-half" else ratio)
                for flow, peak, ratio in zip(flows, peaks, ratios)]
        identities.append((f"identity (dim {dim})",) + rows[0])
        evolved += [(name.replace(":", " "),) + row for name, row in zip(names, rows[1:])]
    for label, sharp, peak, ratio in identities + evolved:
        name = f"square-function bound vs sharp constant ({label})"
        results.append(CheckResult.below(name, peak, sharp * (1.0 + _SHARP_RTOL)))
        if ratio is not None:
            worst = max(ratio, key=lambda r: abs(r - sharp))
            name = f"square-function bound attained by the extremal field ({label})"
            results.append(CheckResult.attains(name, worst, sharp, _SHARP_RTOL))

    if 1 in specs_by_dim:
        grids = [GridSpec(1, n, specs_by_dim[1].extent) for n in (64, 128, 256)]
        ratios = [bernstein_ratio(grid, 10, seed + 7) for grid in grids]
        bounds = [one_piece_bound(grid) for grid in grids]
        sizes = "grid sizes 64/128/256"
        # Each line shows the grid nearest to failing it.
        ratio, (constant, _) = max(zip(ratios, bounds), key=lambda p: p[0] / p[1][0])
        name = f"unit-scale sup/L2 ratio vs one-piece constant, {sizes}"
        results.append(CheckResult.below(name, ratio, constant * (1.0 + _SHARP_RTOL)))
        constant, attained = max(bounds, key=lambda b: abs(b[1] / b[0] - 1.0))
        name = f"unit-scale sup/L2 constant attained by one piece, {sizes}"
        results.append(CheckResult.attains(name, attained, constant, _SHARP_RTOL))
        spread = max(ratios) / min(ratios)
        results.append(CheckResult.below("unit-scale sup/L2 ratio grid independence", spread, 1.2))
    return results
