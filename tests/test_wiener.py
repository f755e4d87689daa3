from functools import lru_cache
import itertools
import sys
import weakref

import numpy as np
import pytest
import scipy.fft

from dispersim.grid import (
    Field,
    GridSpec,
    Spectrum,
    forward_transform,
    inverse_transform,
    l2_norm,
)
from dispersim import wiener
from dispersim.propagators import FlowKind, symbol
from dispersim.randomize import RandomDraw, randomize_field
from dispersim.wiener import (
    _square_function_from_coeffs,
    bernstein_ratio,
    bump_value,
    one_piece_bound,
    partition_deviation,
    projection_blocks,
    reconstruct,
    reconstruction_deviation,
    scatter,
    smooth_step,
    square_bound_excess,
    square_function,
    square_function_evolved,
    unit_lattice,
)


def random_field(spec, rng):
    return Field(spec, rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape))


def piece(f, k):
    """The unit-scale piece psi(D - k) f, as the randomization of f whose
    coefficient is 1 at k and 0 elsewhere."""
    lattice = unit_lattice(f.spec)
    one_hot = np.zeros(len(lattice))
    row = np.all(lattice.points == k, axis=1)
    assert np.count_nonzero(row) == 1
    one_hot[row] = 1.0
    return randomize_field(f, RandomDraw(lattice, one_hot))


def old_mollifier_value(xi):
    return wiener._bump_of_radius_squared(np.sum(xi**2, axis=-1))


def old_lattice_sum(xi):
    """sum_k phi(xi - k) over the 2^dim translates nearest to xi."""
    lo = np.floor(xi)
    s = np.zeros(xi.shape[:-1])
    for off in itertools.product((0, 1), repeat=xi.shape[-1]):
        s += old_mollifier_value(xi - (lo + np.asarray(off, dtype=float)))
    return s


def edge_points(dim, rng):
    """Random points around the support, half of them with |xi|^2 just
    below the support cap, and some with a coordinate of +0.0 or -0.0."""
    inner = rng.uniform(-1.2, 1.2, size=(5000, dim))
    inner[:10, 0] = 0.0
    inner[10:20, 0] = -0.0
    direction = rng.standard_normal((5000, dim))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    gap = 10.0 ** rng.uniform(-12, -3, size=(5000, 1))
    edge = direction * np.sqrt(wiener._SUPPORT_CAP - gap)
    return np.concatenate([inner, edge])


class TestBump:
    def test_zero_on_support_boundary(self):
        assert bump_value(np.array([1.0])) == 0.0
        assert bump_value(np.array([-1.0])) == 0.0
        assert bump_value(np.array([0.6, 0.8])) == 0.0  # |xi| = 1 in 2d

    def test_range_and_center(self):
        vals = bump_value(np.linspace(-2, 2, 801).reshape(-1, 1))
        assert np.all(vals >= 0) and np.all(vals <= 1)
        assert bump_value(np.array([0.0])) == 1.0

    def test_even(self):
        pts = np.linspace(0.0, 0.99, 100).reshape(-1, 1)
        assert np.max(np.abs(bump_value(pts) - bump_value(-pts))) < 1e-15

    def test_half_integer_value(self):
        # At half-integers exactly two translates are active and equal.
        assert abs(bump_value(np.array([0.5])) - 0.5) < 1e-15

    def test_translates_sum_to_one_at_sample_point(self):
        xi = 0.37
        total = sum(float(bump_value(np.array([xi - k]))) for k in (-1, 0, 1, 2))
        assert abs(total - 1.0) < 1e-12

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_partition_of_unity_random_points(self, dim):
        assert partition_deviation(dim, 10_000, seed=dim) < 1e-12

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_equals_value_branch_bitwise(self, dim):
        xi = edge_points(dim, np.random.default_rng(30 + dim))
        expected = old_mollifier_value(xi) / old_lattice_sum(xi)
        assert bump_value(xi).tobytes() == expected.tobytes()


class TestSmoothStep:
    def test_endpoints_and_monotone(self):
        s = np.linspace(-0.5, 1.5, 201)
        vals = smooth_step(s)
        assert np.all(vals[s <= 0] == 0.0)
        assert np.all(vals[s >= 1] == 1.0)
        assert np.all(np.diff(vals) >= -1e-15)


class TestUnitLattice:
    def test_covers_grid_frequencies(self):
        # Every grid frequency must have its full set of active translates
        # listed, so summing psi over the lattice gives exactly 1.
        for dim, n, L in ((1, 64, 16.0), (2, 16, 8.0)):
            spec = GridSpec(dim, n, L)
            lattice = unit_lattice(spec)
            mesh = np.stack(spec.frequency_grids(), axis=-1).reshape(-1, dim)
            total = np.zeros(mesh.shape[0])
            for k in lattice.points:
                total += bump_value(mesh - k.astype(float))
            assert np.max(np.abs(total - 1.0)) < 1e-12

    def test_digest_stable(self):
        spec = GridSpec(1, 64, 16.0)
        assert unit_lattice(spec).digest() == unit_lattice(spec).digest()


class TestProject:
    def test_pure_mode_splits_between_two_neighbors(self):
        # xi0 = 0.2 lies strictly between lattice points 0 and 1, ruling
        # out every other translate (|0.2 - k| >= 1 for k not in {0, 1}).
        spec = GridSpec(1, 64, 10 * np.pi)  # dxi = 0.2
        xi0 = spec.dxi  # exactly 0.2
        assert abs(xi0 - 0.2) < 1e-15
        f = Field(spec, np.exp(1j * xi0 * spec.axis_coordinates()))
        p0 = piece(f, (0,))
        p1 = piece(f, (1,))
        recombined = p0.values + p1.values
        assert np.max(np.abs(recombined - f.values)) < 1e-10
        for k in (-2, -1, 2, 3):
            assert np.max(np.abs(piece(f, (k,)).values)) < 1e-12

    @pytest.mark.parametrize("dim,n,L", [(1, 64, 16.0), (2, 16, 8.0), (3, 16, 8.0)])
    def test_reconstruction_random_fields(self, dim, n, L):
        spec = GridSpec(dim, n, L)
        rng = np.random.default_rng(dim)
        for _ in range(10):
            f = random_field(spec, rng)
            rec = reconstruct(f)
            err = l2_norm(Field(spec, rec.values - f.values))
            assert err < 1e-10 * l2_norm(f)

    def test_reconstruct_matches_explicit_projection_sum(self):
        spec = GridSpec(1, 64, 16.0)
        rng = np.random.default_rng(17)
        f = random_field(spec, rng)
        total = np.zeros(spec.shape, dtype=complex)
        for k in unit_lattice(spec).points:
            total += piece(f, k).values
        assert np.max(np.abs(total - reconstruct(f).values)) < 1e-12


class TestSquareFunction:
    def test_zero_field(self):
        spec = GridSpec(1, 64, 16.0)
        sq = square_function(Field(spec, np.zeros(64)))
        assert np.all(sq.values == 0)

    def test_bounded_by_l2_norm(self):
        rng = np.random.default_rng(12)
        for dim, n, L in ((1, 64, 16.0), (2, 16, 8.0)):
            spec = GridSpec(dim, n, L)
            for _ in range(10):
                f = random_field(spec, rng)
                sq = square_function(f)
                assert np.max(sq.values.real) <= (1 + 1e-9) * l2_norm(f)

    def test_integer_mode_square_function_is_constant(self):
        # For a mode at an integer lattice frequency the partition puts the
        # whole mass on a single translate, so the aggregate is |amplitude|.
        spec = GridSpec(1, 64, 8 * np.pi)  # dxi = 0.25, xi = 1 on the lattice
        f = Field(spec, 2.0 * np.exp(1j * 1.0 * spec.axis_coordinates()))
        sq = square_function(f)
        assert np.max(np.abs(sq.values.real - 2.0)) < 1e-10

    def test_evolved_at_t0_matches_plain(self):
        spec = GridSpec(1, 64, 16.0)
        rng = np.random.default_rng(3)
        f = random_field(spec, rng)
        a = square_function(f)
        b = square_function_evolved(f, FlowKind.parse("kdv"), 0.0)
        assert np.max(np.abs(a.values - b.values)) < 1e-12

    def test_evolved_bounds(self):
        rng = np.random.default_rng(7)
        spec1 = GridSpec(1, 64, 16.0)
        kdv = FlowKind.parse("kdv")
        for _ in range(5):
            f = random_field(spec1, rng)
            sq = square_function_evolved(f, kdv, 0.3)
            assert np.max(sq.values.real) <= (1 + 1e-9) * l2_norm(f)
        spec2 = GridSpec(2, 16, 8.0)
        s3 = FlowKind.parse("schrodinger:+-")
        for _ in range(5):
            f = random_field(spec2, rng)
            sq = square_function_evolved(f, s3, 0.1)
            assert np.max(sq.values.real) <= (1 + 1e-9) * l2_norm(f)


def piece_entries(spec):
    """The neighbour table's nonzero entries: (piece slot, flat place in the
    piece's width^dim window, mesh row, weight psi(xi - k))."""
    table, width = projection_blocks(spec), wiener._windows(spec)[-1]
    rows, cols = np.nonzero(table.weight)
    slot = np.searchsorted(table.pieces, table.index[rows, cols])
    first = np.searchsorted(spec.axis_frequencies(), unit_lattice(spec).points - 1.0, side="right")
    local = np.unravel_index(rows, spec.shape) - first[table.pieces[slot]].T
    return slot, np.ravel_multi_index(local, (width,) * spec.dim), rows, table.weight[rows, cols]


def old_bernstein_ratio(spec, n_fields, seed):
    """The sup/L2 check on full-mesh piece spectra, 256 pieces at a time,
    from the entries sorted by piece."""
    slot, _, row, weight = piece_entries(spec)
    order = np.argsort(slot, kind="stable")
    slot, row, weight = slot[order], row[order], weight[order]
    pieces = len(projection_blocks(spec))
    rng = np.random.default_rng(seed)
    scale = (2.0 * np.pi) ** (spec.dim / 2.0) / spec.cell_volume
    axes = tuple(range(1, spec.dim + 1))
    worst = 0.0
    for _ in range(n_fields):
        flat = forward_transform(random_field(spec, rng)).coeffs.reshape(-1)
        for start in range(0, pieces, 256):
            count = min(256, pieces - start)
            part = slice(*np.searchsorted(slot, (start, start + count)))
            stack = np.zeros((count, spec.size), dtype=np.complex128)
            stack[slot[part] - start, row[part]] = weight[part] * flat[row[part]]
            stack = stack.reshape((count,) + spec.shape)
            mags = np.abs(scale * np.fft.ifftn(stack, axes=axes)).reshape(count, -1)
            sup = mags.max(axis=1)
            nrm = np.sqrt((mags**2).sum(axis=1) * spec.cell_volume)
            ok = nrm > 0
            if np.any(ok):
                worst = max(worst, float(np.max(sup[ok] / nrm[ok])))
    return worst


def loop_bernstein_ratio(spec, n_fields, seed):
    """The sup/L2 check field by field: each field drawn and transformed
    alone, its pieces from windows padded at the mesh origin."""
    slot, position, row, weight = piece_entries(spec)
    width = wiener._windows(spec)[-1]
    window_shape = (len(projection_blocks(spec)),) + (width,) * spec.dim
    rng = np.random.default_rng(seed)
    scale = (2.0 * np.pi) ** (spec.dim / 2.0) / spec.cell_volume
    axes = tuple(range(1, spec.dim + 1))
    worst = 0.0
    for _ in range(n_fields):
        flat = forward_transform(random_field(spec, rng)).coeffs.reshape(-1)
        windows = np.zeros(window_shape, dtype=np.complex128)
        windows.reshape(len(windows), -1)[slot, position] = weight * flat[row]
        mags = np.abs(scale * np.fft.ifftn(windows, s=spec.shape, axes=axes))
        mags = mags.reshape(len(windows), -1)
        nrm = np.sqrt((mags**2).sum(axis=1) * spec.cell_volume)
        worst = max(worst, float(np.max(mags.max(axis=1)[nrm > 0] / nrm[nrm > 0])))
    return worst


class TestBernstein:
    @pytest.mark.parametrize(
        "spec",
        [GridSpec(1, n, 16.0) for n in (64, 128, 256)] + [GridSpec(1, 16, 4.0)],
        ids=["64/16", "128/16", "256/16", "16/4"],
    )
    def test_windows_equal_full_mesh_stacks(self, spec):
        got = bernstein_ratio(spec, 5, seed=3)
        # Windows padded at the origin round unlike full-mesh stacks (one
        # ulp apart on 128/16), so only the window loop can match exactly.
        assert abs(got - old_bernstein_ratio(spec, 5, seed=3)) <= 1e-12 * got
        assert got == loop_bernstein_ratio(spec, 5, seed=3)

    def test_sup_to_l2_ratio_grid_independent(self):
        # Unit-scale pieces satisfy sup|piece| <= C ||piece||_L2 with each
        # grid's one-piece constant C, 0.6124 on extent 16 at every size
        # (the continuum's, sqrt(2/(2 pi)) ~ 0.564, is not a bound here).
        grids = [GridSpec(1, n, 16.0) for n in (64, 128, 256)]
        ratios = [bernstein_ratio(grid, 5, seed=2) for grid in grids]
        for grid, ratio in zip(grids, ratios):
            assert ratio <= one_piece_bound(grid)[0] * (1.0 + 1e-12)
        assert max(ratios) / min(ratios) < 1.2


# ---------------------------------------------------------------------------
# Neighbour table against the block-loop reference
# ---------------------------------------------------------------------------

TABLE_SPECS = [GridSpec(1, 64, 16.0), GridSpec(2, 32, 16.0), GridSpec(3, 16, 8.0)]


def _axis_window(ax, center):
    lo = np.searchsorted(ax, center - 1.0, side="right")
    hi = np.searchsorted(ax, center + 1.0, side="left")
    return slice(lo, hi)


@lru_cache(maxsize=None)
def reference_blocks(spec):
    """The partition as a loop over lattice points: one (lattice index,
    support windows, bump block) per point whose window |xi_j - k_j| < 1
    meets the mesh, in lattice order."""
    ax = spec.axis_frequencies()
    out = []
    for idx, k in enumerate(unit_lattice(spec).points):
        windows = tuple(_axis_window(ax, float(k[j])) for j in range(spec.dim))
        if any(w.stop <= w.start for w in windows):
            continue
        sub = np.meshgrid(*(ax[w] for w in windows), indexing="ij")
        block = bump_value(np.stack(sub, axis=-1) - np.asarray(k, dtype=float))
        out.append((idx, windows, block))
    return out


def reference_randomized_weights(spec, coefficients):
    weights = np.zeros(spec.shape, dtype=np.complex128)
    for idx, windows, block in reference_blocks(spec):
        weights[windows] += coefficients[idx] * block
    return weights


def reference_square_function(spec, coeffs):
    blocks = reference_blocks(spec)
    scale = (2.0 * np.pi) ** (spec.dim / 2.0) / spec.cell_volume
    total = np.zeros(spec.shape)
    axes = tuple(range(1, spec.dim + 1))
    for start in range(0, len(blocks), 256):
        chunk = blocks[start : start + 256]
        stack = np.zeros((len(chunk),) + spec.shape, dtype=np.complex128)
        for i, (_, windows, block) in enumerate(chunk):
            stack[(i,) + windows] = block * coeffs[windows]
        total += np.sum(np.abs(scale * scipy.fft.ifftn(stack, axes=axes)) ** 2, axis=0)
    return np.sqrt(np.fft.fftshift(total))


def _spec_id(spec):
    return f"{spec.dim}d-{spec.samples_per_axis}"


@pytest.mark.parametrize("spec", TABLE_SPECS, ids=_spec_id)
class TestNeighbourTable:
    def test_shape_and_piece_count(self, spec):
        table = projection_blocks(spec)
        assert table.index.shape == table.weight.shape == (spec.size, 2**spec.dim)
        assert table.index.dtype == np.int32
        assert len(table) == len(reference_blocks(spec))
        assert [idx for idx, _, _ in reference_blocks(spec)] == list(table.pieces)

    def test_rows_sum_to_one(self, spec):
        table = projection_blocks(spec)
        assert np.max(np.abs(table.weight.sum(axis=1) - 1.0)) < 1e-12

    def test_nonzero_weights_point_at_near_lattice_points(self, spec):
        table = projection_blocks(spec)
        xi = np.stack(spec.frequency_grids(), axis=-1).reshape(-1, 1, spec.dim)
        k = unit_lattice(spec).points[table.index]
        dist = np.sqrt(np.sum((xi - k) ** 2, axis=-1))
        live = table.weight != 0
        assert np.all(dist[live] < 1.0)
        assert np.all(table.index[~live] == 0)

    def test_weights_equal_block_loop(self, spec):
        table = projection_blocks(spec)
        points = unit_lattice(spec).points
        per_point = np.zeros(spec.shape)
        for idx, windows, block in reference_blocks(spec):
            dense = np.zeros(spec.shape)
            dense[windows] = block
            hit = table.index == idx
            from_table = np.where(hit, table.weight, 0.0).sum(axis=1)
            assert np.array_equal(from_table.reshape(spec.shape), dense), points[idx]
            per_point += dense != 0
        assert np.array_equal(per_point.reshape(-1), np.sum(table.weight != 0, axis=1))

    def test_reconstruct_bitwise(self, spec):
        f = random_field(spec, np.random.default_rng(spec.dim))
        F = forward_transform(f)
        acc = np.zeros(spec.shape, dtype=np.complex128)
        for _, windows, block in reference_blocks(spec):
            acc[windows] += block * F.coeffs[windows]
        expected = inverse_transform(Spectrum(spec, acc))
        assert np.array_equal(reconstruct(f).values, expected.values)

    def test_square_function_bitwise(self, spec):
        f = random_field(spec, np.random.default_rng(10 + spec.dim))
        coeffs = forward_transform(f).coeffs
        expected = reference_square_function(spec, coeffs)
        got = square_function(f).values.real
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(expected)

    def test_project_matches_block_loop(self, spec):
        # The one-hot randomization is the unit-scale projection psi(D - k) f.
        f = random_field(spec, np.random.default_rng(20 + spec.dim))
        F = forward_transform(f)
        for idx, windows, block in reference_blocks(spec)[::7]:
            masked = np.zeros(spec.shape, dtype=np.complex128)
            masked[windows] = block * F.coeffs[windows]
            expected = inverse_transform(Spectrum(spec, masked)).values
            assert np.array_equal(piece(f, unit_lattice(spec).points[idx]).values, expected)

    def test_windowed_series_matches_block_loop(self, spec):
        f = random_field(spec, np.random.default_rng(30 + spec.dim))
        weighted = forward_transform(f).coeffs
        expected = np.zeros(len(unit_lattice(spec)), dtype=np.complex128)
        for idx, windows, block in reference_blocks(spec):
            expected[idx] = np.sum(block * weighted[windows])
        got = scatter(spec, weighted)
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_windowed_series_of_a_stack_matches_each_row(self, spec):
        rng = np.random.default_rng(40 + spec.dim)
        stack = np.stack(
            [forward_transform(random_field(spec, rng)).coeffs for _ in range(3)]
        )
        got = scatter(spec, stack)
        assert got.shape == (3, len(unit_lattice(spec)))
        for row, weighted in zip(got, stack):
            assert np.array_equal(row, scatter(spec, weighted))


BUILD_SPECS = [
    GridSpec(1, 256, 40.0),
    GridSpec(2, 64, 32.0),
    GridSpec(3, 16, 8.0),
    GridSpec(3, 32, 16.0),
]


@pytest.mark.parametrize("spec", BUILD_SPECS, ids=_spec_id)
def test_partition_build_equals_bump_value_per_corner(spec):
    # The build shares one normalizing sum between a mesh point's corners;
    # bump_value recomputes it for each corner.
    ax = spec.axis_frequencies()
    rows = np.arange(spec.size)
    xi = ax[np.stack(np.unravel_index(rows, spec.shape), axis=-1)][:, None, :]
    offsets = np.array(list(np.ndindex((2,) * spec.dim)), dtype=float)
    corners = np.floor(xi) + offsets
    assert np.array_equal(projection_blocks(spec).weight, bump_value(xi - corners))


def row_chunk_table(spec, rows_per_chunk=512):
    """The neighbour table's (index, weight) built on (rows, 2^dim, dim)
    chunks of mesh rows, the radial bump evaluated at every corner of
    every row: the reference the per-axis build must equal bit for bit."""
    lattice = unit_lattice(spec)
    ax = spec.axis_frequencies()
    lo = lattice.points.min(axis=0)
    span = lattice.points.max(axis=0) - lo + 1
    lookup = np.zeros(span, dtype=np.int32)
    lookup[tuple((lattice.points - lo).T)] = np.arange(len(lattice))
    offsets = np.array(list(np.ndindex((2,) * spec.dim)), dtype=float)
    index = np.zeros((spec.size, len(offsets)), dtype=np.int32)
    weight = np.zeros((spec.size, len(offsets)))
    for start in range(0, spec.size, rows_per_chunk):
        rows = np.arange(start, min(start + rows_per_chunk, spec.size))
        xi = ax[np.stack(np.unravel_index(rows, spec.shape), axis=-1)][:, None, :]
        corners = np.floor(xi) + offsets
        phi = wiener.mollifier_value(xi - corners)
        total = np.zeros(len(rows))
        for column in phi.T:
            total += column
        weight[rows] = phi / total[:, None]
        rel = np.clip(corners.astype(np.int64) - lo, 0, span - 1)
        hit = lookup[tuple(np.moveaxis(rel, -1, 0))]
        index[rows] = np.where(weight[rows] != 0, hit, 0)
    return index, weight


ROW_CHUNK_SPECS = [
    GridSpec(1, 64, 16.0),
    GridSpec(1, 256, 40.0),
    GridSpec(2, 32, 16.0),
    GridSpec(2, 64, 32.0),
    GridSpec(3, 16, 8.0),
    GridSpec(3, 16, 16.0),
    GridSpec(3, 16, 32.0),
    GridSpec(3, 32, 16.0),
]


@pytest.mark.parametrize(
    "spec", ROW_CHUNK_SPECS, ids=lambda s: f"{_spec_id(s)}-{s.extent:g}"
)
def test_per_axis_build_equals_row_chunk_build(spec):
    index, weight = row_chunk_table(spec)
    table = projection_blocks(spec)
    assert table.index.dtype == index.dtype and table.weight.dtype == weight.dtype
    assert np.array_equal(table.index, index)
    assert np.array_equal(table.weight, weight)


# ---------------------------------------------------------------------------
# Square function against a direct sum over pieces and mesh frequencies
# ---------------------------------------------------------------------------

# The last grid has windows of 13 points per axis on a 16-point mesh, so its
# autocorrelation lags (up to +-12) fold modulo N.
ORACLE_SPECS = TABLE_SPECS + [GridSpec(1, 16, 40.0)]
ORACLE_FLOWS = {1: "kdv", 2: "schrodinger:+-", 3: "schrodinger:++-"}
# Windows of 11 points per axis: 107 of 121 positions in use on the 2D
# grid, 989 of 1331 on the 3D one, whose Gram matrix is reduced in blocks
# of rows.
WIDE_SPECS = [GridSpec(2, 64, 32.0), GridSpec(3, 16, 32.0)]
SQUARE_SPECS = [
    pytest.param(spec, id=_spec_id(spec)) for spec in ORACLE_SPECS
] + [pytest.param(WIDE_SPECS[0], id="2d-64"), pytest.param(WIDE_SPECS[1], id="3d-16-w11")]


def direct_square_function(spec, coeffs):
    """(sum_k |sum_xi psi(xi - k) F(xi) exp(i xi.x)|^2)^(1/2) summed term by
    term, with no FFT; xi.x = 2 pi m j / N for mesh offsets m, j from the
    centre, reduced modulo N in integers so the phases are exact."""
    n = spec.samples_per_axis
    centred = np.arange(n) - n // 2
    scale = (2.0 * np.pi) ** (-spec.dim / 2.0) * spec.frequency_cell_volume
    total = np.zeros(spec.shape)
    for _, windows, block in reference_blocks(spec):
        piece = block * coeffs[windows]
        for w in windows:
            phase = np.exp(2j * np.pi * (np.outer(centred[w], centred) % n) / n)
            piece = np.tensordot(piece, phase, axes=([0], [0]))
        total += np.abs(scale * piece) ** 2
    return np.sqrt(total)


def _relative_gap(got, expected):
    return np.max(np.abs(got - expected)) / np.max(expected)


@pytest.mark.parametrize("spec", SQUARE_SPECS)
class TestSquareFunctionOracle:
    def test_matches_direct_sum(self, spec):
        f = random_field(spec, np.random.default_rng(40 + spec.dim))
        expected = direct_square_function(spec, forward_transform(f).coeffs)
        assert _relative_gap(square_function(f).values.real, expected) <= 1e-13

    def test_evolved_matches_direct_sum(self, spec):
        f = random_field(spec, np.random.default_rng(50 + spec.dim))
        flow = FlowKind.parse(ORACLE_FLOWS[spec.dim])
        coeffs = symbol(flow, spec, 0.3) * forward_transform(f).coeffs
        got = square_function_evolved(f, flow, 0.3).values.real
        assert _relative_gap(got, direct_square_function(spec, coeffs)) <= 1e-13


def test_fold_grid_folds():
    spec = ORACLE_SPECS[-1]
    width = wiener._windows(spec)[-1]
    assert 2 * width - 1 > spec.samples_per_axis


def test_wide_windows_reduce_the_gram_matrix_in_blocks():
    for spec in WIDE_SPECS:
        assert wiener._windows(spec)[-1] == 11
    used = len(wiener._windows(WIDE_SPECS[1])[3])
    assert used == 989 and wiener._gram_rows(used) < used


VIEW_SPECS = [GridSpec(1, n, 16.0) for n in (64, 128, 256)] + [GridSpec(2, 32, 16.0)] + WIDE_SPECS


@pytest.mark.parametrize("spec", VIEW_SPECS, ids=_spec_id)
def test_window_view_equals_entry_scatter(spec):
    # The one take and part-by-part scale of the Gram matrix give the sup/L2
    # check's windows bit for bit, and each piece's |S_k| in filled slots.
    slot, position, row, weight = piece_entries(spec)
    source, _, _, used, width = wiener._windows(spec)
    pieces = len(projection_blocks(spec))
    F = forward_transform(random_field(spec, np.random.default_rng(80))).coeffs.reshape(-1)
    expected = np.zeros((pieces, width**spec.dim), dtype=np.complex128)
    expected[slot, position] = weight * F[row]
    taken = np.empty((1, pieces, used.size), dtype=np.complex128)
    got = np.zeros_like(expected)
    got[:, used] = wiener._take_windows(spec, np.append(F, 0.0)[None], taken)[0]
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
    filled = np.count_nonzero(source.reshape(pieces, -1) < spec.size, axis=1)
    assert np.array_equal(filled, np.bincount(slot, minlength=pieces))


@pytest.mark.parametrize("spec", SQUARE_SPECS)
def test_batch_equals_calls_per_spectrum(spec):
    rng = np.random.default_rng(60 + spec.dim)
    stack = np.stack([forward_transform(random_field(spec, rng)).coeffs for _ in range(3)])
    batch = _square_function_from_coeffs(spec, stack)
    assert batch.shape == stack.shape
    for got, coeffs in zip(batch, stack):
        assert np.array_equal(got, _square_function_from_coeffs(spec, coeffs))


def loop_square_bound_excess(spec, flow, times, n_fields, seed):
    """The invariant as a loop over fields and times: one transform and one
    symbol per square function."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_fields):
        f = random_field(spec, rng)
        norm = l2_norm(f)
        if flow is None:
            sq = square_function(f)
            worst = max(worst, float(np.max(sq.values.real)) / norm)
            continue
        for t in times:
            sq = square_function_evolved(f, flow, t)
            worst = max(worst, float(np.max(sq.values.real)) / norm)
    return worst


BOUND_CASES = [
    (GridSpec(1, 64, 16.0), None),
    (GridSpec(1, 64, 16.0), "kdv"),
    (GridSpec(2, 32, 16.0), None),
    (GridSpec(2, 32, 16.0), "schrodinger:+-"),
    (GridSpec(3, 16, 8.0), "schrodinger:++-"),
]


@pytest.mark.parametrize("budget", [None, 4096], ids=["default", "small-budget"])
@pytest.mark.parametrize(
    "spec, flow", BOUND_CASES, ids=[f"{_spec_id(s)}-{f or 'identity'}" for s, f in BOUND_CASES]
)
def test_square_bound_excess_equals_loop_over_fields(spec, flow, budget, monkeypatch):
    # A small budget sends one spectrum per call and reduces every Gram
    # matrix in blocks of a few rows.
    if budget is not None:
        monkeypatch.setattr(wiener, "_GRAM_BYTES", budget)
    flow = flow and FlowKind.parse(flow)
    times = (0.0, 0.1, 1.0)
    expected = loop_square_bound_excess(spec, flow, times, 7, 11)
    (got,) = square_bound_excess(spec, [flow], times, 7, 11)
    assert abs(got - expected) <= 1e-13 * expected


def per_flow_square_bound_excess(spec, flow, times, n_fields, seed):
    """The bound for one flow in a pass of its own: the fields are drawn
    and transformed for this flow alone, and its t = 0 row evaluates the
    untouched spectrum again.  The one-pass bound must equal it bit for
    bit."""
    rng = np.random.default_rng(seed)
    symbols = [None] if flow is None else [symbol(flow, spec, t) for t in times]

    def spectra():
        for _ in range(n_fields):
            f = random_field(spec, rng)
            F = forward_transform(f).coeffs
            norm = l2_norm(f)
            for sym in symbols:
                yield (F if sym is None else sym * F), norm

    pending = spectra()
    worst = 0.0
    while group := list(itertools.islice(pending, wiener._gram_group(spec))):
        sq = _square_function_from_coeffs(spec, np.stack([F for F, _ in group]))
        peaks = np.max(sq.reshape(len(group), -1), axis=1)
        worst = max(worst, float(np.max(peaks / [norm for _, norm in group])))
    return worst


ONE_PASS_CASES = [
    (GridSpec(1, 64, 16.0), ["kdv", "schrodinger:-"]),
    (GridSpec(2, 32, 16.0), ["wave-half", "schrodinger:+-"]),
    (GridSpec(3, 16, 8.0), ["schrodinger:++-", "wave-half"]),
]


@pytest.mark.parametrize("budget", [None, 4096], ids=["default", "small-budget"])
@pytest.mark.parametrize(
    "spec, names", ONE_PASS_CASES, ids=[_spec_id(s) for s, _ in ONE_PASS_CASES]
)
def test_one_pass_equals_per_flow_passes(spec, names, budget, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(wiener, "_GRAM_BYTES", budget)
    flows = [None] + [FlowKind.parse(name) for name in names]
    times = (0.0, 0.1, 1.0)
    n_fields = 4 if spec.dim == 3 else 7
    expected = [per_flow_square_bound_excess(spec, f, times, n_fields, 11) for f in flows]
    assert square_bound_excess(spec, flows, times, n_fields, 11) == expected


def test_invariant_report_equals_per_flow_passes():
    specs = {1: GridSpec(1, 64, 16.0), 2: GridSpec(2, 32, 16.0)}
    seed = 5
    flows = {
        "identity (dim 1)": (None, specs[1]),
        "identity (dim 2)": (None, specs[2]),
        "kdv": (FlowKind.parse("kdv"), specs[1]),
        "wave-half": (FlowKind.parse("wave-half"), specs[2]),
        "schrodinger +-": (FlowKind.parse("schrodinger:+-"), specs[2]),
    }
    observed = {
        r.name: r.observed
        for r in wiener.invariant_report(specs, seed=seed)
        if r.name.startswith("square-function bound vs sharp constant")
    }
    checked = 0
    for label, (flow, spec) in flows.items():
        expected = per_flow_square_bound_excess(spec, flow, (0.0, 0.1, 1.0), 100, seed + 100)
        for name, value in observed.items():
            if name.endswith(f"({label})"):
                assert value == expected, name
                checked += 1
    assert checked == len(observed) == 5


# ---------------------------------------------------------------------------
# Sharp square-function constants from the pieces' Gram matrix
# ---------------------------------------------------------------------------

SHARP_CASES = [
    (GridSpec(1, 64, 16.0), 0.3985225859),
    (GridSpec(2, 32, 16.0), 0.1582723026),
    (GridSpec(3, 16, 16.0), 0.0616014288),
]
SHARP_SPECS = [spec for spec, _ in SHARP_CASES]
SUITE_TIMES = (0.0, 0.1, 1.0)


@lru_cache(maxsize=None)
def dense_piece_gram(spec):
    """P^T P for the dense mesh-by-lattice P[xi, k] = psi(xi - k), each
    column from bump_value on its piece's block."""
    pieces = np.zeros((spec.size, len(unit_lattice(spec))))
    for idx, windows, block in reference_blocks(spec):
        column = np.zeros(spec.shape)
        column[windows] = block
        pieces[:, idx] = column.reshape(-1)
    return pieces.T @ pieces


def gram_product(spec, v):
    """B v as the eigenpair takes it, the scatter of v's gather."""
    out, scratch = np.empty((2, 1, spec.size), dtype=np.complex128)
    return scatter(spec, wiener._gather(spec, v.astype(np.complex128)[None], out, scratch)[0].real)


@pytest.mark.parametrize("spec", SHARP_SPECS, ids=_spec_id)
def test_piece_gram_equals_dense_product(spec):
    expected = dense_piece_gram(spec)
    v = np.random.default_rng(3).standard_normal(len(expected))
    product = expected @ v
    assert np.linalg.norm(gram_product(spec, v) - product) <= 1e-13 * np.linalg.norm(product)
    value, vector = wiener._top_eigenpair(spec)
    assert abs(value - np.linalg.eigvalsh(expected)[-1]) <= 1e-12 * value
    top = np.linalg.eigh(expected)[1][:, -1]
    assert abs(abs(vector @ top) - 1.0) <= 1e-12


def test_eigenpair_stops_on_an_invariant_krylov_space():
    # On 1D 16/4 the ones vector's Krylov space is invariant after about 10
    # of the 25 lattice points' steps, and B's top eigenvalue 1 is triple.
    spec = GridSpec(1, 16, 4.0)
    value, vector = wiener._top_eigenpair(spec)
    assert abs(value - np.linalg.eigvalsh(dense_piece_gram(spec))[-1]) <= 1e-12 * value
    assert np.linalg.norm(gram_product(spec, vector) - value * vector) <= 1e-12 * value


@pytest.mark.parametrize("spec, expected", SHARP_CASES, ids=[_spec_id(s) for s in SHARP_SPECS])
def test_sharp_square_constant(spec, expected):
    sharp, _ = wiener.extremal_square_ratios(spec, [None], SUITE_TIMES)
    assert abs(sharp - expected) <= 1e-9 * expected


FINE_3D = GridSpec(3, 16, 8.0)  # 2 701 lattice points, B's gap 1 - lambda_2/lambda_1 = 5.6e-5


def test_fine_3d_eigenpair_through_the_product():
    value, vector = wiener._top_eigenpair(FINE_3D)
    assert np.linalg.norm(gram_product(FINE_3D, vector) - value * vector) <= 1e-12 * value
    sharp, _ = wiener.extremal_square_ratios(FINE_3D, [None], SUITE_TIMES)
    assert abs(sharp - 0.0740602973) <= 1e-9 * sharp


def test_fine_3d_eigenpair_memory_is_not_dense():
    # The dense B of 2 701^2 float64 alone takes 58 MB; its squaring traced
    # 175 MB.  Lanczos keeps a basis of a few hundred vectors.
    tracemalloc = pytest.importorskip("tracemalloc")
    gram_product(FINE_3D, np.ones(len(unit_lattice(FINE_3D))))  # the grid's tables
    tracemalloc.start()
    try:
        wiener._top_eigenpair.__wrapped__(FINE_3D)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize(
    "spec, products",
    [(GridSpec(2, 32, 16.0), 48), (GridSpec(3, 16, 16.0), 40), (FINE_3D, 88)],
    ids=["2d-32", "3d-16-16", "3d-16-8"],
)
def test_eigenpair_checks_its_ritz_pair_every_8_steps(spec, products, monkeypatch):
    # Checks at 8, 16, 32, ... steps took 64, 64 and 128 products.
    calls = []
    scatter_of = wiener.scatter
    monkeypatch.setattr(wiener, "scatter", lambda *args: calls.append(args) or scatter_of(*args))
    value, vector = wiener._top_eigenpair.__wrapped__(spec)
    assert len(calls) == products
    assert np.linalg.norm(gram_product(spec, vector) - value * vector) <= 1e-12 * value


@pytest.mark.parametrize("spec", SHARP_SPECS, ids=_spec_id)
def test_extremal_field_attains_sharp_constant(spec):
    flows = [None] + [FlowKind.parse(ORACLE_FLOWS[spec.dim])]
    sharp, ratios = wiener.extremal_square_ratios(spec, flows, SUITE_TIMES)
    assert [len(r) for r in ratios] == [1, 2]
    for ratio in ratios[0] + ratios[1]:
        assert abs(ratio - sharp) <= 1e-12 * sharp


def test_wave_half_falls_short_and_has_no_attained_line():
    # cos(t|xi|) is a contraction, not unimodular: its extremal field
    # reaches only part of the sharp constant.
    spec = GridSpec(2, 32, 16.0)
    wave_half = FlowKind.parse("wave-half")
    sharp, (ratios,) = wiener.extremal_square_ratios(spec, [wave_half], SUITE_TIMES)
    assert 0.94 < ratios[0] / sharp < 0.96 and 0.78 < ratios[1] / sharp < 0.82
    names = [r.name for r in wiener.invariant_report({2: spec}, seed=5)]
    assert "square-function bound vs sharp constant (wave-half)" in names
    assert [n for n in names if "wave-half" in n and "attained" in n] == []
    assert "square-function bound attained by the extremal field (schrodinger +-)" in names


DEFAULT_GRIDS = {1: GridSpec(1, 64, 16.0), 2: GridSpec(2, 32, 16.0)}


def failing_lines(seed=5):
    return [r for r in wiener.invariant_report(DEFAULT_GRIDS, seed=seed) if not r.passed]


ATTAINED = "square-function bound attained by the extremal field"


def test_scaled_square_function_fails_its_attained_lines(monkeypatch):
    square = wiener._square_function_from_coeffs
    monkeypatch.setattr(
        wiener, "_square_function_from_coeffs", lambda *args: (1.0 + 1e-6) * square(*args)
    )
    failed = failing_lines()
    assert [r.name for r in failed] == [
        f"{ATTAINED} ({label})"
        for label in ("identity (dim 1)", "identity (dim 2)", "kdv", "schrodinger +-")
    ]
    for r in failed:
        assert abs(r.observed / r.limit - 1.0 - 1e-6) < 1e-9


def test_second_eigenvector_falls_short(monkeypatch):
    def second_pair(spec):
        values, vectors = np.linalg.eigh(dense_piece_gram(spec))
        return values[-1], vectors[:, -2]

    monkeypatch.setattr(wiener, "_top_eigenpair", second_pair)
    failed = failing_lines()
    assert len(failed) == 4 and all(r.name.startswith(ATTAINED) for r in failed)
    for r in failed:
        assert 3e-3 <= 1.0 - r.observed / r.limit <= 3e-2, r


def early_ritz_pair(spec, steps=20):
    """The top Ritz pair of ``steps`` Lanczos steps from the ones vector,
    fully reorthogonalized, with no convergence test."""
    n = len(unit_lattice(spec))
    basis = [np.full(n, n**-0.5)]
    tri = np.zeros((steps, steps))
    for m in range(steps):
        w = gram_product(spec, basis[-1])
        tri[m, m] = basis[-1] @ w
        q = np.array(basis)
        for _ in range(2):
            w -= q.T @ (q @ w)
        if m + 1 < steps:
            tri[m, m + 1] = tri[m + 1, m] = np.linalg.norm(w)
            basis.append(w / tri[m, m + 1])
    values, vectors = np.linalg.eigh(tri)
    vector = vectors[:, -1] @ np.array(basis)
    return values[-1], vector / np.linalg.norm(vector)


def test_early_ritz_pair_fails_its_attained_lines(monkeypatch):
    # 20 steps leave the extremal fields about 4e-11 (1D) and 8e-11 (2D)
    # above the Ritz value's constant: only the convergence test makes the
    # attained lines pass.
    monkeypatch.setattr(wiener, "_top_eigenpair", early_ritz_pair)
    failed = failing_lines()
    assert [r.name for r in failed] == [
        f"{ATTAINED} ({label})"
        for label in ("identity (dim 1)", "identity (dim 2)", "kdv", "schrodinger +-")
    ]
    for r in failed:
        assert 1e-11 <= r.observed / r.limit - 1.0 <= 1e-9, r


def test_symbol_off_the_unit_circle_overshoots(monkeypatch):
    symbol_of = wiener.propagators.symbol
    monkeypatch.setattr(
        wiener.propagators, "symbol", lambda *args: 1.001 * symbol_of(*args)
    )
    failed = failing_lines()
    assert [r.name for r in failed] == [f"{ATTAINED} (kdv)", f"{ATTAINED} (schrodinger +-)"]
    for r in failed:
        assert abs(r.observed / r.limit - 1.001) < 1e-9


STACK_SPECS = [GridSpec(1, 64, 16.0), GridSpec(2, 32, 16.0), GridSpec(3, 16, 8.0)]


def loop_reconstruction_deviation(spec, n_fields, seed):
    """The reconstruction error field by field: one draw, one transform
    each way and the corners' terms summed around them, and the norms
    reduced over one field's array."""
    rng = np.random.default_rng(seed)

    def norm(values):
        return np.sqrt(spec.cell_volume * np.sum(np.abs(values) ** 2))

    worst = 0.0
    for _ in range(n_fields):
        f = random_field(spec, rng)
        F = forward_transform(f).coeffs.reshape(-1)
        acc = np.zeros(spec.size, dtype=np.complex128)
        for weight in projection_blocks(spec).weight.T:
            acc += weight * F
        rec = inverse_transform(Spectrum(spec, acc.reshape(spec.shape)))
        worst = max(worst, float(norm(rec.values - f.values) / norm(f.values)))
    return worst


@pytest.mark.parametrize("chunk", [1, 3, None], ids=["chunk-1", "chunk-3", "default"])
@pytest.mark.parametrize("spec", STACK_SPECS, ids=_spec_id)
def test_stacked_reconstruction_equals_field_loop(spec, chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(wiener, "_FIELD_CHUNK", chunk)
    n_fields = 4 if spec.dim == 3 else 11  # a short last stack at every chunk
    expected = loop_reconstruction_deviation(spec, n_fields, 5)
    assert reconstruction_deviation(spec, n_fields, 5) == expected


@pytest.mark.parametrize("chunk", [1, 3, None], ids=["chunk-1", "chunk-3", "default"])
@pytest.mark.parametrize("spec, names", ONE_PASS_CASES[:2], ids=["1d-64", "2d-32"])
def test_square_pass_equals_per_flow_passes_at_any_chunk(spec, names, chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(wiener, "_FIELD_CHUNK", chunk)
    flows = [None] + [FlowKind.parse(name) for name in names]
    times = (0.0, 0.1, 1.0)
    expected = [per_flow_square_bound_excess(spec, f, times, 11, 12) for f in flows]
    assert square_bound_excess(spec, flows, times, 11, 12) == expected


@pytest.mark.parametrize("spec", [GridSpec(1, 64, 16.0), GridSpec(2, 16, 8.0)], ids=_spec_id)
def test_bernstein_stacks_equal_field_loop(spec, monkeypatch):
    monkeypatch.setattr(wiener, "_FIELD_CHUNK", 2)  # stacks of 2, 2 and 1 fields
    assert bernstein_ratio(spec, 5, 3) == loop_bernstein_ratio(spec, 5, 3)


@pytest.mark.parametrize("spec", [GridSpec(1, 64, 16.0), GridSpec(2, 16, 8.0)], ids=_spec_id)
def test_bernstein_blocks_equal_field_loop(spec, monkeypatch):
    monkeypatch.setattr(wiener, "_GRAM_BYTES", 4 * 16 * spec.size)  # 4 pieces per block
    assert len(projection_blocks(spec)) % 4 != 0  # and a short last block
    assert bernstein_ratio(spec, 2, 3) == loop_bernstein_ratio(spec, 2, 3)


def test_bernstein_memory_stays_within_blocks():
    # All 2 701 pieces of a 3D 16^3/8 field padded to the mesh at once take
    # 2 701 * 16^3 * 16 B, about 177 MB; blocks of 1 MB keep the traced peak
    # a few MB.
    tracemalloc = pytest.importorskip("tracemalloc")
    spec = GridSpec(3, 16, 8.0)
    assert len(projection_blocks(spec)) == 2701
    wiener._windows(spec)
    tracemalloc.start()
    try:
        bernstein_ratio(spec, 1, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("n", [64, 128, 256])
def test_one_piece_window_attains_its_constant(n):
    # On extent 16 the largest piece support holds 6 mesh points, so the
    # constant (2 pi)^(-1/2) sqrt(6 dxi) is 0.6124 on every size: above the
    # continuum's (2 pi)^(-1/2) sqrt(2), and above white noise.
    spec = GridSpec(1, n, 16.0)
    constant, attained = wiener.one_piece_bound(spec)
    assert constant == (2.0 * np.pi) ** -0.5 * np.sqrt(6 * spec.dxi)
    assert abs(attained - constant) <= 1e-12 * constant
    assert bernstein_ratio(spec, 5, 2) < constant


def test_invariant_suite_draws_each_grid_once(monkeypatch):
    # Per grid, one square_bound_excess call that transforms each of its
    # 100 fields once (in stacks) and sends 3 (1D: identity and kdv at 0.1
    # and 1) or 5 (2D: identity and two flows at 0.1 and 1) spectra per
    # field through the Gram route.
    specs = {1: GridSpec(1, 64, 16.0), 2: GridSpec(2, 32, 16.0)}
    counts = {"fields": 0, "spectra": 0}
    passes = []
    transform = wiener._transform
    square = wiener._square_function_from_coeffs
    bound = wiener.square_bound_excess

    def counted_transform(spec, values, inverse=False):
        counts["fields"] += 0 if inverse else values.size // spec.size
        return transform(spec, values, inverse)

    def counted_square(spec, coeffs, *work):
        counts["spectra"] += coeffs.size // spec.size
        return square(spec, coeffs, *work)

    def counted_bound(spec, *args):
        before = dict(counts)
        out = bound(spec, *args)
        passes.append((spec.dim, *(counts[k] - before[k] for k in counts)))
        return out

    monkeypatch.setattr(wiener, "_transform", counted_transform)
    monkeypatch.setattr(wiener, "_square_function_from_coeffs", counted_square)
    monkeypatch.setattr(wiener, "square_bound_excess", counted_bound)
    wiener.invariant_report(specs)
    assert passes == [(1, 100, 300), (2, 100, 500)]


def old_folded_gram(spec, coeffs):
    """The fold with one real and one imaginary bincount per spectrum and
    row block, and the windows scattered by (slot, column) pairs."""
    slot, position, row, weight = piece_entries(spec)
    lag, _, width = wiener._windows(spec)[2:]
    in_use = np.bincount(position, minlength=width**spec.dim) > 0
    column = (np.cumsum(in_use) - 1)[position]
    values = coeffs.reshape(-1, spec.size)[:, row]
    values *= weight
    batch, used = values.shape[0], len(lag)
    windows = np.zeros((batch, len(projection_blocks(spec)), used), dtype=np.complex128)
    windows[:, slot, column] = values
    conj = windows.conj()
    real = np.zeros((batch, spec.size))
    imag = np.zeros((batch, spec.size))
    step = wiener._gram_rows(used)
    for start in range(0, used, step):
        gram = np.matmul(windows[:, :, start : start + step].transpose(0, 2, 1), conj)
        part = lag[start : start + step].reshape(-1)
        for b, m in enumerate(gram.reshape(batch, -1)):
            real[b] += np.bincount(part, m.real, spec.size)
            imag[b] += np.bincount(part, m.imag, spec.size)
    return real + 1j * imag


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize(
    "spec, budget",
    [pytest.param(p.values[0], None, id=p.id) for p in SQUARE_SPECS]
    + [pytest.param(WIDE_SPECS[1], 1 << 16, id="3d-16-w11-small-budget")],
)
def test_folded_gram_equals_old_fold(spec, budget, batch, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(wiener, "_GRAM_BYTES", budget)
        # Four rows per block: 248 blocks of the 989-row Gram matrix.
        assert wiener._gram_rows(len(wiener._windows(spec)[3])) == 4
    rng = np.random.default_rng(70 + batch)
    coeffs = np.stack(
        [forward_transform(random_field(spec, rng)).coeffs for _ in range(batch)]
    )
    assert np.array_equal(wiener._folded_gram(spec, coeffs), old_folded_gram(spec, coeffs))


def test_pass_workspaces_equal_fresh_buffers_across_grids(monkeypatch):
    # 1D, then 2D, then 1D again in one process, each with a short last
    # group of spectra: every pass equals the route through fresh buffers
    # bit for bit, and none of its buffers outlives it.
    made = []
    workspace = wiener._gram_workspace

    def tracked_workspace(spec, batch):
        buffers = workspace(spec, batch)
        *arrays, bins = buffers  # the row blocks' bins come as a list
        made.extend(weakref.ref(b) for b in arrays + bins)
        return buffers

    def fresh_fold(spec, coeffs, work=None):
        return old_folded_gram(spec, coeffs)

    times = (0.0, 0.1, 1.0)
    n_fields = 7
    cases = [
        (GridSpec(1, 64, 16.0), "kdv", 1 << 16),
        (GridSpec(2, 32, 16.0), "schrodinger:+-", 1 << 20),
        (GridSpec(1, 64, 16.0), "kdv", 1 << 16),
    ]
    for spec, name, budget in cases:
        monkeypatch.setattr(wiener, "_GRAM_BYTES", budget)
        group = wiener._gram_group(spec)
        # The untouched spectrum and the flow at t = 0.1 and 1, per field.
        assert group > 1 and (3 * n_fields) % group != 0
        flows = [None, FlowKind.parse(name)]
        with monkeypatch.context() as m:
            m.setattr(wiener, "_gram_workspace", tracked_workspace)
            got = square_bound_excess(spec, flows, times, n_fields, 11)
        assert made and all(ref() is None for ref in made)
        made.clear()
        with monkeypatch.context() as m:
            m.setattr(wiener, "_folded_gram", fresh_fold)
            assert got == square_bound_excess(spec, flows, times, n_fields, 11)


@pytest.mark.skipif(sys.platform != "linux", reason="minor page faults as Linux counts them")
def test_square_pass_faults_in_few_pages():
    # Fresh Gram buffers of about 1 MB per group fault their pages in on
    # every call (over 20 000 faults for this pass); one workspace per
    # pass faults them in once.
    resource = pytest.importorskip("resource")
    spec = GridSpec(2, 32, 16.0)
    flows = [None] + [FlowKind.parse(name) for name in ("wave-half", "schrodinger:+-")]
    times = (0.0, 0.1, 1.0)
    square_bound_excess(spec, flows, times, 2, 0)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    square_bound_excess(spec, flows, times, 100, 1)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 5000
