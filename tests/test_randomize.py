import numpy as np
import pytest

from dispersim.errors import ConfigurationError
from dispersim.grid import Field, GridSpec, l2_norm
from dispersim.randomize import (
    RandomDraw,
    _RowStream,
    draw,
    expected_randomized_norm_squared,
    gaussian_matrix,
    khintchine_moments,
    randomize_field,
    randomized_weights,
)
from dispersim.wiener import unit_lattice
from test_wiener import TABLE_SPECS, reference_randomized_weights


SPEC = GridSpec(1, 128, 16.0)
LATTICE = unit_lattice(SPEC)


def random_field(spec, rng):
    return Field(spec, rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape))


class TestDraw:
    def test_same_seed_identical(self):
        d1 = draw(123, LATTICE)
        d2 = draw(123, LATTICE)
        assert np.array_equal(d1.coefficients, d2.coefficients)

    def test_different_seeds_differ(self):
        assert not np.array_equal(draw(1, LATTICE).coefficients, draw(2, LATTICE).coefficients)

    def test_different_samples_differ(self):
        assert not np.array_equal(
            draw(1, LATTICE, 0).coefficients, draw(1, LATTICE, 1).coefficients
        )

    def test_second_moment_near_one(self):
        # Oracle: E|g|^2 = 1 for the standard complex Gaussian.
        g = gaussian_matrix(777, 100_000, 1).ravel()
        assert abs(np.abs(np.mean(g))) < 0.01
        assert 0.99 < np.mean(np.abs(g) ** 2) < 1.01

    def test_fourth_moment_near_two(self):
        # Oracle: E|g|^4 = 2 for unit-variance complex Gaussians.
        g = gaussian_matrix(778, 100_000, 1).ravel()
        assert 1.95 < np.mean(np.abs(g) ** 4) < 2.05

    def test_component_mgf_subgaussian(self):
        # Each real component X/sqrt(2) has E exp(gamma X/sqrt(2)) =
        # exp(gamma^2/4); empirical check at two gamma values.
        g = gaussian_matrix(779, 200_000, 1).ravel()
        comp = g.real
        for gamma in (0.5, 1.0):
            mgf = np.mean(np.exp(gamma * comp))
            assert abs(mgf - np.exp(gamma**2 / 4)) < 0.01

    def test_draw_equals_matrix_row(self):
        g = gaussian_matrix(321, 600, len(LATTICE))
        for m in (0, 1, 5, 255, 256, 257, 599):
            assert np.array_equal(draw(321, LATTICE, m).coefficients, g[m])

    def test_matrix_split_anywhere_equals_one_call(self):
        # Splits that are not multiples of the 256-sample block, so two of
        # the pieces start mid-block.
        whole = gaussian_matrix(8, 1000, 3)
        pieces = ((0, 300), (300, 333), (633, 367))
        parts = [gaussian_matrix(8, n, 3, start) for start, n in pieces]
        assert np.array_equal(np.concatenate(parts), whole)
        assert np.array_equal(gaussian_matrix(8, 2, 3, 255), whole[255:257])
        assert gaussian_matrix(8, 0, 3, 300).shape == (0, 3)

    @pytest.mark.parametrize("chunk", [1, 16, 100, 256, 333])
    def test_streamed_reads_equal_one_matrix(self, chunk):
        # Reads that cross the 256-sample block edges, the last one partial.
        n, width = 600, len(LATTICE)
        stream = _RowStream(321)
        reads = [
            stream.read(np.empty((min(chunk, n - start), width), dtype=np.complex128))
            for start in range(0, n, chunk)
        ]
        assert np.array_equal(np.concatenate(reads), gaussian_matrix(321, n, width))

    def test_matrix_rows_are_the_keyed_blocks(self):
        # Sample m is row m mod 256 of the Philox stream keyed (seed, m // 256).
        n, width = 600, 3
        blocks = [
            np.random.Generator(np.random.Philox(key=np.array([321, b], dtype=np.uint64)))
            .standard_normal((256, 2 * width))
            for b in range(3)
        ]
        parts = np.concatenate(blocks)[:n] * (1.0 / np.sqrt(2.0))
        assert np.array_equal(gaussian_matrix(321, n, width), parts.view(np.complex128))

    def test_rows_across_a_block_edge_uncorrelated(self):
        # Row 256 starts a new key: correlation with row 255 (the end of the
        # previous block) or row 0 (the start of its stream) would show a
        # shared stream.  The normalized inner product of two independent
        # rows of n coefficients has standard deviation 1/sqrt(n).
        n = 4000
        g = gaussian_matrix(17, 257, n)
        assert np.array_equal(g[255:], gaussian_matrix(17, 2, n, 255))
        for a, b in ((g[255], g[256]), (g[0], g[256])):
            r = np.vdot(a, b) / np.sqrt(np.vdot(a, a).real * np.vdot(b, b).real)
            assert abs(r) < 5 / np.sqrt(n)


class TestRandomizeField:
    def test_zero_field(self):
        f = Field(SPEC, np.zeros(SPEC.shape))
        out = randomize_field(f, draw(5, LATTICE))
        assert np.max(np.abs(out.values)) == 0.0

    def test_unit_coefficients_reconstruct(self):
        rng = np.random.default_rng(11)
        f = random_field(SPEC, rng)
        out = randomize_field(f, RandomDraw(LATTICE, np.ones(len(LATTICE))))
        assert l2_norm(Field(SPEC, out.values - f.values)) < 1e-10 * l2_norm(f)

    def test_lattice_grid_mismatch(self):
        other = unit_lattice(GridSpec(1, 64, 8.0))
        f = Field(SPEC, np.zeros(SPEC.shape))
        with pytest.raises(ConfigurationError):
            randomize_field(f, draw(5, other))

    def test_mean_square_norm_matches_projection_sum(self):
        # Oracle: independence and E|g_k|^2 = 1 give
        # E ||f^omega||^2 = sum_k ||psi(D-k) f||^2.
        rng = np.random.default_rng(13)
        f = random_field(SPEC, rng)
        target = expected_randomized_norm_squared(f)
        total = 0.0
        n = 2000
        for g in gaussian_matrix(314, n, len(LATTICE)):
            total += l2_norm(randomize_field(f, RandomDraw(LATTICE, g))) ** 2
        assert 0.95 * target < total / n < 1.05 * target


class TestKhintchineMoment:
    def test_unit_vector_p2(self):
        m = khintchine_moments(np.array([1.0]), (2.0,), 100_000, 42)[0]
        assert abs(m - 1.0) < 0.03

    def test_unit_vector_p4(self):
        # Oracle: E|g|^4 = 2, so the fourth-moment norm is 2^(1/4).
        m = khintchine_moments(np.array([1.0]), (4.0,), 100_000, 43)[0]
        assert abs(m - 2.0**0.25) < 0.03 * 2.0**0.25

    def test_zero_sequence(self):
        assert khintchine_moments(np.zeros(8), (2.0,), 1000, 1) == [0.0]

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            khintchine_moments(np.array([1.0]), (1.5,), 1000, 1)

    def test_rejects_tiny_ensemble(self):
        with pytest.raises(ValueError):
            khintchine_moments(np.array([1.0]), (2.0,), 10, 1)

    def test_sqrt_p_growth_bounded(self):
        rng = np.random.default_rng(99)
        vectors = [np.eye(32)[k] for k in (0, 7)]
        for _ in range(3):
            c = rng.standard_normal(32) + 1j * rng.standard_normal(32)
            vectors.append(c / np.linalg.norm(c))
        worst = 0.0
        for i, c in enumerate(vectors):
            ps = (2, 4, 8, 16)
            for p, m in zip(ps, khintchine_moments(c, ps, 10_000, 1000 + i)):
                worst = max(worst, m / (np.sqrt(p) * np.linalg.norm(c)))
        assert worst <= 3.0

    def test_global_phase_invariance(self):
        # A unimodular scalar factors out of the modulus, so the estimate
        # is exactly invariant (well below 3 Monte Carlo standard errors).
        c = np.array([0.5, -0.3 + 0.2j, 0.1j, 0.7])
        a = khintchine_moments(c, (4.0,), 5000, 77)[0]
        b = khintchine_moments(np.exp(1.23j) * c, (4.0,), 5000, 77)[0]
        assert abs(a - b) < 1e-12


@pytest.mark.parametrize("spec", TABLE_SPECS, ids=lambda s: f"{s.dim}d")
def test_randomized_weights_bitwise_equal_block_loop(spec):
    lattice = unit_lattice(spec)
    for m in range(3):
        g = gaussian_matrix(3, 1, len(lattice), m)[0]
        expected = reference_randomized_weights(spec, g)
        assert np.array_equal(randomized_weights(spec, g), expected)


def test_khintchine_moments_share_one_draw_per_vector(monkeypatch):
    import dispersim.randomize as randomize

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return gaussian_matrix(*args, **kwargs)

    c = np.random.default_rng(4).standard_normal(16) + 0j
    ps = (2.0, 3.0, 8.0)
    samples = 3 * randomize._MOMENT_BLOCK
    monkeypatch.setattr(randomize, "gaussian_matrix", counted)
    moments = khintchine_moments(c, ps, samples, 21)
    assert len(calls) == 3  # one per block, shared by every p
    monkeypatch.undo()
    assert moments == [khintchine_moments(c, (p,), samples, 21)[0] for p in ps]
    # The blocks are fixed by the sample index, not by how rows are drawn.
    vals = np.abs(gaussian_matrix(21, samples, c.size) @ c)
    blocks = vals.reshape(3, -1)
    assert moments == [
        (sum(float(np.sum(b**p)) for b in blocks) / samples) ** (1.0 / p) for p in ps
    ]
    with pytest.raises(ValueError):
        khintchine_moments(c, (2.0, 1.0), 3000, 21)


def test_khintchine_moments_of_a_stack_share_one_draw(monkeypatch):
    import dispersim.randomize as randomize

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return gaussian_matrix(*args, **kwargs)

    rng = np.random.default_rng(5)
    stack = rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3))
    stack[:, 1] = 0  # a zero column has moment 0 with no special case
    ps = (2.0, 4.0)
    samples = 2 * randomize._MOMENT_BLOCK
    monkeypatch.setattr(randomize, "gaussian_matrix", counted)
    moments = khintchine_moments(stack, ps, samples, 21)
    assert [args[1:3] for args in calls] == [(randomize._MOMENT_BLOCK, 16)] * 2
    monkeypatch.undo()
    assert len(moments) == 3 and moments[1] == [0.0, 0.0]
    # Each column reads the draws a vector alone reads.
    for column, got in zip(stack.T, moments):
        assert got == pytest.approx(khintchine_moments(column, ps, samples, 21), rel=1e-12)


def test_khintchine_moments_of_many_vectors_keep_memory_bounded():
    # The block's product is formed a group of columns at a time: with one
    # product for all of them, 1000 vectors peak at 98 MB of traced memory.
    import tracemalloc

    import dispersim.randomize as randomize

    rng = np.random.default_rng(6)
    stack = rng.standard_normal((32, 1000)) + 1j * rng.standard_normal((32, 1000))
    ps = (2.0, 4.0, 6.0, 8.0)
    tracemalloc.start()
    try:
        moments = khintchine_moments(stack, ps, randomize._MOMENT_BLOCK, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 << 20
    # Each column as one product alone gives: the groups, the last of them
    # 40 columns wide, change no column's draws or order.
    for column in (0, 63, 64, 999):
        alone = khintchine_moments(stack[:, column], ps, randomize._MOMENT_BLOCK, 7)
        assert moments[column] == pytest.approx(alone, rel=1e-12)
