import numpy as np
import pytest

from dispersim.errors import ConfigurationError
from dispersim.grid import Field, GridSpec, l2_norm
from dispersim.randomize import (
    coefficient_block,
    constant_draw,
    draw,
    expected_randomized_norm_squared,
    gaussian_matrix,
    khintchine_moment,
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

    def test_coefficient_lookup_matches_order(self):
        d = draw(9, LATTICE)
        k = tuple(LATTICE.points[3])
        assert d.coefficient(k) == complex(d.coefficients[3])

    def test_second_moment_near_one(self):
        # Oracle: E|g|^2 = 1 for the standard complex Gaussian.
        g = gaussian_matrix(777, 100_000, 1).ravel()
        assert abs(np.mean(np.abs(g)) ** 0) == 1.0  # sanity: shape only
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

    def test_block_prefix_stable_in_lattice_order(self):
        long = coefficient_block(55, 32)
        short = coefficient_block(55, 16)
        assert np.array_equal(long[:16], short)

    def test_matrix_equals_stacked_blocks(self):
        g = gaussian_matrix(321, 40, 8, sample_offset=5)
        for m in range(40):
            assert np.array_equal(g[m], coefficient_block(321, 8, 5 + m))


class TestRandomizeField:
    def test_zero_field(self):
        f = Field(SPEC, np.zeros(SPEC.shape))
        out = randomize_field(f, draw(5, LATTICE))
        assert np.max(np.abs(out.values)) == 0.0

    def test_unit_coefficients_reconstruct(self):
        rng = np.random.default_rng(11)
        f = random_field(SPEC, rng)
        out = randomize_field(f, constant_draw(LATTICE, 1.0))
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
        for m in range(n):
            total += l2_norm(randomize_field(f, draw(314, LATTICE, m))) ** 2
        assert 0.95 * target < total / n < 1.05 * target


class TestKhintchineMoment:
    def test_unit_vector_p2(self):
        m = khintchine_moment(np.array([1.0]), 2.0, 100_000, 42)
        assert abs(m - 1.0) < 0.03

    def test_unit_vector_p4(self):
        # Oracle: E|g|^4 = 2, so the fourth-moment norm is 2^(1/4).
        m = khintchine_moment(np.array([1.0]), 4.0, 100_000, 43)
        assert abs(m - 2.0**0.25) < 0.03 * 2.0**0.25

    def test_zero_sequence(self):
        assert khintchine_moment(np.zeros(8), 2.0, 1000, 1) == 0.0

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            khintchine_moment(np.array([1.0]), 1.5, 1000, 1)

    def test_rejects_tiny_ensemble(self):
        with pytest.raises(ValueError):
            khintchine_moment(np.array([1.0]), 2.0, 10, 1)

    def test_sqrt_p_growth_bounded(self):
        rng = np.random.default_rng(99)
        vectors = [np.eye(32)[k] for k in (0, 7)]
        for _ in range(3):
            c = rng.standard_normal(32) + 1j * rng.standard_normal(32)
            vectors.append(c / np.linalg.norm(c))
        worst = 0.0
        for i, c in enumerate(vectors):
            for p in (2, 4, 8, 16):
                m = khintchine_moment(c, p, 10_000, 1000 + i)
                worst = max(worst, m / (np.sqrt(p) * np.linalg.norm(c)))
        assert worst <= 3.0

    def test_global_phase_invariance(self):
        # A unimodular scalar factors out of the modulus, so the estimate
        # is exactly invariant (well below 3 Monte Carlo standard errors).
        c = np.array([0.5, -0.3 + 0.2j, 0.1j, 0.7])
        a = khintchine_moment(c, 4.0, 5000, 77)
        b = khintchine_moment(np.exp(1.23j) * c, 4.0, 5000, 77)
        assert abs(a - b) < 1e-12


@pytest.mark.parametrize("spec", TABLE_SPECS, ids=lambda s: f"{s.dim}d")
def test_randomized_weights_bitwise_equal_block_loop(spec):
    lattice = unit_lattice(spec)
    for m in range(3):
        g = coefficient_block(3, len(lattice), m)
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
    assert moments == [khintchine_moment(c, p, samples, 21) for p in ps]
    # The blocks are fixed by the sample index, not by how rows are drawn.
    vals = np.abs(gaussian_matrix(21, samples, c.size) @ c)
    blocks = vals.reshape(3, -1)
    assert moments == [
        (sum(float(np.sum(b**p)) for b in blocks) / samples) ** (1.0 / p) for p in ps
    ]
    with pytest.raises(ValueError):
        khintchine_moments(c, (2.0, 1.0), 3000, 21)
