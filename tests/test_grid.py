import numpy as np
import pytest

from dispersim.errors import ShapeError
from dispersim.grid import (
    Field,
    GridSpec,
    Spectrum,
    forward_transform,
    inverse_transform,
    l2_norm,
    monomial_weight,
    read_binary,
    write_binary,
)


def random_field(spec, rng):
    return Field(spec, rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape))


class TestGridSpec:
    def test_rejects_bad_dims(self):
        with pytest.raises(ShapeError):
            GridSpec(4, 64, 10.0)
        with pytest.raises(ShapeError):
            GridSpec(0, 64, 10.0)

    def test_rejects_non_power_of_two(self):
        for n in (15, 48, 8):
            with pytest.raises(ShapeError):
                GridSpec(1, n, 10.0)

    def test_rejects_nonpositive_extent(self):
        with pytest.raises(ShapeError):
            GridSpec(1, 64, 0.0)

    def test_frequency_lattice_step(self):
        spec = GridSpec(1, 64, 16.0)
        xi = spec.axis_frequencies()
        assert np.allclose(np.diff(xi), 2 * np.pi / 16.0)
        assert xi[0] == -32 * spec.dxi
        assert xi[spec.samples_per_axis // 2] == 0.0


class TestForwardTransform:
    def test_constant_field_is_pure_dc(self):
        for dim, n in ((1, 64), (2, 16), (3, 16)):
            spec = GridSpec(dim, n, 10.0)
            F = forward_transform(Field(spec, np.ones(spec.shape)))
            coeffs = F.coeffs.copy()
            dc = spec.origin_index()
            assert abs(coeffs[dc]) > 0
            coeffs[dc] = 0.0
            assert np.max(np.abs(coeffs)) < 1e-12 * abs(F.coeffs[dc])

    def test_pure_mode_single_coefficient(self):
        spec = GridSpec(1, 64, 16.0)
        xi0 = 3 * spec.dxi
        f = Field(spec, np.exp(1j * xi0 * spec.axis_coordinates()))
        coeffs = forward_transform(f).coeffs.copy()
        idx = spec.samples_per_axis // 2 + 3
        assert abs(coeffs[idx]) > 0
        coeffs[idx] = 0.0
        assert np.max(np.abs(coeffs)) < 1e-10

    def test_gaussian_matches_continuum_transform(self):
        # For f = exp(-x^2/2) the continuum transform with the unitary
        # normalization is exp(-xi^2/2); periodization and aliasing are
        # below 1e-13 at L = 40, N = 256.
        spec = GridSpec(1, 256, 40.0)
        x = spec.axis_coordinates()
        F = forward_transform(Field(spec, np.exp(-(x**2) / 2)))
        xi = spec.axis_frequencies()
        window = np.abs(xi) <= 5.0
        assert np.max(np.abs(F.coeffs[window] - np.exp(-(xi[window] ** 2) / 2))) < 1e-8

    def test_shape_mismatch_raises(self):
        spec = GridSpec(1, 64, 16.0)
        with pytest.raises(ShapeError):
            Field(spec, np.zeros(63))
        with pytest.raises(ShapeError):
            Spectrum(spec, np.zeros((64, 64)))


class TestInverseTransform:
    def test_zero_spectrum(self):
        spec = GridSpec(2, 16, 8.0)
        f = inverse_transform(Spectrum(spec, np.zeros(spec.shape)))
        assert np.all(f.values == 0)

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_round_trip_random_fields(self, n):
        spec = GridSpec(1, n, 12.0)
        rng = np.random.default_rng(n)
        for _ in range(100):
            f = random_field(spec, rng)
            g = inverse_transform(forward_transform(f))
            assert np.max(np.abs(g.values - f.values)) < 1e-10

    def test_round_trip_higher_dims(self):
        rng = np.random.default_rng(3)
        for dim, n in ((2, 16), (3, 16)):
            spec = GridSpec(dim, n, 8.0)
            f = random_field(spec, rng)
            g = inverse_transform(forward_transform(f))
            rel = np.max(np.abs(g.values - f.values)) / np.max(np.abs(f.values))
            assert rel < 1e-12

    def test_single_coefficient_gives_mode(self):
        spec = GridSpec(1, 64, 16.0)
        coeffs = np.zeros(spec.shape, dtype=complex)
        idx = spec.samples_per_axis // 2 + 5
        coeffs[idx] = 1.0
        f = inverse_transform(Spectrum(spec, coeffs))
        xi0 = 5 * spec.dxi
        expected = (
            np.exp(1j * xi0 * spec.axis_coordinates())
            * spec.frequency_cell_volume
            / np.sqrt(2 * np.pi)
        )
        assert np.max(np.abs(f.values - expected)) < 1e-14


def rolled_forward(f):
    """The forward transform with index shifts by N/2 around fftn."""
    spec = f.spec
    raw = np.fft.fftshift(np.fft.fftn(np.fft.ifftshift(f.values)))
    return spec.cell_volume * (2.0 * np.pi) ** (-spec.dim / 2.0) * raw


def rolled_inverse(F):
    """The inverse transform with index shifts by N/2 around ifftn."""
    spec = F.spec
    raw = np.fft.fftshift(np.fft.ifftn(np.fft.ifftshift(F.coeffs)))
    return (2.0 * np.pi) ** (spec.dim / 2.0) / spec.cell_volume * raw


PAIR_SPECS = (
    [GridSpec(1, 2**k, 12.0) for k in range(4, 13)]
    + [GridSpec(2, n, 8.0) for n in (16, 32, 64, 128)]
    + [GridSpec(3, n, 8.0) for n in (16, 32)]
)


@pytest.mark.parametrize(
    "spec", PAIR_SPECS, ids=lambda s: f"{s.dim}d-{s.samples_per_axis}"
)
def test_checkerboard_pair_equals_rolled_pair_bitwise(spec):
    rng = np.random.default_rng(spec.size + spec.dim)
    f = random_field(spec, rng)
    F = forward_transform(f)
    assert F.coeffs.tobytes() == rolled_forward(f).tobytes()
    G = Spectrum(spec, random_field(spec, rng).values)
    assert inverse_transform(G).values.tobytes() == rolled_inverse(G).tobytes()
    g = inverse_transform(F)
    assert np.max(np.abs(g.values - f.values)) < 1e-12 * np.max(np.abs(f.values))


class TestNorms:
    def test_zero_field(self):
        spec = GridSpec(1, 16, 4.0)
        assert l2_norm(Field(spec, np.zeros(16))) == 0.0

    def test_unimodular_field_norm_is_box_measure(self):
        for dim, n, L in ((1, 64, 16.0), (2, 16, 4.0)):
            spec = GridSpec(dim, n, L)
            phase = spec.coordinate_grids()[0] * spec.dxi * 2
            f = Field(spec, np.exp(1j * phase))
            assert abs(l2_norm(f) - np.sqrt(L**dim)) < 1e-12

    def test_plancherel(self):
        rng = np.random.default_rng(9)
        for dim, n in ((1, 256), (2, 32), (3, 16)):
            spec = GridSpec(dim, n, 10.0)
            f = random_field(spec, rng)
            a = l2_norm(f)
            b = l2_norm(forward_transform(f))
            assert abs(a - b) / a < 1e-10

class TestSerialization:
    def test_field_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(21)
        spec = GridSpec(2, 16, 6.0)
        f = random_field(spec, rng)
        path = tmp_path / "field.bin"
        write_binary(f, path)
        g = read_binary(path)
        assert isinstance(g, Field)
        assert g.spec == spec
        assert np.array_equal(g.values, f.values)

    def test_spectrum_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(22)
        spec = GridSpec(1, 64, 12.0)
        F = forward_transform(random_field(spec, rng))
        path = tmp_path / "spec.bin"
        write_binary(F, path)
        G = read_binary(path)
        assert isinstance(G, Spectrum)
        assert np.array_equal(G.coeffs, F.coeffs)

    def test_truncated_payload_rejected(self, tmp_path):
        spec = GridSpec(1, 16, 4.0)
        path = tmp_path / "f.bin"
        write_binary(Field(spec, np.zeros(16)), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ShapeError):
            read_binary(path)


class TestMonomialWeight:
    def test_matches_axis_by_axis_products(self):
        spec = GridSpec(2, 16, 6.0)
        x, y = spec.coordinate_grids()
        assert np.array_equal(monomial_weight((x, y), (0, 0)), np.ones(spec.shape))
        assert np.array_equal(monomial_weight((x, y), (2, 1)), np.ones(spec.shape) * x**2 * y)
        xi, eta = spec.frequency_grids()
        w = monomial_weight((xi, eta), (1, 2), imaginary=True)
        assert w.dtype == np.complex128
        assert np.array_equal(w, np.ones(spec.shape, dtype=complex) * (1j * xi) * (1j * eta) ** 2)
