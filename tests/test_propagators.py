import numpy as np
import pytest

from dispersim import propagators
from dispersim.errors import ConfigurationError
from dispersim.grid import Field, GridSpec, l2_norm
from dispersim.propagators import (
    FlowKind,
    dispersion,
    evolve,
    invariant_report,
    symbol,
)


def random_field(spec, rng):
    return Field(spec, rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape))


class TestFlowKind:
    def test_parse_round_trip(self):
        for name in ("kdv", "wave-half", "wave-plus", "wave-minus", "schrodinger:+-"):
            assert FlowKind.parse(name).label() == name

    def test_parse_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            FlowKind.parse("heat")
        with pytest.raises(ConfigurationError):
            FlowKind.parse("schrodinger")
        with pytest.raises(ConfigurationError):
            FlowKind.parse("schrodinger:+x")

    def test_dimension_compatibility(self):
        with pytest.raises(ConfigurationError):
            evolve(Field(GridSpec(2, 16, 8.0), np.zeros((16, 16))), FlowKind.parse("kdv"), 0.1)
        with pytest.raises(ConfigurationError):
            evolve(Field(GridSpec(1, 64, 8.0), np.zeros(64)), FlowKind.parse("wave-half"), 0.1)
        with pytest.raises(ConfigurationError):
            evolve(
                Field(GridSpec(2, 16, 8.0), np.zeros((16, 16))),
                FlowKind.parse("schrodinger:+"),
                0.1,
            )


class TestEvolve:
    def test_kdv_phase_shifts_single_mode(self):
        spec = GridSpec(1, 64, 16.0)
        xi0 = 3 * spec.dxi
        f = Field(spec, np.exp(1j * xi0 * spec.axis_coordinates()))
        t = 0.7
        out = evolve(f, FlowKind.parse("kdv"), t)
        expected = np.exp(1j * t * xi0**3) * f.values
        assert np.max(np.abs(out.values - expected)) < 1e-12

    def test_wave_half_scales_by_cosine(self):
        spec = GridSpec(2, 16, 8.0)
        xx, yy = spec.coordinate_grids()
        xi0 = np.array([2 * spec.dxi, -spec.dxi])
        f = Field(spec, np.exp(1j * (xi0[0] * xx + xi0[1] * yy)))
        t = 0.4
        out = evolve(f, FlowKind.parse("wave-half"), t)
        expected = np.cos(t * np.linalg.norm(xi0)) * f.values
        assert np.max(np.abs(out.values - expected)) < 1e-12

    def test_wave_half_keeps_dc_mode(self):
        spec = GridSpec(2, 16, 8.0)
        f = Field(spec, np.ones(spec.shape))
        out = evolve(f, FlowKind.parse("wave-half"), 1.3)
        assert np.max(np.abs(out.values - f.values)) < 1e-12

    def test_kdv_gaussian_against_direct_summation_oracle(self):
        # Oracle: the value at x = 0 summed directly over the frequency
        # lattice, with the transform itself evaluated as a plain O(N^2)
        # quadrature sum, fully independent of the fft pipeline.
        spec = GridSpec(1, 256, 40.0)
        x = spec.axis_coordinates()
        f = Field(spec, np.exp(-(x**2) / 2))
        t = 0.01
        xi = spec.axis_frequencies()
        coeffs = (
            spec.dx
            / np.sqrt(2 * np.pi)
            * np.array([np.sum(f.values * np.exp(-1j * w * x)) for w in xi])
        )
        oracle = (
            spec.dxi / np.sqrt(2 * np.pi) * np.sum(np.exp(1j * t * xi**3) * coeffs)
        )
        out = evolve(f, FlowKind.parse("kdv"), t)
        assert abs(out.values[spec.samples_per_axis // 2] - oracle) < 1e-8

    def test_schrodinger_signature_changes_flow(self):
        spec = GridSpec(2, 16, 8.0)
        rng = np.random.default_rng(1)
        f = random_field(spec, rng)
        a = evolve(f, FlowKind.parse("schrodinger:++"), 0.2)
        b = evolve(f, FlowKind.parse("schrodinger:+-"), 0.2)
        assert np.max(np.abs(a.values - b.values)) > 1e-6


class TestInvariants:
    @pytest.mark.parametrize(
        "name,dim", [("kdv", 1), ("wave-plus", 2), ("wave-minus", 2), ("schrodinger:+-", 2)]
    )
    def test_unitarity(self, name, dim):
        spec = GridSpec(dim, 32 if dim == 2 else 128, 12.0)
        rng = np.random.default_rng(dim)
        f = random_field(spec, rng)
        kind = FlowKind.parse(name)
        for t in (0.1, 1.0, -2.3):
            assert abs(l2_norm(evolve(f, kind, t)) - l2_norm(f)) < 1e-10 * l2_norm(f)

    @pytest.mark.parametrize("name,dim", [("kdv", 1), ("wave-plus", 2), ("schrodinger:++", 2)])
    def test_group_law(self, name, dim):
        spec = GridSpec(dim, 32 if dim == 2 else 128, 12.0)
        rng = np.random.default_rng(dim + 10)
        f = random_field(spec, rng)
        kind = FlowKind.parse(name)
        a = evolve(evolve(f, kind, 0.3), kind, 0.45)
        b = evolve(f, kind, 0.75)
        assert l2_norm(Field(spec, a.values - b.values)) < 1e-10 * l2_norm(f)

    def test_wave_half_contracts(self):
        spec = GridSpec(2, 32, 12.0)
        rng = np.random.default_rng(30)
        f = random_field(spec, rng)
        for t in (0.1, 0.7, 2.0):
            assert l2_norm(evolve(f, FlowKind.parse("wave-half"), t)) <= l2_norm(f) * (
                1 + 1e-12
            )

    def test_identity_at_t0(self):
        cases = [("kdv", GridSpec(1, 128, 12.0)), ("wave-half", GridSpec(2, 32, 12.0))]
        rng = np.random.default_rng(40)
        for name, spec in cases:
            f = random_field(spec, rng)
            out = evolve(f, FlowKind.parse(name), 0.0)
            assert np.max(np.abs(out.values - f.values)) < 1e-12

    def test_small_time_symbol_envelopes(self):
        t = 0.01
        spec1 = GridSpec(1, 128, 12.0)
        xi = spec1.axis_frequencies()
        nz = xi != 0
        assert np.max(np.abs(np.exp(1j * t * xi[nz] ** 3) - 1) / np.abs(t * xi[nz] ** 3)) <= 1 + 1e-12
        spec2 = GridSpec(2, 32, 12.0)
        mag = np.sqrt(spec2.frequency_norm_squared())
        nz = mag != 0
        assert np.max(np.abs(np.cos(t * mag[nz]) - 1) / (t * mag[nz])) <= 1 + 1e-12
        phase = dispersion(FlowKind.parse("schrodinger:+-"), spec2)
        m2 = spec2.frequency_norm_squared()
        nz = m2 != 0
        assert np.max(np.abs(np.exp(1j * t * phase[nz]) - 1) / (t * m2[nz])) <= 1 + 1e-12

    def test_invariant_report_all_pass(self):
        specs = {1: GridSpec(1, 64, 16.0), 2: GridSpec(2, 16, 8.0)}
        results = invariant_report(specs, seed=5)
        assert results and all(r.passed for r in results)

    def test_small_t_rows_read_the_flows_symbol(self, monkeypatch):
        # The small-t rows bound |symbol(t) - 1| of propagators.symbol itself:
        # a symbol with twice the phase deviates ~2 t |xi|^3 near xi = 0.
        def doubled(kind, spec, t):
            return symbol(kind, spec, 2.0 * t)

        specs = {1: GridSpec(1, 64, 16.0), 2: GridSpec(2, 16, 8.0)}
        monkeypatch.setattr(propagators, "symbol", doubled)
        rows = {r.name: r for r in invariant_report(specs, seed=5)}
        kdv = rows["small-t symbol bound (kdv)"]
        assert not kdv.passed and kdv.observed > 1.9


def test_symbol_magnitudes():
    spec = GridSpec(2, 16, 8.0)
    for name in ("wave-plus", "wave-minus", "schrodinger:++", "schrodinger:--"):
        s = symbol(FlowKind.parse(name), spec, 0.37)
        assert np.max(np.abs(np.abs(s) - 1.0)) < 1e-12
    s = symbol(FlowKind.parse("wave-half"), spec, 0.37)
    assert np.max(np.abs(s)) <= 1.0 + 1e-12
