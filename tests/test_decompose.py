import numpy as np
import pytest

from dispersim.decompose import (
    decay_seminorm,
    schwartz_split,
    smooth_cutoff,
    spectral_derivative,
)
from dispersim.errors import SplitResolutionError
from dispersim.grid import Field, GridSpec, l2_norm

SPEC = GridSpec(1, 256, 40.0)
X = SPEC.axis_coordinates()


def gaussian(width=1.0):
    return Field(SPEC, np.exp(-(X**2) / (2 * width**2)))


class TestSchwartzSplit:
    def test_schwartz_input_splits_immediately(self):
        f = gaussian()
        sp = schwartz_split(f, 0.5 * l2_norm(f))
        assert sp.achieved_h_norm < 0.5 * l2_norm(f)

    def test_degenerate_split_accepted(self):
        f = gaussian()
        eps = 1.01 * l2_norm(f)
        sp = schwartz_split(f, eps)
        assert np.all(sp.g.values == 0)
        assert np.array_equal(sp.h.values, f.values)
        assert sp.achieved_h_norm < eps

    def test_exact_recomposition(self):
        f = Field(SPEC, (np.abs(X) <= 1.0).astype(complex))
        sp = schwartz_split(f, 0.1)
        err = l2_norm(Field(SPEC, f.values - (sp.g.values + sp.h.values)))
        assert err <= 1e-12 * l2_norm(f)

    def test_indicator_matches_quadrature_oracle(self):
        # Independent oracle: with the returned (sigma, R) the remainder of
        # the discretized indicator is the continuum quadrature of
        # (1 - cutoff_R(x) exp(-sigma^2 x^2/2))^2 over [-1, 1], evaluated
        # on a fine auxiliary mesh with no use of the grid pipeline.
        f = Field(SPEC, (np.abs(X) <= 1.0).astype(complex))
        sp = schwartz_split(f, 0.1)
        assert sp.achieved_h_norm < 0.1

        xs = np.linspace(-1.0, 1.0, 200_001)
        s = (2.0 * sp.radius - np.abs(xs)) / sp.radius
        a = np.where(s > 0, np.exp(-1.0 / np.maximum(s, 1e-300)), 0.0)
        b = np.where(s < 1, np.exp(-1.0 / np.maximum(1.0 - s, 1e-300)), 0.0)
        cutoff = a / (a + b)
        integrand = (1.0 - cutoff * np.exp(-0.5 * sp.sigma**2 * xs**2)) ** 2
        oracle = float(np.sqrt(np.trapezoid(integrand, xs)))
        assert abs(sp.achieved_h_norm - oracle) <= 0.1 * oracle

    def test_epsilon_monotonicity(self):
        f = Field(SPEC, (np.abs(X) <= 1.0).astype(complex))
        achieved = [schwartz_split(f, e).achieved_h_norm for e in (0.2, 0.1, 0.05)]
        assert achieved[0] >= achieved[1] >= achieved[2]

    def test_decay_report_finite_and_stable(self):
        # Every seminorm sup |x^alpha d^beta g| with |alpha|, |beta| <= 2.
        f = gaussian()
        worst = []
        for eps in (0.2, 0.1, 0.05):
            sp = schwartz_split(f, eps)
            report = [decay_seminorm(sp.g, (a,), (b,)) for a in range(3) for b in range(3)]
            assert all(np.isfinite(v) for v in report)
            worst.append(max(report))
        assert max(worst) < 10 * min(w for w in worst if w > 0)

    @pytest.mark.parametrize(
        "spec, width, eps",
        [(SPEC, 2.0, 0.2), (GridSpec(2, 64, 32.0), 2.0, 0.2), (GridSpec(3, 16, 8.0), 1.0, 0.3)],
        ids=["1d", "2d", "3d"],
    )
    def test_split_makes_no_fourier_transform(self, spec, width, eps, monkeypatch):
        # The split works in physical space alone: envelope times cutoff.
        f = Field(spec, np.exp(-spec.coordinate_norm_squared() / (2.0 * width**2)))
        calls = []

        def counted(real):
            def call(*args, **kwargs):
                calls.append(real.__name__)
                return real(*args, **kwargs)
            return call

        for name in ("fftn", "ifftn"):
            monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
        sp = schwartz_split(f, eps)
        assert np.any(sp.g.values != 0) and sp.achieved_h_norm < eps
        assert calls == []

    def test_cutoff_only_limit_reaches_small_eps(self):
        # The sigma schedule stalls at ||h|| = 0.075 (1D) and 0.088 (2D) on
        # these grids; the cutoff alone at the largest radius goes far below.
        spec2 = GridSpec(2, 64, 32.0)
        gaussian2d = Field(spec2, np.exp(-spec2.coordinate_norm_squared() / 8.0))
        for f in (gaussian(2.0), gaussian2d):
            sp = schwartz_split(f, 0.05)
            assert sp.achieved_h_norm < 0.05
            assert sp.sigma == 0.0 and sp.radius == f.spec.extent / 4.0
            cutoff = smooth_cutoff(f.spec, sp.radius)
            assert np.array_equal(sp.g.values, cutoff * f.values)

    def test_resolution_failure_is_loud(self):
        # Data with substantial mass outside the largest admissible cutoff
        # cannot be split to a tiny eps on this grid.
        wide = Field(SPEC, np.exp(-(X**2) / (2 * 12.0**2)))
        with pytest.raises(SplitResolutionError) as err:
            schwartz_split(wide, 1e-4)
        # The reported remainder is the cutoff-only one, the schedule's best.
        rest = (1.0 - smooth_cutoff(SPEC, SPEC.extent / 4.0)) * wide.values
        expected = l2_norm(Field(SPEC, rest))
        assert err.value.best_epsilon == pytest.approx(expected, rel=1e-12)

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            schwartz_split(gaussian(), 0.0)


class TestDecaySeminorm:
    def test_zero_field(self):
        assert decay_seminorm(Field(SPEC, np.zeros(256)), (1,), (1,)) == 0.0

    def test_weighted_gaussian_against_calculus_oracle(self):
        # sup |x exp(-x^2/2)| = exp(-1/2) at x = 1; a 1024-point grid keeps
        # the lattice within 1e-4 of the continuum maximum.
        fine = GridSpec(1, 1024, 20.0)
        x = fine.axis_coordinates()
        g = Field(fine, np.exp(-(x**2) / 2))
        assert abs(decay_seminorm(g, (1,), (0,)) - 0.6065306597126334) < 1e-4

    def test_derivative_gaussian_against_calculus_oracle(self):
        # d/dx exp(-x^2/2) = -x exp(-x^2/2), same supremum exp(-1/2).
        fine = GridSpec(1, 1024, 20.0)
        x = fine.axis_coordinates()
        g = Field(fine, np.exp(-(x**2) / 2))
        assert abs(decay_seminorm(g, (0,), (1,)) - 0.6065306597126334) < 1e-4

    def test_rejects_high_order_derivative(self):
        with pytest.raises(ValueError):
            decay_seminorm(gaussian(), (0,), (3,))


class TestSpectralDerivative:
    def test_derivative_of_mode(self):
        xi0 = 4 * SPEC.dxi
        f = Field(SPEC, np.exp(1j * xi0 * X))
        out = spectral_derivative(f, (1,))
        assert np.max(np.abs(out.values - 1j * xi0 * f.values)) < 1e-10

    def test_second_derivative_of_gaussian(self):
        g = gaussian()
        out = spectral_derivative(g, (2,))
        expected = (X**2 - 1) * np.exp(-(X**2) / 2)
        assert np.max(np.abs(out.values - expected)) < 1e-8


def test_smooth_cutoff_plateau_and_support():
    spec = GridSpec(1, 256, 40.0)
    c = smooth_cutoff(spec, 5.0)
    x = spec.axis_coordinates()
    assert np.all(c[np.abs(x) <= 5.0] == 1.0)
    assert np.all(c[np.abs(x) >= 10.0] == 0.0)
    assert np.all((c >= 0) & (c <= 1))
