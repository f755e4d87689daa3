"""Gaussian coefficient draws and the unit-scale randomization map.

Each lattice point receives an independent standard complex Gaussian
g_k = (X + iY)/sqrt(2) with X, Y independent standard normals, so
E|g_k|^2 = 1 and each real component, having variance 1/2, satisfies the
moment-generating bound E exp(gamma X/sqrt(2)) = exp(gamma^2 / 4).

Generation is counter based: the Philox stream for ensemble member m is
keyed by the pair (seed, m), and coefficients are read off in the fixed
canonical (lexicographic) lattice order.  Ensembles are therefore
reproducible, whatever the chunks their samples are drawn in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .grid import Field, GridSpec, Spectrum, forward_transform, inverse_transform
from .wiener import UnitLattice, projection_blocks

_MASK64 = (1 << 64) - 1
_SQRT_HALF = 1.0 / np.sqrt(2.0)


def _key(seed: int, sample_index: int) -> np.ndarray:
    return np.array(
        [int(seed) & _MASK64, int(sample_index) & _MASK64], dtype=np.uint64
    )


def coefficient_block(seed: int, n_coeffs: int, sample_index: int = 0) -> np.ndarray:
    """The n_coeffs complex Gaussians of ensemble member ``sample_index``.

    Pure in (seed, sample_index, position): re-running with the same
    arguments reproduces the same values bit for bit.
    """
    gen = np.random.Generator(np.random.Philox(key=_key(seed, sample_index)))
    z = gen.standard_normal(2 * n_coeffs)
    return _SQRT_HALF * (z[0::2] + 1j * z[1::2])


def gaussian_matrix(
    seed: int, n_samples: int, n_coeffs: int, sample_offset: int = 0
) -> np.ndarray:
    """Stack of coefficient blocks for samples [offset, offset + n_samples).

    Identical to stacking :func:`coefficient_block` calls; the bit
    generator pair and its state record are created once per call, and
    per sample only the key's sample word changes before the generator
    fills that sample's row of normals in place.
    """
    out = np.empty((n_samples, n_coeffs), dtype=np.complex128)
    parts = out.view(np.float64)  # row m: Re, Im of each coefficient, interleaved
    bg = np.random.Philox(key=_key(seed, sample_offset))
    gen = np.random.Generator(bg)
    key = _key(seed, sample_offset)
    # A fresh stream: counter 0, empty output buffer.
    state = dict(bg.state, buffer_pos=4, has_uint32=0, uinteger=0)
    state["state"] = {"counter": np.zeros(4, dtype=np.uint64), "key": key}
    for m in range(n_samples):
        key[1] = (sample_offset + m) & _MASK64
        bg.state = state
        gen.standard_normal(out=parts[m])
    out *= _SQRT_HALF
    return out


@dataclass(frozen=True, eq=False)
class RandomDraw:
    """One realization of the coefficient family over a unit lattice."""

    seed: int
    lattice: UnitLattice
    coefficients: np.ndarray  # aligned with lattice.points
    sample_index: int = 0

    def __post_init__(self):
        if self.coefficients.shape != (len(self.lattice),):
            raise ConfigurationError(
                f"{self.coefficients.shape[0]} coefficients for a lattice of"
                f" {len(self.lattice)} points"
            )
        arr = np.ascontiguousarray(self.coefficients, dtype=np.complex128)
        arr.flags.writeable = False
        object.__setattr__(self, "coefficients", arr)

    def coefficient(self, k) -> complex:
        return complex(self.coefficients[self.lattice.index_of(k)])


def draw(seed: int, lattice: UnitLattice, sample_index: int = 0) -> RandomDraw:
    """Draw the coefficient family; same seed gives identical coefficients."""
    return RandomDraw(
        seed=seed,
        lattice=lattice,
        coefficients=coefficient_block(seed, len(lattice), sample_index),
        sample_index=sample_index,
    )


def constant_draw(lattice: UnitLattice, value: complex = 1.0) -> RandomDraw:
    """Test hook: every coefficient forced to ``value`` (value 1 turns the
    randomization into plain reconstruction)."""
    return RandomDraw(
        seed=0,
        lattice=lattice,
        coefficients=np.full(len(lattice), value, dtype=np.complex128),
    )


def randomized_weights(spec: GridSpec, coefficients: np.ndarray) -> np.ndarray:
    """Frequency-mesh weight sum_k g_k psi(xi - k) for one draw, gathered
    from the neighbour table corner by corner in lattice order."""
    table = projection_blocks(spec)
    return _gather_weights(table.index, table.weight, coefficients).reshape(spec.shape)


def _gather_weights(index, weight, coefficients) -> np.ndarray:
    """Flat sum_k g_k psi(xi - k) over the rows of neighbour-table arrays
    ``index`` and ``weight`` (any row order), adding the corners in
    lattice order."""
    weights = np.zeros(index.shape[0], dtype=np.complex128)
    for idx, w in zip(index.T, weight.T):
        weights += coefficients[idx] * w
    return weights


def randomize_field(f: Field, d: RandomDraw) -> Field:
    """The randomized field sum_k g_k psi(D - k) f.

    Implemented as a single frequency-side multiplication by
    sum_k g_k psi(xi - k), which equals the sum of scaled unit-scale
    pieces by linearity of the inverse transform.
    """
    spec = f.spec
    if d.lattice.spec != spec:
        raise ConfigurationError("draw lattice does not match the field's grid")
    F = forward_transform(f)
    weights = randomized_weights(spec, d.coefficients)
    return inverse_transform(Spectrum(spec, weights * F.coeffs))


# Moments are drawn and summed in blocks of this many samples: a constant
# of the estimate, so its rounding never depends on how a run is scheduled.
_MOMENT_BLOCK = 4096


def khintchine_moments(c, p_values, samples: int, seed: int) -> list[float]:
    """Monte Carlo L^p norms ( mean_m |sum_k g_k^(m) c_k|^p )^(1/p) over
    samples [0, samples), one per p, all orders reducing the same draws,
    summed block by block of ``_MOMENT_BLOCK`` samples; every p must be
    >= 2 and samples >= 1000."""
    for p in p_values:
        if p < 2:
            raise ConfigurationError(f"p_values: moment order must be >= 2, got {p}")
    if samples < 1000:
        raise ConfigurationError(f"samples: need at least 1000, got {samples}")
    c = np.asarray(c, dtype=np.complex128).reshape(-1)
    if c.size == 0 or not np.any(c != 0):
        return [0.0] * len(p_values)
    totals = [0.0] * len(p_values)
    for start in range(0, samples, _MOMENT_BLOCK):
        count = min(_MOMENT_BLOCK, samples - start)
        vals = np.abs(gaussian_matrix(seed, count, c.size, sample_offset=start) @ c)
        for i, p in enumerate(p_values):
            totals[i] += float(np.sum(vals**p))
    return [float((t / samples) ** (1.0 / p)) for t, p in zip(totals, p_values)]


def khintchine_moment(c, p: float, samples: int, seed: int) -> float:
    """Monte Carlo estimate of the L^p norm over draws of sum_k g_k c_k."""
    return khintchine_moments(c, (p,), samples, seed)[0]


def expected_randomized_norm_squared(f: Field) -> float:
    """Closed-form E ||f^omega||_L2^2 = sum_k ||psi(D-k) f||_L2^2."""
    spec = f.spec
    F = forward_transform(f).coeffs.reshape(-1)
    acc = np.zeros(spec.size)
    for weight in projection_blocks(spec).weight.T:
        acc += weight**2
    return float(spec.frequency_cell_volume * np.sum(acc * np.abs(F) ** 2))
