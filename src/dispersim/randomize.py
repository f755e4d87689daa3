"""Gaussian coefficient draws and the unit-scale randomization map, whose
mesh weight sum_k g_k psi(xi - k) :mod:`dispersim.wiener` gathers.

Each lattice point receives an independent standard complex Gaussian
g_k = (X + iY)/sqrt(2) with X, Y independent standard normals, so
E|g_k|^2 = 1 and each real component, having variance 1/2, satisfies the
moment-generating bound E exp(gamma X/sqrt(2)) = exp(gamma^2 / 4).

Generation is counter based (Salmon et al., SC'11): samples come in
blocks of 256, and the Philox stream of block b is keyed by the pair
(seed, b).  It fills the block's rows in order, sample after sample, each
row in the fixed canonical (lexicographic) lattice order, so ensemble
member m is row m mod 256 of block m // 256.  A range starting mid-block
draws the block's earlier rows and drops them, so ensembles are
reproducible whatever the chunks their samples are drawn in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .grid import Field, GridSpec, _apply_multiplier
from .wiener import UnitLattice, _gather

_MASK64 = (1 << 64) - 1
_SQRT_HALF = 1.0 / np.sqrt(2.0)
_BLOCK = 256  # samples per Philox key


def _key(seed: int, block: int) -> np.ndarray:
    return np.array([int(seed) & _MASK64, int(block) & _MASK64], dtype=np.uint64)


class _RowStream:
    """Samples ``sample_offset``, ``sample_offset`` + 1, ... of seed's stream,
    read in order into the caller's arrays.  The generator of the current
    256-sample block stays live between reads, so a read carries on where
    the last one stopped, and any split of a range into reads gives the
    same rows."""

    def __init__(self, seed: int, sample_offset: int = 0):
        self._seed, self._next = seed, sample_offset
        self._gen, self._block = None, -1

    def read(self, out: np.ndarray) -> np.ndarray:
        """Fill the (rows, n_coeffs) complex128 array ``out`` with the next
        ``rows`` samples, one per row, and return it."""
        parts = out.view(np.float64)  # row m: Re, Im of each coefficient, interleaved
        done = 0
        while done < len(out):
            block, row = divmod(self._next, _BLOCK)
            if block != self._block:
                self._gen = np.random.Generator(np.random.Philox(key=_key(self._seed, block)))
                self._gen.standard_normal((row, parts.shape[1]))  # the block's earlier rows
                self._block = block
            take = min(len(out) - done, _BLOCK - row)
            self._gen.standard_normal(out=parts[done : done + take])
            done += take
            self._next += take
        out *= _SQRT_HALF
        return out


def gaussian_matrix(
    seed: int, n_samples: int, n_coeffs: int, sample_offset: int = 0
) -> np.ndarray:
    """The n_coeffs complex Gaussians of each sample in [offset, offset +
    n_samples), one row per sample: sample m is row m mod 256 of block
    m // 256 of the stream above, so any split of a range gives the same
    rows."""
    out = np.empty((n_samples, n_coeffs), dtype=np.complex128)
    return _RowStream(seed, sample_offset).read(out)


@dataclass(frozen=True, eq=False)
class RandomDraw:
    """One realization of the coefficient family over a unit lattice."""

    lattice: UnitLattice
    coefficients: np.ndarray  # aligned with lattice.points

    def __post_init__(self):
        if self.coefficients.shape != (len(self.lattice),):
            raise ConfigurationError(
                f"{self.coefficients.shape[0]} coefficients for a lattice of"
                f" {len(self.lattice)} points"
            )
        arr = np.ascontiguousarray(self.coefficients, dtype=np.complex128)
        arr.flags.writeable = False
        object.__setattr__(self, "coefficients", arr)


def draw(seed: int, lattice: UnitLattice, sample_index: int = 0) -> RandomDraw:
    """Draw one sample of the coefficient family, row ``sample_index`` of
    :func:`gaussian_matrix`; same seed gives identical coefficients.  Each
    call draws the earlier rows of its block, so a loop over samples
    takes rows of one :func:`gaussian_matrix` call instead."""
    return RandomDraw(lattice, gaussian_matrix(seed, 1, len(lattice), sample_index)[0])


def randomized_weights(spec: GridSpec, coefficients: np.ndarray) -> np.ndarray:
    """Frequency-mesh weight sum_k g_k psi(xi - k) for one draw, gathered
    from the partition of unity corner by corner in lattice order."""
    weights = np.empty((1, spec.size), dtype=np.complex128)
    coefficients = np.asarray(coefficients, dtype=np.complex128)[None, :]
    _gather(spec, coefficients, weights, np.empty_like(weights))
    return weights.reshape(spec.shape)


def randomize_field(f: Field, d: RandomDraw) -> Field:
    """The randomized field sum_k g_k psi(D - k) f.

    Implemented as a single frequency-side multiplication by
    sum_k g_k psi(xi - k), which equals the sum of scaled unit-scale
    pieces by linearity of the inverse transform.
    """
    if d.lattice.spec != f.spec:
        raise ConfigurationError("draw lattice does not match the field's grid")
    return _apply_multiplier(f, randomized_weights(f.spec, d.coefficients))


# Moments are drawn and summed in blocks of this many samples: a constant
# of the estimate, so its rounding never depends on how a run is scheduled.
_MOMENT_BLOCK = 4096
# A block's product is formed for at most this many vectors at a time.
_MOMENT_COLUMNS = 64


def khintchine_moments(c, p_values, samples: int, seed: int) -> list:
    """Monte Carlo L^p norms ( mean_m |sum_k g_k^(m) c_k|^p )^(1/p) over
    samples [0, samples) of seed's stream, one per p: a list for one
    vector ``c``, or for a (length, n_vectors) stack one such list per
    column.  Every vector and every order reduce the same draws, g @ C
    summed block by block of ``_MOMENT_BLOCK`` samples and formed for at
    most ``_MOMENT_COLUMNS`` columns at a time; every p must be >= 2 and
    samples >= 1000."""
    for p in p_values:
        if p < 2:
            raise ConfigurationError(f"p_values: moment order must be >= 2, got {p}")
    if samples < 1000:
        raise ConfigurationError(f"samples: need at least 1000, got {samples}")
    stack = np.asarray(c, dtype=np.complex128).reshape(len(c), -1)
    totals = np.zeros((len(p_values), stack.shape[1]))
    # Groups of columns start at multiples of _MOMENT_COLUMNS, a multiple of
    # gemm kernels' column blocking (4 in OpenBLAS's Haswell zgemm), so each
    # has the bits of the stack's product; a lone last column, which numpy
    # would sum pairwise, not row by row, joins the group before it.
    n = stack.shape[1]
    starts = range(0, max(n - 1, 1), _MOMENT_COLUMNS)
    for start in range(0, samples, _MOMENT_BLOCK):
        count = min(_MOMENT_BLOCK, samples - start)
        g = gaussian_matrix(seed, count, len(stack), sample_offset=start)
        for lo, hi in zip(starts, [*starts[1:], n]):
            vals = np.abs(g @ stack[:, lo:hi])
            for i, p in enumerate(p_values):
                totals[i, lo:hi] += np.sum(vals**p, axis=0)
    moments = ((totals / samples) ** (1.0 / np.array(p_values))[:, None]).T.tolist()
    return moments if np.ndim(c) > 1 else moments[0]
