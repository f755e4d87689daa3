"""Uniform periodic grids with a discrete Fourier transform pair and norms.

The physical box is [-L/2, L/2)^dim sampled at N points per axis; the
matched frequency lattice is (2*pi/L) * {-N/2, ..., N/2 - 1} per axis.
Transforms carry explicit dx = L/N and dxi = 2*pi/L quadrature weights so
that discrete norms approximate their continuum counterparts instead of
raw coefficient sums.  Both fields and spectra are stored in natural
(ascending coordinate / ascending frequency) order.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import ShapeError

_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic sampling of the box [-extent/2, extent/2)^dim.

    Parameters
    ----------
    dim : int
        Spatial dimension, one of {1, 2, 3}.
    samples_per_axis : int
        Points per axis; must be a power of two >= 16.
    extent : float
        Side length L of the periodic box.
    """

    dim: int
    samples_per_axis: int
    extent: float

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ShapeError(f"dim must be 1, 2 or 3, got {self.dim}")
        n = self.samples_per_axis
        if n < 16 or (n & (n - 1)) != 0:
            raise ShapeError(
                f"samples_per_axis must be a power of two >= 16, got {n}"
            )
        if not 0.0 < self.extent < np.inf:
            raise ShapeError(f"extent must be finite and positive, got {self.extent}")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.samples_per_axis,) * self.dim

    @property
    def size(self) -> int:
        return self.samples_per_axis**self.dim

    @property
    def dx(self) -> float:
        return self.extent / self.samples_per_axis

    @property
    def dxi(self) -> float:
        return _TWO_PI / self.extent

    @property
    def cell_volume(self) -> float:
        return self.dx**self.dim

    @property
    def frequency_cell_volume(self) -> float:
        return self.dxi**self.dim

    def axis_coordinates(self) -> np.ndarray:
        """Sample coordinates along one axis, ascending; x = 0 sits at index N/2."""
        n = self.samples_per_axis
        return (np.arange(n) - n // 2) * self.dx

    def axis_frequencies(self) -> np.ndarray:
        """Lattice frequencies along one axis, ascending; xi = 0 at index N/2."""
        n = self.samples_per_axis
        return (np.arange(n) - n // 2) * self.dxi

    def coordinate_grids(self) -> tuple[np.ndarray, ...]:
        """Meshgrid ('ij') of coordinates, one array per axis."""
        ax = self.axis_coordinates()
        return tuple(np.meshgrid(*([ax] * self.dim), indexing="ij"))

    def frequency_grids(self) -> tuple[np.ndarray, ...]:
        """Meshgrid ('ij') of lattice frequencies, one array per axis."""
        ax = self.axis_frequencies()
        return tuple(np.meshgrid(*([ax] * self.dim), indexing="ij"))

    def frequency_norm_squared(self) -> np.ndarray:
        """|xi|^2 on the full frequency mesh."""
        return sum(g**2 for g in self.frequency_grids())

    def coordinate_norm_squared(self) -> np.ndarray:
        """|x|^2 on the full coordinate mesh."""
        return sum(g**2 for g in self.coordinate_grids())

    def origin_index(self) -> tuple[int, ...]:
        return (self.samples_per_axis // 2,) * self.dim


def monomial_weight(grids, powers, imaginary=False) -> np.ndarray:
    """x^alpha, xi^alpha or (i xi)^beta (``imaginary``) on the given mesh
    grids, multiplied axis by axis onto ones."""
    out = np.ones(grids[0].shape, dtype=np.complex128 if imaginary else float)
    for g, p in zip(grids, powers):
        if p:
            out = out * ((1j * g) ** p if imaginary else g**p)
    return out


def _validated(spec: GridSpec, values, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128)
    if arr.shape != spec.shape:
        raise ShapeError(
            f"{what} shape {arr.shape} does not match grid shape {spec.shape}"
        )
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Field:
    """Complex samples of a function on the physical grid, natural order."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _validated(self.spec, self.values, "field"))


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Complex coefficients on the frequency lattice, ascending order.

    The coefficient at flat lattice index m (per axis) corresponds to the
    frequency (2*pi/L) * (m - N/2).
    """

    spec: GridSpec
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "coeffs", _validated(self.spec, self.coeffs, "spectrum")
        )


@lru_cache(maxsize=8)
def _checkerboard(spec: GridSpec) -> np.ndarray:
    """The signs (-1)^(j_1 + ... + j_dim) on the mesh, read-only int8."""
    axis = (1 - 2 * (np.arange(spec.samples_per_axis) % 2)).astype(np.int8)
    signs = reduce(np.multiply.outer, [axis] * spec.dim)
    signs.flags.writeable = False
    return signs


def _transform(spec: GridSpec, values: np.ndarray, inverse: bool = False) -> np.ndarray:
    """The pair on the trailing ``spec.dim`` axes of a stack of fields (or,
    ``inverse``, spectra), in place in one product array: the FFT of a
    stack rounds like one call per member, so each gets a lone call's bits."""
    # The index shifts by N/2 around the FFT equal multiplying its input and
    # output by the checkerboard c, times the global sign (-1)^(dim N/2).
    # N is a power of two >= 16, so N/2 is even and that sign is +1.
    fft, scale = np.fft.fftn, spec.cell_volume * _TWO_PI ** (-spec.dim / 2.0)
    if inverse:
        fft, scale = np.fft.ifftn, _TWO_PI ** (spec.dim / 2.0) / spec.cell_volume
    c = _checkerboard(spec)
    raw = c * values
    fft(raw, axes=tuple(range(-spec.dim, 0)), out=raw)
    raw *= scale * c
    return raw


def forward_transform(f: Field) -> Spectrum:
    """Quadrature-weighted discrete Fourier transform approximating
    (2*pi)^(-dim/2) * integral of exp(-i x.xi) f(x) dx, by :func:`_transform`."""
    return Spectrum(f.spec, _transform(f.spec, f.values))


def inverse_transform(F: Spectrum) -> Field:
    """Exact inverse of :func:`forward_transform`, by :func:`_transform`."""
    return Field(F.spec, _transform(F.spec, F.coeffs, inverse=True))


def _apply_multiplier(f: Field, multiplier) -> Field:
    """The field whose spectrum is ``multiplier`` times f's: one forward and
    one inverse transform around a frequency-side multiplication."""
    return inverse_transform(Spectrum(f.spec, multiplier * forward_transform(f).coeffs))


def _l2_norms(spec: GridSpec, values: np.ndarray) -> np.ndarray:
    """Quadrature-weighted discrete L2 norm of each field of a stack."""
    return np.sqrt(spec.cell_volume * np.sum(np.abs(values.reshape(-1, spec.size)) ** 2, axis=1))


def l2_norm(f: Field) -> float:
    """Quadrature-weighted discrete L2 norm of a field."""
    return float(_l2_norms(f.spec, f.values)[0])


_MAGIC = b"DGF1"
_HEADER = struct.Struct("<4sBBId")
_FIELD_TAG = 0


def write_binary(f: Field, path) -> None:
    """Serialize a field to the flat binary layout: header (tag 0, dim, N,
    L) then row-major complex pairs.  Round trips are bit exact."""
    spec = f.spec
    with open(path, "wb") as fh:
        fh.write(
            _HEADER.pack(_MAGIC, _FIELD_TAG, spec.dim, spec.samples_per_axis, spec.extent)
        )
        fh.write(np.ascontiguousarray(f.values).tobytes())


def read_binary(path) -> Field:
    """Load a :func:`write_binary` file, validating header, tag and payload
    size."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        payload = fh.read()
    if len(header) != _HEADER.size:
        raise ShapeError(f"truncated header in {path}")
    magic, tag, dim, n, extent = _HEADER.unpack(header)
    if magic != _MAGIC:
        raise ShapeError(f"{path} is not a serialized field")
    if tag != _FIELD_TAG:
        raise ShapeError(f"{path} has representation tag {tag}; only fields (tag 0) are read")
    spec = GridSpec(dim=dim, samples_per_axis=n, extent=extent)
    if len(payload) % np.dtype(np.complex128).itemsize != 0:
        raise ShapeError(f"payload of {path} is not a whole number of samples")
    flat = np.frombuffer(payload, dtype=np.complex128)
    if flat.size != spec.size:
        raise ShapeError(
            f"payload holds {flat.size} samples, grid needs {spec.size}"
        )
    return Field(spec, flat.reshape(spec.shape))
