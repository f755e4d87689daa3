"""Density split f = g + h with g smooth-and-decaying and ||h||_L2 < eps.

The smooth part is produced by mollifying the spectrum with a width-sigma
Gaussian and cutting off in space at radius R.  Convolving the spectrum
with a unit-mass Gaussian of width sigma is implemented through its exact
physical-side equivalent, multiplication by exp(-sigma^2 |x|^2 / 2); the
cutoff is a smooth radial ramp from the same compactly supported family
as the frequency bump, equal to 1 inside |x| <= R and 0 outside
|x| >= 2R.  The adaptive loop walks a fixed schedule of shrinking sigma
and growing R, ending at the cutoff alone (sigma -> 0) at the largest
radius, until the remainder drops below eps, so tightening eps never
increases the achieved remainder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SplitResolutionError
from .grid import (
    Field,
    GridSpec,
    Spectrum,
    forward_transform,
    inverse_transform,
    l2_norm,
    monomial_weight,
)
from .wiener import smooth_step


def whole_number(value) -> int | None:
    """``value`` as an int when it is a whole number, a number with no
    fractional part (3.0 reads as 3); None for anything else: a bool, a
    string, a fraction, an infinity or a NaN."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer)):
        return None
    return int(value) if value % 1 == 0 else None


def multi_index(entries) -> tuple[int, ...]:
    """Validated multi-index: one nonnegative whole number per axis."""
    idx = tuple(whole_number(e) for e in entries)
    if any(e is None or e < 0 for e in idx):
        raise ValueError(f"multi-index entries must be whole numbers >= 0, got {entries!r}")
    return idx


def spectral_derivative(f: Field, beta_idx) -> Field:
    """d^beta f via frequency multiplication by (i xi)^beta, |beta| <= 2."""
    beta_idx = multi_index(beta_idx)
    spec = f.spec
    if len(beta_idx) != spec.dim:
        raise ValueError("multi-index length must match grid dim")
    if sum(beta_idx) > 2:
        raise ValueError("spectral derivatives are limited to order 2")
    if sum(beta_idx) == 0:
        return f
    F = forward_transform(f)
    weight = monomial_weight(spec.frequency_grids(), beta_idx, imaginary=True)
    return inverse_transform(Spectrum(spec, weight * F.coeffs))


def decay_seminorm(g: Field, alpha_idx, beta_idx) -> float:
    """sup over grid points of |x^alpha (d^beta g)(x)|."""
    alpha_idx = multi_index(alpha_idx)
    spec = g.spec
    if len(alpha_idx) != spec.dim:
        raise ValueError("multi-index length must match grid dim")
    der = spectral_derivative(g, beta_idx)
    weight = monomial_weight(spec.coordinate_grids(), alpha_idx)
    return float(np.max(np.abs(weight * der.values)))


def smooth_cutoff(spec: GridSpec, radius: float) -> np.ndarray:
    """Radial cutoff: 1 for |x| <= radius, 0 for |x| >= 2 radius, smooth."""
    r = np.sqrt(spec.coordinate_norm_squared())
    return smooth_step((2.0 * radius - r) / radius)


@dataclass(frozen=True, eq=False)
class SchwartzSplit:
    """The density split f = g + h on f's grid: the smooth decaying part ``g``,
    the remainder ``h`` with ``achieved_h_norm`` = ||h||_L2 < ``epsilon``, and
    the envelope width ``sigma`` and cutoff ``radius`` that made g (both 0
    when ||f|| < epsilon, where g = 0)."""

    g: Field
    h: Field
    epsilon: float
    sigma: float
    radius: float
    achieved_h_norm: float


def _candidate(f: Field, sigma: float, radius: float) -> Field:
    spec = f.spec
    envelope = np.exp(-0.5 * sigma**2 * spec.coordinate_norm_squared())
    return Field(spec, smooth_cutoff(spec, radius) * envelope * f.values)


def schwartz_split(f: Field, eps: float) -> SchwartzSplit:
    """Split f into a smooth decaying part g and a small remainder h.

    Walks sigma down by halving and radius up geometrically (capped at a
    quarter of the box so the cutoff vanishes before the boundary) until
    ||f - g|| < eps.  Once sigma is below one frequency cell with the
    radius at its cap, the last candidate is the sigma -> 0 limit, the
    cutoff alone; it leaves the smallest remainder of the whole schedule,
    since the envelope only shrinks g and the largest radius keeps the
    most of f.  Raises
    :class:`SplitResolutionError`, reporting that remainder, when even it
    does not reach eps.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    spec = f.spec
    norm_f = l2_norm(f)
    if norm_f < eps:
        zero = Field(spec, np.zeros(spec.shape, dtype=np.complex128))
        return SchwartzSplit(zero, f, eps, 0.0, 0.0, norm_f)

    sigma0 = max(spec.axis_frequencies().max() / 4.0, spec.dxi)
    radius0 = max(2.0 * spec.dx, spec.extent / 16.0)
    radius_cap = spec.extent / 4.0
    sigma, radius = sigma0, radius0
    while True:
        g = _candidate(f, sigma, radius)
        h = Field(spec, f.values - g.values)
        err = l2_norm(h)
        if err < eps:
            return SchwartzSplit(g, h, eps, sigma, radius, err)
        if sigma == 0.0:
            raise SplitResolutionError(
                f"split stalled at ||h|| = {err:.3e} >= eps = {eps:.3e},"
                f" the remainder of the cutoff alone at radius {radius:.4g}",
                best_epsilon=err,
            )
        if sigma < spec.dxi and radius >= radius_cap:
            sigma = 0.0
        else:
            sigma *= 0.5
            radius = min(radius * 1.5, radius_cap)
