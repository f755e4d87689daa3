"""Free dispersive flows as diagonal Fourier multipliers.

Every flow is exact for the discretized problem: evolving a field just
multiplies its spectrum by the symbol
    kdv            exp(i t xi^3)          (dimension 1)
    wave-plus      exp(+i t |xi|)         (dimension >= 2)
    wave-minus     exp(-i t |xi|)         (dimension >= 2)
    wave-half      cos(t |xi|)            (dimension >= 2, not unimodular)
    schrodinger    exp(i t sum_j eps_j xi_j^2), eps_j = +-1
so there is no time stepping and no additional discretization error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import CheckResult
from .errors import ConfigurationError, SingularMultiplierError
from .grid import (
    Field,
    GridSpec,
    Spectrum,
    forward_transform,
    inverse_transform,
    l2_norm,
)

_FAMILIES = ("kdv", "wave-plus", "wave-minus", "wave-half", "schrodinger")


@dataclass(frozen=True)
class FlowKind:
    """One of the free flows; Schrodinger carries a +-1 sign per axis."""

    family: str
    signature: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ConfigurationError(f"unknown flow family {self.family!r}")
        if self.family == "schrodinger":
            sig = self.signature
            if not sig or any(s not in (-1, 1) for s in sig):
                raise ConfigurationError(
                    "schrodinger flow needs a +-1 signature, one sign per axis"
                )
        elif self.signature is not None:
            raise ConfigurationError(f"{self.family} takes no signature")

    @classmethod
    def parse(cls, text: str) -> "FlowKind":
        """Parse a config name: kdv, wave-half, wave-plus, wave-minus, or
        schrodinger:+-... with one sign per axis."""
        text = text.strip()
        if text.startswith("schrodinger"):
            _, _, sigtext = text.partition(":")
            if not sigtext:
                raise ConfigurationError(
                    "schrodinger flow name must carry a signature, e.g. schrodinger:+-"
                )
            try:
                sig = tuple({"+": 1, "-": -1}[c] for c in sigtext)
            except KeyError:
                raise ConfigurationError(
                    f"signature {sigtext!r} must consist of '+' and '-' only"
                ) from None
            return cls("schrodinger", sig)
        return cls(text)

    def label(self) -> str:
        if self.family == "schrodinger":
            return "schrodinger:" + "".join(
                "+" if s > 0 else "-" for s in self.signature
            )
        return self.family

    def validate_for(self, spec: GridSpec) -> None:
        if self.family == "kdv" and spec.dim != 1:
            raise ConfigurationError("kdv flow is one dimensional")
        if self.family.startswith("wave") and spec.dim < 2:
            raise ConfigurationError("wave flows need dimension >= 2")
        if self.family == "schrodinger" and len(self.signature) != spec.dim:
            raise ConfigurationError(
                f"schrodinger signature length {len(self.signature)}"
                f" does not match grid dim {spec.dim}"
            )

    @property
    def unimodular(self) -> bool:
        return self.family != "wave-half"


def dispersion(kind: FlowKind, spec: GridSpec) -> np.ndarray:
    """Phase function phi(xi) on the frequency mesh (wave-half excluded,
    it is not a pure phase)."""
    kind.validate_for(spec)
    mesh = spec.frequency_grids()
    if kind.family == "kdv":
        return mesh[0] ** 3
    if kind.family in ("wave-plus", "wave-minus"):
        mag = np.sqrt(spec.frequency_norm_squared())
        return mag if kind.family == "wave-plus" else -mag
    if kind.family == "schrodinger":
        out = np.zeros(spec.shape)
        for s, g in zip(kind.signature, mesh):
            out = out + s * g**2
        return out
    raise ConfigurationError(f"{kind.family} has no single phase function")


def symbol(kind: FlowKind, spec: GridSpec, t: float) -> np.ndarray:
    """Frequency-side multiplier of the flow at time t."""
    kind.validate_for(spec)
    if kind.family == "wave-half":
        mag = np.sqrt(spec.frequency_norm_squared())
        return np.cos(t * mag).astype(np.complex128)
    return np.exp(1j * t * dispersion(kind, spec))


def evolve(f: Field, kind: FlowKind, t: float) -> Field:
    """Apply the free flow at time t; t = 0 is the identity."""
    F = forward_transform(f)
    return inverse_transform(Spectrum(f.spec, symbol(kind, f.spec, t) * F.coeffs))


_FRACTIONAL_KINDS = ("space", "time-kdv", "time-wave", "time-schrodinger")


def fractional_multiplier(
    f: Field, a: float, kind: str, signature: tuple[int, ...] | None = None
) -> Field:
    """Coefficientwise fractional weight:

    space            |xi|^a
    time-kdv         |xi|^(3a)
    time-wave        |xi|^a
    time-schrodinger |sum_j eps_j xi_j^2|^(2a)

    No time evolution is applied; compose with :func:`evolve` for the
    evolved fractional operators.  a = 0 is exactly the identity.  For
    a < 0 every coefficient sitting on a zero of the weight base must
    vanish, otherwise a :class:`SingularMultiplierError` is raised.
    """
    if kind not in _FRACTIONAL_KINDS:
        raise ConfigurationError(f"unknown fractional multiplier kind {kind!r}")
    if a == 0:
        return f
    spec = f.spec
    if kind == "time-schrodinger":
        if signature is None:
            signature = (1,) * spec.dim
        if len(signature) != spec.dim or any(s not in (-1, 1) for s in signature):
            raise ConfigurationError("time-schrodinger needs a +-1 signature per axis")
        base = np.zeros(spec.shape)
        for s, g in zip(signature, spec.frequency_grids()):
            base = base + s * g**2
        base = np.abs(base)
        exponent = 2.0 * a
    else:
        base = np.sqrt(spec.frequency_norm_squared())
        exponent = {"space": a, "time-kdv": 3.0 * a, "time-wave": a}[kind]
    F = forward_transform(f)
    zero = base == 0.0
    # Rounding noise from the transform does not count as spectral mass.
    tol = 1e-12 * float(np.max(np.abs(F.coeffs), initial=0.0))
    if exponent < 0 and np.any(np.abs(F.coeffs[zero]) > tol):
        raise SingularMultiplierError(
            "negative-order multiplier with nonzero coefficient at a zero of the symbol"
        )
    if exponent < 0:
        coeffs = F.coeffs.copy()
        coeffs[zero] = 0.0
        F = Spectrum(spec, coeffs)
    weight = np.zeros(spec.shape)
    np.power(base, exponent, out=weight, where=~zero)
    if exponent > 0:
        weight[zero] = 0.0
    return inverse_transform(Spectrum(spec, weight * F.coeffs))


# ---------------------------------------------------------------------------
# Invariant suite (shared by tests and the check-propagators subcommand)
# ---------------------------------------------------------------------------


def _random_field(spec: GridSpec, rng) -> Field:
    vals = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
    return Field(spec, vals)


def invariant_report(specs_by_dim, seed: int = 20240902):
    """Unitarity, group law, half-sum contraction, identity at t = 0, and
    the small-time symbol bounds used by the tail estimates."""
    rng = np.random.default_rng(seed)
    results = []
    flows: list[tuple[FlowKind, GridSpec]] = []
    if 1 in specs_by_dim:
        flows.append((FlowKind.parse("kdv"), specs_by_dim[1]))
        flows.append((FlowKind.parse("schrodinger:+"), specs_by_dim[1]))
    if 2 in specs_by_dim:
        flows.append((FlowKind.parse("wave-plus"), specs_by_dim[2]))
        flows.append((FlowKind.parse("wave-minus"), specs_by_dim[2]))
        flows.append((FlowKind.parse("schrodinger:+-"), specs_by_dim[2]))
        flows.append((FlowKind.parse("schrodinger:++"), specs_by_dim[2]))
    if 3 in specs_by_dim:
        flows.append((FlowKind.parse("schrodinger:++-"), specs_by_dim[3]))

    times = (0.1, 1.0, -0.35)
    for kind, spec in flows:
        f = _random_field(spec, rng)
        base = l2_norm(f)
        worst_unit = max(
            abs(l2_norm(evolve(f, kind, t)) - base) / base for t in times
        )
        results.append(
            CheckResult(f"unitarity ({kind.label()})", worst_unit < 1e-10, worst_unit, 1e-10)
        )
        s, t = 0.3, 0.45
        two_step = evolve(evolve(f, kind, s), kind, t)
        one_step = evolve(f, kind, s + t)
        dev = l2_norm(Field(spec, two_step.values - one_step.values)) / base
        results.append(
            CheckResult(f"group law ({kind.label()})", dev < 1e-10, dev, 1e-10)
        )

    if 2 in specs_by_dim:
        spec = specs_by_dim[2]
        kind = FlowKind.parse("wave-half")
        f = _random_field(spec, rng)
        base = l2_norm(f)
        worst = max(l2_norm(evolve(f, kind, t)) / base for t in times)
        limit = 1.0 + 1e-12
        results.append(
            CheckResult("half-sum contraction (wave-half)", worst <= limit, worst, limit)
        )

    for kind, spec in flows + (
        [(FlowKind.parse("wave-half"), specs_by_dim[2])] if 2 in specs_by_dim else []
    ):
        f = _random_field(spec, rng)
        ident = evolve(f, kind, 0.0)
        dev = float(np.max(np.abs(ident.values - f.values)))
        results.append(
            CheckResult(f"identity at t=0 ({kind.label()})", dev < 1e-12, dev, 1e-12)
        )

    # Small-time deviations |symbol(t) - 1| of the flows' own symbols stay
    # below their envelopes t |xi|^3 (kdv), t |xi| (wave-half) and t |xi|^2.
    t_small = 0.01
    for dim, name, order in ((1, "kdv", 3), (2, "wave-half", 1), (2, "schrodinger:+-", 2)):
        if dim not in specs_by_dim:
            continue
        spec = specs_by_dim[dim]
        norm2 = spec.frequency_norm_squared()
        envelope = t_small * (norm2 if order == 2 else np.sqrt(norm2) ** order)
        nz = envelope != 0
        deviation = np.abs(symbol(FlowKind.parse(name), spec, t_small) - 1.0)
        worst = float(np.max(deviation[nz] / envelope[nz]))
        results.append(
            CheckResult(f"small-t symbol bound ({name})", worst <= 1.0 + 1e-12, worst, 1.0)
        )
    return results
