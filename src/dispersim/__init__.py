"""Pseudospectral free dispersive flows on periodic grids, unit-scale
frequency randomization, and Monte Carlo tail-probability experiments."""

__version__ = "0.1.0"

from .errors import (
    ConfigurationError,
    FitError,
    ShapeError,
    SplitResolutionError,
)
from .grid import (
    Field,
    GridSpec,
    Spectrum,
    forward_transform,
    inverse_transform,
    l2_norm,
    read_binary,
    write_binary,
)
from .propagators import FlowKind, evolve
from .wiener import (
    UnitLattice,
    bump_derivative,
    bump_value,
    square_function,
    square_function_evolved,
    unit_lattice,
    weighted_tail_sum,
)
from .randomize import RandomDraw, draw, randomize_field
from .decompose import SchwartzSplit, decay_seminorm, schwartz_split
from .tailprob import (
    BoundParams,
    TailEstimate,
    TailExperimentConfig,
    convergence_curve,
    density_event_probability,
    estimate_tail,
    fit_constants,
    pointwise_deviation,
    theoretical_bound,
)

__all__ = [
    "__version__",
    "ConfigurationError",
    "FitError",
    "ShapeError",
    "SplitResolutionError",
    "Field",
    "GridSpec",
    "Spectrum",
    "forward_transform",
    "inverse_transform",
    "l2_norm",
    "read_binary",
    "write_binary",
    "FlowKind",
    "evolve",
    "UnitLattice",
    "bump_derivative",
    "bump_value",
    "square_function",
    "square_function_evolved",
    "unit_lattice",
    "weighted_tail_sum",
    "RandomDraw",
    "draw",
    "randomize_field",
    "SchwartzSplit",
    "decay_seminorm",
    "schwartz_split",
    "BoundParams",
    "TailEstimate",
    "TailExperimentConfig",
    "convergence_curve",
    "density_event_probability",
    "estimate_tail",
    "fit_constants",
    "pointwise_deviation",
    "theoretical_bound",
]
