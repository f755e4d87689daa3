"""Pseudospectral free dispersive flows on periodic grids, unit-scale
frequency randomization, and Monte Carlo tail-probability experiments.

The package root exports exactly the names of the README's library quick
tour; every other name comes from its module
(``from dispersim import tailprob``)."""

__version__ = "0.1.0"

from .grid import Field, GridSpec
from .propagators import FlowKind, evolve
from .wiener import unit_lattice
from .randomize import draw, randomize_field
from .decompose import schwartz_split

__all__ = ["__version__", "GridSpec", "Field", "FlowKind", "schwartz_split",
           "unit_lattice", "draw", "randomize_field", "evolve"]
