"""Semantic exception hierarchy shared by all lpbounds modules."""

from __future__ import annotations


class LpboundsError(Exception):
    """Base error for this package."""


class DimensionMismatchError(LpboundsError, ValueError):
    """Objects built over incompatible index sets were combined."""


class CapExceededError(LpboundsError):
    """An enumeration or LP would exceed the configured tractability cap."""


class ParseError(LpboundsError, ValueError):
    """A file or literal does not conform to its documented text format."""


class InfeasibleConstructionError(LpboundsError):
    """A certified construction failed an exact inequality it must satisfy.

    Raised when a structural guarantee (a feasible bound LP, bias, covering
    level, leaf count, advantage, error bound) does not verify; indicates
    either a bug or an input outside the product-distribution assumptions.
    """


class NoBiasedRectangleError(LpboundsError):
    """No sufficiently biased rectangle/subcube exists in a solution support."""


class DecompositionError(InfeasibleConstructionError):
    """Neither decomposition case verified on a product distribution."""
