"""Exact rational LP bounds for communication and query complexity.

Library surface:

- :mod:`lpbounds.model` -- Boolean functions, product measures, rectangles,
  subcubes and their projections, and the label masses mu_0 / mu_1 of a
  region in one call.
- :mod:`lpbounds.lp` -- exact rational simplex with dual certificates.
- :mod:`lpbounds.partition` -- the labelled partition LP behind prt, rprt
  and qprt, and its verified majority boost.
- :mod:`lpbounds.ccbounds` -- smooth rectangle / partition / relaxed
  partition bounds and partition-bound error reduction.
- :mod:`lpbounds.trees` -- protocol trees and decision trees: one leaf
  type, the shared walkers, evaluation and exhaustive error measures.
- :mod:`lpbounds.ccsynth` -- communication protocol trees built from
  distributional LP solutions, with tree balancing.
- :mod:`lpbounds.qcbounds` -- query partition bound, majority boosting,
  feasible-system extraction.
- :mod:`lpbounds.qcsynth` -- decision trees built from feasible systems.
- :mod:`lpbounds.oracle` -- brute-force optimal protocol / decision trees
  at small scale, one memoised search behind both, for validating
  synthesized artifacts.
- :mod:`lpbounds.cli` -- command-line front end.
"""

from .model import (
    BitProductDistribution,
    ProductDistribution2P,
    QueryFunction,
    Rectangle,
    Subcube,
    TwoPartyFunction,
    enumerate_rectangles,
    enumerate_subcubes,
)

__all__ = [
    "BitProductDistribution",
    "ProductDistribution2P",
    "QueryFunction",
    "Rectangle",
    "Subcube",
    "TwoPartyFunction",
    "enumerate_rectangles",
    "enumerate_subcubes",
]

__version__ = "0.1.0"
