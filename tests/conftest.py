"""Shared corpus and memoized LP solves for the test suite."""

from __future__ import annotations

import functools
import random
from fractions import Fraction

import pytest

from lpbounds import families
from lpbounds.ccbounds import ChainReport, SrecInstance, check_chain, srec_bound
from lpbounds.model import BitProductDistribution, ProductDistribution2P
from lpbounds.qcbounds import qprt_bound

CC_CORPUS = {
    "eq2": families.eq(2),
    "gt2": families.gt(2),
    "and2": families.and2p(2),
    "xor2": families.xor2p(2),
}

QC_CORPUS = {
    "and3": families.and_q(3),
    "or3": families.or_q(3),
    "xor2": families.xor_q(2),
    "maj3": families.maj_q(3),
}

UNIFORM_4x4 = ProductDistribution2P.uniform(4, 4)


def uniform_bits(n: int) -> BitProductDistribution:
    return BitProductDistribution.uniform(n)


@functools.cache
def chain_cached(name: str, eps: Fraction) -> ChainReport:
    return check_chain(CC_CORPUS[name], eps)


@functools.cache
def qprt_cached(name: str, eps: Fraction):
    return qprt_bound(QC_CORPUS[name], eps)


@functools.cache
def srec_cached(name: str, z: int, eps: Fraction, delta: Fraction, uniform_mu: bool):
    mu = UNIFORM_4x4 if uniform_mu else None
    return srec_bound(SrecInstance(CC_CORPUS[name], z, eps, delta, mu))


def sample_product_distributions(
    nx: int, ny: int, count: int, seed: int
) -> list[ProductDistribution2P]:
    """Deterministic pseudo-random product measures with weights k/16."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        rows = tuple(Fraction(rng.randint(0, 16), 16) for _ in range(nx))
        cols = tuple(Fraction(rng.randint(0, 16), 16) for _ in range(ny))
        out.append(ProductDistribution2P(rows, cols))
    return out


def assert_refuses(call, error: type, message: str) -> None:
    """``call()`` raises exactly ``error`` (not a subclass) with exactly ``message``."""
    with pytest.raises(error) as exc:
        call()
    assert (type(exc.value), str(exc.value)) == (error, message)
