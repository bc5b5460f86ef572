"""The labelled partition LP: program identity and the boost's precondition.

Cached solutions are stored under ``lp._program_key``, and Bland's rule
follows variable and row order, so a builder change that renames or
reorders anything in these programs shows up here.
"""

from fractions import Fraction as F

import pytest

from lpbounds import families, lp
from lpbounds.ccbounds import build_prt_lp, build_rprt_lp
from lpbounds.errors import InfeasibleConstructionError
from lpbounds.model import Subcube
from lpbounds.qcbounds import QprtSolution, boost_qprt, build_qprt_lp


@pytest.mark.parametrize(
    ("build", "family", "m", "side", "key"),
    [
        (build_prt_lp, "eq", 2, "cc", "6ca0b3674e64d69c22eb554246b584acc2b9353ba380c0cbab5f4d9e92aa9035"),
        (build_rprt_lp, "eq", 2, "cc", "de6d4ddcf0f9975dfbaeead32b5b158d91a77919c87237dec84f6b717813ec39"),
        (build_prt_lp, "and", 2, "cc", "a39979d3582147e5605ad2ff87da637fa001758b165ee964b769785951ac7ed5"),
        (build_rprt_lp, "and", 2, "cc", "9c43c9bc2fafe5faded1adfd7e9d762f0dc5533d0f459ee32da3cf39afa8b876"),
        (build_qprt_lp, "maj", 3, "qc", "b33b649053c951a1f4d9471e194184604bdb66b2c7f10a6b77fb4f315bcac768"),
        (build_qprt_lp, "and", 4, "qc", "8e5836efd0a9930b92d7f9fd9db60471da71f12ff159b1c804ad302c88396eb5"),
    ],
    ids=["prt-eq2", "rprt-eq2", "prt-and2", "rprt-and2", "qprt-maj3", "qprt-and4"],
)
def test_partition_program_keys_are_pinned(build, family, m, side, key):
    assert lp._program_key(build(families.make_function(family, m, side), F(1, 8))) == key


def test_qprt_boost_requires_exact_total_mass():
    g = families.and_q(2)
    half = QprtSolution(2, {(0, Subcube(2, 0, 0)): F(1, 2)})
    with pytest.raises(InfeasibleConstructionError, match="input is not an exact-mass"):
        boost_qprt(half, g, 3)
