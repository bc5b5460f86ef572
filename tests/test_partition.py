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
        (build_prt_lp, "eq", 2, "cc", "c1f94b5f98038e9ca3a7991e1e5cc5803e83e5eaf1eee05dc96c5aaf08f53b72"),
        (build_rprt_lp, "eq", 2, "cc", "0ceb8fab4752db64ab246253e7038ec487a3901c84c91049451bbec1c26ddaed"),
        (build_prt_lp, "and", 2, "cc", "8b4a27b9a3a5a31ee67635c3ba729d132e461bd9fea2e7ca776488854021d073"),
        (build_rprt_lp, "and", 2, "cc", "9cce476927fdc22e3feaa90926884a16e2e32755297c1fa39d8789b528a765f4"),
        (build_qprt_lp, "maj", 3, "qc", "f131eb231a2ac3fc7728f52e8ddb98300b8b6121a5913ab85134ec473495d8f5"),
        (build_qprt_lp, "and", 4, "qc", "086e4f7e0790ade59721d582f03c1d5bd60506c6ea1614b4bd645d35664cbdf4"),
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
