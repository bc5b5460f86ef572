"""Pinned bytes of LP solutions.

Each digest is the sha256 of ``LPSolution.canonical_bytes()``: the status,
value, primal point, dual vector and pivot counts.  They pin Bland's pivot
path and every certificate byte for byte, so a change to the program form,
the builders or the simplex that alters a solution fails here.  A change
that means to alter them (a new pivot rule, a canonical optimum) updates
them and says so.
"""

import hashlib
from fractions import Fraction as F

import pytest

from lpbounds import families
from lpbounds.ccbounds import SrecInstance, check_chain, srec_bound
from lpbounds.model import ProductDistribution2P
from lpbounds.qcbounds import qprt_bound

EPS = F(1, 8)

# (prt, rprt, srec^0, srec^1) of check_chain(f, 1/8) on the 4x4 tables
CHAIN = {
    "eq2": (
        "4c62578bac76c6c83b4211b58bc75218b4afff1265524df75f672451aa3dc45c",
        "71079f1c06b0be006c68ba042cc4af078d02f244d6b1561361435ac8a335c6b9",
        "d6347cfaa0256ac482a101801b23ed2f8ca485daabc3046bddacf443dddee196",
        "75517a27ca0225fac528f877aa836edacf3026bf2cb1fd57733cd5a89ffdb5de",
    ),
    "gt2": (
        "aa4869ad614dbbc0f12ea71499fd4f98a378813871b8cb7ef74a724b4680aa23",
        "7578d318966ae996474a71fef8c12be7ba89e39f2df5d2afac98a0fdd64ae7c2",
        "11035ff26bc9a776829dd1c8c0dc52acf046a8fa7912ab9150e532816be8164c",
        "8ac0a790e6c45e9b07dc2fdc13941e9521a9fee3878180e553456a7f856bcd09",
    ),
    "and2": (
        "725655aa94e458292d62b19fa9ac4a8196f361d4c8ffca6a1a024f39b2ab9296",
        "b1fe28a79e2dbc295f062a1fd5844e86fdf231c2e4c22b497b7829b3252195b0",
        "72a2cf66687ee5aba4c2181c5895a3c17c165f4f6b6700e3b8c0f86248a2c707",
        "d5bab7f4da57ecac951f65a28a756a802622af666ec0e055e1da9424386f5641",
    ),
    "xor2": (
        "96100d562f34112ee1fd8d98c961740f28d660dd800b4bf73c491438c0ca45b5",
        "4d14e8847e4acbeb37ec21896d99f0a78f2c180b102a0ecbcc73cfbb3901e0ac",
        "bcee2f326f31be0080652133e840f0add2f671b9976076f44cf306582615ae79",
        "831925bf62f61f92b73cce7d580fc98f1fa4d3f767588e40a1a546df22ef129e",
    ),
    "disj2": (
        "ab7a7f3710d55da5557110b1718e6f5d7f62bd845a4982de256c8fe4434858d6",
        "cececd6a57e69c85709f95a0f1a7e161c31775171be75ab58fb42123b240cba5",
        "7db8a3701ccff6baf9c7475466375e275457f1849ec8da8d862f7c4e69232795",
        "d9c51f5d25205f30bea5fe69b921eece0a5b31b312391847bf01796194ae32f2",
    ),
}

# (prt, rprt, srec^0, srec^1) of check_chain(f, 0): the only corpus solves whose
# phase 1 ends with artificials in the basis for the simplex to drive out.  Rows
# replaced per solve: eq2 4/16/12/4, gt2 6/16/10/6, and2 1/16/15/1, xor2
# 8/16/8/8, disj2 9/16/7/9; at eps = 1/8 no row is replaced
CHAIN_EXACT = {
    "eq2": (
        "f29d8f91ec545e2ff76e18ab8c8c87d06cb0ef67897930e1bd4623365b189a0f",
        "cff690a0495617b19182325b6e827c0a789323a5f32aa776112e4566a2127fb1",
        "32ca6c47a60f06a5a4a105a474640913ab1af4b1db216c96f5193747ef0e330f",
        "ad5d45f37e72d36c2a902c0034cb11a478ae85c41b5799cd097d499da0477d34",
    ),
    "gt2": (
        "b49724092fb2243e9e21243b9bc4cf61cba045d22688dea664e76e677ac7d38f",
        "27f60fc8e63bcbb2ddc92a12522a2208ed10b28acbbe575ebaf46d25a2b77bc3",
        "210220968b762e35d049bc2b154dd117dfafdba568d48e5f844ef65379672e78",
        "b8974b97c661a9063b03ca91354fcff32ca75c4ad7c6b08463dbb97903b8e940",
    ),
    "and2": (
        "2dbe0f4e9d2f7c1a020345bbbaa35cb3a9812e797121e547f78e047e052b24d1",
        "fe9870ad110edd24534806458326c96475ddf935c7f83989d9130a5e6faaa1d4",
        "a8c6ca09fd8026631c4cb51d0953a344ccec5aace9d8003b41a06cc06b04f5de",
        "16aaf9bdcfd89126a9eade6791a2be2f93c247a26df62144891dee4aba12a024",
    ),
    "xor2": (
        "43fd06cf3f9e35a22afdbba4f1fa6c8eeab4049da20cee71b9210d0d4778f899",
        "50a4969b5a2522336d0af59397d21ff017f6d8097c6c46ab5413f35e0c0d2e4d",
        "c12a72db326bd7c387112ba569d6d2eeee204b79e2adb5666a27fe24a8909c3b",
        "9bbdc0feced3e535c61198c9019902a37103dd46ba450f60649812390a39b7d8",
    ),
    "disj2": (
        "f2ce2db3b4731ee60750948bb6d0cf506c5f0e6b790f2589e186d84f074ac402",
        "589976d65f728fb33536b793644ba70e681321b04359a689a150a098ad4791ab",
        "98d5a73565158ed291e01176deb86881f31286d5f1f123ae12a1d40e4186b666",
        "208df0dd3f3dc5521bda9a8720bec0e7ac4c9ac3b29bea17d9729fe60a45f417",
    ),
}

# (n, digest) of qprt_bound(g, 1/8); with these four every chain and qprt
# bench solve is pinned, xor4 and maj5 being the two with the most pivots
QPRT = {
    "and4": (4, "5dcee7ae98ed555c0c34b976361aa865914e2befc5ad47b7cb7ee4f1e5bb9372"),
    "maj4": (4, "081867a08af06af48675accf43fd491d61c1e60bdcc70e151323703070378b7b"),
    "xor4": (4, "8af3bd3c7e0c8571975e9f4dd217f3f06139199e0cb4b92c2a935f8cbd0d2a4d"),
    "maj5": (5, "35b263842b310258c9a88ec3742d9a72c4cd46e0ba4cdcaff25668ba3ef4efa2"),
}

SREC_DIST_EQ2 = "7740d271a0cfe56e7c39d2f30a6497072e5858d1102d9b120fa7d20d181a97fe"  # srec^1, eps = delta = 1/8, uniform measure


def _digest(result) -> str:
    return hashlib.sha256(result.canonical_bytes()).hexdigest()


def _chain_digests(name: str, eps: F) -> tuple[str, ...]:
    report = check_chain(families.make_function(name[:-1], 2, "cc"), eps)
    return tuple(_digest(r) for r in (report.prt, report.rprt, report.srec0, report.srec1))


@pytest.mark.parametrize("name", CHAIN)
def test_chain_solution_bytes_are_pinned(name):
    assert _chain_digests(name, EPS) == CHAIN[name]


@pytest.mark.parametrize("name", CHAIN_EXACT)
def test_exact_chain_solution_bytes_are_pinned(name):
    assert _chain_digests(name, F(0)) == CHAIN_EXACT[name]


@pytest.mark.parametrize("name", QPRT)
def test_qprt_solution_bytes_are_pinned(name):
    n, digest = QPRT[name]
    assert _digest(qprt_bound(families.make_function(name[:-1], n, "qc"), EPS)) == digest


def test_distributional_srec_solution_bytes_are_pinned():
    f = families.make_function("eq", 2, "cc")
    inst = SrecInstance(f, 1, EPS, EPS, ProductDistribution2P.uniform(4, 4))
    assert _digest(srec_bound(inst)) == SREC_DIST_EQ2
