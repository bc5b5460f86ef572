"""Brute-force optimal trees versus what bounded depth can buy.

The protocol oracle minimizes exact distributional error over *all*
deterministic protocol trees of a given depth, either party speaking at
any node; the query oracle does the same over decision trees.  This makes
small instances fully transparent: the script tabulates the optimal error
of each corpus function at every depth and replays the witness trees.

Run:  python3 demos/oracle_comparison.py
"""

from lpbounds import families
from lpbounds.model import BitProductDistribution, ProductDistribution2P
from lpbounds.oracle import oracle_cc, oracle_qc
from lpbounds.rational import format_rational as fmt
from lpbounds.trees import dtree_error, protocol_error

mu = ProductDistribution2P.uniform(4, 4)
print("two-party optimal error by depth (uniform measure)")
print(f"{'function':<8}" + "".join(f"  d={d:>1}   " for d in range(5)))
for name, f in [
    ("EQ_2", families.eq(2)),
    ("GT_2", families.gt(2)),
    ("XOR_2", families.xor2p(2)),
]:
    row = []
    for depth in range(5):
        res = oracle_cc(f, mu, depth)
        assert protocol_error(res.witness, f, mu) == res.best_error
        row.append(fmt(res.best_error))
    print(f"{name:<8}" + "".join(f"{v:>7} " for v in row))

bits = BitProductDistribution.uniform(3)
print("\nquery-side optimal error by depth (uniform bits)")
print(f"{'function':<8}" + "".join(f"  d={d:>1}   " for d in range(4)))
for name, g in [
    ("AND_3", families.and_q(3)),
    ("MAJ_3", families.maj_q(3)),
    ("XOR_3", families.xor_q(3)),
]:
    row = []
    for depth in range(4):
        res = oracle_qc(g, bits, depth)
        assert dtree_error(res.witness, g, bits) == res.best_error
        row.append(fmt(res.best_error))
    print(f"{name:<8}" + "".join(f"{v:>7} " for v in row))

print("\nevery witness tree replayed to exactly its claimed error.")
