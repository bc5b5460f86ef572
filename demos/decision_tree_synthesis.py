"""Decision tree synthesis for 3-bit majority, end to end.

Pipeline: solve the query partition LP at error 1/8, boost it by majority
voting to error gamma = 1/c**8, split the boosted weights into the
two-family inequality system, and build the decision tree.  Every stage
re-verifies its guarantee exactly; the final measured error is compared
against the certified budget and against the brute-force optimum.

Run:  python3 demos/decision_tree_synthesis.py
"""

from fractions import Fraction

from lpbounds import families
from lpbounds.model import BitProductDistribution
from lpbounds.oracle import oracle_qc
from lpbounds.qcsynth import synthesis_pipeline
from lpbounds.trees import Leaf

g = families.maj_q(3)
mu = BitProductDistribution.uniform(3)

rep = synthesis_pipeline(g, mu, Fraction(1, 8))
print(f"qprt_1/8(MAJ_3)      = {rep.qprt_value}")
print(f"c = {rep.c}, gamma = {rep.gamma}, votes = {rep.votes}")
print(f"boosted error        = {rep.boosted_error} (exact binomial tail)")
print(f"system margins       = 2*gamma = {rep.system.alpha0}")
print(f"support cutoff a = b = {rep.system.a}")
print(f"tree depth           = {rep.depth} (certified bound a*b = {rep.depth_bound})")
print(f"measured error       = {rep.error}")
print(f"certified budget     = {rep.error_budget} (~{float(rep.error_budget):.4f})")
print(f"error <= 0.49        = {rep.half_error_certified}")


def render(node, indent=""):
    if isinstance(node, Leaf):
        print(f"{indent}answer {node.label}")
    else:
        print(f"{indent}query bit {node.bit}")
        render(node.child0, indent + "  0: ")
        render(node.child1, indent + "  1: ")


print("\ntree:")
render(rep.tree)

best = oracle_qc(g, mu, rep.depth)
print(f"\nbrute-force optimum at depth {rep.depth}: error {best.best_error}")
print(f"sandwich holds: {best.best_error} <= {rep.error}")
