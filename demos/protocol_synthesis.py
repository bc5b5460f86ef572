"""Building a communication protocol tree from LP solutions.

The interesting regime needs a tiny fourth-power delta: with
delta = q**4 and q = 2**-17 the advantage floor
(1/10 - eps - 30 (s+1) q) |mu| - Delta L(Pi) stays strictly positive, so
the guarantee the construction must meet is non-vacuous.  The script
synthesizes a protocol for 4x4 parity under the uniform product measure,
prints the tree, then balances it and confirms the balanced tree computes
the same values.

Run:  python3 demos/protocol_synthesis.py
"""

from fractions import Fraction as F

from lpbounds import families
from lpbounds.ccbounds import SrecInstance, srec_bound, srec_weights
from lpbounds.ccsynth import SynthParams, balance, minimum_s, minimum_t, synthesize
from lpbounds.model import ProductDistribution2P
from lpbounds.trees import Leaf, advantage, evaluate, leaf_count, tree_depth

f = families.xor2p(2)
mu = ProductDistribution2P.uniform(4, 4)

# error levels: eps = 0, delta a fourth power so sqrt(delta) and
# delta^(1/4) stay rational through every threshold comparison
q = F(1, 1 << 17)
delta = q**4

print("solving both distributional smooth-rectangle LPs ...")
r0 = srec_bound(SrecInstance(f, 0, F(0), delta, mu))
r1 = srec_bound(SrecInstance(f, 1, F(0), delta, mu))
print(f"  srec^0 = {r0.value}\n  srec^1 = {r1.value}")

s = minimum_s(r0.value, r1.value)
big_delta = F(1, 1 << 20)
t = minimum_t(s, mu.total, big_delta)
print(f"  budgets: s = {s}, t has {t.bit_length()} bits")

params = SynthParams(F(0), delta, q, big_delta, s, t)
tree = synthesize(f, mu, params, srec_weights(r0), srec_weights(r1))

adv = advantage(tree, f, mu)
coeff = F(1, 10) - 30 * (s + 1) * q
print(f"\nsynthesized: {leaf_count(tree)} leaves, depth {tree_depth(tree)}")
print(f"advantage {adv} >= floor {coeff} - Delta*L (exact check done inside)")


def render(node, indent=""):
    if isinstance(node, Leaf):
        print(f"{indent}answer {node.label}")
    else:
        who = "Alice" if node.speaker == "A" else "Bob"
        print(f"{indent}{who} says [input in {node.split:04b}]?")
        render(node.inside, indent + "  yes: ")
        render(node.outside, indent + "  no:  ")


print("\ntree:")
render(tree)

balanced = balance(tree, 4, 4)
print(f"\nbalanced depth: {tree_depth(balanced)} (leaf count {leaf_count(balanced)})")
assert all(
    evaluate(balanced, x, y) == evaluate(tree, x, y)
    for x in range(4)
    for y in range(4)
)
print("balanced tree agrees with the original on all 16 inputs.")
