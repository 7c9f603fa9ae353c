"""Exact root certificates: the generators against actual coefficient data.

Planted samples (polynomials built to share a rational root) must kill
every generator; root-free samples must leave a nonzero depth-d minor.
The gcd oracle arbitrates, exactly, with roots counted in the algebraic
closure.
"""

from resultantforge import (
    CoefficientTuple,
    membership_scan,
    sample_planted,
    sample_random,
)

d, n = 2, 3

tup = sample_planted(d, n, seed=7)
print("planted tuple (every f_i divisible by the same x - r):")
for row in tup.values:
    print("   ", [str(v) for v in row])
scan = membership_scan(tup)
print("gcd degree:", scan.root.gcd_degree)
print("all generators vanish:", all(scan.vanishing))

tup = sample_random(d, n, seed=7)
scan = membership_scan(tup)
print("\nrandom tuple: common root?", scan.root.has_affine_common_root)
print("some depth-d minor nonzero:", not scan.top_minors_all_vanish)
print("set-theoretic criterion consistent:", scan.biconditional_ok)

# the depth-1 equation alone does not force a common root
tup = CoefficientTuple(2, 3, [[1, 0, 0], [1, 0, 1], [2, 0, 1]])
scan = membership_scan(tup)
depth_one = [v for (k, _), v in zip(scan.generators, scan.vanishing) if k == 1]
print("\nsingular depth-1 matrix but no common root:")
print("    depth-1 minor vanishes:", depth_one == [True])
print("    gcd degree:", scan.root.gcd_degree)
print("    a depth-2 witness survives:", not scan.top_minors_all_vanish)

# a shared factor in plain numbers: x^2 - 3x + 2 and x^2 - x share x = 1
tup = CoefficientTuple(2, 2, [[1, -3, 2], [1, -1, 0]])
scan = membership_scan(tup)
print("\n(x^2 - 3x + 2, x^2 - x): resultant vanishes =", all(scan.vanishing))
