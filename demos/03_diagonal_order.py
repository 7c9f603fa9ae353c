"""The diagonal-selecting term order.

Generic term orders pick unpredictable leading monomials of the minors.
The weighted order built here always picks the product of the diagonal
entries, which is what makes the reduced-walk minors a usable basis: the
leading terms become square-free products read off the lattice walks.
"""

from resultantforge import (
    Ring,
    build_diagonal_weights,
    diagonal_order,
    enumerate_generators,
    leading_term,
    verify_diagonal_property,
    walk_leading_monomial,
)
from resultantforge.orders import DegRevLexOrder

d, n = 2, 3
ring = Ring(d, n)
dw = build_diagonal_weights(d, n)

print("weights on the coefficient variables (row i, column j):")
for i in range(1, n + 1):
    print("   ", [dw.weights[(i, j)] for j in range(d + 1)])

order = diagonal_order(dw)
rev = DegRevLexOrder(ring.coeff_vars_column_major())

print("\nleading monomials of the depth-1 minor under two orders:")
rec = enumerate_generators(d, n)[0]
print("    diagonal order :", leading_term(rec.poly, order)[0])
print("    degrevlex      :", leading_term(rec.poly, rev)[0])

print("\nunder the diagonal order, lead = walk product for every minor:")
for rec in enumerate_generators(d, n)[:5]:
    lead = leading_term(rec.poly, order)[0]
    assert lead == walk_leading_monomial(rec.walk, ring)
    print(f"    k={rec.k} rows {list(rec.selection.pairs)}: {lead}")

report = verify_diagonal_property(3, 3)
print(f"\nexhaustive check at (3,3): {report.minors_checked} minors, ok = {report.ok}")
