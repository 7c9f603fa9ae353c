"""Groebner certificates tying the determinantal picture to elimination.

Three independent confirmations that the minors present the ideal of
coefficient relations forced by a common root:

  1. the reduced-walk minors pass the full s-polynomial criterion under
     the diagonal order;
  2. Buchberger over plain degrevlex reproduces the known square-free
     initial ideal of the (2,3) minor ideal;
  3. eliminating x from the system ideal by a block order gives exactly
     the same ideal as the minors.
"""

from resultantforge import (
    IdealPresentation,
    Ring,
    buchberger,
    eliminate_x,
    enumerate_generators,
    generators_for_basis,
    ideal_equal,
    is_groebner_basis,
    leading_term,
)
from resultantforge.diagonal import build_diagonal_weights, diagonal_order
from resultantforge.orders import DegRevLexOrder

d, n = 2, 3
ring = Ring(d, n)

G = [rec.poly for rec in generators_for_basis(d, n)]
diag = diagonal_order(build_diagonal_weights(d, n), ring)
print(f"reduced-walk basis G has {len(G)} elements")
print("all s-polynomials reduce to zero:", is_groebner_basis(G, diag))

rev = DegRevLexOrder(ring.coeff_vars_column_major())
pres = buchberger([rec.poly for rec in enumerate_generators(d, n)], rev)
print("\ndegrevlex initial ideal of the full minor family:")
for g in pres.certified_basis:
    print("   ", leading_term(g, rev)[0])

elim = eliminate_x(d, n)
minors = IdealPresentation(ring, [rec.poly for rec in enumerate_generators(d, n)], rev)
print("\neliminated ideal equals the minor ideal:", ideal_equal(minors, elim))
print(f"(elimination produced {len(elim.generators)} x-free basis elements)")
