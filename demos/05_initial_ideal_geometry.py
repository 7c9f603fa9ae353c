"""Geometry read off the initial ideal, and the intersection-theoretic
degree.

The leading terms of the reduced-walk basis are square-free monomials, so
their vanishing locus is a union of coordinate subspaces. Counting and
sizing those components gives the dimension and degree of the common-root
locus: both equal n*d. The same degree falls out of a truncated Chow-ring
product, whose closed form, d_1 + ... + d_n, also covers mixed degrees.
"""

from resultantforge import (
    Ring,
    SquareFreeMonomialIdeal,
    chow_degree,
    components,
    dim_and_degree,
    enumerate_reduced,
    minimal_primes,
    walk_leading_monomial,
)

d, n = 2, 3
ring = Ring(d, n)
lead = SquareFreeMonomialIdeal(
    walk_leading_monomial(w, ring) for w in enumerate_reduced(d, n)
)
print("leading terms of the reduced basis:")
for g in lead.generators:
    print("   ", g)

primes = minimal_primes(lead)
print(f"\n{len(primes)} components, each cut out by {len(primes[0])} variables:")
for p in primes:
    print("    V(", ", ".join(sorted(v.name for v in p)), ")")

named = {frozenset(c.variables) for c in components(d, n)}
print("\ncomponents match the predicted subspaces:", set(primes) == named)

dd = dim_and_degree(lead, n * (d + 1))
print(f"projective dimension {dd.dim}, degree {dd.degree} (both n*d = {n * d})")

print("\nmixed-degree loci through the Chow ring:")
for degrees in ([2, 2, 2], [1, 1], [2, 3, 5], [4, 1, 2, 7]):
    print(f"    degrees {degrees}: locus degree {chow_degree(degrees)}")
