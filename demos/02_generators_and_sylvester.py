"""The determinantal generators, and how they generalize the Sylvester
resultant.

For n = 2 the construction collapses to a single 2d x 2d determinant,
the classical resultant of two polynomials. For n > 2 the smaller
cascade matrices contribute lower-degree generators that the classical
construction misses.
"""

from resultantforge import enumerate_generators

for (d, n) in [(2, 2), (2, 3), (1, 3)]:
    recs = enumerate_generators(d, n)
    by_depth = {}
    for rec in recs:
        by_depth.setdefault(rec.k, []).append(rec)
    print(f"(d={d}, n={n}): {len(recs)} generators")
    for k, group in sorted(by_depth.items()):
        degrees = sorted({rec.poly.total_degree for rec in group})
        print(f"    depth k={k}: {len(group)} minors of degree {degrees}")
    print()

# the n = 2 case really is the Sylvester resultant: one 4x4 determinant
(rec,) = enumerate_generators(2, 2)
print("resultant of two quadratics, a single 4x4 determinant with 7 terms:")
print("   ", rec.poly)

# its quadratic-in-each-row structure: every term uses exactly two
# coefficients of each polynomial
for mono in rec.poly.terms:
    rows = {}
    for v, e in mono.exps:
        rows[v.i] = rows.get(v.i, 0) + e
    assert rows == {1: 2, 2: 2}
print("\nevery term is quadratic in each polynomial's coefficients")
