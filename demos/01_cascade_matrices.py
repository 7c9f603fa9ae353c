"""Cascade matrices and the walk indexing of their nonzero minors.

A system of n univariate degree-d polynomials

    f_i(x) = a_i_0 x^d + a_i_1 x^(d-1) + ... + a_i_d

shares a root exactly when every cascade matrix M_k (k = 1..d) drops
rank. This script builds the matrices for the first interesting case
d = 2, n = 3 and shows how row selections turn into lattice walks.
"""

from itertools import combinations

from resultantforge import CascadeMatrix, RowSelection, ZeroMinorError, rows_to_walk, selection_for_walk

d, n = 2, 3

for k in (1, 2):
    m = CascadeMatrix(d, n, k)
    print(f"M_{k} is {m.nrows} x {m.ncols}:")
    for row in m.name_grid():
        print("   ", "  ".join(cell.rjust(5) for cell in row))
    print()

# every maximal minor of M_2 is indexed by 4 of the 6 rows; the minor is
# nonzero exactly when the walk (u_s, v_s) = (j_s, s - i_s) stays inside
# the 3 x 3 lattice
print("row selections of M_2 and their walks:")
selections = [RowSelection(d, n, 2, pick) for pick in combinations(CascadeMatrix(d, n, 2).rows(), d + 2)]
for sel in selections:
    try:
        status, walk = "nonzero", rows_to_walk(sel).steps
    except ZeroMinorError:
        status, walk = "zero", "-"
    print(f"    rows {list(sel.pairs)} -> {status} {walk}")

# the walk determines the selection right back
first = selections[0]
walk = rows_to_walk(first)
assert selection_for_walk(walk, d, n) == first
print("\nwalk -> selection round trip holds for", list(first.pairs))
