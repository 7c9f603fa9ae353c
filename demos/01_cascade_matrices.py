"""Cascade matrices and the walk indexing of their nonzero minors.

A system of n univariate degree-d polynomials

    f_i(x) = a_i_0 x^d + a_i_1 x^(d-1) + ... + a_i_d

shares a root exactly when every cascade matrix M_k (k = 1..d) drops
rank. This script builds the matrices for the first interesting case
d = 2, n = 3 and shows how row selections turn into lattice walks.
"""

from resultantforge import CascadeMatrix, rows_to_walk, selection_for_walk
from resultantforge.minors import all_selections, nonzero_selection

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
for sel in all_selections(d, n, 2):
    status = "nonzero" if nonzero_selection(sel) else "zero"
    walk = rows_to_walk(sel).steps if nonzero_selection(sel) else "-"
    print(f"    rows {list(sel.pairs)} -> {status} {walk}")

# the walk determines the selection right back
first = next(iter(all_selections(d, n, 2)))
walk = rows_to_walk(first)
assert selection_for_walk(walk, d, n) == first
print("\nwalk -> selection round trip holds for", list(first.pairs))
