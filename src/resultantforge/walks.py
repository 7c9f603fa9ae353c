"""Lattice walks indexing the nonzero maximal minors of cascade matrices.

A size-(d+k) row selection ((i_1,j_1), ..., (i_{d+k},j_{d+k})) of M_k is
mapped to the sequence of lattice points (u_s, v_s) = (j_s, s - i_s). The
selection has a nonzero minor exactly when every point lands inside the
n x (d+1) lattice, and then the sequence is a walk: each step either keeps
or decreases v, or increases v by one while increasing u. Walks start at
v = 0 and end at v = d.

A walk is reduced when no single vertex can be deleted leaving a shorter
walk. Reduced walks visit each vertex at most once, their vertex products
are square-free monomials, and the corresponding minors form the
distinguished generating set G whose leading terms are inclusion-minimal.

Deleting the vertex after position s is legal exactly when stepping
directly from (u_s, v_s) to (u_{s+2}, v_{s+2}) is, so reducedness is a
local condition: v must be nondecreasing with v_2 = 1 and
v_{len-1} = d - 1, plateaus (v_{s+1} = v_s) must be isolated, and around
a plateau both skip moves must be illegal, which forces u_{s+1} <= u_{s-1}
and u_{s+2} <= u_s.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from .cascade import RowSelection
from .poly import Monomial, Ring

Step = Tuple[int, int]


class ZeroMinorError(ValueError):
    """The row selection corresponds to an identically zero minor."""


class MinorWalk:
    """An in-lattice walk (u_1, v_1), ..., (u_L, v_L) with v_1=0, v_L=d."""

    __slots__ = ("steps",)

    def __init__(self, steps: Iterable[Step]):
        self.steps = tuple((int(u), int(v)) for u, v in steps)

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def __getitem__(self, s):
        return self.steps[s]

    def __eq__(self, other) -> bool:
        return isinstance(other, MinorWalk) and self.steps == other.steps

    def __hash__(self) -> int:
        return hash(self.steps)

    def __repr__(self) -> str:
        return "MinorWalk(" + ", ".join(f"({u},{v})" for u, v in self.steps) + ")"


def _legal_step(u1: int, v1: int, u2: int, v2: int) -> bool:
    return v2 <= v1 or (v2 == v1 + 1 and u2 > u1)


def is_minor_walk(steps: Sequence[Step], d: int, n: int) -> bool:
    steps = list(steps)
    if not steps:
        return False
    if any(not (1 <= u <= n and 0 <= v <= d) for u, v in steps):
        return False
    if steps[0][1] != 0 or steps[-1][1] != d:
        return False
    return all(
        _legal_step(steps[s][0], steps[s][1], steps[s + 1][0], steps[s + 1][1])
        for s in range(len(steps) - 1)
    )


def is_reduced(steps: Sequence[Step], d: int, n: int) -> bool:
    """True when the steps form a walk from which no vertex can be deleted."""
    steps = list(steps)
    if not is_minor_walk(steps, d, n):
        return False
    for s in range(len(steps)):
        if is_minor_walk(steps[:s] + steps[s + 1 :], d, n):
            return False
    return True


def rows_to_walk(sel: RowSelection) -> MinorWalk:
    """The walk (j_s, s - i_s) of a row selection.

    Raises ZeroMinorError when a step leaves the lattice; the selected
    minor is identically zero in exactly that case.
    """
    steps = []
    for s, (i, j) in enumerate(sel.pairs, start=1):
        v = s - i
        if not (0 <= v <= sel.d):
            raise ZeroMinorError(f"step {s} leaves the lattice: (u, v) = ({j}, {v})")
        steps.append((j, v))
    return MinorWalk(steps)


def selection_for_walk(walk: MinorWalk, d: int, n: int) -> RowSelection:
    """Inverse of rows_to_walk: i_s = s - v_s, j_s = u_s."""
    k = len(walk) - d
    pairs = [(s - v, u) for s, (u, v) in enumerate(walk.steps, start=1)]
    return RowSelection(d, n, k, pairs)


def enumerate_walks(d: int, n: int, k: int) -> List[MinorWalk]:
    """All walks of length d+k, depth-first in ascending step order.

    The recursion only visits positions with s-k <= v_s <= s-1, the exact
    feasibility window for selections of M_k rows, so selections with zero
    diagonal are never generated at all.
    """
    if d < 1 or n < 2 or not (1 <= k <= d):
        raise ValueError(f"invalid parameters (d={d}, n={n}, k={k})")
    length = d + k
    out: List[MinorWalk] = []
    path: List[Step] = []

    def extend() -> None:
        s = len(path)
        if s == length:
            if path[-1][1] == d:
                out.append(MinorWalk(tuple(path)))
            return
        if s == 0:
            for u in range(1, n + 1):
                path.append((u, 0))
                extend()
                path.pop()
            return
        u, v = path[-1]
        lo = max(0, (s + 1) - k)
        hi = min(d, v + 1, s)
        for v2 in range(lo, hi + 1):
            first_u = (u + 1) if v2 == v + 1 else 1
            for u2 in range(first_u, n + 1):
                path.append((u2, v2))
                extend()
                path.pop()

    extend()
    return out


def enumerate_reduced(d: int, n: int) -> List[MinorWalk]:
    """All reduced walks, spanning lengths d+1 .. 2d.

    Enumerated directly from the local conditions; cross-validated in the
    test suite against filtering enumerate_walks through is_reduced.
    """
    if d < 1 or n < 2:
        raise ValueError(f"invalid parameters (d={d}, n={n})")
    out: List[MinorWalk] = []
    path: List[Step] = []

    def extend(length: int) -> None:
        s = len(path)
        if s == length:
            if path[-1][1] == d and path[-1][1] == path[-2][1] + 1:
                out.append(MinorWalk(tuple(path)))
            return
        u, v = path[-1]
        plateau_before = s >= 2 and path[-2][1] == v
        if not plateau_before and v < d and s + 1 < length:
            # an isolated plateau; the skip over the previous vertex must
            # be illegal, hence u2 <= u of the vertex before the plateau
            cap = path[-2][0] if s >= 2 else 0
            for u2 in range(1, cap + 1):
                path.append((u2, v))
                extend(length)
                path.pop()
        if v < d:
            # the +1 step; when leaving a plateau the skip over it must be
            # illegal as well, capping u2 by the vertex entering it
            cap = min(n, path[-2][0]) if plateau_before else n
            for u2 in range(u + 1, cap + 1):
                path.append((u2, v + 1))
                extend(length)
                path.pop()

    for k in range(1, d + 1):
        for u in range(1, n + 1):
            path.append((u, 0))
            extend(d + k)
            path.pop()
    return out


def walk_leading_monomial(walk: MinorWalk, ring: Ring) -> Monomial:
    """Product of a_u_v over the visited points, counted with multiplicity.

    For a nonzero minor this is its leading monomial under the diagonal
    order, i.e. the product of the diagonal entries of the submatrix.
    """
    exps: dict = {}
    for u, v in walk.steps:
        var = ring.coeff(u, v)
        exps[var] = exps.get(var, 0) + 1
    return Monomial(exps)


class CoordinateSubspace:
    """The variable set {a_i_(t-1) : i < s} + {a_i_t : i > s}.

    These n*d sets are exactly the inclusion-minimal variable subsets
    meeting every walk, hence the components of the vanishing locus of the
    reduced-walk leading terms. Each has size n-1, matching the
    codimension of the common-root locus.
    """

    __slots__ = ("s", "t", "variables")

    def __init__(self, s: int, t: int, variables: frozenset):
        self.s = s
        self.t = t
        self.variables = variables

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CoordinateSubspace)
            and (self.s, self.t, self.variables) == (other.s, other.t, other.variables)
        )

    def __hash__(self) -> int:
        return hash((self.s, self.t, self.variables))

    def __repr__(self) -> str:
        names = ",".join(sorted(v.name for v in self.variables))
        return f"CoordinateSubspace(s={self.s}, t={self.t}, {{{names}}})"


def components(d: int, n: int, ring: Optional[Ring] = None) -> List[CoordinateSubspace]:
    """All n*d coordinate subspaces S_(s,t), s in 1..n, t in 1..d."""
    ring = Ring.for_system(d, n, ring)
    out = []
    for s in range(1, n + 1):
        for t in range(1, d + 1):
            vs = frozenset(
                {ring.coeff(i, t - 1) for i in range(1, s)}
                | {ring.coeff(i, t) for i in range(s + 1, n + 1)}
            )
            out.append(CoordinateSubspace(s, t, vs))
    return out
