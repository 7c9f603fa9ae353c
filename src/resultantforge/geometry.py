"""Combinatorial geometry of square-free monomial ideals, plus the
intersection-theoretic degree of the common-root locus.

The vanishing locus of a square-free monomial ideal is a union of
coordinate subspaces, one for every inclusion-minimal set of variables
hitting every generator (Miller & Sturmfels, Combinatorial Commutative
Algebra, ch. 1), found by Berge's algorithm on int masks. Dimension and
degree are then read off component sizes. The degree of the common-root
locus itself comes from a truncated product in the two-factor Chow ring
and equals the sum of the input degrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

from .poly import Monomial


class SquareFreeMonomialIdeal:
    """A monomial ideal with square-free generators, kept minimal."""

    __slots__ = ("generators",)

    def __init__(self, generators: Iterable[Monomial]):
        gens = list(generators)
        for g in gens:
            if not g.is_squarefree:
                raise ValueError(f"generator {g!r} is not square-free")
            if g.is_one:
                raise ValueError("the unit monomial generates the whole ring")
        gens.sort(key=lambda m: (m.degree, m.exps))
        minimal: Dict[Monomial, int] = {}
        for g, mask in zip(gens, _masks([g.support for g in gens])[1]):
            if not any(h & mask == h for h in minimal.values()):
                minimal[g] = mask
        self.generators = tuple(minimal)

    def supports(self) -> List[frozenset]:
        return [g.support for g in self.generators]

    def __repr__(self) -> str:
        return f"SquareFreeMonomialIdeal({list(self.generators)!r})"


def _masks(sets: Sequence[Iterable]) -> Tuple[dict, List[int]]:
    """One int bit per distinct element of sets, in sorted order, and the mask of each set."""
    bits = {v: 1 << idx for idx, v in enumerate(sorted(set().union(*sets)))}
    return bits, [sum(bits[v] for v in s) for s in sets]


def minimal_hitting_sets(supports: Sequence[frozenset]) -> List[frozenset]:
    """All inclusion-minimal sets meeting every support, ordered by size
    and then by sorted elements.

    Berge's algorithm (Hypergraphs, 1989) on int masks: from the empty
    cover, take the distinct support masks smallest first. The covers that
    meet a support stay; each cover c that misses it grows to c + b for
    every element b of the support, unless c + b contains a staying cover
    k, that is, unless k - c = {b}. A grown c + b never contains another
    c' + b', which would put c' inside c, so the covers stay minimal.
    """
    bits, masks = _masks(supports)
    covers = [0]
    for s in sorted(set(masks)):
        kept, grown = [c for c in covers if c & s], []
        for c in covers:
            if not c & s:
                blocked = {r for r in (k & ~c for k in kept) if r & (r - 1) == 0}
                grown += [c | b for b in bits.values() if b & s and b not in blocked]
        covers = kept + grown
    out = [frozenset(v for v, b in bits.items() if b & c) for c in covers]
    return sorted(out, key=lambda c: (len(c), sorted(c)))


def minimal_primes(ideal: SquareFreeMonomialIdeal) -> List[frozenset]:
    """The components of the vanishing locus: each inclusion-minimal
    hitting set of the generator supports cuts out one coordinate
    subspace."""
    return minimal_hitting_sets(ideal.supports())


class DimDegree(NamedTuple):
    dim: int
    degree: int
    equidimensional: bool

    @classmethod
    def of(cls, comps: Sequence[frozenset], ambient: int) -> "DimDegree":
        """Projective dimension and degree of the union of the coordinate
        subspaces cut out by comps, in projective space on `ambient`
        coordinates. A component cut out by s variables has projective
        dimension ambient - 1 - s and degree one; the locus takes the largest
        component dimension and counts the top-dimensional components, and
        mixed sizes are flagged as non-equidimensional."""
        if not comps:
            raise ValueError("the ideal contains a unit; its locus is empty")
        sizes = [len(c) for c in comps]
        smallest = min(sizes)
        return cls(
            dim=ambient - 1 - smallest,
            degree=sum(1 for s in sizes if s == smallest),
            equidimensional=all(s == smallest for s in sizes),
        )


def dim_and_degree(ideal: SquareFreeMonomialIdeal, ambient: int) -> DimDegree:
    """DimDegree.of the vanishing locus of the ideal: its minimal primes."""
    return DimDegree.of(minimal_primes(ideal), ambient)


@dataclass(frozen=True)
class ChowClass:
    """An element of Z[H1,H2] / (H1^2, H2^(n+D)), stored sparsely."""

    h2_bound: int  # exponents of H2 live in 0 .. h2_bound-1
    coeffs: Tuple[Tuple[Tuple[int, int], int], ...]

    @classmethod
    def make(cls, h2_bound: int, coeffs: Dict[Tuple[int, int], int]) -> "ChowClass":
        kept = {
            (e1, e2): c
            for (e1, e2), c in coeffs.items()
            if c and e1 < 2 and e2 < h2_bound
        }
        return cls(h2_bound, tuple(sorted(kept.items())))

    def mul(self, other: "ChowClass") -> "ChowClass":
        if self.h2_bound != other.h2_bound:
            raise ValueError("classes live in different Chow rings")
        acc: Dict[Tuple[int, int], int] = {}
        for (e1, e2), c in self.coeffs:
            for (f1, f2), k in other.coeffs:
                g = (e1 + f1, e2 + f2)
                if g[0] < 2 and g[1] < self.h2_bound:
                    acc[g] = acc.get(g, 0) + c * k
        return ChowClass.make(self.h2_bound, acc)

    def coefficient(self, e1: int, e2: int) -> int:
        return dict(self.coeffs).get((e1, e2), 0)


def chow_degree(degrees: Sequence[int]) -> int:
    """Degree of the locus of coefficient tuples of forms with degrees
    d_1..d_n sharing a projective root.

    Computed through the truncated ring: the class of the locus upstairs
    is the product of the n divisor classes d_i*H1 + H2, and capping with
    H2^D picks out the point count D = d_1 + ... + d_n.
    """
    degrees = list(degrees)
    n = len(degrees)
    if n < 2:
        raise ValueError(f"need at least two polynomials, got {n}")
    if any(d < 1 for d in degrees):
        raise ValueError(f"degrees must be positive, got {degrees}")
    D = sum(degrees)
    bound = n + D
    acc = ChowClass.make(bound, {(0, 0): 1})
    for d in degrees:
        acc = acc.mul(ChowClass.make(bound, {(1, 0): d, (0, 1): 1}))
    acc = acc.mul(ChowClass.make(bound, {(0, D): 1}))
    return acc.coefficient(1, n - 1 + D)
