"""Semantic checks tying the determinantal generators to actual common
roots: an exact root oracle, Euclid's algorithm over the rationals on
coefficient lists trimmed of leading zeros, which shares no code with the
cascade matrices; sample generators; and evaluation scans.

Evaluation expands no minor symbolically and works over Python ints on
rows scaled to integers. It decides each depth k by one exact rank: when
M_k at the tuple has rank below d+k, every maximal minor of it vanishes,
so every generator of that depth does. Only at a depth of full rank are
minors computed, all of that depth's at once, by one column sweep of
Laplace expansions with no recursion (_column_sweep).

Sampling uses a fixed 64-bit linear congruential generator (Knuth's MMIX
constants: state <- state * 6364136223846793005 + 1442695040888963407
mod 2^64, top 32 bits drawn per step) so fixtures reproduce bit-for-bit
across platforms and implementations. Sampled rationals have numerator
uniform in [-20, 20] without 0 and denominator uniform in [1, 20].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, List, Sequence

from .minors import enumerate_generators  # stays bound here for perfbench/tracing.py
from .minors import generator_rows
from .poly import Ring, Variable, format_rational, json_field, json_value, parse_rational

_LCG_MUL = 6364136223846793005
_LCG_ADD = 1442695040888963407
_MASK64 = (1 << 64) - 1


class Lcg64:
    """Deterministic 64-bit linear congruential generator."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u32(self) -> int:
        self.state = (self.state * _LCG_MUL + _LCG_ADD) & _MASK64
        return self.state >> 32

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] (rejection-free modulo fold; the
        bias at 32 bits over desk-scale ranges is irrelevant here)."""
        return lo + self.next_u32() % (hi - lo + 1)

    def rational(self) -> Fraction:
        num = self.randint(1, 20) * (1 if self.randint(0, 1) else -1)
        den = self.randint(1, 20)
        return Fraction(num, den)


def _check_shape(d: int, n: int) -> None:
    if d < 1 or n < 1:
        raise ValueError(f"a coefficient tuple needs d >= 1 and n >= 1, got d={d}, n={n}")


class CoefficientTuple:
    """An n x (d+1) grid of exact rationals specializing the a_i_j."""

    __slots__ = ("d", "n", "values")

    def __init__(self, d: int, n: int, values: Sequence[Sequence]):
        _check_shape(d, n)
        rows = tuple(tuple(Fraction(v) for v in row) for row in values)
        if len(rows) != n or any(len(row) != d + 1 for row in rows):
            raise ValueError(f"values must form an {n} x {d + 1} grid")
        self.d = d
        self.n = n
        self.values = rows

    def assignment(self, ring: Ring) -> Dict[Variable, Fraction]:
        return {
            ring.coeff(i, j): self.values[i - 1][j]
            for i in range(1, self.n + 1)
            for j in range(self.d + 1)
        }

    def row_polynomial(self, i: int) -> List[Fraction]:
        """Coefficients of f_i, leading first."""
        return list(self.values[i - 1])

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "values": [[format_rational(v) for v in row] for row in self.values],
        }

    @classmethod
    def from_json(cls, data: dict) -> "CoefficientTuple":
        """Inverse of to_json; errors name the bad field, e.g. values[1]."""
        values = []
        for i, row in enumerate(json_field(data, "values", list)):
            values.append([])
            for j, text in enumerate(json_value(row, list, f"values[{i}]")):
                try:
                    values[i].append(parse_rational(text))
                except ValueError as exc:
                    raise ValueError(f"values[{i}][{j}] {exc}") from None
        return cls(json_field(data, "d", int), json_field(data, "n", int), values)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CoefficientTuple)
            and (self.d, self.n, self.values) == (other.d, other.n, other.values)
        )

    def __repr__(self) -> str:
        return f"CoefficientTuple(d={self.d}, n={self.n}, {self.values!r})"


@dataclass(frozen=True)
class RootReport:
    has_affine_common_root: bool
    all_leading_zero: bool
    gcd_degree: int


def _trim(coeffs: List[Fraction]) -> List[Fraction]:
    """coeffs without its leading zeros, so that its degree is len - 1."""
    for idx, c in enumerate(coeffs):
        if c:
            return coeffs[idx:]
    return []


def univariate_gcd(polys: Sequence[Sequence]) -> List[Fraction]:
    """Monic gcd of the nonzero inputs over the rationals, leading
    coefficient first; [] when all are zero. A gcd of positive degree
    certifies a common root in the algebraic closure.

    Euclid on trimmed coefficient lists: g mod v subtracts
    (g[0] / v[0]) * x^(len g - len v) * v until g is shorter than v."""
    g: List[Fraction] = []
    for coeffs in polys:
        v = _trim([Fraction(c) for c in coeffs])
        while v:  # (g, v) <- (v, g mod v)
            while len(g) >= len(v):
                f = g[0] / v[0]
                g = _trim([a - f * b for a, b in zip(g, v)] + g[len(v) :])
            g, v = v, g
        if len(g) == 1:
            break
    return [c / g[0] for c in g]


def common_root_oracle(c: CoefficientTuple) -> RootReport:
    """Exact certificate: do the specialized polynomials share a root?

    Works through the univariate gcd, so roots are counted in the
    algebraic closure without any isolation.
    """
    rows = [c.row_polynomial(i) for i in range(1, c.n + 1)]
    g = univariate_gcd(rows)
    if not g:
        raise ValueError("degenerate input: the all-zero coefficient tuple")
    gcd_degree = len(g) - 1
    return RootReport(
        has_affine_common_root=gcd_degree >= 1,
        all_leading_zero=all(row[0] == 0 for row in rows),
        gcd_degree=gcd_degree,
    )


@dataclass
class MembershipReport:
    """Evaluation of every generator at one coefficient tuple."""

    root: RootReport
    vanishing: List[bool]  # aligned with the generators
    generators: List[tuple]  # (k, rows) in minors.generator_rows order
    ranks: List[int]  # ranks[k - 1] is the rank of M_k at the tuple
    top_minors_all_vanish: bool
    biconditional_ok: bool


def membership_scan(c: CoefficientTuple) -> MembershipReport:
    """Decide every generator at the tuple and cross-check the
    set-theoretic criterion: the depth-d minors all vanish exactly when
    the polynomials share a root or every leading coefficient is zero.

    Scaling f_j by the lcm of its denominators scales every row (i, j) of
    M_k by the same nonzero factor, so ranks and the vanishing of minors
    are those of the integer matrix. A depth whose M_k has rank below d+k
    has only vanishing maximal minors; at a depth of full rank every
    minor comes from one _column_sweep, looked up by its rows' bitmask.
    """
    d, n = c.d, c.n
    ints = _integer_rows(c.values)
    gens = generator_rows(d, n)
    ranks = [_cascade_rank(ints, d, k) for k in range(1, d + 1)]
    bits = {(i, j): 1 << (i - 1) * n + j - 1 for i in range(1, d + 1) for j in range(1, n + 1)}.__getitem__
    minors = {k: _column_sweep(ints, d, k) for k in range(1, d + 1) if ranks[k - 1] == d + k}
    vanishing = [k not in minors or not minors[k][sum(map(bits, rows))] for k, rows in gens]
    top_all = all(vanish for (k, _), vanish in zip(gens, vanishing) if k == d)
    root = common_root_oracle(c)
    expected = root.has_affine_common_root or root.all_leading_zero
    return MembershipReport(
        root=root,
        vanishing=vanishing,
        generators=gens,
        ranks=ranks,
        top_minors_all_vanish=top_all,
        biconditional_ok=(top_all == expected),
    )


def sample_planted(d: int, n: int, seed: int) -> CoefficientTuple:
    """A pseudo-random tuple whose polynomials all vanish at a sampled
    rational root r: each f_i = (x - r) * q_i with random q_i of degree
    d-1 and nonzero leading coefficient. Deterministic per seed."""
    _check_shape(d, n)  # q[0] below needs d >= 1
    rng = Lcg64(seed)
    r = rng.rational()
    rows = []
    for _ in range(n):
        q = [rng.rational() for _ in range(d)]
        coeffs = [q[0]]
        for j in range(1, d):
            coeffs.append(q[j] - r * q[j - 1])
        coeffs.append(-r * q[d - 1])
        rows.append(coeffs)
    return CoefficientTuple(d, n, rows)


def sample_random(d: int, n: int, seed: int) -> CoefficientTuple:
    """A pseudo-random tuple with every entry a nonzero sampled rational.
    Deterministic per seed; no vanishing is arranged."""
    rng = Lcg64(seed)
    return CoefficientTuple(d, n, [[rng.rational() for _ in range(d + 1)] for _ in range(n)])


def _integer_rows(rows: Sequence[Sequence]) -> List[List[int]]:
    """Each row scaled to integers by the lcm of its denominators."""
    out = []
    for row in rows:
        mult = lcm(*(v.denominator for v in row))
        out.append([v.numerator * (mult // v.denominator) for v in row])
    return out


def _column_sweep(ints: Sequence[Sequence[int]], d: int, k: int) -> Dict[int, int]:
    """Every maximal minor of M_k with a_j_s = ints[j - 1][s], keyed by its
    rows as a bitmask, row (i, j) bit (i - 1) * n + j - 1: Laplace
    expansion along the columns, pushing each set of c rows to every row
    it lacks that meets column c+1, negated per row of the set above the
    new one (band_det's Leibniz sign). Zeros are pushed too, so the keys
    are exactly the walks of length d+k, whatever the values."""
    n, layer = len(ints), {0: 1}
    for col in range(1, d + k + 1):
        # the rows meeting column col, top first; no row of a set lies above them
        rows = [(i, j) for i in range(max(0, col - 1 - d), min(k, col)) for j in range(n)]
        pushes = [(1 << i * n + j, ints[j][col - 1 - i]) for i, j in reversed(rows)]
        nxt: Dict[int, int] = {}
        for mask, minor in layer.items():
            signed, other = minor, -minor  # the minor times the sign of the next push
            for bit, entry in pushes:
                if mask & bit:
                    signed, other = other, signed
                else:
                    nxt[mask | bit] = nxt.get(mask | bit, 0) + signed * entry
        layer = nxt
    return layer


def _cascade_rank(ints: Sequence[Sequence[int]], d: int, k: int) -> int:
    """The rank of M_k with a_j_s = ints[j - 1][s], by Bareiss's
    fraction-free elimination (Math. Comp. 22, 1968): every entry stays,
    up to sign, a minor of M_k, so each division by the previous pivot is
    exact."""
    ncols = d + k
    grid = [[0] * (i - 1) + list(row) + [0] * (k - i) for i in range(1, k + 1) for row in ints]
    rank, prev = 0, 1
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(grid)) if grid[r][col]), None)
        if pivot is None:
            continue
        grid[rank], grid[pivot] = grid[pivot], grid[rank]
        head = grid[rank]
        p = head[col]
        for row in grid[rank + 1 :]:
            f = row[col]
            for cc in range(col + 1, ncols):
                row[cc] = (p * row[cc] - f * head[cc]) // prev
        prev = p
        rank += 1
    return rank
