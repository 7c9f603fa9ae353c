"""Buchberger engine, elimination oracle, and ideal comparisons.

The engine is deterministic: pairs are selected by smallest lcm in the
term order (first index pair breaking ties), useless pairs are discarded
with Buchberger's product and chain criteria in their Gebauer-Moeller
packaging, and output bases are inter-reduced, content-normalized, and
sorted, so identical inputs always produce identical bases. The
certificate is_groebner_basis reduces only the pairs the same
Gebauer-Moeller update keeps for a given basis (Gebauer & Moeller, JSC
1988). Resource limits are explicit; exceeding one raises instead of
truncating.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import List, Optional, Sequence

from .minors import enumerate_generators, top_minor_records
from .orders import (
    BlockOrder,
    DegRevLexOrder,
    LexOrder,
    TermOrder,
    _Reducer,
    leading_term,
    normal_form,
)
from .poly import Monomial, Polynomial, Ring, RingMismatchError, ZeroPolynomialError


class ResourceExhaustedError(RuntimeError):
    """A Buchberger run hit one of its explicit limits."""


@dataclass(frozen=True)
class Limits:
    """Bounds on a Buchberger run; generous desk-scale defaults."""

    max_pairs: int = 1_000_000
    max_basis: int = 5_000
    max_degree: Optional[int] = None
    timeout: Optional[float] = None  # seconds of wall clock

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None and not value >= 0:  # NaN fails every comparison
                raise ValueError(f"limit {f.name} must be a non-negative number, got {value}")

    @classmethod
    def parse(cls, text: str) -> "Limits":
        """Parse "max_pairs=...,max_basis=...,max_degree=...,timeout=..."."""
        kwargs = {}
        for chunk in text.replace(";", ",").split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            key, _, value = chunk.partition("=")
            key = key.strip()
            if key not in ("max_pairs", "max_basis", "max_degree", "timeout"):
                raise ValueError(f"unknown limit {key!r}")
            kwargs[key] = float(value) if key == "timeout" else int(value)
        return cls(**kwargs)


DEFAULT_LIMITS = Limits()


@dataclass
class IdealPresentation:
    """Generators plus an optional certified basis for one term order."""

    ring: Ring
    generators: List[Polynomial]
    order: TermOrder
    certified_basis: Optional[List[Polynomial]] = None

    def basis(self, limits: Limits = DEFAULT_LIMITS) -> List[Polynomial]:
        if self.certified_basis is None:
            done = buchberger(self.generators, self.order, limits)
            self.certified_basis = done.certified_basis
        return self.certified_basis


def s_polynomial(p: Polynomial, q: Polynomial, order: TermOrder) -> Polynomial:
    """The lcm-cancellation combination of p and q (both made monic)."""
    if p.is_zero or q.is_zero:
        raise ZeroPolynomialError("s-polynomial of the zero polynomial")
    lmp, lcp = leading_term(p, order)
    lmq, lcq = leading_term(q, order)
    lcm = lmp.lcm(lmq)
    return p.mul_term(lcm.div(lmp), 1 / lcp) + q.mul_term(lcm.div(lmq), -1 / lcq)


def _update_pairs(pairs: set, lms: Sequence[Monomial], t: int, order: TermOrder) -> set:
    """Gebauer-Moeller update of the index pairs over lms[:t] when lms[t]
    joins (Gebauer & Moeller, JSC 1988).

    Pairs are dropped by the chain and product criteria. After inserting
    every element of a basis this way, the basis is a Groebner basis if the
    s-polynomial of each kept pair reduces to zero against it.
    """
    lmf = lms[t]
    # chain criterion applied to the old pairs against lm(f)
    kept = set()
    for (i, j) in pairs:
        lij = lms[i].lcm(lms[j])
        if not lmf.divides(lij) or lms[i].lcm(lmf) == lij or lms[j].lcm(lmf) == lij:
            kept.add((i, j))

    # group candidate new pairs by their lcm and keep one representative
    # of every divisibility-minimal group
    by_lcm: dict = {}
    for i in range(t):
        by_lcm.setdefault(lms[i].lcm(lmf), []).append(i)
    minimal = []
    for lcm in sorted(by_lcm, key=order.key):
        if not any(other.divides(lcm) for other in minimal):
            minimal.append(lcm)
    for lcm in minimal:
        group = by_lcm[lcm]
        # product criterion: a coprime pair in the group kills the group
        if any(lms[i].mul(lmf) == lcm for i in group):
            continue
        kept.add((min(group), t))
    return kept


class _Run:
    """State of one Buchberger execution."""

    def __init__(self, order: TermOrder, limits: Limits):
        self.order = order
        self.limits = limits
        self.G: List[Polynomial] = []
        self.reducer = _Reducer(order)
        self.pairs: set = set()
        self.pairs_processed = 0
        self.deadline = None if limits.timeout is None else time.monotonic() + limits.timeout

    def _check_time(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise ResourceExhaustedError(
                f"timeout of {self.limits.timeout}s exceeded after {self.pairs_processed} pairs"
            )

    def add(self, f: Polynomial) -> None:
        """Append f to the basis and update the pair set."""
        t = len(self.G)
        if t + 1 > self.limits.max_basis:
            raise ResourceExhaustedError(f"basis size limit {self.limits.max_basis} exceeded")
        self.G.append(f)
        self.reducer.add(f)
        lmf = self.reducer.lms[t]
        if self.limits.max_degree is not None and lmf.degree > self.limits.max_degree:
            raise ResourceExhaustedError(
                f"degree limit {self.limits.max_degree} exceeded by a basis element of degree {lmf.degree}"
            )
        self.pairs = _update_pairs(self.pairs, self.reducer.lms, t, self.order)

    def select(self) -> tuple:
        order, lms = self.order, self.reducer.lms
        return min(
            self.pairs, key=lambda p: (order.key(lms[p[0]].lcm(lms[p[1]])), p[0], p[1])
        )

    def loop(self) -> None:
        while self.pairs:
            self._check_time()
            if self.pairs_processed >= self.limits.max_pairs:
                raise ResourceExhaustedError(f"pair limit {self.limits.max_pairs} exceeded")
            i, j = self.select()
            self.pairs.remove((i, j))
            self.pairs_processed += 1
            s = s_polynomial(self.G[i], self.G[j], self.order)
            r = self.reducer.reduce(s)
            if not r.is_zero:
                self.add(r.content_normalize(self.order))


def _interreduce(basis: List[Polynomial], order: TermOrder) -> List[Polynomial]:
    """Minimal basis (no leading monomial divides another) with every tail
    fully reduced; canonical up to the content normalization applied."""
    leads = sorted(((leading_term(g, order)[0], g) for g in basis), key=lambda e: order.key(e[0]))
    minimal: List[Polynomial] = []
    kept_lms = []
    for lm, g in leads:
        if not any(h.divides(lm) for h in kept_lms):
            kept_lms.append(lm)
            minimal.append(g)
    # one pass suffices: whether a term is reducible depends only on the
    # leading monomials, and reducing the tails of a minimal basis changes
    # none of them; for the same reason minimal stays in ascending lead order
    for idx in range(len(minimal)):
        r = normal_form(minimal[idx], minimal[:idx] + minimal[idx + 1 :], order)
        if r.terms != minimal[idx].terms:
            minimal[idx] = r.content_normalize(order)
    return minimal


def buchberger(
    gens: Sequence[Polynomial],
    order: TermOrder,
    limits: Limits = DEFAULT_LIMITS,
    self_check: bool = True,
) -> IdealPresentation:
    """Certified reduced basis of the ideal generated by gens.

    With self_check (the default) the finished basis is certified again,
    from scratch, by is_groebner_basis.
    """
    gens = [g for g in gens]
    if not gens or all(g.is_zero for g in gens):
        raise ZeroPolynomialError("no nonzero generators")
    ring = gens[0].ring
    if any(g.ring != ring for g in gens):
        raise RingMismatchError("generators live in different rings")
    run = _Run(order, limits)
    for g in gens:
        if g.is_zero:
            continue
        r = run.reducer.reduce(g)
        if not r.is_zero:
            run.add(r.content_normalize(order))
    run.loop()
    basis = _interreduce(run.G, order)
    if self_check and not is_groebner_basis(basis, order):
        raise AssertionError("internal error: output failed the Buchberger criterion")
    return IdealPresentation(ring, list(gens), order, basis)


def is_groebner_basis(
    basis: Sequence[Polynomial], order: TermOrder, limits: Limits = DEFAULT_LIMITS
) -> bool:
    """Buchberger criterion on the Gebauer-Moeller pairs.

    The elements enter one at a time through the pair update Buchberger
    uses, and only the pairs it keeps are reduced, in sorted order, against
    the whole basis; the answer equals that of reducing every s-polynomial.
    max_pairs bounds the kept pairs reduced; the timeout is checked before
    each reduction.
    """
    basis = list(basis)
    reducer = _Reducer(order, basis)
    pairs: set = set()
    for t in range(len(basis)):
        pairs = _update_pairs(pairs, reducer.lms, t, order)
    pairs = sorted(pairs)
    deadline = None if limits.timeout is None else time.monotonic() + limits.timeout
    for done, (i, j) in enumerate(pairs):
        if done >= limits.max_pairs:
            raise ResourceExhaustedError(
                f"pair limit {limits.max_pairs} exceeded after {done} of {len(pairs)} pairs"
            )
        if deadline is not None and time.monotonic() > deadline:
            raise ResourceExhaustedError(
                f"timeout of {limits.timeout}s exceeded after {done} of {len(pairs)} pairs"
            )
        if reducer.reduce(s_polynomial(basis[i], basis[j], order)):
            return False
    return True


def reduces_to_zero(polys: Sequence[Polynomial], basis: Sequence[Polynomial], order: TermOrder) -> bool:
    """True when every polynomial reduces to zero against the basis."""
    reducer = _Reducer(order, basis)
    return all(reducer.reduce(p).is_zero for p in polys)


def elimination_order(ring: Ring) -> TermOrder:
    """Eliminand first by bare exponent, then degrevlex on the coefficient
    variables in column-major ranking."""
    return BlockOrder(
        (ring.x,), LexOrder((ring.x,)), DegRevLexOrder(ring.coeff_vars_column_major())
    )


def system_polynomials(ring: Ring) -> List[Polynomial]:
    """f_i = a_i_0 x^d + a_i_1 x^(d-1) + ... + a_i_d for i = 1..n."""
    from .poly import Monomial

    x = ring.x
    out = []
    for i in range(1, ring.n + 1):
        terms = {}
        for j in range(ring.d + 1):
            e = ring.d - j
            mono = Monomial(((ring.coeff(i, j), 1), (x, e)) if e else ((ring.coeff(i, j), 1),))
            terms[mono] = Fraction(1)
        out.append(Polynomial(ring, terms, _trusted=True))
    return out


def eliminate_x(d: int, n: int, limits: Limits = DEFAULT_LIMITS) -> IdealPresentation:
    """Eliminate x from the system ideal: certified basis of the ideal of
    coefficient relations forced by a common root.

    Runs Buchberger over the extended ring under the elimination order and
    keeps the x-free basis elements; those are a certified basis of the
    contraction for the induced degrevlex order on the coefficients. On
    x-free polynomials the elimination order is that degrevlex order, so
    they keep the ascending lead order of the full basis.
    """
    ring_x = Ring(d, n, with_x=True)
    order = elimination_order(ring_x)
    done = buchberger(system_polynomials(ring_x), order, limits, self_check=False)
    ring_a = Ring(d, n)
    a_order = DegRevLexOrder(ring_a.coeff_vars_column_major())
    xvar = ring_x.x
    restricted = [
        Polynomial(ring_a, g.terms, _trusted=True)
        for g in done.certified_basis
        if all(m[xvar] == 0 for m in g.terms)
    ]
    return IdealPresentation(ring_a, restricted, a_order, restricted)


def ideal_equal(a: IdealPresentation, b: IdealPresentation, limits: Limits = DEFAULT_LIMITS) -> bool:
    """Mutual membership: every generator of each reduces to zero mod the
    other's certified basis."""
    if a.ring != b.ring:
        raise ValueError("presentations live in different rings")
    basis_a = a.basis(limits)
    basis_b = b.basis(limits)
    return reduces_to_zero(a.generators, basis_b, b.order) and reduces_to_zero(
        b.generators, basis_a, a.order
    )


def chart_equal(d: int, n: int, limits: Limits = DEFAULT_LIMITS) -> bool:
    """Do the depth-d minors and the full generator set agree on the affine
    chart a_1_0 = 1?

    Both dehomogenized ideals get certified bases, then mutual membership
    is checked. The underlying projective schemes coincide exactly when
    this holds on every chart; the remaining charts follow by symmetry.
    """
    ring = Ring(d, n)
    sub = {ring.coeff(1, 0): 1}
    top = [rec.poly.substitute(sub) for rec in top_minor_records(d, n, ring)]
    full = [rec.poly.substitute(sub) for rec in enumerate_generators(d, n, ring)]
    order = DegRevLexOrder(ring.coeff_vars_column_major())
    pres_top = IdealPresentation(ring, top, order)
    pres_full = IdealPresentation(ring, full, order)
    return ideal_equal(pres_top, pres_full, limits)
