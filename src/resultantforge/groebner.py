"""Buchberger engine, elimination oracle, and ideal comparisons.

The engine is deterministic: pairs are selected by lowest sugar, then
smallest lcm in the term order, then first index pair (Giovini, Mora,
Niesi, Robbiano & Traverso, ISSAC 1991; an input's sugar is its degree,
a pair's the degree of its lcm plus the larger ecart, sugar minus lead
degree, of its elements, and an element a pair adds takes its sugar),
useless pairs are discarded with Buchberger's product and chain criteria
in their Gebauer-Moeller packaging, and output bases are inter-reduced,
content-normalized, and sorted, so identical inputs always produce
identical bases. The certificate is_groebner_basis reduces only the pairs
the same Gebauer-Moeller update keeps for a given basis (Gebauer &
Moeller, JSC 1988). Resource limits are explicit; exceeding one raises
instead of truncating. Each public entry point fixes one deadline,
limits.timeout from its start, and passes it to every run it starts,
self-checks included.

Both run on the packed, fraction-free kernel of orders.py: the basis,
s-polynomials, pair lcms (poly.Packing.lcm, a fieldwise max) and their
selection keys (computed once per pair) stay packed. Polynomials enter
through orders._packed and are decoded only where the library returns
them: is_packed_groebner_basis, chart_equal and elimination_equal take
minors as minors.packed_minors yields them and decode nothing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from fractions import Fraction
from math import gcd
from typing import Iterable, List, Mapping, Optional, Sequence

from .minors import enumerate_generators, top_minor_records  # both stay bound here for perfbench/tracing.py
from .minors import generator_rows, packed_minors
from .orders import (  # leading_term and normal_form stay bound here for perfbench/tracing.py
    BlockOrder,
    DegRevLexOrder,
    LexOrder,
    TermOrder,
    _packed,
    _primitive,
    _Reducer,
    leading_term,
    normal_form,
)
from .poly import Monomial, Packing, Polynomial, Ring, RingMismatchError, ZeroPolynomialError, parse_number


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
            kwargs[key] = parse_number(value, float if key == "timeout" else int, f"limit {key}")
        return cls(**kwargs)


DEFAULT_LIMITS = Limits()


def _deadline(limits: Limits) -> Optional[tuple]:
    """(deadline, timeout) of a call starting now; None with no timeout."""
    return None if limits.timeout is None else (time.monotonic() + limits.timeout, limits.timeout)


def _check_deadline(budget: Optional[tuple], done: int, total: Optional[int], what: str) -> None:
    """Raise once budget's deadline has passed, saying how far the call got: after done[ of total] what."""
    if budget is not None and time.monotonic() > budget[0]:
        of = "" if total is None else f" of {total}"
        raise ResourceExhaustedError(f"timeout of {budget[1]}s exceeded after {done}{of} {what}")


@dataclass(frozen=True)
class IdealPresentation:
    """Generators plus an optional certified basis for one term order."""

    ring: Ring
    generators: List[Polynomial]
    order: TermOrder
    certified_basis: Optional[List[Polynomial]] = None


def s_polynomial(p: Polynomial, q: Polynomial, order: TermOrder) -> Polynomial:
    """The lcm-cancellation combination of p and q (both made monic)."""
    if p.is_zero or q.is_zero:
        raise ZeroPolynomialError("s-polynomial of the zero polynomial")
    lmp, lcp = leading_term(p, order)
    lmq, lcq = leading_term(q, order)
    lcm = lmp.lcm(lmq)
    return p.mul_term(lcm.div(lmp), 1 / lcp) + q.mul_term(lcm.div(lmq), -1 / lcq)


def _update_pairs(run: "_Run", t: int) -> dict:
    """Gebauer-Moeller update of the index pairs over run.leads[:t] when
    run.leads[t] joins (Gebauer & Moeller, JSC 1988).

    run.pairs maps (i, j) to run.pair(i, j, lcm(leads[i], leads[j])), so
    the smallest entry is the next pair Buchberger selects. Pairs are
    dropped by the chain and product criteria. After inserting every
    element of a basis this way, the basis is a Groebner basis if the
    s-polynomial of each kept pair reduces to zero against it.
    """
    leads, packing = run.leads, run.packing
    lmf, guard = leads[t], packing.guard
    lcms = [packing.lcm(lead, lmf) for lead in leads[:t]]
    # chain criterion applied to the old pairs against lm(f)
    kept = {}
    for (i, j), entry in run.pairs.items():
        lij = entry[3]
        if ((lij | guard) - lmf) & guard != guard or lcms[i] == lij or lcms[j] == lij:
            kept[(i, j)] = entry

    # group candidate new pairs by their lcm and keep one representative
    # of every divisibility-minimal group; a proper divisor of a packed
    # monomial is a smaller int, so ascending ints meet divisors first
    by_lcm: dict = {}
    for i, lij in enumerate(lcms):
        by_lcm.setdefault(lij, []).append(i)
    minimal = []
    for lij in sorted(by_lcm):
        probe = lij | guard
        if not any((probe - other) & guard == guard for other in minimal):
            minimal.append(lij)
    for lij in minimal:
        group = by_lcm[lij]
        # product criterion: a coprime pair in the group kills the group
        if any(leads[i] + lmf == lij for i in group):
            continue
        kept[(group[0], t)] = run.pair(group[0], t, lij)
    return kept


class _Run(_Reducer):
    """Packed basis and pair set of one Buchberger execution or
    certificate; the basis is the divisor list. budget is the (deadline,
    timeout) of the library call that started the run, or None."""

    def __init__(self, order: TermOrder, limits: Limits, budget: Optional[tuple]):
        super().__init__(order)
        self.limits = limits
        self.pairs: dict = {}
        self.ecarts: list = []  # per basis element, its sugar minus its lead degree
        self.pairs_processed = 0
        self.budget = budget

    def check(self, total: Optional[int] = None) -> None:
        """Raise once pairs_processed reaches max_pairs or the budget's
        deadline has passed; total, the certificate's number of pairs,
        goes into the message."""
        done = self.pairs_processed
        if done >= self.limits.max_pairs:
            after = "" if total is None else f" after {done} of {total} pairs"
            raise ResourceExhaustedError(f"pair limit {self.limits.max_pairs} exceeded{after}")
        _check_deadline(self.budget, done, total, "pairs")

    def degree(self, exps: int) -> int:
        """The total degree of the packed monomial exps."""
        return sum(e for _, e in self.packing.pairs(exps))

    def insert(self, f: list, ecart: int = 0) -> None:
        """Append the packed polynomial f, whose sugar exceeds its lead
        degree by ecart, to the basis and update the pairs."""
        self.add(f)
        self.ecarts.append(ecart)
        self.pairs = _update_pairs(self, len(self.polys) - 1)

    def grow(self, f: list, sugar: int) -> None:
        """insert f with this sugar, within the basis size and degree limits."""
        if len(self.polys) + 1 > self.limits.max_basis:
            raise ResourceExhaustedError(f"basis size limit {self.limits.max_basis} exceeded")
        degree = self.degree(f[0][1])
        if self.limits.max_degree is not None and degree > self.limits.max_degree:
            raise ResourceExhaustedError(
                f"degree limit {self.limits.max_degree} exceeded by a basis element of degree {degree}"
            )
        self.insert(f, sugar - degree)

    def pair(self, i: int, j: int, lij: int) -> tuple:
        """The pairs entry of (i, j) with packed lcm lij, least first: the
        sugar (degree of lij plus the larger ecart of i and j) in a field
        above the key_bits of lij's order key, then the index pair."""
        select, key = self.select, max(self.ecarts[i], self.ecarts[j]) << self.key_bits
        for v, e in self.packing.pairs(lij):
            key += e * select[v]
        return key, i, j, lij

    def widen(self) -> None:
        """Repack the basis and every pending lcm at twice the field width."""
        super().widen()
        lcm, leads = self.packing.lcm, self.leads
        for (i, j) in self.pairs:
            self.pairs[(i, j)] = self.pair(i, j, lcm(leads[i], leads[j]))

    def pair_remainder(self, i: int, j: int, stop: bool = False):
        """divide() on the s-polynomial of the pending pair (i, j), built
        from the tails: the leading terms cancel."""
        selection, _, _, lij = self.pairs[(i, j)]
        key = selection & ((1 << self.key_bits) - 1)  # the order key of lij
        (pk, pe, pc), (qk, qe, qc) = self.polys[i][0], self.polys[j][0]
        g, work, heap = gcd(pc, qc), {}, []
        self.subtract(work, heap, i, lij - pe, key - pk, -qc // g)
        self.subtract(work, heap, j, lij - qe, key - qk, pc // g)
        return self.divide(work, stop, heap)

    def certify(self, basis: Iterable) -> bool:
        """The Buchberger criterion on the Gebauer-Moeller pairs of basis,
        (source, terms) pairs each unpacked as it enters. The limits are
        checked before each pair is reduced, where the message can name the
        number of pairs."""
        for source, terms in basis:
            self.retrying(lambda: self.insert(self.unpack(source, terms)))
        pairs = sorted(self.pairs)
        for i, j in pairs:
            self.check(len(pairs))
            if self.retrying(lambda: self.pair_remainder(i, j, stop=True)) is None:
                return False
            self.pairs_processed += 1
        return True

    def loop(self) -> None:
        while self.pairs:
            self.check()
            selection, i, j, _ = min(self.pairs.values())
            sugar = selection >> self.key_bits  # before a repack moves the field
            self.pairs_processed += 1
            r = self.retrying(lambda: _rescaled(*self.pair_remainder(i, j)))
            del self.pairs[(i, j)]
            if r:
                self.grow(r, sugar)

    def interreduce(self) -> None:
        """Shrink the finished basis to the minimal one (no leading monomial
        divides another) with every tail fully reduced and each element
        primitive; canonical for the order."""
        guard, found = self.packing.guard, sorted(self.polys)  # ascending leads
        self._reset(self.packing)
        for f in found:
            probe = f[0][1] | guard
            if not any((probe - lead) & guard == guard for lead in self.leads):
                self.add(f)
        # one pass suffices: whether a term is reducible depends only on the
        # leading monomials, and reducing the tails of a minimal basis
        # changes none of them; for the same reason the basis stays in
        # ascending lead order. A lead never divides a smaller term, so each
        # tail may be reduced against the whole basis, its own lead included.

        def tail_reduced(idx: int) -> list:
            f = self.polys[idx]
            rem, scale = self.divide({key: [exps, c] for key, exps, c in f[1:]})
            return _rescaled([(*f[0], 1), *rem], scale)

        for idx in range(len(self.polys)):
            self.replace(idx, self.retrying(lambda: tail_reduced(idx)))


def _rescaled(rem: list, scale: int) -> list:
    """A remainder from _Reducer.divide brought to its final scale and made
    primitive; [] when it is zero."""
    return _primitive([(key, exps, c * (scale // s)) for key, exps, c, s in rem]) if rem else []


def _basis_run(order: TermOrder, gens: Iterable, limits: Limits, budget: Optional[tuple], self_check: bool = True) -> _Run:
    """The packed core of buchberger: the finished run of the (source,
    terms) pairs gens, its divisors the reduced basis in ascending lead
    order (none when every generator is zero). The run and its
    self-check share budget, checked before each generator is reduced."""
    run = _Run(order, limits, budget)
    for source, terms in gens:
        _check_deadline(budget, run.pairs_processed, None, "pairs")
        r = run.retrying(lambda: _rescaled(*run.divide(run.load(source, terms))))
        if r:
            run.grow(r, max(run.degree(exps) for _, exps, _ in r))
    run.loop()
    run.interreduce()
    if self_check and not _Run(order, DEFAULT_LIMITS, budget).certify(run.divisors()):
        raise AssertionError("internal error: output failed the Buchberger criterion")
    return run


def buchberger(
    gens: Sequence[Polynomial],
    order: TermOrder,
    limits: Limits = DEFAULT_LIMITS,
    self_check: bool = True,
) -> IdealPresentation:
    """Certified reduced basis of the ideal generated by gens.

    With self_check (the default) the finished basis is certified again,
    from scratch, by the Buchberger criterion under the default pair and
    basis limits and before the run's deadline.
    """
    budget = _deadline(limits)
    gens = list(gens)
    if any(g.ring != gens[0].ring for g in gens):
        raise RingMismatchError("generators live in different rings")
    if all(g.is_zero for g in gens):
        raise ZeroPolynomialError("no nonzero generators")
    run = _basis_run(order, _packed(gens), limits, budget, self_check)
    basis = [run.packing.polynomial(gens[0].ring, terms) for _, terms in run.divisors()]
    return IdealPresentation(gens[0].ring, gens, order, basis)


def is_groebner_basis(
    basis: Sequence[Polynomial], order: TermOrder, limits: Limits = DEFAULT_LIMITS
) -> bool:
    """Buchberger criterion on the Gebauer-Moeller pairs.

    The elements enter one at a time through the pair update Buchberger
    uses, and only the pairs it keeps are reduced, in sorted order, against
    the whole basis; the answer equals that of reducing every s-polynomial.
    A reduction stops at its first irreducible term. max_pairs bounds the
    kept pairs reduced; the timeout runs from the start of the call and is
    checked before each reduction.
    """
    return _Run(order, limits, _deadline(limits)).certify(_packed(basis))


def is_packed_groebner_basis(
    packing: Packing, basis: Iterable[Mapping[int, int]], order: TermOrder, limits: Limits = DEFAULT_LIMITS
) -> bool:
    """is_groebner_basis of polynomials given as {key: int coefficient}
    over packing, such as the minors of minors.packed_minors; none is
    decoded. A lazy basis is consumed as the certificate runs, so its time
    counts against the timeout."""
    return _Run(order, limits, _deadline(limits)).certify((packing, terms) for terms in basis)


def elimination_order(ring: Ring) -> TermOrder:
    """Eliminand first by bare exponent, then degrevlex on the coefficient
    variables in column-major ranking."""
    return BlockOrder(
        (ring.x,), LexOrder((ring.x,)), DegRevLexOrder(ring.coeff_vars_column_major())
    )


def system_polynomials(ring: Ring) -> List[Polynomial]:
    """f_i = a_i_0 x^d + a_i_1 x^(d-1) + ... + a_i_d for i = 1..n."""
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


def _eliminated(d: int, n: int, limits: Limits, budget: Optional[tuple]) -> list:
    """The x-free elements of the reduced basis of the system ideal under
    the elimination order, as (source, terms) pairs."""
    ring_x = Ring(d, n, with_x=True)
    run = _basis_run(elimination_order(ring_x), _packed(system_polynomials(ring_x)), limits, budget, False)
    xbits = run.packing.emax << run.packing.shifts[ring_x.x]
    return [(source, terms) for source, terms in run.divisors() if not any(key & xbits for key in terms)]


def eliminate_x(d: int, n: int, limits: Limits = DEFAULT_LIMITS) -> IdealPresentation:
    """Eliminate x from the system ideal: certified basis of the ideal of
    coefficient relations forced by a common root.

    Runs Buchberger over the extended ring under the elimination order and
    keeps the x-free basis elements; those are a certified basis of the
    contraction for the induced degrevlex order on the coefficients. On
    x-free polynomials the elimination order is that degrevlex order, so
    they keep the ascending lead order of the full basis.
    """
    budget = _deadline(limits)
    ring_a = Ring(d, n)
    restricted = [source.polynomial(ring_a, terms) for source, terms in _eliminated(d, n, limits, budget)]
    return IdealPresentation(ring_a, restricted, DegRevLexOrder(ring_a.coeff_vars_column_major()), restricted)


def _equal(sides: Sequence[tuple], limits: Limits, budget: Optional[tuple]) -> bool:
    """Mutual membership of two ideals: every generator of each side
    reduces to zero mod the other's basis, and a side with no nonzero
    generator is the zero ideal. A side is (order, generators, basis):
    (source, terms) pairs and a _Reducer holding a basis certified for
    order, or None for Buchberger to compute one within limits and budget.
    The deadline is checked before each generator is reduced."""
    bases = [_basis_run(order, gens, limits, budget) if basis is None else basis for order, gens, basis in sides]
    (_, gens_a, _), (_, gens_b, _) = sides
    pending = [(bases[1], gen) for gen in gens_a] + [(bases[0], gen) for gen in gens_b]
    for done, (basis, gen) in enumerate(pending):
        _check_deadline(budget, done, len(pending), "membership reductions")
        if not basis.reduces_to_zero([gen]):
            return False
    return True


def ideal_equal(a: IdealPresentation, b: IdealPresentation, limits: Limits = DEFAULT_LIMITS) -> bool:
    """Mutual membership: every generator of each reduces to zero mod the
    other's certified basis, which Buchberger computes within limits where
    a presentation has none, all before one deadline."""
    budget = _deadline(limits)
    if a.ring != b.ring:
        raise ValueError("presentations live in different rings")
    sides = [
        (p.order, _packed(p.generators), None if p.certified_basis is None else _Reducer(p.order, p.certified_basis))
        for p in (a, b)
    ]
    return _equal(sides, limits, budget)


def elimination_equal(d: int, n: int, limits: Limits = DEFAULT_LIMITS) -> tuple:
    """Do the cascade minors generate the ideal eliminate_x computes? The
    answer, the number of minors and the size of the eliminated basis, by
    mutual membership as in ideal_equal, with nothing decoded."""
    budget = _deadline(limits)
    ring = Ring(d, n)
    order = DegRevLexOrder(ring.coeff_vars_column_major())
    packing, minors = packed_minors(ring, generator_rows(d, n))
    minors = [(packing, minor) for minor in minors]
    elim = _Reducer(order)
    elim.extend(_eliminated(d, n, limits, budget))
    ok = _equal([(order, minors, None), (order, elim.divisors(), elim)], limits, budget)
    return ok, len(minors), len(elim.polys)


def chart_equal(d: int, n: int, limits: Limits = DEFAULT_LIMITS) -> bool:
    """Do the depth-d minors and the full generator set agree on the affine
    chart a_1_0 = 1? Both families, expanded once, lead with a_1_0 - 1, so
    reduction sets a_1_0 = 1 in each minor as it enters: J + <a_1_0 - 1> is
    the preimage of J's chart. The projective schemes coincide exactly when
    this holds on every chart; the remaining charts follow by symmetry.
    """
    budget = _deadline(limits)
    ring = Ring(d, n)
    gens = generator_rows(d, n)
    packing, minors = packed_minors(ring, gens)
    chart = (packing, {1 << packing.shifts[ring.coeff(1, 0)]: 1, 0: -1})
    full = [chart, *((packing, minor) for minor in minors)]
    top = [chart, *(g for (k, _), g in zip(gens, full[1:]) if k == d)]
    order = DegRevLexOrder(ring.coeff_vars_column_major())
    return _equal([(order, top, None), (order, full, None)], limits, budget)
