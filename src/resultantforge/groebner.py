"""Buchberger engine, elimination oracle, and ideal comparisons.

The engine is deterministic: pairs are popped from a heap by lowest
sugar, then smallest lcm in the term order, then first index pair
(Giovini, Mora, Niesi, Robbiano & Traverso, ISSAC 1991; an input's sugar
is its degree, a pair's the degree of its lcm plus the larger ecart,
sugar minus lead degree, of its elements, and an element a pair adds
takes its sugar), useless pairs are discarded with Buchberger's product
and chain criteria in their Gebauer-Moeller packaging, each remainder is
reduced only until its lead is irreducible, and output bases are
inter-reduced (every tail reduced once), content-normalized, and sorted,
so identical inputs always produce identical bases. The certificate
is_groebner_basis reduces only the pairs the same Gebauer-Moeller update
keeps for a given basis (Gebauer & Moeller, JSC 1988). Resource limits
are explicit; exceeding one raises instead of truncating. Each public
entry point fixes one deadline, limits.timeout from its start, and
passes it to every run it starts, self-checks included.

Both run on the packed, fraction-free kernel of orders.py, one int per
term: the basis and s-polynomials are kernel ints, pair lcms exponent
fields (poly.Packing.lcm, a fieldwise max) until a pair is reduced or
ranked; a sugar degree is read off a kernel int's lowest key field.
Polynomials enter through orders._packed and are decoded only where the
library returns them. A minor meets a term order one way: expanded
straight into the order's kernel ints (_kernel_minors), in
minors_are_groebner_basis, elimination_equal, chart_equal's Buchberger
fallback and the leadterms command; the elimination builds f_1, ..., f_n
the same way. chart_equal's lift check compares minors as
minors.packed_minors yields them and ranks none. None decodes a minor.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd
from typing import Iterable, Iterator, List, Optional, Sequence

from .minors import enumerate_generators, top_minor_records  # both stay bound here for perfbench/tracing.py
from .minors import _symbolic, generator_rows, packed_minors, walk_minors
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
from .poly import Monomial, Polynomial, Ring, RingMismatchError, ZeroPolynomialError, parse_number


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


def _update_pairs(run: "_Run", t: int) -> list:
    """Gebauer-Moeller update, in place, of the index pairs over
    run.leads[:t] when run.leads[t] joins (Gebauer & Moeller, JSC 1988);
    returns the pairs it adds.

    run.pairs maps (i, j) to lcm(leads[i], leads[j]), exponent fields
    only. Pairs are dropped by the chain and product criteria. After
    inserting every element of a basis this way, the basis is a Groebner
    basis if the s-polynomial of each kept pair reduces to zero against it.
    """
    pairs, leads, guard, width = run.pairs, run.leads, run.packing.guard, run.packing.width
    lmf, lcms = leads[t], []
    for lead in leads[:t]:  # poly.Packing.lcm, inline: the fields where lead >= lm(f) keep lead's value
        ge = ((lead | guard) - lmf) & guard
        lcms.append((lead & (pick := ge - (ge >> width))) | (lmf & ~pick))
    # chain criterion applied to the old pairs against lm(f)
    for ij in [(i, j) for (i, j), lij in pairs.items()
               if ((lij | guard) - lmf) & guard == guard and lcms[i] != lij != lcms[j]]:
        del pairs[ij]

    # group candidate new pairs by their lcm and keep one representative
    # of every divisibility-minimal group; a proper divisor of a packed
    # monomial is a smaller int, so ascending ints meet divisors first
    by_lcm: dict = {}
    for i, lij in enumerate(lcms):
        by_lcm.setdefault(lij, []).append(i)
    minimal = []
    for lij in sorted(by_lcm):
        probe = lij | guard
        for other in minimal:
            if (probe - other) & guard == guard:
                break
        else:
            minimal.append(lij)
    added = []
    for lij in minimal:
        group = by_lcm[lij]
        # product criterion: a coprime pair in the group kills the group
        for i in group:
            if leads[i] + lmf == lij:
                break
        else:
            pairs[(group[0], t)] = lij
            added.append((group[0], t))
    return added


class _Run(_Reducer):
    """Packed basis and pair set of one Buchberger execution or
    certificate; the basis is the divisor list. budget is the (deadline,
    timeout) of the library call that started the run, or None."""

    def __init__(self, order: TermOrder, limits: Limits, budget: Optional[tuple]):
        super().__init__(order)
        self.limits = limits
        self.pairs: dict = {}
        self.heap: list = []  # ranks of the pairs grow() added, pending or since dropped from pairs
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

    def insert(self, f: list, ecart: int = 0) -> list:
        """Append the packed polynomial f, whose sugar exceeds its lead
        degree by ecart, to the basis, update the pairs and return the new ones."""
        self.add(f)
        self.ecarts.append(ecart)
        return _update_pairs(self, len(self.polys) - 1)

    def rank(self, i: int, j: int) -> tuple:
        """(sugar, lcm kernel int, i, j) of the pending pair (i, j); its
        sugar is its lcm's degree plus the larger ecart of i and j."""
        lij = self.term(self.pairs[(i, j)])
        return self.degree(lij) + max(self.ecarts[i], self.ecarts[j]), lij, i, j

    def grow(self, f: list, sugar: int) -> None:
        """insert f with this sugar, within the basis size and degree limits."""
        if len(self.polys) + 1 > self.limits.max_basis:
            raise ResourceExhaustedError(f"basis size limit {self.limits.max_basis} exceeded")
        degree = self.degree(f[0][0])
        if self.limits.max_degree is not None and degree > self.limits.max_degree:
            raise ResourceExhaustedError(
                f"degree limit {self.limits.max_degree} exceeded by a basis element of degree {degree}"
            )
        for pair in self.insert(f, sugar - degree):
            heappush(self.heap, self.rank(*pair))

    def widen(self) -> None:
        """Repack the basis and every pending lcm at twice the field width,
        and rebuild the heap: kernel ints of two widths do not compare."""
        super().widen()
        lcm, leads = self.packing.lcm, self.leads
        for (i, j) in self.pairs:
            self.pairs[(i, j)] = lcm(leads[i], leads[j])
        self.heap[:] = [self.rank(*pair) for pair in self.pairs]
        heapify(self.heap)

    def pair_remainder(self, i: int, j: int, stop: bool):
        """divide() on the s-polynomial of the pending pair (i, j), built
        from the tails (the leading terms cancel): with stop, stopped at
        its first irreducible term, else top-reduced."""
        lij = self.term(self.pairs[(i, j)])
        (pm, pc), (qm, qc) = self.polys[i][0], self.polys[j][0]
        g, work = gcd(pc, qc), {}
        self.subtract(work, i, lij - pm, -qc // g)
        self.subtract(work, j, lij - qm, pc // g)
        return self.divide(work, stop, top=not stop)

    def certify(self, basis: Iterable) -> bool:
        """The Buchberger criterion on the Gebauer-Moeller pairs of basis,
        (source, terms) pairs each unpacked as it enters. The limits are
        checked before each pair is reduced, where the message can name the
        number of pairs; the deadline also before each element is inserted,
        where it names the elements inserted so far."""
        for done, (source, terms) in enumerate(basis):
            _check_deadline(self.budget, done, None, "basis elements inserted")
            self.retrying(lambda: self.insert(self.unpack(source, terms)))
        pairs = sorted(self.pairs)
        for i, j in pairs:
            self.check(len(pairs))
            if self.retrying(lambda: self.pair_remainder(i, j, stop=True)) is None:
                return False
            self.pairs_processed += 1
        return True

    def loop(self) -> None:
        """Reduce the pending pair of least rank until none is left, popped
        from the heap, where a pair the chain criterion has since dropped
        is skipped. Each remainder is reduced only until its lead is
        irreducible: interreduce() reduces the tails of the final basis."""
        heap = self.heap
        while heap:
            sugar, _, i, j = heappop(heap)
            if (i, j) not in self.pairs:
                continue
            self.check()
            self.pairs_processed += 1
            r = self.retrying(lambda: _rescaled(*self.pair_remainder(i, j, stop=False)))
            del self.pairs[(i, j)]
            if r:
                self.grow(r, sugar)

    def interreduce(self, eliminate: tuple = ()) -> None:
        """Shrink the finished basis to the minimal one (no leading monomial
        divides another) with every tail fully reduced and each element
        primitive; canonical for the order. Elements in which a variable of
        eliminate occurs are dropped first: the rest is interreduced among
        itself."""
        packing = self.packing
        guard, bits = packing.guard, sum(packing.emax << packing.shifts[v] for v in eliminate)
        found = sorted(f for f in self.polys if not any(m & bits for m, _ in f))  # ascending leads
        self._reset(self.packing.width)
        for f in found:
            probe = f[0][0] | guard
            if not any((probe - lead) & guard == guard for lead in self.leads):
                self.add(f)
        # one pass suffices: whether a term is reducible depends only on the
        # leading monomials, and reducing the tails of a minimal basis
        # changes none of them; for the same reason the basis stays in
        # ascending lead order. A lead never divides a smaller term, so each
        # tail may be reduced against the whole basis, its own lead included.

        def tail_reduced(idx: int) -> list:
            f = self.polys[idx]
            rem, scale = self.divide(dict(f[1:]))
            return _rescaled([(*f[0], 1), *rem], scale)

        for idx in range(len(self.polys)):
            self.replace(idx, self.retrying(lambda: tail_reduced(idx)))


def _rescaled(rem: list, scale: int) -> list:
    """A remainder from _Reducer.divide brought to its final scale and made
    primitive; [] when it is zero."""
    return _primitive([(m, c * (scale // s)) for m, c, s in rem]) if rem else []


def _basis_run(
    order: TermOrder,
    gens: Iterable,
    limits: Limits,
    budget: Optional[tuple],
    self_check: bool = True,
    eliminate: tuple = (),
) -> _Run:
    """The packed core of buchberger: the finished run of the (source,
    terms) pairs gens, its divisors the reduced basis in ascending lead
    order (none when every generator is zero), or, with eliminate, the
    reduced basis of its elements free of those variables. The run and its
    self-check share budget, checked before each generator is reduced."""
    run = _Run(order, limits, budget)
    for source, terms in gens:
        _check_deadline(budget, run.pairs_processed, None, "pairs")
        r = run.retrying(lambda: _rescaled(*run.divide(run.work(source, terms), top=True)))
        if r:
            run.grow(r, max(run.degree(m) for m, _ in r))
    run.loop()
    run.interreduce(eliminate)
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


def minors_are_groebner_basis(
    ring: Ring, gens: Iterable[tuple], order: TermOrder, limits: Limits = DEFAULT_LIMITS
) -> bool:
    """is_groebner_basis of the minors of the generators (k, rows) of
    ring, each expanded by band_det straight into the certificate's
    kernel ints as the certificate reaches it: no minor is translated. The
    kernel first widens until it holds exponent d, the largest in any
    minor. order must rank every coefficient variable of ring."""
    run = _Run(order, limits, _deadline(limits))
    return run.certify(_kernel_minors(run, ring, gens))


def _widened(kernel: _Reducer, d: int) -> _Reducer:
    """kernel, widened until it holds exponent d. A reducer of the same
    order at that width takes polynomials in kernel's ints as they are."""
    while kernel.packing.emax < d:
        kernel.widen()
    return kernel


def _kernel_minors(kernel: _Reducer, ring: Ring, gens: Iterable[tuple]) -> Iterator[tuple]:
    """The minors of the generators (k, rows) of ring as (packing, {kernel
    int: coef}) pairs of kernel's order, each expanded by band_det when
    the iterator reaches it. kernel first widens until it holds exponent
    d, the largest in any minor."""
    packing, steps = _widened(kernel, ring.d).packing, kernel.steps
    one, zero, times, _ = _symbolic(ring, steps)
    return ((packing, minor) for minor in walk_minors(ring.d, gens, one, zero, times))


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


def _eliminated(d: int, n: int, limits: Limits, budget: Optional[tuple], order: Optional[TermOrder] = None) -> _Run:
    """The run whose divisors are the x-free elements of the reduced basis
    of the system ideal under order, by default a new elimination order of
    Ring(d, n, with_x=True). Only they are minimalized and tail-reduced:
    under this order an element whose lead is x-free has no x at all, and
    a lead with x divides no x-free term, so the elements with x change
    neither the minimal x-free leads nor any x-free tail's remainder."""
    ring_x = Ring(d, n, with_x=True)
    order = order or elimination_order(ring_x)
    kernel = _widened(_Reducer(order), d)
    steps, x = kernel.steps, kernel.steps[ring_x.x]
    # system_polynomials, straight into kernel ints
    gens = [(kernel.packing, {steps[ring_x.coeff(i, j)] + (d - j) * x: 1 for j in range(d + 1)}) for i in range(1, n + 1)]
    return _basis_run(order, gens, limits, budget, False, (ring_x.x,))


def eliminate_x(d: int, n: int, limits: Limits = DEFAULT_LIMITS) -> IdealPresentation:
    """Eliminate x from the system ideal: a Groebner basis of the ideal of
    coefficient relations forced by a common root.

    Runs Buchberger over the extended ring under the elimination order, with
    no self-check, and keeps the x-free basis elements: a Groebner basis of
    the contraction for the induced degrevlex order on the coefficients. On
    x-free polynomials the elimination order is that degrevlex order, so
    they keep the ascending lead order of the full basis.
    """
    budget = _deadline(limits)
    ring_a = Ring(d, n)
    restricted = [source.polynomial(ring_a, terms) for source, terms in _eliminated(d, n, limits, budget).divisors()]
    return IdealPresentation(ring_a, restricted, DegRevLexOrder(ring_a.coeff_vars_column_major()), restricted)


def _members(tasks: Sequence[tuple], budget: Optional[tuple]) -> bool:
    """Does <generators> lie in <basis> for each (basis, generators) task?
    Each (source, terms) generator, in task order and after a deadline
    check, must reduce to zero mod basis, a _Reducer holding a Groebner
    basis (empty: the zero ideal) of the ideal tested against, the only
    one a membership test needs (Cox, Little & O'Shea, IVA, 2.6)."""
    pending = [(basis, gen) for basis, gens in tasks for gen in gens]
    for done, (basis, gen) in enumerate(pending):
        _check_deadline(budget, done, len(pending), "membership reductions")
        if not basis.reduces_to_zero([gen]):
            return False
    return True


def ideal_equal(a: IdealPresentation, b: IdealPresentation, limits: Limits = DEFAULT_LIMITS) -> bool:
    """Mutual membership: a's generators mod b's certified basis, then b's
    mod a's. Where a presentation has none, Buchberger computes it within
    limits, a's first, all before one deadline."""
    budget = _deadline(limits)
    if a.ring != b.ring:
        raise ValueError("presentations live in different rings")
    gens = [_packed(p.generators) for p in (a, b)]
    bases = [_basis_run(p.order, g, limits, budget) if p.certified_basis is None else _Reducer(p.order, p.certified_basis)
             for p, g in zip((a, b), gens)]
    return _members([(bases[1], gens[0]), (bases[0], gens[1])], budget)


def elimination_equal(d: int, n: int, limits: Limits = DEFAULT_LIMITS) -> tuple:
    """Do the cascade minors generate the ideal eliminate_x computes? The
    answer, the number of minors and the size of the eliminated basis, by
    mutual membership with nothing decoded: the minors mod the eliminated
    basis, then its elements mod the minors' basis. Both live in the kernel
    of the elimination order, which on x-free polynomials compares as the
    degrevlex order of eliminate_x: the minors' run is that order's run,
    and no polynomial is translated. No list of minors is held: they are
    expanded as the minors' run takes them, against the timeout, and again
    only for a membership step."""
    budget = _deadline(limits)
    ring_x = Ring(d, n, with_x=True)
    order = elimination_order(ring_x)
    gens = generator_rows(d, n)

    def minors():
        return _kernel_minors(_Reducer(order), ring_x, gens)

    elim = _eliminated(d, n, limits, budget, order)
    run = _basis_run(order, minors(), limits, budget)
    # both are reduced bases, primitive and in ascending lead order: equal lists are one ideal
    same = run.packing.width == elim.packing.width and run.polys == elim.polys
    return same or _members([(elim, minors()), (run, elim.divisors())], budget), len(gens), len(elim.polys)


def _lift(d: int, k: int, rows: tuple) -> tuple:
    """The M_d rows lifting M_k rows: (1,1) .. (d-k,1), then (i+d-k, j) per (i, j)."""
    return tuple((i, 1) for i in range(1, d - k + 1)) + tuple((i + d - k, j) for i, j in rows)


def chart_equal(d: int, n: int, limits: Limits = DEFAULT_LIMITS) -> bool:
    """Do the depth-d minors and the full generator set agree on the affine
    chart a_1_0 = 1: is <top> + <a_1_0 - 1> = <full> + <a_1_0 - 1>? The
    projective schemes coincide exactly when this holds on every chart; the
    others follow by symmetry. <top> lies in <full> by construction. For the
    other inclusion, lift each generator (k, rows), k < d, with minor m: the
    first d-k columns of its lift meet only f_1 rows, an upper triangular
    block with diagonal a_1_0, so the lift's minor is a_1_0^(d-k) m, sign +.
    A depth-d lift then gives m = (1 - a_1_0^(d-k)) m + lift in
    <a_1_0 - 1> + <top>, with no Groebner basis. _lifts_hold checks every
    lift; on any mismatch _chart_by_basis answers, and only it is bound by
    the other limits.
    """
    budget = _deadline(limits)
    ring = Ring(d, n)
    return _lifts_hold(ring, budget) or _chart_by_basis(ring, limits, budget)


def _lifts_hold(ring: Ring, budget: Optional[tuple]) -> bool:
    """Is the lift of every generator (k, rows), k < d, a depth-d generator
    whose minor is the minor of (k, rows) shifted by d-k steps of a_1_0?
    Only the lifts are expanded at depth d, no other depth-d minor, and the
    lower minors and their lifts stream side by side, one pair held at a
    time. The deadline is checked once both streams are set up and once
    before each comparison."""
    d = ring.d
    gens = generator_rows(d, ring.n)
    lower = [g for g in gens if g[0] < d]
    lifted = [(d, _lift(d, k, rows)) for k, rows in lower]
    if not {rows for _, rows in lifted} <= {rows for k, rows in gens if k == d}:
        return False
    packing, minors = packed_minors(ring, lower)
    lifts = packed_minors(ring, lifted)[1]
    step = 1 << packing.shifts[ring.coeff(1, 0)]
    _check_deadline(budget, 0, len(lower), "lifted minors")
    for done, ((k, _), minor, lift) in enumerate(zip(lower, minors, lifts)):
        _check_deadline(budget, done, len(lower), "lifted minors")
        shift = (d - k) * step
        if lift != {key + shift: c for key, c in minor.items()}:
            return False
    return True


def _chart_by_basis(ring: Ring, limits: Limits, budget: Optional[tuple]) -> bool:
    """chart_equal by Buchberger on one fresh expansion of the family into
    the kernel ints of its order. Both families lead with a_1_0 - 1, so
    reduction sets a_1_0 = 1 in each minor as it enters: J + <a_1_0 - 1>
    is the preimage of J's chart. Every full generator is reduced mod the
    one basis, top's."""
    gens = generator_rows(ring.d, ring.n)
    order = DegRevLexOrder(ring.coeff_vars_column_major())
    kernel = _Reducer(order)
    family = list(zip(gens, _kernel_minors(kernel, ring, gens)))
    chart = (kernel.packing, {kernel.steps[ring.coeff(1, 0)]: 1, 0: -1})
    top = [chart, *(minor for (k, _), minor in family if k == ring.d)]
    full = [chart, *(minor for _, minor in family)]
    return _members([(_basis_run(order, top, limits, budget), full)], budget)
