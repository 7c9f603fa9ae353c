"""Term orders and order-dependent operations: leading terms and
multivariate polynomial division (normal forms).

Every order is a matrix order (Robbiano, EUROCAL 1985): it ranks a tuple
of variables and compares monomials by the rows of a nonnegative integer
matrix, first row first. So the order is a total multiplicative order with
1 minimal, and a key is linear in the exponents. key() packs the row
values of one monomial into one int.

Division runs on a packed representation (_Reducer): a term is one int,
the monomial's order key above its poly.Packing exponent fields, so one
int comparison compares terms in the order (Monagan & Pearce, JSC 2011);
coefficients are integers, and the next term is the largest key of the
work dict. The order makes that layout once per field width (_kernel),
with a row of ones below its own rows, so a term's total degree is one
field of its int. Polynomials enter through _packed, or straight as
kernel ints, such as minors expanded with the kernel's steps, and are
decoded only for results.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .poly import (
    RENDER_MEMO_SIZE,
    Monomial,
    Packing,
    Polynomial,
    RingMismatchError,
    Variable,
    ZeroPolynomialError,
)


def _key_columns(rows: tuple, emax: int) -> list:
    """Per variable, its column of the matrix as one int: each row gets a
    bit field that holds the row's value for any exponents up to emax, the
    first row in the most significant field. A key is then the sum of
    exponent times column, and comparing keys compares row by row."""
    columns, shift = [0] * (len(rows[0]) if rows else 0), 0
    for row in reversed(rows):
        for idx, w in enumerate(row):
            columns[idx] += w << shift
        shift += (emax * sum(row)).bit_length()
    return columns


_KEY_EMAX = (1 << 64) - 1


def _term_reader(packing: Packing, steps: dict, emax: int):
    """exps -> the kernel int of the exponent fields exps of packing, any
    Packing, given steps, a kernel's int per variable, and emax, the
    largest exponent its fields hold; bits above packing's fields, such as
    an order key, are not read. Each half of the variables' fields keeps
    its kernel int once computed, so exps whose halves were both seen cost
    two dict lookups. Only a memo miss checks its fields: a nonzero one
    above emax raises OverflowError, one with no step RingMismatchError.
    A half memo that passes RENDER_MEMO_SIZE entries is emptied."""
    mask, cut = packing.emax, len(packing.variables) // 2
    halves = []
    for part in (packing.variables[:cut], packing.variables[cut:]):
        spec = tuple((packing.shifts[v], v, steps.get(v)) for v in part)
        halves.append((sum(mask << shift for shift, _, _ in spec), spec, {}))
    (high, high_spec, high_memo), (low, low_spec, low_memo) = halves

    def convert(bits: int, spec: tuple, memo: dict) -> int:
        t = 0
        for shift, v, step in spec:
            e = (bits >> shift) & mask
            if e:
                if e > emax:
                    raise OverflowError(f"exponent {e} of {v.name} exceeds {emax}")
                if step is None:
                    raise RingMismatchError(f"variable {v.name} not ranked by this order")
                t += e * step
        if len(memo) > RENDER_MEMO_SIZE:
            memo.clear()
        memo[bits] = t
        return t

    def term(exps: int) -> int:
        h, l = exps & high, exps & low
        a = high_memo.get(h)
        if a is None:
            a = convert(h, high_spec, high_memo)
        b = low_memo.get(l)
        if b is None:
            b = convert(l, low_spec, low_memo)
        return a + b

    return term


class TermOrder:
    """A matrix order. Subclasses call _set_matrix once: `variables` are the
    ranked variables and `rows[r][idx]` the weight of variables[idx] in
    row r. A monomial in an unranked variable has no key."""

    __slots__ = ("variables", "rows", "_columns", "_kernels")

    def _set_matrix(self, variables: Sequence[Variable], rows: Iterable[Sequence[int]]) -> None:
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("ranking lists a variable twice")
        self.rows = tuple(tuple(row) for row in rows)
        self._columns = None  # made by the first key()
        self._kernels = {}

    def _kernel(self, width: int) -> tuple:
        """The Packing of the ranked variables at width, per variable its
        kernel int, and the kernel's term and degree readers. A variable's
        kernel int is its key column for exponents up to the packing's
        emax, shifted above every field, plus its unit in its field; the
        sum of exponent times kernel int is a monomial's kernel int, its
        order key above its packed exponents. The key's matrix is the
        order's with a row of ones appended, least significant: its field,
        right above the exponent fields, holds the total degree, and it
        never decides a comparison, since the order's rows already rank
        monomials injectively. Made once per width, so reducers of one
        order at one width share the Packing object and the term memo."""
        got = self._kernels.get(width)
        if got is None:
            packing = Packing(self.variables, width)
            above = packing.guard.bit_length()
            ones = (1,) * len(self.variables)
            columns = _key_columns(self.rows + (ones,), packing.emax)
            steps = {v: (col << above) | (1 << packing.shifts[v]) for v, col in zip(self.variables, columns)}
            mask = (1 << (packing.emax * len(ones)).bit_length()) - 1
            reader = _term_reader(packing, steps, packing.emax)
            got = self._kernels[width] = packing, steps, reader, lambda m: (m >> above) & mask
        return got

    def key(self, m: Monomial) -> int:
        """The row values of m, each in its own bit field, first row most
        significant: comparing keys compares monomials. Exponents must stay
        below 2**64."""
        columns, key = self._columns, 0
        if columns is None:
            columns = self._columns = dict(zip(self.variables, _key_columns(self.rows, _KEY_EMAX)))
        for v, e in m.exps:
            col = columns.get(v)
            if col is None:
                raise RingMismatchError(f"variable {v.name} not ranked by this order")
            if e > _KEY_EMAX:
                raise ValueError(f"exponent {e} of {v.name} is too large to order")
            key += e * col
        return key

    def _restricted(self, keep) -> tuple:
        """(variables, rows) of this matrix on the ranked variables in keep."""
        cols = [idx for idx, v in enumerate(self.variables) if v in keep]
        return [self.variables[idx] for idx in cols], [[row[idx] for idx in cols] for row in self.rows]


class LexOrder(TermOrder):
    """Lexicographic order for the given ranking (first variable largest)."""

    __slots__ = ()

    def __init__(self, ranking: Sequence[Variable]):
        size = len(ranking)
        self._set_matrix(ranking, ([int(r == c) for c in range(size)] for r in range(size)))


class DegRevLexOrder(TermOrder):
    """Degree reverse lexicographic order for the given ranking.

    Row r sums the first size - r variables: the degree, then, among equal
    degrees, less of the last variable wins, then less of the one before.
    """

    __slots__ = ()

    def __init__(self, ranking: Sequence[Variable]):
        size = len(ranking)
        self._set_matrix(ranking, ([int(c < size - r) for c in range(size)] for r in range(size)))


class WeightedOrder(TermOrder):
    """Total weight first, then an arbitrary tiebreak order."""

    __slots__ = ("weights",)

    def __init__(self, weights: dict, tiebreak: TermOrder):
        for v, w in weights.items():
            if not isinstance(w, int) or w <= 0:
                raise ValueError(f"weight of {v.name} must be a positive integer, got {w}")
        self.weights = dict(weights)
        variables, rows = tiebreak._restricted(self.weights)
        self._set_matrix(variables, [[self.weights[v] for v in variables], *rows])

    def weight(self, m: Monomial) -> int:
        total = 0
        for v, e in m.exps:
            w = self.weights.get(v)
            if w is None:
                raise RingMismatchError(f"variable {v.name} carries no weight")
            total += w * e
        return total


class BlockOrder(TermOrder):
    """Compare the sub-monomial on the first block, then the rest.

    With the eliminand alone in the first block this is the usual
    elimination order.
    """

    __slots__ = ()

    def __init__(self, first_vars: Iterable[Variable], first: TermOrder, second: TermOrder):
        first_vars = frozenset(first_vars)
        head, head_rows = first._restricted(first_vars)
        tail, tail_rows = second._restricted(set(second.variables) - first_vars)
        pad_head, pad_tail = [0] * len(tail), [0] * len(head)
        rows = [row + pad_head for row in head_rows] + [pad_tail + row for row in tail_rows]
        self._set_matrix(head + tail, rows)


def leading_term(p: Polynomial, order: TermOrder):
    """The order-maximal (monomial, coefficient) pair of a nonzero polynomial."""
    if p.is_zero:
        raise ZeroPolynomialError("zero polynomial has no leading term")
    m = max(p.terms, key=order.key)
    return m, p.terms[m]


def _primitive(terms: list) -> list:
    """Integer (term, coef) pairs divided by their content, leading
    coefficient positive."""
    g = gcd(*(c for _, c in terms))
    if terms[0][1] < 0:
        g = -g
    return terms if g == 1 else [(m, c // g) for m, c in terms]


# Exponents up to 15 fit before the first repack; no verify run up to
# (4,4) and no eliminate_x up to (2,4) needs one.
_FIRST_BITS = 4


def _integral(source: Packing, p: Polynomial) -> tuple:
    """p's terms keyed by source and scaled to integers by the lcm of its
    denominators: ({key: int}, that lcm)."""
    den = lcm(*(c.denominator for c in p.terms.values()))
    return {source.key(m): c.numerator * (den // c.denominator) for m, c in p.terms.items()}, den


def _packed(polys: Sequence[Polynomial]) -> list:
    """The one way a Polynomial enters the packed kernel: polys as (source,
    terms) pairs over one source Packing, the terms made integral."""
    source = Packing.over(m for p in polys for m in p.terms)
    return [(source, _integral(source, p)[0]) for p in polys]


class _Reducer:
    """Packed divisor list for repeated normal-form computations.

    A term is one int, the kernel int of TermOrder._kernel at the current
    width: the monomial's order key above its poly.Packing exponent
    fields. Comparing two such ints compares the terms in the order, a
    product is one +, a quotient one -, and the packing's guard tests read
    the low fields alone: m divides t exactly when ((t | guard) - m) &
    guard == guard. Neither kernel reader decodes: degree(m) is the total
    degree of the kernel int m, its lowest key field, and term(e) the
    kernel int of exponent fields e, such as a pair's lcm, from a memo of
    each half of e (_term_reader). Each divisor is a primitive integer
    polynomial with a positive leading coefficient, a list of (term, coef)
    pairs in descending order, its leading term first; leads holds the
    exponent fields of the leading terms. The list grows through add().
    Work that raises OverflowError runs through retrying(), which repacks
    every divisor at twice the field width and runs it again. A polynomial
    enters as (source, terms). When source is this kernel's packing, terms
    are kernel ints and enter as they are, such as divisors() of a reducer
    of the same order and width or minors expanded with steps; only a
    foreign source, a Polynomial's from _packed or an older width's after
    widen(), is translated by load, through the same _term_reader.
    """

    def __init__(self, order: TermOrder, basis: Sequence[Polynomial] = ()):
        self.order = order
        self._reset(_FIRST_BITS)
        if basis:
            self.extend(_packed(basis))

    def _reset(self, width: int) -> None:
        self.packing, self.steps, self.term, self.degree = self.order._kernel(width)
        self.low = (1 << self.packing.guard.bit_length()) - 1  # the exponent fields of a kernel int
        self.imports = {}  # source Packing -> its _term_reader at this width
        self.polys, self.leads, self.lcs, self.tails = [], [], [], []

    def widen(self) -> None:
        old = self.divisors()
        self._reset(2 * self.packing.width)
        self.extend(old)

    def retrying(self, work):
        """work(), run again after a repack for as long as it overflows."""
        while True:
            try:
                return work()
            except OverflowError:
                self.widen()

    def load(self, source: Packing, terms: Mapping[int, int]) -> dict:
        """Integer terms keyed by a foreign Packing, such as a
        Polynomial's from _packed or an older width's kernel ints after
        widen(), as work for divide(), {term: coef}, with no Monomial
        built: each source has one _term_reader per width, memoized in
        imports. OverflowError when an exponent does not fit,
        RingMismatchError when a variable is not ranked."""
        read = self.imports.get(source)
        if read is None:
            read = self.imports[source] = _term_reader(source, self.steps, self.packing.emax)
        return {read(key): c for key, c in terms.items()}

    def work(self, source: Packing, terms: Mapping[int, int]) -> dict:
        """(source, terms) as a new work dict for divide()."""
        return dict(terms) if source is self.packing else self.load(source, terms)

    def unpack(self, source: Packing, terms: Mapping[int, int]) -> list:
        """(source, terms) as a primitive packed divisor."""
        if not terms:
            raise ZeroPolynomialError("division by a basis containing zero")
        return _primitive(sorted(self.work(source, terms).items(), reverse=True))

    def extend(self, basis: Iterable) -> None:
        """add() each (source, terms) of basis as a packed divisor."""
        for source, terms in basis:
            self.retrying(lambda: self.add(self.unpack(source, terms)))

    def divisors(self) -> list:
        """The divisors as (packing, {kernel int: coef}) pairs, in list order."""
        return [(self.packing, dict(f)) for f in self.polys]

    def add(self, poly: list) -> None:
        self.polys.append(poly)
        m, c = poly[0]
        self.leads.append(m & self.low)
        self.lcs.append(c)
        self.tails.append(poly[1:])

    def replace(self, idx: int, poly: list) -> None:
        """Swap divisor idx for poly, which has the same leading monomial."""
        self.polys[idx] = poly
        self.lcs[idx] = poly[0][1]
        self.tails[idx] = poly[1:]

    def divide(self, work: dict, stop: bool = False, top: bool = False):
        """Reduce work, {term: coef}, fraction-free, consuming it.

        The largest remaining term, max(work), is rewritten by the first
        divisor whose lead divides it. A scan of the dict costs less than
        a heap here: most terms a step adds cancel before they would be
        popped. Before subtracting c/lc times a divisor, the whole work is
        multiplied by lc/gcd(c, lc), so it stays integral: the work is
        always `scale` times the work of exact division. Returns the
        remainder as (term, coef, scale at the time) triples in descending
        order, and the final scale. With stop, returns None at the first
        term that does not reduce: no later term can cancel it, so the
        remainder is nonzero. With top, returns at that term, followed by
        the rest of the work unreduced, all at the current scale: a
        remainder whose lead alone is irreducible.
        """
        guard, leads, lcs, polys = self.packing.guard, self.leads, self.lcs, self.polys
        rem, scale = [], 1
        while work:
            m = max(work)
            c = work.pop(m)
            probe = m | guard
            for idx, lead in enumerate(leads):
                if (probe - lead) & guard == guard:
                    break
            else:
                if stop:
                    return None
                rem.append((m, c, scale))
                if top:
                    rem += [(t, work[t], scale) for t in sorted(work, reverse=True)]
                    break
                continue
            lc = lcs[idx]
            if lc != 1:
                g = gcd(c, lc)
                if g != lc:
                    up = lc // g
                    scale *= up
                    for other in work:
                        work[other] *= up
                c //= g
            self.subtract(work, idx, m - polys[idx][0][0], c)
        return rem, scale

    def subtract(self, work: dict, idx: int, q: int, f: int) -> None:
        """work -= f * q * tail of divisor idx, for the kernel int q."""
        guard, get = self.packing.guard, work.get
        for b, bc in self.tails[idx]:
            m = b + q
            if m & guard:
                raise OverflowError
            c = get(m, 0) - f * bc
            if c:
                work[m] = c
            else:
                del work[m]

    def reduces_to_zero(self, polys: Iterable) -> bool:
        """True when every (source, terms) of polys reduces to zero."""
        return all(self.retrying(lambda: self.divide(self.work(*p), stop=True) is not None) for p in polys)

    def normal_form(self, p: Polynomial) -> Polynomial:
        """The exact remainder of p, with Fraction coefficients."""
        source = Packing.over(p.terms)
        terms, den = _integral(source, p)
        rem, _ = self.retrying(lambda: self.divide(self.load(source, terms)))
        return self.packing.polynomial(p.ring, {m: Fraction(c, den * s) for m, c, s in rem})


def normal_form(p: Polynomial, basis: Sequence[Polynomial], order: TermOrder) -> Polynomial:
    """Remainder of p on division by basis: no remainder term is divisible
    by any basis leading monomial, and p minus the remainder lies in the
    ideal generated by the basis."""
    for b in basis:
        if b.ring != p.ring:
            raise RingMismatchError("division across different rings")
    return _Reducer(order, basis).normal_form(p)
