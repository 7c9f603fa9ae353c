"""Exact sparse multivariate polynomials over the rationals.

A Ring declares the symbols for a system of n univariate degree-d
polynomials f_i(x) = a_i_0 x^d + a_i_1 x^(d-1) + ... + a_i_d: the
coefficient variables a_i_j, optionally the eliminand x, and optionally
the substitution symbols r and b_i_j used by planted-root checks.

Coefficients are arbitrary-precision Fractions and monomials are sparse
exponent maps; neither changes after construction, so polynomials can be
shared freely between threads. Packing, here, is the one int layout of a
monomial, which minor expansion, term-order keys and division share, and
the one printer of terms: reprs, the text format, the CAS scripts and the
JSON ideal document. read_terms is the one reader of that document's
term lists, straight into packed terms.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Union

Rational = Union[int, Fraction]


class RingMismatchError(ValueError):
    """Operands declared over incompatible rings, or an unknown variable."""


class ZeroPolynomialError(ValueError):
    """An operation that needs a nonzero polynomial got the zero polynomial."""


class Variable(NamedTuple):
    """A ring symbol. kind is "a" (coefficient of the input system),
    "x" (the eliminand), or one of the auxiliaries "r", "b"."""

    kind: str
    i: int = 0
    j: int = 0

    @property
    def name(self) -> str:
        if self.kind in ("x", "r"):
            return self.kind
        return f"{self.kind}_{self.i}_{self.j}"

    @classmethod
    def parse(cls, name: str) -> "Variable":
        if name in ("x", "r"):
            return cls(name)
        kind, _, rest = name.partition("_")
        i, _, j = rest.partition("_")
        if kind in ("a", "b") and i.isdigit() and j.isdigit():
            var = cls(kind, int(i), int(j))
            if var.name == name:  # no leading zeros or non-ASCII digits
                return var
        raise ValueError(f"unrecognized variable name {name!r}")

    def __str__(self) -> str:
        return self.name


class Ring:
    """The variable set for a (d, n) system.

    Equality is structural: two rings with the same d, n and the same
    optional symbol groups have interchangeable variables.
    """

    __slots__ = ("d", "n", "with_x", "with_aux", "_key", "_rank")

    def __init__(self, d: int, n: int, *, with_x: bool = False, with_aux: bool = False):
        if d < 1:
            raise ValueError(f"degree d must be >= 1, got {d}")
        if n < 1:
            raise ValueError(f"system size n must be >= 1, got {n}")
        self.d = d
        self.n = n
        self.with_x = with_x
        self.with_aux = with_aux
        self._key = (d, n, with_x, with_aux)
        self._rank = None

    def coeff(self, i: int, j: int) -> Variable:
        """The coefficient symbol a_i_j, 1 <= i <= n, 0 <= j <= d."""
        if not (1 <= i <= self.n and 0 <= j <= self.d):
            raise ValueError(f"coefficient index ({i},{j}) outside 1..{self.n} x 0..{self.d}")
        return Variable("a", i, j)

    @property
    def x(self) -> Variable:
        if not self.with_x:
            raise RingMismatchError("ring was declared without the eliminand x")
        return Variable("x")

    @property
    def root(self) -> Variable:
        if not self.with_aux:
            raise RingMismatchError("ring was declared without auxiliary symbols")
        return Variable("r")

    def aux(self, i: int, j: int) -> Variable:
        """The cofactor coefficient symbol b_i_j, 0 <= j <= d-1."""
        if not self.with_aux:
            raise RingMismatchError("ring was declared without auxiliary symbols")
        if not (1 <= i <= self.n and 0 <= j <= self.d - 1):
            raise ValueError(f"auxiliary index ({i},{j}) outside 1..{self.n} x 0..{self.d - 1}")
        return Variable("b", i, j)

    def coeff_vars_row_major(self) -> tuple:
        """a_1_0, a_1_1, ..., a_1_d, a_2_0, ..., a_n_d."""
        return tuple(Variable("a", i, j) for i in range(1, self.n + 1) for j in range(self.d + 1))

    def coeff_vars_column_major(self) -> tuple:
        """a_1_0, a_2_0, ..., a_n_0, a_1_1, ..., a_n_d."""
        return tuple(Variable("a", i, j) for j in range(self.d + 1) for i in range(1, self.n + 1))

    @property
    def variables(self) -> tuple:
        """Every symbol in sorted order: a_i_j row-major, then b_i_j, r and x."""
        out = list(self.coeff_vars_row_major())
        if self.with_aux:
            out += [*(Variable("b", i, j) for i in range(1, self.n + 1) for j in range(self.d)), Variable("r")]
        if self.with_x:
            out.append(Variable("x"))
        return tuple(out)

    def canonical_key(self, m: "Monomial") -> tuple:
        """Sort key of the order-free canonical term order: lex over
        `variables`, first variable largest. It orders monomials as their
        dense exponent vectors do, reading only the sparse exponents, which
        Monomial keeps sorted in the same variable order."""
        if self._rank is None:  # built on first use, so a ring costs O(1) until then
            self._rank = {v: -idx for idx, v in enumerate(self.variables)}
        rank = self._rank
        return tuple((rank[v], e) for v, e in m.exps)

    def __contains__(self, var: Variable) -> bool:
        kind, i, j = var
        if kind == "a":
            return 1 <= i <= self.n and 0 <= j <= self.d
        if kind == "b":
            return self.with_aux and 1 <= i <= self.n and 0 <= j < self.d
        return i == j == 0 and (self.with_x if kind == "x" else self.with_aux and kind == "r")

    def __eq__(self, other) -> bool:
        return isinstance(other, Ring) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        flags = "".join(
            s for s, on in ((", with_x", self.with_x), (", with_aux", self.with_aux)) if on
        )
        return f"Ring(d={self.d}, n={self.n}{flags})"


def _check_same_ring(p: "Polynomial", q: "Polynomial") -> None:
    if p.ring != q.ring:
        raise RingMismatchError(f"mixed rings {p.ring!r} and {q.ring!r}")


class Monomial:
    """A sparse exponent vector; variables not listed have exponent zero."""

    __slots__ = ("exps", "_hash")

    def __init__(self, exps: Iterable = ()):
        items = exps.items() if isinstance(exps, Mapping) else exps
        merged: dict = {}
        for v, e in items:
            e = int(e)
            if e < 0:
                raise ValueError(f"negative exponent {e} for {v}")
            if e:
                merged[v] = merged.get(v, 0) + e
        self.exps = tuple(sorted(merged.items()))
        self._hash = hash(self.exps)

    @classmethod
    def _make(cls, sorted_pairs: tuple) -> "Monomial":
        # trusted path: pairs already sorted, positive, unique
        m = cls.__new__(cls)
        m.exps = sorted_pairs
        m._hash = hash(sorted_pairs)
        return m

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.exps)

    @property
    def support(self) -> frozenset:
        return frozenset(v for v, _ in self.exps)

    @property
    def is_one(self) -> bool:
        return not self.exps

    @property
    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.exps)

    def __getitem__(self, var: Variable) -> int:
        for v, e in self.exps:
            if v == var:
                return e
        return 0

    def mul(self, other: "Monomial") -> "Monomial":
        if not self.exps:
            return other
        if not other.exps:
            return self
        merged = dict(self.exps)
        for v, e in other.exps:
            merged[v] = merged.get(v, 0) + e
        return Monomial._make(tuple(sorted(merged.items())))

    def div(self, other: "Monomial") -> "Monomial":
        """Exact quotient self / other; raises if other does not divide self."""
        quot = dict(self.exps)
        for v, e in other.exps:
            left = quot.get(v, 0) - e
            if left < 0:
                raise ValueError(f"{other!r} does not divide {self!r}")
            if left:
                quot[v] = left
            else:
                del quot[v]
        return Monomial._make(tuple(sorted(quot.items())))

    def lcm(self, other: "Monomial") -> "Monomial":
        merged = dict(self.exps)
        for v, e in other.exps:
            if merged.get(v, 0) < e:
                merged[v] = e
        return Monomial._make(tuple(sorted(merged.items())))

    def __mul__(self, other: "Monomial") -> "Monomial":
        return self.mul(other)

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return _product(self.exps) or "1"


MONOMIAL_ONE = Monomial()


def format_rational(c: Rational) -> str:
    if type(c) is int:
        return str(c)
    if type(c) is not Fraction:
        c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def parse_rational(text: str) -> Fraction:
    """A rational from its ASCII "num/den" or integer string with a nonzero
    denominator, the form str(Fraction) writes. Anything else, a JSON
    float, "1.5e1", " 2 " or "1/0" among them, is rejected, never coerced;
    callers prefix the error with the field's path."""
    if isinstance(text, str):
        num, slash, den = text.partition("/")
        if _digits(num[1:] if num[:1] == "-" else num) and (not slash or _digits(den) and int(den)):
            return Fraction(int(num), int(den) if slash else 1)
    raise ValueError(f'must be a "num/den" string with a nonzero denominator, got {text!r:.40}')


def parse_number(text: str, kind: type, what: str):
    """kind(text), for kind int or float; the error names the field."""
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{what} must be {'an integer' if kind is int else 'a number'}, got {text.strip()!r:.40}") from None


def _digits(text: str) -> bool:
    return text.isascii() and text.isdigit()


_JSON_KINDS = {int: "an integer", str: "a string", list: "an array", dict: "an object"}


def json_value(value, kind: type, path: str):
    """value itself when its JSON type is exactly kind. A float, a numeric
    string or a boolean where an integer belongs is rejected, never coerced;
    the error names the field by its path in the document."""
    if type(value) is not kind:
        raise ValueError(f"{path} must be {_JSON_KINDS[kind]}, got {repr(value)[:40]}")
    return value


def json_field(doc, key: str, kind: type, path: str = ""):
    """The field doc[key] of a JSON object, checked by json_value."""
    json_value(doc, dict, path or "document")
    where = f"{path}.{key}" if path else key
    if key not in doc:
        raise ValueError(f"{where} is missing")
    return json_value(doc[key], kind, where)


# entries of one printer memo before it is emptied; every distinct monomial
# of gens --d 3 --n 4 (15,796) fits
RENDER_MEMO_SIZE = 1 << 15


class Packing:
    """Monomials as ints (Monagan & Pearce, CASC 2007), and the one printer
    of terms.

    Each variable owns width value bits and a guard bit above them, the
    first of variables in canonical order in the most significant field;
    key raises OverflowError for an exponent above emax. For in-range keys
    a and b, a larger int is a larger Ring.canonical_key, so sorted(keys,
    reverse=True) is the canonical term order and a proper divisor is a
    smaller int; a divides b exactly when ((b | guard) - a) & guard ==
    guard; a + b is the product, with a guard bit set where a field
    overflowed; lcm is the fieldwise maximum. pairs, monomial and
    polynomial decode; text renders a polynomial for reprs and the text, m2
    and singular formats, json_terms its term list in the JSON ideal
    document. Each builds a monomial from its groups, the variables sharing
    a kind and index (a_j_0 .. a_j_d for polynomial j): each distinct field
    value of a group is decoded or rendered once per packing and style, and
    each distinct half of a key's groups is looked up whole.
    The decoders read the fields alone, so a key may carry bits above
    them, such as the order key of an orders._Reducer term.
    The printers also keep what they finish: text each key's *-joined body
    per namer, both printers each coefficient's term head, json_terms each
    key's "m" block. Every printing call builds its own Packing (a gens
    run, an export, a repr), so nothing rendered outlives the call; a
    Groebner kernel's Packing lives as long as its order. A memo that
    passes RENDER_MEMO_SIZE entries is emptied, which bounds the memory of
    a long stream.
    """

    __slots__ = ("variables", "width", "emax", "guard", "shifts", "_groups", "_memos")

    def __init__(self, variables: Iterable[Variable], width: int):
        self.variables, self.width, self.emax = tuple(sorted(variables)), width, (1 << width) - 1
        step = width + 1
        top = step * len(self.variables)
        self.shifts = {v: top - step * (idx + 1) for idx, v in enumerate(self.variables)}
        self.guard = sum(1 << (shift + width) for shift in self.shifts.values())
        groups: dict = {}
        for v in self.variables:
            groups.setdefault((v.kind, v.i), []).append(v)
        self._groups = []  # (group name prefix, low shift, group mask, (variable, offset) pairs)
        for (kind, i), vs in groups.items():
            low = self.shifts[vs[-1]]
            prefix = f"{kind}_{i}_" if kind in ("a", "b") else kind
            spec = tuple((v, self.shifts[v] - low) for v in vs)
            self._groups.append((prefix, low, (1 << step * len(vs)) - 1, spec))
        self._memos: dict = {}  # _parts() per style, the printers' memos, polynomial()'s decodes

    @classmethod
    def over(cls, monomials: Iterable["Monomial"]) -> "Packing":
        """The narrowest packing of the variables the monomials use."""
        support, top = set(), 1
        for m in monomials:
            for v, e in m.exps:
                support.add(v)
                if e > top:
                    top = e
        return cls(support, top.bit_length())

    def key(self, m: "Monomial") -> int:
        shifts, emax, key = self.shifts, self.emax, 0
        for v, e in m.exps:
            if e > emax:
                raise OverflowError(f"exponent {e} of {v.name} exceeds {emax}")
            key += e << shifts[v]
        return key

    def lcm(self, a: int, b: int) -> int:
        """Fieldwise maximum of two in-range keys."""
        ge = ((a | self.guard) - b) & self.guard  # guard bit of each field where a >= b
        pick = ge - (ge >> self.width)  # those fields' value bits
        return (a & pick) | (b & ~pick)

    def pack(self, terms: Mapping["Monomial", Rational]) -> dict:
        """Packed terms; integral coefficients become ints, which print faster."""
        return {self.key(m): c.numerator if c.denominator == 1 else c for m, c in terms.items()}

    def _parts(self, style, render, by_name: bool = False):
        """key -> the rendered nonempty groups of the key, as a tuple, most
        significant first or, by_name, in the name order of
        json.dumps(sort_keys=True), where a_10_* comes before a_1_*; made
        once per style. render maps a group's (variable, exponent) pairs,
        in canonical order, to its fragment. The groups, in that order,
        are cut into a first and a second half, and each half's fragments
        are memoized on the key's bits in that half, so a key whose halves
        were both seen costs two dict lookups. Each distinct field value
        of a group is rendered once per style. A half memo that passes
        RENDER_MEMO_SIZE entries is emptied."""
        parts = self._memos.get(style)
        if parts is not None:
            return parts
        mask = self.emax
        groups = sorted(self._groups) if by_name else self._groups
        cut = len(groups) // 2

        def half(part: list) -> tuple:
            """The mask of part's groups in a key, and fill(bits, memo),
            which renders the groups of bits and keeps them in memo."""
            table = [(low, fields, {}, spec) for _, low, fields, spec in part]

            def fill(bits: int, memo: dict) -> tuple:
                out = []
                for low, fields, seen, spec in table:
                    f = (bits >> low) & fields
                    if f:
                        got = seen.get(f)
                        if got is None:
                            exps = ((v, (f >> off) & mask) for v, off in spec)
                            got = seen[f] = render(tuple((v, e) for v, e in exps if e))
                        out.append(got)
                if len(memo) > RENDER_MEMO_SIZE:
                    memo.clear()
                out = memo[bits] = tuple(out)
                return out

            return sum(fields << low for _, low, fields, _ in part), fill

        (high, fill_high), (low, fill_low) = half(groups[:cut]), half(groups[cut:])
        high_memo, low_memo = {}, {}

        def parts(key: int) -> tuple:
            h, l = key & high, key & low
            a = high_memo.get(h)
            if a is None:
                a = fill_high(h, high_memo)
            b = low_memo.get(l)
            if b is None:
                b = fill_low(l, low_memo)
            return a + b

        self._memos[style] = parts
        return parts

    def pairs(self, key: int) -> tuple:
        """The (variable, exponent) pairs of an in-range key, in canonical order."""
        return sum(self._parts("pairs", tuple)(key), ())

    def monomial(self, key: int) -> "Monomial":
        return Monomial._make(self.pairs(key))

    def polynomial(self, ring: "Ring", terms: Mapping[int, Rational]) -> "Polynomial":
        """Packed terms as a Polynomial of ring with Fraction coefficients;
        each distinct key and coefficient is decoded once while it stays in
        the memo."""
        monos, fracs = self._render_memo("monomials"), self._render_memo("fractions")
        monos.update((key, self.monomial(key)) for key in terms if key not in monos)
        fracs.update((c, Fraction(c)) for c in terms.values() if c not in fracs)
        return Polynomial(ring, {monos[key]: fracs[c] for key, c in terms.items()}, _trusted=True)

    def _render_memo(self, name) -> dict:
        """The printers' memo called name, emptied first if it holds more
        than RENDER_MEMO_SIZE entries."""
        memo = self._memos.get(name)
        if memo is None or len(memo) > RENDER_MEMO_SIZE:
            memo = self._memos[name] = {}
        return memo

    def text(self, terms: Mapping[int, Rational], namer=str) -> str:
        """Deterministic human/CAS-readable rendering of packed terms;
        namer maps a Variable to its printed name. Each key's *-joined
        body is rendered once per namer, and each coefficient's head of a
        later term with a body once, while they stay in the memo."""
        if not terms:
            return "0"
        bodies, heads = self._render_memo(("text", namer)), self._render_memo("text heads")
        parts = self._parts(namer, lambda pairs: _product(pairs, namer))
        out = []
        for key in sorted(terms, reverse=True):
            c = terms[key]
            body = bodies.get(key)
            if body is None:
                body = bodies[key] = "*".join(parts(key))
            if out and body:
                head = heads.get(c)
                if head is None:
                    head = heads[c] = _text_head(c, False, True)
            else:
                head = _text_head(c, not out, bool(body))
            out.append(head + body)
        return "".join(out)

    def json_terms(self, terms: Mapping[int, Rational]) -> str:
        """The term list [{"c": "num/den", "m": {name: exp}}, ...] of one
        generator of the JSON ideal document, in canonical order: the bytes
        json.dumps(indent=2, sort_keys=True) writes for it at depth 2. Each
        key's "m" block and each coefficient's term head is rendered once
        while it stays in the memo."""
        if not terms:
            return "    []"
        blocks, heads = self._render_memo("json blocks"), self._render_memo("json heads")
        parts = self._parts("json", lambda pairs: ",\n".join(
            f'          "{name}": {e}' for name, e in sorted((v.name, e) for v, e in pairs)), True)
        out = []
        for key in sorted(terms, reverse=True):
            m = blocks.get(key)
            if m is None:
                m = parts(key)
                m = blocks[key] = ("{\n" + ",\n".join(m) + "\n        }" if m else "{}") + "\n      }"
            c = terms[key]
            head = heads.get(c)
            if head is None:
                head = heads[c] = f'      {{\n        "c": "{format_rational(c)}",\n        "m": '
            out.append(head + m)
        return "    [\n" + ",\n".join(out) + "\n    ]"


def _text_head(c: Rational, first: bool, body: bool) -> str:
    """What Packing.text writes before a term's body: the sign as a
    separator unless the term is first, then the coefficient, a unit one
    as its bare sign when a body follows."""
    sep = ""
    if not first:
        sep = " - " if c < 0 else " + "
        c = abs(c)
    c = format_rational(c)
    if body:
        c = c[:-1] if c in ("1", "-1") else c + "*"
    return sep + c


def _product(pairs: tuple, namer=str) -> str:
    """A monomial's pairs, in canonical order, as Packing.text prints them."""
    return "*".join(namer(v) if e == 1 else f"{namer(v)}^{e}" for v, e in pairs)


class _Wider(Exception):
    """An exponent outgrew the reader's packing; args[0] bits fit it."""


def read_terms(ring: Ring, lists: list, path: str = "") -> tuple:
    """The one reader of the JSON term-list format, [{"c": "num/den", "m":
    {name: exp}}, ...] as Polynomial.to_json writes it: one Packing, and
    each list of lists as {key of that packing: int or Fraction}, with no
    Monomial built.

    Per term it checks "m" and its names and exponents in document order,
    then "c"; the first check to fail raises ValueError naming the field by
    its path in the list, such as [2].m.a_1_0, after "{path}[i]: " for list
    i when path is given. A JSON float or boolean exponent is rejected,
    never coerced. The terms are checked as Polynomial(ring, terms) checks
    them, once: a "0" coefficient is dropped, repeated monomials merge, and
    after every field of a list has parsed, the first variable outside the
    ring in a term with a nonzero coefficient raises RingMismatchError.
    The packing holds the ring's variables that the lists name, so its
    cost follows the document, not the declared ring. Its fields start as
    wide as minors.packed_minors makes them and double, the lists read
    again, until the largest exponent fits."""
    named = set()  # every name of a well-formed "m"; the rest is checked in order below
    for data in lists:
        if type(data) is list:
            for entry in data:
                exps = entry.get("m") if type(entry) is dict else None
                if type(exps) is dict:
                    named.update(exps)
    inside = {}  # name -> variable, for the names of ring variables
    for name in named:
        try:
            var = Variable.parse(name)
        except ValueError:
            continue
        if var in ring:
            inside[name] = var
    width = (ring.d + 1).bit_length()
    while True:
        try:
            return _read_terms(ring, lists, Packing(inside.values(), width), inside, path)
        except _Wider as exc:
            width = max(2 * width, exc.args[0])


def _read_terms(ring: Ring, lists: list, packing: Packing, inside: dict, path: str) -> tuple:
    """read_terms at the width of packing, over the variables named in
    inside; _Wider when an exponent does not fit."""
    emax = packing.emax
    shifts = {name: packing.shifts[var] for name, var in inside.items()}
    coeffs: dict = {}  # "c" string -> int or Fraction; names and "c"s parse apart
    out = []
    for idx, data in enumerate(lists):
        try:
            terms: dict = {}
            outside = None
            for t, entry in enumerate(json_value(data, list, "polynomial")):
                exps = entry.get("m") if type(entry) is dict else None
                if type(exps) is not dict:
                    json_field(entry, "m", dict, f"[{t}]")
                key, foreign = 0, None  # foreign: the term's first variable outside the ring
                for name, e in exps.items():
                    shift = shifts.get(name)
                    if shift is not None and type(e) is int and 0 < e <= emax:
                        key += e << shift
                        continue
                    # every other pair takes each check in order
                    var = Variable.parse(name)
                    if type(e) is not int:
                        json_value(e, int, f"[{t}].m.{name}")
                    if e < 0:
                        raise ValueError(f"negative exponent {e} for {name}")
                    if not e:
                        continue
                    if shift is None:
                        if foreign is None or var < foreign:
                            foreign = var
                    else:
                        raise _Wider(e.bit_length())
                text = entry.get("c")
                if type(text) is not str:
                    json_field(entry, "c", str, f"[{t}]")
                c = coeffs.get(text)
                if c is None:
                    try:
                        c = parse_rational(text)
                    except ValueError as exc:
                        raise ValueError(f"[{t}].c {exc}") from None
                    c = coeffs[text] = c.numerator if c.denominator == 1 else c
                if not c:
                    continue
                if foreign is not None:  # the list is refused once its fields have parsed
                    if outside is None:
                        outside = foreign
                    continue
                s = terms.get(key)
                s = c if s is None else s + c
                if s:
                    terms[key] = s
                else:
                    del terms[key]
            if outside is not None:
                raise RingMismatchError(f"variable {outside.name} not in {ring!r}")
        except ValueError as exc:
            if path:
                raise type(exc)(f"{path}[{idx}]: {exc}") from None
            raise
        out.append(terms)
    return packing, out


class Polynomial:
    """A finite Fraction-linear combination of monomials over a fixed ring."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: Mapping[Monomial, Rational] = (), *, _trusted: bool = False):
        self.ring = ring
        if _trusted:
            self.terms = terms
            return
        clean = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for m, c in items:
            if type(c) is not Fraction:
                c = Fraction(c)
            if not c:
                continue
            for v, _ in m.exps:
                if v not in ring:
                    raise RingMismatchError(f"variable {v.name} not in {ring!r}")
            s = clean.get(m)
            s = c if s is None else s + c
            if s:
                clean[m] = s
            elif m in clean:
                del clean[m]
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring: Ring) -> "Polynomial":
        return cls(ring, {}, _trusted=True)

    @classmethod
    def constant(cls, ring: Ring, c: Rational) -> "Polynomial":
        c = Fraction(c)
        return cls(ring, {MONOMIAL_ONE: c} if c else {}, _trusted=True)

    @classmethod
    def variable(cls, ring: Ring, var: Variable) -> "Polynomial":
        if var not in ring:
            raise RingMismatchError(f"variable {var.name} not in {ring!r}")
        return cls(ring, {Monomial(((var, 1),)): Fraction(1)}, _trusted=True)

    @classmethod
    def term(cls, ring: Ring, mono: Monomial, c: Rational) -> "Polynomial":
        return cls(ring, {mono: c})

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def total_degree(self) -> int:
        """Maximum term degree; the zero polynomial reports -1."""
        return max((m.degree for m in self.terms), default=-1)

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.terms.get(mono, Fraction(0))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        _check_same_ring(self, other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            s = c if s is None else s + c
            if s:
                out[m] = s
            elif m in out:
                del out[m]
        return Polynomial(self.ring, out, _trusted=True)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()}, _trusted=True)

    def scale(self, c: Rational) -> "Polynomial":
        c = Fraction(c)
        if not c:
            return Polynomial.zero(self.ring)
        return Polynomial(self.ring, {m: c * v for m, v in self.terms.items()}, _trusted=True)

    def mul_term(self, mono: Monomial, c: Rational) -> "Polynomial":
        """Fast product with the single term c * mono."""
        c = Fraction(c)
        if not c:
            return Polynomial.zero(self.ring)
        return Polynomial(
            self.ring, {m.mul(mono): c * v for m, v in self.terms.items()}, _trusted=True
        )

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        _check_same_ring(self, other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1.mul(m2)
                s = out.get(m)
                s = c1 * c2 if s is None else s + c1 * c2
                if s:
                    out[m] = s
                elif m in out:
                    del out[m]
        return Polynomial(self.ring, out, _trusted=True)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, assignment: Mapping[Variable, Rational]):
        """Exact value at a total assignment of the support variables.

        Stays in machine/big integers whenever the inputs allow it."""
        total = 0
        for mono, c in self.terms.items():
            v = c.numerator if c.denominator == 1 else c
            for var, e in mono.exps:
                try:
                    val = assignment[var]
                except KeyError:
                    raise KeyError(f"no value for variable {var.name}") from None
                v = v * (val if e == 1 else val**e)
            total += v
        return total

    # -- serialization -----------------------------------------------------

    def to_json(self) -> list:
        """Term list [{"c": "num/den", "m": {name: exp}}, ...], stably ordered."""
        out = []
        for m in sorted(self.terms, key=self.ring.canonical_key, reverse=True):
            out.append(
                {"c": format_rational(self.terms[m]), "m": {v.name: e for v, e in m.exps}}
            )
        return out

    @classmethod
    def from_json(cls, ring: Ring, data: list) -> "Polynomial":
        """Inverse of to_json: the decode, by Packing.polynomial, of what
        read_terms reads from the one term list. Errors name the bad field
        by its path in the list, such as [2].m.a_1_0; a "0" coefficient is
        dropped, repeated monomials merge, and after every field has parsed,
        the first variable outside the ring in a kept term raises
        RingMismatchError."""
        packing, (terms,) = read_terms(ring, [data])
        return packing.polynomial(ring, terms)

    def __repr__(self) -> str:
        packing = Packing.over(self.terms)
        return packing.text(packing.pack(self.terms))
