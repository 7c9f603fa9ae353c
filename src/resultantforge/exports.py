"""Exporters to external computer-algebra script formats and the JSON
ideal document.

External systems are export targets only, never runtime dependencies.
Rationals are always printed as num/den strings, output is byte-stable for
fixed input, and ring declarations list the coefficient variables in
column-major order (all leading coefficients first). Every format is
printed from packed terms by poly.Packing, the one printer of terms, which
also backs reprs; this module only chooses the variable names and the
script around them. ideal_pieces writes a document generator by
generator, so `gens` streams each minor from its expansion to the output.
`export --input` reads a document straight into packed terms
(from_json_doc) and prints them the same way; export_ideal packs
Polynomials for library callers and joins the same pieces.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator, Optional, Sequence

from .poly import Packing, Polynomial, Ring, Variable, json_field, read_terms

FORMATS = ("json", "m2", "singular", "text")

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def alias_name(var: Variable, d: int) -> str:
    """Column-letter alias: a_i for a_i_0, b_i for a_i_1, and so on.

    Only defined while the column index fits the alphabet (d + 1 <= 26).
    """
    if var.kind != "a":
        raise ValueError(f"no alias for {var.name}")
    if d + 1 > len(_LETTERS):
        raise ValueError(f"alias naming needs d + 1 <= 26, got d = {d}")
    return f"{_LETTERS[var.j]}_{var.i}"


def from_json_doc(text: str) -> tuple:
    """The ring of an ideal document, the Packing of its variables and its
    generators as packed terms, read by poly.read_terms with no Monomial
    built; a malformed document raises ValueError naming the bad field,
    e.g. generators[0]: [1].c."""
    doc = json.loads(text)
    ring = Ring(json_field(doc, "d", int), json_field(doc, "n", int))
    return (ring, *read_terms(ring, json_field(doc, "generators", list), "generators"))


def ideal_pieces(ring: Ring, packing: Packing, minors: Iterable[dict], fmt: str, alias: Optional[bool] = None) -> Iterator[str]:
    """The ideal document of packed minors in fmt, one generator per piece
    after the first, which also carries the head; the last piece is the
    tail. Nothing is held beyond the generator being written. The format
    and the m2 names are checked before the first piece is made.

    m2 uses the column-letter aliases by default whenever they exist and
    indexed symbols a_(i,j) otherwise; singular uses a(i)(j). The JSON
    document has the bytes of json.dumps({"d", "n", "generators": [p.to_json(),
    ...]}, indent=2, sort_keys=True) + "\n"; names and rational strings
    need no escaping.
    """
    if fmt == "json":
        head, foot = f'{{\n  "d": {ring.d},\n  "generators": [', f'],\n  "n": {ring.n}\n}}\n'
        return _pieces(head + "\n", ",\n", "\n  " + foot, head + foot, packing.json_terms, minors)
    if fmt == "m2":
        if alias is None:
            alias = ring.d + 1 <= len(_LETTERS)
        if alias:
            namer = lambda v: alias_name(v, ring.d)
            cols = (namer(ring.coeff(1, j)) + ".." + namer(ring.coeff(ring.n, j)) for j in range(ring.d + 1))
        else:
            namer = lambda v: f"a_({v.i},{v.j})"
            cols = map(namer, ring.coeff_vars_column_major())
        head = f"R = QQ[{','.join(cols)}];\nI = ideal(\n"
        return _pieces(head + "  ", ",\n  ", "\n);\n", head + "\n);\n", lambda t: packing.text(t, namer), minors)
    if fmt == "singular":
        namer = lambda v: f"a({v.i})({v.j})"
        head = f"ring r = 0, ({','.join(map(namer, ring.coeff_vars_column_major()))}), dp;\nideal I = "
        return _pieces(head, ",\n  ", ";\n", head + ";\n", lambda t: packing.text(t, namer), minors)
    if fmt == "text":
        return _pieces("", "\n", "\n", "\n", packing.text, minors)
    raise ValueError(f"unsupported format {fmt!r}; choose from {FORMATS}")


def _pieces(head: str, sep: str, tail: str, empty: str, render, minors: Iterable[dict]) -> Iterator[str]:
    """head + sep.join(map(render, minors)) + tail in pieces, or empty
    when there are no minors."""
    first = True
    for terms in minors:
        yield (head if first else sep) + render(terms)
        first = False
    yield empty if first else tail


def export_ideal(ring: Ring, polys: Sequence[Polynomial], fmt: str, alias: Optional[bool] = None) -> str:
    """The ideal document of Polynomials in fmt, packed and printed as
    ideal_pieces does for minors."""
    packing = Packing.over(m for p in polys for m in p.terms)
    return "".join(ideal_pieces(ring, packing, [packing.pack(p.terms) for p in polys], fmt, alias))
